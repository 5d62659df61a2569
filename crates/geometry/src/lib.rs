//! # pargeo-geometry — geometry kernel
//!
//! The numeric substrate shared by every ParGeo-rs module:
//!
//! * [`point`] — const-generic fixed-dimension points (`Point<D>`) with the
//!   vector arithmetic the algorithms need and nothing more.
//! * [`bbox`] — axis-aligned bounding boxes with the distance/separation
//!   queries used by kd-trees, WSPD and dual-tree traversals.
//! * [`predicates`] — *exact* orientation, in-circle and diametral-circle
//!   tests with a cheap static filter in front: the fast path is a plain
//!   double-precision determinant accepted only when it clears a forward
//!   error bound; the slow path evaluates the determinant exactly over
//!   expansions (a private module of Dekker/Knuth two-sum and two-product
//!   ladders and Shewchuk's zero-eliminating sums). This plays the role
//!   CGAL's exact predicates play for the original ParGeo.
//! * [`ball`] — spheres through support sets (the Welzl base case), solved
//!   via a small Gram-system Gaussian elimination.
//! * [`error`] — [`GeoError`], the shared vocabulary of the library's
//!   non-panicking `try_*` entry points and of the `pargeo-store` façade.

#![warn(missing_docs)]

pub mod ball;
pub mod bbox;
pub mod error;
mod expansion;
pub mod point;
pub mod predicates;
pub mod soa;

pub use ball::{ball_through, Ball};
pub use bbox::Bbox;
pub use error::{GeoError, GeoResult};
pub use point::{Point, Point2, Point3};
pub use predicates::{in_diametral_circle, incircle, orient2d, orient3d, Orientation};
pub use soa::SoaPoints;

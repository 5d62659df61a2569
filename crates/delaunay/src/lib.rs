//! # pargeo-delaunay — 2D Delaunay triangulation (paper Module 3)
//!
//! Incremental Bowyer–Watson with exact `incircle` on one kernel: a flat
//! triangle slab that is always exactly the live mesh, whose cavities are
//! found by a tour of their dual tree and re-starred in place — no
//! hashing and no allocation per insertion. One sequential insertion loop
//! serves two orders:
//!
//! - [`delaunay`] / [`try_delaunay`] run it over the Morton order of the
//!   input (a BRIO-style locality order) — the library entry point behind
//!   `graphgen`'s Delaunay graph and β-skeleton;
//! - [`DelaunayIncremental`] runs it over index order, the schedule the
//!   store's batches resume, so an advanced engine and a fresh build agree
//!   edge for edge even on cocircular input.
//!
//! In general position both orders build the one Delaunay triangulation;
//! on cocircular input each gives one valid triangulation, fixed by its
//! order. Input with no 2-D extent (all points coincident or collinear)
//! is refused by one early-exit scan before any point is inserted.
//!
//! The triangulation is seeded with a far-away enclosing super-triangle
//! whose corners are removed at the end. The corners sit `10⁶ ×` the input
//! diameter away; with exact predicates this yields the true Delaunay
//! triangulation for all but adversarially flat inputs (the classic
//! trade-off of non-symbolic super-triangles; [`validate_delaunay`]'s
//! empty-circumcircle check guards the tests).

#![warn(missing_docs)]

mod bw;
mod graphs;
mod inc;
mod tri;

pub use bw::{delaunay, try_delaunay, Delaunay};
pub use graphs::{delaunay_edges, gabriel_graph};
pub use inc::{DelaunayBatchOutcome, DelaunayIncremental};
pub use tri::validate_delaunay;

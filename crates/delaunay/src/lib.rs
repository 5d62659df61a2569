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
//! - [`DelaunayIncremental`] runs it over index order, the order the
//!   store's batches append in.
//!
//! Both build the one triangulation of the point set. The mesh is closed
//! by a ghost vertex at infinity instead of a far-away super-triangle, so
//! no coordinate is invented and every triangle is a Delaunay triangle of
//! the input; cocircular ties are broken by a symbolic perturbation of
//! `incircle` over the points' lexicographic ranks (Simulation of
//! Simplicity), so the answer depends on neither the insertion order nor
//! the input's order (duplicates collapse onto their lowest index). Input
//! with no 2-D extent (all points coincident or collinear) is refused by
//! one early-exit scan before any point is inserted.

#![warn(missing_docs)]

mod bw;
mod graphs;
mod inc;
mod tri;

pub use bw::{delaunay, try_delaunay, Delaunay};
pub use graphs::{delaunay_edges, gabriel_graph};
pub use inc::{DelaunayBatchOutcome, DelaunayIncremental};
pub use tri::validate_delaunay;

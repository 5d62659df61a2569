//! # pargeo-delaunay — 2D Delaunay triangulation (paper Module 3)
//!
//! Incremental Bowyer–Watson with exact `incircle`, Morton-order (BRIO
//! style) insertion, and — in the parallel variant — **the paper's
//! reservation technique applied to triangulation**: a batch of uninserted
//! points computes their conflict cavities, priority-writes their ranks
//! onto the cavity triangles plus the boundary ring, and the points that
//! win every reservation retriangulate disjoint cavities in parallel. This
//! is exactly the Figure 5 skeleton with "facet" = "triangle" and "visible"
//! = "inside the circumcircle", which is how ParGeo reuses one parallel
//! scheme across incremental geometry algorithms.
//!
//! All three drivers — the index-order engine [`DelaunayIncremental`],
//! the Morton-order [`delaunay_seq`] and the parallel [`delaunay`] — share
//! one kernel: a flat triangle slab that is always exactly the live mesh,
//! whose cavities are found by a tour of their dual tree and re-starred
//! in place — no hashing anywhere, and in the sequential drivers no
//! allocation per insertion.
//!
//! The triangulation is seeded with a far-away enclosing super-triangle
//! whose corners are removed at the end. The corners sit `10⁶ ×` the input
//! diameter away; with exact predicates this yields the true Delaunay
//! triangulation for all but adversarially flat inputs (the classic
//! trade-off of non-symbolic super-triangles; the `validate` module's
//! empty-circumcircle check guards the experiments).

#![warn(missing_docs)]

mod bw;
mod graphs;
mod inc;
mod tri;

pub use bw::{delaunay, delaunay_seeded, delaunay_seq, try_delaunay, Delaunay};
pub use graphs::{delaunay_edges, gabriel_graph};
pub use inc::{DelaunayBatchOutcome, DelaunayIncremental};
pub use tri::validate_delaunay;

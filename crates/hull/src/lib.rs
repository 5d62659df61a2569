//! # pargeo-hull — parallel convex hull in R² and R³ (paper §3)
//!
//! The paper's first algorithmic contribution: a **reservation-based**
//! parallel incremental convex hull. Instead of inserting one point per
//! round, a batch of *visible points* is processed; every point
//! priority-writes its rank onto its visible facets (`WriteMin`), and only
//! points that won **all** of their reservations mutate the hull this round
//! — their cavities are disjoint, so the mutations are data-race-free. One
//! driver runs this skeleton in both dimensions, with either batch policy:
//! the randomized incremental algorithm (batch = prefix of a random
//! permutation) or quickhull (batch = per-facet furthest points).
//!
//! Modules:
//!
//! * [`hull2d`] — sequential quickhull (the CGAL/Qhull baseline stand-in),
//!   the PBBS-style parallel recursive quickhull, randomized incremental
//!   (the driver over hull edges), and the divide-and-conquer wrapper.
//! * [`hull3d`] — the facet/ridge mesh with conflict lists, sequential
//!   quickhull, the driver's randinc + quickhull over the mesh (with the
//!   work counters behind Figure 12), the pseudohull point-culling
//!   heuristic of Tang et al. \[54\], and the divide-and-conquer wrapper.
//!
//! One deliberate deviation from the paper's description: our reservation
//! covers the visible facets **and** the facets just beyond the horizon.
//! The paper reserves only visible facets and resolves shared horizon
//! ridges when linking new facets; reserving the one-facet-wide boundary
//! ring removes that coupling entirely (two winners can never share a
//! ridge), at the cost of slightly fewer winners per round. Work remains
//! within a constant factor (each facet has 3 neighbors), and Figure 12's
//! success-rate claims still hold — see the `fig12_reservation` bench.

#![warn(missing_docs)]

pub mod hull2d;
pub mod hull3d;
mod reservation;

pub use hull2d::{
    hull2d_divide_conquer, hull2d_quickhull_parallel, hull2d_randinc, hull2d_seq, try_hull2d,
    try_hull2d_with, Hull2dIncremental, HullBatchOutcome,
};
pub use hull3d::{
    hull3d_divide_conquer, hull3d_pseudo, hull3d_quickhull_parallel, hull3d_randinc, hull3d_seq,
    try_hull3d, try_hull3d_with, Hull3d, HullStats,
};

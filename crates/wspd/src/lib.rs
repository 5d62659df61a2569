//! # pargeo-wspd — well-separated pair decomposition and its clients
//!
//! Paper Modules (2)/(3): the WSPD \[26\] computed from the parallel
//! kd-tree, and the algorithms built on it:
//!
//! * [`mod@wspd`] — Callahan–Kosaraju well-separated pair decomposition: the
//!   top of the recursion listed as tasks, the tasks solved in parallel.
//! * [`bccp`] — bichromatic closest pair via pruned dual-tree traversal.
//! * [`mod@emst`] — Euclidean minimum spanning tree: WSPD pairs are candidate
//!   MST edges (for separation `s ≥ 2` the MST is a subset of the pairs'
//!   BCCPs). A windowed filter-Kruskal (GeoFilterKruskal \[56\]): doubling
//!   windows of the smallest-bound pairs found by selection, pairs inside
//!   one component dropped before their BCCP is computed, one parallel
//!   BCCP pass per window, and a sort-and-Kruskal over the edges no
//!   unvisited pair can undercut.
//! * [`mod@spanner`] — the WSPD t-spanner \[26\]: one representative edge per
//!   well-separated pair with `s = 4(t+1)/(t-1)`.
//! * [`unionfind`] — the union-find substrate under Kruskal.
//! * [`dendrogram`] — single-linkage hierarchical clustering from the EMST
//!   (the paper's §2 WSPD → HDBSCAN pipeline).

#![warn(missing_docs)]

pub mod bccp;
pub mod dendrogram;
pub mod emst;
pub mod spanner;
pub mod unionfind;
#[allow(clippy::module_inception)]
pub mod wspd;

pub use bccp::{bccp_nodes, bccp_points};
pub use dendrogram::Dendrogram;
pub use emst::{emst, EmstEdge};
pub use spanner::{spanner, spanner_with_separation};
pub use unionfind::UnionFind;
pub use wspd::{wspd, wspd_from_tree};

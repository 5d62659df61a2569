//! # pargeo-wspd — well-separated pair decomposition and its clients
//!
//! Paper Modules (2)/(3): the WSPD \[26\] computed from the parallel
//! kd-tree, and the algorithms built on it:
//!
//! * [`mod@wspd`] — Callahan–Kosaraju well-separated pair decomposition: the
//!   top of the recursion listed as tasks, the tasks solved in parallel,
//!   with a hook that lets a caller cut parts of the recursion.
//! * [`bccp`] — bichromatic closest pair via pruned dual-tree traversal.
//! * [`mod@emst`] — Euclidean minimum spanning tree: WSPD pairs are candidate
//!   MST edges (for separation `s ≥ 2` the MST is a subset of the pairs'
//!   BCCPs). MemoGFK \[56\]: Kruskal in rounds, each of which re-walks the
//!   WSPD recursion for only the pairs whose bound lies in its window,
//!   cutting node pairs already inside one component, so the full
//!   decomposition is never built.
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

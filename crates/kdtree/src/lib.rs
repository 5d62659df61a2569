//! # pargeo-kdtree — static parallel kd-trees (paper Module 1)
//!
//! * [`tree`] — the flat-array static kd-tree with fully parallel
//!   construction: the crate's one node type, one build and one set of
//!   traversals. Splits are chosen along the widest dimension of the
//!   node's bounding box, by **object median** (parallel selection) or
//!   **spatial median** (parallel partition), the two heuristics compared
//!   throughout the paper's §6.3.
//! * [`knn`] — exact k-nearest-neighbor search, the tree's k-NN descent. Each query carries a
//!   *k-NN buffer*: a `k`-slot max-heap whose bound is always the exact
//!   k-th distance (Appendix C.1.3's `2k`-slot select-when-full buffer
//!   trades a stale bound for O(1) inserts). Batch queries are
//!   data-parallel and evaluated in Z-order of the queries.
//! * [`range`] — orthogonal (box) and spherical range search and counting,
//!   the tree's range descents.
//! * [`veb`] — the van Emde Boas layout static tree of Appendix C.1, the
//!   building block of the BDL-tree: `veb` = `tree` + layout + overlay —
//!   a [`KdTree`] whose node array is permuted into vEB order (Algorithm 1)
//!   under a copy-on-write liveness overlay that the parallel bulk deletion
//!   (Algorithm 2) writes and every descent reads.
//! * [`baselines`] — the §6.3 comparison baselines: **B1** (rebuild on every
//!   batch update) and **B2** (in-place leaf insertion + tombstone deletes,
//!   no rebalancing).

#![warn(missing_docs)]

pub mod baselines;
pub mod knn;
pub mod range;
pub mod tree;
pub mod veb;

pub use baselines::{B1Tree, B2Tree};
pub use knn::{canonical_order, knn_brute_force, KnnBuffer, KnnProbe, KnnWork, Neighbor};
pub use tree::{KdTree, SplitRule};
pub use veb::VebTree;

//! # pargeo-kdtree — static parallel kd-trees (paper Module 1)
//!
//! * [`tree`] — the flat-array static kd-tree with fully parallel
//!   construction. Splits are chosen along the widest dimension of the
//!   node's bounding box, by **object median** (parallel selection) or
//!   **spatial median** (parallel partition), the two heuristics compared
//!   throughout the paper's §6.3.
//! * [`knn`] — exact k-nearest-neighbor search. Each query carries a
//!   *k-NN buffer*: a `k`-slot max-heap whose bound is always the exact
//!   k-th distance (Appendix C.1.3's `2k`-slot select-when-full buffer
//!   trades a stale bound for O(1) inserts). Batch queries are
//!   data-parallel and evaluated in Z-order of the queries.
//! * [`range`] — orthogonal (box) and spherical range search.
//! * [`veb`] — the van Emde Boas layout static tree of Appendix C.1
//!   (Algorithm 1: parallel construction; Algorithm 2: parallel bulk
//!   deletion), the building block of the BDL-tree.
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

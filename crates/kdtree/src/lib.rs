//! # pargeo-kdtree — parallel kd-trees (paper Module 1)
//!
//! One tree, used three ways: the static kd-tree, the same tree under a
//! liveness overlay (the BDL-tree's level), and the tree built over
//! Morton-ordered rows under merge updates (the Zd-tree comparator).
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
//!   the tree's range descents; the box descents report their work to a
//!   `RangeProbe` the way k-NN reports to a `KnnProbe`.
//! * [`LevelTree`] — one level of the BDL-tree: `tree` + overlay — a
//!   [`KdTree`], nodes in the build's preorder, under a copy-on-write
//!   liveness overlay that the parallel bulk deletion (Algorithm 2) writes
//!   and every descent reads. The paper's Appendix C.1 lays a level out in
//!   van Emde Boas order; this one keeps the preorder (DESIGN §5,
//!   entry 7).
//! * [`zdtree`] — the Morton-order Zd-tree, the batch-dynamic comparator
//!   of §6.3: `zdtree` = `tree` + Morton order + merge updates — a
//!   [`KdTree`] built as the radix tree over code-sorted rows, rebuilt
//!   after every merge-insert or merge-subtract batch.
//! * [`baselines`] — the §6.3 comparison baselines, both on `tree`'s one
//!   build: **B1** (rebuild on every batch update) and **B2** (the node
//!   array of the first build kept, in-place leaf insertion + tombstone
//!   deletes, no rebalancing).

#![warn(missing_docs)]

pub mod baselines;
pub mod knn;
pub mod range;
pub mod tree;
mod veb;
pub mod zdtree;

pub use baselines::{B1Tree, B2Tree};
pub use knn::{canonical_order, knn_brute_force, KnnBuffer, KnnProbe, KnnWork, Neighbor};
pub use range::{RangeProbe, RangeWork};
pub use tree::{KdTree, SplitRule};
pub use veb::LevelTree;
pub use zdtree::ZdTree;

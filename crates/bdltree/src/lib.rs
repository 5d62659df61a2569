//! # pargeo-bdltree — the parallel batch-dynamic log-structured kd-tree
//!
//! The BDL-tree of the paper's §5: a set of static [`VebTree`]s of
//! exponentially growing capacities `X·2^0, X·2^1, …` plus a size-`X`
//! buffer, maintained with the logarithmic method of Bentley–Saxe:
//!
//! * **Batch insert** (Algorithm 3) — a bitmask `F` records which static
//!   trees are occupied; inserting `|P|` points advances it to
//!   `F + ⌊|P|/X⌋`, and the bitwise difference determines exactly which
//!   trees are destroyed and which larger trees are rebuilt (in parallel)
//!   from the union of their points and the batch.
//! * **Batch delete** (Algorithm 4) — points are bulk-erased from every
//!   tree in parallel (Algorithm 2 with subtree collapse); any tree that
//!   falls below half capacity is drained, and its survivors are carried
//!   into the larger trees exactly like an inserted batch, in the same
//!   one pass.
//! * **Data-parallel k-NN** (Appendix C.4) — one shared k-NN buffer per
//!   query accumulates results across the buffer and every occupied tree.
//!
//! Its §6.3 comparator, the Morton-order Zd-tree, is one of the kd-tree's
//! layouts and lives beside `VebTree`, as [`pargeo_kdtree::ZdTree`].
//!
//! [`VebTree`]: pargeo_kdtree::VebTree

#![warn(missing_docs)]

pub mod bdl;

pub use bdl::BdlTree;

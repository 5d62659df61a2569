//! # pargeo-engine — the unified batch-dynamic spatial index engine
//!
//! ParGeo's Module 1 has two batch-dynamic trees — the log-structured
//! [`BdlTree`] (paper §5), which serves, and the Morton-order [`ZdTree`]
//! (§6.3), its comparator. This crate puts both behind one trait so a
//! single workload can be served by, and cross-validated across, either
//! tree and the oracle:
//!
//! * [`SpatialIndex`] — batched `insert` / `remove` / `knn_batch` /
//!   `range_batch` plus [`Snapshot`]-style epoch stats, implemented by both
//!   trees and by the brute-force [`VecIndex`] oracle.
//! * [`SpatialIndex::pin`] — a fork of the current epoch: the backend's
//!   own `clone()`, boxed as another `SpatialIndex`. The pin runs the live
//!   index's code, so it answers exactly as the index did at the pin, and
//!   it can be written too: writes on either side never reach the other,
//!   because whichever side writes shared state first copies it. It costs
//!   O(X + log n) for the structure-sharing `BdlTree`, one pin per shard
//!   for [`ShardedIndex`], and a full O(n) copy for `ZdTree` and the
//!   oracle.
//! * [`VecIndex`] — the `Vec`-of-points oracle: trivially correct answers
//!   for cross-validation in tests and benches.
//! * [`ShardedIndex`] — Morton-prefix sharded execution over any backend:
//!   `S` independent shards, writes applied in parallel across shards,
//!   reads fanned out only to the shards whose region can contribute —
//!   answer-for-answer bit-identical to the unsharded backend.
//! * [`driver`] — [`run_workload`]: applies a generated
//!   [`Workload`](pargeo_datagen::Workload) (mixed insert/delete/k-NN/range
//!   batches from `pargeo-datagen`'s
//!   [`WorkloadSpec`](pargeo_datagen::WorkloadSpec)) to any backend and
//!   returns a [`WorkloadReport`] with per-class batch and result counts,
//!   the closing epoch statistics, and order-sensitive answer checksums —
//!   equal checksums across backends prove they served identical answers.
//!
//! ```
//! use pargeo_engine::{SpatialIndex, VecIndex};
//! use pargeo_bdltree::BdlTree;
//! use pargeo_geometry::Point2;
//!
//! let pts: Vec<Point2> = (0..100)
//!     .map(|i| Point2::new([i as f64, (i * 7 % 13) as f64]))
//!     .collect();
//! let mut bdl = BdlTree::<2>::new();
//! let mut oracle = VecIndex::<2>::new();
//! bdl.insert(&pts);
//! oracle.insert(&pts);
//! SpatialIndex::delete(&mut bdl, &pts[..50]);
//! SpatialIndex::delete(&mut oracle, &pts[..50]);
//! assert_eq!(bdl.snapshot().live, oracle.snapshot().live);
//! let knn = SpatialIndex::knn_batch(&bdl, &pts[50..60], 3);
//! let want = SpatialIndex::knn_batch(&oracle, &pts[50..60], 3);
//! for (a, b) in knn.iter().zip(&want) {
//!     assert_eq!(a.len(), b.len());
//! }
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod oracle;
pub mod shard;

pub use driver::{run_workload, WorkloadReport};
pub use oracle::VecIndex;
pub use shard::ShardedIndex;

use pargeo_bdltree::BdlTree;
use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::{Neighbor, ZdTree};

/// Compacted live set of an index: `pts[i]` is the live point with id
/// `ids[i]`, ids strictly ascending.
pub type LivePoints<const D: usize> = (Vec<u32>, Vec<Point<D>>);

/// Point-in-time statistics of a [`SpatialIndex`] — the "epoch" view a
/// serving layer reports per update round.
///
/// Equality compares the *state* fields only: [`cow_bytes`](Self::cow_bytes)
/// counts work done on the way there, which depends on how many pins were
/// outstanding, so an index that served pinned readers still equals a
/// replayed copy that never did.
#[derive(Debug, Clone, Copy, Eq, Default)]
pub struct Snapshot {
    /// Update batches (insert or delete) applied so far.
    pub epoch: u64,
    /// Live points currently stored.
    pub live: usize,
    /// Total points ever inserted (the id counter's high-water mark).
    pub inserted: u64,
    /// Total points deleted (`inserted - live` for value-delete backends).
    pub deleted: u64,
    /// Internal structure (re)builds performed — level trees constructed by
    /// the BDL cascade, radix rebuilds of the Zd-tree.
    pub rebuilds: u64,
    /// Heap bytes held by the backend's flat arenas (node slabs,
    /// coordinate columns, id/liveness slabs, insert buffers) — the
    /// `index_arena_bytes` memory gauge.
    pub arena_bytes: usize,
    /// Structure nodes currently allocated across the backend's arenas —
    /// the `index_nodes_total` gauge.
    pub nodes: usize,
    /// Bytes copied so far by copy-on-write — writes that found state
    /// shared with a pin (or, on a pin, with the index it came from) and
    /// copied it before mutating. The
    /// machine-independent reading of what pinning costs; 0 for backends
    /// that never share. Not part of equality.
    pub cow_bytes: u64,
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        let state = |s: &Self| {
            (
                s.epoch,
                s.live,
                s.inserted,
                s.deleted,
                s.rebuilds,
                s.arena_bytes,
                s.nodes,
            )
        };
        state(self) == state(other)
    }
}

/// A batch-dynamic spatial index over `D`-dimensional points.
///
/// The unified surface of ParGeo's Module 1: every backend accepts batched
/// updates (the paper's batch-dynamic model — updates arrive as batches,
/// queries run between batches) and answers batched queries data-parallel
/// over the batch. Ids are insertion-order ids assigned by the index;
/// deletion is by point value (all live copies of a matching value go).
///
/// Determinism contract: `range_batch` reports ids sorted ascending;
/// `knn_batch` rows are ordered by `(distance², id)`; all answers are
/// independent of thread count.
pub trait SpatialIndex<const D: usize> {
    /// Short backend name for reports and benches.
    fn backend_name(&self) -> &'static str;

    /// Inserts a batch of points, assigning consecutive insertion-order
    /// ids.
    fn insert(&mut self, batch: &[Point<D>]);

    /// Deletes every live point whose coordinates match a batch point
    /// (bitwise, all live copies) and reports what went: the live
    /// `(point, id)` pairs removed, in no particular order. The one delete
    /// path of every backend — a serving layer reads ids, counts and the
    /// surviving set off this report instead of mirroring the index.
    fn remove(&mut self, batch: &[Point<D>]) -> Vec<(Point<D>, u32)>;

    /// [`remove`](Self::remove) for callers that only want the number of
    /// points removed.
    fn delete(&mut self, batch: &[Point<D>]) -> usize {
        self.remove(batch).len()
    }

    /// The k nearest live neighbors of every query, data-parallel over the
    /// queries; each row ascends by `(distance², id)`.
    fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>>;

    /// Ids of the live points inside every query box (boundary inclusive),
    /// data-parallel over the queries; each row sorted ascending.
    fn range_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>>;

    /// Number of live points.
    fn len(&self) -> usize;

    /// True iff no live points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current epoch statistics.
    fn snapshot(&self) -> Snapshot;

    /// Per-shard epoch statistics: one [`Snapshot`] per shard for sharded
    /// executors, a single-element vector (the whole index) otherwise.
    /// The per-shard `live`/`inserted`/`deleted` counts sum to the
    /// aggregate [`snapshot`](Self::snapshot) — the spread across them is
    /// the router's balance diagnostic.
    fn shard_snapshots(&self) -> Vec<Snapshot> {
        vec![self.snapshot()]
    }

    /// Forks the current epoch: `self.clone()`, boxed. The pin owns its
    /// state (`'static`, [`Send`] + [`Sync`]) and is a full index running
    /// the same code as `self`, so it answers every read as `self` does
    /// now, no matter how many insert/delete/rebuild epochs apply to
    /// `self` afterwards — the isolation primitive every store read run
    /// is answered from, and that a pipelined store overlaps with the
    /// next write on. The pin can be written too: writes on either side
    /// never reach the other, because the two share state only
    /// copy-on-write, and whichever side writes shared state first copies
    /// it.
    ///
    /// Cost: [`BdlTree`] pins in O(X + log n): the insert buffer's rows
    /// are copied, and its tree and every static tree shared; inserts and
    /// drains replace trees without touching the other side's, and the
    /// first delete that removes points from a shared tree copies that
    /// tree's deletion overlay (~1.2 B/pt, never coordinates).
    /// [`ShardedIndex`] pins every shard and shares each shard's id map
    /// until one side appends to it. [`ZdTree`] and the [`VecIndex`]
    /// oracle copy themselves whole (O(n)). Every overlay copy is counted in the copying side's
    /// [`Snapshot::cow_bytes`].
    fn pin(&self) -> Box<dyn SpatialIndex<D> + Send + Sync>;

    /// The live points and their ids, ascending by id — what a serving
    /// layer derives whole-dataset structures from without keeping its
    /// own copy of the coordinates. O(live log live).
    fn live_points(&self) -> LivePoints<D>;

    /// Bounding box of the live points — the index's current effective
    /// region, which *shrinks* when deletes remove extreme points (unlike
    /// a cumulative routed-points box).
    fn live_bbox(&self) -> Bbox<D>;
}

/// Forwards [`SpatialIndex`] to a tree backend's inherent methods. Both
/// tree backends expose the same surface (`insert`/`remove`/
/// `knn_batch`/`range_box_batch`/`len`/`collect_live` plus the `epoch`/
/// `total_inserted`/`rebuilds`/`cow_bytes` counters), so one definition
/// serves both — a new trait method or `Snapshot` field is added
/// exactly once.
macro_rules! impl_spatial_index {
    ($backend:ident, $name:literal) => {
        impl<const D: usize> SpatialIndex<D> for $backend<D> {
            fn backend_name(&self) -> &'static str {
                $name
            }

            fn insert(&mut self, batch: &[Point<D>]) {
                $backend::insert(self, batch)
            }

            fn remove(&mut self, batch: &[Point<D>]) -> Vec<(Point<D>, u32)> {
                $backend::remove(self, batch)
            }

            fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
                $backend::knn_batch(self, queries, k)
            }

            fn range_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
                $backend::range_box_batch(self, queries)
            }

            fn len(&self) -> usize {
                $backend::len(self)
            }

            fn snapshot(&self) -> Snapshot {
                Snapshot {
                    epoch: self.epoch(),
                    live: $backend::len(self),
                    inserted: self.total_inserted(),
                    deleted: self.total_inserted() - $backend::len(self) as u64,
                    rebuilds: self.rebuilds(),
                    arena_bytes: self.arena_bytes(),
                    nodes: self.node_count(),
                    cow_bytes: self.cow_bytes(),
                }
            }

            fn pin(&self) -> Box<dyn SpatialIndex<D> + Send + Sync> {
                // A `BdlTree` clone shares structure behind `Arc`s
                // (O(X + log n)); a `ZdTree` clone is a full copy.
                Box::new(self.clone())
            }

            fn live_points(&self) -> LivePoints<D> {
                let mut live = self.collect_live();
                live.sort_unstable_by_key(|&(_, id)| id);
                live.into_iter().map(|(p, id)| (id, p)).unzip()
            }

            fn live_bbox(&self) -> Bbox<D> {
                $backend::live_bbox(self)
            }
        }
    };
}

impl_spatial_index!(BdlTree, "bdl");
impl_spatial_index!(ZdTree, "zd");

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    fn backends<const D: usize>() -> Vec<Box<dyn SpatialIndex<D>>> {
        vec![
            Box::new(BdlTree::<D>::with_buffer_size(128)),
            Box::new(ZdTree::<D>::new()),
            Box::new(VecIndex::<D>::new()),
        ]
    }

    #[test]
    fn snapshots_agree_across_backends() {
        let pts = uniform_cube::<2>(2_000, 1);
        for mut b in backends::<2>() {
            b.insert(&pts[..1_500]);
            assert_eq!(b.delete(&pts[..500]), 500, "{}", b.backend_name());
            b.insert(&pts[1_500..]);
            let s = b.snapshot();
            assert_eq!(s.live, 1_500, "{}", b.backend_name());
            assert_eq!(s.inserted, 2_000, "{}", b.backend_name());
            assert_eq!(s.deleted, 500, "{}", b.backend_name());
            assert_eq!(s.epoch, 3, "{}", b.backend_name());
            assert!(s.arena_bytes > 0, "{}", b.backend_name());
            if b.backend_name() != "vec-oracle" {
                assert!(s.nodes > 0, "{}", b.backend_name());
            }
            assert_eq!(b.len(), 1_500);
            assert!(!b.is_empty());
        }
    }

    /// `(id, point)` rows of the live set, ascending by id.
    fn rows(b: &dyn SpatialIndex<2>) -> Vec<(u32, Point<2>)> {
        let (ids, pts) = b.live_points();
        ids.into_iter().zip(pts).collect()
    }

    #[test]
    fn remove_reports_exactly_what_left_the_live_set() {
        let pts = uniform_cube::<2>(3_000, 5);
        let nowhere = Point::new([-5.0, -5.0]);
        let sharded = |s: usize| -> Box<dyn SpatialIndex<2>> {
            Box::new(ShardedIndex::<2>::new(s, |_| {
                Box::new(BdlTree::<2>::with_buffer_size(128))
            }))
        };
        let mut all = backends::<2>();
        all.extend([sharded(1), sharded(4)]);
        for mut b in all {
            let name = b.backend_name();
            b.insert(&pts[..2_000]);
            b.insert(&[pts[7], pts[7]]); // ids 2000, 2001: three live copies of one value
            b.insert(&pts[2_000..]);
            let before = rows(&*b);
            // Names one value twice and one that was never inserted.
            let mut batch = pts[..700].to_vec();
            batch.extend([pts[3], nowhere]);
            let mut report: Vec<(u32, Point<2>)> = b
                .remove(&batch)
                .into_iter()
                .map(|(p, id)| (id, p))
                .collect();
            report.sort_unstable_by_key(|row| row.0);
            let after = rows(&*b);
            let gone: Vec<(u32, Point<2>)> = before
                .iter()
                .filter(|row| after.binary_search_by_key(&row.0, |a| a.0).is_err())
                .copied()
                .collect();
            assert_eq!(report, gone, "{name}");
            assert_eq!(report.len(), 702, "{name}: every copy of a value goes");
            assert_eq!(b.len(), before.len() - 702, "{name}");
            for id in [7, 2_000, 2_001] {
                assert!(report.binary_search_by_key(&id, |r| r.0).is_ok(), "{name}");
            }
            // A batch that matches nothing reports nothing and — pinned or
            // not — copies nothing.
            let pin = b.pin();
            let copied = b.snapshot().cow_bytes;
            assert_eq!(b.remove(&[nowhere, pts[3]]), [], "{name}");
            assert_eq!(b.delete(&batch), 0, "{name}");
            assert_eq!(b.snapshot().cow_bytes, copied, "{name}");
            assert_eq!(
                (rows(&*b), pin.len()),
                (after.clone(), after.len()),
                "{name}"
            );
        }
    }

    #[test]
    fn all_backends_answer_identically() {
        let pts = uniform_cube::<2>(3_000, 2);
        let queries: Vec<Point<2>> = pts.iter().step_by(101).copied().collect();
        let boxes: Vec<Bbox<2>> = pargeo_datagen::uniform_rects::<2>(40, 3, 0.3);
        let mut rows: Vec<(String, Vec<Vec<Neighbor>>, Vec<Vec<u32>>)> = Vec::new();
        for mut b in backends::<2>() {
            b.insert(&pts[..2_000]);
            b.delete(&pts[..700]);
            b.insert(&pts[2_000..]);
            rows.push((
                b.backend_name().to_string(),
                b.knn_batch(&queries, 5),
                b.range_batch(&boxes),
            ));
        }
        let (_, knn0, rng0) = &rows[0];
        for (name, knn, rng) in &rows[1..] {
            assert_eq!(rng, rng0, "range mismatch: {name}");
            for (a, b) in knn.iter().zip(knn0) {
                assert_eq!(a.len(), b.len(), "knn len mismatch: {name}");
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (x.dist_sq - y.dist_sq).abs() <= 1e-9 * (1.0 + x.dist_sq),
                        "knn mismatch: {name}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }
}

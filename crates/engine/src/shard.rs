//! Morton-routed sharded execution over any [`SpatialIndex`] backend.
//!
//! [`ShardedIndex`] partitions space into `S` shards by Morton-code prefix
//! (the Z-order cells at depth `log2 S` of the implicit radix tree — the
//! same prefixes the Zd-tree splits on, via the shared
//! [`morton_shard_of`]) over a universe box fixed by the first non-empty
//! insert batch. Each shard owns an independent backend, so:
//!
//! * **writes** are bucketed per shard and applied *in parallel across
//!   shards* — a write epoch becomes `S` concurrent tree batches instead
//!   of one serial one;
//! * **range queries** fan out only to shards whose effective region
//!   intersects the query box;
//! * **k-NN** searches the home shard first (shards visited in ascending
//!   distance from the query), then expands to neighbor shards only while
//!   the current k-th `(distance², id)` bound still reaches their
//!   regions — expansion stops at the first shard *strictly* beyond the
//!   bound, and at-bound shards are always visited so equal-distance ties
//!   still resolve toward the smaller id.
//!
//! A shard's *effective region* is the bounding box of the points it
//! currently holds: grown incrementally as inserts route in (covering
//! points that clamp onto the universe grid from outside, at their true
//! coordinates), and **recomputed from the live points after any delete
//! that removed from the shard** — so delete-heavy epochs shrink regions
//! back and stale extremes cannot inflate the read fan-out.
//!
//! Determinism is preserved exactly: shards assign *global* insertion-order
//! ids through a per-shard id map, per-shard answers follow each backend's
//! canonical contracts, and the merge orders by `(distance², global id)` /
//! ascending id — so a `ShardedIndex` is answer-for-answer **bit-identical**
//! to its unsharded backend at any shard count, which the proptest and
//! bench anchors assert.
//!
//! ## Epoch-pinned snapshots
//!
//! [`SpatialIndex::pin`] on a `ShardedIndex` is its `clone()`: another
//! `ShardedIndex`, over pinned shards. A shard clones by pinning its
//! backend (whatever that backend's pin costs: O(X + log n) BDL, a full
//! copy for Zd and the oracle) and sharing its id map, which lives behind
//! an `Arc` that either side copies (`Arc::make_mut`) before its first
//! append. The pin answers with the live index's own fan-out and merge
//! code, reports `shard_snapshots()` against the pinned epoch, and — like
//! every pin — can be written without either side seeing the other's
//! writes.

use crate::{LivePoints, Snapshot, SpatialIndex};
use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::{canonical_order, Neighbor};
use pargeo_morton::{morton_code, morton_shard_of, parallel_bbox};
use pargeo_obs::{Counter, Registry};
use pargeo_parlay as parlay;
use std::sync::Arc;

/// Points routed per task (a Morton code per point).
const ROUTE_GRAIN: usize = 4096;

/// One shard: an independent backend plus the glue that makes its local
/// answers globally meaningful.
struct Shard<const D: usize> {
    index: Box<dyn SpatialIndex<D> + Send + Sync>,
    /// Local insertion-order id → global id. Strictly increasing (points
    /// route to a shard in global insertion order), so per-shard answers
    /// ordered by local id are already ordered by global id. Behind an
    /// `Arc` so a pin shares it: appends go through `Arc::make_mut` — in
    /// place while unshared, one copy by whichever side appends first
    /// otherwise.
    global_ids: Arc<Vec<u32>>,
    /// Bounding box of the points currently held — the shard's effective
    /// region. Grown on insert (covering clamped out-of-universe points
    /// at their true coordinates), recomputed from the live points after
    /// any delete that removed here, so it shrinks back when extremes die.
    bbox: Bbox<D>,
}

/// A shard clones by pinning its backend and sharing its id map.
impl<const D: usize> Clone for Shard<D> {
    fn clone(&self) -> Self {
        Self {
            index: self.index.pin(),
            global_ids: Arc::clone(&self.global_ids),
            bbox: self.bbox,
        }
    }
}

/// The live points of every shard, merged ascending by global id.
fn live_points_all<const D: usize>(shards: &[Shard<D>]) -> LivePoints<D> {
    let mut all: Vec<(u32, Point<D>)> = Vec::new();
    for shard in shards {
        let (ids, pts) = shard.live_points();
        all.extend(ids.into_iter().zip(pts));
    }
    all.sort_unstable_by_key(|&(id, _)| id);
    all.into_iter().unzip()
}

impl<const D: usize> Shard<D> {
    /// One query's k nearest neighbors, translated to global ids (the id
    /// map is monotone, so canonical order is preserved).
    fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.index.knn_batch(std::slice::from_ref(q), k)[0]
            .iter()
            .map(|n| Neighbor {
                dist_sq: n.dist_sq,
                id: self.global_ids[n.id as usize],
            })
            .collect()
    }

    /// One box query's matches, translated to global ids (sorted, by the
    /// same monotonicity).
    fn range(&self, query: &Bbox<D>) -> Vec<u32> {
        self.index
            .range_batch(std::slice::from_ref(query))
            .into_iter()
            .next()
            .expect("one query, one row")
            .into_iter()
            .map(|id| self.global_ids[id as usize])
            .collect()
    }

    /// The shard's live points under their global ids (ascending, by the
    /// same monotonicity).
    fn live_points(&self) -> LivePoints<D> {
        let (mut ids, pts) = self.index.live_points();
        for id in &mut ids {
            *id = self.global_ids[*id as usize];
        }
        (ids, pts)
    }
}

/// One query's k nearest neighbors across `shards`: home shard first, then
/// neighbor shards in ascending region distance, stopping at the first
/// shard strictly beyond the current k-th `(distance², id)` bound.
fn knn_one<const D: usize>(
    shards: &[Shard<D>],
    obs: Option<&ShardObs>,
    q: &Point<D>,
    k: usize,
) -> Vec<Neighbor> {
    let mut order: Vec<(f64, usize)> = shards
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.index.is_empty())
        .map(|(i, s)| (s.bbox.dist_sq_to_point(q), i))
        .collect();
    order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let mut best: Vec<Neighbor> = Vec::with_capacity(k);
    for (visited, &(region_dist, s)) in order.iter().enumerate() {
        // Inclusive at-bound expansion: an equal-distance point in a
        // farther shard can still win its id tie, so only a region
        // strictly beyond the k-th bound is pruned (and with shards in
        // ascending region distance, everything after it is too).
        if best.len() == k && region_dist > best[k - 1].dist_sq {
            if let Some(o) = obs {
                o.knn_visited.add(visited as u64);
                o.knn_pruned.add((order.len() - visited) as u64);
            }
            return best;
        }
        if let Some(o) = obs {
            o.read_ops[s].inc();
        }
        let row = shards[s].knn(q, k);
        // Both runs ascend by the canonical order (the shard's local ids
        // translate monotonically), so an O(k) two-way merge keeps `best`
        // the exact global top-k — and `best[k-1]` the exact expansion
        // bound — after every shard.
        let mut merged: Vec<Neighbor> = Vec::with_capacity(k);
        let (mut i, mut j) = (0, 0);
        while merged.len() < k && (i < best.len() || j < row.len()) {
            let from_best = match (best.get(i), row.get(j)) {
                (Some(a), Some(b)) => canonical_order(a, b) != std::cmp::Ordering::Greater,
                (Some(_), None) => true,
                _ => false,
            };
            if from_best {
                merged.push(best[i]);
                i += 1;
            } else {
                merged.push(row[j]);
                j += 1;
            }
        }
        best = merged;
    }
    if let Some(o) = obs {
        o.knn_visited.add(order.len() as u64);
    }
    best
}

/// One box query across `shards`: fan out to intersecting regions only,
/// merge the (already global, already sorted) per-shard answers.
fn range_one<const D: usize>(
    shards: &[Shard<D>],
    obs: Option<&ShardObs>,
    query: &Bbox<D>,
) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        if shard.index.is_empty() {
            continue;
        }
        if !shard.bbox.intersects(query) {
            if let Some(o) = obs {
                o.range_pruned.inc();
            }
            continue;
        }
        if let Some(o) = obs {
            o.range_visited.inc();
            o.read_ops[s].inc();
        }
        out.extend(shard.range(query));
    }
    out.sort_unstable();
    out
}

/// Cached per-shard metric handles (see [`ShardedIndex::attach_obs`]):
/// recording is pure atomics, so the parallel per-shard write apply and
/// the read fan-out touch them without locks — and pins share the same
/// handles through the `Arc`, so reads served from a pin still count
/// toward the live index's fan-out/pruning totals.
struct ShardObs {
    /// Write sub-batches (insert or delete) applied per shard.
    write_ops: Vec<Arc<Counter>>,
    /// Points routed to each shard by insert batches (sums to the
    /// aggregate `inserted` total).
    routed_points: Vec<Arc<Counter>>,
    /// Read visits (k-NN or range) served per shard.
    read_ops: Vec<Arc<Counter>>,
    /// Non-empty shards searched during k-NN expansion.
    knn_visited: Arc<Counter>,
    /// Non-empty shards skipped because their region lay strictly beyond
    /// the k-th neighbor bound.
    knn_pruned: Arc<Counter>,
    /// Shards whose region intersected a range query box.
    range_visited: Arc<Counter>,
    /// Non-empty shards skipped because their region missed the box.
    range_pruned: Arc<Counter>,
}

impl ShardObs {
    fn new(registry: &Registry, shards: usize) -> Self {
        let per_shard = |name: &'static str| -> Vec<Arc<Counter>> {
            (0..shards)
                .map(|s| registry.counter(name, &[("shard", &s.to_string())]))
                .collect()
        };
        Self {
            write_ops: per_shard("shard_write_ops_total"),
            routed_points: per_shard("shard_routed_points_total"),
            read_ops: per_shard("shard_read_ops_total"),
            knn_visited: registry.counter("shard_knn_visited_total", &[]),
            knn_pruned: registry.counter("shard_knn_pruned_total", &[]),
            range_visited: registry.counter("shard_range_visited_total", &[]),
            range_pruned: registry.counter("shard_range_pruned_total", &[]),
        }
    }
}

/// A Morton-prefix-sharded [`SpatialIndex`]: `S` independent backend
/// shards behind the one batch-dynamic surface.
///
/// ```
/// use pargeo_engine::{ShardedIndex, SpatialIndex, VecIndex};
/// use pargeo_kdtree::ZdTree;
/// use pargeo_geometry::Point2;
///
/// let pts: Vec<Point2> = (0..1_000)
///     .map(|i| Point2::new([(i % 37) as f64, (i % 61) as f64]))
///     .collect();
/// let mut sharded = ShardedIndex::<2>::new(8, |_| Box::new(ZdTree::new()));
/// let mut plain = ZdTree::<2>::new();
/// sharded.insert(&pts);
/// SpatialIndex::insert(&mut plain, &pts);
/// // Bit-identical answers at any shard count.
/// assert_eq!(
///     sharded.knn_batch(&pts[..8], 5),
///     SpatialIndex::knn_batch(&plain, &pts[..8], 5),
/// );
/// ```
#[derive(Clone)]
pub struct ShardedIndex<const D: usize> {
    shards: Vec<Shard<D>>,
    /// `log2(shard count)` — the Morton-prefix depth of the router.
    shard_bits: u32,
    universe: Bbox<D>,
    universe_fixed: bool,
    next_id: u32,
    epoch: u64,
    name: &'static str,
    /// Per-shard metric handles when observed (see [`attach_obs`]),
    /// shared with pins.
    ///
    /// [`attach_obs`]: ShardedIndex::attach_obs
    obs: Option<Arc<ShardObs>>,
}

impl<const D: usize> ShardedIndex<D> {
    /// Creates `shards` empty shards (rounded up to the next power of two
    /// so every Morton prefix is a valid shard), each backed by a fresh
    /// index from `factory` (called with the shard number). The routing
    /// universe is fixed by the first non-empty insert batch, exactly like
    /// the Zd-tree's; later points outside it clamp onto the boundary
    /// cells for routing only — their true coordinates are kept and every
    /// answer stays exact.
    pub fn new<F>(shards: usize, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn SpatialIndex<D> + Send + Sync>,
    {
        let shard_bits = shards.max(1).next_power_of_two().trailing_zeros();
        let count = 1usize << shard_bits;
        let shards: Vec<Shard<D>> = (0..count)
            .map(|s| Shard {
                index: factory(s),
                global_ids: Arc::new(Vec::new()),
                bbox: Bbox::empty(),
            })
            .collect();
        let name = match shards[0].index.backend_name() {
            "bdl" => "sharded-bdl",
            "zd" => "sharded-zd",
            "vec-oracle" => "sharded-vec-oracle",
            _ => "sharded",
        };
        Self {
            shards,
            shard_bits,
            universe: Bbox {
                min: Point::origin(),
                max: Point::new([1.0; D]),
            },
            universe_fixed: false,
            next_id: 0,
            epoch: 0,
            name,
            obs: None,
        }
    }

    /// Registers this index's per-shard counters on `registry` and starts
    /// recording into them: `shard_write_ops_total{shard=..}` /
    /// `shard_routed_points_total{shard=..}` /
    /// `shard_read_ops_total{shard=..}`, plus the region-pruning totals
    /// `shard_{knn,range}_{visited,pruned}_total` whose ratio is the read
    /// fan-out's pruning hit rate. Unobserved indexes (the default) skip
    /// a single `Option` branch per operation. Observation never changes
    /// answers.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(Arc::new(ShardObs::new(registry, self.shards.len())));
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The fixed routing universe (meaningful once a batch has been
    /// inserted).
    pub fn universe(&self) -> Bbox<D> {
        self.universe
    }

    /// The shard a point routes to: the top `shard_bits` bits of its
    /// Morton code over the universe.
    fn shard_of(&self, p: &Point<D>) -> usize {
        morton_shard_of::<D>(morton_code(p, &self.universe), self.shard_bits) as usize
    }

    /// Routes a batch (data-parallel when large), then buckets it per
    /// shard preserving batch order inside each bucket — so local
    /// insertion order equals global insertion order.
    fn bucket(&self, batch: &[Point<D>]) -> (Vec<usize>, Vec<Vec<Point<D>>>) {
        let routes: Vec<usize> = parlay::map(batch, ROUTE_GRAIN, |p| self.shard_of(p));
        let mut buckets: Vec<Vec<Point<D>>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (&s, &p) in routes.iter().zip(batch) {
            buckets[s].push(p);
        }
        (routes, buckets)
    }
}

impl<const D: usize> SpatialIndex<D> for ShardedIndex<D> {
    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn insert(&mut self, batch: &[Point<D>]) {
        self.epoch += 1;
        if batch.is_empty() {
            return;
        }
        if !self.universe_fixed {
            let mut u = parallel_bbox(batch);
            // Inflate slightly (as the Zd-tree does) so boundary points do
            // not saturate the top grid cell.
            let pad = u.diag_sq().sqrt() * 1e-6 + 1e-12;
            for i in 0..D {
                u.min[i] -= pad;
                u.max[i] += pad;
            }
            self.universe = u;
            self.universe_fixed = true;
        }
        let (routes, buckets) = self.bucket(batch);
        // Global ids ascend in batch order; bucketing is a stable
        // partition of it, so appending per shard as we walk the batch
        // keeps every `global_ids` map strictly increasing. `make_mut`
        // appends in place unless a pin shares the map; then it copies
        // once and the other side keeps the map as it was.
        let mut id = self.next_id;
        for (&s, p) in routes.iter().zip(batch) {
            let shard = &mut self.shards[s];
            Arc::make_mut(&mut shard.global_ids).push(id);
            shard.bbox.extend(p);
            id += 1;
        }
        self.next_id = id;
        if let Some(o) = &self.obs {
            for (s, bucket) in buckets.iter().enumerate() {
                if !bucket.is_empty() {
                    o.write_ops[s].inc();
                    o.routed_points[s].add(bucket.len() as u64);
                }
            }
        }
        // The write epoch's parallel half: every shard applies its
        // sub-batch concurrently (grain 1: an item is a whole shard).
        parlay::for_each_mut(&mut self.shards, 1, |s, shard| {
            if !buckets[s].is_empty() {
                shard.index.insert(&buckets[s]);
            }
        });
    }

    fn remove(&mut self, batch: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        self.epoch += 1;
        if batch.is_empty() || self.next_id == 0 {
            return Vec::new();
        }
        // Value routing is deterministic (the universe never moves after
        // fixing), so every victim lands on the shard that holds it.
        let (_, buckets) = self.bucket(batch);
        if let Some(o) = &self.obs {
            for (s, bucket) in buckets.iter().enumerate() {
                if !bucket.is_empty() {
                    o.write_ops[s].inc();
                }
            }
        }
        // Each shard reports into its own slot, under global ids.
        let mut removed: Vec<Vec<(Point<D>, u32)>> = vec![Vec::new(); self.shards.len()];
        let mut jobs: Vec<_> = self.shards.iter_mut().zip(&mut removed).collect();
        parlay::for_each_mut(&mut jobs, 1, |s, (shard, out)| {
            if buckets[s].is_empty() || shard.index.is_empty() {
                return;
            }
            **out = shard.index.remove(&buckets[s]);
            if !out.is_empty() {
                // The effective region must shrink with its points: a
                // cumulative box kept after deleting extreme points would
                // keep pulling k-NN expansion and range fan-out into a
                // shard that can no longer answer there.
                shard.bbox = shard.index.live_bbox();
            }
            for (_, id) in out.iter_mut() {
                *id = shard.global_ids[*id as usize];
            }
        });
        removed.concat()
    }

    fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        parlay::map(queries, 64, |q| {
            knn_one(&self.shards, self.obs.as_deref(), q, k)
        })
    }

    fn range_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        parlay::map(queries, 16, |q| {
            range_one(&self.shards, self.obs.as_deref(), q)
        })
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    fn snapshot(&self) -> Snapshot {
        let live = SpatialIndex::len(self);
        let mut snap = Snapshot {
            epoch: self.epoch,
            live,
            inserted: self.next_id as u64,
            deleted: self.next_id as u64 - live as u64,
            ..Snapshot::default()
        };
        for s in &self.shards {
            let sub = s.index.snapshot();
            snap.rebuilds += sub.rebuilds;
            snap.arena_bytes += sub.arena_bytes;
            snap.nodes += sub.nodes;
            snap.cow_bytes += sub.cow_bytes;
        }
        snap
    }

    fn shard_snapshots(&self) -> Vec<Snapshot> {
        self.shards.iter().map(|s| s.index.snapshot()).collect()
    }

    fn pin(&self) -> Box<dyn SpatialIndex<D> + Send + Sync> {
        Box::new(self.clone())
    }

    fn live_points(&self) -> LivePoints<D> {
        live_points_all(&self.shards)
    }

    fn live_bbox(&self) -> Bbox<D> {
        self.shards
            .iter()
            .fold(Bbox::empty(), |acc, s| acc.union(&s.bbox))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecIndex;
    use pargeo_bdltree::BdlTree;
    use pargeo_datagen::uniform_cube;
    use pargeo_kdtree::ZdTree;

    impl<const D: usize> ShardedIndex<D> {
        /// Live points per shard — the router's balance diagnostic.
        fn shard_lens(&self) -> Vec<usize> {
            self.shards.iter().map(|s| s.index.len()).collect()
        }

        /// Per-shard effective regions (live-point bounding boxes) — the
        /// boxes the read fan-out prunes against. Empty shards report
        /// empty boxes.
        fn shard_regions(&self) -> Vec<Bbox<D>> {
            self.shards.iter().map(|s| s.bbox).collect()
        }
    }

    fn factories() -> Vec<(
        &'static str,
        Box<dyn Fn(usize) -> Box<dyn SpatialIndex<2> + Send + Sync>>,
    )> {
        vec![
            (
                "bdl",
                Box::new(|_| Box::new(BdlTree::<2>::with_buffer_size(64))),
            ),
            ("zd", Box::new(|_| Box::new(ZdTree::<2>::new()))),
            ("vec-oracle", Box::new(|_| Box::new(VecIndex::<2>::new()))),
        ]
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        for (want_bits, s) in [(0u32, 1usize), (1, 2), (2, 3), (2, 4), (3, 5), (4, 16)] {
            let t = ShardedIndex::<2>::new(s, |_| Box::new(VecIndex::new()));
            assert_eq!(t.shard_count(), 1 << want_bits);
            assert_eq!(t.shard_bits, want_bits);
        }
    }

    #[test]
    fn sharded_answers_equal_unsharded_bit_for_bit() {
        let pts = uniform_cube::<2>(4_000, 11);
        let queries: Vec<_> = pts.iter().step_by(53).copied().collect();
        let boxes = pargeo_datagen::uniform_rects::<2>(30, 4, 0.35);
        for (name, factory) in factories() {
            let mut plain = factory(0);
            plain.insert(&pts[..3_000]);
            plain.delete(&pts[..1_000]);
            plain.insert(&pts[3_000..]);
            let want_knn = plain.knn_batch(&queries, 7);
            let want_rng = plain.range_batch(&boxes);
            for s in [1usize, 2, 8] {
                let mut sharded = ShardedIndex::<2>::new(s, |_| factory(0));
                sharded.insert(&pts[..3_000]);
                assert_eq!(sharded.delete(&pts[..1_000]), 1_000, "{name}/{s}");
                sharded.insert(&pts[3_000..]);
                assert_eq!(sharded.len(), plain.len(), "{name}/{s}");
                assert_eq!(sharded.knn_batch(&queries, 7), want_knn, "{name}/{s} knn");
                assert_eq!(sharded.range_batch(&boxes), want_rng, "{name}/{s} range");
            }
        }
    }

    #[test]
    fn writes_actually_spread_across_shards() {
        let pts = uniform_cube::<2>(8_000, 3);
        let mut t = ShardedIndex::<2>::new(8, |_| Box::new(ZdTree::new()));
        t.insert(&pts);
        let lens = t.shard_lens();
        assert_eq!(lens.len(), 8);
        assert_eq!(lens.iter().sum::<usize>(), 8_000);
        // Uniform data over a power-of-two prefix router: every shard gets
        // a meaningful slice (no shard starves, none hoards everything).
        assert!(lens.iter().all(|&l| l > 0), "{lens:?}");
        assert!(*lens.iter().max().unwrap() < 8_000, "{lens:?}");
    }

    #[test]
    fn snapshot_aggregates_the_shards() {
        let pts = uniform_cube::<2>(2_000, 5);
        let mut t = ShardedIndex::<2>::new(4, |_| Box::new(BdlTree::new()));
        t.insert(&pts[..1_500]);
        assert_eq!(t.delete(&pts[..500]), 500);
        t.insert(&pts[1_500..]);
        let s = t.snapshot();
        assert_eq!(s.epoch, 3);
        assert_eq!(s.live, 1_500);
        assert_eq!(s.inserted, 2_000);
        assert_eq!(s.deleted, 500);
        assert_eq!(t.backend_name(), "sharded-bdl");
    }

    #[test]
    fn out_of_universe_points_route_and_answer_exactly() {
        let pts = uniform_cube::<2>(1_000, 8);
        let mut t = ShardedIndex::<2>::new(8, |_| Box::new(ZdTree::new()));
        let mut plain = ZdTree::<2>::new();
        t.insert(&pts);
        SpatialIndex::insert(&mut plain, &pts);
        // Far outside the fixed universe: clamps onto boundary cells for
        // routing, but the shard bbox covers the true coordinates.
        let far: Vec<Point<2>> = (0..64)
            .map(|i| Point::new([1e4 + i as f64, -1e4 - i as f64]))
            .collect();
        t.insert(&far);
        SpatialIndex::insert(&mut plain, &far);
        let all_box = Bbox {
            min: Point::new([-2e4, -2e4]),
            max: Point::new([2e4, 2e4]),
        };
        assert_eq!(
            t.range_batch(std::slice::from_ref(&all_box)),
            SpatialIndex::range_batch(&plain, std::slice::from_ref(&all_box)),
        );
        assert_eq!(
            t.knn_batch(&far[..4], 6),
            SpatialIndex::knn_batch(&plain, &far[..4], 6),
        );
        assert_eq!(t.delete(&far), 64);
        assert_eq!(t.len(), 1_000);
    }

    #[test]
    fn empty_and_degenerate_batches() {
        let mut t = ShardedIndex::<2>::new(4, |_| Box::new(BdlTree::new()));
        assert_eq!(t.delete(&[Point::new([1.0, 1.0])]), 0);
        t.insert(&[]);
        assert!(t.is_empty());
        assert!(t.knn_batch(&[Point::new([0.0, 0.0])], 3)[0].is_empty());
        assert!(t.range_batch(&[Bbox {
            min: Point::new([0.0, 0.0]),
            max: Point::new([1.0, 1.0]),
        }])[0]
            .is_empty());
        let s = t.snapshot();
        assert_eq!((s.epoch, s.live, s.inserted), (2, 0, 0));
    }

    #[test]
    fn shard_regions_shrink_after_deletes() {
        // Two well-separated clusters over a 2-shard router: deleting the
        // whole far cluster must shrink its shard's effective region so
        // queries over the vacated area stop fanning out there.
        let near: Vec<Point<2>> = (0..256)
            .map(|i| Point::new([(i % 16) as f64, (i / 16) as f64]))
            .collect();
        let far: Vec<Point<2>> = (0..256)
            .map(|i| Point::new([1e3 + (i % 16) as f64, 1e3 + (i / 16) as f64]))
            .collect();
        let mut all = near.clone();
        all.extend_from_slice(&far);
        let mut t = ShardedIndex::<2>::new(4, |_| Box::new(BdlTree::new()));
        t.insert(&all);
        let far_box = Bbox::from_points(&far);
        let covering_before = t
            .shard_regions()
            .iter()
            .filter(|b| b.intersects(&far_box))
            .count();
        assert!(covering_before > 0);
        assert_eq!(t.delete(&far), 256);
        let covering_after = t
            .shard_regions()
            .iter()
            .filter(|b| !b.is_empty() && b.intersects(&far_box))
            .count();
        assert_eq!(
            covering_after,
            0,
            "effective regions must shrink off deleted extremes: {:?}",
            t.shard_regions()
        );
    }

    #[test]
    fn pinned_view_isolates_reads_from_later_epochs() {
        let pts = uniform_cube::<2>(3_000, 21);
        let queries: Vec<_> = pts.iter().step_by(67).copied().collect();
        let boxes = pargeo_datagen::uniform_rects::<2>(25, 6, 0.3);
        for (name, factory) in factories() {
            for s in [1usize, 4] {
                let mut live = ShardedIndex::<2>::new(s, |_| factory(0));
                live.insert(&pts[..2_000]);
                live.delete(&pts[..300]);
                // A frozen reference: a second index fed the same prefix.
                let mut frozen = ShardedIndex::<2>::new(s, |_| factory(0));
                frozen.insert(&pts[..2_000]);
                frozen.delete(&pts[..300]);
                let view = live.pin();
                let pinned_snap = view.snapshot();
                let pinned_shards = view.shard_snapshots();
                // Later epochs on the live side: insert + delete churn.
                live.insert(&pts[2_000..]);
                live.delete(&pts[300..900]);
                assert_eq!(
                    view.knn_batch(&queries, 6),
                    frozen.knn_batch(&queries, 6),
                    "{name}/S={s} knn through pin"
                );
                assert_eq!(
                    view.range_batch(&boxes),
                    frozen.range_batch(&boxes),
                    "{name}/S={s} range through pin"
                );
                assert_eq!(view.len(), frozen.len(), "{name}/S={s}");
                // Stats report the pinned epoch, not the live one.
                assert_eq!(pinned_snap, frozen.snapshot(), "{name}/S={s} snapshot");
                assert_eq!(
                    pinned_shards,
                    frozen.shard_snapshots(),
                    "{name}/S={s} shard snapshots"
                );
                assert_ne!(live.snapshot(), pinned_snap, "{name}/S={s} live moved on");
            }
        }
    }
}

//! A batch-dynamic kd-tree via delete-marking and threshold rebuilds.
//!
//! [`DynKdTree`] is the simplest industrial-strength way to make the static
//! [`KdTree`] dynamic, sitting between the §6.3 baselines: **B1** rebuilds
//! on every update (best queries, slowest updates) and **B2** never rebuilds
//! (fastest updates, queries degrade). Here updates are O(batch) —
//! insertions buffer into a flat side array, deletions tombstone points in
//! place — and the whole structure is rebuilt from its live points only when
//! the *rebuild fraction* is exceeded (buffered or tombstoned points
//! outgrowing a fixed fraction of the indexed set), which keeps queries
//! within a constant factor of a freshly built tree while amortizing
//! rebuild cost over many batches.
//!
//! Points carry insertion-order ids (like [`BdlTree`]'s), all query output
//! follows the library-wide deterministic contract — range reports sorted
//! ascending by id, k-NN ordered by `(distance², id)` — and batch queries
//! are data-parallel over the queries.
//!
//! ## Epoch-pinned snapshots
//!
//! Every queryable field lives behind an [`Arc`] in one shared core, so
//! [`DynKdTree::pin_view`] is O(1): it bumps the reference counts and
//! freezes the current epoch into a [`DynKdView`]. Subsequent writes go
//! through a counting `Arc::make_mut` — they mutate in place while nothing
//! is pinned (the unpinned tree pays only an `Arc` deref) and copy-on-write
//! exactly once per pinned epoch otherwise. A threshold rebuild swaps whole `Arc`s,
//! so a pinned view keeps the *old* root alive untouched while the live
//! side rebuilds — reads never wait on writes and never see them.
//!
//! [`BdlTree`]: https://docs.rs/pargeo-bdltree

use crate::knn::{KnnBuffer, Neighbor};
use crate::tree::{KdTree, Node, SplitRule};
use pargeo_geometry::{Bbox, Point};
use std::sync::Arc;

/// Default rebuild threshold: rebuild when pending inserts or tombstones
/// exceed this fraction of the indexed points.
pub const DEFAULT_REBUILD_FRACTION: f64 = 0.25;

/// Pending-insert floor below which no rebuild is triggered (tiny trees
/// would otherwise rebuild on every batch).
const MIN_PENDING: usize = 256;

/// The copy-on-write queryable state shared between the live tree and its
/// pinned views. Writes use `Arc::make_mut`: in place when unpinned,
/// cloned once per pinned epoch otherwise; rebuilds replace the `Arc`s
/// wholesale (pinned views keep the old allocations alive).
#[derive(Debug, Clone)]
struct DynCore<const D: usize> {
    /// Static tree over the points of the last rebuild. Its columnar
    /// point store is the *only* copy of the indexed coordinates: delete
    /// matching probes it by slot (`range_box_slots`), so no duplicate
    /// input-order point array is kept alive per epoch.
    tree: Arc<KdTree<D>>,
    /// External insertion-order id of build-input position `i`.
    ext: Arc<Vec<u32>>,
    /// Liveness of build-input position `i` (false = tombstoned).
    alive: Arc<Vec<bool>>,
    /// Inserts not yet folded into the static tree.
    buffer: Arc<Vec<(Point<D>, u32)>>,
    /// Number of tombstones in `alive`.
    dead: usize,
    /// Live points (tree survivors + buffer).
    live: usize,
}

impl<const D: usize> DynCore<D> {
    fn empty(rule: SplitRule) -> Self {
        Self {
            tree: Arc::new(KdTree::build(&[], rule)),
            ext: Arc::new(Vec::new()),
            alive: Arc::new(Vec::new()),
            buffer: Arc::new(Vec::new()),
            dead: 0,
            live: 0,
        }
    }

    fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut buf = KnnBuffer::new(k);
        for (p, id) in self.buffer.iter() {
            buf.insert(q.dist_sq(p), *id);
        }
        if let Some(root) = self.tree.root() {
            self.knn_rec(root, q, &mut buf);
        }
        buf.finish()
    }

    fn knn_rec(&self, node: &Node<D>, q: &Point<D>, buf: &mut KnnBuffer) {
        if node.is_leaf() {
            let pts = self.tree.points();
            for i in node.start as usize..node.end as usize {
                let pos = pts.id(i) as usize;
                if self.alive[pos] {
                    buf.insert(pts.dist_sq(i, q), self.ext[pos]);
                }
            }
            return;
        }
        let (near, far) = if q[node.dim as usize] <= node.val {
            (self.tree.node(node.left), self.tree.node(node.right))
        } else {
            (self.tree.node(node.right), self.tree.node(node.left))
        };
        if near.bbox.dist_sq_to_point(q) <= buf.bound() {
            self.knn_rec(near, q, buf);
        }
        if far.bbox.dist_sq_to_point(q) <= buf.bound() {
            self.knn_rec(far, q, buf);
        }
    }

    fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        let mut out = Vec::new();
        for (p, id) in self.buffer.iter() {
            if query.contains(p) {
                out.push(*id);
            }
        }
        if let Some(root) = self.tree.root() {
            self.range_rec(root, query, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn range_rec(&self, node: &Node<D>, query: &Bbox<D>, out: &mut Vec<u32>) {
        if !node.bbox.intersects(query) {
            return;
        }
        let whole = query.contains_box(&node.bbox);
        if node.is_leaf() || (whole && self.dead == 0) {
            let pts = self.tree.points();
            for i in node.start as usize..node.end as usize {
                let pos = pts.id(i) as usize;
                if self.alive[pos] && (whole || query.contains_soa(pts, i)) {
                    out.push(self.ext[pos]);
                }
            }
            return;
        }
        self.range_rec(self.tree.node(node.left), query, out);
        self.range_rec(self.tree.node(node.right), query, out);
    }

    fn count_box(&self, query: &Bbox<D>) -> usize {
        fn go<const D: usize>(t: &DynCore<D>, node: &Node<D>, query: &Bbox<D>) -> usize {
            if !node.bbox.intersects(query) {
                return 0;
            }
            let whole = query.contains_box(&node.bbox);
            if whole && t.dead == 0 {
                return (node.end - node.start) as usize;
            }
            if node.is_leaf() {
                let pts = t.tree.points();
                return (node.start as usize..node.end as usize)
                    .filter(|&i| {
                        let pos = pts.id(i) as usize;
                        t.alive[pos] && (whole || query.contains_soa(pts, i))
                    })
                    .count();
            }
            go(t, t.tree.node(node.left), query) + go(t, t.tree.node(node.right), query)
        }
        let buffered = self
            .buffer
            .iter()
            .filter(|(p, _)| query.contains(p))
            .count();
        match self.tree.root() {
            Some(root) => buffered + go(self, root, query),
            None => buffered,
        }
    }

    fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        let mut out: Vec<(Point<D>, u32)> = self.buffer.as_ref().clone();
        let pts = self.tree.points();
        for slot in 0..pts.len() {
            let pos = pts.id(slot) as usize;
            if self.alive[pos] {
                out.push((pts.get(slot), self.ext[pos]));
            }
        }
        out.sort_unstable_by_key(|&(_, id)| id);
        out
    }

    fn live_bbox(&self) -> Bbox<D> {
        let mut b = Bbox::empty();
        for (p, _) in self.buffer.iter() {
            b.extend(p);
        }
        let pts = self.tree.points();
        for slot in 0..pts.len() {
            if self.alive[pts.id(slot) as usize] {
                b.extend(&pts.get(slot));
            }
        }
        b
    }

    /// Heap bytes held by this epoch's arenas: the tree's node slab and
    /// coordinate columns plus the dynamic side slabs (ids, liveness,
    /// insert buffer).
    fn arena_bytes(&self) -> usize {
        self.tree.arena_bytes()
            + self.ext.len() * std::mem::size_of::<u32>()
            + self.alive.len() * std::mem::size_of::<bool>()
            + self.buffer.len() * std::mem::size_of::<(Point<D>, u32)>()
    }
}

/// A batch-dynamic kd-tree: tombstone deletes, buffered inserts, and a
/// full parallel rebuild once either outgrows a threshold fraction.
#[derive(Debug, Clone)]
pub struct DynKdTree<const D: usize> {
    core: DynCore<D>,
    rule: SplitRule,
    rebuild_fraction: f64,
    next_id: u32,
    epoch: u64,
    rebuilds: u64,
    /// Bytes copied so far by writes that found a slab pinned.
    cow_bytes: u64,
}

impl<const D: usize> DynKdTree<D> {
    /// Creates an empty tree with object-median splits and the default
    /// rebuild fraction.
    pub fn new() -> Self {
        Self::with_config(SplitRule::ObjectMedian, DEFAULT_REBUILD_FRACTION)
    }

    /// Creates an empty tree with an explicit split rule and rebuild
    /// fraction (`0 < rebuild_fraction`; smaller = more eager rebuilds).
    pub fn with_config(rule: SplitRule, rebuild_fraction: f64) -> Self {
        assert!(rebuild_fraction > 0.0);
        Self {
            core: DynCore::empty(rule),
            rule,
            rebuild_fraction,
            next_id: 0,
            epoch: 0,
            rebuilds: 0,
            cow_bytes: 0,
        }
    }

    /// Builds directly over an initial point set (one batch insert).
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut t = Self::new();
        t.insert(points);
        t
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.core.live
    }

    /// True iff no points are stored.
    pub fn is_empty(&self) -> bool {
        self.core.live == 0
    }

    /// Number of update batches applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of full structure rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total points ever inserted (ids are assigned from this counter).
    pub fn total_inserted(&self) -> u64 {
        self.next_id as u64
    }

    /// Points currently buffered outside the static tree (diagnostics).
    pub fn pending(&self) -> usize {
        self.core.buffer.len()
    }

    /// Tombstoned points still occupying tree slots (diagnostics).
    pub fn tombstones(&self) -> usize {
        self.core.dead
    }

    /// Heap bytes held by the current epoch's flat arenas (node slab,
    /// coordinate columns, id/liveness/insert slabs) — the
    /// `index_arena_bytes` memory gauge.
    pub fn arena_bytes(&self) -> usize {
        self.core.arena_bytes()
    }

    /// Nodes in the static tree's arena — the `index_nodes_total` gauge.
    pub fn node_count(&self) -> usize {
        self.core.tree.node_count()
    }

    /// Bytes copied so far because a write found the insert buffer or the
    /// liveness slab shared with a pinned view (one copy per slab per
    /// pinned epoch) — the copy-on-write work counter.
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// Pins an immutable O(1) snapshot of the current epoch: the view
    /// shares the tree's copy-on-write core and answers every query
    /// bit-identically to a frozen clone taken now, no matter how many
    /// insert/delete/rebuild epochs the live tree applies afterwards.
    pub fn pin_view(&self) -> DynKdView<D> {
        DynKdView {
            core: self.core.clone(),
            epoch: self.epoch,
            rebuilds: self.rebuilds,
            next_id: self.next_id,
        }
    }

    /// Batch insert: appends to the side buffer, then rebuilds if the
    /// buffer outgrew the threshold.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        self.epoch += 1;
        let next_id = self.next_id;
        let bytes = self.core.buffer.len() * std::mem::size_of::<(Point<D>, u32)>();
        crate::cow_mut(&mut self.core.buffer, bytes, &mut self.cow_bytes).extend(
            batch
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, next_id + i as u32)),
        );
        self.next_id += batch.len() as u32;
        self.core.live += batch.len();
        self.maybe_rebuild();
    }

    /// Batch delete by point value (all live copies of each query point are
    /// removed). Tombstones tree points in place, filters the buffer, and
    /// rebuilds if tombstones outgrew the threshold. Returns the number of
    /// points deleted.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        self.epoch += 1;
        if batch.is_empty() || self.core.live == 0 {
            return 0;
        }
        let mut deleted = 0usize;
        // Buffer deletion by coordinate match (copy-on-write only when a
        // match exists and a view pins the buffer).
        if !self.core.buffer.is_empty() {
            let victims: std::collections::HashSet<[u64; D]> =
                batch.iter().map(Point::bits_key).collect();
            if self
                .core
                .buffer
                .iter()
                .any(|(p, _)| victims.contains(&p.bits_key()))
            {
                let bytes = self.core.buffer.len() * std::mem::size_of::<(Point<D>, u32)>();
                let buffer = crate::cow_mut(&mut self.core.buffer, bytes, &mut self.cow_bytes);
                let before = buffer.len();
                buffer.retain(|(p, _)| !victims.contains(&p.bits_key()));
                deleted += before - buffer.len();
            }
        }
        // Tree deletion: locate each victim's candidate *slots* with a
        // degenerate box query against the tree's own columnar store
        // (data-parallel over the batch), keep only bitwise matches (the
        // box query compares with float `<=`, which would also admit
        // `-0.0` for `+0.0` — the library-wide semantic is bitwise
        // identity), then tombstone their build-input positions serially.
        let tree = &self.core.tree;
        let hits: Vec<Vec<u32>> = pargeo_parlay::map_batch(batch, 64, |q| {
            let hit = Bbox { min: *q, max: *q };
            tree.range_box_slots(&hit)
                .into_iter()
                .filter(|&slot| tree.point_at(slot as usize).bits_key() == q.bits_key())
                .map(|slot| tree.points().id(slot as usize))
                .collect()
        });
        if hits.iter().any(|h| !h.is_empty()) {
            let bytes = self.core.alive.len() * std::mem::size_of::<bool>();
            let alive = crate::cow_mut(&mut self.core.alive, bytes, &mut self.cow_bytes);
            for positions in &hits {
                for &pos in positions {
                    let pos = pos as usize;
                    if alive[pos] {
                        alive[pos] = false;
                        self.core.dead += 1;
                        deleted += 1;
                    }
                }
            }
        }
        self.core.live -= deleted;
        self.maybe_rebuild();
        deleted
    }

    /// Rebuilds the static tree from live points when pending inserts or
    /// tombstones exceed `rebuild_fraction` of the indexed set. The new
    /// structure lands in fresh `Arc`s — pinned views keep the old one.
    fn maybe_rebuild(&mut self) {
        let indexed = self.core.tree.len();
        let threshold = ((indexed as f64 * self.rebuild_fraction) as usize).max(MIN_PENDING);
        if self.core.buffer.len() <= threshold && self.core.dead <= threshold {
            return;
        }
        // Collect survivors in external-id order: tree points (via the id
        // permutation back to build-input positions), then the buffer.
        let mut survivors: Vec<(Point<D>, u32)> = Vec::with_capacity(self.core.live);
        let old = self.core.tree.points();
        for slot in 0..old.len() {
            let pos = old.id(slot) as usize;
            if self.core.alive[pos] {
                survivors.push((old.get(slot), self.core.ext[pos]));
            }
        }
        survivors.extend(self.core.buffer.iter().copied());
        survivors.sort_unstable_by_key(|&(_, id)| id);
        let pts: Vec<Point<D>> = survivors.iter().map(|&(p, _)| p).collect();
        self.core.tree = Arc::new(KdTree::build(&pts, self.rule));
        self.core.ext = Arc::new(survivors.iter().map(|&(_, id)| id).collect());
        self.core.alive = Arc::new(vec![true; pts.len()]);
        self.core.dead = 0;
        self.core.buffer = Arc::new(Vec::new());
        self.rebuilds += 1;
        debug_assert_eq!(self.core.tree.len(), self.core.live);
    }

    // ---------- queries ----------

    /// k nearest live neighbors of `q`, ascending by `(distance², id)`
    /// (ids are insertion-order ids).
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.core.knn(q, k)
    }

    /// Data-parallel batch k-NN (parallel over the queries).
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        pargeo_parlay::map_batch(queries, 64, |q| self.core.knn(q, k))
    }

    /// Insertion-order ids of all live points inside `query` (boundary
    /// inclusive), sorted ascending.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        self.core.range_box(query)
    }

    /// Number of live points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        self.core.count_box(query)
    }

    /// Data-parallel batch box reporting.
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        pargeo_parlay::map_batch(queries, 16, |q| self.core.range_box(q))
    }

    /// All live `(point, id)` pairs, id-ascending (diagnostics / tests).
    pub fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        self.core.collect_live()
    }

    /// Bounding box of the live points (tombstones excluded) — the tree's
    /// current effective region.
    pub fn live_bbox(&self) -> Bbox<D> {
        self.core.live_bbox()
    }
}

impl<const D: usize> Default for DynKdTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable snapshot of a [`DynKdTree`] pinned at one epoch.
///
/// Created by [`DynKdTree::pin_view`] in O(1); holds `Arc`s into the
/// tree's copy-on-write core, so it stays valid — and keeps answering
/// bit-identically to a frozen clone taken at pin time — across any
/// number of later insert, delete, and threshold-rebuild epochs on the
/// live tree. Dropping views in any order is safe; each drop releases its
/// reference counts.
#[derive(Debug, Clone)]
pub struct DynKdView<const D: usize> {
    core: DynCore<D>,
    epoch: u64,
    rebuilds: u64,
    next_id: u32,
}

impl<const D: usize> DynKdView<D> {
    /// Number of live points at pin time.
    pub fn len(&self) -> usize {
        self.core.live
    }

    /// True iff the pinned epoch held no live points.
    pub fn is_empty(&self) -> bool {
        self.core.live == 0
    }

    /// The epoch this view was pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rebuild count at pin time.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total points ever inserted at pin time.
    pub fn total_inserted(&self) -> u64 {
        self.next_id as u64
    }

    /// Heap bytes held by the pinned epoch's arenas.
    pub fn arena_bytes(&self) -> usize {
        self.core.arena_bytes()
    }

    /// k nearest live neighbors of `q` at the pinned epoch.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.core.knn(q, k)
    }

    /// Data-parallel batch k-NN at the pinned epoch.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        pargeo_parlay::map_batch(queries, 64, |q| self.core.knn(q, k))
    }

    /// Sorted ids of the pinned live points inside `query`.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        self.core.range_box(query)
    }

    /// Data-parallel batch box reporting at the pinned epoch.
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        pargeo_parlay::map_batch(queries, 16, |q| self.core.range_box(q))
    }

    /// Pinned live `(point, id)` pairs, id-ascending.
    pub fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        self.core.collect_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::knn_brute_force;
    use pargeo_datagen::uniform_cube;

    fn check_knn<const D: usize>(t: &DynKdTree<D>, reference: &[Point<D>], k: usize) {
        for q in reference.iter().step_by(163) {
            let got = t.knn(q, k);
            let want = knn_brute_force(reference, q, k);
            assert_eq!(got.len(), want.len().min(k));
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.dist_sq - w.dist_sq).abs() <= 1e-9 * (1.0 + g.dist_sq),
                    "{g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn insert_batches_preserve_all_points() {
        let pts = uniform_cube::<3>(5_000, 1);
        let mut t = DynKdTree::<3>::new();
        for chunk in pts.chunks(500) {
            t.insert(chunk);
        }
        assert_eq!(t.len(), 5_000);
        let live = t.collect_live();
        for (i, (p, id)) in live.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(*p, pts[i]);
        }
        assert!(t.rebuilds() > 0, "threshold rebuilds should have fired");
        check_knn(&t, &pts, 5);
    }

    #[test]
    fn delete_tombstones_then_rebuilds() {
        let pts = uniform_cube::<2>(4_000, 2);
        let mut t = DynKdTree::from_points(&pts);
        assert_eq!(t.delete(&pts[..400]), 400);
        assert!(t.tombstones() > 0 || t.rebuilds() > 1);
        check_knn(&t, &pts[400..], 4);
        // Keep deleting until the threshold forces a rebuild.
        let r0 = t.rebuilds();
        for chunk in pts[400..2_400].chunks(400) {
            t.delete(chunk);
        }
        assert!(t.rebuilds() > r0);
        assert_eq!(t.len(), 1_600);
        check_knn(&t, &pts[2_400..], 5);
    }

    #[test]
    fn interleaved_updates_stay_exact() {
        let pts = uniform_cube::<3>(3_000, 3);
        let mut t = DynKdTree::<3>::new();
        t.insert(&pts[..1_000]);
        t.delete(&pts[..200]);
        t.insert(&pts[1_000..2_000]);
        t.delete(&pts[500..900]);
        t.insert(&pts[2_000..]);
        let expected: Vec<Point<3>> = pts
            .iter()
            .enumerate()
            .filter(|(i, _)| !(*i < 200 || (500..900).contains(i)))
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(t.len(), expected.len());
        assert_eq!(t.epoch(), 5);
        check_knn(&t, &expected, 3);
    }

    #[test]
    fn range_box_matches_brute_force_under_churn() {
        let pts = uniform_cube::<2>(3_000, 4);
        let mut t = DynKdTree::from_points(&pts);
        t.delete(&pts[1_000..1_500]);
        t.insert(&pts[1_000..1_250]); // re-insert some under fresh ids
        let side = pargeo_datagen::cube_side(3_000);
        let live = t.collect_live();
        for f in [0.1, 0.3, 0.7] {
            let q = Bbox {
                min: Point::new([side * 0.1 * f, side * 0.2]),
                max: Point::new([side * (0.2 + 0.6 * f), side * (0.3 + 0.5 * f)]),
            };
            let want: Vec<u32> = live
                .iter()
                .filter(|(p, _)| q.contains(p))
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(t.range_box(&q), want);
            assert_eq!(t.count_box(&q), want.len());
        }
    }

    #[test]
    fn delete_nonexistent_is_noop() {
        let pts = uniform_cube::<2>(500, 5);
        let mut t = DynKdTree::from_points(&pts);
        assert_eq!(t.delete(&[Point::new([-9.0, -9.0])]), 0);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn duplicates_delete_all_copies() {
        let p = Point::new([0.25, 0.75]);
        let mut base = uniform_cube::<2>(300, 6);
        base.push(p);
        base.push(p);
        let mut t = DynKdTree::from_points(&base);
        assert_eq!(t.delete(&[p]), 2);
        assert_eq!(t.len(), 300);
    }

    #[test]
    fn empty_tree_queries() {
        let t = DynKdTree::<2>::default();
        assert!(t.is_empty());
        assert!(t.knn(&Point::new([0.0, 0.0]), 3).is_empty());
        assert!(t
            .range_box(&Bbox {
                min: Point::new([0.0, 0.0]),
                max: Point::new([1.0, 1.0]),
            })
            .is_empty());
    }

    #[test]
    fn pinned_view_survives_rebuild_and_churn() {
        let pts = uniform_cube::<2>(3_000, 7);
        let mut t = DynKdTree::<2>::new();
        t.insert(&pts[..1_000]);
        let frozen = t.clone();
        let view = t.pin_view();
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.len(), 1_000);
        // Churn hard enough to force threshold rebuilds on the live side.
        t.delete(&pts[..600]);
        for chunk in pts[1_000..].chunks(250) {
            t.insert(chunk);
        }
        assert!(t.rebuilds() > frozen.rebuilds(), "rebuilds should fire");
        // The view answers bit-identically to the frozen clone at pin.
        let queries: Vec<Point<2>> = pts.iter().step_by(97).copied().collect();
        assert_eq!(view.knn_batch(&queries, 5), frozen.knn_batch(&queries, 5));
        let boxes = pargeo_datagen::uniform_rects::<2>(20, 9, 0.4);
        assert_eq!(view.range_box_batch(&boxes), frozen.range_box_batch(&boxes));
        assert_eq!(view.collect_live(), frozen.collect_live());
        assert_eq!(view.total_inserted(), 1_000);
    }

    #[test]
    fn views_drop_out_of_order() {
        let pts = uniform_cube::<2>(2_000, 8);
        let mut t = DynKdTree::<2>::new();
        t.insert(&pts[..500]);
        let v1 = t.pin_view();
        t.insert(&pts[500..1_000]);
        let f2 = t.clone();
        let v2 = t.pin_view();
        t.delete(&pts[..250]);
        drop(v1); // older view dies first; v2 must stay exact
        let queries: Vec<Point<2>> = pts.iter().step_by(111).copied().collect();
        assert_eq!(v2.knn_batch(&queries, 4), f2.knn_batch(&queries, 4));
        drop(v2);
        assert_eq!(t.len(), 750);
    }

    #[test]
    fn live_bbox_shrinks_after_deletes() {
        let mut t = DynKdTree::<2>::new();
        let near: Vec<Point<2>> = (0..300)
            .map(|i| Point::new([(i % 17) as f64, (i % 13) as f64]))
            .collect();
        let far = vec![Point::new([1e3, 1e3])];
        t.insert(&near);
        t.insert(&far);
        assert!(t.live_bbox().contains(&far[0]));
        t.delete(&far);
        let b = t.live_bbox();
        assert!(!b.contains(&far[0]));
        assert!(b.max[0] <= 16.0 && b.max[1] <= 12.0);
    }
}

//! The BDL-tree (paper §5, Appendix C.2–C.4).

use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::knn::{KnnBuffer, KnnProbe, KnnWork, Neighbor};
use pargeo_kdtree::range::{RangeProbe, RangeWork};
use pargeo_kdtree::tree::{SplitRule, LEAF_SIZE};
use pargeo_kdtree::LevelTree;
use std::collections::HashSet;

/// Default buffer-tree size `X` (tunable; the paper treats it as a
/// performance constant).
pub const DEFAULT_BUFFER_SIZE: usize = 1024;

/// A parallel batch-dynamic kd-tree: log-structured set of static
/// kd-trees with capacities `X·2^i`, plus an insert buffer of `< X` rows
/// kept twice — in arrival order, and as a small kd-tree every read
/// searches like a level.
///
/// `clone()` is O(X + log n): the buffer's rows are copied, every static
/// tree and the buffer's tree are shared ([`LevelTree`]'s structure is
/// immutable and its deletion overlay copy-on-write). Inserts and drains
/// only ever *replace* trees, so a clone keeps answering its own epoch; a
/// delete that removes points from a still-shared tree first copies that
/// tree's ~1.2 B/pt overlay, which [`cow_bytes`](Self::cow_bytes) counts.
#[derive(Debug, Clone)]
pub struct BdlTree<const D: usize> {
    /// The `< x` insert-buffer rows in arrival order: the cascade spills
    /// to its back and deals its oldest X rows from its front, so this is
    /// what fixes every row's slot.
    buffer: Vec<(Point<D>, u32)>,
    /// The same rows built into a tree (the paper's buffer kd-tree),
    /// which reads descend under the shared bound after the levels. Built
    /// again whenever a write changes the buffer's rows; never erased
    /// from.
    buffer_tree: LevelTree<D>,
    /// `trees[i]` has capacity `x << i` when occupied.
    trees: Vec<Option<LevelTree<D>>>,
    x: usize,
    rule: SplitRule,
    live: usize,
    next_id: u32,
    epoch: u64,
    rebuilds: u64,
    /// Overlay bytes copied by deletes that hit a tree shared with a clone.
    cow_bytes: u64,
    work: BdlWriteWork,
}

/// One static tree of a cascade: the level it goes to, the buffer its
/// rows are dealt into, and the tree built in it.
struct Rebuild<const D: usize> {
    level: usize,
    rows: Vec<(Point<D>, u32)>,
    tree: Option<LevelTree<D>>,
}

/// What the write path did so far, in counts that depend on the update
/// history alone — never on the clock or the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BdlWriteWork {
    /// Row copies on the way from a batch or an old level into a new
    /// tree's columns: one into the row buffer the tree is built in, one
    /// out of it into the columns, so always `2 · rows_built` (rows routed
    /// to the `< X` insert buffer aside).
    pub rows_moved: u64,
    /// Points handed to a static-tree build.
    pub rows_built: u64,
    /// Static trees built.
    pub trees_built: u64,
    /// Delete queries routed through a tree node, summed over the nodes
    /// visited.
    pub erase_query_levels: u64,
    /// Query-against-row key tests at the leaves.
    pub erase_compares: u64,
    /// Rows built into the insert buffer's tree, summed over its builds:
    /// the buffer's length after every write that changed its rows.
    pub rows_indexed: u64,
}

impl<const D: usize> BdlTree<D> {
    /// Creates an empty BDL-tree with the default buffer size.
    pub fn new() -> Self {
        Self::with_buffer_size(DEFAULT_BUFFER_SIZE)
    }

    /// Creates an empty BDL-tree with buffer size `x ≥ 1`.
    pub fn with_buffer_size(x: usize) -> Self {
        Self::with_config(x, SplitRule::ObjectMedian)
    }

    /// Creates an empty BDL-tree with an explicit buffer size and split
    /// rule (object vs spatial median, the §6.3 comparison axis).
    pub fn with_config(x: usize, rule: SplitRule) -> Self {
        assert!(x >= 1);
        Self {
            buffer: Vec::with_capacity(x),
            buffer_tree: LevelTree::build_with(Vec::new(), LEAF_SIZE, rule),
            trees: Vec::new(),
            x,
            rule,
            live: 0,
            next_id: 0,
            epoch: 0,
            rebuilds: 0,
            cow_bytes: 0,
            work: BdlWriteWork::default(),
        }
    }

    /// Builds a BDL-tree from an initial point set (a single batch insert).
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut t = Self::new();
        t.insert(points);
        t
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no points are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Buffer size `X`.
    pub fn buffer_size(&self) -> usize {
        self.x
    }

    /// Update batches (inserts or deletes) applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Static trees constructed so far by the logarithmic cascade
    /// (including rebuild-after-shrink constructions).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total points ever inserted (ids are assigned from this counter).
    pub fn total_inserted(&self) -> u64 {
        self.next_id as u64
    }

    /// Bytes copied so far by deletes that removed points from a static
    /// tree a clone still shared — the copy-on-write work counter (0 for
    /// a tree that was never cloned).
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// The write path's work counters so far.
    pub fn write_work(&self) -> BdlWriteWork {
        self.work
    }

    /// Occupancy bitmask `F` of the static trees (bit `i` ⇔ `trees[i]`
    /// holds points).
    pub fn bitmask(&self) -> u64 {
        let mut f = 0u64;
        for (i, t) in self.trees.iter().enumerate() {
            if t.as_ref().map(|t| !t.is_empty()).unwrap_or(false) {
                f |= 1 << i;
            }
        }
        f
    }

    /// Batch insert (Algorithm 3). The points get the next ids in batch
    /// order.
    ///
    /// # Panics
    ///
    /// If the tree would have handed out more than `u32::MAX` ids over its
    /// life: ids are `u32` and never reused.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        self.epoch += 1;
        if self.cascade(batch, Vec::new()) {
            self.index_buffer();
        }
    }

    /// Builds the buffer's tree over the buffer's rows again.
    fn index_buffer(&mut self) {
        let rows = self.buffer.clone();
        self.work.rows_indexed += rows.len() as u64;
        self.buffer_tree = LevelTree::build_with(rows, LEAF_SIZE, self.rule);
    }

    /// The logarithmic carry, the one write both updates end in: the
    /// incoming rows — `batch` under fresh ids, or the survivors of the
    /// `drained` levels — then, once the insert buffer overflows, its
    /// oldest X rows, then the rows of every level the carry destroys,
    /// smallest first, are dealt in that order to the levels it creates.
    /// Ascending levels take their exact capacity (binary arithmetic
    /// guarantees there is enough when no deletions occurred; shortfalls
    /// from past deletions land in the highest new level). The last
    /// `|incoming| mod X` incoming rows go to the insert buffer instead.
    ///
    /// Each row is read where it lives — the batch, a level's columns —
    /// and written once, into the row buffer its tree is built in; the
    /// build moves it once more, into the columns.
    ///
    /// Returns whether the insert buffer's rows changed: they do exactly
    /// when `|incoming|` is not a multiple of X (a tail spills in, and
    /// only a spill can fill the buffer for the take).
    fn cascade(&mut self, batch: &[Point<D>], drained: Vec<LevelTree<D>>) -> bool {
        let first_id = self.next_id;
        self.next_id = u32::try_from(batch.len())
            .ok()
            .and_then(|n| first_id.checked_add(n))
            .expect("BdlTree: more than u32::MAX inserts exhaust the u32 id space");
        self.live += batch.len();
        let n = batch.len() + drained.iter().map(LevelTree::len).sum::<usize>();
        let mut incoming = (batch.iter().enumerate())
            .map(|(i, &p)| (p, first_id + i as u32))
            .chain(drained.iter().flat_map(LevelTree::live_rows));
        // The tail goes to the buffer first (read from the back, so
        // reversed in place), and what is left of `incoming` is the prefix.
        let spill = self.buffer.len();
        self.buffer.extend(incoming.by_ref().rev().take(n % self.x));
        self.buffer[spill..].reverse();
        let take = self.buffer.len() >= self.x;
        let k = (n / self.x + take as usize) as u64;
        let changed = !n.is_multiple_of(self.x);
        if k == 0 {
            return changed;
        }
        let f = self.bitmask();
        let f_new = f + k;
        let to_destroy = f & !f_new;
        let to_create = f_new & !f;
        let destroyed: Vec<LevelTree<D>> = (0..self.trees.len())
            .filter(|i| to_destroy >> i & 1 == 1)
            .filter_map(|i| self.trees[i].take())
            .collect();
        // Grow the tree list as needed.
        let top_bit = 64 - f_new.leading_zeros() as usize;
        while self.trees.len() < top_bit {
            self.trees.push(None);
        }
        let mut left = k as usize * self.x + destroyed.iter().map(LevelTree::len).sum::<usize>();
        let mut rows = incoming
            .chain(
                take.then(|| self.buffer.drain(..self.x))
                    .into_iter()
                    .flatten(),
            )
            .chain(destroyed.iter().flat_map(LevelTree::live_rows));
        let create_bits: Vec<usize> = (0..64).filter(|i| to_create >> i & 1 == 1).collect();
        let mut jobs: Vec<Rebuild<D>> = Vec::with_capacity(create_bits.len());
        for (j, &level) in create_bits.iter().enumerate() {
            let share = match j + 1 == create_bits.len() {
                true => left,
                false => left.min(self.x << level),
            };
            left -= share;
            let mut dealt = Vec::with_capacity(share);
            dealt.extend(rows.by_ref().take(share));
            jobs.push(Rebuild {
                level,
                rows: dealt,
                tree: None,
            });
            // Dealt into the row buffer, then scattered into the columns.
            self.work.rows_moved += 2 * share as u64;
            self.work.rows_built += share as u64;
            self.work.trees_built += 1;
        }
        debug_assert!(rows.next().is_none(), "more rows than the levels hold");
        drop(rows);
        // The old levels go before the builds allocate their columns.
        drop((drained, destroyed));
        let rule = self.rule;
        // Grain 1: an item is a whole tree build.
        pargeo_parlay::for_each_mut(&mut jobs, 1, |_, job| {
            let rows = std::mem::take(&mut job.rows);
            job.tree = Some(LevelTree::build_with(rows, LEAF_SIZE, rule));
        });
        self.rebuilds += jobs.len() as u64;
        for Rebuild { level, tree, .. } in jobs {
            debug_assert!(self.trees[level].is_none());
            self.trees[level] = tree.filter(|t| !t.is_empty());
        }
        changed
    }

    /// Batch delete by point value (Algorithm 4). All live copies of each
    /// query point are removed. Returns the number of deleted points.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        self.remove(batch).len()
    }

    /// [`delete`](Self::delete), returning the `(point, id)` pairs it
    /// removed (in no particular order).
    pub fn remove(&mut self, batch: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        self.epoch += 1;
        if batch.is_empty() || self.live == 0 {
            return Vec::new();
        }
        // Buffer deletion; an empty buffer is not worth hashing the batch
        // for (0.25 ms per 10 000 points).
        let mut removed: Vec<(Point<D>, u32)> = Vec::new();
        if !self.buffer.is_empty() {
            let victims: HashSet<_> = batch.iter().map(Point::bits_key).collect();
            removed.extend(
                self.buffer
                    .extract_if(.., |(p, _)| victims.contains(&p.bits_key())),
            );
        }
        let buffer_hit = !removed.is_empty();
        // Parallel bulk erase across all occupied trees (grain 1: an item
        // is a whole tree's erase), each tree reporting into its own slot:
        // the rows it lost, the overlay bytes it copied, its query-levels
        // and compares. The tallies are integer sums over the slots, so
        // the order the trees finish in cannot show.
        let mut erased = vec![(Vec::new(), [0u64; 3]); self.trees.len()];
        let mut jobs: Vec<_> = self.trees.iter_mut().zip(&mut erased).collect();
        pargeo_parlay::for_each_mut(&mut jobs, 1, |_, (slot, out)| {
            if let Some(t) = slot {
                let before = t.cow_bytes();
                let (rows, (levels, compares)) = t.erase_work(batch);
                **out = (rows, [t.cow_bytes() - before, levels, compares]);
            }
        });
        for (rows, [copied, levels, compares]) in erased {
            removed.extend(rows);
            self.cow_bytes += copied;
            self.work.erase_query_levels += levels;
            self.work.erase_compares += compares;
        }
        self.live -= removed.len();
        // Levels below half capacity are drained: their survivors are the
        // incoming rows of one more carry.
        let x = self.x;
        let drained: Vec<LevelTree<D>> = (self.trees.iter_mut().enumerate())
            .filter(|(i, slot)| slot.as_ref().is_some_and(|t| 2 * t.len() < x << i))
            .filter_map(|(_, slot)| slot.take())
            .collect();
        if self.cascade(&[], drained) || buffer_hit {
            self.index_buffer();
        }
        removed
    }

    /// k nearest live neighbors of `q` (ids are insertion-order ids),
    /// ascending by distance. One shared buffer accumulates across every
    /// occupied static tree and the insert buffer's tree (Appendix C.4),
    /// largest tree first: the tree most likely to hold the true neighbors
    /// sets the bound, and every smaller tree, the buffer's last, is then
    /// pruned by it or skipped whole.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.knn_with(q, KnnBuffer::new(k)).finish()
    }

    /// [`knn`](Self::knn) plus the work the same traversal did.
    pub fn knn_work(&self, q: &Point<D>, k: usize) -> (Vec<Neighbor>, KnnWork) {
        self.knn_with(q, KnnBuffer::with_probe(k, KnnWork::default()))
            .finish_with_probe()
    }

    fn knn_with<W: KnnProbe>(&self, q: &Point<D>, mut buf: KnnBuffer<W>) -> KnnBuffer<W> {
        for t in self.searched() {
            t.knn_into(q, &mut buf);
        }
        buf
    }

    /// Every tree a read descends, in k-NN order: the occupied levels,
    /// largest first, then the insert buffer's tree.
    fn searched(&self) -> impl Iterator<Item = &LevelTree<D>> {
        self.trees
            .iter()
            .rev()
            .flatten()
            .chain(std::iter::once(&self.buffer_tree))
    }

    /// Data-parallel batch k-NN (parallel over the queries `S`, evaluated
    /// in Z-order of the queries, rows in input order).
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        pargeo_morton::map_batch_z_order(queries, |q| self.knn(q, k))
    }

    /// Insertion-order ids of all live points inside `query` (boundary
    /// inclusive), sorted ascending. One answer accumulates across every
    /// occupied static tree and the insert buffer's tree, mirroring the
    /// shared-buffer k-NN strategy.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        self.range_with(query, &mut ())
    }

    /// [`range_box`](Self::range_box) plus the work the same descents did.
    pub fn range_work(&self, query: &Bbox<D>) -> (Vec<u32>, RangeWork) {
        let mut work = RangeWork::default();
        (self.range_with(query, &mut work), work)
    }

    fn range_with<W: RangeProbe>(&self, query: &Bbox<D>, probe: &mut W) -> Vec<u32> {
        let mut out = Vec::new();
        for t in self.searched() {
            t.range_into(query, &mut out, probe);
        }
        out.sort_unstable();
        out
    }

    /// Number of live points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        self.searched().map(|t| t.count_box(query)).sum()
    }

    /// Data-parallel batch box reporting (parallel over the queries,
    /// evaluated in Z-order of the box centres, rows in input order).
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        pargeo_morton::map_batch_z_order_by(queries, Bbox::center, |q| self.range_box(q))
    }

    /// All live `(point, id)` pairs (diagnostics / tests).
    pub fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        let mut out = Vec::with_capacity(self.live);
        out.extend_from_slice(&self.buffer);
        for t in self.trees.iter().flatten() {
            out.extend(t.live_rows());
        }
        out
    }

    /// Bounding box of the live points — the cascade's current effective
    /// region (shrinks when deletes remove extreme points). Folded in place
    /// from each tree's columns, the buffer's included; nothing is copied.
    pub fn live_bbox(&self) -> Bbox<D> {
        self.searched()
            .fold(Bbox::empty(), |b, t| b.union(&t.live_bbox()))
    }

    /// Per static tree (smallest first; empty levels skipped): whether
    /// `other` still shares its immutable structure — true everywhere
    /// right after `clone()`, false once either side rebuilt the level.
    pub fn levels_shared_with(&self, other: &Self) -> Vec<bool> {
        self.trees
            .iter()
            .zip(&other.trees)
            .filter_map(|pair| match pair {
                (Some(a), Some(b)) => Some(a.shares_core_with(b)),
                _ => None,
            })
            .collect()
    }

    /// Sizes of the occupied static trees, smallest first (diagnostics).
    pub fn tree_sizes(&self) -> Vec<usize> {
        self.trees
            .iter()
            .map(|t| t.as_ref().map(|t| t.len()).unwrap_or(0))
            .collect()
    }

    /// Heap bytes held by the cascade's flat arenas (every level's
    /// slabs, the insert buffer's rows and its tree's slabs) — the
    /// `index_arena_bytes` gauge.
    pub fn arena_bytes(&self) -> usize {
        self.buffer.len() * std::mem::size_of::<(Point<D>, u32)>()
            + self.searched().map(LevelTree::arena_bytes).sum::<usize>()
    }

    /// Total nodes across every occupied level and the insert buffer's
    /// tree — the `index_nodes_total` gauge.
    pub fn node_count(&self) -> usize {
        self.searched().map(LevelTree::node_count).sum()
    }
}

impl<const D: usize> Default for BdlTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{cube_side, uniform_cube};
    use pargeo_kdtree::knn::knn_brute_force;

    fn check_knn<const D: usize>(t: &BdlTree<D>, reference: &[Point<D>], k: usize) {
        for q in reference.iter().step_by(197) {
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
    fn bitmask_cascade_matches_figure7() {
        // Figure 7 walkthrough with X = 8 (> 2).
        let x = 8;
        let mut t = BdlTree::<2>::with_buffer_size(x);
        let pts = uniform_cube::<2>(4 * x + 1, 1);
        // (a) insert X points -> F = 1.
        t.insert(&pts[..x]);
        assert_eq!(t.bitmask(), 0b1);
        // (b) insert X+1 -> one in buffer, F = 2.
        t.insert(&pts[x..2 * x + 1]);
        assert_eq!(t.bitmask(), 0b10);
        assert_eq!(t.len(), 2 * x + 1);
        // (c) insert X+1 again -> two in buffer, F = 3.
        t.insert(&pts[2 * x + 1..3 * x + 2]);
        assert_eq!(t.bitmask(), 0b11);
        // (d) insert X-1 -> buffer fills, F = 4.
        t.insert(&pts[3 * x + 2..4 * x + 1]);
        assert_eq!(t.bitmask(), 0b100);
        // 4X points went into tree 2 (capacity 4X); one stayed in the buffer.
        assert_eq!(t.len(), 4 * x + 1);
        assert_eq!(t.collect_live().len(), 4 * x + 1);
        assert_eq!(t.tree_sizes()[2], 4 * x);
    }

    #[test]
    fn insert_preserves_all_points() {
        let pts = uniform_cube::<3>(5_000, 2);
        let mut t = BdlTree::<3>::with_buffer_size(64);
        for chunk in pts.chunks(500) {
            t.insert(chunk);
        }
        assert_eq!(t.len(), 5_000);
        let mut live = t.collect_live();
        live.sort_by_key(|&(_, id)| id);
        assert_eq!(live.len(), 5_000);
        for (i, (p, id)) in live.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(*p, pts[i]);
        }
    }

    #[test]
    fn knn_exact_after_batched_construction() {
        let pts = uniform_cube::<2>(3_000, 3);
        let mut t = BdlTree::<2>::with_buffer_size(128);
        for chunk in pts.chunks(300) {
            t.insert(chunk);
        }
        check_knn(&t, &pts, 5);
    }

    #[test]
    fn delete_batches_and_knn_stays_exact() {
        let pts = uniform_cube::<2>(4_000, 4);
        let mut t = BdlTree::<2>::with_buffer_size(128);
        t.insert(&pts);
        // Delete 10 batches of 10%.
        for chunk in pts.chunks(400).take(5) {
            let removed = t.delete(chunk);
            assert_eq!(removed, 400);
        }
        assert_eq!(t.len(), 2_000);
        check_knn(&t, &pts[2_000..], 4);
        // Delete the rest.
        for chunk in pts[2_000..].chunks(400) {
            t.delete(chunk);
        }
        assert!(t.is_empty());
        assert!(t.knn(&pts[0], 3).is_empty());
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        let pts = uniform_cube::<3>(3_000, 5);
        let mut t = BdlTree::<3>::with_buffer_size(64);
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
        check_knn(&t, &expected, 3);
        // The live box is exact under tombstones: it shrank with the
        // deleted extreme points.
        assert_eq!(t.live_bbox(), Bbox::from_points(&expected));
        assert_ne!(t.live_bbox(), Bbox::from_points(&pts));
    }

    #[test]
    fn delete_nonexistent_is_noop() {
        let pts = uniform_cube::<2>(500, 6);
        let mut t = BdlTree::from_points(&pts);
        assert_eq!(t.delete(&[Point::new([-99.0, -99.0])]), 0);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn small_batches_stay_in_buffer() {
        let mut t = BdlTree::<2>::with_buffer_size(1000);
        let pts = uniform_cube::<2>(50, 7);
        t.insert(&pts);
        assert_eq!(t.bitmask(), 0);
        assert_eq!(t.len(), 50);
        check_knn(&t, &pts, 5);
    }

    #[test]
    fn tree_sizes_are_log_structured() {
        let pts = uniform_cube::<2>(10_000, 8);
        let mut t = BdlTree::<2>::with_buffer_size(64);
        for chunk in pts.chunks(1000) {
            t.insert(chunk);
        }
        for (i, &sz) in t.tree_sizes().iter().enumerate() {
            assert!(sz <= 64 << i, "tree {i} oversize: {sz}");
        }
    }

    /// Everything a reader can ask of a tree, in canonical form.
    type Answers<const D: usize> = (Vec<Vec<Neighbor>>, Vec<Vec<u32>>, Vec<(Point<D>, u32)>);

    fn answers<const D: usize>(t: &BdlTree<D>, probes: &[Point<D>]) -> Answers<D> {
        let boxes: Vec<Bbox<D>> = probes
            .chunks(2)
            .map(|c| Bbox::from_points(&[c[0], c[c.len() - 1]]))
            .collect();
        let mut live = t.collect_live();
        live.sort_by_key(|&(_, id)| id);
        (t.knn_batch(probes, 4), t.range_box_batch(&boxes), live)
    }

    /// A clone must keep answering like a tree *replayed* to the clone's
    /// write prefix (never like another clone, which would share state)
    /// while the original goes through insert cascades, deletes that hit
    /// the levels both share, and half-capacity drains.
    fn clones_survive_the_original<const D: usize>(seed: u64) {
        let x = 32;
        let pts = uniform_cube::<D>(6_000, seed);
        let probes: Vec<Point<D>> = pts.iter().step_by(97).copied().collect();
        // One write per entry; `true` inserts the range, `false` deletes it.
        let script: [(bool, std::ops::Range<usize>); 8] = [
            (true, 0..3_000),
            (false, 0..40),           // hits the big shared level, no drain
            (true, 3_000..3_000 + x), // cascade: destroys and rebuilds levels
            (false, 40..1_700),       // drains levels below half capacity
            (true, 3_100..4_500),
            (false, 2_000..2_010),
            (false, 4_000..4_400),
            (true, 4_500..6_000),
        ];
        let replay = |upto: usize| {
            let mut t = BdlTree::<D>::with_buffer_size(x);
            for (insert, range) in &script[..upto] {
                if *insert {
                    t.insert(&pts[range.clone()]);
                } else {
                    t.delete(&pts[range.clone()]);
                }
            }
            t
        };
        let mut live = BdlTree::<D>::with_buffer_size(x);
        let mut clones: Vec<(usize, BdlTree<D>)> = Vec::new();
        for (step, (insert, range)) in script.iter().enumerate() {
            clones.push((step, live.clone()));
            if *insert {
                live.insert(&pts[range.clone()]);
            } else {
                live.delete(&pts[range.clone()]);
            }
            for (upto, clone) in &clones {
                assert_eq!(
                    answers(clone, &probes),
                    answers(&replay(*upto), &probes),
                    "D={D}: clone of prefix {upto} after write {step}"
                );
            }
            // Retire out of pin order: the second-oldest clone goes first.
            if clones.len() > 3 {
                clones.remove(1);
            }
        }
        assert_eq!(
            answers(&live, &probes),
            answers(&replay(script.len()), &probes)
        );
    }

    #[test]
    fn clones_answer_like_a_replayed_tree_2d() {
        clones_survive_the_original::<2>(21);
    }

    #[test]
    fn clones_answer_like_a_replayed_tree_5d() {
        clones_survive_the_original::<5>(22);
    }

    #[test]
    fn clone_shares_every_level_and_a_small_delete_copies_only_an_overlay() {
        let n = 100_000;
        let pts = uniform_cube::<2>(n, 23);
        let mut t = BdlTree::<2>::from_points(&pts);
        let pin = t.clone();
        let shared = t.levels_shared_with(&pin);
        assert!(
            !shared.is_empty() && shared.iter().all(|&s| s),
            "{shared:?}"
        );
        assert_eq!(t.cow_bytes(), 0, "cloning copies nothing");

        // A delete that finds nothing writes nothing, shared or not.
        assert_eq!(t.delete(&[Point::new([-1.0, -1.0])]), 0);
        assert_eq!(t.cow_bytes(), 0);

        let before = t.tree_sizes();
        assert_eq!(t.delete(&pts[..125]), 125);
        let hit_pts: usize = before
            .iter()
            .zip(t.tree_sizes())
            .filter(|(b, a)| *b != a)
            .map(|(b, _)| *b)
            .sum();
        let copied = t.cow_bytes();
        assert!(copied > 0, "the pin shared the levels the delete hit");
        assert!(
            copied < 4 * hit_pts as u64,
            "{copied} B copied for {hit_pts} points in the levels hit"
        );
        // Still the same structure underneath: only the overlay diverged.
        assert!(t.levels_shared_with(&pin).iter().all(|&s| s));
        assert_eq!(pin.len(), n);
        assert_eq!(pin.knn(&pts[0], 1)[0].id, 0, "the pin still holds point 0");
        assert!(t.knn(&pts[0], 1)[0].dist_sq > 0.0);

        // The copy is paid once per pin, not once per delete.
        assert_eq!(t.delete(&pts[125..250]), 125);
        assert_eq!(t.cow_bytes(), copied);
        assert_eq!(pin.cow_bytes(), 0);
    }

    /// Sums the probe over `queries`, checking each probed row against
    /// the unprobed traversal on the way.
    fn work_of<const D: usize>(t: &BdlTree<D>, queries: &[Point<D>], k: usize) -> KnnWork {
        let mut total = KnnWork::default();
        for q in queries {
            let (row, w) = t.knn_work(q, k);
            assert_eq!(row, t.knn(q, k), "the probe must not change the answer");
            total.nodes += w.nodes;
            total.leaves += w.leaves;
            total.points_tested += w.points_tested;
            total.trees_skipped += w.trees_skipped;
        }
        total
    }

    /// A seeded 50k-point 5-D tree in `index-batch`'s insert shape (half,
    /// then ten batches of 5%: trees of 32 768 and 16 384 points and 848
    /// in the insert buffer), and 400 uniform queries.
    fn index_batch_shape() -> (BdlTree<5>, Vec<Point<5>>) {
        let n = 50_000;
        let pts = uniform_cube::<5>(n, 42);
        let mut t = BdlTree::<5>::new();
        t.insert(&pts[..n / 2]);
        for batch in pts[n / 2..].chunks(n / 20) {
            t.insert(batch);
        }
        assert_eq!(t.tree_sizes()[4..], [16_384, 32_768]);
        assert_eq!(t.len() - 16_384 - 32_768, 848);
        (t, uniform_cube::<5>(n, 43)[..400].to_vec())
    }

    /// The machine-independent regression guard of the k-NN read path, on
    /// [`index_batch_shape`] with k = 5. Recorded with the insert buffer
    /// searched as a tree after the levels: 115.4 nodes and 414.0
    /// distances per query (46 150 and 165 599 over the 400; 10 526
    /// leaves, not all of 16 rows). The buffer's tree adds its own path to
    /// the nodes: 4 907 of the 46 150, 12.3 a query. With the buffer scanned flat
    /// it was 103.1 nodes and 1 227.9 distances, 848 of them the buffer's;
    /// before that, smallest tree first cost 110.1 / 1 259.0, and with
    /// the 2k-slot buffer's lagging bound on top 119 / 1 308 (the gap
    /// widens with n: 207 vs 150 nodes at 200k points).
    #[test]
    fn knn_work_stays_under_the_recorded_ceiling() {
        let (t, queries) = index_batch_shape();
        let w = work_of(&t, &queries, 5);
        assert!(w.nodes <= 116 * 400, "{w:?}");
        assert!(w.points_tested <= 415 * 400, "{w:?}");
    }

    /// The machine-independent regression guard of the box read path, on
    /// [`index_batch_shape`]: 400 boxes 0.2 of the cube's side wide on
    /// every axis (`index-batch`'s widest), centred on the queries, which
    /// report 4 921 ids. Each answer is checked against `range_box` and
    /// `count_box` on the way. Recorded with the insert buffer searched as
    /// a tree: 63 640 nodes, 9 109 leaves and 143 116 rows tested (159.1
    /// nodes and 357.8 rows a query), 7 850 of the nodes the buffer
    /// tree's. With the buffer scanned flat it was 55 790 nodes (none of
    /// them the buffer's), 8 151 leaves and 469 616 rows, 339 200 of them
    /// the buffer's 848 per query.
    #[test]
    fn range_work_stays_under_the_recorded_ceiling() {
        let (t, queries) = index_batch_shape();
        let half = 0.1 * cube_side(50_000);
        let mut total = RangeWork::default();
        let mut reported = 0;
        for q in &queries {
            let query = Bbox {
                min: Point::new(q.coords.map(|c| c - half)),
                max: Point::new(q.coords.map(|c| c + half)),
            };
            let (ids, w) = t.range_work(&query);
            assert_eq!(
                ids,
                t.range_box(&query),
                "the probe must not change the answer"
            );
            assert_eq!(ids.len(), t.count_box(&query));
            reported += ids.len();
            total.nodes += w.nodes;
            total.leaves += w.leaves;
            total.rows_tested += w.rows_tested;
        }
        assert_eq!(reported, 4_921, "{total:?}");
        assert!(total.nodes <= 63_640, "{total:?}");
        assert!(total.rows_tested <= 143_116, "{total:?}");
    }

    /// The machine-independent regression guard of the write path:
    /// `store-churn`'s write stream at 1/10 scale on a bare tree — a 40k
    /// prefill in 4k chunks, then 16 windows that insert 1k new points and
    /// delete the 1k oldest. 134 144 rows are built into 26 trees, and the
    /// erases take 535 676 query-levels and 773 223 leaf compares. Each
    /// built row is moved twice, 268 288 moves: dealt from the batch or an
    /// old level's columns into its tree's row buffer, then scattered
    /// into the columns. The cascade before that moved 347 136 rows (a
    /// level's rows were gathered into a temporary before they were dealt,
    /// and a drain's survivors were gathered and dealt again); the one
    /// before it — an AoS pool, a `to_vec` per share and another inside
    /// the build — 560 128, and its erase, without the root-box test, took
    /// 536 008 query-levels and 774 046 compares. The insert buffer's tree
    /// is built over 17 056 rows in all: every insert spills into the
    /// buffer, and so does a drain whose survivors are not a multiple of X.
    #[test]
    fn write_work_stays_under_the_recorded_ceiling() {
        let pts = uniform_cube::<2>(56_000, 42);
        let mut t = BdlTree::<2>::new();
        for chunk in pts[..40_000].chunks(4_000) {
            t.insert(chunk);
        }
        for w in 0..16 {
            t.insert(&pts[40_000 + 1_000 * w..][..1_000]);
            assert_eq!(t.delete(&pts[1_000 * w..][..1_000]), 1_000);
        }
        let w = t.write_work();
        // What is built is the logarithmic method's business, not the
        // write path's: it may not move at all.
        assert_eq!((w.rows_built, w.trees_built), (134_144, 26), "{w:?}");
        assert_eq!(w.trees_built, t.rebuilds());
        assert!(w.rows_moved <= 268_288, "{w:?}");
        assert_eq!(w.rows_moved, 2 * w.rows_built, "{w:?}");
        assert!(w.erase_query_levels <= 535_676, "{w:?}");
        assert!(w.erase_compares <= 773_223, "{w:?}");
        assert!(w.rows_indexed <= 17_056, "{w:?}");
    }

    /// FNV-1a over every live row in slot order (the buffer, then each
    /// level smallest first) and the level sizes.
    fn row_order_digest<const D: usize>(t: &BdlTree<D>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (p, id) in t.collect_live() {
            p.coords.iter().for_each(|c| eat(c.to_bits()));
            eat(id as u64);
        }
        t.tree_sizes().into_iter().for_each(|s| eat(s as u64));
        h
    }

    /// Which tree holds which row in which slot is the deal order's
    /// business alone: a replay of inserts that spill into and take from
    /// the buffer, deletes that drain one level or several (the survivors'
    /// remainder landing in the buffer), and a delete of everything, must
    /// leave every row where the cascade that recorded these digests left
    /// it — so answers, `KnnWork` and `tree_sizes` cannot move either.
    #[test]
    fn the_cascade_deals_every_row_to_its_recorded_slot() {
        let x = 32;
        let pts = uniform_cube::<2>(6_000, 26);
        let mut t = BdlTree::<2>::with_buffer_size(x);
        let mut digests = Vec::new();
        let script: [(bool, std::ops::Range<usize>); 10] = [
            (true, 0..1_000),
            (true, 1_000..1_021),
            (false, 0..30),
            (true, 1_021..2_500),
            (false, 100..900),
            (false, 1_000..1_400),
            (true, 2_500..2_517),
            (false, 1_400..2_200),
            (true, 2_517..6_000),
            (false, 2_200..5_990),
        ];
        for (insert, range) in script {
            if insert {
                t.insert(&pts[range]);
            } else {
                t.delete(&pts[range]);
            }
            digests.push(row_order_digest(&t));
        }
        t.delete(&pts);
        assert!(t.is_empty() && t.collect_live().is_empty());
        let want: [u64; 10] = [
            0xb5c59e6e8ee4d62b,
            0x86e1177343373f2f,
            0x9fe49da9a2b2dd95,
            0x3fd85159c9481074,
            0x11edfb4e487b29ab,
            0xc091d6dc73c2eb4c,
            0x5cd34b240340cb29,
            0x4804bc25f5642b18,
            0xc5d7f22f6fe05f8a,
            0x4f6ae03469bc3c54,
        ];
        assert_eq!(digests, want, "{digests:#x?}");
    }

    /// The buffer's tree holds exactly the buffer's rows after every write
    /// of the slot-digest replay (with one small delete added before its
    /// last, and a delete of everything after it), and is built again
    /// exactly when they
    /// changed: a write that leaves the buffer as it was — a delete that
    /// removes no buffer row and drains nothing, among others — indexes
    /// no row, any other indexes the new buffer once.
    #[test]
    fn the_buffer_tree_is_built_again_exactly_when_the_buffer_changes() {
        let x = 32;
        let pts = uniform_cube::<2>(6_000, 26);
        let mut t = BdlTree::<2>::with_buffer_size(x);
        let script: [(bool, std::ops::Range<usize>); 12] = [
            (true, 0..1_000),
            (true, 1_000..1_021),
            (false, 0..30),
            (true, 1_021..2_500),
            (false, 100..900),
            (false, 1_000..1_400),
            (true, 2_500..2_517),
            (false, 1_400..2_200),
            (true, 2_517..6_000),
            (false, 2_200..2_210),
            (false, 2_210..5_990),
            (false, 0..6_000),
        ];
        let by_id = |mut rows: Vec<(Point<2>, u32)>| {
            rows.sort_by_key(|&(_, id)| id);
            rows
        };
        let mut untouched = Vec::new();
        for (step, (insert, range)) in script.into_iter().enumerate() {
            let (buffer, indexed) = (t.buffer.clone(), t.write_work().rows_indexed);
            if insert {
                t.insert(&pts[range]);
            } else {
                t.delete(&pts[range]);
            }
            let rows = by_id(t.buffer_tree.live_rows().collect());
            assert_eq!(rows, by_id(t.buffer.clone()));
            let grew = t.write_work().rows_indexed - indexed;
            if t.buffer == buffer {
                untouched.push(step);
                assert_eq!(grew, 0);
            } else {
                assert_eq!(grew, t.buffer.len() as u64);
            }
        }
        // Write 5 empties a level, with no survivor to spill; write 9
        // removes ten points from the levels and drains none.
        assert_eq!(untouched, [5, 9]);
    }

    /// Ids are `u32` and never reused: the insert that would hand out one
    /// past the id space panics instead of wrapping to duplicates.
    #[test]
    #[should_panic(expected = "u32 id space")]
    fn an_insert_past_the_u32_id_space_panics() {
        let pts = uniform_cube::<2>(3, 27);
        let mut t = BdlTree::<2>::with_buffer_size(4);
        t.next_id = u32::MAX - 2;
        t.insert(&pts[..2]);
        assert_eq!(t.total_inserted(), u32::MAX as u64);
        assert_eq!(t.knn(&pts[1], 1)[0].id, u32::MAX - 1);
        t.insert(&pts[2..]);
    }

    #[test]
    fn a_tree_beyond_the_bound_is_skipped_whole() {
        let x = 64;
        let near = uniform_cube::<2>(4 * x, 24);
        let far: Vec<Point<2>> = uniform_cube::<2>(x, 25)
            .iter()
            .map(|p| Point::new([p[0] + 1e6, p[1] + 1e6]))
            .collect();
        let mut t = BdlTree::<2>::with_buffer_size(x);
        t.insert(&near);
        t.insert(&far);
        assert_eq!(t.tree_sizes(), [x, 0, 4 * x]);
        let w = work_of(&t, &near[..50], 3);
        assert_eq!(w.trees_skipped, 50, "{w:?}");
        // A query between the clusters still sees both.
        let mid = Point::new([5e5, 5e5]);
        let (row, w) = t.knn_work(&mid, 4 * x + 1);
        assert_eq!((row.len(), w.trees_skipped), (4 * x + 1, 0));
    }
}

//! The Zd-tree comparator (§6.3 "Comparison with Zd-tree").
//!
//! A batch-dynamic spatial tree in the style of Blelloch–Dobson \[21\]: the
//! points are kept sorted by Morton code over a fixed universe box, and the
//! crate's one kd-tree ([`KdTree`]) is laid over those rows as the binary
//! radix tree of the code bits. Batch updates are merges into / filters out
//! of the sorted rows followed by an `O(n / leaf)` parallel structure
//! rebuild — no median finding and no row moves, which is why construction
//! and updates are much faster than any kd-tree variant in 2–3 dimensions
//! (the trend the paper reports), while k-NN, the kd-tree's own descent, is
//! comparable. Precision per dimension falls with `D` (see
//! [`pargeo_morton::bits_per_dim`]), matching the paper's observation that
//! the approach does not extend cheaply to high dimensions.

use crate::knn::Neighbor;
use crate::tree::{fork_onto, push_node, scatter_soa, KdTree, Runs, LEAF_SIZE, SEQ_BUILD_CUTOFF};
use pargeo_geometry::{Bbox, Point, SoaPoints};
use pargeo_morton::{morton_code, parallel_bbox, total_bits};
use pargeo_parlay as parlay;

/// A Morton-order batch-dynamic tree over a fixed universe box.
#[derive(Debug, Clone)]
pub struct ZdTree<const D: usize> {
    universe: Bbox<D>,
    /// Morton codes sorted ascending (ties broken arbitrarily).
    codes: Vec<u64>,
    /// The tree over the rows in code order (row `i` ↔ `codes[i]`).
    pub(crate) tree: KdTree<D>,
    next_id: u32,
    epoch: u64,
    rebuilds: u64,
    /// False until a non-empty point set establishes the universe; an
    /// empty-start tree adopts its first non-empty insert batch's bounding
    /// box instead of clamping everything onto a meaningless default grid.
    universe_fixed: bool,
}

impl<const D: usize> ZdTree<D> {
    /// Creates an empty tree. The Morton universe is fixed by the first
    /// non-empty insert batch (its slightly inflated bounding box); points
    /// inserted after that clamp onto the universe grid for Morton-code
    /// purposes only — their true coordinates are kept and all queries
    /// stay exact, so out-of-universe points cost code locality, never
    /// correctness.
    pub fn new() -> Self {
        Self {
            universe: derive_universe::<D>(&[]),
            codes: Vec::new(),
            tree: KdTree::from_runs(SoaPoints::new(), Vec::new(), LEAF_SIZE),
            next_id: 0,
            epoch: 0,
            rebuilds: 0,
            universe_fixed: false,
        }
    }

    /// Builds over an initial point set; the bounding box of this set
    /// (slightly inflated) becomes the fixed universe. Points inserted
    /// later clamp onto the universe grid for code purposes (their true
    /// coordinates are kept and all queries remain exact).
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut t = Self::new();
        // The initial load counts as epoch 1 (even when empty), matching
        // every other backend's `from_points`; `new()` stays at epoch 0.
        t.insert(points);
        t
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Update batches (inserts or deletes) applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Radix-structure rebuilds performed so far (one per update batch —
    /// the Zd-tree rebuilds its implicit tree after every merge/filter).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total points ever inserted (ids are assigned from this counter).
    pub fn total_inserted(&self) -> u64 {
        self.next_id as u64
    }

    /// Bounding box of the stored points — the root's box (every stored
    /// point is live; deletes remove entries).
    pub fn live_bbox(&self) -> Bbox<D> {
        self.tree.bbox()
    }

    /// All stored `(point, id)` pairs, in Morton order.
    pub fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        self.tree.points().iter().collect()
    }

    /// Bytes copied by copy-on-write: always 0 — the Zd-tree shares
    /// nothing with its clones (a clone is a full copy up front).
    pub fn cow_bytes(&self) -> u64 {
        0
    }

    fn code_of(&self, p: &Point<D>) -> u64 {
        morton_code(p, &self.universe)
    }

    /// Materializes the stored columns as `(code, point, id)` rows, then
    /// `batch`'s rows under the next ids — the transient AoS form the
    /// merge/filter update paths operate on before scattering back into
    /// columns.
    fn rows(&self, batch: &[Point<D>]) -> Vec<(u64, Point<D>, u32)> {
        let (n, pts) = (self.codes.len(), self.tree.points());
        parlay::tabulate(n + batch.len(), SEQ_BUILD_CUTOFF, |i| {
            if i < n {
                (self.codes[i], pts.get(i), pts.id(i))
            } else {
                let p = batch[i - n];
                (self.code_of(&p), p, self.next_id + (i - n) as u32)
            }
        })
    }

    /// Batch insert: merge the batch into the code-sorted rows, rebuild the
    /// radix structure.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        self.epoch += 1;
        if batch.is_empty() {
            return;
        }
        if !self.universe_fixed {
            self.universe = derive_universe(batch);
            self.universe_fixed = true;
        }
        let mut rows = self.rows(batch);
        self.next_id += batch.len() as u32;
        // The merge is one stable sort by code: the stored rows, one sorted
        // run, stay first among equal codes, and the batch keeps its order.
        parlay::radix_sort_u64_by_key(&mut rows, |row| row.0);
        self.rebuild(rows);
    }

    /// Batch delete by point value (all matching copies). Returns the
    /// number deleted.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        self.remove(batch).len()
    }

    /// [`delete`](Self::delete), returning the `(point, id)` pairs it
    /// removed (in Morton order).
    pub fn remove(&mut self, batch: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        self.epoch += 1;
        if batch.is_empty() || self.codes.is_empty() {
            return Vec::new();
        }
        let mut victims: Vec<(u64, Point<D>)> =
            batch.iter().map(|&p| (self.code_of(&p), p)).collect();
        parlay::radix_sort_u64_by_key(&mut victims, |t| t.0);
        // Merge-subtract over the two code-sorted runs; codes collide, so
        // matches compare full coordinates within the code-equal window.
        let mut out = Vec::with_capacity(self.codes.len());
        let mut removed = Vec::new();
        let mut j = 0usize;
        for it in self.rows(&[]) {
            while j < victims.len() && victims[j].0 < it.0 {
                j += 1;
            }
            // Bitwise identity — the library-wide delete-by-value
            // semantic (`Point::bits_key`), not float `==`.
            let dead = victims[j..]
                .iter()
                .take_while(|v| v.0 == it.0)
                .any(|v| v.1.bits_key() == it.1.bits_key());
            if dead {
                removed.push((it.1, it.2));
            } else {
                out.push(it);
            }
        }
        self.rebuild(out);
        removed
    }

    /// k nearest neighbors of `q`, ascending by `(distance², id)`.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.tree.knn(q, k)
    }

    /// Data-parallel batch k-NN.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        self.tree.knn_batch(queries, k)
    }

    /// Data-parallel batch box reporting (parallel over the queries); each
    /// row the ids inside its box, sorted ascending.
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        self.tree.range_box_batch(queries)
    }

    /// Makes the code-sorted `rows` the stored set and rebuilds the radix
    /// structure over them.
    fn rebuild(&mut self, rows: Vec<(u64, Point<D>, u32)>) {
        self.rebuilds += 1;
        self.codes = parlay::map(&rows, SEQ_BUILD_CUTOFF, |row| row.0);
        let pts = scatter_soa(&rows, |(_, p, id)| (p, *id));
        drop(rows);
        let mut runs = Vec::new();
        if !self.codes.is_empty() {
            radix_rec(&self.codes, &pts, 0, &mut runs);
        }
        self.tree = KdTree::from_runs(pts, runs, LEAF_SIZE);
    }

    /// Number of structure nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Heap bytes held by the flat arenas (code column, coordinate
    /// columns, id column, node array).
    pub fn arena_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u64>() + self.tree.arena_bytes()
    }
}

impl<const D: usize> Default for ZdTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends the radix subtree over rows `start..start + codes.len()` to
/// `runs` in preorder and returns its node count and bounding box. A node
/// splits at the highest bit where its first and last codes differ — the
/// codes are sorted, so its rows already part there and none moves — and
/// is a leaf at [`LEAF_SIZE`] rows or when its first and last codes are
/// equal. Boxes are unioned bottom-up: only a leaf scans its rows.
fn radix_rec<const D: usize>(
    codes: &[u64],
    pts: &SoaPoints<D>,
    start: u32,
    runs: &mut Runs<D>,
) -> (u32, Bbox<D>) {
    let n = codes.len();
    let (first, last) = (codes[0], codes[n - 1]);
    if n <= LEAF_SIZE || first == last {
        let bbox = leaf_bbox(pts, start as usize..start as usize + n);
        push_node(runs, bbox, start, n, LEAF_SIZE);
        return (1, bbox);
    }
    let (run, me) = push_node(runs, Bbox::empty(), start, n, LEAF_SIZE);
    let bit = u64::BITS - 1 - (first ^ last).leading_zeros();
    let mid = codes.partition_point(|&c| c >> bit & 1 == 0);
    let (lo, hi) = codes.split_at(mid);
    let ((l, left), (r, right)) = fork_onto(
        n >= SEQ_BUILD_CUTOFF,
        runs,
        |runs| radix_rec(lo, pts, start, runs),
        |runs| radix_rec(hi, pts, start + mid as u32, runs),
        Vec::extend,
    );
    // Code bit `bit` is a bit of dimension `dim`'s grid cell, and the rows
    // agree on every bit above it: each left row's cell lies below each
    // right row's. Cells never shrink as a coordinate grows (clamping
    // included), so the left rows' largest coordinate on `dim` is a split
    // value in the kd-tree's sense.
    let dim = (total_bits(D) - 1 - bit) as usize % D;
    let bbox = left.union(&right);
    let node = &mut runs[run][me];
    node.bbox = bbox;
    node.link(dim, left.max[dim], l);
    (1 + l + r, bbox)
}

/// Bounding box of `rows`, one min/max sweep per column.
fn leaf_bbox<const D: usize>(pts: &SoaPoints<D>, rows: std::ops::Range<usize>) -> Bbox<D> {
    let mut bbox = Bbox::empty();
    for d in 0..D {
        for &v in &pts.axis(d)[rows.clone()] {
            bbox.min[d] = bbox.min[d].min(v);
            bbox.max[d] = bbox.max[d].max(v);
        }
    }
    bbox
}

/// The slightly inflated bounding box of a point set (unit cube for an
/// empty set — a placeholder replaced by the first real batch).
fn derive_universe<const D: usize>(points: &[Point<D>]) -> Bbox<D> {
    let mut universe = parallel_bbox(points);
    if universe.is_empty() {
        universe = Bbox {
            min: Point::origin(),
            max: Point::new([1.0; D]),
        };
    } else {
        // Inflate slightly so boundary points do not saturate the grid.
        let pad = universe.diag_sq().sqrt() * 1e-6 + 1e-12;
        for i in 0..D {
            universe.min[i] -= pad;
            universe.max[i] += pad;
        }
    }
    universe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::knn_brute_force;
    use pargeo_datagen::uniform_cube;

    fn check_knn<const D: usize>(t: &ZdTree<D>, reference: &[Point<D>], k: usize) {
        for q in reference.iter().step_by(173) {
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
    fn build_and_knn_exact() {
        let pts = uniform_cube::<3>(3_000, 1);
        let t = ZdTree::from_points(&pts);
        assert_eq!(t.len(), 3_000);
        check_knn(&t, &pts, 5);
    }

    #[test]
    fn codes_stay_sorted_across_updates() {
        let pts = uniform_cube::<2>(5_000, 2);
        let mut t = ZdTree::from_points(&pts[..2_000]);
        t.insert(&pts[2_000..4_000]);
        t.insert(&pts[4_000..]);
        assert!(t.codes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.len(), 5_000);
        check_knn(&t, &pts, 4);
    }

    #[test]
    fn delete_batches() {
        let pts = uniform_cube::<3>(3_000, 3);
        let mut t = ZdTree::from_points(&pts);
        let removed = t.delete(&pts[..1_000]);
        assert_eq!(removed, 1_000);
        assert_eq!(t.len(), 2_000);
        check_knn(&t, &pts[1_000..], 5);
        t.delete(&pts[1_000..]);
        assert!(t.is_empty());
        assert!(t.knn(&pts[0], 2).is_empty());
    }

    #[test]
    fn inserts_outside_universe_clamp_but_stay_exact() {
        let pts = uniform_cube::<2>(1_000, 4);
        let mut t = ZdTree::from_points(&pts);
        let far: Vec<Point<2>> = (0..100)
            .map(|i| Point::new([1e4 + i as f64, -1e4 - i as f64]))
            .collect();
        t.insert(&far);
        assert_eq!(t.len(), 1_100);
        // Nearest neighbor of a far point is still found exactly.
        let all: Vec<Point<2>> = pts.iter().chain(&far).copied().collect();
        let got = t.knn(&far[0], 3);
        let want = knn_brute_force(&all, &far[0], 3);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-9 * (1.0 + g.dist_sq));
        }
    }

    #[test]
    fn duplicate_points_delete_all_copies() {
        let p = Point::new([0.5, 0.5]);
        let mut base = uniform_cube::<2>(100, 5);
        base.push(p);
        base.push(p);
        let mut t = ZdTree::from_points(&base);
        assert_eq!(t.delete(&[p]), 2);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn empty_build() {
        let t = ZdTree::<2>::from_points(&[]);
        assert!(t.is_empty());
        assert!(t.knn(&Point::new([0.0, 0.0]), 1).is_empty());
    }

    /// `(node count, digest of every node's (start, end, bbox) in preorder)`,
    /// after checking each split against the kd-tree's contract: rows
    /// `<= val` on the left, rows `>= val` on the right.
    fn shape<const D: usize>(t: &ZdTree<D>) -> (usize, u64) {
        let (nodes, pts) = (&t.tree.nodes, t.tree.points());
        for node in nodes.iter().filter(|node| !node.is_leaf()) {
            let (dim, val) = (node.dim as usize, node.val);
            let (left, right) = (&nodes[node.left as usize], &nodes[node.right as usize]);
            assert!(left.rows().all(|i| pts.coord(i, dim) <= val));
            assert!(right.rows().all(|i| pts.coord(i, dim) > val));
        }
        let mix = pargeo_parlay::mix64;
        let digest = nodes.iter().fold(0, |h, node| {
            let h = mix(mix(h, node.start as u64), node.end as u64);
            let corners = node.bbox.min.coords.iter().chain(&node.bbox.max.coords);
            corners.fold(h, |h, c| mix(h, c.to_bits()))
        });
        (nodes.len(), digest)
    }

    /// The radix build lays out the tree the boxed radix build it replaced
    /// did: the same preorder `(start, end)` ranges and node boxes (digests
    /// recorded from that build) on 3-D uniform points, a 2-D lattice of
    /// duplicates, and a tree that took inserts outside its universe and a
    /// delete — on any pool.
    #[test]
    fn the_radix_build_keeps_the_recorded_shape() {
        let lattice: Vec<Point<2>> = (0..20_000u64)
            .map(|i| Point::new([(i * 7_919 % 23) as f64, (i * 104_729 % 19) as f64]))
            .collect();
        let pts = uniform_cube::<2>(5_000, 4);
        let far: Vec<Point<2>> = (0..300)
            .map(|i| Point::new([1e4 + i as f64, -1e4 - i as f64]))
            .collect();
        for workers in [1, 2, 4] {
            pargeo_parlay::with_threads(workers, || {
                let uniform = ZdTree::from_points(&uniform_cube::<3>(20_000, 7));
                assert_eq!(shape(&uniform), (3_673, 8_278_509_059_463_576_572));
                let lattice = ZdTree::from_points(&lattice);
                assert_eq!(shape(&lattice), (873, 16_465_776_044_950_372_536));
                let mut outside = ZdTree::from_points(&pts);
                outside.insert(&far);
                outside.delete(&pts[..1_000]);
                assert_eq!(shape(&outside), (709, 5_630_869_572_387_728_043));
            });
        }
    }
}

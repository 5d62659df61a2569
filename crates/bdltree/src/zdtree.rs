//! The Zd-tree comparator (§6.3 "Comparison with Zd-tree").
//!
//! A batch-dynamic spatial tree in the style of Blelloch–Dobson \[21\]: the
//! points are kept sorted by Morton code over a fixed universe box, and the
//! tree structure is the implicit binary radix tree over the code bits.
//! Batch updates are merges into / filters out of the sorted array followed
//! by an `O(n / leaf)` parallel structure rebuild — no median finding, which
//! is why construction and updates are much faster than any kd-tree variant
//! in 2–3 dimensions (the trend the paper reports), while k-NN is
//! comparable. Precision per dimension falls with `D` (see
//! [`pargeo_morton::bits_per_dim`]), matching the paper's observation that
//! the approach does not extend cheaply to high dimensions.

use pargeo_geometry::{Bbox, Point, SoaPoints};
use pargeo_kdtree::knn::{KnnBuffer, Neighbor};
use pargeo_morton::{morton_code, morton_shard_of, parallel_bbox, total_bits};
use pargeo_parlay as parlay;

const SEQ_CUTOFF: usize = 4096;

/// Splits a code-sorted `(code, point, id)` run into the tree's columnar
/// representation: a dense code column plus a [`SoaPoints`] arena in the
/// same order (parallel per-column fill for large runs).
fn split_columns<const D: usize>(merged: Vec<(u64, Point<D>, u32)>) -> (Vec<u64>, SoaPoints<D>) {
    let n = merged.len();
    let mut pts = SoaPoints::with_len(n);
    let codes = parlay::map(&merged, SEQ_CUTOFF, |&(c, _, _)| c);
    for d in 0..D {
        parlay::for_each_mut(pts.axis_mut(d), SEQ_CUTOFF, |i, v| *v = merged[i].1[d]);
    }
    parlay::for_each_mut(pts.ids_mut(), SEQ_CUTOFF, |i, v| *v = merged[i].2);
    (codes, pts)
}

#[derive(Debug, Clone)]
struct ZNode<const D: usize> {
    bbox: Bbox<D>,
    /// Child node indices; `u32::MAX` marks a leaf.
    left: u32,
    right: u32,
    start: u32,
    end: u32,
}

impl<const D: usize> ZNode<D> {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// A Morton-order batch-dynamic tree over a fixed universe box.
#[derive(Debug, Clone)]
pub struct ZdTree<const D: usize> {
    universe: Bbox<D>,
    /// Morton codes sorted ascending (ties broken arbitrarily).
    codes: Vec<u64>,
    /// Coordinate columns + ids in code order (row `i` ↔ `codes[i]`).
    pts: SoaPoints<D>,
    nodes: Vec<ZNode<D>>,
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
            pts: SoaPoints::new(),
            nodes: Vec::new(),
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

    /// The fixed universe box.
    pub fn universe(&self) -> Bbox<D> {
        self.universe
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

    /// Bounding box of the stored points — the tree's current effective
    /// region (every stored point is live; deletes remove entries).
    pub fn live_bbox(&self) -> Bbox<D> {
        let mut b = Bbox::empty();
        for i in 0..self.pts.len() {
            b.extend(&self.pts.get(i));
        }
        b
    }

    /// All stored `(point, id)` pairs, in Morton order.
    pub fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        (0..self.pts.len())
            .map(|i| (self.pts.get(i), self.pts.id(i)))
            .collect()
    }

    /// Bytes copied by copy-on-write: always 0 — the Zd-tree shares
    /// nothing with its clones (a clone is a full copy up front).
    pub fn cow_bytes(&self) -> u64 {
        0
    }

    fn code_of(&self, p: &Point<D>) -> u64 {
        morton_code(p, &self.universe)
    }

    /// Materializes the stored columns as `(code, point, id)` rows — the
    /// transient AoS form the merge/filter update paths operate on before
    /// scattering back into columns.
    fn rows(&self) -> Vec<(u64, Point<D>, u32)> {
        parlay::tabulate(self.codes.len(), SEQ_CUTOFF, |i| {
            (self.codes[i], self.pts.get(i), self.pts.id(i))
        })
    }

    /// Batch insert: Morton-sort the batch, merge into the sorted array,
    /// rebuild the radix structure.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        self.epoch += 1;
        if batch.is_empty() {
            return;
        }
        if !self.universe_fixed {
            self.universe = derive_universe(batch);
            self.universe_fixed = true;
        }
        let mut add: Vec<(u64, Point<D>, u32)> = parlay::tabulate(batch.len(), SEQ_CUTOFF, |i| {
            let p = batch[i];
            (self.code_of(&p), p, self.next_id + i as u32)
        });
        self.next_id += batch.len() as u32;
        parlay::radix_sort_u64_by_key(&mut add, |t| t.0);
        // Merge two sorted runs, then scatter back into columns.
        let merged = merge_sorted(self.rows(), add);
        let (codes, pts) = split_columns(merged);
        self.codes = codes;
        self.pts = pts;
        self.rebuild_nodes();
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
        for it in self.rows() {
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
        let (codes, pts) = split_columns(out);
        self.codes = codes;
        self.pts = pts;
        self.rebuild_nodes();
        removed
    }

    /// k nearest neighbors of `q`, ascending by distance.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut buf = KnnBuffer::new(k);
        if !self.nodes.is_empty() {
            self.knn_rec(0, q, &mut buf);
        }
        buf.finish()
    }

    /// Data-parallel batch k-NN.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        pargeo_morton::map_batch_z_order(queries, |q| self.knn(q, k))
    }

    fn knn_rec(&self, idx: u32, q: &Point<D>, buf: &mut KnnBuffer) {
        let node = &self.nodes[idx as usize];
        if node.is_leaf() {
            for i in node.start as usize..node.end as usize {
                buf.insert(self.pts.dist_sq(i, q), self.pts.id(i));
            }
            return;
        }
        let (a, b) = (node.left, node.right);
        let da = self.nodes[a as usize].bbox.dist_sq_to_point(q);
        let db = self.nodes[b as usize].bbox.dist_sq_to_point(q);
        let ((first, df), (second, ds)) = if da <= db {
            ((a, da), (b, db))
        } else {
            ((b, db), (a, da))
        };
        if df <= buf.bound() {
            self.knn_rec(first, q, buf);
        }
        if ds <= buf.bound() {
            self.knn_rec(second, q, buf);
        }
    }

    /// Insertion-order ids of all points inside `query` (boundary
    /// inclusive), sorted ascending.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.nodes.is_empty() {
            self.range_rec(0, query, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn range_rec(&self, idx: u32, query: &Bbox<D>, out: &mut Vec<u32>) {
        let node = &self.nodes[idx as usize];
        if !node.bbox.intersects(query) {
            return;
        }
        if query.contains_box(&node.bbox) {
            out.extend_from_slice(&self.pts.ids()[node.start as usize..node.end as usize]);
            return;
        }
        if node.is_leaf() {
            for i in node.start as usize..node.end as usize {
                if query.contains_soa(&self.pts, i) {
                    out.push(self.pts.id(i));
                }
            }
            return;
        }
        self.range_rec(node.left, query, out);
        self.range_rec(node.right, query, out);
    }

    /// Number of points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        fn go<const D: usize>(t: &ZdTree<D>, idx: u32, query: &Bbox<D>) -> usize {
            let node = &t.nodes[idx as usize];
            if !node.bbox.intersects(query) {
                return 0;
            }
            if query.contains_box(&node.bbox) {
                return (node.end - node.start) as usize;
            }
            if node.is_leaf() {
                return (node.start as usize..node.end as usize)
                    .filter(|&i| query.contains_soa(&t.pts, i))
                    .count();
            }
            go(t, node.left, query) + go(t, node.right, query)
        }
        if self.nodes.is_empty() {
            0
        } else {
            go(self, 0, query)
        }
    }

    /// Data-parallel batch box reporting (parallel over the queries).
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        parlay::map(queries, 16, |q| self.range_box(q))
    }

    /// Rebuilds the implicit radix-tree structure over the sorted codes.
    fn rebuild_nodes(&mut self) {
        self.rebuilds += 1;
        self.nodes.clear();
        let n = self.codes.len();
        if n == 0 {
            return;
        }
        let boxed = build_rec(
            &self.codes,
            &self.pts,
            0,
            n,
            total_bits(D) as i32 - 1,
            pargeo_kdtree::tree::LEAF_SIZE,
        );
        flatten(&boxed, &mut self.nodes);
    }

    /// Number of structure nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes held by the flat arenas (code column, coordinate
    /// columns, id column, node array).
    pub fn arena_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u64>()
            + self.pts.bytes()
            + self.nodes.len() * std::mem::size_of::<ZNode<D>>()
    }
}

impl<const D: usize> Default for ZdTree<D> {
    fn default() -> Self {
        Self::new()
    }
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

enum BNode<const D: usize> {
    Leaf(Bbox<D>, usize, usize),
    Internal(Bbox<D>, usize, usize, Box<BNode<D>>, Box<BNode<D>>),
}

fn bnode_bbox<const D: usize>(b: &BNode<D>) -> Bbox<D> {
    match b {
        BNode::Leaf(bb, ..) => *bb,
        BNode::Internal(bb, ..) => *bb,
    }
}

fn build_rec<const D: usize>(
    codes: &[u64],
    pts: &SoaPoints<D>,
    start: usize,
    end: usize,
    bit: i32,
    leaf_size: usize,
) -> BNode<D> {
    let n = end - start;
    if n <= leaf_size || bit < 0 {
        // Columnar bbox: one min/max sweep per axis over dense columns.
        let mut bb = Bbox::empty();
        for d in 0..D {
            for &v in &pts.axis(d)[start..end] {
                bb.min[d] = bb.min[d].min(v);
                bb.max[d] = bb.max[d].max(v);
            }
        }
        return BNode::Leaf(bb, start, end);
    }
    // Codes are sorted: the split is the first index whose `bit` is set —
    // equivalently, the first whose depth-(total-bit) Z-order prefix is
    // odd. Sharing `morton_shard_of` with the engine's router keeps both
    // crates' notion of a prefix identical.
    let depth = total_bits(D) - bit as u32;
    let range = &codes[start..end];
    let mid = start + range.partition_point(|&c| morton_shard_of::<D>(c, depth) & 1 == 0);
    if mid == start || mid == end {
        // Bit constant in this range — skip the level.
        return build_rec(codes, pts, start, end, bit - 1, leaf_size);
    }
    let (l, r) = parlay::par_do_if(
        n >= SEQ_CUTOFF,
        || build_rec(codes, pts, start, mid, bit - 1, leaf_size),
        || build_rec(codes, pts, mid, end, bit - 1, leaf_size),
    );
    let bb = bnode_bbox(&l).union(&bnode_bbox(&r));
    BNode::Internal(bb, start, end, Box::new(l), Box::new(r))
}

fn flatten<const D: usize>(b: &BNode<D>, out: &mut Vec<ZNode<D>>) -> u32 {
    let my = out.len() as u32;
    match b {
        BNode::Leaf(bb, s, e) => out.push(ZNode {
            bbox: *bb,
            left: u32::MAX,
            right: u32::MAX,
            start: *s as u32,
            end: *e as u32,
        }),
        BNode::Internal(bb, s, e, l, r) => {
            out.push(ZNode {
                bbox: *bb,
                left: 0,
                right: 0,
                start: *s as u32,
                end: *e as u32,
            });
            let li = flatten(l, out);
            let ri = flatten(r, out);
            out[my as usize].left = li;
            out[my as usize].right = ri;
        }
    }
    my
}

/// Merges two code-sorted runs (parallel for large inputs).
fn merge_sorted<const D: usize>(
    a: Vec<(u64, Point<D>, u32)>,
    b: Vec<(u64, Point<D>, u32)>,
) -> Vec<(u64, Point<D>, u32)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    if a.len() + b.len() < SEQ_CUTOFF {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].0 <= b[j].0 {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        return out;
    }
    // Parallel path: concatenate and radix sort (stable, O(n) passes) —
    // simple and fully parallel, and the constant is tiny for u64 keys.
    out.extend_from_slice(&a);
    out.extend_from_slice(&b);
    parlay::radix_sort_u64_by_key(&mut out, |t| t.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;
    use pargeo_kdtree::knn::knn_brute_force;

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
}

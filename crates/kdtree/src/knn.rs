//! Exact k-nearest-neighbor search through one shared k-NN buffer.
//!
//! [`KnnBuffer`] is a bounded max-heap on `(distance², id)`: from the
//! moment `k` candidates have been seen its [`bound`](KnnBuffer::bound) is
//! the exact current k-th distance², so every subtree, tree or insert
//! buffer searched later is pruned by everything found earlier. The paper's
//! buffer (Appendix C.1.3) holds `2k` slots and learns its bound only when
//! it fills and selects — amortized O(1) per insert, but the bound lags by
//! up to `k` accepted candidates, and every node visited under a stale
//! bound is a cache miss. The heap pays O(log k) per *accepted* candidate
//! (a rejection stays one comparison) and visits what a sequential search
//! with perfect knowledge of its own past would (EXPERIMENTS.md §PR 17:
//! 207 → 150 nodes per 5-D query together with the BDL tree order).
//!
//! Batch queries parallelize over the query points ("data-parallel k-NN"),
//! each query descending the tree serially with near-side-first ordering
//! and bound pruning; batches run in Morton order of the queries
//! ([`pargeo_morton::map_batch_z_order`]) so consecutive queries reuse the
//! same root-to-leaf paths.
//!
//! Output is **deterministic**: neighbors come back ordered by
//! `(distance², id)`, so equal-distance ties resolve by ascending id — the
//! same canonical contract the range-reporting paths follow. Results are
//! identical across thread counts and repeat runs.

use crate::tree::{AllLive, KdTree, Liveness, Walk};
use pargeo_geometry::{Point, SoaPoints};
use pargeo_morton::map_batch_z_order;

/// A `(distance², original point id)` result pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance from the query.
    pub dist_sq: f64,
    /// Original input index of the neighbor.
    pub id: u32,
}

/// The canonical `(distance², id)` ordering every k-NN answer follows —
/// equal distances resolve toward the smaller id. The one definition the
/// buffer, the oracle, and the sharded merge all compare with.
pub fn canonical_order(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist_sq
        .partial_cmp(&b.dist_sq)
        .expect("NaN distance")
        .then(a.id.cmp(&b.id))
}

/// [`canonical_order`]`(a, b) == Less` for the heap's hot comparisons.
#[inline]
fn precedes(a: &Neighbor, b: &Neighbor) -> bool {
    a.dist_sq < b.dist_sq || (a.dist_sq == b.dist_sq && a.id < b.id)
}

/// What a k-NN traversal reports about its own work. Every method defaults
/// to nothing, so the `()` probe every query runs with compiles away and
/// the counting [`KnnWork`] probe measures the *same* traversal.
pub trait KnnProbe {
    /// A tree node (internal or leaf) was visited.
    fn node(&mut self) {}
    /// A leaf was scanned.
    fn leaf(&mut self) {}
    /// `n` point distances were computed.
    fn points_tested(&mut self, _n: usize) {}
    /// A whole tree was skipped because its root box lay beyond the bound.
    fn tree_skipped(&mut self) {}
}

impl KnnProbe for () {}

/// Machine-independent work of the queries a counting buffer served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnWork {
    /// Tree nodes visited (internal and leaf).
    pub nodes: u64,
    /// Leaves scanned.
    pub leaves: u64,
    /// Point distances computed (rows of the leaves scanned).
    pub points_tested: u64,
    /// Trees skipped whole by their root box.
    pub trees_skipped: u64,
}

impl KnnProbe for KnnWork {
    fn node(&mut self) {
        self.nodes += 1;
    }
    fn leaf(&mut self) {
        self.leaves += 1;
    }
    fn points_tested(&mut self, n: usize) {
        self.points_tested += n as u64;
    }
    fn tree_skipped(&mut self) {
        self.trees_skipped += 1;
    }
}

/// Rows per column-wise distance block: two default leaves. A leaf of
/// coincident points can hold any number of rows, so scans go block by
/// block.
const SCAN_BLOCK: usize = 32;

/// The k-NN buffer: the `k` nearest candidates offered so far, as a max-heap
/// on [`canonical_order`] whose root is the current k-th neighbor.
#[derive(Debug, Clone)]
pub struct KnnBuffer<W = ()> {
    k: usize,
    /// Max-heap: `heap[0]` is the worst candidate kept.
    heap: Vec<Neighbor>,
    /// The k-th nearest distance² once `k` candidates are held, else ∞
    /// (−∞ for `k = 0`, which accepts nothing and prunes everything).
    bound: f64,
    probe: W,
}

impl KnnBuffer {
    /// Creates a buffer for `k` neighbors (`k = 0` keeps nothing).
    pub fn new(k: usize) -> Self {
        Self::with_probe(k, ())
    }
}

impl<W: KnnProbe> KnnBuffer<W> {
    /// A buffer whose traversals report their work to `probe`.
    pub fn with_probe(k: usize, probe: W) -> Self {
        Self {
            k,
            // `k` is the caller's; rows longer than this grow as they fill.
            heap: Vec::with_capacity(k.min(64)),
            bound: if k == 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            },
            probe,
        }
    }

    /// Current pruning bound: the exact k-th nearest distance² among the
    /// candidates offered so far, ∞ while fewer than `k` were offered.
    #[inline]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The probe, for traversals to report node and tree visits to.
    #[inline]
    pub fn probe(&mut self) -> &mut W {
        &mut self.probe
    }

    /// Offers a candidate. Candidates strictly beyond the bound (and NaN
    /// distances, which no order places) are rejected; ones *at* the bound
    /// are kept iff their id is smaller than the current k-th's, so
    /// equal-distance ties resolve toward the smaller id.
    #[inline]
    pub fn insert(&mut self, dist_sq: f64, id: u32) {
        if dist_sq <= self.bound {
            self.accept(Neighbor { dist_sq, id });
        }
    }

    fn accept(&mut self, c: Neighbor) {
        if self.heap.len() < self.k {
            self.heap.push(c);
            self.sift_up(self.heap.len() - 1);
            if self.heap.len() == self.k {
                self.bound = self.heap[0].dist_sq;
            }
        } else if self.heap.first().is_some_and(|worst| precedes(&c, worst)) {
            self.heap[0] = c;
            self.sift_down();
            self.bound = self.heap[0].dist_sq;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !precedes(&self.heap[parent], &self.heap[i]) {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn sift_down(&mut self) {
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && precedes(&self.heap[child], &self.heap[child + 1]) {
                child += 1;
            }
            if !precedes(&self.heap[i], &self.heap[child]) {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
    }

    /// Offers one leaf: rows `rows` of `pts` for which `live(row)` holds.
    /// Distances are computed a block at a time, one coordinate column
    /// after the other (per row the same summation order as
    /// [`SoaPoints::dist_sq`], so the same `f64`); liveness and the bound
    /// are consulted only for rows that get offered.
    #[inline]
    pub fn scan<const D: usize>(
        &mut self,
        pts: &SoaPoints<D>,
        rows: std::ops::Range<usize>,
        q: &Point<D>,
        live: impl Fn(usize) -> bool,
    ) {
        self.probe.leaf();
        self.probe.points_tested(rows.len());
        let mut start = rows.start;
        while start < rows.end {
            let end = rows.end.min(start + SCAN_BLOCK);
            let mut dist = [0.0f64; SCAN_BLOCK];
            let dist = &mut dist[..end - start];
            for axis in 0..D {
                let qa = q.coords[axis];
                for (d, &c) in dist.iter_mut().zip(&pts.axis(axis)[start..end]) {
                    let diff = c - qa;
                    *d += diff * diff;
                }
            }
            for ((&d, &id), row) in dist.iter().zip(&pts.ids()[start..end]).zip(start..) {
                if d <= self.bound && live(row) {
                    self.accept(Neighbor { dist_sq: d, id });
                }
            }
            start = end;
        }
    }

    /// Consumes the buffer, returning the k nearest ascending by
    /// `(distance², id)` (fewer if fewer were offered).
    pub fn finish(self) -> Vec<Neighbor> {
        self.finish_with_probe().0
    }

    /// [`finish`](Self::finish) plus the probe and what it recorded.
    pub fn finish_with_probe(mut self) -> (Vec<Neighbor>, W) {
        self.heap.sort_unstable_by(canonical_order);
        (self.heap, self.probe)
    }

    /// Number of candidates currently held (at most `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no candidate is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<const D: usize> KdTree<D> {
    /// The k nearest neighbors of `q`, ascending by distance. A point at
    /// distance zero (e.g. `q` itself if it is in the set) is included.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut buf = KnnBuffer::new(k);
        self.knn_into(q, &mut buf);
        buf.finish()
    }

    /// Runs a k-NN search accumulating into an existing buffer.
    pub fn knn_into<W: KnnProbe>(&self, q: &Point<D>, buf: &mut KnnBuffer<W>) {
        if !self.is_empty() {
            self.walk(AllLive).knn_rec(0, q, buf);
        }
    }

    /// Data-parallel batch k-NN: one row per query, in query order, each
    /// the query's k nearest (fewer only if the tree holds fewer points).
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        map_batch_z_order(queries, |q| self.knn(q, k))
    }
}

impl<const D: usize, L: Liveness> Walk<'_, D, L> {
    /// The crate's one k-NN descent: near side first, each side only while
    /// its box reaches inside the buffer's bound.
    pub(crate) fn knn_rec<W: KnnProbe>(&self, idx: u32, q: &Point<D>, buf: &mut KnnBuffer<W>) {
        buf.probe().node();
        let node = &self.nodes[idx as usize];
        if node.is_leaf() {
            buf.scan(self.pts, node.rows(), q, |i| self.live.alive(i));
            return;
        }
        let (left, right) = self.children(node);
        let (near, far) = if q[node.dim as usize] <= node.val {
            (left, right)
        } else {
            (right, left)
        };
        if self.nodes[near as usize].bbox.dist_sq_to_point(q) <= buf.bound() {
            self.knn_rec(near, q, buf);
        }
        if self.nodes[far as usize].bbox.dist_sq_to_point(q) <= buf.bound() {
            self.knn_rec(far, q, buf);
        }
    }
}

/// Brute-force k-NN over a raw point set (testing / tiny inputs).
pub fn knn_brute_force<const D: usize>(
    points: &[Point<D>],
    q: &Point<D>,
    k: usize,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = points
        .iter()
        .enumerate()
        .map(|(i, p)| Neighbor {
            dist_sq: q.dist_sq(p),
            id: i as u32,
        })
        .collect();
    all.sort_by(|a, b| {
        a.dist_sq
            .partial_cmp(&b.dist_sq)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitRule;
    use pargeo_datagen::{on_sphere, uniform_cube};

    fn same_distances(a: &[Neighbor], b: &[Neighbor]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.dist_sq - y.dist_sq).abs() <= 1e-9 * (1.0 + x.dist_sq),
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn knn_matches_brute_force_uniform() {
        let pts = uniform_cube::<3>(2_000, 1);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let queries = uniform_cube::<3>(50, 99);
        for q in &queries {
            let got = t.knn(q, 5);
            let want = knn_brute_force(&pts, q, 5);
            same_distances(&got, &want);
        }
    }

    #[test]
    fn knn_matches_brute_force_surface_and_spatial_median() {
        let pts = on_sphere::<3>(2_000, 2);
        let t = KdTree::build(&pts, SplitRule::SpatialMedian);
        for q in pts.iter().step_by(97) {
            let got = t.knn(q, 8);
            let want = knn_brute_force(&pts, q, 8);
            same_distances(&got, &want);
        }
    }

    #[test]
    fn knn_k_larger_than_n() {
        let pts = uniform_cube::<2>(7, 3);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let got = t.knn(&pts[0], 20);
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn knn_includes_self_at_distance_zero() {
        let pts = uniform_cube::<2>(500, 4);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let got = t.knn(&pts[123], 1);
        assert_eq!(got[0].dist_sq, 0.0);
        assert_eq!(got[0].id, 123);
    }

    #[test]
    fn nearest_on_empty_tree() {
        let t = KdTree::<2>::build(&[], SplitRule::ObjectMedian);
        assert!(t
            .knn(&pargeo_geometry::Point2::new([0.0, 0.0]), 1)
            .is_empty());
    }

    #[test]
    fn batch_knn_matches_individual() {
        let pts = uniform_cube::<2>(3_000, 5);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let queries: Vec<_> = pts.iter().copied().step_by(13).collect();
        let batch = t.knn_batch(&queries, 3);
        for (q, row) in queries.iter().zip(&batch) {
            let want = t.knn(q, 3);
            same_distances(row, &want);
        }
    }

    #[test]
    fn buffer_keeps_the_k_smallest_of_a_descending_stream() {
        let mut buf = KnnBuffer::new(2);
        for i in (0..100u32).rev() {
            buf.insert(i as f64, i);
        }
        let out = buf.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 0);
        assert_eq!(out[1].id, 1);
    }

    #[test]
    fn buffer_bound_tightens() {
        let mut buf = KnnBuffer::new(1);
        assert_eq!(buf.bound(), f64::INFINITY);
        buf.insert(5.0, 0);
        assert_eq!(buf.bound(), 5.0);
        buf.insert(1.0, 1);
        assert_eq!(buf.bound(), 1.0);
        // Candidates beyond the bound are rejected without growth.
        buf.insert(3.0, 2);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.finish()[0].id, 1);
    }

    #[test]
    fn k_zero_returns_empty_rows_without_panicking() {
        let pts = uniform_cube::<2>(300, 6);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        assert!(t.knn(&pts[0], 0).is_empty());
        let rows = t.knn_batch(&pts[..100], 0);
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(Vec::is_empty));
        // Nothing is accepted, and the −∞ bound prunes every subtree.
        let mut buf = KnnBuffer::with_probe(0, KnnWork::default());
        t.knn_into(&pts[0], &mut buf);
        let (row, work) = buf.finish_with_probe();
        assert!(row.is_empty());
        assert_eq!(work.nodes, 1);
    }

    #[test]
    fn a_nan_query_gets_an_empty_row() {
        let pts = uniform_cube::<2>(300, 7);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let q = pargeo_geometry::Point2::new([f64::NAN, 1.0]);
        assert!(t.knn(&q, 3).is_empty());
    }
}

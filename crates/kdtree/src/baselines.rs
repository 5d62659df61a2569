//! The batch-dynamic baselines of §6.3, both over the crate's one
//! kd-tree build (`KdTree::from_rows`).
//!
//! * [`B1Tree`] — rebuilds the whole kd-tree on every batch insert/delete.
//!   Always perfectly balanced (best queries, slowest updates).
//! * [`B2Tree`] — keeps the node array of the build over its first
//!   non-empty batch, routes later points into that array's leaf buffers
//!   and deletes by tombstoning, never recomputing a split. Fastest
//!   updates; queries degrade as the tree skews, which is exactly the
//!   effect Appendix D measures.
//!
//! Both answer k-NN in `(dist², id)` order with insertion-order ids, so
//! their rows match each other's and the BDL-tree's over the same updates.

use crate::knn::{KnnBuffer, Neighbor};
use crate::tree::{compute_bbox, partition_by, KdTree, Node, SplitRule};
use crate::tree::{LEAF_SIZE, SEQ_BUILD_CUTOFF};
use pargeo_geometry::Point;
use pargeo_morton::map_batch_z_order;
use pargeo_parlay as parlay;

/// `(point, id)` rows for `batch`, ids counted on from `next_id`.
fn id_rows<const D: usize>(batch: &[Point<D>], next_id: &mut u32) -> Vec<(Point<D>, u32)> {
    let rows = batch
        .iter()
        .zip(*next_id..)
        .map(|(&p, id)| (p, id))
        .collect();
    *next_id += batch.len() as u32;
    rows
}

/// Baseline B1: rebuild on every update.
#[derive(Debug, Clone)]
pub struct B1Tree<const D: usize> {
    /// Every live `(point, id)`, in insertion order.
    rows: Vec<(Point<D>, u32)>,
    tree: KdTree<D>,
    rule: SplitRule,
    next_id: u32,
}

impl<const D: usize> B1Tree<D> {
    /// Creates an empty tree with the given split rule.
    pub fn new(rule: SplitRule) -> Self {
        Self {
            rows: Vec::new(),
            tree: KdTree::from_rows(Vec::new(), rule, LEAF_SIZE),
            rule,
            next_id: 0,
        }
    }

    /// Builds directly over an initial point set.
    pub fn from_points(points: &[Point<D>], rule: SplitRule) -> Self {
        let mut t = Self::new(rule);
        t.insert(points);
        t
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Batch insert: appends and rebuilds.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        let rows = id_rows(batch, &mut self.next_id);
        self.rows.extend(rows);
        self.rebuild();
    }

    /// Batch delete by point value (all matching copies) and rebuild.
    /// Returns the number of points removed.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        let victims: std::collections::HashSet<_> = batch.iter().map(Point::bits_key).collect();
        let before = self.rows.len();
        self.rows.retain(|(p, _)| !victims.contains(&p.bits_key()));
        self.rebuild();
        before - self.rows.len()
    }

    fn rebuild(&mut self) {
        self.tree = KdTree::from_rows(self.rows.clone(), self.rule, LEAF_SIZE);
    }

    /// k nearest neighbors of `q` (ids are insertion-order ids).
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.tree.knn(q, k)
    }

    /// Data-parallel batch k-NN.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        map_batch_z_order(queries, |q| self.knn(q, k))
    }
}

// ---------------- B2 ----------------

/// A leaf's rows as `(point, id, alive)`.
type LeafRows<const D: usize> = Vec<(Point<D>, u32, bool)>;

/// Baseline B2: fixed spatial structure, buffered leaves, tombstone deletes.
#[derive(Debug)]
pub struct B2Tree<const D: usize> {
    /// The node array `KdTree::from_rows` builds over the first non-empty
    /// batch (empty before it), in its preorder, so every subtree is one
    /// contiguous run of slots. Splits never change; boxes grow as inserts
    /// pass through.
    nodes: Vec<Node<D>>,
    /// Slot for slot with `nodes`: a leaf's share of the first batch, then
    /// every insert routed to it; a delete clears `alive`. Empty at
    /// internal nodes.
    leaves: Vec<LeafRows<D>>,
    rule: SplitRule,
    live: usize,
    next_id: u32,
}

impl<const D: usize> B2Tree<D> {
    /// Creates an empty tree.
    pub fn new(rule: SplitRule) -> Self {
        Self {
            nodes: Vec::new(),
            leaves: Vec::new(),
            rule,
            live: 0,
            next_id: 0,
        }
    }

    /// Builds directly over an initial point set.
    pub fn from_points(points: &[Point<D>], rule: SplitRule) -> Self {
        let mut t = Self::new(rule);
        t.insert(points);
        t
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Batch insert. The first non-empty batch establishes the spatial
    /// structure (a balanced build); later batches are routed into
    /// existing leaves without recomputing any split.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        let mut rows = id_rows(batch, &mut self.next_id);
        self.live += rows.len();
        if !self.nodes.is_empty() {
            insert_rec(&mut self.nodes, &mut self.leaves, &mut rows);
            return;
        }
        let tree = KdTree::from_rows(rows, self.rule, LEAF_SIZE);
        // Every leaf's buffer has room for four leaves' worth of rows: the
        // headroom for future inserts that §6.3 counts in B2's build. A
        // task fills about a `SEQ_BUILD_CUTOFF`-row subtree's slots.
        self.leaves = parlay::tabulate(tree.nodes.len(), SEQ_BUILD_CUTOFF / LEAF_SIZE, |i| {
            let node = &tree.nodes[i];
            if !node.is_leaf() {
                return Vec::new();
            }
            let mut leaf = Vec::with_capacity(4 * LEAF_SIZE);
            leaf.extend(
                node.rows()
                    .map(|r| (tree.point_at(r), tree.original_id(r), true)),
            );
            leaf
        });
        self.nodes = tree.nodes;
    }

    /// Batch delete by point value (all matching live copies are
    /// tombstoned). Returns the number deleted.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let deleted = delete_rec(&mut self.nodes, &mut self.leaves, batch);
        self.live -= deleted;
        deleted
    }

    /// k nearest live neighbors of `q`.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut buf = KnnBuffer::new(k);
        if !self.nodes.is_empty() {
            self.knn_rec(0, q, &mut buf);
        }
        buf.finish()
    }

    /// Data-parallel batch k-NN.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        map_batch_z_order(queries, |q| self.knn(q, k))
    }

    /// Offers the live rows under slot `i` to `buf`, nearer child first,
    /// skipping a child whose box lies beyond the bound.
    fn knn_rec(&self, i: usize, q: &Point<D>, buf: &mut KnnBuffer) {
        let node = &self.nodes[i];
        if node.is_leaf() {
            for &(p, id, alive) in &self.leaves[i] {
                if alive {
                    buf.insert(q.dist_sq(&p), id);
                }
            }
            return;
        }
        let (l, r) = (node.left as usize, node.right as usize);
        let (near, far) = if q[node.dim as usize] <= node.val {
            (l, r)
        } else {
            (r, l)
        };
        for c in [near, far] {
            if self.nodes[c].bbox.dist_sq_to_point(q) <= buf.bound() {
                self.knn_rec(c, q, buf);
            }
        }
    }
}

/// How many slots the left subtree of internal node `node` takes: in
/// preorder they follow `node` directly, and the right subtree's follow
/// them.
fn left_len<const D: usize>(node: &Node<D>) -> usize {
    (node.right - node.left) as usize
}

/// Routes `rows` down the subtree whose preorder slots `nodes`/`leaves`
/// start with: every node on the way takes them into its box, and each
/// leaf appends its share, live.
fn insert_rec<const D: usize>(
    nodes: &mut [Node<D>],
    leaves: &mut [LeafRows<D>],
    rows: &mut [(Point<D>, u32)],
) {
    if rows.is_empty() {
        return;
    }
    let node = &mut nodes[0];
    node.bbox = node.bbox.union(&compute_bbox(rows));
    if node.is_leaf() {
        leaves[0].extend(rows.iter().map(|&(p, id)| (p, id, true)));
        return;
    }
    let (dim, val, len) = (node.dim as usize, node.val, left_len(node));
    let mid = partition_by(rows, |p| p[dim] < val);
    let fork = rows.len() >= SEQ_BUILD_CUTOFF;
    let (lo, hi) = rows.split_at_mut(mid);
    let (ln, rn) = nodes[1..].split_at_mut(len);
    let (ll, rl) = leaves[1..].split_at_mut(len);
    parlay::par_do_if(fork, || insert_rec(ln, ll, lo), || insert_rec(rn, rl, hi));
}

/// Tombstones every live row under the subtree whose preorder slots
/// `nodes`/`leaves` start with that is bitwise equal to one of `queries`,
/// and returns how many. A query on a node's split value goes both ways:
/// rows equal to it may lie on either side.
fn delete_rec<const D: usize>(
    nodes: &mut [Node<D>],
    leaves: &mut [LeafRows<D>],
    queries: &[Point<D>],
) -> usize {
    if queries.is_empty() {
        return 0;
    }
    let node = &nodes[0];
    if node.is_leaf() {
        let mut deleted = 0;
        for q in queries {
            for (p, _, alive) in leaves[0].iter_mut() {
                if *alive && p.bits_key() == q.bits_key() {
                    *alive = false;
                    deleted += 1;
                }
            }
        }
        return deleted;
    }
    let (dim, val, len) = (node.dim as usize, node.val, left_len(node));
    let ql: Vec<_> = queries.iter().filter(|q| q[dim] <= val).copied().collect();
    let qr: Vec<_> = queries.iter().filter(|q| q[dim] >= val).copied().collect();
    let (ln, rn) = nodes[1..].split_at_mut(len);
    let (ll, rl) = leaves[1..].split_at_mut(len);
    let (a, b) = parlay::par_do_if(
        queries.len() >= SEQ_BUILD_CUTOFF,
        || delete_rec(ln, ll, &ql),
        || delete_rec(rn, rl, &qr),
    );
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::knn_brute_force;
    use pargeo_datagen::uniform_cube;

    fn check_knn_against_brute<const D: usize>(
        knn: impl Fn(&Point<D>, usize) -> Vec<Neighbor>,
        reference: &[Point<D>],
        queries: &[Point<D>],
        k: usize,
    ) {
        for q in queries {
            let got = knn(q, k);
            let want = knn_brute_force(reference, q, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.dist_sq - w.dist_sq).abs() <= 1e-9 * (1.0 + g.dist_sq),
                    "{g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn b1_insert_delete_knn() {
        let pts = uniform_cube::<2>(2_000, 1);
        let mut t = B1Tree::from_points(&pts[..1_000], SplitRule::ObjectMedian);
        t.insert(&pts[1_000..]);
        assert_eq!(t.len(), 2_000);
        let queries: Vec<_> = pts.iter().copied().step_by(97).collect();
        check_knn_against_brute(|q, k| t.knn(q, k), &pts, &queries, 5);
        let removed = t.delete(&pts[..500]);
        assert_eq!(removed, 500);
        assert_eq!(t.len(), 1_500);
        check_knn_against_brute(|q, k| t.knn(q, k), &pts[500..], &queries, 5);
    }

    #[test]
    fn b2_insert_delete_knn() {
        let pts = uniform_cube::<2>(2_000, 2);
        let mut t = B2Tree::from_points(&pts[..500], SplitRule::ObjectMedian);
        // Three more batches routed into the fixed structure.
        t.insert(&pts[500..1_000]);
        t.insert(&pts[1_000..1_500]);
        t.insert(&pts[1_500..]);
        assert_eq!(t.len(), 2_000);
        let queries: Vec<_> = pts.iter().copied().step_by(89).collect();
        check_knn_against_brute(|q, k| t.knn(q, k), &pts, &queries, 5);
        let removed = t.delete(&pts[..700]);
        assert_eq!(removed, 700);
        assert_eq!(t.len(), 1_300);
        check_knn_against_brute(|q, k| t.knn(q, k), &pts[700..], &queries, 5);
    }

    #[test]
    fn b2_skews_under_adversarial_insertion() {
        // All later inserts land in one corner: leaves there overflow.
        let pts = uniform_cube::<2>(1_000, 3);
        let mut t = B2Tree::from_points(&pts, SplitRule::ObjectMedian);
        let corner: Vec<_> = (0..2_000)
            .map(|i| Point::new([1e-3 * (i % 17) as f64, 1e-3 * (i % 13) as f64]))
            .collect();
        t.insert(&corner);
        // Maximum leaf occupancy — the skew diagnostic used in Appendix D.
        let max_leaf = t.leaves.iter().map(Vec::len).max();
        assert!(max_leaf.expect("built over 1 000 points") > 4 * crate::tree::LEAF_SIZE);
        // Queries remain exact despite the skew.
        let all: Vec<_> = pts.iter().chain(&corner).copied().collect();
        let queries: Vec<_> = all.iter().copied().step_by(211).collect();
        check_knn_against_brute(|q, k| t.knn(q, k), &all, &queries, 3);
    }

    #[test]
    fn b1_delete_nonexistent() {
        let pts = uniform_cube::<2>(100, 4);
        let mut t = B1Tree::from_points(&pts, SplitRule::SpatialMedian);
        assert_eq!(t.delete(&[Point::new([-5.0, -5.0])]), 0);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn b2_spatial_median_rule() {
        let pts = uniform_cube::<3>(1_500, 5);
        let mut t = B2Tree::from_points(&pts[..750], SplitRule::SpatialMedian);
        t.insert(&pts[750..]);
        let queries: Vec<_> = pts.iter().copied().step_by(131).collect();
        check_knn_against_brute(|q, k| t.knn(q, k), &pts, &queries, 4);
    }

    #[test]
    fn empty_trees() {
        let t1 = B1Tree::<2>::new(SplitRule::ObjectMedian);
        assert!(t1.is_empty());
        assert!(t1.knn(&Point::new([0.0, 0.0]), 3).is_empty());
        let t2 = B2Tree::<2>::new(SplitRule::ObjectMedian);
        assert!(t2.is_empty());
        assert!(t2.knn(&Point::new([0.0, 0.0]), 3).is_empty());
    }
}

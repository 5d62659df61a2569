//! The batch-dynamic baselines of §6.3.
//!
//! * [`B1Tree`] — rebuilds the whole kd-tree on every batch insert/delete.
//!   Always perfectly balanced (best queries, slowest updates).
//! * [`B2Tree`] — inserts points directly into the existing spatial
//!   structure (leaf buffers) and deletes by tombstoning, never recomputing
//!   splits. Fastest updates; queries degrade as the tree skews, which is
//!   exactly the effect Appendix D measures.

use crate::knn::{KnnBuffer, Neighbor};
use crate::tree::{KdTree, SplitRule};
use pargeo_geometry::{Bbox, Point};
use pargeo_morton::map_batch_z_order;
use pargeo_parlay as parlay;

/// Baseline B1: rebuild on every update.
#[derive(Debug, Clone)]
pub struct B1Tree<const D: usize> {
    points: Vec<Point<D>>,
    ids: Vec<u32>,
    tree: KdTree<D>,
    rule: SplitRule,
    next_id: u32,
}

impl<const D: usize> B1Tree<D> {
    /// Creates an empty tree with the given split rule.
    pub fn new(rule: SplitRule) -> Self {
        Self {
            points: Vec::new(),
            ids: Vec::new(),
            tree: KdTree::build(&[], rule),
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
        self.points.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Batch insert: appends and rebuilds.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        self.points.extend_from_slice(batch);
        self.ids
            .extend((0..batch.len()).map(|i| self.next_id + i as u32));
        self.next_id += batch.len() as u32;
        self.rebuild();
    }

    /// Batch delete by point value (all matching copies) and rebuild.
    /// Returns the number of points removed.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        let victims: std::collections::HashSet<_> = batch.iter().map(Point::bits_key).collect();
        let before = self.points.len();
        let mut kept_pts = Vec::with_capacity(before);
        let mut kept_ids = Vec::with_capacity(before);
        for (p, id) in self.points.iter().zip(&self.ids) {
            if !victims.contains(&p.bits_key()) {
                kept_pts.push(*p);
                kept_ids.push(*id);
            }
        }
        self.points = kept_pts;
        self.ids = kept_ids;
        self.rebuild();
        before - self.points.len()
    }

    fn rebuild(&mut self) {
        self.tree = KdTree::build(&self.points, self.rule);
    }

    /// k nearest neighbors of `q` (ids are insertion-order ids).
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        self.tree
            .knn(q, k)
            .into_iter()
            .map(|n| Neighbor {
                dist_sq: n.dist_sq,
                id: self.ids[n.id as usize],
            })
            .collect()
    }

    /// Data-parallel batch k-NN.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        map_batch_z_order(queries, |q| self.knn(q, k))
    }
}

// ---------------- B2 ----------------

#[derive(Debug)]
enum B2Node<const D: usize> {
    Leaf {
        bbox: Bbox<D>,
        points: Vec<(Point<D>, u32)>,
        alive: Vec<bool>,
        live: usize,
    },
    Internal {
        bbox: Bbox<D>,
        dim: u8,
        val: f64,
        left: Box<B2Node<D>>,
        right: Box<B2Node<D>>,
    },
}

/// Baseline B2: fixed spatial structure, buffered leaves, tombstone deletes.
#[derive(Debug)]
pub struct B2Tree<const D: usize> {
    root: Option<Box<B2Node<D>>>,
    rule: SplitRule,
    leaf_size: usize,
    live: usize,
    next_id: u32,
}

const B2_SEQ_CUTOFF: usize = 2048;

impl<const D: usize> B2Tree<D> {
    /// Creates an empty tree.
    pub fn new(rule: SplitRule) -> Self {
        Self {
            root: None,
            rule,
            leaf_size: crate::tree::LEAF_SIZE,
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

    /// Batch insert. The first batch establishes the spatial structure
    /// (a balanced build); later batches are routed into existing leaves
    /// without recomputing any split.
    pub fn insert(&mut self, batch: &[Point<D>]) {
        let mut items: Vec<(Point<D>, u32)> = batch
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, self.next_id + i as u32))
            .collect();
        self.next_id += batch.len() as u32;
        self.live += batch.len();
        match &mut self.root {
            None => {
                self.root = Some(Box::new(build_b2(&mut items, self.rule, self.leaf_size)));
            }
            Some(root) => insert_rec(root, items),
        }
    }

    /// Batch delete by point value (all matching live copies are
    /// tombstoned). Returns the number deleted.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        match &mut self.root {
            None => 0,
            Some(root) => {
                let deleted = delete_rec(root, batch.to_vec());
                self.live -= deleted;
                deleted
            }
        }
    }

    /// k nearest live neighbors of `q`.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut buf = KnnBuffer::new(k);
        if let Some(root) = &self.root {
            knn_rec(root, q, &mut buf);
        }
        buf.finish()
    }

    /// Data-parallel batch k-NN.
    pub fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        map_batch_z_order(queries, |q| self.knn(q, k))
    }
}

fn build_b2<const D: usize>(
    items: &mut [(Point<D>, u32)],
    rule: SplitRule,
    leaf_size: usize,
) -> B2Node<D> {
    let n = items.len();
    let mut bbox = Bbox::empty();
    for (p, _) in items.iter() {
        bbox.extend(p);
    }
    if n <= leaf_size || bbox.diag_sq() == 0.0 {
        return B2Node::Leaf {
            bbox,
            // Extra headroom: B2 pre-allocates leaf buffers for future
            // inserts (the cost §6.3 attributes to its construction).
            points: {
                let mut v = Vec::with_capacity(4 * leaf_size);
                v.extend_from_slice(items);
                v
            },
            alive: vec![true; n],
            live: n,
        };
    }
    let dim = bbox.widest_dim();
    let (mid, val) = match rule {
        SplitRule::ObjectMedian => {
            let mid = n / 2;
            items.select_nth_unstable_by(mid, |a, b| a.0[dim].partial_cmp(&b.0[dim]).unwrap());
            (mid, items[mid].0[dim])
        }
        SplitRule::SpatialMedian => {
            let val = 0.5 * (bbox.min[dim] + bbox.max[dim]);
            let mut i = 0;
            let mut j = n;
            while i < j {
                if items[i].0[dim] < val {
                    i += 1;
                } else {
                    j -= 1;
                    items.swap(i, j);
                }
            }
            if i == 0 || i == n {
                let mid = n / 2;
                items.select_nth_unstable_by(mid, |a, b| a.0[dim].partial_cmp(&b.0[dim]).unwrap());
                (mid, items[mid].0[dim])
            } else {
                (i, val)
            }
        }
    };
    let (lo, hi) = items.split_at_mut(mid);
    let (l, r) = parlay::par_do_if(
        n >= B2_SEQ_CUTOFF,
        || build_b2(lo, rule, leaf_size),
        || build_b2(hi, rule, leaf_size),
    );
    B2Node::Internal {
        bbox,
        dim: dim as u8,
        val,
        left: Box::new(l),
        right: Box::new(r),
    }
}

fn insert_rec<const D: usize>(node: &mut B2Node<D>, mut items: Vec<(Point<D>, u32)>) {
    if items.is_empty() {
        return;
    }
    match node {
        B2Node::Leaf {
            bbox,
            points,
            alive,
            live,
        } => {
            for (p, _) in &items {
                bbox.extend(p);
            }
            *live += items.len();
            alive.extend(std::iter::repeat_n(true, items.len()));
            points.append(&mut items);
        }
        B2Node::Internal {
            bbox,
            dim,
            val,
            left,
            right,
        } => {
            for (p, _) in &items {
                bbox.extend(p);
            }
            let dim = *dim as usize;
            let val = *val;
            let (l_items, r_items): (Vec<_>, Vec<_>) =
                items.into_iter().partition(|(p, _)| p[dim] < val);
            parlay::par_do_if(
                l_items.len() + r_items.len() >= B2_SEQ_CUTOFF,
                || insert_rec(left, l_items),
                || insert_rec(right, r_items),
            );
        }
    }
}

fn delete_rec<const D: usize>(node: &mut B2Node<D>, queries: Vec<Point<D>>) -> usize {
    if queries.is_empty() {
        return 0;
    }
    match node {
        B2Node::Leaf {
            points,
            alive,
            live,
            ..
        } => {
            let mut deleted = 0;
            for q in &queries {
                for (i, (p, _)) in points.iter().enumerate() {
                    // Bitwise identity, matching every other backend's
                    // delete-by-value semantic.
                    if alive[i] && p.bits_key() == q.bits_key() {
                        alive[i] = false;
                        *live -= 1;
                        deleted += 1;
                    }
                }
            }
            deleted
        }
        B2Node::Internal {
            dim,
            val,
            left,
            right,
            ..
        } => {
            let dim = *dim as usize;
            let val = *val;
            // Superset routing on ties, mirroring object-median ambiguity.
            let mut ql = Vec::new();
            let mut qr = Vec::new();
            for q in &queries {
                if q[dim] <= val {
                    ql.push(*q);
                }
                if q[dim] >= val {
                    qr.push(*q);
                }
            }
            let (a, b) = parlay::par_do_if(
                ql.len() + qr.len() >= B2_SEQ_CUTOFF,
                || delete_rec(left, ql),
                || delete_rec(right, qr),
            );
            a + b
        }
    }
}

fn knn_rec<const D: usize>(node: &B2Node<D>, q: &Point<D>, buf: &mut KnnBuffer) {
    match node {
        B2Node::Leaf { points, alive, .. } => {
            for (i, (p, id)) in points.iter().enumerate() {
                if alive[i] {
                    buf.insert(q.dist_sq(p), *id);
                }
            }
        }
        B2Node::Internal {
            dim,
            val,
            left,
            right,
            ..
        } => {
            let (near, far) = if q[*dim as usize] <= *val {
                (left, right)
            } else {
                (right, left)
            };
            if node_bbox(near).dist_sq_to_point(q) <= buf.bound() {
                knn_rec(near, q, buf);
            }
            if node_bbox(far).dist_sq_to_point(q) <= buf.bound() {
                knn_rec(far, q, buf);
            }
        }
    }
}

fn node_bbox<const D: usize>(node: &B2Node<D>) -> Bbox<D> {
    match node {
        B2Node::Leaf { bbox, .. } => *bbox,
        B2Node::Internal { bbox, .. } => *bbox,
    }
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
        fn max_leaf_size<const D: usize>(n: &B2Node<D>) -> usize {
            match n {
                B2Node::Leaf { points, .. } => points.len(),
                B2Node::Internal { left, right, .. } => {
                    max_leaf_size(left).max(max_leaf_size(right))
                }
            }
        }
        let root = t.root.as_ref().expect("built over 1 000 points");
        assert!(max_leaf_size(root) > 4 * crate::tree::LEAF_SIZE);
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

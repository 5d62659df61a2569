//! Orthogonal (box) and spherical range search.
//!
//! Standard kd-tree range reporting: subtrees entirely inside the query are
//! reported wholesale, disjoint subtrees are pruned, straddling subtrees
//! recurse. Batch variants are data-parallel over queries, evaluated in
//! Z-order of the box or ball centres, rows in input order.
//!
//! Reporting output is **deterministic**: ids come back sorted ascending
//! regardless of tree shape, split rule, or thread count, so answers from
//! different trees over the same points are comparable verbatim.

use crate::tree::{AllLive, KdTree, Liveness, Node, Walk};
use pargeo_geometry::{Bbox, Point};
use pargeo_morton::map_batch_z_order_by;

impl<const D: usize> KdTree<D> {
    /// Original ids of all points inside `query` (boundary inclusive),
    /// sorted ascending.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.is_empty() {
            self.walk(AllLive).range_box(0, query, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// Original ids of all points within distance `radius` of `center`
    /// (boundary inclusive), sorted ascending.
    pub fn range_ball(&self, center: &Point<D>, radius: f64) -> Vec<u32> {
        let mut out = self.range_ball_unsorted(center, radius);
        out.sort_unstable();
        out
    }

    /// Like [`KdTree::range_ball`] but in traversal order (unspecified):
    /// for membership-style consumers that don't need the sorted-output
    /// contract and sit in hot loops (e.g. β-skeleton lune tests).
    pub fn range_ball_unsorted(&self, center: &Point<D>, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.is_empty() {
            self.walk(AllLive)
                .range_ball(0, center, radius * radius, &mut out);
        }
        out
    }

    /// Number of points within `radius` of `center` without materializing
    /// them (allocation-free: the data-parallel form used by Table 1's
    /// range-search row).
    pub fn count_ball(&self, center: &Point<D>, radius: f64) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.walk(AllLive).count_ball(0, center, radius * radius)
    }

    /// Data-parallel batch ball counting.
    pub fn count_ball_batch(&self, queries: &[(Point<D>, f64)]) -> Vec<usize> {
        map_batch_z_order_by(queries, |q| q.0, |(c, r)| self.count_ball(c, *r))
    }

    /// Number of points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.walk(AllLive).count_box(0, query)
    }

    /// Data-parallel batch box search.
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        map_batch_z_order_by(queries, Bbox::center, |q| self.range_box(q))
    }

    /// Data-parallel batch ball search.
    pub fn range_ball_batch(&self, queries: &[(Point<D>, f64)]) -> Vec<Vec<u32>> {
        map_batch_z_order_by(queries, |q| q.0, |(c, r)| self.range_ball(c, *r))
    }
}

/// The crate's range and count descents. Node boxes are conservative after
/// deletions (supersets of the live points), so pruning may over-visit but
/// never misses. A node that lies `whole` inside the query is not
/// descended: a tree that never loses a row reports its id slice (counts
/// its length), any other filters the node's rows by liveness alone.
impl<const D: usize, L: Liveness> Walk<'_, D, L> {
    /// The live rows of `node` — of those, unless the node lies `whole`
    /// inside the query, the ones `inside` accepts.
    #[inline]
    fn hits<'s>(
        &'s self,
        node: &Node<D>,
        whole: bool,
        inside: impl Fn(usize) -> bool + 's,
    ) -> impl Iterator<Item = usize> + 's {
        node.rows()
            .filter(move |&i| self.live.alive(i) && (whole || inside(i)))
    }

    /// Appends the ids of the live points inside `query` under `idx`.
    pub(crate) fn range_box(&self, idx: u32, query: &Bbox<D>, out: &mut Vec<u32>) {
        let node = &self.nodes[idx as usize];
        if !node.bbox.intersects(query) {
            return;
        }
        let whole = query.contains_box(&node.bbox);
        if whole && L::NEVER_DEAD {
            out.extend_from_slice(&self.pts.ids()[node.rows()]);
        } else if whole || node.is_leaf() {
            let inside = |i| query.contains_soa(self.pts, i);
            for i in self.hits(node, whole, inside) {
                out.push(self.pts.id(i));
            }
        } else {
            let (left, right) = self.children(node);
            self.range_box(left, query, out);
            self.range_box(right, query, out);
        }
    }

    /// Appends the ids of the live points within `r_sq` (squared) of `c`
    /// under `idx`.
    pub(crate) fn range_ball(&self, idx: u32, c: &Point<D>, r_sq: f64, out: &mut Vec<u32>) {
        let node = &self.nodes[idx as usize];
        if node.bbox.dist_sq_to_point(c) > r_sq {
            return;
        }
        let whole = node.bbox.max_dist_sq_to_point(c) <= r_sq;
        if whole && L::NEVER_DEAD {
            out.extend_from_slice(&self.pts.ids()[node.rows()]);
        } else if whole || node.is_leaf() {
            let inside = |i| self.pts.dist_sq(i, c) <= r_sq;
            for i in self.hits(node, whole, inside) {
                out.push(self.pts.id(i));
            }
        } else {
            let (left, right) = self.children(node);
            self.range_ball(left, c, r_sq, out);
            self.range_ball(right, c, r_sq, out);
        }
    }

    /// Number of live points inside `query` under `idx`.
    pub(crate) fn count_box(&self, idx: u32, query: &Bbox<D>) -> usize {
        let node = &self.nodes[idx as usize];
        if !node.bbox.intersects(query) {
            return 0;
        }
        let whole = query.contains_box(&node.bbox);
        if whole && L::NEVER_DEAD {
            node.rows().len()
        } else if whole || node.is_leaf() {
            let inside = |i| query.contains_soa(self.pts, i);
            self.hits(node, whole, inside).count()
        } else {
            let (left, right) = self.children(node);
            self.count_box(left, query) + self.count_box(right, query)
        }
    }

    /// Number of live points within `r_sq` (squared) of `c` under `idx`.
    pub(crate) fn count_ball(&self, idx: u32, c: &Point<D>, r_sq: f64) -> usize {
        let node = &self.nodes[idx as usize];
        if node.bbox.dist_sq_to_point(c) > r_sq {
            return 0;
        }
        let whole = node.bbox.max_dist_sq_to_point(c) <= r_sq;
        if whole && L::NEVER_DEAD {
            node.rows().len()
        } else if whole || node.is_leaf() {
            let inside = |i| self.pts.dist_sq(i, c) <= r_sq;
            self.hits(node, whole, inside).count()
        } else {
            let (left, right) = self.children(node);
            self.count_ball(left, c, r_sq) + self.count_ball(right, c, r_sq)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitRule;
    use pargeo_datagen::uniform_cube;
    use pargeo_geometry::Point2;

    fn brute_box<const D: usize>(pts: &[Point<D>], q: &Bbox<D>) -> Vec<u32> {
        pts.iter()
            .enumerate()
            .filter(|(_, p)| q.contains(p))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn brute_ball<const D: usize>(pts: &[Point<D>], c: &Point<D>, r: f64) -> Vec<u32> {
        pts.iter()
            .enumerate()
            .filter(|(_, p)| c.dist_sq(p) <= r * r)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn box_search_matches_brute_force() {
        let pts = uniform_cube::<2>(3_000, 1);
        let side = pargeo_datagen::cube_side(3_000);
        for rule in [SplitRule::ObjectMedian, SplitRule::SpatialMedian] {
            let t = KdTree::build(&pts, rule);
            for i in 0..20 {
                let f = i as f64 / 20.0;
                let q = Bbox {
                    min: Point2::new([side * f * 0.5, side * 0.1]),
                    max: Point2::new([side * (0.3 + f * 0.5), side * (0.2 + f * 0.6)]),
                };
                // No sort on `got`: reporting output is sorted by contract.
                let got = t.range_box(&q);
                assert_eq!(got, brute_box(&pts, &q));
                assert_eq!(t.count_box(&q), got.len());
            }
        }
    }

    #[test]
    fn ball_search_matches_brute_force() {
        let pts = uniform_cube::<3>(2_000, 2);
        let side = pargeo_datagen::cube_side(2_000);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        for (i, c) in pts.iter().step_by(211).enumerate() {
            let r = side * (0.05 + 0.05 * i as f64);
            assert_eq!(t.range_ball(c, r), brute_ball(&pts, c, r));
        }
    }

    #[test]
    fn empty_query_and_full_query() {
        let pts = uniform_cube::<2>(1_000, 3);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let empty = Bbox {
            min: Point2::new([-10.0, -10.0]),
            max: Point2::new([-5.0, -5.0]),
        };
        assert!(t.range_box(&empty).is_empty());
        let all = t.bbox();
        let got = t.range_box(&all);
        assert_eq!(got.len(), 1_000);
    }

    #[test]
    fn batch_matches_individual() {
        let pts = uniform_cube::<2>(2_000, 4);
        let t = KdTree::build(&pts, SplitRule::SpatialMedian);
        let queries: Vec<(Point2, f64)> = pts.iter().step_by(83).map(|p| (*p, 3.0)).collect();
        let batch = t.range_ball_batch(&queries);
        for ((c, r), row) in queries.iter().zip(&batch) {
            assert_eq!(row, &t.range_ball(c, *r));
        }
    }

    #[test]
    fn reporting_is_sorted_regardless_of_split_rule() {
        let pts = uniform_cube::<2>(3_000, 7);
        let side = pargeo_datagen::cube_side(3_000);
        let q = Bbox {
            min: Point2::new([side * 0.2, side * 0.2]),
            max: Point2::new([side * 0.8, side * 0.8]),
        };
        let want = brute_box(&pts, &q); // ascending by construction
        for rule in [SplitRule::ObjectMedian, SplitRule::SpatialMedian] {
            let t = KdTree::build(&pts, rule);
            assert_eq!(t.range_box(&q), want);
            assert!(t
                .range_ball(&q.center(), side * 0.3)
                .windows(2)
                .all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn count_ball_matches_range_ball() {
        let pts = uniform_cube::<2>(2_000, 6);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        for (i, c) in pts.iter().step_by(173).enumerate() {
            let r = 1.0 + i as f64;
            assert_eq!(t.count_ball(c, r), t.range_ball(c, r).len());
        }
        let queries: Vec<(Point2, f64)> = pts.iter().step_by(97).map(|p| (*p, 5.0)).collect();
        let counts = t.count_ball_batch(&queries);
        for ((c, r), cnt) in queries.iter().zip(counts) {
            assert_eq!(cnt, t.range_ball(c, *r).len());
        }
    }

    #[test]
    fn zero_radius_ball_finds_exact_point() {
        let pts = uniform_cube::<2>(500, 5);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        let got = t.range_ball(&pts[42], 0.0);
        assert!(got.contains(&42));
    }
}

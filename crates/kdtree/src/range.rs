//! Orthogonal (box) and spherical range search.
//!
//! Standard kd-tree range reporting: subtrees entirely inside the query are
//! reported wholesale, disjoint subtrees are pruned, straddling subtrees
//! recurse. Batch variants are data-parallel over queries.
//!
//! Reporting output is **deterministic**: ids come back sorted ascending
//! regardless of tree shape, split rule, or thread count, so answers from
//! different trees over the same points are comparable verbatim.

use crate::tree::{KdTree, Node};
use pargeo_geometry::{Bbox, Point};
use pargeo_parlay as parlay;

/// Range queries per task in the batch variants (a query is a tree walk).
const RANGE_BATCH_GRAIN: usize = 16;

impl<const D: usize> KdTree<D> {
    /// Original ids of all points inside `query` (boundary inclusive),
    /// sorted ascending.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        let mut out = Vec::new();
        if let Some(root) = self.root() {
            self.range_box_rec(root, query, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn range_box_rec(&self, node: &Node<D>, query: &Bbox<D>, out: &mut Vec<u32>) {
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
        self.range_box_rec(self.node(node.left), query, out);
        self.range_box_rec(self.node(node.right), query, out);
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
        let r_sq = radius * radius;
        if let Some(root) = self.root() {
            self.range_ball_rec(root, center, r_sq, &mut out);
        }
        out
    }

    fn range_ball_rec(&self, node: &Node<D>, c: &Point<D>, r_sq: f64, out: &mut Vec<u32>) {
        if node.bbox.dist_sq_to_point(c) > r_sq {
            return;
        }
        if node.bbox.max_dist_sq_to_point(c) <= r_sq {
            out.extend_from_slice(&self.pts.ids()[node.start as usize..node.end as usize]);
            return;
        }
        if node.is_leaf() {
            for i in node.start as usize..node.end as usize {
                if self.pts.dist_sq(i, c) <= r_sq {
                    out.push(self.pts.id(i));
                }
            }
            return;
        }
        self.range_ball_rec(self.node(node.left), c, r_sq, out);
        self.range_ball_rec(self.node(node.right), c, r_sq, out);
    }

    /// Number of points within `radius` of `center` without materializing
    /// them (allocation-free: the data-parallel form used by Table 1's
    /// range-search row).
    pub fn count_ball(&self, center: &Point<D>, radius: f64) -> usize {
        fn go<const D: usize>(t: &KdTree<D>, node: &Node<D>, c: &Point<D>, r_sq: f64) -> usize {
            if node.bbox.dist_sq_to_point(c) > r_sq {
                return 0;
            }
            if node.bbox.max_dist_sq_to_point(c) <= r_sq {
                return (node.end - node.start) as usize;
            }
            if node.is_leaf() {
                return (node.start as usize..node.end as usize)
                    .filter(|&i| t.pts.dist_sq(i, c) <= r_sq)
                    .count();
            }
            go(t, t.node(node.left), c, r_sq) + go(t, t.node(node.right), c, r_sq)
        }
        match self.root() {
            Some(root) => go(self, root, center, radius * radius),
            None => 0,
        }
    }

    /// Data-parallel batch ball counting.
    pub fn count_ball_batch(&self, queries: &[(Point<D>, f64)]) -> Vec<usize> {
        parlay::map(queries, RANGE_BATCH_GRAIN, |(c, r)| self.count_ball(c, *r))
    }

    /// Number of points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        fn go<const D: usize>(t: &KdTree<D>, node: &Node<D>, query: &Bbox<D>) -> usize {
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
            go(t, t.node(node.left), query) + go(t, t.node(node.right), query)
        }
        match self.root() {
            Some(root) => go(self, root, query),
            None => 0,
        }
    }

    /// Data-parallel batch box search.
    pub fn range_box_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        parlay::map(queries, RANGE_BATCH_GRAIN, |q| self.range_box(q))
    }

    /// Data-parallel batch ball search.
    pub fn range_ball_batch(&self, queries: &[(Point<D>, f64)]) -> Vec<Vec<u32>> {
        parlay::map(queries, RANGE_BATCH_GRAIN, |(c, r)| self.range_ball(c, *r))
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

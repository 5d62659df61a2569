//! Static 2D range tree with layered `y`-sorted auxiliary arrays.
//!
//! The structure is the flat-array form of the classic layered range tree
//! (Willard/Lueker — the same layering fractional cascading refines):
//! points are sorted by `x`, and an implicit complete binary tree is laid
//! over the sorted order. The node at level `k`, index `i` covers the index
//! range `[i·2ᵏ, (i+1)·2ᵏ)` and stores that range's points **sorted by
//! `y`**, all nodes of one level packed into a single flat array. Because a
//! level-`k` array is exactly the pairwise merge of the level-`k−1` array,
//! construction is a bottom-up parallel merge ladder — one
//! [`sample_sort_by`] for the base order, then `⌈log₂ n⌉` rounds of
//! data-parallel node merges — with `O(n log n)` work.
//!
//! A query box `[x₀,x₁]×[y₀,y₁]` maps to an index range via two binary
//! searches on the sorted `x`s, decomposes into `O(log n)` size-aligned
//! canonical nodes, and resolves each node with two binary searches on its
//! `y`-sorted run: `O(log² n)` per count; reports add `O(k log k)` to sort
//! the `k` collected ids (the deterministic-output contract). Batched
//! queries are data-parallel through [`BatchQuery`].

use crate::batch::{BatchQuery, Count, Report};
use pargeo_geometry::{Bbox, Point};
use pargeo_parlay::{for_each_block_mut, sample_sort_by, tabulate, GRANULARITY};

/// A static 2D range tree over points, answering orthogonal range count and
/// report queries. Build once with [`RangeTree2d::build`], query many.
#[derive(Debug, Clone)]
pub struct RangeTree2d {
    /// `x` of every point, sorted ascending (ties broken by `y`, then id).
    xs: Vec<f64>,
    /// `levels[k]` holds `(y, id)` for every point, grouped by the level-`k`
    /// node covering it and sorted by `y` within each node. `levels[0]` is
    /// the base (singleton nodes, i.e. the `x`-sorted point order).
    levels: Vec<Vec<(f64, u32)>>,
}

/// Total order on `(y, id)` entries (ties broken by id for determinism).
#[inline]
fn entry_lt(a: &(f64, u32), b: &(f64, u32)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

impl RangeTree2d {
    /// Builds the tree: one parallel sort by `x`, then bottom-up parallel
    /// pairwise merges of the `y`-sorted node arrays.
    pub fn build(points: &[Point<2>]) -> Self {
        let n = points.len();
        let mut items: Vec<(f64, f64, u32)> = tabulate(n, GRANULARITY, |i| {
            let p = &points[i];
            (p[0], p[1], i as u32)
        });
        sample_sort_by(&mut items, |a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let xs: Vec<f64> = items.iter().map(|t| t.0).collect();
        let base: Vec<(f64, u32)> = items.iter().map(|t| (t.1, t.2)).collect();
        let mut levels = vec![base];
        let mut width = 1usize;
        while width < n {
            let prev = levels.last().unwrap();
            let next = merge_level(prev, width);
            levels.push(next);
            width *= 2;
        }
        Self { xs, levels }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True iff the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Index range `[lo, hi)` of points with `x ∈ [x0, x1]`.
    #[inline]
    fn x_range(&self, x0: f64, x1: f64) -> (usize, usize) {
        let lo = self.xs.partition_point(|&x| x < x0);
        let hi = self.xs.partition_point(|&x| x <= x1);
        (lo, hi)
    }

    /// Visits the `y`-sorted run of every canonical node covering `[lo, hi)`.
    ///
    /// Greedy decomposition: the largest power-of-two block that starts at
    /// `lo`, is aligned to its own size, and fits in the range — `O(log n)`
    /// blocks, each exactly one node of its level.
    fn for_each_canonical<F: FnMut(&[(f64, u32)])>(&self, mut lo: usize, hi: usize, mut f: F) {
        while lo < hi {
            let span = hi - lo;
            let fit = 1usize << (usize::BITS - 1 - span.leading_zeros());
            let align = if lo == 0 {
                fit
            } else {
                1usize << lo.trailing_zeros()
            };
            let len = fit.min(align);
            let k = len.trailing_zeros() as usize;
            f(&self.levels[k][lo..lo + len]);
            lo += len;
        }
    }

    /// Number of points inside `query` (boundary inclusive).
    pub fn count(&self, query: &Bbox<2>) -> usize {
        if self.is_empty() {
            return 0;
        }
        let (lo, hi) = self.x_range(query.min[0], query.max[0]);
        let (y0, y1) = (query.min[1], query.max[1]);
        let mut total = 0;
        self.for_each_canonical(lo, hi, |run| {
            let a = run.partition_point(|e| e.0 < y0);
            let b = run.partition_point(|e| e.0 <= y1);
            total += b - a;
        });
        total
    }

    /// Original ids of all points inside `query`, sorted ascending.
    pub fn report(&self, query: &Bbox<2>) -> Vec<u32> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let (lo, hi) = self.x_range(query.min[0], query.max[0]);
        let (y0, y1) = (query.min[1], query.max[1]);
        self.for_each_canonical(lo, hi, |run| {
            let a = run.partition_point(|e| e.0 < y0);
            let b = run.partition_point(|e| e.0 <= y1);
            out.extend(run[a..b].iter().map(|e| e.1));
        });
        out.sort_unstable();
        out
    }

    /// Number of points strictly dominated by `(x, y)`: `pₓ < x ∧ p_y < y`.
    ///
    /// The 2D dominance primitive [`crate::RectangleSet`] composes its
    /// rectangle-intersection counts from.
    pub fn count_dominated(&self, x: f64, y: f64) -> usize {
        let hi = self.xs.partition_point(|&px| px < x);
        let mut total = 0;
        self.for_each_canonical(0, hi, |run| {
            total += run.partition_point(|e| e.0 < y);
        });
        total
    }
}

/// One merge round: level-`width` nodes pairwise-merged into `2·width`
/// nodes, data-parallel over output nodes (sequential two-way merge within
/// each; the top rounds have few wide nodes, the bottom rounds many narrow
/// ones — total work per round is `O(n)` either way).
fn merge_level(prev: &[(f64, u32)], width: usize) -> Vec<(f64, u32)> {
    let n = prev.len();
    let out_width = 2 * width;
    let mut next = vec![(0.0f64, 0u32); n];
    // One task per run of whole output nodes holding some GRANULARITY
    // entries between them.
    let nodes_per_task = GRANULARITY.div_ceil(out_width);
    for_each_block_mut(&mut next, nodes_per_task * out_width, |t, nodes| {
        for (k, chunk) in nodes.chunks_mut(out_width).enumerate() {
            let start = (t * nodes_per_task + k) * out_width;
            let mid = (start + width).min(n);
            let end = (start + chunk.len()).min(n);
            let (left, right) = (&prev[start..mid], &prev[mid..end]);
            let (mut i, mut j) = (0, 0);
            for slot in chunk.iter_mut() {
                *slot = if j >= right.len() || (i < left.len() && entry_lt(&left[i], &right[j])) {
                    i += 1;
                    left[i - 1]
                } else {
                    j += 1;
                    right[j - 1]
                };
            }
        }
    });
    next
}

impl BatchQuery<Count<Bbox<2>>> for RangeTree2d {
    type Answer = usize;

    fn answer(&self, query: &Count<Bbox<2>>) -> usize {
        self.count(&query.0)
    }
}

impl BatchQuery<Report<Bbox<2>>> for RangeTree2d {
    type Answer = Vec<u32>;

    fn answer(&self, query: &Report<Bbox<2>>) -> Vec<u32> {
        self.report(&query.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{uniform_cube, uniform_rects};
    use pargeo_geometry::Point2;

    fn brute_report(pts: &[Point<2>], q: &Bbox<2>) -> Vec<u32> {
        pts.iter()
            .enumerate()
            .filter(|(_, p)| q.contains(p))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn count_and_report_match_brute_force() {
        let pts = uniform_cube::<2>(3_000, 1);
        let tree = RangeTree2d::build(&pts);
        assert_eq!(tree.len(), pts.len());
        for q in &uniform_rects::<2>(100, 2, 0.5) {
            let want = brute_report(&pts, q);
            assert_eq!(tree.count(q), want.len());
            assert_eq!(tree.report(q), want);
        }
    }

    #[test]
    fn duplicate_heavy_lattice_is_exact() {
        // Many equal xs and ys stress the tie-breaking and the inclusive
        // boundary semantics.
        let pts: Vec<Point2> = (0..500)
            .map(|i| Point2::new([(i % 8) as f64, (i % 5) as f64]))
            .collect();
        let tree = RangeTree2d::build(&pts);
        for x0 in 0..8 {
            for y0 in 0..5 {
                let q = Bbox {
                    min: Point2::new([x0 as f64, y0 as f64]),
                    max: Point2::new([(x0 + 2) as f64, (y0 + 1) as f64]),
                };
                let want = brute_report(&pts, &q);
                assert_eq!(tree.count(&q), want.len());
                assert_eq!(tree.report(&q), want);
            }
        }
    }

    #[test]
    fn dominance_counts_are_strict() {
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([1.0, 1.0]),
            Point2::new([1.0, 3.0]),
            Point2::new([2.0, 2.0]),
        ];
        let tree = RangeTree2d::build(&pts);
        assert_eq!(tree.count_dominated(1.0, 1.0), 1); // only (0,0): strict
        assert_eq!(tree.count_dominated(2.0, 4.0), 3);
        assert_eq!(tree.count_dominated(0.0, 0.0), 0);
        assert_eq!(tree.count_dominated(f64::INFINITY, f64::INFINITY), 4);
    }

    #[test]
    fn empty_and_singleton_trees() {
        let empty = RangeTree2d::build(&[]);
        assert!(empty.is_empty());
        let q = Bbox {
            min: Point2::new([-1.0, -1.0]),
            max: Point2::new([1.0, 1.0]),
        };
        assert_eq!(empty.count(&q), 0);
        assert!(empty.report(&q).is_empty());
        let one = RangeTree2d::build(&[Point2::new([0.0, 0.0])]);
        assert_eq!(one.count(&q), 1);
        assert_eq!(one.report(&q), vec![0]);
        assert_eq!(one.count_dominated(1.0, 1.0), 1);
    }

    #[test]
    fn build_is_thread_count_independent() {
        let pts = uniform_cube::<2>(20_000, 7);
        let queries = uniform_rects::<2>(50, 8, 0.3);
        let a = pargeo_parlay::with_threads(1, || {
            let t = RangeTree2d::build(&pts);
            queries.iter().map(|q| t.report(q)).collect::<Vec<_>>()
        });
        let b = pargeo_parlay::with_threads(4, || {
            let t = RangeTree2d::build(&pts);
            queries.iter().map(|q| t.report(q)).collect::<Vec<_>>()
        });
        assert_eq!(a, b);
    }
}

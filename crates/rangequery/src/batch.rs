//! The shared batched-query surface.
//!
//! Every structure in this crate — and the kd-tree from `pargeo-kdtree` —
//! answers queries through [`BatchQuery`]: `answer` for one query,
//! `answer_batch` for a whole slice, data-parallel over the queries. The
//! [`Count`] / [`Report`] wrappers select the answer mode at the type level,
//! so a bench or test can be generic over the backend:
//!
//! ```
//! use pargeo_rangequery::{BatchQuery, Count, RangeTree2d};
//! use pargeo_geometry::{Bbox, Point2};
//! use pargeo_kdtree::{KdTree, SplitRule};
//!
//! fn total<B: BatchQuery<Count<Bbox<2>>, Answer = usize>>(
//!     backend: &B,
//!     queries: &[Count<Bbox<2>>],
//! ) -> usize {
//!     backend.answer_batch(queries).iter().sum()
//! }
//!
//! let pts = vec![Point2::new([0.0, 0.0]), Point2::new([1.0, 1.0])];
//! let q = [Count(Bbox { min: pts[0], max: pts[1] })];
//! let range_tree = RangeTree2d::build(&pts);
//! let kd_tree = KdTree::build(&pts, SplitRule::ObjectMedian);
//! assert_eq!(total(&range_tree, &q), total(&kd_tree, &q));
//! ```

use pargeo_geometry::Bbox;
use pargeo_kdtree::KdTree;

/// Queries per task in `answer_batch` (a batch of at most this many runs
/// on the calling thread).
pub const BATCH_GRAIN: usize = 16;

/// Query wrapper: answer with the number of matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Count<Q>(pub Q);

/// Query wrapper: answer with the matching original ids, sorted ascending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report<Q>(pub Q);

/// A static spatial index answering one query type, batched data-parallel.
///
/// Implementors only provide [`BatchQuery::answer`]; the batch form is
/// derived, parallelizing over queries on the ambient pool (the
/// inter-query parallelism of Sun & Blelloch's evaluation). Answers are
/// positionally aligned with the input and independent of thread count.
pub trait BatchQuery<Q: Sync>: Sync {
    /// The per-query answer (a count, or a sorted id list).
    type Answer: Send;

    /// Answers a single query.
    fn answer(&self, query: &Q) -> Self::Answer;

    /// Answers every query, in order, data-parallel over the batch.
    fn answer_batch(&self, queries: &[Q]) -> Vec<Self::Answer> {
        pargeo_parlay::map(queries, BATCH_GRAIN, |q| self.answer(q))
    }
}

/// Kd-tree backend: box counting. Makes `KdTree` interchangeable with
/// [`crate::RangeTree2d`] wherever a `BatchQuery<Count<Bbox<2>>>` is
/// expected (and likewise in higher dimensions, which the range tree does
/// not cover).
impl<const D: usize> BatchQuery<Count<Bbox<D>>> for KdTree<D> {
    type Answer = usize;

    fn answer(&self, query: &Count<Bbox<D>>) -> usize {
        self.count_box(&query.0)
    }
}

/// Kd-tree backend: box reporting (sorted ids, see `pargeo-kdtree`'s
/// deterministic-output guarantee).
impl<const D: usize> BatchQuery<Report<Bbox<D>>> for KdTree<D> {
    type Answer = Vec<u32>;

    fn answer(&self, query: &Report<Bbox<D>>) -> Vec<u32> {
        self.range_box(&query.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{uniform_cube, uniform_rects};
    use pargeo_kdtree::SplitRule;

    #[test]
    fn kdtree_backend_matches_direct_calls() {
        let pts = uniform_cube::<2>(2_000, 1);
        let tree = KdTree::build(&pts, SplitRule::ObjectMedian);
        let boxes = uniform_rects::<2>(64, 2, 0.4);
        let counts: Vec<Count<Bbox<2>>> = boxes.iter().map(|&b| Count(b)).collect();
        let reports: Vec<Report<Bbox<2>>> = boxes.iter().map(|&b| Report(b)).collect();
        let got_counts = tree.answer_batch(&counts);
        let got_reports = tree.answer_batch(&reports);
        for ((b, c), r) in boxes.iter().zip(&got_counts).zip(&got_reports) {
            assert_eq!(*c, tree.count_box(b));
            assert_eq!(*r, tree.range_box(b));
            assert_eq!(*c, r.len());
        }
    }

    #[test]
    fn small_batches_stay_sequential_and_aligned() {
        let pts = uniform_cube::<2>(500, 3);
        let tree = KdTree::build(&pts, SplitRule::SpatialMedian);
        let boxes = uniform_rects::<2>(BATCH_GRAIN - 1, 4, 0.3);
        let qs: Vec<Count<Bbox<2>>> = boxes.iter().map(|&b| Count(b)).collect();
        let got = tree.answer_batch(&qs);
        assert_eq!(got.len(), qs.len());
        for (q, c) in qs.iter().zip(got) {
            assert_eq!(c, tree.answer(q));
        }
    }
}

//! Property tests for the unified engine: on adversarial (duplicate-heavy,
//! tie-heavy lattice) update streams, every `SpatialIndex` backend must
//! agree with the brute-force `Vec` oracle — identical live sets, identical
//! sorted range reports, identical k-NN distance profiles — at two thread
//! counts.

use pargeo_bdltree::BdlTree;
use pargeo_engine::{ShardedIndex, SpatialIndex, VecIndex};
use pargeo_geometry::{Bbox, Point2};
use pargeo_kdtree::ZdTree;
use proptest::prelude::*;

fn lattice_points() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..24, 0i32..24).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        4..200,
    )
}

fn backends() -> Vec<Box<dyn SpatialIndex<2>>> {
    vec![
        Box::new(BdlTree::<2>::with_buffer_size(32)),
        Box::new(ZdTree::<2>::new()),
    ]
}

/// Applies the same interleaved stream to one backend and the oracle, then
/// cross-validates k-NN and range answers.
fn churn_and_check(
    b: &mut dyn SpatialIndex<2>,
    pts: &[Point2],
    cut: usize,
    k: usize,
    q: &Bbox<2>,
) -> Result<(), TestCaseError> {
    let mut oracle = VecIndex::<2>::new();
    let half = pts.len() / 2;
    // insert half, delete a prefix, insert the rest.
    b.insert(&pts[..half]);
    SpatialIndex::insert(&mut oracle, &pts[..half]);
    let want_del = SpatialIndex::delete(&mut oracle, &pts[..cut]);
    prop_assert_eq!(b.delete(&pts[..cut]), want_del, "{}", b.backend_name());
    b.insert(&pts[half..]);
    SpatialIndex::insert(&mut oracle, &pts[half..]);
    prop_assert_eq!(b.len(), oracle.len(), "{}", b.backend_name());

    // Range: exact id equality (sorted-ids contract).
    let got_rows = b.range_batch(std::slice::from_ref(q));
    let want_rows = oracle.range_batch(std::slice::from_ref(q));
    prop_assert_eq!(&got_rows, &want_rows, "{} range", b.backend_name());

    // k-NN: distance profiles must match exactly (lattice distances are
    // exact in f64); ids may differ only among equal-distance ties.
    let queries: Vec<Point2> = pts.iter().step_by(7).copied().collect();
    let got = b.knn_batch(&queries, k);
    let want = oracle.knn_batch(&queries, k);
    for (g_row, w_row) in got.iter().zip(&want) {
        prop_assert_eq!(g_row.len(), w_row.len(), "{} knn len", b.backend_name());
        for (g, w) in g_row.iter().zip(w_row) {
            prop_assert_eq!(g.dist_sq, w.dist_sq, "{} knn dist", b.backend_name());
        }
        // Rows are (dist, id)-ordered: ids must ascend within equal dists.
        for pair in g_row.windows(2) {
            prop_assert!(
                pair[0].dist_sq < pair[1].dist_sq
                    || (pair[0].dist_sq == pair[1].dist_sq && pair[0].id < pair[1].id),
                "{} knn ordering",
                b.backend_name()
            );
        }
    }
    Ok(())
}

type Factory = Box<dyn Fn() -> Box<dyn SpatialIndex<2> + Send + Sync>>;

fn shardable_factories() -> Vec<(&'static str, Factory)> {
    vec![
        (
            "bdl",
            Box::new(|| Box::new(BdlTree::<2>::with_buffer_size(32))),
        ),
        ("zd", Box::new(|| Box::new(ZdTree::<2>::new()))),
    ]
}

/// Replays one interleaved stream and returns the exact answer rows the
/// sharded/unsharded/oracle comparison keys on.
#[allow(clippy::type_complexity)]
fn replay(
    index: &mut dyn SpatialIndex<2>,
    pts: &[Point2],
    cut: usize,
    k: usize,
    boxes: &[Bbox<2>],
) -> (
    usize,
    usize,
    Vec<Vec<pargeo_kdtree::Neighbor>>,
    Vec<Vec<u32>>,
) {
    let half = pts.len() / 2;
    index.insert(&pts[..half]);
    let removed = index.delete(&pts[..cut]);
    index.insert(&pts[half..]);
    let queries: Vec<Point2> = pts.iter().step_by(3).copied().collect();
    (
        removed,
        index.len(),
        index.knn_batch(&queries, k),
        index.range_batch(boxes),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backends_match_oracle_under_churn(
        pts in lattice_points(),
        cut in 0usize..100,
        k in 1usize..8,
        x0 in 0i32..24, y0 in 0i32..24, w in 0i32..24, h in 0i32..24,
    ) {
        let cut = cut % (pts.len() / 2).max(1);
        let q = Bbox {
            min: Point2::new([x0 as f64, y0 as f64]),
            max: Point2::new([(x0 + w) as f64, (y0 + h) as f64]),
        };
        for mut b in backends() {
            churn_and_check(b.as_mut(), &pts, cut, k, &q)?;
        }
    }

    /// Sharded execution is invisible in the answers: for S ∈ {1, 2, 8}
    /// (and at two thread counts) a `ShardedIndex` over any backend
    /// returns *exactly* the rows the unsharded backend returns — global
    /// ids included — and agrees with the brute-force oracle. Queries
    /// sweep the whole lattice (straddling every shard boundary) and `k`
    /// runs past per-shard populations, forcing multi-shard expansion.
    #[test]
    fn sharded_is_answer_identical_to_unsharded_and_oracle(
        pts in lattice_points(),
        cut in 0usize..100,
        k in 1usize..32,
        x0 in 0i32..24, y0 in 0i32..24, w in 0i32..24, h in 0i32..24,
    ) {
        let cut = cut % (pts.len() / 2).max(1);
        let boxes = [
            // A random box plus one straddling the center of the lattice
            // (the top-level Morton split at every shard count).
            Bbox {
                min: Point2::new([x0 as f64, y0 as f64]),
                max: Point2::new([(x0 + w) as f64, (y0 + h) as f64]),
            },
            Bbox {
                min: Point2::new([10.0, 10.0]),
                max: Point2::new([14.0, 14.0]),
            },
        ];
        for threads in [1usize, 2] {
            pargeo_parlay::with_threads(threads, || -> Result<(), TestCaseError> {
                let mut oracle = VecIndex::<2>::new();
                let want = replay(&mut oracle, &pts, cut, k, &boxes);
                for (name, factory) in shardable_factories() {
                    let mut plain = factory();
                    let base = replay(plain.as_mut(), &pts, cut, k, &boxes);
                    // Lattice distances are exact in f64, so the canonical
                    // (distance², id) contract makes full rows comparable.
                    prop_assert_eq!(&base, &want, "{} unsharded vs oracle", name);
                    for s in [1usize, 2, 8] {
                        let mut sharded = ShardedIndex::<2>::new(s, |_| factory());
                        let got = replay(&mut sharded, &pts, cut, k, &boxes);
                        prop_assert_eq!(&got, &base, "{} S={} vs unsharded", name, s);
                    }
                }
                Ok(())
            })?;
        }
    }

    #[test]
    fn answers_are_thread_count_invariant(
        pts in lattice_points(),
        cut in 0usize..100,
        k in 1usize..6,
    ) {
        let cut = cut % (pts.len() / 2).max(1);
        let q = Bbox {
            min: Point2::new([4.0, 4.0]),
            max: Point2::new([20.0, 20.0]),
        };
        for threads in [1usize, 2] {
            pargeo_parlay::with_threads(threads, || -> Result<(), TestCaseError> {
                for mut b in backends() {
                    churn_and_check(b.as_mut(), &pts, cut, k, &q)?;
                }
                Ok(())
            })?;
        }
    }
}

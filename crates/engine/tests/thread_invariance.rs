//! The write paths that fork per shard and per cascade level — the
//! `ShardedIndex` insert/delete fan-out and the `BdlTree` multi-level
//! rebuild — leave the same index behind on four workers as on one: same
//! live set, same k-NN rows — and, inside the tree, the same rows in the
//! same order: every split is a parallel select whose permutation may not
//! depend on who ran its blocks.

use pargeo_bdltree::BdlTree;
use pargeo_datagen::uniform_cube;
use pargeo_engine::{LivePoints, ShardedIndex, SpatialIndex};
use pargeo_geometry::Point;
use pargeo_kdtree::Neighbor;
use pargeo_parlay::with_threads;

/// A churn that makes every insert cascade through several levels (a
/// 64-point buffer under 3 000-point batches) and every delete hit every
/// tree and shard; returns what a reader can observe afterwards.
fn churn(index: &mut dyn SpatialIndex<2>, pts: &[Point<2>]) -> (LivePoints<2>, Vec<Vec<Neighbor>>) {
    for (round, batch) in pts.chunks(3_000).enumerate() {
        index.insert(batch);
        // Delete a stride of what is in so far, old and new levels alike
        // (three of nine residues over the rounds: a third of the points).
        let victims: Vec<Point<2>> = pts[..round * 3_000 + batch.len()]
            .iter()
            .skip(round % 3)
            .step_by(9)
            .copied()
            .collect();
        index.delete(&victims);
    }
    let queries: Vec<Point<2>> = pts.iter().step_by(40).copied().collect();
    (index.live_points(), index.knn_batch(&queries, 5))
}

#[test]
fn shard_fanout_and_bdl_cascade_are_thread_count_invariant() {
    let pts = uniform_cube::<2>(20_000, 18);
    let bdl = || BdlTree::<2>::with_buffer_size(64);
    let builds: [(&str, &(dyn Fn() -> Box<dyn SpatialIndex<2>> + Sync)); 3] = [
        ("bdl", &|| Box::new(bdl())),
        ("sharded-4", &|| {
            Box::new(ShardedIndex::<2>::new(4, |_| Box::new(bdl())))
        }),
        ("sharded-16", &|| {
            Box::new(ShardedIndex::<2>::new(16, |_| Box::new(bdl())))
        }),
    ];
    for (name, build) in builds {
        let run = |threads| with_threads(threads, || churn(build().as_mut(), &pts));
        let (live1, rows1) = run(1);
        let (live4, rows4) = run(4);
        assert!(
            live1.0.len() > 10_000,
            "{name}: the churn keeps most points"
        );
        assert_eq!(live4, live1, "{name}: live_points at 4 threads vs 1");
        assert_eq!(rows4, rows1, "{name}: k-NN rows at 4 threads vs 1");
    }
}

#[test]
fn bdl_cascade_leaves_its_rows_in_the_same_order_at_any_worker_count() {
    let pts = uniform_cube::<2>(20_000, 18);
    let run = |threads| {
        with_threads(threads, || {
            let mut tree = BdlTree::<2>::with_buffer_size(64);
            churn(&mut tree, &pts);
            tree.collect_live()
        })
    };
    let one = run(1);
    assert!(one.len() > 10_000);
    for threads in [2, 4] {
        assert!(
            run(threads) == one,
            "collect_live order at {threads} threads vs 1"
        );
    }
}

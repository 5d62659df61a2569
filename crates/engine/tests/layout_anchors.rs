//! Bit-identicality anchors for the flat-arena/SoA memory layout.
//!
//! The node arenas and columnar point store are pure layout changes:
//! every answer the engine reports must be byte-for-byte what the
//! boxed-node/AoS layout reported. The constants
//! below were captured by replaying the five workload presets (n = 2 000)
//! against the pre-refactor tree and folding every reported id into the
//! driver's order-sensitive checksums. Any layout change that reorders a
//! range report, perturbs a k-NN tie, or drops a point moves a checksum
//! and fails here — across every backend, shard count, and thread count,
//! and through pin/write interleavings.

use pargeo_bdltree::BdlTree;
use pargeo_datagen::{Workload, WorkloadSpec};
use pargeo_engine::{run_workload, ShardedIndex, SpatialIndex, VecIndex};
use pargeo_geometry::{Bbox, Point2};
use pargeo_kdtree::ZdTree;
use proptest::prelude::*;

/// `(preset name, knn_checksum, range_checksum)` from the boxed-node/AoS
/// layout this refactor replaced (presets at n = 2 000, the oracle and
/// every backend × shard count agreed on them then too).
const PRESET_ANCHORS: &[(&str, u64, u64)] = &[
    ("uniform-mixed", 0x72f5d8f67b5b5bb5, 0xed7d1aeb518a54c2),
    ("insert-heavy-IS", 0xdf78db8e1a0932a0, 0x859ff403c4f2feef),
    ("sliding-window", 0x9d09abb6c4d3a5e2, 0x144f3b42c5cc5999),
    ("hotspot-read", 0x46b11f114370f538, 0xf8b1c66a23b6aa49),
    (
        "seed-spreader-churn",
        0xb5581117570e74d6,
        0xcb0a793e464121f6,
    ),
];

fn make(which: usize) -> Box<dyn SpatialIndex<2> + Send + Sync> {
    match which {
        0 => Box::new(BdlTree::<2>::new()),
        _ => Box::new(ZdTree::<2>::new()),
    }
}

#[test]
fn preset_digests_match_pre_refactor_layout() {
    for (spec, &(name, knn, range)) in WorkloadSpec::presets(2_000).iter().zip(PRESET_ANCHORS) {
        assert_eq!(spec.name, name, "preset order changed under the anchors");
        let w: Workload<2> = spec.generate();
        let mut oracle = VecIndex::<2>::new();
        let want = run_workload(&mut oracle, &w);
        assert_eq!(want.digest(), (knn, range), "oracle drifted: {name}");
        for threads in [1usize, 2] {
            pargeo_parlay::with_threads(threads, || {
                for which in 0..2 {
                    let mut b = make(which);
                    let got = run_workload(b.as_mut(), &w);
                    assert_eq!(
                        got.digest(),
                        (knn, range),
                        "{name} backend {which} T={threads}"
                    );
                    let mut s = ShardedIndex::<2>::new(4, |_| make(which));
                    let got = run_workload(&mut s, &w);
                    assert_eq!(
                        got.digest(),
                        (knn, range),
                        "{name} backend {which} S=4 T={threads}"
                    );
                }
            });
        }
    }
}

fn lattice_points() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..24, 0i32..24).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        8..160,
    )
}

type Factory = Box<dyn Fn() -> Box<dyn SpatialIndex<2> + Send + Sync>>;

fn factories() -> Vec<(&'static str, Factory)> {
    vec![
        // A small buffer, so the pinned prefix already spans several
        // levels and the write batches cascade and drain.
        (
            "bdl",
            Box::new(|| Box::new(BdlTree::<2>::with_buffer_size(8))),
        ),
        ("zd", Box::new(|| Box::new(ZdTree::<2>::new()))),
        ("vec", Box::new(|| Box::new(VecIndex::<2>::new()))),
    ]
}

/// `factory`'s backend bare (`shards == 0`) or behind a `shards`-way router.
fn layout(shards: usize, factory: &Factory) -> Box<dyn SpatialIndex<2> + Send + Sync> {
    match shards {
        0 => factory(),
        s => Box::new(ShardedIndex::<2>::new(s, |_| factory())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A view pinned mid-stream answers from the pinned arenas while the
    /// live side keeps inserting and deleting into (possibly rebuilt)
    /// replacement arenas. The pinned answers must equal a brute-force
    /// oracle frozen at the same cut — for every backend, bare and behind
    /// S=1 and S=4 routers, at two thread counts — proving COW pinning
    /// swaps whole arenas and never lets a later epoch's slabs leak into a
    /// view. A pin is a fork, so the other direction holds too: a second
    /// pin taken at the same cut and then written answers like the oracle
    /// replayed through its own writes, and leaves the live index's
    /// answers and every `snapshot()` field, `cow_bytes` included, as they
    /// were.
    #[test]
    fn pinned_views_survive_arena_swaps(
        pts in lattice_points(),
        cut in 0usize..64,
        k in 1usize..6,
    ) {
        let half = pts.len() / 2;
        let cut = cut % half.max(1);
        let queries: Vec<Point2> = pts.iter().step_by(5).copied().collect();
        let boxes = [
            Bbox { min: Point2::new([3.0, 3.0]), max: Point2::new([19.0, 19.0]) },
            Bbox { min: Point2::new([10.0, 10.0]), max: Point2::new([14.0, 14.0]) },
        ];
        // Oracle frozen at the pin point.
        let mut frozen = VecIndex::<2>::new();
        SpatialIndex::insert(&mut frozen, &pts[..half]);
        SpatialIndex::delete(&mut frozen, &pts[..cut]);
        let want_knn = frozen.knn_batch(&queries, k);
        let want_rng = frozen.range_batch(&boxes);
        // The fork's own writes: the unpinned half, then a delete reaching
        // into both the pinned prefix and that half.
        let fork_deletes: Vec<Point2> = pts[cut..].iter().step_by(3).copied().collect();
        let mut forked = frozen.clone();
        SpatialIndex::insert(&mut forked, &pts[half..]);
        SpatialIndex::delete(&mut forked, &fork_deletes);
        let fork_knn = forked.knn_batch(&queries, k);
        let fork_rng = forked.range_batch(&boxes);
        for threads in [1usize, 2] {
            pargeo_parlay::with_threads(threads, || -> Result<(), TestCaseError> {
                for (name, factory) in factories() {
                    for shards in [0usize, 1, 4] {
                        let mut live = layout(shards, &factory);
                        live.insert(&pts[..half]);
                        live.delete(&pts[..cut]);
                        let view = live.pin();
                        let mut fork = live.pin();
                        // Writes to the fork never reach the live index.
                        let (snap, live_knn, live_rng) = (
                            live.snapshot(),
                            live.knn_batch(&queries, k),
                            live.range_batch(&boxes),
                        );
                        fork.insert(&pts[half..]);
                        fork.delete(&fork_deletes);
                        let after = live.snapshot();
                        prop_assert_eq!(
                            (after, after.cow_bytes), (snap, snap.cow_bytes),
                            "{} S={} T={} live snapshot after fork writes", name, shards, threads
                        );
                        prop_assert_eq!(
                            &live.knn_batch(&queries, k), &live_knn,
                            "{} S={} T={} live knn after fork writes", name, shards, threads
                        );
                        prop_assert_eq!(
                            &live.range_batch(&boxes), &live_rng,
                            "{} S={} T={} live range after fork writes", name, shards, threads
                        );
                        // Later epochs: enough churn to trip rebuilds and
                        // BDL cascade reshuffles on the live side.
                        live.insert(&pts[half..]);
                        live.delete(&pts[cut..half]);
                        live.insert(&pts[..half]);
                        let got_rng = view.range_batch(&boxes);
                        prop_assert_eq!(
                            &got_rng, &want_rng,
                            "{} S={} T={} pinned range", name, shards, threads
                        );
                        let got_knn = view.knn_batch(&queries, k);
                        for (g_row, w_row) in got_knn.iter().zip(&want_knn) {
                            prop_assert_eq!(
                                g_row.len(), w_row.len(),
                                "{} S={} T={} pinned knn len", name, shards, threads
                            );
                            for (g, w) in g_row.iter().zip(w_row) {
                                prop_assert_eq!(
                                    g.dist_sq, w.dist_sq,
                                    "{} S={} T={} pinned knn dist", name, shards, threads
                                );
                            }
                        }
                        // The fork answers through its own writes alone.
                        prop_assert_eq!(
                            &fork.range_batch(&boxes), &fork_rng,
                            "{} S={} T={} fork range", name, shards, threads
                        );
                        prop_assert_eq!(
                            &fork.knn_batch(&queries, k), &fork_knn,
                            "{} S={} T={} fork knn", name, shards, threads
                        );
                        prop_assert_eq!(
                            fork.snapshot().live, forked.len(),
                            "{} S={} T={} fork len", name, shards, threads
                        );
                    }
                }
                Ok(())
            })?;
        }
    }
}

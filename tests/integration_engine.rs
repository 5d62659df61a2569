//! Cross-module integration: the unified batch-dynamic engine.
//!
//! One mixed workload (interleaved batch insert / delete / k-NN / range)
//! replays identically over both `SpatialIndex` trees (BDL and Zd), the
//! brute-force `Vec` oracle, and two thread counts; answer digests must
//! match bit-for-bit.

use pargeo::prelude::*;

fn presets_small() -> Vec<WorkloadSpec> {
    WorkloadSpec::presets(4_000)
        .into_iter()
        .map(|mut s| {
            s.batch_size = s.batch_size.min(200);
            s
        })
        .collect()
}

fn backends() -> Vec<Box<dyn SpatialIndex<2>>> {
    vec![
        Box::new(BdlTree::<2>::with_buffer_size(256)),
        Box::new(ZdTree::<2>::new()),
    ]
}

#[test]
fn every_preset_workload_matches_the_oracle_on_every_backend() {
    for spec in presets_small() {
        let w: Workload<2> = spec.generate();
        let mut oracle = VecIndex::<2>::new();
        let want = run_workload(&mut oracle, &w);
        for mut b in backends() {
            let got = run_workload(b.as_mut(), &w);
            assert_eq!(
                got.digest(),
                want.digest(),
                "{}: answer digest diverged on workload {}",
                got.backend,
                spec.name
            );
            assert_eq!(got.final_live, want.final_live, "{}", spec.name);
            assert_eq!(got.deleted, want.deleted, "{}", spec.name);
            assert_eq!(got.knn_results, want.knn_results, "{}", spec.name);
            assert_eq!(got.range_results, want.range_results, "{}", spec.name);
            let s = b.snapshot();
            assert_eq!(s.live, want.final_live);
            assert_eq!(s.deleted as usize, want.deleted);
        }
    }
}

#[test]
fn sharded_engine_replays_every_preset_digest_identically() {
    // The shard dimension of the digest anchors: a ShardedIndex over any
    // backend is a drop-in SpatialIndex, and its workload digests equal
    // the unsharded backend's and the oracle's at every shard count.
    for spec in presets_small() {
        let w: Workload<2> = spec.generate();
        let mut oracle = VecIndex::<2>::new();
        let want = run_workload(&mut oracle, &w);
        for s in [1usize, 2, 8] {
            let sharded: Vec<Box<dyn SpatialIndex<2>>> = vec![
                Box::new(ShardedIndex::<2>::new(s, |_| {
                    Box::new(BdlTree::with_buffer_size(256))
                })),
                Box::new(ShardedIndex::<2>::new(s, |_| Box::new(ZdTree::new()))),
            ];
            for mut b in sharded {
                let got = run_workload(b.as_mut(), &w);
                assert_eq!(
                    got.digest(),
                    want.digest(),
                    "{} S={s}: digest diverged on {}",
                    got.backend,
                    spec.name
                );
                assert_eq!(got.final_live, want.final_live, "{} S={s}", spec.name);
                assert_eq!(got.deleted, want.deleted, "{} S={s}", spec.name);
            }
        }
    }
}

#[test]
fn workload_replay_is_thread_count_invariant() {
    let mut spec = WorkloadSpec::new("threads", Distribution::UniformCube, 3_000, 16);
    spec.seed = 21;
    let w: Workload<3> = spec.generate();
    for mk in [0usize, 1] {
        let reports: Vec<WorkloadReport> = [1usize, 2]
            .iter()
            .map(|&threads| {
                pargeo::parlay::with_threads(threads, || {
                    let mut b: Box<dyn SpatialIndex<3>> = match mk {
                        0 => Box::new(BdlTree::<3>::with_buffer_size(256)),
                        _ => Box::new(ZdTree::<3>::new()),
                    };
                    run_workload(b.as_mut(), &w)
                })
            })
            .collect();
        assert_eq!(
            reports[0].digest(),
            reports[1].digest(),
            "backend {mk}: answers changed with thread count"
        );
        assert_eq!(reports[0].final_live, reports[1].final_live);
    }
}

#[test]
fn range_reads_after_updates_match_the_oracle() {
    // Update both trees and the oracle with the same stream, then serve
    // the same box queries from each: all three answers must coincide.
    let pts = pargeo::datagen::uniform_cube::<2>(3_000, 9);
    let mut oracle = VecIndex::<2>::new();
    let mut bdl = BdlTree::<2>::with_buffer_size(128);
    let mut zd = ZdTree::<2>::new();
    let stream: [(&[Point2], bool); 4] = [
        (&pts[..2_000], true),
        (&pts[..800], false),
        (&pts[2_000..], true),
        (&pts[1_200..1_500], false),
    ];
    for (batch, is_insert) in stream {
        if is_insert {
            SpatialIndex::insert(&mut oracle, batch);
            bdl.insert(batch);
            zd.insert(batch);
        } else {
            let n = SpatialIndex::delete(&mut oracle, batch);
            assert_eq!(bdl.delete(batch), n);
            assert_eq!(zd.delete(batch), n);
        }
    }
    let boxes = pargeo::datagen::uniform_rects::<2>(60, 10, 0.25);
    let want = oracle.range_batch(&boxes);
    assert!(want.iter().any(|row| !row.is_empty()));
    assert_eq!(
        SpatialIndex::range_batch(&bdl, &boxes),
        want,
        "bdl vs oracle"
    );
    assert_eq!(SpatialIndex::range_batch(&zd, &boxes), want, "zd vs oracle");
}

#[test]
fn epoch_stats_trace_the_update_stream() {
    let pts = pargeo::datagen::uniform_cube::<2>(2_000, 4);
    for mut b in backends() {
        b.insert(&pts[..1_000]);
        b.delete(&pts[..250]);
        b.insert(&pts[1_000..]);
        b.delete(&pts[500..750]);
        let s = b.snapshot();
        assert_eq!(s.epoch, 4, "{}", b.backend_name());
        assert_eq!(s.live, 1_500, "{}", b.backend_name());
        assert_eq!(s.inserted, 2_000, "{}", b.backend_name());
        assert_eq!(s.deleted, 500, "{}", b.backend_name());
        // Every tree backend must have built some structure by now.
        assert!(s.rebuilds > 0, "{}", b.backend_name());
    }
}

//! Integration: snapshot-isolated concurrent serving. Every read run is
//! answered from a snapshot pinned at its epoch; with `pipeline(true)` the
//! fan-out overlaps the live write-apply that follows it, and must answer
//! every request stream bit-identically to the same store without overlap,
//! per request and not just by digest, across shard and thread counts —
//! and both must answer like the oracle store. Store snapshots must keep
//! answering their pinned epoch through BDL cascades and out-of-order
//! drops.

use pargeo::prelude::*;
use pargeo::store::digest_responses;

fn to_requests(w: &Workload<2>) -> Vec<Request<2>> {
    let mut reqs = vec![Request::Insert(w.initial.clone())];
    reqs.extend(w.ops.iter().map(|op| match op {
        WorkloadOp::Insert(batch) => Request::Insert(batch.clone()),
        WorkloadOp::Delete(batch) => Request::Delete(batch.clone()),
        WorkloadOp::Knn(queries, k) => Request::Knn {
            queries: queries.clone(),
            k: *k,
        },
        WorkloadOp::Range(boxes) => Request::Range(boxes.clone()),
        WorkloadOp::Derived(d) => match d {
            DerivedOp::Hull => Request::Hull,
            DerivedOp::Seb => Request::Seb,
            DerivedOp::ClosestPair => Request::ClosestPair,
            DerivedOp::Emst => Request::Emst,
            DerivedOp::KnnGraph(k) => Request::KnnGraph { k: *k },
            DerivedOp::DelaunayGraph => Request::DelaunayGraph,
        },
    }));
    reqs
}

/// The stores every sweep runs: the default, the default with a BDL
/// buffer small enough that a 64-point batch cascades (so pins share
/// static trees, not just a copied buffer), and the oracle reference.
fn configs() -> [(&'static str, GeoStoreBuilder<2>); 3] {
    let default = GeoStore::<2>::builder();
    [
        ("bdl", default.clone()),
        ("bdl-x16", default.clone().buffer_size(16)),
        ("vec-oracle", default.backend(Backend::Oracle)),
    ]
}

fn oracle_store() -> GeoStore<2> {
    GeoStore::builder().backend(Backend::Oracle).build()
}

/// Per-request equality with another backend's stream: everything but
/// `Stats`, whose snapshot carries the index's own arena sizes.
fn assert_answers_equal(
    want: &[GeoResult<Response<2>>],
    got: &[GeoResult<Response<2>>],
    ctx: &str,
) {
    assert_eq!(want.len(), got.len(), "{ctx}: response count");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        match (a, b) {
            (Ok(Response::Stats(_)), Ok(Response::Stats(_))) => {}
            _ => assert_eq!(a, b, "{ctx}: response {i} diverged from the oracle"),
        }
    }
}

/// Per-request equality, every variant included — `Stats` too: a read run
/// is pinned after its memo ensure pass with or without overlap, so even
/// epoch/cache counters must match.
fn assert_streams_equal(
    want: &[GeoResult<Response<2>>],
    got: &[GeoResult<Response<2>>],
    ctx: &str,
) {
    assert_eq!(want.len(), got.len(), "{ctx}: response count");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a, b, "{ctx}: response {i} diverged");
    }
    assert_eq!(
        digest_responses(want),
        digest_responses(got),
        "{ctx}: digest"
    );
}

#[test]
fn pipelined_executor_is_bit_identical_on_every_store_preset() {
    // The acceptance sweep: every store preset, every configuration
    // (oracle included), shards ∈ {1, 4}, two thread counts — the
    // pipelined executor's responses equal the epoch-serial planner's,
    // request by request, and the serial planner's equal the oracle's.
    for mut spec in WorkloadSpec::store_presets(1_200) {
        spec.batch_size = spec.batch_size.min(64);
        let w: Workload<2> = spec.generate();
        let reqs = to_requests(&w);
        let reference = oracle_store().execute(&reqs);
        for (name, builder) in configs() {
            for shards in [1usize, 4] {
                let mut serial = builder.clone().shards(shards).build();
                let want = serial.execute(&reqs);
                assert_answers_equal(
                    &reference,
                    &want,
                    &format!("{name} S={shards} preset={}", spec.name),
                );
                for threads in [1usize, 2] {
                    let mut piped = builder
                        .clone()
                        .shards(shards)
                        .threads(threads)
                        .pipeline(true)
                        .build();
                    let got = piped.execute(&reqs);
                    let ctx = format!("{name} S={shards} T={threads} preset={}", spec.name);
                    assert_streams_equal(&want, &got, &ctx);
                    assert_eq!(serial.len(), piped.len(), "{ctx}: final live");
                    assert_eq!(
                        serial.stats().write_epoch,
                        piped.stats().write_epoch,
                        "{ctx}: write epochs"
                    );
                }
            }
        }
    }
}

#[test]
fn pipelined_scripted_stream_with_stats_is_exact() {
    // A hand-scripted stream that exercises what the presets cannot:
    // `Stats` requests landing mid-run (the pinned snapshot must report
    // the serial planner's exact epoch and cache counters), reads before
    // any write, and back-to-back write runs of both kinds.
    let pts = pargeo::datagen::uniform_cube::<2>(1_500, 41);
    let boxes = pargeo::datagen::uniform_rects::<2>(15, 8, 0.3);
    let reqs: Vec<Request<2>> = vec![
        Request::Stats, // read run on the empty store
        Request::Insert(pts[..700].to_vec()),
        Request::Knn {
            queries: pts.iter().step_by(89).copied().collect(),
            k: 6,
        },
        Request::Hull,
        Request::Stats,
        Request::Delete(pts[..200].to_vec()),
        Request::Insert(pts[700..].to_vec()),
        Request::Range(boxes.clone()),
        Request::Hull,
        Request::Hull, // cache hit against the pinned memo
        Request::Emst,
        Request::Stats,
        Request::Delete(pts[900..].to_vec()),
        Request::Knn {
            queries: pts.iter().step_by(53).copied().collect(),
            k: 4,
        },
        Request::DelaunayGraph,
        Request::KnnGraph { k: 3 },
        Request::Stats,
        Request::Insert(vec![]), // no-op write run at the tail
    ];
    let reference = oracle_store().execute(&reqs);
    for (name, builder) in configs() {
        for shards in [1usize, 4] {
            let want = builder.clone().shards(shards).build().execute(&reqs);
            let mut piped = builder.clone().shards(shards).pipeline(true).build();
            let got = piped.execute(&reqs);
            let ctx = format!("{name} S={shards} scripted");
            assert_answers_equal(&reference, &want, &ctx);
            assert_streams_equal(&want, &got, &ctx);
        }
    }
}

#[test]
fn snapshots_survive_rebuilds_compaction_and_out_of_order_drops() {
    // Lifetime regression: snapshots pinned at two different epochs keep
    // answering their own epoch — bit-identically to a frozen oracle
    // store replayed to the same prefix — while the live store's BDL
    // levels cascade, merge and rebuild under them (a 16-point buffer
    // over ~250-point shards), and no matter the drop order.
    let pts = pargeo::datagen::uniform_cube::<2>(2_000, 43);
    let queries: Vec<Point2> = pts.iter().step_by(71).copied().collect();
    let boxes = pargeo::datagen::uniform_rects::<2>(12, 6, 0.25);

    let mut store = GeoStore::<2>::builder().shards(4).buffer_size(16).build();
    let rebuilds = |s: &GeoStore<2>| s.stats().snapshot.rebuilds;

    // Epoch A: first kilopoint, memo warmed.
    store.insert(&pts[..1_000]);
    store.hull().unwrap();
    let snap_a = store.pin();

    // A frozen reference at epoch A.
    let mut ref_a = oracle_store();
    ref_a.insert(&pts[..1_000]);
    ref_a.hull().unwrap();

    // Epoch B: a delete that collapses subtrees of the pinned levels,
    // plus fresh inserts that cascade into them.
    let built_at_a = rebuilds(&store);
    store.delete(&pts[..600]);
    store.insert(&pts[1_000..]);
    assert!(
        rebuilds(&store) > built_at_a,
        "the live side rebuilt levels"
    );
    let snap_b = store.pin();

    let mut ref_b = oracle_store();
    ref_b.insert(&pts[..1_000]);
    ref_b.hull().unwrap();
    ref_b.delete(&pts[..600]);
    ref_b.insert(&pts[1_000..]);

    // More churn after both pins: the live store moves on.
    store.delete(&pts[1_500..]);
    store.insert(&pargeo::datagen::uniform_cube::<2>(500, 44));

    let reads = [
        Request::Knn {
            queries: queries.clone(),
            k: 5,
        },
        Request::Range(boxes),
        Request::Hull,
        Request::Emst,
    ];
    let check = |snap: &StoreSnapshot<2>, reference: &mut GeoStore<2>, label: &str| {
        assert_eq!(snap.len(), reference.len(), "{label}: live count");
        let (got, want) = (snap.execute(&reads), reference.execute(&reads));
        assert!(got.iter().all(Result::is_ok), "{label}: every read answers");
        assert_eq!(got, want, "{label}: knn, range, hull, emst");
        assert_eq!(
            snap.stats().write_epoch,
            reference.stats().write_epoch,
            "{label}: pinned epoch"
        );
        // Per-shard views report the pinned epoch's partition.
        let pinned: usize = snap.shard_snapshots().iter().map(|s| s.live).sum();
        assert_eq!(pinned, snap.len(), "{label}: shard snapshots partition");
    };

    check(&snap_b, &mut ref_b, "snap B before drops");
    check(&snap_a, &mut ref_a, "snap A before drops");

    // Out-of-order retirement: B (the newer pin) drops first; A must be
    // unaffected. Then the live store keeps serving after both retire.
    drop(snap_b);
    check(&snap_a, &mut ref_a, "snap A after B dropped");
    assert!(snap_a.write_epoch() < store.stats().write_epoch);
    drop(snap_a);
    assert!(store.knn(&queries, 5).is_ok());
}

#[test]
fn derived_kinds_first_asked_of_a_snapshot_use_its_pinned_live_set() {
    // A pin copies no live view and shares none. A derived kind that was
    // not memoised at pin time, first asked of the snapshot after the live
    // store has moved on through insert and delete epochs, must be computed
    // over the *pinned* live set — derived from the pinned index view,
    // whether or not the store already holds a view of its own that it has
    // since edited in place — and so equal what an oracle store replayed to
    // the pin's prefix answers.
    let pts = pargeo::datagen::uniform_cube::<2>(1_400, 48);
    for (name, builder) in configs() {
        for shards in [1usize, 4] {
            for view_built_before_pin in [false, true] {
                let prefix = |store: &mut GeoStore<2>| {
                    store.insert(&pts[..800]);
                    store.delete(&pts[100..250]);
                    if view_built_before_pin {
                        // Derives the store's live view and memoises Seb
                        // — and nothing else.
                        store.seb().unwrap();
                    }
                };
                let mut store = builder.clone().shards(shards).build();
                prefix(&mut store);
                let snap = store.pin();
                store.insert(&pts[800..]);
                store.delete(&pts[..100]);
                store.delete(&pts[900..1_000]);

                let mut frozen = oracle_store();
                prefix(&mut frozen);
                let ctx = format!("{name} S={shards} view_built={view_built_before_pin}");
                assert_eq!(snap.len(), frozen.len(), "{ctx}: live count");
                for req in [
                    Request::Emst,
                    Request::Hull,
                    Request::KnnGraph { k: 3 },
                    Request::Seb,
                ] {
                    let want = frozen.run(req.clone());
                    assert_eq!(snap.answer(&req), want, "{ctx}: {req:?}");
                }
                assert_ne!(snap.len(), store.len(), "{ctx}: the live store moved on");
            }
        }
    }
}

#[test]
fn pinned_views_gauge_tracks_snapshot_lifetimes() {
    let pts = pargeo::datagen::uniform_cube::<2>(400, 45);
    let mut store = GeoStore::<2>::builder().observe(ObsLevel::Metrics).build();
    store.insert(&pts);
    let gauge = store
        .registry()
        .expect("metrics level")
        .gauge("geostore_pinned_views", &[]);
    assert_eq!(gauge.get(), 0);
    let a = store.pin();
    let b = store.pin();
    assert_eq!(gauge.get(), 2);
    drop(a);
    assert_eq!(gauge.get(), 1);
    // A snapshot is immutable: writes through it are typed errors.
    assert_eq!(
        b.answer(&Request::Insert(pts[..2].to_vec())),
        Err(GeoError::BadParameter {
            op: "geostore_snapshot",
            what: "write request against a pinned snapshot",
        })
    );
    drop(b);
    assert_eq!(gauge.get(), 0);

    // A pipelined store retires every snapshot it pins.
    let mut piped = GeoStore::<2>::builder()
        .pipeline(true)
        .observe(ObsLevel::Metrics)
        .build();
    piped.execute(&[
        Request::Insert(pts.to_vec()),
        Request::Hull,
        Request::Delete(pts[..100].to_vec()),
        Request::Knn {
            queries: pts[..5].to_vec(),
            k: 3,
        },
    ]);
    let registry = piped.registry().expect("metrics level");
    assert_eq!(registry.gauge("geostore_pinned_views", &[]).get(), 0);
    let counters = registry.counter_values();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    // Two read runs pinned; the first overlapped the delete epoch that
    // followed it, the trailing one had nothing to overlap.
    assert_eq!(get("geostore_pipeline_runs_total"), 2);
    assert_eq!(get("geostore_pipeline_overlapped_total"), 1);

    // Without overlap every read run still answers from a pin, and drops it
    // before the write that follows: nothing stays pinned, nothing counts as
    // pipelined, and the delete copies nothing on a pin's behalf — where
    // the same stream overlapped pays for the levels its delete hits.
    let reads = [
        Request::Hull,
        Request::Knn {
            queries: pts[..5].to_vec(),
            k: 3,
        },
        Request::Range(vec![Bbox::from_points(&pts[..50])]),
    ];
    let stream = [&reads[..], &[Request::Delete(pts[..100].to_vec())], &reads].concat();
    let cow_bytes = |pipeline: bool| {
        let mut store = GeoStore::<2>::builder()
            .buffer_size(16)
            .pipeline(pipeline)
            .observe(ObsLevel::Metrics)
            .build();
        store.insert(&pts);
        assert!(store.execute(&stream).iter().all(Result::is_ok));
        let registry = store.registry().expect("metrics level");
        assert_eq!(registry.gauge("geostore_pinned_views", &[]).get(), 0);
        let runs = registry.counter("geostore_pipeline_runs_total", &[]).get();
        assert_eq!(runs, if pipeline { 2 } else { 0 });
        let cow = registry
            .counter("geostore_index_cow_bytes_total", &[])
            .get();
        assert_eq!(cow, store.stats().snapshot.cow_bytes);
        cow
    };
    assert_eq!(cow_bytes(false), 0);
    assert!(cow_bytes(true) > 0);
}

#[test]
fn shard_regions_stop_fanning_out_to_vacated_space() {
    // Regression for the bbox-shrink bug: per-shard cumulative bounding
    // boxes used to never shrink after deletes, so range queries kept
    // fanning out into space a delete had vacated. With effective regions
    // recomputed, queries into the vacated half must prune every shard —
    // observed through the engine's visited/pruned counters.
    let near: Vec<Point2> = pargeo::datagen::uniform_cube::<2>(600, 46);
    let far: Vec<Point2> = pargeo::datagen::uniform_cube::<2>(600, 47)
        .into_iter()
        .map(|p| Point2::new([p.coords[0] + 100.0, p.coords[1] + 100.0]))
        .collect();

    let mut store = GeoStore::<2>::builder()
        .shards(4)
        .observe(ObsLevel::Metrics)
        .build();
    store.insert(&near);
    store.insert(&far);

    // Vertical strips tiling the far cluster's bounding box exactly.
    let far_bb = Bbox::from_points(&far);
    let strip = (far_bb.max[0] - far_bb.min[0]) / 8.0;
    let far_boxes: Vec<Bbox<2>> = (0..8)
        .map(|i| {
            let lo = far_bb.min[0] + i as f64 * strip;
            Bbox::from_points(&[
                Point2::new([lo, far_bb.min[1]]),
                Point2::new([lo + strip, far_bb.max[1]]),
            ])
        })
        .collect();
    // Sanity: before the delete the far boxes do reach live shards.
    let hits: usize = store.range(&far_boxes).unwrap().iter().map(Vec::len).sum();
    assert_eq!(hits, far.len(), "far boxes tile the far cluster");

    let registry = store.registry().expect("metrics level").clone();
    let visited = || {
        registry
            .counter_values()
            .iter()
            .filter(|(k, _)| k.starts_with("shard_range_visited_total"))
            .map(|(_, v)| *v)
            .sum::<u64>()
    };
    store.delete(&far);
    assert_eq!(store.len(), near.len());

    // Every shard's effective region has contracted to the near cluster:
    // the same far boxes must now prune everywhere — zero shard visits,
    // zero hits.
    let before = visited();
    let rows = store.range(&far_boxes).unwrap();
    assert!(
        rows.iter().all(Vec::is_empty),
        "vacated space has no points"
    );
    assert_eq!(
        visited(),
        before,
        "range fan-out visited a shard whose region no longer intersects"
    );

    // And the near cluster still answers exactly.
    let near_box = Bbox::from_points(&near);
    let ids = store.range(std::slice::from_ref(&near_box)).unwrap();
    assert_eq!(ids[0].len(), near.len());
}

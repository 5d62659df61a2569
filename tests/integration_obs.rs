//! Observability integration: observation must never touch answers.
//!
//! The contract under test: a `GeoStore` built with `.observe(..)` at any
//! level serves **bit-identical** answers (and digests) to an unobserved
//! store and to the oracle store, at every shard count — while, when on, its registry
//! reports non-empty per-class latency histograms, per-shard routing
//! counters that sum to the store totals, and memo-path counters/spans
//! that mirror `CacheStats` exactly.

use pargeo::prelude::*;

fn workload() -> Workload<2> {
    let specs = WorkloadSpec::store_presets(600);
    specs[0].generate()
}

fn make(backend: Backend, shards: usize, level: ObsLevel) -> GeoStore<2> {
    let mut b = GeoStore::<2>::builder().backend(backend).observe(level);
    if shards > 0 {
        b = b.shards(shards);
    }
    b.build()
}

#[test]
fn observe_levels_never_perturb_digests() {
    let w = workload();
    let reference = run_store_workload(&mut make(Backend::Oracle, 0, ObsLevel::Off), &w);
    // 0 = unsharded executor; 1 and 4 = morton-routed shard counts.
    for shards in [0usize, 1, 4] {
        let mut off = make(Backend::Bdl, shards, ObsLevel::Off);
        assert!(off.registry().is_none());
        assert_eq!(off.obs_level(), ObsLevel::Off);
        let want = run_store_workload(&mut off, &w);
        assert_eq!(want.digest, reference.digest, "S={shards} vs the oracle");
        for level in [ObsLevel::Metrics, ObsLevel::Trace] {
            let mut on = make(Backend::Bdl, shards, level);
            assert_eq!(on.obs_level(), level);
            let got = run_store_workload(&mut on, &w);
            assert_eq!(
                got.digest, want.digest,
                "observe({level:?}) perturbed the digest: S={shards}"
            );
            assert_eq!(got.errors, want.errors, "S={shards}");
            assert_eq!(got.final_live, want.final_live, "S={shards}");
            assert_eq!(got.cache, want.cache, "S={shards}");
        }
    }
}

#[test]
fn per_shard_counters_sum_to_store_totals() {
    let w = workload();
    let mut store = make(Backend::Bdl, 4, ObsLevel::Metrics);
    let r = run_store_workload(&mut store, &w);
    let stats = store.stats();

    // Per-shard snapshots partition the aggregate snapshot.
    let snaps = store.shard_snapshots();
    assert_eq!(snaps.len(), 4);
    assert_eq!(snaps.iter().map(|s| s.live).sum::<usize>(), store.len());
    assert_eq!(
        snaps.iter().map(|s| s.inserted).sum::<u64>(),
        stats.snapshot.inserted
    );
    assert_eq!(r.shard_live.iter().sum::<usize>(), r.final_live);
    assert_eq!(r.shard_live.len(), 4);

    let counters = store.registry().expect("metrics level").counter_values();
    let sum_of = |prefix: &str| -> u64 {
        counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    };
    // Every inserted point is routed to exactly one shard.
    assert_eq!(sum_of("shard_routed_points_total"), stats.snapshot.inserted);
    // The epoch counter tracks the planner's write epochs.
    assert_eq!(sum_of("geostore_write_epochs_total"), stats.write_epoch);
    // One request counter tick per request served (initial load + ops).
    assert_eq!(sum_of("geostore_requests_total"), (1 + w.ops.len()) as u64);
    // Memo counters mirror CacheStats in aggregate.
    let memo = |path: &str| sum_of(&format!("geostore_memo_total{{path=\"{path}\"}}"));
    assert_eq!(memo("hit"), stats.cache.hits);
    assert_eq!(memo("spared"), stats.cache.spared);
    assert_eq!(
        memo("fresh") + memo("incremental") + memo("rebuilt"),
        stats.cache.misses
    );
}

#[test]
fn memo_path_spans_and_counters_mirror_cache_stats() {
    let pts = pargeo::datagen::uniform_cube::<2>(400, 9);
    let mut store: GeoStore<2> = GeoStore::builder().observe(ObsLevel::Trace).build();
    store.insert(&pts[..300]);
    store.delaunay_graph().unwrap(); // fresh compute
    store.delaunay_graph().unwrap(); // cache hit
    store.insert(&pts[300..]); // insert-only epoch: engine survives
    store.delaunay_graph().unwrap(); // incremental apply
    store.delete(&pts[..10]); // delete epoch: rebuild pending
    store.delaunay_graph().unwrap(); // rebuild fallback
    store.insert(&[]); // no-op write: spared
    let cache = store.stats().cache;
    assert_eq!(
        (
            cache.hits,
            cache.misses,
            cache.incremental,
            cache.rebuilds,
            cache.spared
        ),
        (1, 3, 1, 1, 1),
        "scenario drifted; span assertions below assume this shape"
    );

    let registry = std::sync::Arc::clone(store.registry().expect("trace level"));
    let counters = registry.counter_values();
    let memo = |path: &str| {
        counters
            .iter()
            .find(|(k, _)| k == &format!("geostore_memo_total{{path=\"{path}\"}}"))
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(memo("fresh"), 1);
    assert_eq!(memo("incremental"), cache.incremental);
    assert_eq!(memo("rebuilt"), cache.rebuilds);
    assert_eq!(memo("hit"), cache.hits);
    assert_eq!(memo("spared"), cache.spared);

    // The trace ring holds one MemoPath-labeled derived_memo span per
    // compute (hits never open a compute span), in execution order.
    let events = registry.trace_events();
    let paths: Vec<String> = events
        .iter()
        .filter(|e| e.scope == "derived_memo")
        .filter_map(|e| {
            e.labels
                .iter()
                .find(|(k, _)| *k == "path")
                .map(|(_, v)| v.clone())
        })
        .collect();
    assert_eq!(paths, ["fresh", "incremental", "rebuilt"]);
    // Every serve-path phase appears as a span scope.
    for scope in ["plan_coalesce", "write_apply", "read_fanout"] {
        assert!(
            events.iter().any(|e| e.scope == scope),
            "no {scope} span traced"
        );
    }
    // Non-empty per-class latency histograms for the exercised classes.
    let derived = registry.histogram("geostore_request_nanos", &[("class", "derived")]);
    assert_eq!(derived.count(), 4, "one sample per Delaunay request");
    let insert = registry.histogram("geostore_request_nanos", &[("class", "insert")]);
    assert!(insert.count() >= 3);
    store.knn(&pts[..2], 3).unwrap();
    let knn = registry.histogram("geostore_request_nanos", &[("class", "knn")]);
    assert_eq!(knn.count(), 1);
    assert!(knn.summary().p99 >= knn.summary().p50);

    // The renderings stay well-formed with live data in them.
    let prom = registry.render_prometheus();
    assert!(prom.contains("# TYPE geostore_requests_total counter"));
    assert!(prom.contains("# TYPE geostore_request_nanos histogram"));
    assert!(prom.contains("geostore_request_nanos_bucket"));
    let json = registry.render_json();
    assert!(json.contains("\"histograms\""));
    assert!(json.contains("derived"));
}

//! The GeoStore façade — a serving-style scenario: one store owns the
//! point set plus a batch-dynamic index and answers *mixed* traffic
//! (inserts, deletes, k-NN, range, and whole-dataset analytics like hull /
//! EMST / Delaunay) through one typed Request/Response surface. Shows the
//! epoch planner coalescing writes, the memo cache absorbing repeated
//! analytics between writes, typed errors on degenerate input, and an
//! observed (`.observe(..)`) 4-shard store whose metrics registry
//! `PARGEO_OBS_DUMP=1` prints for `scripts/check_obs_dump.py`.
//!
//! ```sh
//! cargo run --release --example geostore
//! ```

use pargeo::datagen::uniform_cube;
use pargeo::prelude::*;
use std::time::Instant;

fn main() {
    let n = std::env::var("PARGEO_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000usize);
    let pts = uniform_cube::<2>(n, 21);
    println!("== GeoStore: mixed serving over {n} points ==\n");

    // The default store serves from the paper's BDL-tree.
    let mut store: GeoStore<2> = GeoStore::builder().build();
    let t = Instant::now();
    store.insert(&pts);
    let load = t.elapsed();

    // A mixed batch through the epoch planner: the two deletes
    // coalesce into one index batch, the reads fan out data-parallel.
    let queries: Vec<Point2> = pts.iter().step_by(101).copied().collect();
    let t = Instant::now();
    let responses = store.execute(&[
        Request::Delete(pts[..n / 10].to_vec()),
        Request::Delete(pts[n / 10..n / 5].to_vec()),
        Request::Knn {
            queries: queries.clone(),
            k: 8,
        },
        Request::Hull,
        Request::Seb,
        Request::ClosestPair,
    ]);
    let mixed = t.elapsed();
    assert!(responses.iter().all(|r| r.is_ok()));

    // Analytics between writes are cache hits.
    let t = Instant::now();
    let h1 = store.hull().unwrap();
    let h2 = store.hull().unwrap();
    let cached = t.elapsed();
    assert_eq!(h1, h2);

    let stats = store.stats();
    println!(
        "{:<8} load {:>8.1?}  mixed batch {:>8.1?}  2x cached hull {:>8.1?}  \
         live {}  epochs {}  cache {}/{} hit/miss",
        store.backend().label(),
        load,
        mixed,
        cached,
        store.len(),
        stats.write_epoch,
        stats.cache.hits,
        stats.cache.misses,
    );

    // Sharded execution: the same index behind a morton-prefix router.
    // Writes apply in parallel across shards, reads fan out only to the
    // shards whose region can contribute — and the answers (here: the
    // k-NN rows of the same queries) are bit-identical to the unsharded
    // store's at every shard count.
    println!("\n== Sharded spatial core ==\n");
    let mut unsharded: GeoStore<2> = GeoStore::builder().build();
    unsharded.insert(&pts);
    let want = unsharded.knn(&queries, 8).unwrap();
    for shards in [1usize, 4, 16] {
        let mut store: GeoStore<2> = GeoStore::builder().shards(shards).build();
        let t = Instant::now();
        store.insert(&pts);
        let load = t.elapsed();
        let t = Instant::now();
        let got = store.knn(&queries, 8).unwrap();
        let knn = t.elapsed();
        assert_eq!(got, want, "sharded answers diverged");
        println!(
            "shards {:>2}  load {:>8.1?}  knn batch {:>8.1?}  (answers identical)",
            store.shard_count(),
            load,
            knn,
        );
    }

    // Observe the serve path: a mixed-serving preset replayed on a 4-shard
    // store at `ObsLevel::Trace` leaves a registry of per-class latency
    // histograms, memo-path and per-shard counters, and a ring of span
    // events (answers are bit-identical at every level —
    // `tests/integration_obs.rs`). PARGEO_OBS_DUMP=1 prints the registry
    // (JSON, then Prometheus text) between the markers CI's exposition
    // check parses.
    println!("\n== Observed serve path ==\n");
    let spec = &WorkloadSpec::store_presets((n / 10).max(500))[0];
    let mut observed: GeoStore<2> = GeoStore::builder()
        .shards(4)
        .observe(ObsLevel::Trace)
        .build();
    let report = run_store_workload(&mut observed, &spec.generate());
    let registry = observed.registry().expect("observed store has a registry");
    let derived = registry
        .histogram("geostore_request_nanos", &[("class", "derived")])
        .summary();
    println!(
        "{}: {} live points at the end, {} span events traced, {} derived requests at p50 {:.3} ms / p99 {:.3} ms",
        spec.name,
        report.final_live,
        registry.trace_events().len(),
        derived.count,
        derived.p50_ms(),
        derived.p99_ms(),
    );
    if std::env::var("PARGEO_OBS_DUMP").is_ok() {
        println!("--- obs json ---");
        println!("{}", registry.render_json());
        println!("--- obs prometheus ---");
        println!("{}", registry.render_prometheus());
        println!("--- obs end ---");
    }

    // Degenerate input is a typed error, never a panic.
    let mut empty: GeoStore<2> = GeoStore::builder().build();
    println!("\nhull of empty store  -> {}", empty.hull().unwrap_err());
    println!(
        "knn with k too large -> {}",
        empty.knn(&pts[..1], 3).unwrap_err()
    );
    let line: Vec<Point2> = (0..10).map(|i| Point2::new([i as f64, i as f64])).collect();
    empty.insert(&line);
    println!("hull of collinear set-> {}", empty.hull().unwrap_err());
}

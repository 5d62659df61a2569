//! Mixed-serving sweep of the GeoStore façade: the default (BDL-tree)
//! store × every store workload preset (mixed serving, analytics-heavy,
//! churn + analytics, hotspot reads, seed-spreader) × T1/Tp thread
//! counts. Each preset mixes index updates, spatial queries,
//! and whole-dataset derived structures (hull, SEB, closest pair, EMST,
//! k-NN graph, Delaunay), so the epoch planner and the per-epoch memo
//! cache are on the measured path. Answer digests are asserted equal to
//! the brute-force oracle store's at 1/10 scale, unsharded and 4-sharded.
//! Scale with `PARGEO_N` (initial load is `n/2`).

use pargeo::prelude::*;
use pargeo_bench::{env_n, header, max_threads, t1_tp};

fn main() {
    let n = env_n(50_000);
    let p = max_threads();
    println!(
        "# GeoStore façade — mixed serving + analytics, initial = {}, Tp at {p} threads\n",
        n / 2
    );

    // Correctness anchor at 1/10 scale: the default store vs the oracle
    // store, unsharded and through the morton-routed 4-shard executor
    // (the full shard sweep lives in the `shard_sweep` binary).
    let small = WorkloadSpec::store_presets((n / 10).max(500));
    for spec in &small {
        let w: Workload<2> = spec.generate();
        let mut oracle: GeoStore<2> = GeoStore::builder().backend(Backend::Oracle).build();
        let want = run_store_workload(&mut oracle, &w);
        let mut store: GeoStore<2> = GeoStore::builder().build();
        let got = run_store_workload(&mut store, &w);
        assert_eq!(
            got.digest, want.digest,
            "{} diverged from oracle on {}",
            got.backend, spec.name
        );
        assert_eq!(got.errors, want.errors, "{}", spec.name);
        let mut sharded: GeoStore<2> = GeoStore::builder().shards(4).build();
        let got = run_store_workload(&mut sharded, &w);
        assert_eq!(
            got.digest, want.digest,
            "{} S=4 diverged from oracle on {}",
            got.backend, spec.name
        );
    }
    println!(
        "anchor: {} small-scale workloads match the oracle store (S in {{1, 4}})\n",
        small.len()
    );

    // Observability anchor: the same preset served with `.observe(..)`
    // on must produce a bit-identical digest, non-empty per-class latency
    // histograms, and memo-path counters that mirror CacheStats. Set
    // PARGEO_OBS_DUMP=1 to dump the rendered registry (JSON then
    // Prometheus text) for external validation.
    {
        let spec = &small[0];
        let w: Workload<2> = spec.generate();
        let mut plain: GeoStore<2> = GeoStore::builder().build();
        let want = run_store_workload(&mut plain, &w);
        let mut observed: GeoStore<2> = GeoStore::builder()
            .shards(4)
            .observe(ObsLevel::Trace)
            .build();
        let got = run_store_workload(&mut observed, &w);
        assert_eq!(
            got.digest, want.digest,
            "observe(Trace) perturbed the digest on {}",
            spec.name
        );
        let registry = observed.registry().expect("observed store has a registry");
        let counters = registry.counter_values();
        let memo_compute: u64 = counters
            .iter()
            .filter(|(key, _)| {
                key.starts_with("geostore_memo_total")
                    && ["fresh", "incremental", "rebuilt"]
                        .iter()
                        .any(|p| key.contains(&format!("path=\"{p}\"")))
            })
            .map(|(_, v)| *v)
            .sum();
        let cache = observed.stats().cache;
        assert_eq!(
            memo_compute, cache.misses,
            "memo-path counters diverged from CacheStats"
        );
        println!(
            "obs anchor: observe(Trace) digest-identical on {}; {} span events traced, read p50 {:.3} ms / p99 {:.3} ms",
            spec.name,
            registry.trace_events().len(),
            got.read_lat.p50_ms(),
            got.read_lat.p99_ms(),
        );
        if std::env::var("PARGEO_OBS_DUMP").is_ok() {
            println!("--- obs json ---");
            println!("{}", registry.render_json());
            println!("--- obs prometheus ---");
            println!("{}", registry.render_prometheus());
            println!("--- obs end ---");
        }
    }
    println!();

    header(&[
        "Scenario",
        "Backend",
        "Shards",
        "T1 (s)",
        "Tp (s)",
        "Speedup",
        "Derived",
        "Cache h/m",
        "Read p50 (ms)",
        "Read p99 (ms)",
        "Derived p50 (ms)",
        "Derived p99 (ms)",
    ]);
    for spec in WorkloadSpec::store_presets(n) {
        let w: Workload<2> = spec.generate();
        // One untimed run supplies the counters and latency percentiles.
        let full = run_store_workload(&mut GeoStore::builder().build(), &w);
        let (t1, tp, speedup) = t1_tp(|| {
            let mut store: GeoStore<2> = GeoStore::builder().build();
            run_store_workload(&mut store, &w).final_live
        });
        println!(
            "| {} | {} | {} | {t1:.3} | {tp:.3} | {speedup:.2}x | {} | {}/{} | {:.3} | {:.3} | {:.3} | {:.3} |",
            spec.name,
            full.backend,
            full.shards,
            full.ops.4,
            full.cache.hits,
            full.cache.misses,
            full.read_lat.p50_ms(),
            full.read_lat.p99_ms(),
            full.derived_lat.p50_ms(),
            full.derived_lat.p99_ms(),
        );
    }
}

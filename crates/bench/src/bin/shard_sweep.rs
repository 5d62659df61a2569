//! Sharded-store sweep: the default (BDL-tree) store × shard counts
//! {1, 4, 16} × every store workload preset (including the
//! `hotspot-shard` write-skew stressor) × T1/Tp thread counts, through the
//! GeoStore façade's morton-routed `ShardedIndex` executor. Cross-shard
//! digest anchors make every timed run a correctness run: at full scale
//! each sharded digest must equal the unsharded store's, and at 1/10 scale
//! everything must equal the brute-force oracle store. Sharding pays off
//! with cores (parallel per-shard write batches, pruned read fan-out);
//! on a single-core container Tp ≈ T1 and the anchor is the point.
//! Scale with `PARGEO_N` (initial load is `n/2`).

use pargeo::prelude::*;
use pargeo_bench::{env_n, header, max_threads, t1_tp};

const SHARDS: [usize; 3] = [1, 4, 16];

fn make(backend: Backend, shards: usize) -> GeoStore<2> {
    let b = GeoStore::builder().backend(backend);
    match shards {
        0 => b.build(),
        s => b.shards(s).build(),
    }
}

fn main() {
    let n = env_n(50_000);
    let p = max_threads();
    println!(
        "# Sharded GeoStore — morton-routed shard sweep, initial = {}, Tp at {p} threads\n",
        n / 2
    );

    // Correctness anchor at 1/10 scale: every shard count vs the
    // (unsharded) oracle store.
    let small = WorkloadSpec::store_presets((n / 10).max(500));
    for spec in &small {
        let w: Workload<2> = spec.generate();
        let mut oracle = make(Backend::Oracle, 0);
        let want = run_store_workload(&mut oracle, &w);
        for s in SHARDS {
            let mut store = make(Backend::Bdl, s);
            let got = run_store_workload(&mut store, &w);
            assert_eq!(
                got.digest, want.digest,
                "{} S={s} diverged from oracle on {}",
                got.backend, spec.name
            );
            assert_eq!(got.errors, want.errors, "{} S={s}", spec.name);
        }
    }
    println!(
        "anchor: {} small-scale workloads match the oracle store at all shard counts\n",
        small.len()
    );

    header(&[
        "Scenario",
        "Backend",
        "Shards",
        "T1 (s)",
        "Tp (s)",
        "Speedup",
        "Live",
        "Shard live min..max",
        "Read p99 (ms)",
    ]);
    for spec in WorkloadSpec::store_presets(n) {
        let w: Workload<2> = spec.generate();
        // Full-scale cross-shard anchor (outside the timed region):
        // sharding must be invisible in the digest.
        let mut base = make(Backend::Bdl, 0);
        let base_r = run_store_workload(&mut base, &w);
        for s in SHARDS {
            let mut store = make(Backend::Bdl, s);
            let r = run_store_workload(&mut store, &w);
            assert_eq!(
                r.digest, base_r.digest,
                "{} S={s} diverged from unsharded on {}",
                r.backend, spec.name
            );
            let (t1, tp, speedup) = t1_tp(|| {
                let mut store = make(Backend::Bdl, s);
                run_store_workload(&mut store, &w).final_live
            });
            // Router balance: live points per morton shard, as
            // reported by the store's per-shard snapshots.
            debug_assert_eq!(r.shard_live.iter().sum::<usize>(), r.final_live);
            let lo = r.shard_live.iter().min().copied().unwrap_or(0);
            let hi = r.shard_live.iter().max().copied().unwrap_or(0);
            println!(
                "| {} | {} | {s} | {t1:.3} | {tp:.3} | {speedup:.2}x | {} | {lo}..{hi} | {:.3} |",
                spec.name,
                r.backend,
                r.final_live,
                r.read_lat.p99_ms(),
            );
        }
    }
}

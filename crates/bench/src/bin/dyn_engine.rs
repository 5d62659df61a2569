//! Mixed-workload sweep of the unified batch-dynamic engine: both
//! `SpatialIndex` trees (BDL and its Zd comparator) × every named
//! workload preset (uniform mix, insert-heavy IS, sliding window, hotspot
//! reads, seed-spreader churn) × T1/Tp thread counts. Answer digests are asserted
//! equal across backends at full scale, and against the brute-force oracle
//! at 1/10 scale, so every timed run is also a correctness run.
//! Scale with `PARGEO_N` (initial load is `n/2`).

use pargeo::prelude::*;
use pargeo_bench::{env_n, header, max_threads, t1_tp};

fn make_backend(which: usize) -> Box<dyn SpatialIndex<2> + Send + Sync> {
    match which {
        0 => Box::new(BdlTree::<2>::new()),
        _ => Box::new(ZdTree::<2>::new()),
    }
}

const BACKENDS: [&str; 2] = ["bdl", "zd"];

fn main() {
    let n = env_n(50_000);
    let p = max_threads();
    println!(
        "# Batch-dynamic engine — mixed workloads, initial = {}, Tp at {p} threads\n",
        n / 2
    );

    // Correctness anchor at 1/10 scale: every backend vs the Vec oracle,
    // bare and behind the morton-routed 4-shard executor (the full shard
    // sweep lives in the `shard_sweep` binary).
    let small = WorkloadSpec::presets((n / 10).max(500));
    for spec in &small {
        let w: Workload<2> = spec.generate();
        let mut oracle = VecIndex::<2>::new();
        let want = run_workload(&mut oracle, &w);
        for which in 0..BACKENDS.len() {
            let mut b = make_backend(which);
            let got = run_workload(b.as_mut(), &w);
            assert_eq!(
                got.digest(),
                want.digest(),
                "{} diverged from oracle on {}",
                got.backend,
                spec.name
            );
            let mut sharded = ShardedIndex::<2>::new(4, |_| make_backend(which));
            let got = run_workload(&mut sharded, &w);
            assert_eq!(
                got.digest(),
                want.digest(),
                "{} diverged from oracle on {}",
                got.backend,
                spec.name
            );
        }
    }
    println!(
        "anchor: {} small-scale workloads match the brute-force oracle on all backends (S in {{1, 4}})\n",
        small.len()
    );

    header(&[
        "Scenario",
        "Backend",
        "T1 (s)",
        "Tp (s)",
        "Speedup",
        "kNN p50 (ms)",
        "kNN p99 (ms)",
        "Range p99 (ms)",
    ]);
    for spec in WorkloadSpec::presets(n) {
        let w: Workload<2> = spec.generate();
        // Full-scale digests must agree across backends (checked once,
        // outside the timed region); the same untimed runs supply the
        // per-batch latency percentiles.
        let reports: Vec<WorkloadReport> = (0..BACKENDS.len())
            .map(|which| {
                let mut b = make_backend(which);
                run_workload(b.as_mut(), &w)
            })
            .collect();
        assert!(
            reports.windows(2).all(|r| r[0].digest() == r[1].digest()),
            "backends disagree on workload {}",
            spec.name
        );
        for ((which, name), full) in BACKENDS.iter().enumerate().zip(&reports) {
            let (t1, tp, speedup) = t1_tp(|| {
                let mut b = make_backend(which);
                run_workload(b.as_mut(), &w).final_live
            });
            println!(
                "| {} | {name} | {t1:.3} | {tp:.3} | {speedup:.2}x | {:.3} | {:.3} | {:.3} |",
                spec.name,
                full.knn_lat.p50_ms(),
                full.knn_lat.p99_ms(),
                full.range_lat.p99_ms(),
            );
        }
    }
}

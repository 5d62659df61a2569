//! Snapshot-pipelined serving vs the epoch-serial planner: the default
//! (BDL-tree) store × every store workload preset, T1/Tp for both
//! executors. The pipelined executor pins a copy-on-write snapshot per
//! read run and overlaps the run's fan-out with the next write epoch's
//! apply; the overlap ratio column reports how many read runs actually found a write
//! epoch to hide behind (from the `geostore_pipeline_*` counters). Every
//! timed stream is also a correctness run: pipelined responses are
//! asserted per-request identical to the serial executor's at full scale,
//! and both are digest-anchored against the brute-force oracle store at
//! 1/10 scale. Scale with `PARGEO_N` (initial load is `n/2`).

use pargeo::prelude::*;
use pargeo::store::digest_responses;
use pargeo_bench::{env_n, header, max_threads, t1_tp};

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

fn make(backend: Backend, pipeline: bool) -> GeoStore<2> {
    GeoStore::builder()
        .backend(backend)
        .pipeline(pipeline)
        .build()
}

fn main() {
    let n = env_n(50_000);
    let p = max_threads();
    println!(
        "# Snapshot pipeline — epoch-pinned reads over live writes, initial = {}, Tp at {p} threads\n",
        n / 2
    );

    // Correctness anchor at 1/10 scale: pipelined responses equal the
    // serial planner's per request, and both match the oracle store's
    // digest, for every preset.
    let small = WorkloadSpec::store_presets((n / 10).max(500));
    for spec in &small {
        let w: Workload<2> = spec.generate();
        let reqs = to_requests(&w);
        let mut oracle = make(Backend::Oracle, false);
        let want_digest = digest_responses(&oracle.execute(&reqs));
        let serial = make(Backend::Bdl, false).execute(&reqs);
        let piped = make(Backend::Bdl, true).execute(&reqs);
        assert_eq!(serial.len(), piped.len(), "response count on {}", spec.name);
        for (i, (a, b)) in serial.iter().zip(&piped).enumerate() {
            assert_eq!(a, b, "pipelined response {i} diverged on {}", spec.name);
        }
        assert_eq!(
            digest_responses(&serial),
            want_digest,
            "serial diverged from oracle on {}",
            spec.name
        );
    }
    println!(
        "anchor: {} small-scale presets pipelined == serial per request, oracle-anchored\n",
        small.len()
    );

    header(&[
        "Scenario",
        "Backend",
        "Serial T1 (s)",
        "Serial Tp (s)",
        "Piped T1 (s)",
        "Piped Tp (s)",
        "Piped/Serial Tp",
        "Overlap",
        "Pinned end",
    ]);
    for spec in WorkloadSpec::store_presets(n) {
        let w: Workload<2> = spec.generate();
        let reqs = to_requests(&w);
        let (s1, sp, _) = t1_tp(|| make(Backend::Bdl, false).execute(&reqs).len());
        let (p1, pp, _) = t1_tp(|| make(Backend::Bdl, true).execute(&reqs).len());

        // Overlap ratio from an observed (untimed) pipelined run; the
        // pinned-view gauge must be back to zero when the stream ends.
        let mut observed: GeoStore<2> = GeoStore::builder()
            .pipeline(true)
            .observe(ObsLevel::Metrics)
            .build();
        observed.execute(&reqs);
        let registry = observed.registry().expect("observed store");
        let counter = |name: &str| {
            registry
                .counter_values()
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let runs = counter("geostore_pipeline_runs_total");
        let overlapped = counter("geostore_pipeline_overlapped_total");
        let pinned_end = registry.gauge("geostore_pinned_views", &[]).get();
        assert_eq!(pinned_end, 0, "pipelined executor leaked a pinned view");

        println!(
            "| {} | {} | {s1:.3} | {sp:.3} | {p1:.3} | {pp:.3} | {:.2}x | {overlapped}/{runs} | {pinned_end} |",
            spec.name,
            Backend::Bdl.label(),
            sp / pp,
        );
    }
}

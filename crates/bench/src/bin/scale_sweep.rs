//! Large-n trajectory: build/query throughput and peak RSS for the
//! BDL-tree and its Zd comparator at n ∈ {10^5, 10^6, 10^7} (the ROADMAP's
//! three-orders-of-magnitude ladder; `PARGEO_SCALE=full` enables the 10^7
//! tier, the default stops at 10^6, `smoke` at 10^5).
//!
//! Every timed run is also a correctness run, twice over: per tier, the
//! answer digests must agree across all backends, and against the
//! hard-coded [`ANCHORS`] captured from the pre-arena pointer layouts —
//! the proof that the flat arena + SoA refactor is bit-identical at every
//! scale, not just at test size. The 10^5 tier is additionally checked
//! against the brute-force oracle.

use pargeo::datagen::uniform_cube_range;
use pargeo::prelude::*;
use pargeo_bench::scale;
use pargeo_bench::{header, max_threads, time};

fn make_backend(which: usize) -> Box<dyn SpatialIndex<2> + Send + Sync> {
    match which {
        0 => Box::new(BdlTree::<2>::new()),
        _ => Box::new(ZdTree::<2>::new()),
    }
}

const BACKENDS: [&str; 2] = ["bdl", "zd"];

/// Per-tier answer digests `(n, knn, range)` captured from the
/// pre-refactor (pointer-layout, array-of-structs) backends. The sweep
/// asserts today's layouts still produce them — see scale::tests for the
/// frozen-workload guarantee that makes the comparison meaningful.
const ANCHORS: &[(usize, u64, u64)] = &[
    (100_000, 0x8682b334203acec7, 0x070915a5e24599f3),
    (1_000_000, 0x3294d77052040977, 0x9858849acee20516),
    (10_000_000, 0xc2cbd0d88b086abc, 0xad74ba5e2d1786c6),
];

fn main() {
    let tiers = scale::tiers();
    let p = max_threads();
    println!(
        "# Scale sweep — backends at n up to 10^7, chunked ingest of {} per batch, {p} threads\n",
        scale::CHUNK
    );
    header(&[
        "n",
        "Backend",
        "Build (s)",
        "Build Mpt/s",
        "kNN (s)",
        "kNN q/s",
        "Range (s)",
        "Range q/s",
        "Peak RSS (MB)",
    ]);

    let rss_resets = scale::reset_peak_rss();
    for &n in &tiers {
        let queries = scale::knn_queries(n);
        let boxes = scale::range_boxes(n);
        let mut digests: Vec<(u64, u64)> = Vec::new();
        for (which, name) in BACKENDS.iter().enumerate() {
            scale::reset_peak_rss();
            let mut b = make_backend(which);
            let mut build_secs = 0.0;
            let mut start = 0;
            while start < n {
                let end = (start + scale::CHUNK).min(n);
                let chunk = uniform_cube_range::<2>(n, scale::DATA_SEED, start..end);
                let (_, s) = time(|| b.insert(&chunk));
                build_secs += s;
                start = end;
            }
            assert_eq!(b.len(), n, "{name} lost points");
            let (knn_rows, knn_secs) = time(|| b.knn_batch(&queries, scale::KNN_K));
            let (range_rows, range_secs) = time(|| b.range_batch(&boxes));
            digests.push((
                scale::knn_digest(&knn_rows),
                scale::range_digest(&range_rows),
            ));
            let peak = scale::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
            println!(
                "| {n} | {name} | {build_secs:.3} | {:.2} | {knn_secs:.3} | {:.0} | {range_secs:.3} | {:.0} | {peak:.0} |",
                n as f64 / build_secs / 1e6,
                queries.len() as f64 / knn_secs,
                boxes.len() as f64 / range_secs,
            );
        }
        assert!(
            digests.windows(2).all(|d| d[0] == d[1]),
            "backends disagree at n={n}: {digests:x?}"
        );
        let (knn, range) = digests[0];
        if let Some(&(_, k0, r0)) = ANCHORS.iter().find(|&&(m, ..)| m == n) {
            assert_eq!(
                (knn, range),
                (k0, r0),
                "n={n}: digests diverged from the pre-arena pointer layouts"
            );
        }
        println!(
            "anchor: n={n} digests knn=0x{knn:016x} range=0x{range:016x} equal across {BACKENDS:?}"
        );
    }

    // Oracle anchor at the smallest tier: the digests above are not just
    // self-consistent but correct.
    let n = scale::TIERS[0];
    let mut oracle = VecIndex::<2>::new();
    oracle.insert(&uniform_cube_range::<2>(n, scale::DATA_SEED, 0..n));
    let knn = scale::knn_digest(&oracle.knn_batch(&scale::knn_queries(n), scale::KNN_K));
    let range = scale::range_digest(&SpatialIndex::range_batch(&oracle, &scale::range_boxes(n)));
    if let Some(&(_, k0, r0)) = ANCHORS.iter().find(|&&(m, ..)| m == n) {
        assert_eq!((knn, range), (k0, r0), "oracle disagrees with anchors");
    }
    println!("anchor: n={n} brute-force oracle digests knn=0x{knn:016x} range=0x{range:016x}");
    if !rss_resets {
        println!("note: peak-RSS watermark reset unavailable; RSS column is monotone");
    }
}

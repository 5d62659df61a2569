//! Scheduler sweep (DESIGN.md §2.8, EXPERIMENTS.md "sched_sweep"): the
//! work-stealing pool under two workloads at worker counts {1, 2, 4},
//! each on a dedicated pool so [`SchedStats`](pargeo::sched::SchedStats)
//! reads as a per-run delta.
//!
//! 1. **Fork-join microbench** — a balanced `parlay::par_do` tree-sum over
//!    `PARGEO_N` leaves with a deliberately non-commutative combine: the
//!    digest is order-sensitive, so a scheduler that perturbed the merge
//!    structure would be caught, not averaged away.
//! 2. **Skewed-shard workload** — per-shard cost grows quadratically with
//!    the shard index, driven through `parlay::reduce` at grain 1 (a task
//!    per shard). A static split would strand the heavy tail on one
//!    worker; stealing is the whole point, and the steal counter is
//!    asserted non-zero at ≥2 workers.
//!
//! Both workloads reduce to a digest asserted identical across all worker
//! counts *before* anything is timed — every timed run is also a
//! correctness run. On a single-core container wall times don't improve with workers;
//! the counters and digest anchors are the reproduction target.

use pargeo::{parlay, sched};
use pargeo_bench::{env_n, header, time_best};

const WORKERS: [usize; 3] = [1, 2, 4];
/// Leaves folded sequentially at the bottom of the fork-join tree.
const LEAF_SPAN: u64 = 64;

/// SplitMix64 finalizer: cheap, statistically decent per-leaf hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Non-commutative, structure-following combine: `combine(a, b)` differs
/// from `combine(b, a)`, so the digest pins the merge order to the
/// recursion tree.
fn combine(a: u64, b: u64) -> u64 {
    mix(a.rotate_left(17) ^ b).wrapping_add(b)
}

/// Balanced fork-join tree-sum over leaves `[lo, hi)` via `par_do`.
/// Each leaf element spins the mixer a few rounds so the tree carries
/// real work, not just task overhead.
fn tree_digest(lo: u64, hi: u64) -> u64 {
    if hi - lo <= LEAF_SPAN {
        return (lo..hi).fold(0u64, |acc, i| {
            let mut h = i;
            for _ in 0..32 {
                h = mix(h);
            }
            combine(acc, h)
        });
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = parlay::par_do(|| tree_digest(lo, mid), || tree_digest(mid, hi));
    combine(a, b)
}

/// One shard's work: spin the mixer for a number of rounds that grows
/// quadratically with the shard index — the imbalance stealing has to
/// absorb.
fn shard_work(i: usize, shards: usize) -> u64 {
    let rounds = 64 + (i * i * 100_000) / (shards * shards);
    let mut h = i as u64;
    for _ in 0..rounds {
        h = mix(h);
    }
    h
}

/// Skewed-shard digest through the loop family, a task per shard. The
/// combine is associative (wrapping add); the per-shard hashes make the
/// digest position-sensitive anyway.
fn skewed_digest(shards: usize) -> u64 {
    parlay::reduce(
        shards,
        1,
        |r| {
            r.map(|i| shard_work(i, shards).wrapping_add((i as u64) << 32))
                .fold(0u64, u64::wrapping_add)
        },
        u64::wrapping_add,
    )
}

fn main() {
    let n = env_n(200_000) as u64;
    let shards = ((n / 64) as usize).clamp(64, 4096);
    println!(
        "# Work-stealing scheduler sweep — fork-join over {n} leaves + {shards} skewed shards\n"
    );

    // Digest anchors, outside the timed region: both workloads must be
    // bit-identical at every worker count.
    let want_tree = sched::Pool::new(1).install(|| tree_digest(0, n));
    let want_skew = sched::Pool::new(1).install(|| skewed_digest(shards));
    for w in WORKERS {
        let p = sched::Pool::new(w);
        assert_eq!(
            p.install(|| tree_digest(0, n)),
            want_tree,
            "fork-join digest perturbed at {w} workers"
        );
        assert_eq!(
            p.install(|| skewed_digest(shards)),
            want_skew,
            "skewed-shard digest perturbed at {w} workers"
        );
    }
    println!("anchor: both workloads are bit-identical at 1, 2 and 4 workers\n");

    header(&[
        "Workload", "Workers", "Time (s)", "Tasks", "Steals", "Parks", "Digest",
    ]);
    let runs: [(&str, &(dyn Fn() -> u64 + Sync)); 2] = [
        ("fork-join", &|| tree_digest(0, n)),
        ("skewed-shard", &|| skewed_digest(shards)),
    ];
    for (name, run) in runs {
        for w in WORKERS {
            // Fresh pool per cell: SchedStats is a lifetime counter, so
            // on a dedicated pool it reads as this cell's delta.
            let p = sched::Pool::new(w);
            let digest = p.install(run); // warmup + per-cell anchor
            assert_eq!(
                digest,
                if name == "fork-join" {
                    want_tree
                } else {
                    want_skew
                }
            );
            let t = time_best(2, || p.install(run));
            let s = p.stats();
            if name == "skewed-shard" && w >= 2 {
                // Acceptance criterion: work actually migrates off the
                // overloaded worker.
                assert!(
                    s.steals_total > 0,
                    "no steals on the skewed-shard workload at {w} workers"
                );
            }
            assert_eq!(s.per_worker_tasks.iter().sum::<u64>(), s.tasks_total);
            println!(
                "| {name} | {w} | {t:.3} | {} | {} | {} | {digest:016x} |",
                s.tasks_total, s.steals_total, s.parks_total
            );
        }
    }
    println!("\nanchor: skewed-shard steal counter non-zero at >=2 workers");
}

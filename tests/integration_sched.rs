//! Scheduler integration (DESIGN.md §2.8): the store's parallelism —
//! including the pipelined executor's read/write overlap — runs on the
//! shared `pargeo-sched` pool, and the pool is digest-invisible at every
//! worker count.

use pargeo::prelude::*;
use pargeo::{parlay, sched};

fn workload() -> Workload<2> {
    let specs = WorkloadSpec::store_presets(600);
    specs[0].generate()
}

/// Sum of every counter sample whose family name starts with `prefix`.
fn sum_of(counters: &[(String, u64)], prefix: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Satellite 1: `pipeline(true)` overlap work executes as tasks on the
/// store's dedicated persistent pool (no ad-hoc threads). The sched
/// counters land in the store's registry because the store attaches it at
/// build time, and they keep growing batch over batch on the same pool —
/// pool-thread reuse, visible through the per-worker counters.
#[test]
fn pipelined_store_runs_on_the_shared_sched_pool() {
    let w = workload();
    let mut store = GeoStore::<2>::builder()
        .threads(2)
        .pipeline(true)
        .observe(ObsLevel::Metrics)
        .build();
    let report = run_store_workload(&mut store, &w);
    assert_eq!(report.errors, 0, "clean preset must serve cleanly");

    let registry = store.registry().expect("metrics level").clone();
    let counters = registry.counter_values();
    let tasks_after_run = sum_of(&counters, "sched_tasks_total");
    assert!(
        tasks_after_run > 0,
        "store parallelism must execute as sched-pool tasks, got none"
    );
    // Overlap actually went through the pipelined executor...
    assert!(sum_of(&counters, "geostore_pipeline_runs_total") > 0);
    // ...and the per-worker breakdown accounts for every task: work ran
    // on the pool's two persistent workers, not on transient threads.
    let per_worker = sum_of(&counters, "sched_worker_tasks_total");
    assert_eq!(per_worker, tasks_after_run);

    // A second batch on the same store reuses the same workers: the
    // registry-backed counters (attached once, at build) keep growing.
    let mut next = workload();
    next.ops.truncate(next.ops.len() / 2);
    let _ = run_store_workload(&mut store, &next);
    let counters = registry.counter_values();
    assert!(
        sum_of(&counters, "sched_tasks_total") > tasks_after_run,
        "subsequent batches must run on the same persistent pool"
    );
}

/// The pool is digest-invisible end to end: the same preset workload
/// digests identically on dedicated pools of 1, 2 and 4 workers, serial
/// and pipelined alike.
#[test]
fn store_digests_are_worker_count_invariant() {
    let w = workload();
    let mut baseline = GeoStore::<2>::builder().threads(1).build();
    let want = run_store_workload(&mut baseline, &w);
    for threads in [2usize, 4] {
        for pipeline in [false, true] {
            let mut store = GeoStore::<2>::builder()
                .threads(threads)
                .pipeline(pipeline)
                .build();
            let got = run_store_workload(&mut store, &w);
            assert_eq!(
                got.digest, want.digest,
                "threads={threads} pipeline={pipeline} perturbed the digest"
            );
            assert_eq!(got.errors, want.errors);
            assert_eq!(got.cache, want.cache);
        }
    }
}

/// The facade exposes the scheduler, and stealing is what it is for: a
/// skewed loop — per-item cost growing quadratically with the index, a
/// task per item through `parlay::reduce` at grain 1, so a static split
/// would strand the heavy tail on one worker — reduces to the same digest
/// on dedicated pools of 1, 2 and 4 workers, migrates work off the
/// overloaded worker at ≥2 (non-zero steal counter), and leaves coherent
/// stats.
#[test]
fn sched_stats_observable_through_facade() {
    const ITEMS: usize = 512;
    fn item_work(i: usize) -> u64 {
        let rounds = 64 + (i * i * 100_000) / (ITEMS * ITEMS);
        (0..rounds).fold(i as u64, |h, _| parlay::mix64(h, 0))
    }
    let skewed = || {
        parlay::reduce(
            ITEMS,
            1,
            |r| {
                r.map(|i| item_work(i).wrapping_add((i as u64) << 32))
                    .fold(0u64, u64::wrapping_add)
            },
            u64::wrapping_add,
        )
    };
    let want = sched::Pool::new(1).install(skewed);
    for workers in [1usize, 2, 4] {
        let pool = sched::Pool::new(workers);
        assert_eq!(pool.install(skewed), want, "digest at {workers} workers");
        let stats = pool.stats();
        assert_eq!(stats.workers, workers);
        assert!(stats.tasks_total > 0);
        assert_eq!(
            stats.per_worker_tasks.iter().sum::<u64>(),
            stats.tasks_total
        );
        if workers >= 2 {
            assert!(
                stats.steals_total > 0,
                "no steals on the skewed loop at {workers} workers"
            );
        }
    }
}

/// The write path still forks where forking pays, counted in tasks on a
/// two-worker pool and not read off a clock. The select runs its two
/// passes a task per block from its cutoff of 2^18 rows — EXPERIMENTS.md
/// has the timings that put it there — and no task below it. Both tree
/// builds fork for their children, boxes and columns from
/// `SEQ_BUILD_CUTOFF` points up, and a build over more points than the
/// select's cutoff runs its root's select in blocks on top of that: its
/// halves' builds and that select's worth of tasks.
#[test]
fn select_and_both_tree_builds_fork_above_their_grain() {
    let n = 300_000;
    let pts = pargeo::datagen::uniform_cube::<2>(n, 7);
    let rows: Vec<(Point2, u32)> = pts.iter().copied().zip(0..).collect();
    // Tasks a fresh two-worker pool ran for `f`, its `install` aside.
    let tasks = |f: &(dyn Fn() + Sync)| {
        let pool = sched::Pool::new(2);
        pool.install(f);
        pool.stats().tasks_total - 1
    };
    let select = |len: usize| {
        let mut a = rows[..len].to_vec();
        parlay::select_nth_unstable_by(&mut a, len / 2, |x, y| x.0[0].total_cmp(&y.0[0]));
    };
    assert_eq!(tasks(&|| select(n / 2)), 0);
    let blocks = n.div_ceil(parlay::GRANULARITY) as u64;
    let one_select = tasks(&|| select(n));
    assert!(one_select >= 2 * (blocks - 1), "{one_select} tasks");
    let kd = |len: usize| tasks(&|| drop(KdTree::build(&pts[..len], SplitRule::ObjectMedian)));
    let level = |len: usize| tasks(&|| drop(LevelTree::build(&rows[..len])));
    // A build hands out at least its sequential subtrees.
    let subtrees = (n / 2 / pargeo::kdtree::tree::SEQ_BUILD_CUTOFF) as u64;
    for (name, whole, half) in [
        ("KdTree", kd(n), kd(n / 2)),
        ("LevelTree", level(n), level(n / 2)),
    ] {
        assert!(
            half >= subtrees,
            "{name}::build of {} points: {half} tasks",
            n / 2
        );
        assert!(
            whole >= 2 * half + one_select,
            "{name}::build: {whole} tasks, {half} for half the points"
        );
    }
}

//! `pargeo-sched`: a persistent work-stealing scheduler.
//!
//! This is the runtime `pargeo-parlay` is written on (and therefore the
//! one under the engines and the store executor): per-worker
//! fixed-capacity [ABP deques](deque) with owner-LIFO push/pop and
//! thief-FIFO steal (a full deque runs the forked closure inline), a
//! global injector for external submission, exponential-backoff
//! parking for idle workers, and a panic-safe [`join`] that propagates
//! payloads to the waiting caller without ever poisoning the pool. See
//! DESIGN.md §2.8 for the architecture and the digest-invisibility
//! argument.
//!
//! The crate has no opinion on granularity: it runs the forks it is
//! given. How finely a loop forks is the caller's statement, made once,
//! as the `grain` argument of the `pargeo-parlay` loop primitives.
//!
//! # Execution model
//!
//! Work enters a pool through [`Pool::install`] (or the global-pool
//! fallback of [`join`]): the closure migrates onto a worker thread, and
//! from there every [`join`] is two deque operations — push the second
//! closure, run the first, pop the second back (or, if a thief took it,
//! help with other work until its latch trips; if the deque was full,
//! run the second inline). `join` running `b`
//! before `a` never happens; `b` stolen and run concurrently is the
//! *only* source of parallelism, which is what makes the scheduling
//! schedule-invisible to deterministic reductions.
//!
//! # Determinism
//!
//! The scheduler never reorders a reduction tree — it only chooses
//! *where* each subtree runs. Any caller whose merge step is
//! shape-independent (all of this workspace's digest-checked reductions
//! are) gets bit-identical results at any worker count and any stealing
//! schedule.

#![warn(missing_docs)]

pub mod deque;
mod job;
mod latch;
mod metrics;
mod pool;

pub use metrics::SchedStats;
pub use pool::{global, BuildError, Pool, PoolBuilder};

use job::{JobResult, StackJob};
use latch::SpinLatch;
use pool::{with_worker, Worker};
use std::panic::{self, AssertUnwindSafe};

/// Number of workers in the calling thread's pool (the global pool's
/// size when called from outside any pool).
pub fn current_num_threads() -> usize {
    with_worker(|w| w.map(Worker::pool_size)).unwrap_or_else(|| global().num_threads())
}

/// Runs `a` and `b`, potentially in parallel (if an idle worker steals
/// `b`), returning both results. Panics in either closure propagate to
/// the caller after *both* closures finished: `a`'s payload wins if both
/// panicked.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    with_worker(|w| match w {
        Some(worker) => join_on(worker, a, b),
        // External thread: migrate the whole join onto the global pool.
        None => global().install(|| join(a, b)),
    })
}

fn join_on<A, B, RA, RB>(worker: &Worker, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let b_job = StackJob::new(SpinLatch::new(), b);
    // SAFETY: this frame outlives the job — it blocks below until the
    // latch is set.
    let b_ref = unsafe { b_job.as_job_ref() };
    let pushed = worker.push(b_ref).is_ok();
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    if !pushed {
        // The deque was full, so no other thread can see b: run it here.
        worker.execute_job(b_ref);
    }
    // Wait for b even if a panicked: b borrows this frame. Prefer popping
    // b back (it is on top unless stolen); a popped job that isn't b
    // belongs to an outer join frame — execute it here, its owner will
    // see the latch.
    loop {
        if b_job.latch.probe() {
            break;
        }
        match worker.pop() {
            Some(job) => {
                let was_b = job == b_ref;
                worker.execute_job(job);
                if was_b {
                    break;
                }
            }
            None => {
                // b was stolen: help with other work until it completes.
                worker.wait_until(&|| b_job.latch.probe());
                break;
            }
        }
    }
    // SAFETY: every way out of the loop above observed the latch set —
    // probed directly, or b ran to completion on this thread.
    let rb = unsafe { b_job.take_result() };
    let ra = match ra {
        Ok(ra) => ra,
        Err(payload) => panic::resume_unwind(payload),
    };
    match rb {
        JobResult::Ok(rb) => (ra, rb),
        JobResult::Panicked(payload) => panic::resume_unwind(payload),
        JobResult::None => unreachable!("join: b signalled completion without a result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_computes_both_sides() {
        let pool = Pool::new(2);
        let (a, b) = pool.install(|| join(|| 6 * 7, || "ok".to_string()));
        assert_eq!((a, b.as_str()), (42, "ok"));
    }

    #[test]
    fn join_panic_priority_is_a_then_b() {
        let pool = Pool::new(2);
        let caught = pool.install(|| {
            panic::catch_unwind(AssertUnwindSafe(|| {
                join(|| panic!("from a"), || panic!("from b"))
            }))
        });
        let payload = caught.expect_err("join must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "from a");
        // Pool still serves work afterwards.
        assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
    }

    /// A seed-shaped reduce: split point, leaf size and merge come from
    /// `seed`, so forking (`par`) or calling in order must give the same
    /// bits. Deeper than the test deque's capacity of 2, so inner joins
    /// find their deque full and run `b` inline.
    fn fold_tree(data: &[u64], seed: u64, depth: u32, par: bool) -> u64 {
        let r = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        if depth == 0 || data.len() <= 1 + (r % 3) as usize {
            return data.iter().fold(r, |acc, &x| acc.rotate_left(5) ^ x);
        }
        let (l, rest) = data.split_at(1 + (r as usize) % (data.len() - 1));
        let left = || fold_tree(l, seed ^ 0xa5a5, depth - 1, par);
        let right = || fold_tree(rest, seed ^ 0x5a5a, depth - 1, par);
        let (a, b) = if par {
            join(left, right)
        } else {
            (left(), right())
        };
        a.wrapping_mul(3) ^ b.rotate_left(seed as u32 % 64)
    }

    #[test]
    fn deep_fork_join_equals_its_sequential_fold() {
        let data: Vec<u64> = (0..700u64).map(|i| i.wrapping_mul(0x100_0193)).collect();
        for seed in [1, 7, 42] {
            let want = fold_tree(&data, seed, 9, false);
            for workers in [1, 2, 4] {
                let got = Pool::new(workers).install(|| fold_tree(&data, seed, 9, true));
                assert_eq!(got, want, "seed {seed}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_full_deque_still_runs_b_and_a_payload_wins() {
        // One worker, so nothing is stolen: the two outer joins fill the
        // deque (capacity 2 under test) and the inner push is refused.
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = Pool::new(1);
        let b_ran = AtomicBool::new(false);
        let caught = pool.install(|| {
            panic::catch_unwind(AssertUnwindSafe(|| {
                join(
                    || {
                        join(
                            || {
                                join(
                                    || panic!("from a"),
                                    || {
                                        b_ran.store(true, Ordering::SeqCst);
                                        panic!("from b")
                                    },
                                )
                            },
                            || (),
                        )
                    },
                    || (),
                )
            }))
        });
        let payload = caught.expect_err("join must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("from a"));
        assert!(b_ran.load(Ordering::SeqCst), "b ran inline");
        assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
    }

    #[test]
    fn install_runs_on_a_named_worker_thread() {
        let pool = Pool::new(1);
        let name = pool.install(|| std::thread::current().name().map(str::to_owned));
        assert_eq!(name.as_deref(), Some("pargeo-sched-0"));
        assert_eq!(pool.stats().workers, 1);
    }

    #[test]
    fn nested_install_same_pool_is_inline() {
        let pool = Pool::new(2);
        let (outer, inner) = pool.install(|| {
            let outer = std::thread::current().id();
            let inner = pool.install(|| std::thread::current().id());
            (outer, inner)
        });
        assert_eq!(outer, inner);
    }

    #[test]
    fn stats_count_tasks_and_respect_worker_count() {
        let pool = Pool::new(4);
        pool.install(|| {
            for _ in 0..100 {
                join(|| (), || ());
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.per_worker_tasks.len(), 4);
        // 1 install + 100 joins, each queueing one b-side job.
        assert!(stats.tasks_total >= 101, "tasks: {}", stats.tasks_total);
        assert_eq!(
            stats.per_worker_tasks.iter().sum::<u64>(),
            stats.tasks_total
        );
    }

    #[test]
    fn install_reuses_persistent_workers() {
        let pool = Pool::new(2);
        let first = pool.install(|| std::thread::current().id());
        let before = pool.stats().tasks_total;
        for _ in 0..10 {
            pool.install(|| ());
        }
        let after = pool.stats().tasks_total;
        assert!(after >= before + 10, "installs must run as pool tasks");
        // Same worker set serves every install (no thread churn): the ids
        // seen later all come from the pool's two persistent workers.
        let second = pool.install(|| std::thread::current().id());
        let third = pool.install(|| std::thread::current().id());
        assert!([second, third].contains(&first) || second == third);
    }
}

//! Property and stress tests for the work-stealing pool (ISSUE 9,
//! satellite 3).
//!
//! Three families:
//! 1. Panic-safety properties: join panics propagate to the caller with
//!    the right priority and never poison the pool.
//! 2. Determinism properties: seed-shaped random fork-join DAGs reduce to
//!    bit-identical digests at worker counts {1, 2, 4} — the
//!    digest-invisibility argument of DESIGN.md §2.8 as an executable
//!    check (split shape depends only on the seed, never on who runs
//!    what).
//! 3. A loom-style bounded stress loop on the fixed-capacity deque's
//!    pop/steal race, without a loom dependency: one owner and several
//!    thieves hammer a raw deque with sentinel jobs and we assert
//!    exactly-once delivery of every tag.

use pargeo_sched::deque::{Deque, JobRef, Steal};
use pargeo_sched::{join, Pool};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Worker counts every determinism property runs at. 1 is the sequential
/// anchor; 2 and 4 oversubscribe the container so steals actually happen.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------------
// 1. Panic safety
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever combination of join sides panics, the panic reaches the
    /// caller (left side's payload wins when both do) and the pool keeps
    /// answering afterwards.
    #[test]
    fn join_panics_propagate_and_pool_survives(
        workers in (0usize..3).prop_map(|i| WORKER_COUNTS[i]),
        panic_a in (0u8..2).prop_map(|b| b == 1),
        panic_b in (0u8..2).prop_map(|b| b == 1),
    ) {
        let p = Pool::new(workers);
        let r = catch_unwind(AssertUnwindSafe(|| {
            p.install(|| {
                join(
                    || { if panic_a { panic!("left payload") } 1u32 },
                    || { if panic_b { panic!("right payload") } 2u32 },
                )
            })
        }));
        match r {
            Ok((a, b)) => {
                prop_assert!(!panic_a && !panic_b);
                prop_assert_eq!((a, b), (1, 2));
            }
            Err(payload) => {
                prop_assert!(panic_a || panic_b);
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                if panic_a {
                    prop_assert_eq!(msg, "left payload");
                } else {
                    prop_assert_eq!(msg, "right payload");
                }
            }
        }
        // The pool is not poisoned: it still runs real work.
        let sum = p.install(|| join(|| 20u64, || 22u64));
        prop_assert_eq!(sum.0 + sum.1, 42);
    }

    /// Pools nest: installing into an inner pool from an outer pool's
    /// worker migrates correctly in both directions, at any size combo.
    #[test]
    fn nested_pools_compose(
        outer in (0usize..3).prop_map(|i| WORKER_COUNTS[i]),
        inner in (0usize..3).prop_map(|i| WORKER_COUNTS[i]),
        n in 1usize..256,
    ) {
        let po = Pool::new(outer);
        let pi = Pool::new(inner);
        let data: Vec<u64> = (0..n as u64).collect();
        let expect: u64 = data.iter().sum();
        let got = po.install(|| {
            let (outer_half, inner_half) = join(
                || data[..n / 2].iter().sum::<u64>(),
                || pi.install(|| data[n / 2..].iter().sum::<u64>()),
            );
            outer_half + inner_half
        });
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// 2. Determinism: random fork-join DAGs
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reduces `data` through a randomly shaped fork-join tree: the split
/// point, the leaf threshold, and the combining op at each node all come
/// from `seed` — never from the scheduler — so any execution schedule
/// must produce the same bits.
fn dag_reduce(data: &[u64], mut seed: u64, depth: u32) -> u64 {
    let r = splitmix(&mut seed);
    if depth == 0 || data.len() <= 1 + (r % 4) as usize {
        return data
            .iter()
            .fold(r, |acc, &x| acc.rotate_left(7) ^ x.wrapping_mul(0x100_0193));
    }
    let at = 1 + (r as usize) % (data.len() - 1).max(1);
    let at = at.min(data.len() - 1);
    let (l, r_slice) = data.split_at(at);
    let (a, b) = join(
        || dag_reduce(l, seed ^ 0xa5a5, depth - 1),
        || dag_reduce(r_slice, seed ^ 0x5a5a, depth - 1),
    );
    match seed % 3 {
        0 => a.wrapping_mul(3).wrapping_add(b),
        1 => a ^ b.rotate_left(13),
        _ => a.wrapping_add(b).rotate_left(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same seed-shaped DAG reduces to identical bits at 1, 2 and 4
    /// workers — scheduling is digest-invisible.
    #[test]
    fn random_dags_are_bit_identical_across_worker_counts(
        seed in 0u64..u64::MAX,
        data in prop::collection::vec(0u64..u64::MAX, 1..512),
        depth in 1u32..8,
    ) {
        let mut digests = Vec::new();
        for &w in &WORKER_COUNTS {
            let p = Pool::new(w);
            digests.push(p.install(|| dag_reduce(&data, seed, depth)));
        }
        prop_assert_eq!(digests[0], digests[1]);
        prop_assert_eq!(digests[0], digests[2]);
    }
}

// ---------------------------------------------------------------------------
// 3. Bounded deque stress (loom-style, no loom)
// ---------------------------------------------------------------------------

/// One owner pushes tagged sentinels and randomly pops; `thieves` threads
/// steal concurrently. Every tag must be delivered exactly once across
/// owner pops and steals — the pop/steal last-element race must never
/// duplicate or drop a job. A tag the full deque refuses is the owner's
/// own, as `join` runs a refused `b` inline. Bounded iterations keep it
/// deterministic in runtime; 10 000 tags through the deque's 256 slots
/// wrap every slot index dozens of times while thieves read the slots the
/// owner rewrites.
fn deque_stress(items: usize, thieves: usize, seed: u64) {
    let deque = Arc::new(Deque::new());
    let done = Arc::new(AtomicBool::new(false));
    let stolen: Vec<_> = (0..thieves)
        .map(|_| Arc::new(std::sync::Mutex::new(Vec::<usize>::new())))
        .collect();

    let handles: Vec<_> = stolen
        .iter()
        .map(|bag| {
            let deque = deque.clone();
            let done = done.clone();
            let bag = bag.clone();
            std::thread::spawn(move || loop {
                match deque.steal() {
                    Steal::Success(job) => bag.lock().unwrap().push(job.tag()),
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let mut owned = Vec::new();
    let mut rng = seed | 1;
    for tag in 0..items {
        if let Err(job) = deque.push(JobRef::sentinel(tag)) {
            owned.push(job.tag());
        }
        // Randomly interleave pops so bottom crosses top often (the racy
        // last-element CAS path).
        if splitmix(&mut rng).is_multiple_of(3) {
            if let Some(job) = deque.pop() {
                owned.push(job.tag());
            }
        }
    }
    while let Some(job) = deque.pop() {
        owned.push(job.tag());
    }
    done.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }

    let mut all = owned;
    for bag in &stolen {
        all.extend(bag.lock().unwrap().iter().copied());
    }
    assert_eq!(all.len(), items, "every job delivered exactly once");
    all.sort_unstable();
    for (i, &tag) in all.iter().enumerate() {
        assert_eq!(tag, i, "no duplicated or dropped tags");
    }
}

proptest! {
    // Few cases, many iterations per case: the race window is tiny, so
    // volume inside one schedule matters more than schedule count. The CI
    // stress job cranks PROPTEST_CASES up.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn deque_pop_steal_race_delivers_exactly_once(
        seed in 0u64..u64::MAX,
        thieves in 1usize..4,
    ) {
        deque_stress(10_000, thieves, seed);
    }
}

/// A plain (non-proptest) smoke version so `cargo test` exercises the
/// stress loop even when proptest filtering is active.
#[test]
fn deque_stress_smoke() {
    deque_stress(5_000, 2, 0x1234_5678);
}

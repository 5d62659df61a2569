//! The loop family against its sequential counterparts: `parallel_for`,
//! `tabulate`, `map`, `for_each_mut` / `for_each_block_mut` and the blocked
//! `reduce` / `flatten` (and `flatten` of an `Option`, the filter), on every
//! boundary of the block structure (`n` around one grain, one block more
//! than a few, and 10^5), at grains 1, 7 and `GRANULARITY`, on 1, 2 and 4
//! workers — plus what a panicking item does.

use pargeo_parlay::{
    flatten, for_each_block_mut, for_each_mut, map, mix64, parallel_for, reduce, tabulate,
    with_threads, GRANULARITY,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const WORKERS: [usize; 3] = [1, 2, 4];
const GRAINS: [usize; 3] = [1, 7, GRANULARITY];

/// The sizes that exercise a grain `g`: nothing, one item, and both sides
/// of one block, a ragged handful of blocks, and a long input.
fn sizes(g: usize) -> [usize; 7] {
    [0, 1, g - 1, g, g + 1, 3 * g + 1, 100_000]
}

/// Every primitive on `n` items at grain `g` equals its sequential form.
fn check_cell(n: usize, g: usize, workers: usize, seed: u64) {
    let a: Vec<u64> = (0..n as u64).map(|i| mix64(seed, i)).collect();
    with_threads(workers, || {
        let cell = format!("n={n} g={g} workers={workers}");

        let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, g, |i| {
            visits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
            "parallel_for {cell}"
        );

        let want: Vec<u64> = (0..n).map(|i| a[i].wrapping_mul(3) ^ i as u64).collect();
        assert_eq!(
            tabulate(n, g, |i| a[i].wrapping_mul(3) ^ i as u64),
            want,
            "tabulate {cell}"
        );

        let want: Vec<String> = a.iter().map(|x| format!("{x:x}")).collect();
        assert_eq!(map(&a, g, |x| format!("{x:x}")), want, "map {cell}");

        let mut got = a.clone();
        for_each_mut(&mut got, g, |i, x| *x = x.rotate_left(7) ^ i as u64);
        let want: Vec<u64> = (0..n).map(|i| a[i].rotate_left(7) ^ i as u64).collect();
        assert_eq!(got, want, "for_each_mut {cell}");

        // The blocks are `chunks_mut(g)`: each learns its index and length.
        let mut got = vec![(0, 0); n];
        for_each_block_mut(&mut got, g, |b, block| block.fill((b, block.len())));
        let want: Vec<_> = (0..n).map(|i| (i / g, g.min(n - i / g * g))).collect();
        assert_eq!(got, want, "for_each_block_mut {cell}");

        // String concatenation is associative but not commutative: any
        // merge that is not left-to-right scrambles the digits.
        let digit = |i: usize| char::from(b'0' + (a[i] % 10) as u8);
        let want: String = (0..n).map(digit).collect();
        let got = reduce(n, g, |r| r.map(digit).collect::<String>(), |l, r| l + &r);
        assert_eq!(got, want, "reduce {cell}");

        let want: Vec<u64> = a.iter().copied().filter(|x| x % 3 == 0).collect();
        let kept = flatten(n, g, |i| Some(a[i]).filter(|x| x % 3 == 0));
        assert_eq!(kept, want, "flatten as filter {cell}");

        let few = |i: usize| (0..a[i] % 3).map(move |j| (i, j));
        let want: Vec<(usize, u64)> = (0..n).flat_map(few).collect();
        assert_eq!(flatten(n, g, few), want, "flatten {cell}");
    });
}

/// Every cell of the grid, once.
#[test]
fn loop_family_matches_sequential_on_every_boundary() {
    for workers in WORKERS {
        for g in GRAINS {
            for n in sizes(g) {
                check_cell(n, g, workers, 0x5EED);
            }
        }
    }
}

/// An output item that counts its own constructions and drops.
struct Counted<'a> {
    dropped: &'a AtomicUsize,
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// `tabulate` of `n` counted items at grain `g` whose item `bad` (if in
/// range) panics: returns `(made, dropped)` after the call — and, when it
/// succeeded, checks that nothing was dropped before the `Vec` was.
fn tabulate_counted(n: usize, g: usize, bad: usize) -> (usize, usize) {
    let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let run = catch_unwind(AssertUnwindSafe(|| {
        tabulate(n, g, |i| {
            assert!(i != bad, "item {bad} panics");
            made.fetch_add(1, Ordering::SeqCst);
            Counted { dropped: &dropped }
        })
    }));
    assert_eq!(run.is_err(), bad < n, "a panicking item propagates");
    if let Ok(out) = run {
        assert_eq!(out.len(), n);
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "dropped while owned");
    }
    (made.load(Ordering::SeqCst), dropped.load(Ordering::SeqCst))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random cell with random contents.
    #[test]
    fn loop_family_matches_sequential(
        workers in (0usize..3).prop_map(|i| WORKERS[i]),
        g in (0usize..3).prop_map(|i| GRAINS[i]),
        n in 0usize..7,
        seed in 0u64..u64::MAX,
    ) {
        check_cell(sizes(g)[n], g, workers, seed);
    }

    /// A panicking item propagates to the caller, every output already
    /// written is dropped exactly once (none leaked, none twice), the pool
    /// keeps working, and a run without a panic hands every item over
    /// undropped.
    #[test]
    fn a_panicking_item_propagates_and_drops_each_output_once(
        workers in (0usize..3).prop_map(|i| WORKERS[i]),
        g in (0usize..3).prop_map(|i| GRAINS[i]),
        n in 1usize..5_000,
        bad in 0usize..5_000,
    ) {
        let bad = bad % n;
        with_threads(workers, || {
            let (made, dropped) = tabulate_counted(n, g, bad);
            assert!(made < n);
            assert_eq!(dropped, made, "n={n} g={g} bad={bad}");
            // Same pool, next call: all `n` made, all dropped with the Vec.
            assert_eq!(tabulate_counted(n, g, usize::MAX), (n, n));
            // The loops without an output propagate too.
            let boom = |i: usize| assert!(i != bad, "item {bad} panics");
            assert!(catch_unwind(|| parallel_for(n, g, boom)).is_err());
            assert!(catch_unwind(|| flatten(n, g, |i| { boom(i); Some(i) })).is_err());
            let mut items = vec![0u8; n];
            let for_each = AssertUnwindSafe(|| for_each_mut(&mut items, g, |i, _| boom(i)));
            assert!(catch_unwind(for_each).is_err());
            assert_eq!(reduce(n, g, |r| r.len(), |l, r| l + r), n);
        });
    }
}

//! # pargeo-parlay — the parallel vocabulary
//!
//! This crate plays the role that [ParlayLib] plays for the original ParGeo:
//! it is the one parallel vocabulary every geometry module is written
//! against, implemented directly on [`pargeo_sched::join`].
//!
//! * this module — fork-join ([`par_do`], and [`par_do_if`] for recursions
//!   with a sequential cutoff) and the loop family over it:
//!   [`parallel_for`], [`tabulate`], [`map`], [`for_each_mut`] /
//!   [`for_each_block_mut`], with the blocked [`reduce()`] and [`flatten`]
//!   beside them.
//! * [`scan`] — parallel prefix sums (exclusive/inclusive) over arbitrary
//!   associative operators.
//! * [`mod@pack`] — parallel filtering/packing driven by flag vectors or
//!   predicates (the `ParallelPack` of the paper's Figure 5, line 17).
//! * [`mod@reduce`] — blocked reductions, including the parallel
//!   maximum-finding routine used by quickhull and the Welzl pivot heuristic.
//! * [`sort`] — an LSD radix sort for 64-bit keys (the Morton-sort
//!   substrate). A comparison sort is the slice's own `sort_unstable_by`.
//! * [`mod@shuffle`] — deterministic random permutations, sequential
//!   (Fisher–Yates) and parallel (sort by random keys).
//! * [`select`] — parallel Floyd–Rivest selection (`nth_element`), every
//!   row moved once a round, used for object-median kd-tree splits.
//! * [`pool`] — helpers to run any closure on a dedicated pool with a fixed
//!   number of threads (the `T1` / `T36h` sweeps of the paper's evaluation).
//!
//! # Grain
//!
//! Every loop primitive takes its **grain** as an argument, in items, and
//! honours it exactly: the index space `0..n` is cut into blocks of `grain`
//! consecutive items (the last may be shorter), block `b` covering
//! [`block`]`(b, grain, n)`, and a balanced binary tree of [`par_do`]s runs
//! one task per block. A loop therefore forks iff `n > grain`, the blocks —
//! and with them the merge order of [`reduce()`] — depend on `n` and `grain`
//! alone, and nothing underneath second-guesses the caller: pass
//! [`GRANULARITY`] when an item is a few arithmetic operations, `1` when an
//! item is itself a tree build, a shard, a processor's share of a
//! reservation round or a request, something in between when the caller can
//! say what an item costs (a range query: 16). A grain of `0` is read as
//! `1`.
//!
//! [ParlayLib]: https://github.com/cmuparlay/parlaylib

pub mod pack;
pub mod pool;
pub mod reduce;
pub mod scan;
pub mod select;
pub mod shuffle;
pub mod sort;

pub use pack::{flatten, pack, split_two};
pub use pool::{num_threads, with_threads};
pub use reduce::{max_index_by, reduce};
pub use scan::{scan_exclusive, scan_inclusive};
pub use select::select_nth_unstable_by;
pub use shuffle::{mix64, random_permutation, shuffle_seeded};
pub use sort::{radix_sort_u64_by_key, sort_by_key_f64};

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// The grain for loops whose items are arithmetic-light: large enough that
/// one fork (~0.1 µs) stays well under 1% of a block's work.
pub const GRANULARITY: usize = 2048;

/// Runs `a` and `b` potentially in parallel (fork-join "par_do").
pub fn par_do<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    pargeo_sched::join(a, b)
}

/// [`par_do`] if `parallel`, else `a` then `b` on the calling task
/// (ParlayLib's `par_do_if`): a recursion with a sequential cutoff states
/// the cutoff as the condition and writes its two sides once.
pub fn par_do_if<RA: Send, RB: Send>(
    parallel: bool,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if parallel {
        par_do(a, b)
    } else {
        (a(), b())
    }
}

/// The `b`-th block of `grain` consecutive indices of `0..n` — the unit
/// every loop primitive of this crate forks down to.
#[inline]
pub fn block(b: usize, grain: usize, n: usize) -> Range<usize> {
    (b * grain).min(n)..((b + 1) * grain).min(n)
}

/// Runs `leaf(b)` for every block index `b` in `lo..hi` on a balanced
/// binary tree of [`par_do`]s and merges the results pairwise, the lower
/// blocks' result on the left. An empty `lo..hi` (a loop over no items)
/// still runs `leaf(lo)`, whose [`block`] is then empty.
pub(crate) fn fork_blocks<R: Send>(
    lo: usize,
    hi: usize,
    leaf: &(impl Fn(usize) -> R + Sync),
    merge: &(impl Fn(R, R) -> R + Sync),
) -> R {
    if hi - lo <= 1 {
        return leaf(lo);
    }
    let mid = lo + (hi - lo) / 2;
    let (l, r) = par_do(
        || fork_blocks(lo, mid, leaf, merge),
        || fork_blocks(mid, hi, leaf, merge),
    );
    merge(l, r)
}

/// Runs `f(i)` for every `i` in `0..n`, one task per `grain` indices.
pub fn parallel_for(n: usize, grain: usize, f: impl Fn(usize) + Sync) {
    let grain = grain.max(1);
    fork_blocks(
        0,
        n.div_ceil(grain),
        &|b| block(b, grain, n).for_each(&f),
        &|(), ()| (),
    );
}

/// Runs `f(i, &mut items[i])` for every item, one task per `grain` items.
pub fn for_each_mut<T: Send>(items: &mut [T], grain: usize, f: impl Fn(usize, &mut T) + Sync) {
    let grain = grain.max(1);
    for_each_block_mut(items, grain, |b, block| {
        for (j, x) in block.iter_mut().enumerate() {
            f(b * grain + j, x);
        }
    });
}

/// Runs `f(b, block)` for every block of `grain` consecutive items — the
/// `chunks_mut(grain)` of `items`, `b` counting them — one task per block.
pub fn for_each_block_mut<T: Send>(
    items: &mut [T],
    grain: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    fn go<T: Send>(
        items: &mut [T],
        first: usize,
        grain: usize,
        f: &(impl Fn(usize, &mut [T]) + Sync),
    ) {
        let nblocks = items.len().div_ceil(grain);
        if nblocks <= 1 {
            return f(first, items);
        }
        let (l, r) = items.split_at_mut(nblocks / 2 * grain);
        par_do(
            || go(l, first, grain, f),
            || go(r, first + nblocks / 2, grain, f),
        );
    }
    go(items, 0, grain.max(1), &f);
}

/// `[f(0), f(1), …, f(n-1)]`, one task per `grain` indices, each writing
/// its block straight into the output.
///
/// If an `f(i)` panics the panic propagates to the caller once every task
/// has stopped, and every value already produced is dropped exactly once.
pub fn tabulate<R: Send>(n: usize, grain: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    fill_blocks(n, grain, |range, sink| {
        // SAFETY: one push per index of `range`, the sink's run.
        range.for_each(|i| unsafe { sink.push(f(i)) })
    })
}

/// `[f(&items[0]), …]` in input order, one task per `grain` items. The one
/// batch-dispatch idiom every batched query surface (`range_box_batch`,
/// `answer_batch`, the oracle, the shard fan-out) shares; the trees'
/// `knn_batch` reach it through `pargeo_morton::map_batch_z_order`, which
/// adds the locality order point queries profit from.
pub fn map<T: Sync, R: Send>(items: &[T], grain: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    fill_blocks(items.len(), grain, |range, sink| {
        // SAFETY: one push per item of `items[range]`, as many as the
        // sink's run `range` holds.
        items[range].iter().for_each(|x| unsafe { sink.push(f(x)) })
    })
}

/// A `Vec` of `n` items built one block of `grain` slots per task:
/// `fill(range, sink)` pushes the values of slots `range` in order — all
/// `range.len()` of them, or the call panics. Panics as [`tabulate`]
/// documents.
pub(crate) fn fill_blocks<R: Send>(
    n: usize,
    grain: usize,
    fill: impl Fn(Range<usize>, &mut Sink<R>) + Sync,
) -> Vec<R> {
    let grain = grain.max(1);
    let mut out: Vec<R> = Vec::with_capacity(n);
    let slots = SharedMut(out.as_mut_ptr());
    let fill_run = |run: Range<usize>| {
        // SAFETY: `run ⊆ 0..n = capacity`, the runs of different tasks are
        // disjoint blocks, and nothing reads the allocation before the
        // tasks are joined.
        let mut sink = unsafe { Sink::new(slots, run.clone()) };
        fill(run, &mut sink);
        sink.finish();
    };
    if n <= grain {
        fill_run(0..n);
    } else {
        // Invariant of both closures: `Ok(r)` ⇒ every slot of `r` holds a
        // value; `Err(_)` ⇒ every slot of the subtree's range is vacant
        // again (an unwinding sink vacates its own run).
        let filled = fork_blocks(
            0,
            n.div_ceil(grain),
            &|b| {
                let run = block(b, grain, n);
                panic::catch_unwind(AssertUnwindSafe(|| fill_run(run.clone()))).map(|()| run)
            },
            &|l: Filled, r: Filled| match (l, r) {
                (Ok(l), Ok(r)) => Ok(l.start..r.end),
                (Err(payload), Ok(done)) | (Ok(done), Err(payload)) => {
                    // SAFETY: `Ok(done)` says `done` is fully written, and
                    // the task that wrote it has finished (`par_do`
                    // returned).
                    unsafe { slots.drop_range(done) };
                    Err(payload)
                }
                (Err(payload), Err(_)) => Err(payload),
            },
        );
        match filled {
            Ok(range) => debug_assert_eq!(range, 0..n),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    // SAFETY: every run's sink finished full, and the runs tile `0..n`.
    unsafe { out.set_len(n) };
    out
}

/// The range of output slots a [`fill_blocks`] subtree filled, or the
/// panic that stopped it (after its slots were vacated).
type Filled = Result<Range<usize>, Box<dyn Any + Send>>;

/// A base pointer that several tasks write through at once.
///
/// It carries no synchronisation of its own: every use states, in a
/// `SAFETY:` comment, why no two tasks touch the same index (always: the
/// indices are partitioned between tasks by a scan or by the block
/// structure).
pub(crate) struct SharedMut<T>(*mut T);

impl<T> Clone for SharedMut<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedMut<T> {}

// SAFETY: the wrapper only moves values of `T` into slots owned by another
// thread's allocation, which is what `T: Send` permits; the disjointness of
// the slots is each use site's obligation (see the type's docs).
unsafe impl<T: Send> Send for SharedMut<T> {}
// SAFETY: as above — a shared handle offers nothing but `write`/`drop_range`,
// whose contracts forbid concurrent access to one slot.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Moves `v` into slot `i` without reading or dropping what was there.
    ///
    /// # Safety
    /// `i` is inside the allocation the pointer was taken from, the
    /// allocation outlives the call, and no other task reads or writes slot
    /// `i` until the tasks are joined.
    #[inline]
    pub(crate) unsafe fn write(self, i: usize, v: T) {
        // SAFETY: in bounds and unaliased per this function's contract.
        unsafe { self.0.add(i).write(v) }
    }

    /// A pointer to slot `i`, for moving a run of rows at once.
    ///
    /// # Safety
    /// `i` is at most the length of the allocation the pointer was taken
    /// from; what is read or written through the result is bound by
    /// [`write`](Self::write)'s contract, slot by slot.
    #[inline]
    pub(crate) unsafe fn slot(self, i: usize) -> *mut T {
        // SAFETY: in bounds (or one past the end) per this function's
        // contract.
        unsafe { self.0.add(i) }
    }

    /// Drops the values in `range`, leaving the slots vacant.
    ///
    /// # Safety
    /// Every slot of `range` holds an initialised value that nothing else
    /// will read or drop, and no other task is touching them.
    unsafe fn drop_range(self, range: Range<usize>) {
        // SAFETY: initialised, in bounds and exclusively ours per this
        // function's contract.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.0.add(range.start),
                range.len(),
            ))
        }
    }
}

/// One task's run of a shared output, filled front to back:
/// [`push`](Sink::push) leaves the caller one thing to promise (not to
/// overrun the run), [`finish`](Sink::finish) checks it was not left short,
/// and a sink dropped unfinished — its task is unwinding — takes the values
/// it wrote with it.
pub(crate) struct Sink<T> {
    out: SharedMut<T>,
    run: Range<usize>,
    next: usize,
}

impl<T> Sink<T> {
    /// # Safety
    /// `run` lies inside the allocation behind `out`, which outlives the
    /// sink, and until the tasks are joined nothing but this sink touches
    /// the slots of `run`.
    pub(crate) unsafe fn new(out: SharedMut<T>, run: Range<usize>) -> Self {
        let next = run.start;
        Sink { out, run, next }
    }

    /// Moves `v` into the run's next slot.
    ///
    /// # Safety
    /// Fewer than `run.len()` items have been pushed so far. (Checked in
    /// debug builds only: the push is the inner loop of every primitive.)
    #[inline]
    pub(crate) unsafe fn push(&mut self, v: T) {
        debug_assert!(self.next < self.run.end, "more items than the run holds");
        // SAFETY: `next` is inside the run (this function's contract),
        // which is this sink's alone (`new`'s contract), and each slot is
        // written once: `next` only moves forward.
        unsafe { self.out.write(self.next, v) };
        self.next += 1;
    }

    /// Checks that the run is full and leaves its values in place.
    pub(crate) fn finish(self) {
        assert_eq!(self.next, self.run.end, "fewer items than the run holds");
        std::mem::forget(self);
    }
}

impl<T> Drop for Sink<T> {
    fn drop(&mut self) {
        // SAFETY: exactly `run.start..next` was written, by this sink, and
        // nothing else touches the run (`new`'s contract).
        unsafe { self.out.drop_range(self.run.start..self.next) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, GRANULARITY, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_input_runs_sequentially() {
        // n ≤ grain is one block: it runs, in order, on the calling thread.
        let n = 17;
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        with_threads(4, || {
            let worker = std::thread::current().id();
            parallel_for(n, GRANULARITY, |i| {
                assert_eq!(std::thread::current().id(), worker);
                seen.lock().unwrap().push(i);
            });
            assert_ne!(worker, caller, "with_threads migrates onto its pool");
        });
        assert_eq!(seen.into_inner().unwrap(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn par_do_returns_both_results() {
        let (a, b) = par_do(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn par_do_if_runs_in_order_on_the_caller_when_told_not_to_fork() {
        with_threads(4, || {
            let caller = std::thread::current().id();
            let order = std::sync::Mutex::new(Vec::new());
            let side = |name| {
                order.lock().unwrap().push(name);
                std::thread::current().id()
            };
            let (a, b) = par_do_if(false, || side('a'), || side('b'));
            assert_eq!((a, b), (caller, caller));
            assert_eq!(*order.lock().unwrap(), ['a', 'b']);
            assert_eq!(par_do_if(true, || 1, || "x"), (1, "x"));
        });
    }

    // The scheduler-semantics tests below came with the rayon-shaped shim
    // this crate replaced; they pin the same contracts on `par_do` and
    // `with_threads`.

    #[test]
    fn join_actually_runs_concurrently_with_budget() {
        // Rendezvous: both sides must be alive at once to finish.
        with_threads(2, || {
            let (txa, rxa) = mpsc::channel();
            let (txb, rxb) = mpsc::channel();
            par_do(
                move || {
                    txa.send(()).unwrap();
                    rxb.recv_timeout(Duration::from_secs(5)).unwrap();
                },
                move || {
                    txb.send(()).unwrap();
                    rxa.recv_timeout(Duration::from_secs(5)).unwrap();
                },
            );
        });
    }

    #[test]
    fn install_scopes_thread_count() {
        assert_eq!(with_threads(3, num_threads), 3);
        // Nested pools: the inner call migrates to the inner pool and back.
        let (o, i) = with_threads(5, || {
            let i = with_threads(2, num_threads);
            (num_threads(), i)
        });
        assert_eq!((o, i), (5, 2));
    }

    #[test]
    fn single_thread_pool_never_spawns() {
        with_threads(1, || {
            let main = std::thread::current().id();
            let (ta, tb) = par_do(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!(ta, main);
            assert_eq!(tb, main);
        });
    }

    #[test]
    fn budget_propagates_into_spawned_workers() {
        with_threads(4, || {
            let (_, inner) = par_do(|| (), num_threads);
            assert_eq!(inner, 4);
            let sizes = tabulate(64, 1, |_| num_threads());
            assert!(sizes.iter().all(|&s| s == 4));
        });
    }

    #[test]
    fn join_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            par_do(|| (), || panic!("boom"));
        });
        assert!(r.is_err());
    }

    /// The grain is honoured: two items at grain 1 are two tasks, so on two
    /// workers they can wait for each other. (The `map_batch(.., 1, ..)`
    /// this replaces ran them on one worker and timed out.)
    #[test]
    fn map_at_grain_one_runs_two_items_concurrently() {
        with_threads(2, || {
            let (tx0, rx0) = mpsc::channel();
            let (tx1, rx1) = mpsc::channel();
            let ends = [(tx0, rx1), (tx1, rx0)].map(std::sync::Mutex::new);
            let met = map(&[0usize, 1], 1, |&i| {
                let (tx, rx) = &*ends[i].lock().unwrap();
                tx.send(()).unwrap();
                rx.recv_timeout(Duration::from_secs(5)).is_ok()
            });
            assert_eq!(met, [true, true]);
        });
    }

    /// The shard fan-out's shape: two `&mut` items at grain 1.
    #[test]
    fn for_each_mut_at_grain_one_runs_two_items_concurrently() {
        with_threads(2, || {
            let (tx0, rx0) = mpsc::channel();
            let (tx1, rx1) = mpsc::channel();
            let mut ends = [(tx0, rx1, false), (tx1, rx0, false)];
            for_each_mut(&mut ends, 1, |_, (tx, rx, met)| {
                tx.send(()).unwrap();
                *met = rx.recv_timeout(Duration::from_secs(5)).is_ok();
            });
            assert!(ends.iter().all(|e| e.2));
        });
    }
}

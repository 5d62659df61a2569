//! # pargeo-parlay — parallel primitives substrate
//!
//! This crate plays the role that [ParlayLib] plays for the original ParGeo:
//! it provides the shared-memory parallel building blocks every geometry
//! module is written against.
//!
//! * [`scan`] — parallel prefix sums (exclusive/inclusive) over arbitrary
//!   associative operators.
//! * [`mod@pack`] — parallel filtering/packing driven by flag vectors or
//!   predicates (the `ParallelPack` of the paper's Figure 5, line 17).
//! * [`mod@reduce`] — parallel reductions, including the parallel
//!   maximum-finding routine used by quickhull and the Welzl pivot heuristic.
//! * [`atomics`] — the priority write (`WriteMin`/`WriteMax`) of
//!   Shun et al. \[49\], the core of the reservation technique.
//! * [`sort`] — a parallel merge sort and an LSD radix sort for 64-bit keys
//!   (the Morton-sort substrate).
//! * [`mod@shuffle`] — deterministic random permutations, sequential
//!   (Fisher–Yates) and parallel (sort by random keys).
//! * [`select`] — parallel quickselect (`nth_element`) used for
//!   object-median kd-tree splits.
//! * [`pool`] — helpers to run any closure on a dedicated pool with a fixed
//!   number of threads (the `T1` / `T36h` sweeps of the paper's evaluation).
//!
//! Scheduling itself (fork-join, work stealing) is delegated to `rayon`,
//! which maps one-to-one onto ParlayLib's `par_do`/`parallel_for` model; see
//! DESIGN.md §5. Everything algorithmic above raw fork-join lives here.
//!
//! [ParlayLib]: https://github.com/cmuparlay/parlaylib

pub mod atomics;
pub mod histogram;
pub mod pack;
pub mod pool;
pub mod reduce;
pub mod samplesort;
pub mod scan;
pub mod select;
pub mod shuffle;
pub mod sort;

pub use atomics::{write_max_usize, write_min_usize, AtomicMinIndex};
pub use histogram::{group_by_key, histogram};
pub use pack::{filter, pack, pack_index, split_two};
pub use pool::{num_threads, with_threads};
pub use reduce::{max_index_by, min_index_by, reduce, reduce_map};
pub use samplesort::sample_sort_by;
pub use scan::{scan_exclusive, scan_inclusive, scan_inplace_exclusive};
pub use select::select_nth_unstable_by;
pub use shuffle::{mix64, random_permutation, shuffle, shuffle_seeded};
pub use sort::{merge_sort_by, radix_sort_u64_by_key, sort_by_key_f64};

/// Grain size below which parallel primitives fall back to their sequential
/// counterparts. Chosen so that per-task scheduling overhead stays well under
/// 1% of useful work for the arithmetic-light kernels in this workspace.
pub const GRANULARITY: usize = 2048;

/// Runs `f(i)` for every `i` in `0..n` in parallel.
///
/// A convenience wrapper over rayon's indexed parallel iterator that applies
/// the crate-wide [`GRANULARITY`] so tiny loops do not pay fork-join overhead.
pub fn parallel_for<F: Fn(usize) + Send + Sync>(n: usize, f: F) {
    use rayon::prelude::*;
    if n < GRANULARITY {
        for i in 0..n {
            f(i);
        }
    } else {
        (0..n).into_par_iter().for_each(f);
    }
}

/// Runs `a` and `b` potentially in parallel (fork-join "par_do").
pub fn par_do<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    rayon::join(a, b)
}

/// Maps `f` over a query batch, in order: sequentially below `grain`,
/// data-parallel above it. The one batch-dispatch idiom every batched
/// query surface (`range_box_batch`, `answer_batch`, the oracle, the shard
/// fan-out) shares, so per-backend copies cannot drift; the trees'
/// `knn_batch` reach it through `pargeo_morton::map_batch_z_order`, which
/// adds the locality order point queries profit from.
pub fn map_batch<T: Sync, R: Send>(
    items: &[T],
    grain: usize,
    f: impl Fn(&T) -> R + Send + Sync,
) -> Vec<R> {
    use rayon::prelude::*;
    if items.len() < grain {
        items.iter().map(f).collect()
    } else {
        items.par_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_input_runs_sequentially() {
        let n = 17;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_do_returns_both_results() {
        let (a, b) = par_do(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }
}

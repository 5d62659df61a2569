//! Priority writes ("reducing contention through priority updates",
//! Shun et al. \[49\]).
//!
//! `WriteMin` is the primitive at the heart of the paper's reservation
//! technique (Figure 5, lines 6–8): every visible point writes its ID into
//! each of its visible facets, and the smallest ID wins. `fetch_min` on a
//! relaxed atomic is exactly this operation; the test-first fast path avoids
//! the RMW when the stored value is already smaller, which is where the
//! contention reduction of \[49\] comes from.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Atomically sets `*a = min(*a, v)`. Returns `true` if `v` became (or tied)
/// the minimum, i.e. the caller's write "won".
#[inline]
pub fn write_min_usize(a: &AtomicUsize, v: usize) -> bool {
    // Fast path: read first — most writers lose and can skip the RMW.
    let cur = a.load(Ordering::Relaxed);
    if cur < v {
        return false;
    }
    a.fetch_min(v, Ordering::Relaxed) >= v || a.load(Ordering::Relaxed) == v
}

/// Atomically sets `*a = max(*a, v)`. Returns `true` if `v` won.
#[inline]
pub fn write_max_usize(a: &AtomicUsize, v: usize) -> bool {
    let cur = a.load(Ordering::Relaxed);
    if cur > v {
        return false;
    }
    a.fetch_max(v, Ordering::Relaxed) <= v || a.load(Ordering::Relaxed) == v
}

/// A reusable reservation slot: an atomic priority register that holds the
/// smallest ID written this round (the facet "reservation field" of the
/// paper). `EMPTY` means unreserved.
#[derive(Debug)]
pub struct AtomicMinIndex {
    slot: AtomicUsize,
}

impl AtomicMinIndex {
    /// Sentinel for "no reservation".
    pub const EMPTY: usize = usize::MAX;

    /// Creates an unreserved slot.
    pub fn new() -> Self {
        Self {
            slot: AtomicUsize::new(Self::EMPTY),
        }
    }

    /// Priority-writes `id`; the smallest id across the round wins.
    #[inline]
    pub fn reserve(&self, id: usize) {
        let cur = self.slot.load(Ordering::Relaxed);
        if cur > id {
            self.slot.fetch_min(id, Ordering::Relaxed);
        }
    }

    /// True iff `id` holds the reservation after all `reserve` calls.
    #[inline]
    pub fn check(&self, id: usize) -> bool {
        self.slot.load(Ordering::Relaxed) == id
    }

    /// Current holder (or [`Self::EMPTY`]).
    #[inline]
    pub fn holder(&self) -> usize {
        self.slot.load(Ordering::Relaxed)
    }

    /// Clears the reservation for the next round.
    #[inline]
    pub fn reset(&self) {
        self.slot.store(Self::EMPTY, Ordering::Relaxed);
    }
}

impl Default for AtomicMinIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallel_for, GRANULARITY};

    #[test]
    fn write_min_sequential() {
        let a = AtomicUsize::new(100);
        assert!(write_min_usize(&a, 50));
        assert!(!write_min_usize(&a, 70));
        assert!(write_min_usize(&a, 50)); // ties count as a win
        assert_eq!(a.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn write_max_sequential() {
        let a = AtomicUsize::new(10);
        assert!(write_max_usize(&a, 20));
        assert!(!write_max_usize(&a, 5));
        assert_eq!(a.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn concurrent_write_min_takes_global_min() {
        let a = AtomicUsize::new(usize::MAX);
        parallel_for(100_000, GRANULARITY, |i| {
            write_min_usize(&a, (i * 2_654_435_761) % 1_000_003);
        });
        let want = (0..100_000usize)
            .map(|i| (i * 2_654_435_761) % 1_000_003)
            .min()
            .unwrap();
        assert_eq!(a.load(Ordering::Relaxed), want);
    }

    #[test]
    fn reservation_exactly_one_winner() {
        let slot = AtomicMinIndex::new();
        let ids: Vec<usize> = (0..10_000).map(|i| (i * 97) % 10_000).collect();
        parallel_for(ids.len(), GRANULARITY, |i| slot.reserve(ids[i]));
        let winners: usize = ids.iter().filter(|&&id| slot.check(id)).count();
        assert_eq!(winners, 1);
        assert_eq!(slot.holder(), 0);
        slot.reset();
        assert_eq!(slot.holder(), AtomicMinIndex::EMPTY);
    }
}

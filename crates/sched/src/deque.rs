//! Fixed-capacity work-stealing deque: the ABP deque (Arora, Blumofe &
//! Plaxton, SPAA 1998) that ParlayLib's scheduler uses, with the C11
//! orderings of Lê, Pop, Cohen & Nardelli (PPoPP 2013).
//!
//! One worker owns each deque: only the owner calls [`Deque::push`] and
//! [`Deque::pop`] (LIFO end, `bottom`); any thread may call
//! [`Deque::steal`] (FIFO end, `top`). The deque never grows: a push onto
//! a full deque hands the job back, and `join` then runs it inline. Fork
//! depth is recursion depth, so `CAP` sits far above the deepest deque
//! ever measured (16).
//!
//! Each slot is one `AtomicPtr` to a job header, read and written
//! `Relaxed`; the Release store of `bottom` and a thief's Acquire load of
//! it order them. A thief may read slot `t` while the owner rewrites it,
//! but the owner writes index `t + CAP` only after it has seen `top > t`,
//! so such a thief's CAS on `top` fails and the value is dropped unused.
//!
//! This module is exposed publicly only so the crate's stress tests can
//! hammer the pop/steal race directly; it is not a stable API.

use crate::job::JobHeader;
pub use crate::job::JobRef;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};

/// Slots per deque, a power of two so a slot index is a mask: 16× the
/// deepest deque measured, 2 KB per worker. The crate's own unit tests
/// see 2, so its `join` tests run the inline overflow path.
const CAP: usize = if cfg!(test) { 2 } else { 256 };

/// Result of a [`Deque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole the oldest job.
    Success(JobRef),
}

/// A single-owner, multi-thief work-stealing deque of [`JobRef`]s.
pub struct Deque {
    bottom: AtomicIsize,
    top: AtomicIsize,
    slots: [AtomicPtr<JobHeader>; CAP],
}

impl Default for Deque {
    fn default() -> Self {
        Self::new()
    }
}

impl Deque {
    /// An empty deque.
    pub fn new() -> Self {
        Deque {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            slots: [const { AtomicPtr::new(std::ptr::null_mut()) }; CAP],
        }
    }

    fn slot(&self, i: isize) -> &AtomicPtr<JobHeader> {
        &self.slots[i as usize & (CAP - 1)]
    }

    /// Racy size estimate (exact when quiescent). Any thread.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Racy emptiness estimate. Any thread.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a job on the owner (LIFO) end, or hands it back if the
    /// deque is full. Owner only.
    pub fn push(&self, job: JobRef) -> Result<(), JobRef> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= CAP as isize {
            return Err(job);
        }
        self.slot(b).store(job.0.cast_mut(), Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Pops the most recently pushed job. Owner only.
    pub fn pop(&self) -> Option<JobRef> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let job = JobRef(self.slot(b).load(Ordering::Relaxed));
        if t == b {
            // Last element: race thieves for it via CAS on top.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(job);
        }
        Some(job)
    }

    /// Tries to steal the oldest job. Any thread.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let job = JobRef(self.slot(t).load(Ordering::Relaxed));
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(job)
        } else {
            Steal::Retry
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d = Deque::new();
        for i in [1, 2] {
            d.push(JobRef::sentinel(i)).unwrap();
        }
        assert_eq!(d.len(), 2);
        assert_eq!(d.steal(), Steal::Success(JobRef::sentinel(1)));
        assert_eq!(d.pop().map(|j| j.tag()), Some(2));
        for i in [3, 4] {
            d.push(JobRef::sentinel(i)).unwrap();
        }
        assert_eq!(d.steal(), Steal::Success(JobRef::sentinel(3)));
        assert_eq!(d.pop().map(|j| j.tag()), Some(4));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn a_refused_push_hands_back_the_same_job() {
        let d = Deque::new();
        for i in 0..CAP {
            d.push(JobRef::sentinel(i)).unwrap();
        }
        let extra = JobRef::sentinel(CAP);
        assert_eq!(d.push(extra), Err(extra));
        assert_eq!(d.len(), CAP);
        // The refusal published nothing: the deque holds what it held.
        assert_eq!(d.pop(), Some(JobRef::sentinel(CAP - 1)));
        assert_eq!(d.steal(), Steal::Success(JobRef::sentinel(0)));
    }

    #[test]
    fn order_holds_across_many_wrap_arounds() {
        let d = Deque::new();
        let mut next = 0;
        // Each round fills the deque and drains it from both ends, so the
        // indices wrap once a round.
        for _ in 0..12 {
            let round: Vec<usize> = (next..next + CAP).collect();
            next += CAP;
            for &i in &round {
                d.push(JobRef::sentinel(i)).unwrap();
            }
            let (mut lo, mut hi) = (0, CAP);
            while lo < hi {
                assert_eq!(d.steal(), Steal::Success(JobRef::sentinel(round[lo])));
                lo += 1;
                if lo < hi {
                    hi -= 1;
                    assert_eq!(d.pop(), Some(JobRef::sentinel(round[hi])));
                }
            }
            assert_eq!(d.pop(), None);
        }
        assert_eq!(d.steal(), Steal::Empty);
    }
}

//! Chase–Lev work-stealing deque (the weak-memory formulation of Lê,
//! Pop, Cohen & Nardelli, PPoPP 2013).
//!
//! One worker owns each deque: only the owner calls [`Deque::push`] and
//! [`Deque::pop`] (LIFO end, `bottom`); any thread may call
//! [`Deque::steal`] (FIFO end, `top`). The buffer is a growable circular
//! array published through an atomic pointer; retired buffers are kept
//! alive until the deque drops because a slow thief may still read
//! through a stale pointer (its CAS on `top` then fails, discarding the
//! stale value). Slot reads/writes use volatile accesses for the same
//! reason: a thief racing a wrapped-around owner write may observe a
//! torn value, which the `top` CAS rejects before it is ever used.
//!
//! This module is exposed publicly only so the crate's stress tests can
//! hammer the pop/steal race directly; it is not a stable API.

pub use crate::job::JobRef;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Mutex;

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

/// A growable circular buffer of jobs. `cap` is always a power of two.
struct Buf {
    cap: usize,
    slots: *mut JobRef,
}

impl Buf {
    fn alloc(cap: usize) -> *mut Buf {
        debug_assert!(cap.is_power_of_two());
        let mut v: Vec<JobRef> = vec![JobRef::sentinel(0); cap];
        let slots = v.as_mut_ptr();
        std::mem::forget(v);
        Box::into_raw(Box::new(Buf { cap, slots }))
    }

    /// # Safety
    /// `ptr` must come from [`Buf::alloc`] and not be freed twice.
    // SAFETY: `alloc` leaked exactly this box and a `Vec` of length and
    // capacity `cap` at `slots`; the contract makes this their one free.
    unsafe fn dealloc(ptr: *mut Buf) {
        let buf = Box::from_raw(ptr);
        drop(Vec::from_raw_parts(buf.slots, buf.cap, buf.cap));
    }

    /// # Safety
    /// `self` is not yet freed: the live buffer, or a retired one (kept
    /// until the deque drops). A read racing an owner write may tear, so
    /// the caller uses the value only once it knows the slot was not
    /// reused (a thief: its CAS on `top` succeeded).
    // SAFETY: the mask keeps the slot inside the `cap` slots of `alloc`.
    #[inline]
    unsafe fn get(&self, i: isize) -> JobRef {
        std::ptr::read_volatile(self.slots.add(i as usize & (self.cap - 1)))
    }

    /// # Safety
    /// Owner only, on the live buffer, so each slot has one writer; a
    /// thief reading the slot at once discards what it read ([`Buf::get`]).
    // SAFETY: the mask keeps the slot inside the `cap` slots of `alloc`.
    #[inline]
    unsafe fn put(&self, i: isize, job: JobRef) {
        std::ptr::write_volatile(self.slots.add(i as usize & (self.cap - 1)), job);
    }
}

/// A single-owner, multi-thief work-stealing deque of [`JobRef`]s.
pub struct Deque {
    bottom: AtomicIsize,
    top: AtomicIsize,
    buf: AtomicPtr<Buf>,
    /// Buffers replaced by [`grow`](Self::grow); freed only on drop, since
    /// in-flight thieves may still read through them.
    retired: Mutex<Vec<*mut Buf>>,
}

// SAFETY: the deque owns its buffers (raw pointers only because thieves
// share them) and the jobs in them, and `JobRef` is itself Send.
unsafe impl Send for Deque {}
// SAFETY: shared access follows the Chase–Lev protocol: slots are touched
// only by volatile reads and writes ordered by the atomics on `top` and
// `bottom`, a value read in a lost race is discarded, retired buffers live
// until drop, and `retired` is behind a `Mutex`.
unsafe impl Sync for Deque {}

impl Default for Deque {
    fn default() -> Self {
        Self::new()
    }
}

impl Deque {
    /// An empty deque with a small initial buffer.
    pub fn new() -> Self {
        Deque {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buf: AtomicPtr::new(Buf::alloc(64)),
            retired: Mutex::new(Vec::new()),
        }
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

    /// Pushes a job on the owner (LIFO) end. Owner only.
    pub fn push(&self, job: JobRef) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buf.load(Ordering::Relaxed);
        // SAFETY: owner only, so `buf` is the live buffer (only the owner
        // replaces it) and `t..b` bounds its live slots; slot `b` is not
        // live, so no thief uses it until the Release store below.
        unsafe {
            if b - t >= (*buf).cap as isize {
                buf = self.grow(b, t, buf);
            }
            (*buf).put(b, job);
        }
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Pops the most recently pushed job. Owner only.
    pub fn pop(&self) -> Option<JobRef> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buf.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: owner only, so `buf` is the live buffer; slot `b` holds a
        // pushed job. Only when `t == b` can a thief take it first, and then
        // the CAS below fails and this copy is dropped unused.
        let job = unsafe { (*buf).get(b) };
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
        let buf = self.buf.load(Ordering::Acquire);
        // SAFETY: `buf` may be stale (the owner grew it since), but retired
        // buffers live until the deque drops; a torn or stale value is
        // returned only if the CAS on `top` below succeeds.
        let job = unsafe { (*buf).get(t) };
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

    /// Doubles the buffer, copying live slots `t..b`.
    ///
    /// # Safety
    /// Owner only: `old` is the live buffer and `t..b` its live range.
    // SAFETY: thieves still reading `old` stay safe because it is retired,
    // not freed, and the new buffer is published with Release.
    unsafe fn grow(&self, b: isize, t: isize, old: *mut Buf) -> *mut Buf {
        let new = Buf::alloc((*old).cap * 2);
        for i in t..b {
            (*new).put(i, (*old).get(i));
        }
        self.buf.store(new, Ordering::Release);
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(old);
        new
    }
}

impl Drop for Deque {
    fn drop(&mut self) {
        // SAFETY: `&mut self`, so no thread can touch the deque; the live
        // buffer and every retired one came from `Buf::alloc` and are freed
        // here once each.
        unsafe {
            Buf::dealloc(self.buf.load(Ordering::Relaxed));
            for old in self
                .retired
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                Buf::dealloc(old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d = Deque::new();
        for i in 1..=4 {
            d.push(JobRef::sentinel(i));
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.steal(), Steal::Success(JobRef::sentinel(1)));
        assert_eq!(d.pop().map(|j| j.tag()), Some(4));
        assert_eq!(d.steal(), Steal::Success(JobRef::sentinel(2)));
        assert_eq!(d.pop().map(|j| j.tag()), Some(3));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let d = Deque::new();
        for i in 0..1000 {
            d.push(JobRef::sentinel(i));
        }
        for i in (0..1000).rev() {
            assert_eq!(d.pop().map(|j| j.tag()), Some(i));
        }
        assert_eq!(d.pop(), None);
    }
}

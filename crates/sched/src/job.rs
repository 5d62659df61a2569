//! Type-erased schedulable jobs.
//!
//! A [`JobRef`] is a `(data, exec)` pair pointing at a [`StackJob`]:
//! a closure borrowed from the stack of a blocked `join`/`install`
//! caller, completion signalled through a latch. It wraps user code in
//! `catch_unwind`, so a panicking task never unwinds into the worker
//! loop — the pool is never poisoned; the payload is parked in the job's
//! result slot and rethrown on the thread that waits for it.

use crate::latch::Latch;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};

/// Type-erased pointer to a job queued on a deque or the injector.
///
/// Public only for the deque stress tests (see [`crate::deque`]); nothing
/// outside this crate can execute one.
#[derive(Clone, Copy, Debug)]
pub struct JobRef {
    data: *const (),
    // SAFETY: called only by `execute`, on `data`, under its contract.
    exec: unsafe fn(*const ()),
}

// SAFETY: a JobRef crosses threads by design; `StackJob` requires its
// closure and result to be Send, and each job is executed exactly once.
unsafe impl Send for JobRef {}
// SAFETY: a shared JobRef only exposes its two plain-data fields; running
// it takes the value (`execute(self)`), which the deque hands to exactly
// one thread.
unsafe impl Sync for JobRef {}

impl PartialEq for JobRef {
    fn eq(&self, other: &Self) -> bool {
        // Jobs are distinct allocations/stack slots, so the data pointer
        // identifies a job; comparing `exec` would trip the
        // unpredictable-fn-pointer-comparison lint for no extra precision.
        std::ptr::eq(self.data, other.data)
    }
}
impl Eq for JobRef {}

impl JobRef {
    /// Runs the job. Called exactly once, by a pool worker.
    ///
    /// # Safety
    /// `data` must still be alive: the owner of the stack job is blocked
    /// on its latch.
    // SAFETY: `exec` dereferences `data`, whose liveness no type tracks.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: `exec` is the `StackJob::<L, F, R>::execute` that
        // `as_job_ref` paired with this `data`; liveness is the caller's.
        unsafe { (self.exec)(self.data) }
    }

    /// An inert job carrying `tag` as its payload pointer — never executed;
    /// exists so the deque stress tests can queue distinguishable values.
    pub fn sentinel(tag: usize) -> JobRef {
        // SAFETY: does nothing, so it needs nothing; it is declared so
        // only to fit `exec`'s type.
        unsafe fn never(_: *const ()) {}
        JobRef {
            data: tag as *const (),
            exec: never,
        }
    }

    /// The tag of a [`sentinel`](Self::sentinel) job.
    pub fn tag(&self) -> usize {
        self.data as usize
    }
}

/// Completion state of a [`StackJob`].
pub(crate) enum JobResult<R> {
    /// Not executed yet.
    None,
    /// Finished normally.
    Ok(R),
    /// The closure panicked; the payload is rethrown by the waiter.
    Panicked(Box<dyn Any + Send>),
}

/// A job borrowed from the stack of a thread blocked on its completion.
pub(crate) struct StackJob<L: Latch, F, R> {
    pub(crate) latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

// SAFETY: accessed from the spawning thread and exactly one executing
// worker, with the latch ordering the handoff (func is taken before the
// latch is set; the result is read only after the latch is observed set).
unsafe impl<L: Latch + Sync, F: Send, R: Send> Sync for StackJob<L, F, R> {}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(latch: L, func: F) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    /// # Safety
    /// The caller must keep `self` alive (blocked on the latch) until the
    /// returned job has executed.
    // SAFETY: the `JobRef` erases `self`'s lifetime, so the caller keeps it.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast(),
            exec: Self::execute,
        }
    }

    /// # Safety
    /// `data` came from [`as_job_ref`](Self::as_job_ref) on a job that is
    /// still alive, and this is the only execution of it.
    // SAFETY: `data` is an erased `&Self`, so its type and liveness are the
    // caller's word; the blocks below rely on it.
    unsafe fn execute(data: *const ()) {
        // SAFETY: `data` is the `&Self` erased by `as_job_ref`, alive per
        // this function's contract.
        let this = unsafe { &*data.cast::<Self>() };
        // SAFETY: until the latch is set the executing worker is the only
        // thread touching `func` and `result` (the spawner waits on the
        // latch before reading either).
        let func = unsafe { (*this.func.get()).take() }.expect("stack job executed twice");
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(payload) => JobResult::Panicked(payload),
        };
        // SAFETY: as above — still before the latch is set.
        unsafe { *this.result.get() = result };
        // Release-store: the waiter's acquire-probe of the latch makes the
        // result write visible before take_result runs.
        this.latch.set();
    }

    /// # Safety
    /// Only after the latch was observed set.
    // SAFETY: reads `result` through the `UnsafeCell`, which is sound only
    // once the executing worker is done with it (the latch).
    pub(crate) unsafe fn take_result(&self) -> JobResult<R> {
        // SAFETY: the latch is set, so the executing worker made its last
        // access to this job; the caller is the only thread left.
        unsafe { std::mem::replace(&mut *self.result.get(), JobResult::None) }
    }
}

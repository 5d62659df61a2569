//! Type-erased schedulable jobs.
//!
//! A [`JobRef`] is one pointer to a [`JobHeader`], the first field of a
//! `#[repr(C)]` [`StackJob`]: a closure borrowed from the stack of a
//! blocked `join`/`install` caller, completion signalled through a latch.
//! The header holds the function that runs the job, so a deque slot is a
//! single atomic word. A job wraps user code in `catch_unwind`, so a
//! panicking task never unwinds into the worker loop — the pool is never
//! poisoned; the payload is parked in the job's result slot and rethrown
//! on the thread that waits for it.

use crate::latch::Latch;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};

/// What every job starts with: the function that runs it, called with a
/// pointer to this header (which is also a pointer to the whole job).
pub(crate) struct JobHeader {
    // SAFETY: called only by `JobRef::execute`, under its contract.
    exec: unsafe fn(*const JobHeader),
}

/// Type-erased pointer to a job queued on a deque or the injector.
///
/// Public only for the deque stress tests (see [`crate::deque`]); nothing
/// outside this crate can execute one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRef(pub(crate) *const JobHeader);

// SAFETY: a JobRef crosses threads by design; `StackJob` requires its
// closure and result to be Send, and each job is executed exactly once.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job. Called exactly once, by a pool worker.
    ///
    /// # Safety
    /// The job must still be alive: its owner is blocked on its latch.
    // SAFETY: `exec` dereferences the job, whose liveness no type tracks.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: the header is alive per the contract, and its `exec` is
        // the `StackJob::<L, F, R>::execute` that `as_job_ref` put there.
        unsafe { ((*self.0).exec)(self.0) }
    }

    /// An inert job carrying `tag` as its address — never executed; exists
    /// so the deque stress tests can queue distinguishable values.
    pub fn sentinel(tag: usize) -> JobRef {
        JobRef(std::ptr::without_provenance(tag))
    }

    /// The tag of a [`sentinel`](Self::sentinel) job.
    pub fn tag(&self) -> usize {
        self.0.addr()
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
/// `repr(C)` keeps the header first, so a header pointer is a job pointer.
#[repr(C)]
pub(crate) struct StackJob<L: Latch, F, R> {
    header: JobHeader,
    pub(crate) latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(latch: L, func: F) -> Self {
        StackJob {
            header: JobHeader {
                exec: Self::execute,
            },
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
        // A pointer to the whole job (not just the header field), so
        // `execute` may read all of it through the header pointer.
        JobRef((self as *const Self).cast())
    }

    /// # Safety
    /// `header` came from [`as_job_ref`](Self::as_job_ref) on a job that
    /// is still alive, and this is the only execution of it.
    // SAFETY: `header` is an erased `&Self`, so its type and liveness are
    // the caller's word; the blocks below rely on it.
    unsafe fn execute(header: *const JobHeader) {
        // SAFETY: `header` is the first field of a live `repr(C)` `Self`
        // (`as_job_ref`), so it points at the whole job.
        let this = unsafe { &*header.cast::<Self>() };
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

//! The pool: persistent workers, the injector and parking.
//!
//! Each [`Pool`] owns `n` OS threads. A worker looks for work in a fixed
//! order — own deque (LIFO), global injector (FIFO), steal from a random
//! victim (FIFO) — and when all three come up empty it parks on the
//! pool's condvar with an exponentially growing timeout (spin/yield
//! rounds first, then 50µs doubling to 3.2ms). Publishers (pushes,
//! injections, completed jobs) notify the condvar only when the sleeper
//! count is nonzero, so the notify cost is a fence + relaxed load on the
//! hot path. The `SeqCst` fences on both sides of the sleep registration
//! close the lost-wakeup race: either the publisher sees the sleeper and
//! notifies, or the sleeper's post-registration re-check sees the work.
//!
//! External submission ([`Pool::install`]) migrates the closure *onto* a
//! worker via a stack job in the injector, so everything below the entry
//! point (every `join` of every loop) runs on pool threads with cheap
//! deque pushes, never OS spawns.

use crate::job::{JobRef, JobResult, StackJob};
use crate::latch::LockLatch;
use crate::metrics::{SchedObs, SchedStats};
use pargeo_obs::Registry;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Error building a [`Pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// Spawning a worker OS thread failed.
    Spawn,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Spawn => f.write_str("failed to spawn scheduler worker thread"),
        }
    }
}

impl std::error::Error for BuildError {}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-worker counters, cache-line padded: always on (relaxed atomics),
/// independent of whether a registry is attached.
#[repr(align(64))]
pub(crate) struct PerWorker {
    pub(crate) tasks: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) parks: AtomicU64,
}

impl PerWorker {
    fn new() -> Self {
        PerWorker {
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }
}

/// Sleep/wake state shared by all of a pool's workers.
struct Sleep {
    lock: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

pub(crate) struct PoolState {
    n: usize,
    deques: Vec<crate::deque::Deque>,
    injector: Mutex<VecDeque<JobRef>>,
    /// Mirror of the injector length, readable without its lock (both to
    /// skip the lock when empty and to avoid lock-order cycles from the
    /// sleep path).
    injector_len: AtomicUsize,
    sleep: Sleep,
    terminate: AtomicBool,
    /// Registry-backed metric handles, if a registry was attached.
    obs: OnceLock<SchedObs>,
    counters: Vec<PerWorker>,
}

impl PoolState {
    /// FIFO submission from outside the pool (or cross-pool).
    pub(crate) fn inject(&self, job: JobRef) {
        {
            let mut q = lock(&self.injector);
            q.push_back(job);
            self.injector_len.store(q.len(), Ordering::Release);
            if let Some(o) = self.obs.get() {
                o.queue_depth.set(q.len() as i64);
            }
        }
        self.notify_sleepers();
    }

    /// Wakes parked workers if any. The fence pairs with the one in
    /// [`Worker::park`]: a publisher that misses the sleeper count is
    /// ordered before the sleeper's work re-check.
    fn notify_sleepers(&self) {
        fence(Ordering::SeqCst);
        if self.sleep.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = lock(&self.sleep.lock);
            self.sleep.cv.notify_all();
        }
    }

    /// Racy "is anything queued anywhere" check used before sleeping.
    fn has_visible_work(&self) -> bool {
        self.injector_len.load(Ordering::Acquire) > 0 || self.deques.iter().any(|d| !d.is_empty())
    }
}

/// Idle backoff: a few spin/yield rounds, then exponentially longer
/// parks (50µs → 3.2ms).
pub(crate) struct Backoff {
    rounds: u32,
}

impl Backoff {
    const SPIN: u32 = 4;
    const YIELD: u32 = 32;
    const MAX_PARK_SHIFT: u32 = 6;

    pub(crate) fn new() -> Self {
        Backoff { rounds: 0 }
    }

    pub(crate) fn reset(&mut self) {
        self.rounds = 0;
    }

    /// One busy-phase step; `true` while the caller should retry without
    /// sleeping. Yields dominate the busy phase so single-core hosts let
    /// the thread that has the work actually run.
    fn spin(&mut self) -> bool {
        if self.rounds < Self::YIELD {
            if self.rounds < Self::SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            self.rounds += 1;
            true
        } else {
            false
        }
    }

    fn park_duration(&mut self) -> Duration {
        let shift = (self.rounds - Self::YIELD).min(Self::MAX_PARK_SHIFT);
        self.rounds = self.rounds.saturating_add(1);
        Duration::from_micros(50u64 << shift)
    }
}

thread_local! {
    static WORKER: Cell<*const Worker> = const { Cell::new(std::ptr::null()) };
}

/// Runs `f` with the calling thread's worker context, if it is a pool
/// worker thread.
pub(crate) fn with_worker<R>(f: impl FnOnce(Option<&Worker>) -> R) -> R {
    let ptr = WORKER.with(|c| c.get());
    // SAFETY: the pointer is set by worker_main to a stack slot that
    // outlives everything the worker runs, and only ever dereferenced on
    // that same thread.
    f(unsafe { ptr.as_ref() })
}

/// Per-thread worker context, owned by the worker's main-loop stack.
pub(crate) struct Worker {
    state: Arc<PoolState>,
    index: usize,
    rng: Cell<u64>,
}

impl Worker {
    pub(crate) fn pool_size(&self) -> usize {
        self.state.n
    }

    pub(crate) fn in_pool(&self, state: &Arc<PoolState>) -> bool {
        Arc::ptr_eq(&self.state, state)
    }

    /// Pushes onto the own deque (LIFO end) and wakes a thief if parked;
    /// hands the job back if the deque is full.
    pub(crate) fn push(&self, job: JobRef) -> Result<(), JobRef> {
        self.state.deques[self.index].push(job)?;
        self.state.notify_sleepers();
        Ok(())
    }

    pub(crate) fn pop(&self) -> Option<JobRef> {
        self.state.deques[self.index].pop()
    }

    fn pop_injected(&self) -> Option<JobRef> {
        if self.state.injector_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = lock(&self.state.injector);
        let job = q.pop_front();
        self.state.injector_len.store(q.len(), Ordering::Release);
        if let Some(o) = self.state.obs.get() {
            o.queue_depth.set(q.len() as i64);
        }
        job
    }

    fn try_steal(&self) -> Option<JobRef> {
        let n = self.state.n;
        if n <= 1 {
            return None;
        }
        let start = self.next_rand() as usize % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match self.state.deques[victim].steal() {
                    crate::deque::Steal::Success(job) => {
                        self.state.counters[self.index]
                            .steals
                            .fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = self.state.obs.get() {
                            o.steals.inc();
                        }
                        return Some(job);
                    }
                    crate::deque::Steal::Retry => std::hint::spin_loop(),
                    crate::deque::Steal::Empty => break,
                }
            }
        }
        None
    }

    fn find_work(&self) -> Option<JobRef> {
        self.pop()
            .or_else(|| self.pop_injected())
            .or_else(|| self.try_steal())
    }

    /// Runs one job, counting it and waking any waiter that may be parked
    /// on its completion.
    pub(crate) fn execute_job(&self, job: JobRef) {
        self.state.counters[self.index]
            .tasks
            .fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.state.obs.get() {
            o.tasks.inc();
            o.per_worker[self.index].inc();
        }
        // SAFETY: every queued JobRef is alive until executed — its stack
        // job is pinned by the spawner blocked on its latch.
        unsafe { job.execute() };
        self.state.notify_sleepers();
    }

    /// Works (executing anything available) until `done()`, parking with
    /// backoff when idle. The latch-wait primitive under `join`.
    pub(crate) fn wait_until(&self, done: &dyn Fn() -> bool) {
        let mut backoff = Backoff::new();
        loop {
            if done() {
                return;
            }
            if let Some(job) = self.find_work() {
                self.execute_job(job);
                backoff.reset();
                continue;
            }
            self.park(&mut backoff, done);
        }
    }

    /// One idle step: spin/yield first, then register as a sleeper and
    /// block on the pool condvar (bounded timeout).
    fn park(&self, backoff: &mut Backoff, done: &dyn Fn() -> bool) {
        if backoff.spin() {
            return;
        }
        let sleep = &self.state.sleep;
        let guard = lock(&sleep.lock);
        sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if done() || self.state.has_visible_work() || self.state.terminate.load(Ordering::Acquire) {
            sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.state.counters[self.index]
            .parks
            .fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.state.obs.get() {
            o.parks.inc();
        }
        let _ = sleep
            .cv
            .wait_timeout(guard, backoff.park_duration())
            .unwrap_or_else(|e| e.into_inner());
        sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn next_rand(&self) -> u64 {
        // xorshift64*; seeded per worker, used only for victim selection.
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x
    }
}

fn worker_main(state: Arc<PoolState>, index: usize) {
    let worker = Worker {
        state,
        index,
        rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ ((index as u64) << 1 | 1)),
    };
    WORKER.with(|c| c.set(&worker as *const Worker));
    let mut backoff = Backoff::new();
    loop {
        if let Some(job) = worker.find_work() {
            worker.execute_job(job);
            backoff.reset();
            continue;
        }
        // Drain-before-exit: terminate is only honored once no work is
        // reachable, so queued jobs finish before the pool drops.
        if worker.state.terminate.load(Ordering::Acquire) {
            break;
        }
        worker.park(&mut backoff, &|| false);
    }
    WORKER.with(|c| c.set(std::ptr::null()));
}

/// Builder for a [`Pool`].
#[derive(Default)]
pub struct PoolBuilder {
    num_threads: Option<usize>,
}

impl PoolBuilder {
    /// An empty builder (machine-default worker count).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (`0` means the machine default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = (n != 0).then_some(n);
        self
    }

    /// Spawns the workers.
    pub fn build(self) -> Result<Pool, BuildError> {
        let n = self.num_threads.unwrap_or_else(default_threads).max(1);
        let state = Arc::new(PoolState {
            n,
            deques: (0..n).map(|_| crate::deque::Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep: Sleep {
                lock: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            terminate: AtomicBool::new(false),
            obs: OnceLock::new(),
            counters: (0..n).map(|_| PerWorker::new()).collect(),
        });
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let st = state.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("pargeo-sched-{i}"))
                .spawn(move || worker_main(st, i));
            match spawned {
                Ok(h) => handles.push(h),
                Err(_) => {
                    // Tear down the partially spawned pool before failing.
                    state.terminate.store(true, Ordering::SeqCst);
                    {
                        let _guard = lock(&state.sleep.lock);
                        state.sleep.cv.notify_all();
                    }
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(BuildError::Spawn);
                }
            }
        }
        Ok(Pool { state, handles })
    }
}

/// A persistent work-stealing thread pool.
///
/// Dropping the pool drains all queued work, then joins the workers.
pub struct Pool {
    state: Arc<PoolState>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool with `n` workers (`0` means the machine default). Panics if
    /// worker threads cannot be spawned; use [`PoolBuilder`] for the
    /// fallible path.
    pub fn new(n: usize) -> Pool {
        PoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("spawn scheduler workers")
    }

    /// Number of workers.
    pub fn num_threads(&self) -> usize {
        self.state.n
    }

    /// Runs `op` on a pool worker, blocking until it completes. Panics in
    /// `op` resurface here (on the caller), never poisoning the pool.
    ///
    /// Called from a worker of this same pool, `op` runs inline. Called
    /// from anywhere else — an
    /// external thread or another pool's worker — `op` migrates through
    /// the injector, so *everything* beneath it executes on this pool.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let inline = with_worker(|w| matches!(w, Some(w) if w.in_pool(&self.state)));
        if inline {
            return op();
        }
        let job = StackJob::new(LockLatch::new(), op);
        // SAFETY: this frame blocks on the latch until the job ran.
        let job_ref = unsafe { job.as_job_ref() };
        self.state.inject(job_ref);
        job.latch.wait();
        // SAFETY: `wait` returned, so the latch was observed set.
        match unsafe { job.take_result() } {
            JobResult::Ok(r) => r,
            JobResult::Panicked(payload) => panic::resume_unwind(payload),
            JobResult::None => unreachable!("install job signalled without a result"),
        }
    }

    /// Registers this pool's metrics against `registry` (first attach
    /// wins): `sched_tasks_total`, `sched_steals_total`,
    /// `sched_parks_total`, `sched_queue_depth`, and per-worker
    /// `sched_worker_tasks_total{worker=..}`. Registry counters meter
    /// from the moment of attachment; [`Pool::stats`] always covers the
    /// pool's full lifetime.
    pub fn attach_registry(&self, registry: &Arc<Registry>) {
        let _ = self.state.obs.set(SchedObs::new(registry, self.state.n));
    }

    /// Lifetime counters from the always-on per-worker atomics.
    pub fn stats(&self) -> SchedStats {
        let per_worker_tasks: Vec<u64> = self
            .state
            .counters
            .iter()
            .map(|c| c.tasks.load(Ordering::Relaxed))
            .collect();
        SchedStats {
            workers: self.state.n,
            tasks_total: per_worker_tasks.iter().sum(),
            steals_total: self
                .state
                .counters
                .iter()
                .map(|c| c.steals.load(Ordering::Relaxed))
                .sum(),
            parks_total: self
                .state
                .counters
                .iter()
                .map(|c| c.parks.load(Ordering::Relaxed))
                .sum(),
            per_worker_tasks,
            injector_depth: self.state.injector_len.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.state.terminate.store(true, Ordering::SeqCst);
        {
            let _guard = lock(&self.state.sleep.lock);
            self.state.sleep.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use at the machine default
/// size.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

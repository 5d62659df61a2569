//! Scheduler observability: always-on per-worker atomics surfaced as
//! [`SchedStats`], plus optional registry-backed handles
//! ([`Pool::attach_registry`](crate::Pool::attach_registry)) following
//! the same discipline as the rest of the workspace — handles resolved
//! once, relaxed-atomic recording, nothing on the hot path beyond a
//! `OnceLock` load.

use pargeo_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Registry-backed metric handles for one pool.
pub(crate) struct SchedObs {
    /// `sched_tasks_total` — jobs executed (join halves, installs).
    pub(crate) tasks: Arc<Counter>,
    /// `sched_steals_total` — successful steals from another worker's
    /// deque.
    pub(crate) steals: Arc<Counter>,
    /// `sched_parks_total` — times a worker slept on the pool condvar
    /// (spin/yield rounds that found work don't count).
    pub(crate) parks: Arc<Counter>,
    /// `sched_queue_depth` — jobs waiting in the global injector.
    pub(crate) queue_depth: Arc<Gauge>,
    /// `sched_worker_tasks_total{worker=..}` — per-worker executed tasks.
    pub(crate) per_worker: Vec<Arc<Counter>>,
}

impl SchedObs {
    pub(crate) fn new(registry: &Arc<Registry>, workers: usize) -> Self {
        SchedObs {
            tasks: registry.counter("sched_tasks_total", &[]),
            steals: registry.counter("sched_steals_total", &[]),
            parks: registry.counter("sched_parks_total", &[]),
            queue_depth: registry.gauge("sched_queue_depth", &[]),
            per_worker: (0..workers)
                .map(|i| {
                    let label = i.to_string();
                    registry.counter("sched_worker_tasks_total", &[("worker", &label)])
                })
                .collect(),
        }
    }
}

/// Snapshot of a pool's lifetime counters (see
/// [`Pool::stats`](crate::Pool::stats)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker count.
    pub workers: usize,
    /// Total executed jobs across all workers.
    pub tasks_total: u64,
    /// Total successful steals.
    pub steals_total: u64,
    /// Total condvar parks.
    pub parks_total: u64,
    /// Executed jobs per worker, indexed by worker id.
    pub per_worker_tasks: Vec<u64>,
    /// Current injector depth (racy snapshot).
    pub injector_depth: usize,
}

//! Thread-pool helpers for the paper's thread-count sweeps (Figure 11's
//! `1, 2, 4, …, 36h` x-axes).

/// Runs `f` on a dedicated [`pargeo_sched::Pool`] with exactly `n` worker
/// threads (`0` means the machine default) and returns its result. All
/// `pargeo` parallel primitives invoked inside `f` inherit the pool, so
/// `with_threads(1, …)` measures `T1` and `with_threads(p, …)` measures
/// `Tp`. Panics if the worker threads cannot be spawned.
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    pargeo_sched::Pool::new(n).install(f)
}

/// Number of worker threads in the current pool (the machine default if no
/// explicit pool is installed).
pub fn num_threads() -> usize {
    pargeo_sched::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_controls_pool_size() {
        let inside = with_threads(3, num_threads);
        assert_eq!(inside, 3);
    }

    #[test]
    fn with_threads_single() {
        let inside = with_threads(1, num_threads);
        assert_eq!(inside, 1);
    }

    #[test]
    fn returns_closure_result() {
        let v = with_threads(2, || {
            let a: Vec<u64> = (0..10_000).collect();
            crate::reduce(a.len(), 1024, |r| a[r].iter().sum::<u64>(), |x, y| x + y)
        });
        assert_eq!(v, (0..10_000u64).sum());
    }
}

//! # pargeo-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (§6), plus the
//! large-n harness; the recorded benchmark is `bench/` (the ledger), not
//! this crate:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — runtimes and self-relative speedups across all modules |
//! | `fig8_hull2d` | Figure 8 — 2D convex hull across datasets and methods |
//! | `fig9_hull3d` | Figure 9 — 3D convex hull across datasets and methods |
//! | `fig10_seb` | Figure 10 — smallest enclosing ball across datasets and methods |
//! | `fig11_bdltree` | Figure 11 — BDL vs B1/B2 throughput over thread counts |
//! | `fig12_reservation` | Figure 12 — reservation overhead counters (Appendix B) |
//! | `fig14_knn_k` | Figure 14 — k-NN throughput vs k after incremental builds |
//! | `zdtree_compare` | §6.3 — BDL-tree vs Zd-tree |
//! | `ablations` | §5 design claims — pseudohull stop threshold, SEB sampling segment size, BDL buffer size |
//! | `scale_sweep` | large-n trajectory of the flat-arena/SoA layouts: build/query throughput + peak RSS per backend at n ∈ {10⁵, 10⁶, 10⁷} (`PARGEO_SCALE=full`), digest-anchored against the pre-arena layouts |
//!
//! Sizes scale with `PARGEO_N` (default laptop-scale; the paper used
//! 10M–100M on 36 cores). `PARGEO_THREADS` caps the sweep. Shapes — which
//! method wins where, crossovers — are the reproduction target, not
//! absolute times; see EXPERIMENTS.md.

pub mod scale;

use std::time::Instant;

/// Input size from `PARGEO_N` (with a per-binary default).
pub fn env_n(default: usize) -> usize {
    std::env::var("PARGEO_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Thread counts to sweep: 1, 2, 4, … up to the machine (or
/// `PARGEO_THREADS`).
pub fn thread_sweep() -> Vec<usize> {
    let max = std::env::var("PARGEO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
        });
    let mut v = vec![1];
    let mut t = 2;
    while t < max {
        v.push(t);
        t *= 2;
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

/// Largest thread count of the sweep.
pub fn max_threads() -> usize {
    *thread_sweep().last().unwrap()
}

/// Wall-clock seconds of one invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Best of `reps` invocations (seconds).
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    // (callers warm up separately when measuring cross-pool speedups)
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (_, s) = time(&mut f);
        best = best.min(s);
    }
    best
}

/// `T1` and `Tp` for a closure run under 1-thread and max-thread pools,
/// with the paper's speedup column. One untimed warmup run (page faults,
/// lazy allocation) precedes the measurements; each measurement is the
/// best of two.
pub fn t1_tp<R: Send>(f: impl Fn() -> R + Sync + Send) -> (f64, f64, f64) {
    let p = max_threads();
    let _ = f(); // warmup on the ambient pool
    let t1 = pargeo::parlay::with_threads(1, || time_best(2, &f));
    let tp = pargeo::parlay::with_threads(p, || time_best(2, &f));
    (t1, tp, t1 / tp)
}

/// Milliseconds, formatted like the paper's log-scale plots.
pub fn ms(secs: f64) -> String {
    format!("{:.1}", secs * 1e3)
}

/// Prints a markdown-ish table header.
pub fn header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_starts_at_one_and_is_increasing() {
        let s = thread_sweep();
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn timing_is_positive() {
        let (_, s) = time(|| (0..100_000u64).sum::<u64>());
        assert!(s >= 0.0);
        assert!(time_best(2, || 1 + 1) >= 0.0);
    }
}

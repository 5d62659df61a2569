//! The metric primitives: atomic counters, gauges, and log-bucketed
//! latency histograms with quantile estimation.
//!
//! Everything here records through plain atomics — no locks, no
//! allocation — so the parlay fork-join read fan-out can hammer a shared
//! handle from every worker without contention beyond the cache line.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// `inc`/`add` are relaxed atomic adds; the value never decreases, which
/// the proptest suite asserts under concurrent recording.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (queue depths, live
/// counts, shard spreads).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: values 0–3 get exact buckets, every
/// larger octave `[2^k, 2^{k+1})` splits into 4 sub-buckets, up to the
/// full `u64` range.
pub const NUM_BUCKETS: usize = 252;

/// The bucket a value lands in. Exact below 4; quarter-octave
/// (≤ 25% relative width) above.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 2)) & 3) as usize;
        (octave - 1) * 4 + sub
    }
}

/// Largest value that lands in bucket `i` (saturating at `u64::MAX`).
pub fn bucket_upper(i: usize) -> u64 {
    if i < 4 {
        i as u64
    } else {
        let octave = i / 4 + 1;
        let sub = (i % 4) as u128;
        let ub = (1u128 << octave) + ((sub + 1) << (octave - 2)) - 1;
        ub.min(u64::MAX as u128) as u64
    }
}

/// Smallest value that lands in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        bucket_upper(i - 1).saturating_add(1)
    }
}

/// A log-bucketed histogram of `u64` observations (latencies in
/// nanoseconds, by convention).
///
/// Recording is four relaxed atomic operations; quantile estimation walks
/// a snapshot of the buckets and answers with the containing bucket's
/// upper bound, so estimates are exact below 4 and within the
/// quarter-octave bucket width (≤ 25% relative error) above — the bound
/// the proptest suite asserts against a sorted oracle.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] as nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `q`-quantile estimate (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-`⌈q·n⌉` observation, clamped to the
    /// observed maximum. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Count / sum / max plus the p50/p90/p99 estimates, as one value.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Point-in-time summary of a [`Histogram`] — counts and quantile
/// estimates in the histogram's raw units (nanoseconds by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistSummary {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Median in milliseconds, reading the raw units as nanoseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50 as f64 / 1e6
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99 as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose [lower, upper] range
        // contains it, and bucket ranges tile the line in order.
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1).saturating_add(1));
        }
        for v in (0..1_000u64).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in 4..NUM_BUCKETS {
            let lo = bucket_lower(i) as f64;
            let hi = bucket_upper(i) as f64;
            assert!(hi / lo <= 1.25 + 1e-9, "bucket {i}: {lo}..{hi}");
        }
    }

    #[test]
    fn quantiles_of_a_known_set() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        let s = h.summary();
        // Exact below 4, ≤25% above: p50 of 1..=100 is 50.
        assert!(s.p50 >= 50 && s.p50 <= 63, "{s:?}");
        assert!(s.p99 >= 99 && s.p99 <= 100, "{s:?}");
        assert_eq!(s.max, 100);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }
}

//! # pargeo-obs — observability for the ParGeo serving stack
//!
//! A dependency-free (std-only, shim-style like `crates/shims/`)
//! observability layer the serve path can afford to keep on:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — pure-atomic
//!   recording, so the parlay fork-join read fan-out can record from
//!   every worker without locks. Histograms are log-bucketed
//!   (quarter-octave buckets, ≤ 25% relative width) with p50/p90/p99/max
//!   quantile estimation ([`HistSummary`]).
//! * **Registry** ([`Registry`]) — named, labeled metric families with
//!   get-or-create `Arc` handles (read-lock fast path, write lock only on
//!   first registration) and two exposition surfaces:
//!   [`render_prometheus`](Registry::render_prometheus) (text format) and
//!   [`render_json`](Registry::render_json).
//! * **Spans** ([`SpanGuard`], the [`span!`] macro) — wall-time guards
//!   that record into a per-scope histogram and optionally append to a
//!   bounded in-memory trace ring ([`TraceEvent`]: epoch id, request
//!   class, shard id, memo path — whatever labels the caller attaches).
//! * **[`ObsLevel`]** — the dial consumers expose (`GeoStore::builder()
//!   .observe(..)`): `Off` compiles the whole layer down to a skipped
//!   `Option` branch, `Metrics` records counters and histograms,
//!   `Trace` adds the ring.
//!
//! Determinism contract: observation never touches answers. An
//! instrumented run must produce bit-identical response digests to an
//! unobserved one — the store's integration suite asserts exactly that.
//!
//! ```
//! use pargeo_obs::{span, ObsLevel, Registry};
//!
//! let reg = Registry::with_trace(256);
//! let requests = reg.counter("requests_total", &[("class", "knn")]);
//! let latency = reg.histogram("request_nanos", &[("class", "knn")]);
//! requests.inc();
//! latency.record(42_000);
//! {
//!     let mut s = span!(reg, "epoch", epoch = 7, class = "insert");
//!     s.label("memo_path", "incremental");
//! } // records wall-time on drop
//! assert_eq!(reg.trace_events().len(), 1);
//! assert!(reg.render_prometheus().contains("requests_total{class=\"knn\"} 1"));
//! assert!(ObsLevel::default() == ObsLevel::Off && !ObsLevel::Off.tracing());
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;

pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, HistSummary, Histogram, NUM_BUCKETS,
};
pub use registry::{Labels, Registry, SpanGuard, TraceEvent, DEFAULT_TRACE_CAPACITY};

/// How much the instrumented layers observe. The default is [`Off`]:
/// observation must be asked for, and the off path is a skipped `Option`
/// branch on the serve path — no atomics, no `Instant` reads.
///
/// [`Off`]: ObsLevel::Off
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// No observation (the default): no registry is created.
    #[default]
    Off,
    /// Counters and latency histograms (span wall-times included).
    Metrics,
    /// [`Metrics`](ObsLevel::Metrics) plus the bounded trace ring.
    Trace,
}

impl ObsLevel {
    /// True iff the trace ring is kept.
    pub fn tracing(self) -> bool {
        self == ObsLevel::Trace
    }

    /// Builds the registry this level asks for (`None` when off).
    pub fn build_registry(self) -> Option<std::sync::Arc<Registry>> {
        match self {
            ObsLevel::Off => None,
            ObsLevel::Metrics => Some(std::sync::Arc::new(Registry::new())),
            ObsLevel::Trace => Some(std::sync::Arc::new(Registry::with_trace(
                DEFAULT_TRACE_CAPACITY,
            ))),
        }
    }
}

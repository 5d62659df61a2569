//! The metrics registry: named, labeled metric families behind one
//! handle, plus structured spans, the bounded trace ring, and the
//! Prometheus/JSON exposition surface.
//!
//! Lock discipline: the registry map takes a read lock on the fast path
//! (handle lookup) and a write lock only on first registration. Callers
//! on hot paths cache the returned `Arc` handles once, after which every
//! record is pure atomics — the registry lock never sits on a per-point
//! or per-query path.

use crate::metrics::{bucket_upper, Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Owned label set: `(key, value)` pairs, sorted by key at registration.
pub type Labels = Vec<(&'static str, String)>;

/// A metric family key: name plus its sorted label set.
type Key = (&'static str, Labels);

fn key(name: &'static str, labels: &[(&'static str, String)]) -> Key {
    let mut l: Labels = labels.to_vec();
    l.sort_unstable_by_key(|(k, _)| *k);
    (name, l)
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, Arc<Counter>>,
    gauges: BTreeMap<Key, Arc<Gauge>>,
    histograms: BTreeMap<Key, Arc<Histogram>>,
}

/// One completed span captured with its labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (gaps mean the ring dropped events).
    pub seq: u64,
    /// The span's scope (e.g. `"epoch"`, `"derived_memo"`).
    pub scope: &'static str,
    /// The labels the span was opened with.
    pub labels: Labels,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
}

struct RingInner {
    events: std::collections::VecDeque<TraceEvent>,
    seq: u64,
    dropped: u64,
}

/// Bounded in-memory ring of completed spans (oldest evicted first).
struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                events: std::collections::VecDeque::new(),
                seq: 0,
                dropped: 0,
            }),
        }
    }

    fn push(&self, scope: &'static str, labels: Labels, nanos: u64) {
        let Ok(mut r) = self.inner.lock() else {
            return; // a poisoned trace ring must never take the serve path down
        };
        let seq = r.seq;
        r.seq += 1;
        if r.events.len() == self.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(TraceEvent {
            seq,
            scope,
            labels,
            nanos,
        });
    }
}

/// Default capacity of the trace ring when tracing is enabled.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The metrics registry: get-or-create handles to counters, gauges, and
/// histograms keyed by `(name, labels)`, plus spans and the trace ring.
///
/// ```
/// use pargeo_obs::Registry;
///
/// let reg = Registry::new();
/// let hits = reg.counter("cache_hits_total", &[("kind", "hull")]);
/// hits.inc();
/// let lat = reg.histogram("request_nanos", &[("class", "knn")]);
/// lat.record(1_500);
/// let text = reg.render_prometheus();
/// assert!(text.contains("cache_hits_total{kind=\"hull\"} 1"));
/// assert!(reg.render_json().starts_with('{'));
/// ```
pub struct Registry {
    inner: RwLock<Inner>,
    trace: Option<TraceRing>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with metrics only (no trace ring).
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(Inner::default()),
            trace: None,
        }
    }

    /// A registry that also keeps the last `capacity` completed spans in
    /// an in-memory ring (see [`trace_events`](Self::trace_events)).
    pub fn with_trace(capacity: usize) -> Self {
        Self {
            trace: Some(TraceRing::new(capacity)),
            ..Self::new()
        }
    }

    /// True iff this registry keeps a trace ring.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The counter registered under `(name, labels)`, created at zero on
    /// first use. Cache the handle on hot paths.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Counter> {
        self.get_or_create(name, labels, |i| &i.counters, |i| &mut i.counters)
    }

    /// The gauge registered under `(name, labels)`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Gauge> {
        self.get_or_create(name, labels, |i| &i.gauges, |i| &mut i.gauges)
    }

    /// The histogram registered under `(name, labels)`.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Histogram> {
        self.get_or_create(name, labels, |i| &i.histograms, |i| &mut i.histograms)
    }

    /// The handle under `(name, labels)` in the family map that `map` and
    /// `map_mut` pick out, created empty on first use: a read-lock lookup,
    /// and the write lock only when the key is new.
    fn get_or_create<M: Default>(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        map: fn(&Inner) -> &BTreeMap<Key, Arc<M>>,
        map_mut: fn(&mut Inner) -> &mut BTreeMap<Key, Arc<M>>,
    ) -> Arc<M> {
        let owned: Labels = labels.iter().map(|(k, v)| (*k, v.to_string())).collect();
        let k = key(name, &owned);
        if let Some(m) = self
            .inner
            .read()
            .ok()
            .and_then(|i| map(&i).get(&k).cloned())
        {
            return m;
        }
        let mut i = self.inner.write().unwrap_or_else(|e| e.into_inner());
        map_mut(&mut i).entry(k).or_default().clone()
    }

    /// Opens a span: on drop, its wall-time lands in the
    /// `span_nanos{scope=..}` histogram and, if tracing, the trace ring.
    /// The labels ride along into the ring only — histogram cardinality
    /// stays bounded by the scope set.
    pub fn span(&self, scope: &'static str, labels: Labels) -> SpanGuard<'_> {
        SpanGuard {
            registry: self,
            hist: self.histogram("span_nanos", &[("scope", scope)]),
            scope,
            labels,
            start: Instant::now(),
        }
    }

    /// The trace ring's events, oldest first (empty when not tracing).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .and_then(|t| {
                t.inner
                    .lock()
                    .ok()
                    .map(|r| r.events.iter().cloned().collect())
            })
            .unwrap_or_default()
    }

    /// Counter values, sorted by `(name, labels)` — for tests and
    /// programmatic scraping without text parsing.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let i = self.inner.read().unwrap_or_else(|e| e.into_inner());
        i.counters
            .iter()
            .map(|((name, labels), c)| (format!("{name}{}", prom_labels(labels)), c.get()))
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le=..}` samples plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let i = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut last_type: Option<(&str, &str)> = None;
        let mut type_line = |out: &mut String, name: &'static str, kind: &'static str| {
            if last_type != Some((name, kind)) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_type = Some((name, kind));
            }
        };
        for ((name, labels), c) in &i.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name}{} {}\n", prom_labels(labels), c.get()));
        }
        for ((name, labels), g) in &i.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name}{} {}\n", prom_labels(labels), g.get()));
        }
        for ((name, labels), h) in &i.histograms {
            type_line(&mut out, name, "histogram");
            let counts = h.bucket_counts();
            let mut cum = 0u64;
            for (b, &n) in counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                let mut l = labels.clone();
                l.push(("le", bucket_upper(b).to_string()));
                out.push_str(&format!("{name}_bucket{} {cum}\n", prom_labels(&l)));
            }
            let mut l = labels.clone();
            l.push(("le", "+Inf".to_string()));
            out.push_str(&format!("{name}_bucket{} {cum}\n", prom_labels(&l)));
            out.push_str(&format!("{name}_sum{} {}\n", prom_labels(labels), h.sum()));
            out.push_str(&format!("{name}_count{} {cum}\n", prom_labels(labels)));
        }
        out
    }

    /// Renders the registry — metrics with quantile summaries and the
    /// trace ring — as one JSON object.
    pub fn render_json(&self) -> String {
        let i = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("{\"counters\":[");
        push_joined(&mut out, i.counters.iter(), |out, ((name, labels), c)| {
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                json_str(name),
                json_labels(labels),
                c.get()
            ));
        });
        out.push_str("],\"gauges\":[");
        push_joined(&mut out, i.gauges.iter(), |out, ((name, labels), g)| {
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                json_str(name),
                json_labels(labels),
                g.get()
            ));
        });
        out.push_str("],\"histograms\":[");
        push_joined(&mut out, i.histograms.iter(), |out, ((name, labels), h)| {
            let s = h.summary();
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                json_str(name),
                json_labels(labels),
                s.count,
                s.sum,
                s.p50,
                s.p90,
                s.p99,
                s.max
            ));
        });
        drop(i);
        out.push_str("],\"trace\":[");
        push_joined(&mut out, self.trace_events().iter(), push_event);
        out.push_str("]}");
        out
    }
}

/// A live span: records its wall-time on drop. Created by
/// [`Registry::span`] or the [`span!`](crate::span!) macro.
pub struct SpanGuard<'r> {
    registry: &'r Registry,
    hist: Arc<Histogram>,
    scope: &'static str,
    labels: Labels,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Appends a label discovered mid-span (e.g. the memo path taken).
    pub fn label(&mut self, k: &'static str, v: impl ToString) {
        self.labels.push((k, v.to_string()));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.hist.record(nanos);
        if let Some(ring) = &self.registry.trace {
            ring.push(self.scope, std::mem::take(&mut self.labels), nanos);
        }
    }
}

/// Opens a [`SpanGuard`] on a registry with `key = value` labels:
///
/// ```
/// use pargeo_obs::{span, Registry};
///
/// let reg = Registry::with_trace(64);
/// {
///     let mut s = span!(reg, "epoch", epoch = 3, class = "insert");
///     s.label("memo_path", "incremental");
/// }
/// let events = reg.trace_events();
/// assert_eq!(events[0].scope, "epoch");
/// assert_eq!(events[0].labels[0], ("epoch", "3".to_string()));
/// ```
#[macro_export]
macro_rules! span {
    ($reg:expr, $scope:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $reg.span($scope, vec![$((stringify!($k), $v.to_string())),*])
    };
}

fn push_joined<T>(out: &mut String, items: impl Iterator<Item = T>, f: impl Fn(&mut String, T)) {
    for (n, item) in items.enumerate() {
        if n > 0 {
            out.push(',');
        }
        f(out, item);
    }
}

fn push_event(out: &mut String, e: &TraceEvent) {
    out.push_str(&format!(
        "{{\"seq\":{},\"scope\":{},\"labels\":{},\"nanos\":{}}}",
        e.seq,
        json_str(e.scope),
        json_labels(&e.labels),
        e.nanos
    ));
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    for (n, (k, v)) in labels.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
    }
    out.push('}');
    out
}

/// `{k="v",…}` in Prometheus label syntax (empty string for no labels).
fn prom_labels(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (n, (k, v)) in labels.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_key() {
        let reg = Registry::new();
        let a = reg.counter("x_total", &[("s", "1")]);
        let b = reg.counter("x_total", &[("s", "1")]);
        let c = reg.counter("x_total", &[("s", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(c.get(), 0);
        // Label order does not split the family.
        let h1 = reg.histogram("h", &[("a", "1"), ("b", "2")]);
        let h2 = reg.histogram("h", &[("b", "2"), ("a", "1")]);
        h1.record(5);
        assert_eq!(h2.count(), 1);
    }

    #[test]
    fn prometheus_rendering_has_types_buckets_and_cumulative_counts() {
        let reg = Registry::new();
        reg.counter("ops_total", &[("class", "knn")]).add(3);
        reg.gauge("live", &[]).set(-7);
        let h = reg.histogram("lat_nanos", &[]);
        h.record(1);
        h.record(1);
        h.record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ops_total counter"), "{text}");
        assert!(text.contains("ops_total{class=\"knn\"} 3"), "{text}");
        assert!(text.contains("live -7"), "{text}");
        assert!(text.contains("# TYPE lat_nanos histogram"), "{text}");
        assert!(text.contains("lat_nanos_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_nanos_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_nanos_sum 102"), "{text}");
        assert!(text.contains("lat_nanos_count 3"), "{text}");
    }

    #[test]
    fn json_rendering_is_balanced_and_escaped() {
        let reg = Registry::with_trace(8);
        reg.counter("c_total", &[("weird", "a\"b\\c\n")]).inc();
        drop(reg.span("scope", vec![("k", "v".to_string())]));
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\\\"b\\\\c\\n\""), "{json}");
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"trace\""));
        // Balanced braces/brackets outside string context is a cheap
        // well-formedness proxy; the CI smoke runs a real JSON parser.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (true, _, _) => {}
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let reg = Registry::with_trace(4);
        for i in 0..10u64 {
            drop(span!(reg, "op", i = i));
        }
        let events = reg.trace_events();
        assert_eq!(events.len(), 4);
        // Oldest evicted: sequence numbers are the last four.
        assert_eq!(events[0].seq, 6);
        assert_eq!(events[3].seq, 9);
        let off = Registry::new();
        drop(off.span("op", vec![]));
        assert!(off.trace_events().is_empty());
        assert!(!off.tracing());
    }
}

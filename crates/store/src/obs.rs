//! Store-side observability: the metric handles a
//! [`GeoStore`](crate::GeoStore) registers once at build time and records
//! into on the serve path.
//!
//! All handles are `Arc`s resolved at construction, so the hot path never
//! touches the registry's lock — recording is relaxed atomics only. When
//! the store is built with [`ObsLevel::Off`] (the default) none of this
//! exists and the serve path skips a single `Option` branch.

use crate::derived::Fallback;
use crate::request::{DerivedKind, MemoPath, Request};
use pargeo_obs::{Counter, Gauge, Histogram, ObsLevel, Registry};
use std::sync::Arc;

/// Request classes metered per store request, in
/// `geostore_requests_total{class=..}` label order.
pub(crate) const CLASSES: [&str; 6] = ["insert", "delete", "knn", "range", "derived", "stats"];

/// Index of `req`'s traffic class in [`CLASSES`].
pub(crate) fn class_of<const D: usize>(req: &Request<D>) -> usize {
    match req {
        Request::Insert(_) => 0,
        Request::Delete(_) => 1,
        Request::Knn { .. } => 2,
        Request::Range(_) => 3,
        Request::Stats => 5,
        _ => 4,
    }
}

/// `geostore_memo_total{path=..}` label order: the three compute paths
/// (mirroring [`MemoPath`]) plus cache hits and spared write runs.
pub(crate) const MEMO_PATHS: [&str; 5] = ["fresh", "incremental", "rebuilt", "hit", "spared"];

/// Index of the memo counter that mirrors `path` in [`MEMO_PATHS`].
pub(crate) fn memo_idx(path: MemoPath) -> usize {
    match path {
        MemoPath::Fresh => 0,
        MemoPath::Incremental => 1,
        MemoPath::Rebuilt => 2,
    }
}

/// Slot of the cache-hit counter in [`MEMO_PATHS`].
pub(crate) const MEMO_HIT: usize = 3;
/// Slot of the spared-write-run counter in [`MEMO_PATHS`].
pub(crate) const MEMO_SPARED: usize = 4;

/// Pre-resolved metric handles for one store. Cloned as an `Arc` at the
/// top of every instrumented method so span guards never borrow `self`.
pub(crate) struct StoreObs {
    /// The registry backing every handle (also serves exposition).
    pub registry: Arc<Registry>,
    /// The level the store was built at (`Metrics` or `Trace`; never
    /// `Off` — an off store has no `StoreObs` at all).
    pub level: ObsLevel,
    /// `geostore_requests_total{class=..}`, indexed by [`CLASSES`].
    pub requests: Vec<Arc<Counter>>,
    /// `geostore_request_nanos{class=..}`, indexed by [`CLASSES`].
    /// Insert/delete observe one coalesced write run per sample; the read
    /// classes observe one sample per request.
    pub class_nanos: Vec<Arc<Histogram>>,
    /// `geostore_memo_total{path=..}`, indexed by [`MEMO_PATHS`].
    pub memo: Vec<Arc<Counter>>,
    /// `geostore_memo_fallback_total{kind="delaunay-graph", cause=..}` —
    /// why each `rebuilt` of `geostore_memo_total` was not an
    /// `incremental` (the Delaunay graph is the one maintained kind),
    /// indexed by [`Fallback::ALL`].
    memo_fallback: Vec<Arc<Counter>>,
    /// `geostore_write_epochs_total` — epoch bumps applied.
    pub epochs: Arc<Counter>,
    /// `geostore_pinned_views` — snapshots currently pinned (incremented
    /// at pin, decremented when a [`StoreSnapshot`](crate::StoreSnapshot)
    /// drops).
    pub pinned_views: Arc<Gauge>,
    /// `geostore_pipeline_runs_total` — read runs served by a store built
    /// with `pipeline(true)` (every read run answers from a pin; these are
    /// the ones allowed to overlap the next write).
    pub pipeline_runs: Arc<Counter>,
    /// `geostore_pipeline_overlapped_total` — read runs whose fan-out
    /// overlapped a following write epoch's apply. The ratio to
    /// `pipeline_runs` is the executor's overlap ratio.
    pub pipeline_overlapped: Arc<Counter>,
    /// `index_arena_bytes{backend=..}` — heap bytes held by the backing
    /// index's flat arenas (node slabs, coordinate columns, id/liveness
    /// slabs, insert buffers), refreshed from the index
    /// [`Snapshot`](pargeo_engine::Snapshot) at every write epoch.
    pub index_arena_bytes: Arc<Gauge>,
    /// `index_nodes_total{backend=..}` — structure nodes currently
    /// allocated across the backing index's arenas, refreshed alongside
    /// [`Self::index_arena_bytes`].
    pub index_nodes: Arc<Gauge>,
    /// `geostore_index_cow_bytes_total` — bytes the backing index copied
    /// on write because a pin shared them, advanced at every
    /// write epoch by the index [`Snapshot`](pargeo_engine::Snapshot)'s
    /// `cow_bytes` delta: what pinning costs, independent of the machine.
    pub index_cow_bytes: Arc<Counter>,
    /// `geostore_index_divergence_total` — delete runs in which the
    /// index's live count fell by a different number than its report named
    /// (answered with a typed error). Non-zero means a bug.
    pub index_divergence: Arc<Counter>,
}

impl StoreObs {
    /// Registers every store-level metric family against `registry`.
    /// `backend` labels the index memory gauges so multi-store registries
    /// keep one time series per backend.
    pub(crate) fn new(registry: Arc<Registry>, level: ObsLevel, backend: &'static str) -> Self {
        let requests = CLASSES
            .iter()
            .map(|c| registry.counter("geostore_requests_total", &[("class", c)]))
            .collect();
        let class_nanos = CLASSES
            .iter()
            .map(|c| registry.histogram("geostore_request_nanos", &[("class", c)]))
            .collect();
        let memo = MEMO_PATHS
            .iter()
            .map(|p| registry.counter("geostore_memo_total", &[("path", p)]))
            .collect();
        let memo_fallback = Fallback::ALL
            .iter()
            .map(|cause| {
                let labels = [
                    ("kind", DerivedKind::DelaunayGraph.label()),
                    ("cause", cause.label()),
                ];
                registry.counter("geostore_memo_fallback_total", &labels)
            })
            .collect();
        let epochs = registry.counter("geostore_write_epochs_total", &[]);
        let pinned_views = registry.gauge("geostore_pinned_views", &[]);
        let pipeline_runs = registry.counter("geostore_pipeline_runs_total", &[]);
        let pipeline_overlapped = registry.counter("geostore_pipeline_overlapped_total", &[]);
        let index_arena_bytes = registry.gauge("index_arena_bytes", &[("backend", backend)]);
        let index_nodes = registry.gauge("index_nodes_total", &[("backend", backend)]);
        let index_cow_bytes = registry.counter("geostore_index_cow_bytes_total", &[]);
        let index_divergence = registry.counter("geostore_index_divergence_total", &[]);
        Self {
            registry,
            level,
            requests,
            class_nanos,
            memo,
            memo_fallback,
            epochs,
            pinned_views,
            pipeline_runs,
            pipeline_overlapped,
            index_arena_bytes,
            index_nodes,
            index_cow_bytes,
            index_divergence,
        }
    }

    /// The fallback counter of `cause`.
    pub(crate) fn memo_fallback(&self, cause: Fallback) -> &Counter {
        let c = Fallback::ALL.iter().position(|&c| c == cause);
        &self.memo_fallback[c.expect("every cause is listed")]
    }
}

#[cfg(test)]
mod tests {
    use crate::GeoStore;
    use pargeo_datagen::uniform_cube;
    use pargeo_obs::ObsLevel;

    #[test]
    fn memory_gauges_track_the_index_snapshot() {
        let mut store = GeoStore::<2>::builder().observe(ObsLevel::Metrics).build();
        store
            .run(crate::Request::Insert(uniform_cube::<2>(2_000, 7)))
            .expect("insert");
        let snap = store.stats().snapshot;
        assert!(snap.arena_bytes > 0);
        assert!(snap.nodes > 0);
        let text = store
            .registry()
            .expect("observed store")
            .render_prometheus();
        assert!(
            text.contains(&format!(
                "index_arena_bytes{{backend=\"bdl\"}} {}",
                snap.arena_bytes
            )),
            "gauge missing or stale:\n{text}"
        );
        assert!(
            text.contains(&format!(
                "index_nodes_total{{backend=\"bdl\"}} {}",
                snap.nodes
            )),
            "gauge missing or stale:\n{text}"
        );
    }

    #[test]
    fn cow_bytes_counter_follows_the_index_and_labels_the_write_span() {
        use crate::{Backend, Request};
        let pts = uniform_cube::<2>(5_000, 8);
        let stream = [
            Request::Insert(pts[..4_000].to_vec()),
            Request::Knn {
                queries: pts[..4].to_vec(),
                k: 2,
            },
            Request::Delete(pts[..50].to_vec()),
            Request::Range(Vec::new()),
            Request::Insert(pts[4_000..].to_vec()),
        ];
        let exported = |pipeline: bool| {
            let mut store = GeoStore::<2>::builder()
                .backend(Backend::Bdl)
                .pipeline(pipeline)
                .observe(ObsLevel::Trace)
                .build();
            store.execute(&stream);
            let registry = store.registry().expect("observed store");
            let total = registry
                .counter("geostore_index_cow_bytes_total", &[])
                .get();
            assert_eq!(total, store.stats().snapshot.cow_bytes);
            let per_epoch: Vec<u64> = registry
                .trace_events()
                .iter()
                .filter(|e| e.scope == "write_apply")
                .map(|e| {
                    let label = e.labels.iter().find(|(k, _)| *k == "cow_bytes");
                    label.expect("labelled").1.parse().expect("a byte count")
                })
                .collect();
            (total, per_epoch)
        };
        // Serial, each read run's pin drops before the next write starts,
        // so no write finds anything shared.
        assert_eq!(exported(false), (0, vec![0, 0, 0]));
        // Pipelined, the delete overlaps the k-NN run's pin and pays for
        // the overlay of the levels it hits; inserts only replace trees.
        let (total, per_epoch) = exported(true);
        assert!(total > 0 && total < 4 * 4_000, "{total} B");
        assert_eq!(per_epoch, vec![0, total, 0]);
    }
    /// Every `rebuilt` says why it was not an `incremental`: on the
    /// `derived_memo` span and in `geostore_memo_fallback_total`.
    #[test]
    fn memo_fallbacks_are_counted_by_cause_and_label_the_span() {
        use crate::Request;
        use pargeo_geometry::Point2;
        let mut pts = vec![
            Point2::new([-1.0, -1.0]),
            Point2::new([2.0, -1.0]),
            Point2::new([2.0, 2.0]),
            Point2::new([-1.0, 2.0]),
        ];
        pts.extend(
            uniform_cube::<2>(600, 9)
                .iter()
                .map(|p| *p * (1.0 / 600f64.sqrt())),
        );
        let both = [Request::Hull, Request::DelaunayGraph];
        let stream: Vec<Request<2>> = [
            &[Request::Insert(pts[..500].to_vec())][..],
            &both, // fresh
            &[Request::Insert(pts[500..550].to_vec())],
            &both, // hull fresh, Delaunay incremental
            &[Request::Insert(vec![Point2::new([5.0, 0.5])])],
            &both[1..], // outside the build's bbox: the engine advances
            &[Request::Delete(pts[10..20].to_vec())],
            &both, // no engine survives a delete: Delaunay rebuilt
        ]
        .concat();
        let mut store = GeoStore::<2>::builder().observe(ObsLevel::Trace).build();
        let responses = store.execute(&stream);
        assert!(responses.iter().all(Result::is_ok));
        // A batch four times the mesh it lands on is still an advance: no
        // budget turns it into a rebuild, and the answers are the oracle's.
        let brittle_stream = [
            &[Request::Insert(pts[..100].to_vec())][..],
            &both,
            &[Request::Insert(pts[100..500].to_vec())],
            &both,
        ]
        .concat();
        let mut brittle = GeoStore::<2>::builder().observe(ObsLevel::Trace).build();
        let mut oracle = GeoStore::<2>::builder()
            .backend(crate::Backend::Oracle)
            .build();
        let answers = brittle.execute(&brittle_stream);
        assert!(answers.iter().all(Result::is_ok));
        assert_eq!(answers, oracle.execute(&brittle_stream));
        assert_eq!(
            brittle.derived_path(crate::DerivedKind::DelaunayGraph),
            Some(crate::MemoPath::Incremental)
        );

        let fallbacks = |store: &GeoStore<2>| -> Vec<(String, u64)> {
            let all = store.registry().expect("observed").counter_values();
            let mine = all
                .into_iter()
                .filter(|(name, n)| name.starts_with("geostore_memo_fallback_total") && *n > 0);
            mine.collect()
        };
        let series = |kind: &str, cause: &str| {
            format!("geostore_memo_fallback_total{{cause=\"{cause}\",kind=\"{kind}\"}}")
        };
        assert_eq!(
            fallbacks(&store),
            vec![(series("delaunay-graph", "delete"), 1)]
        );
        assert_eq!(fallbacks(&brittle), vec![]);
        // Every rebuild is explained.
        let rebuilt = store.registry().expect("observed");
        let rebuilt = rebuilt.counter("geostore_memo_total", &[("path", "rebuilt")]);
        let explained: u64 = fallbacks(&store).iter().map(|(_, n)| n).sum();
        assert_eq!(explained, rebuilt.get());
        // The span carries the cause exactly when the path is `rebuilt`.
        let events = store.registry().expect("observed").trace_events();
        let label = |e: &pargeo_obs::TraceEvent, k: &str| {
            let found = e.labels.iter().find(|(key, _)| *key == k);
            found.map(|(_, v)| v.clone())
        };
        let memo: Vec<(Option<String>, Option<String>)> = events
            .iter()
            .filter(|e| e.scope == "derived_memo")
            .map(|e| (label(e, "path"), label(e, "cause")))
            .collect();
        let of = |path: &str, cause: Option<&str>| (Some(path.into()), cause.map(String::from));
        // The hull is never maintained: every hull compute is `fresh`.
        assert_eq!(
            memo,
            vec![
                of("fresh", None),
                of("fresh", None),
                of("fresh", None),
                of("incremental", None),
                of("incremental", None),
                of("fresh", None),
                of("rebuilt", Some("delete")),
            ]
        );
    }
}

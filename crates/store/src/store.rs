//! The store itself: builder, id mirror, epoch planner, memo cache.

use crate::derived::{self, DerivedVal, Engine, Fallback};
use crate::obs::{self, StoreObs};
use crate::pipeline::{LiveView, StoreSnapshot};
use crate::request::{CacheStats, DerivedKind, MemoPath, Request, Response, StoreStats};
use pargeo_bdltree::{bdl::DEFAULT_BUFFER_SIZE, BdlTree};
use pargeo_engine::{ShardedIndex, Snapshot, SpatialIndex, VecIndex};
use pargeo_geometry::{Ball, Bbox, GeoError, GeoResult, Point};
use pargeo_kdtree::Neighbor;
use pargeo_obs::{ObsLevel, Registry};
use pargeo_parlay as parlay;
use pargeo_sched::{Pool, PoolBuilder};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The dynamic index backend serving a store's point queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Log-structured BDL-tree (paper §5) — the serving backend.
    Bdl,
    /// Brute-force `Vec` oracle — O(n) per query; for cross-validation
    /// in tests and benches, never production traffic.
    Oracle,
}

impl Backend {
    /// Short label for reports and benches.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Bdl => "bdl",
            Backend::Oracle => "vec-oracle",
        }
    }
}

/// Configures and creates a [`GeoStore`].
///
/// ```
/// use pargeo_store::{Backend, GeoStore};
///
/// let store: GeoStore<2> = GeoStore::builder().shards(4).threads(2).build();
/// assert!(store.is_empty());
/// assert_eq!(store.backend(), Backend::Bdl);
/// assert_eq!(store.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GeoStoreBuilder<const D: usize> {
    backend: Backend,
    buffer_size: usize,
    threads: Option<usize>,
    shards: Option<usize>,
    incremental: bool,
    damage_threshold: f64,
    observe: ObsLevel,
    slow_op_nanos: Option<u64>,
    pipeline: bool,
    write_window: Option<usize>,
    window_duration: Option<Duration>,
}

/// Default fraction of a derived structure one coalesced insert batch may
/// tear down before the delta engine gives up and the store recomputes
/// wholesale (see [`GeoStoreBuilder::damage_threshold`]).
pub const DEFAULT_DAMAGE_THRESHOLD: f64 = 0.5;

impl<const D: usize> Default for GeoStoreBuilder<D> {
    fn default() -> Self {
        Self {
            backend: Backend::Bdl,
            buffer_size: DEFAULT_BUFFER_SIZE,
            threads: None,
            shards: None,
            incremental: true,
            damage_threshold: DEFAULT_DAMAGE_THRESHOLD,
            observe: ObsLevel::Off,
            slow_op_nanos: None,
            pipeline: false,
            write_window: None,
            window_duration: None,
        }
    }
}

impl<const D: usize> GeoStoreBuilder<D> {
    /// Selects the index backend (default: [`Backend::Bdl`];
    /// [`Backend::Oracle`] is the reference tests and benches compare it
    /// against).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Buffer size of the BDL cascade (at least 1; ignored by the oracle).
    pub fn buffer_size(mut self, size: usize) -> Self {
        self.buffer_size = size.max(1);
        self
    }

    /// Pins every `execute` call to a dedicated [`pargeo_sched::Pool`] of
    /// exactly this many worker threads (`0`: the machine default).
    /// Without it, calls run on the pool of the calling thread — the one a
    /// surrounding `parlay::with_threads` installed, else the global pool.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Shards the index by Morton prefix into this many independent
    /// backend shards (rounded up to a power of two): the epoch planner's
    /// coalesced write batches become per-shard sub-batches applied in
    /// parallel across shards, and reads fan out only to the shards whose
    /// region can contribute. Answers are bit-identical to the unsharded
    /// store at any shard count. Default: unsharded (one backend).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Keeps memoized 2D hull and Delaunay results alive across
    /// insert-only write epochs by applying the coalesced insert batch to
    /// the existing structure instead of recomputing (default: on).
    /// Answers are bit-identical either way; turning this off forces the
    /// wholesale-recompute baseline.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Fraction of a derived structure (hull edges, alive triangles —
    /// each relative to structure size plus batch size) one insert batch
    /// may destroy before the delta engine aborts and the store falls
    /// back to a wholesale recompute (default:
    /// [`DEFAULT_DAMAGE_THRESHOLD`]). `0.0` rebuilds on any damage;
    /// `1.0` effectively never falls back.
    pub fn damage_threshold(mut self, fraction: f64) -> Self {
        self.damage_threshold = fraction;
        self
    }

    /// Observability level (default: [`ObsLevel::Off`]).
    ///
    /// `Metrics` gives the store a [`Registry`] with per-request-class
    /// latency histograms, memo-path counters, write-epoch counters, and
    /// per-shard routing counters when sharded; `Trace` additionally
    /// keeps a bounded in-memory ring of serve-path span events. `Off`
    /// registers nothing and the serve path skips one `Option` branch —
    /// answers (and their digests) are bit-identical at every level.
    pub fn observe(mut self, level: ObsLevel) -> Self {
        self.observe = level;
        self
    }

    /// Serves read runs through the pipelined executor (default: off —
    /// the epoch-serial planner).
    ///
    /// The pipelined executor partitions a request stream into exactly
    /// the same write/read runs as the serial planner, but pins a
    /// [`StoreSnapshot`] per read run and overlaps the run's read
    /// fan-out (against the pinned epoch) with the *following* write
    /// epoch's apply on the live index — reads never wait on writes, and
    /// every response is bit-identical to the serial executor's.
    pub fn pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Seals the admission queue into a write epoch once this many write
    /// requests are queued (default: no size window — the queue seals on
    /// [`flush`](GeoStore::flush), on the time window if one is set, or
    /// at the hard queue cap). See [`GeoStore::submit`].
    pub fn write_window(mut self, requests: usize) -> Self {
        self.write_window = Some(requests.max(1));
        self
    }

    /// Seals the admission queue into a write epoch once the oldest
    /// queued request has waited this long (checked at each
    /// [`submit`](GeoStore::submit); default: no time window).
    pub fn window_duration(mut self, window: Duration) -> Self {
        self.window_duration = Some(window);
        self
    }

    /// Captures any serve-path span at least this long into the registry's
    /// slow-op log (requires [`observe`](Self::observe) ≠ `Off`; default:
    /// no slow-op capture).
    pub fn slow_op_threshold(mut self, threshold: Duration) -> Self {
        // Zero disables capture in the registry, so an explicit zero
        // threshold maps to 1ns ("capture everything").
        self.slow_op_nanos = Some((threshold.as_nanos() as u64).max(1));
        self
    }

    /// Creates the (empty) store, returning a typed error if the
    /// dedicated thread pool cannot be constructed.
    pub fn try_build(self) -> GeoResult<GeoStore<D>> {
        let pool = match self.threads {
            None => None,
            Some(t) => Some(PoolBuilder::new().num_threads(t).build().map_err(|_| {
                GeoError::BadParameter {
                    op: "geostore_build",
                    what: "dedicated thread pool construction failed",
                }
            })?),
        };
        Ok(self.finish(pool))
    }

    /// Creates the (empty) store. If the dedicated thread pool cannot be
    /// constructed, the store falls back to the ambient pool rather
    /// than panicking (use [`try_build`](Self::try_build) to observe the
    /// failure as a typed error instead).
    pub fn build(self) -> GeoStore<D> {
        let pool = self
            .threads
            .and_then(|t| PoolBuilder::new().num_threads(t).build().ok());
        self.finish(pool)
    }

    /// Assembles the store around an already-constructed pool (infallible).
    fn finish(self, pool: Option<Pool>) -> GeoStore<D> {
        let registry = self.observe.build_registry();
        if let (Some(r), Some(nanos)) = (&registry, self.slow_op_nanos) {
            r.set_slow_op_threshold_nanos(nanos);
        }
        if let (Some(r), Some(p)) = (&registry, &pool) {
            // Scheduler counters (sched_tasks_total, sched_steals_total, …)
            // land in the same registry as the store's own metrics, so an
            // observed store exposes its pool's behavior too.
            p.attach_registry(r);
        }
        let make = || -> Box<dyn SpatialIndex<D> + Send + Sync> {
            match self.backend {
                Backend::Bdl => Box::new(BdlTree::<D>::with_buffer_size(self.buffer_size)),
                Backend::Oracle => Box::new(VecIndex::<D>::new()),
            }
        };
        let (index, shard_count): (Box<dyn SpatialIndex<D> + Send + Sync>, usize) =
            match self.shards {
                None => (make(), 1),
                Some(s) => {
                    let mut sharded = ShardedIndex::<D>::new(s, |_| make());
                    if let Some(r) = &registry {
                        sharded.attach_obs(r);
                    }
                    let count = sharded.shard_count();
                    (Box::new(sharded), count)
                }
            };
        GeoStore {
            index,
            obs: registry.map(|r| Arc::new(StoreObs::new(r, self.observe, self.backend.label()))),
            backend: self.backend,
            shard_count,
            pool,
            incremental: self.incremental,
            damage_threshold: self.damage_threshold,
            pipeline: self.pipeline,
            write_window: self.write_window,
            window_duration: self.window_duration,
            queue: Vec::new(),
            queued_writes: 0,
            queue_opened: None,
            completed: Vec::new(),
            submitted: 0,
            points: Vec::new(),
            live_ids: Vec::new(),
            by_key: HashMap::new(),
            write_epoch: 0,
            live_view: None,
            cache: HashMap::new(),
            cache_stats: CacheStats::default(),
        }
    }
}

/// The store id of the first of `incoming` points appended after `stored`
/// ones, or the typed refusal when they would not all fit the `u32` id
/// space. The bound is `u32::MAX` points in all (ids `0..u32::MAX`): the
/// index counts the ids it has handed out in a `u32` of its own.
fn first_store_id(stored: usize, incoming: usize) -> GeoResult<u32> {
    stored
        .checked_add(incoming)
        .filter(|&total| u32::try_from(total).is_ok())
        .and_then(|_| u32::try_from(stored).ok())
        .ok_or(GeoError::BadParameter {
            op: "insert",
            what: "store id space exhausted",
        })
}

/// Hard cap on the admission queue: a queue this deep seals regardless of
/// the configured size/time windows, bounding worst-case memory and the
/// staleness of unserved responses.
const MAX_QUEUE: usize = 4096;

/// One slot of the per-kind memo cache — the `Fresh | Incremental |
/// Rebuilt` state machine.
///
/// An entry whose `epoch` matches the store's write epoch serves reads
/// directly (a hit). A *stale* entry survives epoch bumps only to carry
/// maintenance state forward: a live [`Engine`] across insert-only epochs
/// (advanced on the next request), or a `rebuild_pending` marker across
/// delete epochs (so the next compute is counted as a rebuild fallback,
/// not a fresh start). Stale values are never served.
struct MemoEntry<const D: usize> {
    /// Write epoch `value` was computed at.
    epoch: u64,
    value: GeoResult<DerivedVal<D>>,
    /// Delta engine for maintainable kinds (2D hull / Delaunay), present
    /// only while `value` is `Ok` and no delete has intervened.
    engine: Option<Engine>,
    /// `(consumed, last_id)` of the engine's live-view prefix: an O(1)
    /// append-only check (live ids ascend, inserts append) guarding the
    /// engine against any planner bug that would reorder the prefix.
    anchor: Option<(usize, u32)>,
    /// How `value` was produced.
    path: MemoPath,
    /// A delete invalidated the prior structure; the next compute is a
    /// rebuild, not a fresh start.
    rebuild_pending: bool,
}

/// One service-grade façade over every ParGeo module.
///
/// A `GeoStore` owns the point set and a chosen batch-dynamic
/// [`SpatialIndex`] backend and serves *mixed* request batches through one
/// typed surface: updates and spatial queries go to the index, and
/// whole-dataset derived structures (hull, smallest enclosing ball,
/// closest pair, EMST, k-NN graph, Delaunay graph) run over the live set
/// through the algorithm crates' non-panicking `try_*` paths — memoized
/// per write epoch.
///
/// [`execute`](GeoStore::execute) is the epoch planner: it splits the
/// request stream into write runs and read runs, coalesces adjacent
/// same-kind writes into single index batches (one write epoch each), and
/// fans the reads of a run out data-parallel. Every request gets a
/// `Result` — malformed or degenerate input yields a typed
/// [`GeoError`], never a panic and never a poisoned store.
pub struct GeoStore<const D: usize> {
    index: Box<dyn SpatialIndex<D> + Send + Sync>,
    /// Metric handles when built with `.observe(..)` ≠ `Off`; `None` (the
    /// default) costs the serve path one skipped branch.
    obs: Option<Arc<StoreObs>>,
    backend: Backend,
    /// Morton-prefix shards of the index (1 = unsharded).
    shard_count: usize,
    /// Dedicated pool when built with `.threads(..)`, constructed once.
    pool: Option<Pool>,
    /// Delta-maintain memoized hull/Delaunay across insert-only epochs.
    incremental: bool,
    /// Damage fraction past which a delta engine falls back to rebuild.
    damage_threshold: f64,
    /// Serve read runs through the pipelined (snapshot-pinning) executor.
    pipeline: bool,
    /// Admission-queue size window: seal once this many write requests
    /// are queued.
    write_window: Option<usize>,
    /// Admission-queue time window: seal once the oldest queued request
    /// has waited this long.
    window_duration: Option<Duration>,
    /// The admission queue: requests accepted by `submit` but not yet
    /// formed into epochs.
    queue: Vec<Request<D>>,
    /// Write requests currently queued (the size-window counter).
    queued_writes: usize,
    /// When the oldest queued request was admitted.
    queue_opened: Option<Instant>,
    /// Responses of already-sealed epochs, in ticket order, awaiting
    /// `flush`.
    completed: Vec<GeoResult<Response<D>>>,
    /// Tickets issued by `submit` so far.
    submitted: u64,
    /// Every point ever inserted, indexed by store id. Append-only: store
    /// ids stay stable and `point(id)` remains answerable after deletion,
    /// at the cost of `O(total inserted)` memory (compaction with an id
    /// relocation map is future work).
    points: Vec<Point<D>>,
    /// Live store ids, sorted ascending — maintained incrementally so the
    /// per-epoch live view costs `O(live)`, not `O(ever inserted)`.
    live_ids: Vec<u32>,
    /// Live ids per coordinate value (bitwise key) — the mirror of the
    /// backends' delete-by-value semantics.
    by_key: HashMap<[u64; D], Vec<u32>>,
    /// Coalesced write batches applied so far.
    write_epoch: u64,
    live_view: Option<Arc<LiveView<D>>>,
    /// Per-kind memo state machine. Entries at the current epoch serve
    /// reads; stale entries only carry delta engines (insert-only bumps)
    /// or rebuild markers (delete bumps) into the next compute.
    cache: HashMap<DerivedKind, MemoEntry<D>>,
    cache_stats: CacheStats,
}

impl<const D: usize> Default for GeoStore<D> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<const D: usize> GeoStore<D> {
    /// Starts configuring a store.
    pub fn builder() -> GeoStoreBuilder<D> {
        GeoStoreBuilder::default()
    }

    /// The backend this store was built with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Number of Morton-prefix shards the index runs over (1 when built
    /// without [`shards`](GeoStoreBuilder::shards)).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The metrics registry, when built with
    /// [`observe`](GeoStoreBuilder::observe) ≠ `Off`. Render it with
    /// [`Registry::render_prometheus`] / [`Registry::render_json`] or
    /// inspect counters directly.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.obs.as_ref().map(|o| &o.registry)
    }

    /// The observability level this store was built at.
    pub fn obs_level(&self) -> ObsLevel {
        self.obs.as_ref().map_or(ObsLevel::Off, |o| o.level)
    }

    /// Per-shard epoch statistics of the backing index: one [`Snapshot`]
    /// per Morton-prefix shard (a single-element vector when unsharded).
    /// The per-shard live counts sum to [`stats`](Self::stats)'s snapshot
    /// — their spread is the router's balance diagnostic.
    pub fn shard_snapshots(&self) -> Vec<Snapshot> {
        self.index.shard_snapshots()
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live_ids.len()
    }

    /// True iff no live points are stored.
    pub fn is_empty(&self) -> bool {
        self.live_ids.is_empty()
    }

    /// The point with this store id (live or deleted); `None` if the id
    /// was never assigned.
    pub fn point(&self, id: u32) -> Option<Point<D>> {
        self.points.get(id as usize).copied()
    }

    /// Current statistics (index snapshot, write epoch, cache counters).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            snapshot: self.index.snapshot(),
            write_epoch: self.write_epoch,
            cache: self.cache_stats,
        }
    }

    /// Executes a mixed request batch, one `Result` per request, in
    /// request order.
    ///
    /// The planner walks the stream once: adjacent writes of the same kind
    /// coalesce into one [`SpatialIndex`] batch (one write epoch), and
    /// every maximal run of read requests is answered data-parallel
    /// against the index state left by the preceding writes. Derived
    /// structures are computed at most once per (kind, epoch) and served
    /// from the memo cache afterwards.
    pub fn execute(&mut self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
        match self.pool.take() {
            Some(pool) => {
                let out = pool.install(|| self.execute_dispatch(requests));
                self.pool = Some(pool);
                out
            }
            None => self.execute_dispatch(requests),
        }
    }

    /// Routes a batch to the executor the store was built with: the
    /// epoch-serial planner, or the snapshot-pinning pipelined executor
    /// when built with [`pipeline(true)`](GeoStoreBuilder::pipeline).
    fn execute_dispatch(&mut self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
        if self.pipeline {
            self.execute_pipelined(requests)
        } else {
            self.execute_inner(requests)
        }
    }

    /// Executes a single request (sugar over [`execute`](Self::execute)).
    pub fn run(&mut self, request: Request<D>) -> GeoResult<Response<D>> {
        self.execute(std::slice::from_ref(&request))
            .pop()
            .unwrap_or(Err(GeoError::BadParameter {
                op: "geostore",
                what: "planner produced no response for the request",
            }))
    }

    fn execute_inner(&mut self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
        // Clone the handle so span guards borrow the local, not `self`
        // (declared before the guard: guards drop first, recording their
        // wall-time on the way out).
        let obs = self.obs.clone();
        let _plan = obs.as_ref().map(|o| {
            for req in requests {
                o.requests[obs::class_of(req)].inc();
            }
            let mut g = o.registry.span("plan_coalesce", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("requests", requests.len());
            g
        });
        let mut out: Vec<GeoResult<Response<D>>> = Vec::with_capacity(requests.len());
        let mut i = 0;
        while i < requests.len() {
            if requests[i].is_write() {
                // Write run: coalesce adjacent same-kind writes.
                let inserting = matches!(requests[i], Request::Insert(_));
                let mut j = i;
                while j < requests.len() {
                    match (&requests[j], inserting) {
                        (Request::Insert(_), true) | (Request::Delete(_), false) => j += 1,
                        _ => break,
                    }
                }
                if inserting {
                    self.apply_inserts(&requests[i..j], &mut out);
                } else {
                    self.apply_deletes(&requests[i..j], &mut out);
                }
                i = j;
            } else {
                // Read run: everything until the next write.
                let mut j = i;
                while j < requests.len() && !requests[j].is_write() {
                    j += 1;
                }
                self.answer_reads(&requests[i..j], &mut out);
                i = j;
            }
        }
        out
    }

    /// The pipelined executor: identical run partition to
    /// [`execute_inner`](Self::execute_inner), but each read run is served
    /// from a [`StoreSnapshot`] pinned at its epoch, and when a write run
    /// follows, the read fan-out overlaps the write epoch's apply on the
    /// parlay pool — reads never wait on writes, responses stay in request
    /// order and bit-identical to the serial planner's.
    fn execute_pipelined(&mut self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
        let obs = self.obs.clone();
        let _plan = obs.as_ref().map(|o| {
            for req in requests {
                o.requests[obs::class_of(req)].inc();
            }
            let mut g = o.registry.span("plan_coalesce", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("requests", requests.len());
            g.label("executor", "pipelined");
            g
        });
        // Partition into maximal runs with exactly the serial planner's
        // boundaries: adjacent same-kind writes form one run (one coalesced
        // epoch), maximal read spans form read runs.
        #[derive(Clone, Copy, PartialEq)]
        enum RunKind {
            Insert,
            Delete,
            Read,
        }
        let kind_of = |req: &Request<D>| match req {
            Request::Insert(_) => RunKind::Insert,
            Request::Delete(_) => RunKind::Delete,
            _ => RunKind::Read,
        };
        let mut runs: Vec<(RunKind, std::ops::Range<usize>)> = Vec::new();
        let mut i = 0;
        while i < requests.len() {
            let kind = kind_of(&requests[i]);
            let mut j = i + 1;
            while j < requests.len() && kind_of(&requests[j]) == kind {
                j += 1;
            }
            runs.push((kind, i..j));
            i = j;
        }

        let mut out: Vec<GeoResult<Response<D>>> = Vec::with_capacity(requests.len());
        let mut r = 0;
        while r < runs.len() {
            let (kind, range) = runs[r].clone();
            match kind {
                RunKind::Insert => {
                    self.apply_inserts(&requests[range], &mut out);
                    r += 1;
                }
                RunKind::Delete => {
                    self.apply_deletes(&requests[range], &mut out);
                    r += 1;
                }
                RunKind::Read => {
                    // The ensure pass runs on the live store first, exactly
                    // like the serial planner's `answer_reads`, so memo
                    // state (and CacheStats, and therefore any Stats
                    // response) is identical; the snapshot then captures
                    // its result.
                    for req in &requests[range.clone()] {
                        if let Some(kind) = req.derived_kind() {
                            let t = obs.as_ref().map(|_| Instant::now());
                            self.ensure_derived(kind);
                            if let (Some(o), Some(t)) = (&obs, t) {
                                o.class_nanos[4].record_duration(t.elapsed());
                            }
                        }
                    }
                    let snap = self.pin();
                    let read_run = &requests[range];
                    let _span = obs.as_ref().map(|o| {
                        let mut g = o.registry.span("read_fanout", Vec::new());
                        g.label("epoch", self.write_epoch);
                        g.label("requests", read_run.len());
                        g.label("executor", "pipelined");
                        g
                    });
                    if let Some(o) = &obs {
                        o.pipeline_runs.inc();
                    }
                    // Overlap: epoch E's read fan-out (against the pinned
                    // snapshot) runs concurrently with epoch E+1's write
                    // apply (against the live index).
                    let next_write = runs
                        .get(r + 1)
                        .filter(|(k, _)| *k != RunKind::Read)
                        .cloned();
                    if let Some((wkind, wrange)) = next_write {
                        if let Some(o) = &obs {
                            o.pipeline_overlapped.inc();
                        }
                        let (mut wout, reads) = parlay::par_do(
                            || {
                                let mut wout = Vec::new();
                                match wkind {
                                    RunKind::Insert => {
                                        self.apply_inserts(&requests[wrange], &mut wout)
                                    }
                                    RunKind::Delete => {
                                        self.apply_deletes(&requests[wrange], &mut wout)
                                    }
                                    RunKind::Read => unreachable!("filtered to writes"),
                                }
                                wout
                            },
                            || snap.execute(read_run),
                        );
                        out.extend(reads);
                        out.append(&mut wout);
                        r += 2;
                    } else {
                        out.extend(snap.execute(read_run));
                        r += 1;
                    }
                }
            }
        }
        out
    }

    /// Pins an immutable [`StoreSnapshot`] of the current write epoch: the
    /// index's epoch-pinned view (see [`SpatialIndex::pin`] for what each
    /// backend pays), the epoch's memoized derived values, and the
    /// statistics as of now — nothing proportional to the live set. The
    /// compacted live view is shared only if this epoch already built one;
    /// otherwise the snapshot derives it from its pinned view the first
    /// time a derived structure is asked of it. The snapshot answers every
    /// read request class bit-identically to a frozen copy of this store
    /// taken at this instant, regardless of how many write epochs follow;
    /// it may outlive rebuilds and be dropped in any order relative to
    /// other snapshots.
    pub fn pin(&self) -> StoreSnapshot<D> {
        let derived: HashMap<DerivedKind, GeoResult<DerivedVal<D>>> = self
            .cache
            .iter()
            .filter(|(_, e)| e.epoch == self.write_epoch)
            .map(|(k, e)| (*k, e.value.clone()))
            .collect();
        StoreSnapshot::new(
            self.index.pin(),
            self.live_view.clone(),
            self.stats(),
            derived,
            self.obs.clone(),
        )
    }

    // ---- continuous admission ------------------------------------------

    /// Admits one request into the admission queue and returns its ticket
    /// (tickets count all submissions, starting at 0). The queue seals
    /// into execution — forming write epochs from the queued stream —
    /// when the configured size window
    /// ([`write_window`](GeoStoreBuilder::write_window)) or time window
    /// ([`window_duration`](GeoStoreBuilder::window_duration)) is hit, at
    /// the hard cap of `MAX_QUEUE` requests, or on
    /// [`flush`](Self::flush). Responses of sealed requests accumulate in
    /// ticket order and are retrieved with `flush`.
    ///
    /// Windowing changes *when* epochs form, never *what* reads see:
    /// responses for any submission order equal the serial executor's on
    /// the same stream, except that [`Stats`](Request::Stats) responses
    /// observe window-dependent epoch/cache counters.
    pub fn submit(&mut self, request: Request<D>) -> u64 {
        let ticket = self.submitted;
        self.submitted += 1;
        if self.queue.is_empty() {
            self.queue_opened = Some(Instant::now());
        }
        if request.is_write() {
            self.queued_writes += 1;
        }
        self.queue.push(request);
        if let Some(o) = &self.obs {
            o.queue_depth.set(self.queue.len() as i64);
        }
        let size_hit = self.write_window.is_some_and(|w| self.queued_writes >= w);
        let time_hit = self
            .window_duration
            .zip(self.queue_opened)
            .is_some_and(|(d, t)| t.elapsed() >= d);
        if size_hit || time_hit || self.queue.len() >= MAX_QUEUE {
            self.seal_queue();
        }
        ticket
    }

    /// Requests currently admitted but not yet sealed into an epoch.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Seals the admission queue (forming its write epochs and serving
    /// its reads) and returns every response accumulated since the last
    /// flush, in ticket order.
    pub fn flush(&mut self) -> Vec<GeoResult<Response<D>>> {
        self.seal_queue();
        std::mem::take(&mut self.completed)
    }

    /// Drains the admission queue through the configured executor.
    fn seal_queue(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.queue);
        self.queued_writes = 0;
        self.queue_opened = None;
        if let Some(o) = &self.obs {
            o.queue_depth.set(0);
        }
        let responses = self.execute(&batch);
        self.completed.extend(responses);
    }

    /// Applies a run of `Insert` requests as one coalesced index batch.
    fn apply_inserts(&mut self, run: &[Request<D>], out: &mut Vec<GeoResult<Response<D>>>) {
        let obs = self.obs.clone();
        let mut span = obs.as_ref().map(|o| {
            let mut g = o.registry.span("write_apply", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("kind", "insert");
            g
        });
        let t = Instant::now();
        let mut cow_bytes = 0u64;
        let batches = run.iter().map(|req| match req {
            Request::Insert(batch) => batch,
            _ => unreachable!("insert run"),
        });
        // The whole run is one index batch, so it is admitted or refused
        // whole, before the mirror is touched.
        let incoming = batches.clone().map(Vec::len).sum();
        let mut next_id = match first_store_id(self.points.len(), incoming) {
            Ok(id) => id,
            Err(e) => {
                out.extend(run.iter().map(|_| Err(e)));
                return;
            }
        };
        let mut coalesced: Vec<Point<D>> = Vec::new();
        for batch in batches {
            let first_id = (!batch.is_empty()).then_some(next_id);
            for &p in batch {
                self.points.push(p);
                self.live_ids.push(next_id); // fresh ids ascend: order preserved
                self.by_key.entry(p.bits_key()).or_default().push(next_id);
                next_id += 1; // stays within `first_store_id`'s checked total
            }
            coalesced.extend_from_slice(batch);
            out.push(Ok(Response::Inserted {
                count: batch.len(),
                first_id,
            }));
        }
        if coalesced.is_empty() {
            // Nothing entered the live set: the memoized derived
            // structures are still exact, so the epoch (and with it the
            // memo cache) is spared.
            self.cache_stats.spared += 1;
            if let Some(o) = &obs {
                o.memo[obs::MEMO_SPARED].inc();
            }
        } else {
            self.index.insert(&coalesced);
            cow_bytes = self.bump_epoch(false);
        }
        if let Some(o) = &obs {
            o.class_nanos[0].record_duration(t.elapsed());
            if let Some(s) = span.as_mut() {
                s.label("points", coalesced.len());
                s.label("cow_bytes", cow_bytes);
            }
        }
    }

    /// Applies a run of `Delete` requests as one coalesced index batch.
    fn apply_deletes(&mut self, run: &[Request<D>], out: &mut Vec<GeoResult<Response<D>>>) {
        let obs = self.obs.clone();
        let mut span = obs.as_ref().map(|o| {
            let mut g = o.registry.span("write_apply", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("kind", "delete");
            g
        });
        let t = Instant::now();
        let mut cow_bytes = 0u64;
        let first_response = out.len();
        let mut coalesced: Vec<Point<D>> = Vec::new();
        // Unique by construction: a key leaves `by_key` with the first
        // request that names it, so no id is claimed twice.
        let mut dying: Vec<u32> = Vec::new();
        for req in run {
            let Request::Delete(batch) = req else {
                unreachable!("delete run")
            };
            // Mirror the backends' semantics: every live point whose value
            // matches a batch point dies; requests earlier in the run
            // claim the victims, later duplicates remove nothing.
            let mut count = 0usize;
            for p in batch {
                if let Some(ids) = self.by_key.remove(&p.bits_key()) {
                    count += ids.len();
                    dying.extend(ids);
                }
            }
            coalesced.extend_from_slice(batch);
            out.push(Ok(Response::Deleted { count }));
        }
        if dying.is_empty() {
            // A delete run that matched no live point (or was empty) is a
            // no-op: the id mirror says the index would remove nothing, so
            // the batch is not applied, the epoch does not advance, and
            // the memoized derived structures stay valid.
            self.cache_stats.spared += 1;
            if let Some(o) = &obs {
                o.memo[obs::MEMO_SPARED].inc();
            }
        } else {
            // Both lists ascend, so one merge pass retires the ids: work
            // per live id is a compare, not a hash probe.
            dying.sort_unstable();
            let mut next = dying.iter().copied().peekable();
            self.live_ids.retain(|&id| {
                while next.peek().is_some_and(|&d| d < id) {
                    next.next();
                }
                next.peek() != Some(&id)
            });
            let removed = self.index.delete(&coalesced);
            if removed != dying.len() {
                // The id mirror and the index disagree about what was
                // live. The counts already pushed came from the mirror and
                // can no longer be vouched for: the run's requests get a
                // typed error instead of a possibly wrong `Deleted`.
                if let Some(o) = &obs {
                    o.mirror_divergence.inc();
                }
                for resp in &mut out[first_response..] {
                    *resp = Err(GeoError::BadParameter {
                        op: "delete",
                        what: "id mirror diverged from the index",
                    });
                }
            }
            cow_bytes = self.bump_epoch(true);
        }
        if let Some(o) = &obs {
            o.class_nanos[1].record_duration(t.elapsed());
            if let Some(s) = span.as_mut() {
                s.label("points", dying.len());
                s.label("cow_bytes", cow_bytes);
            }
        }
    }

    /// Advances the write epoch. Values derived from the previous live
    /// set — memoized structures and the compacted view — expire
    /// immediately, so stale values are never served. What *survives* the
    /// bump is maintenance state: across an insert-only epoch, entries
    /// with a live delta engine (the engine absorbs the batch on the next
    /// request); across a delete epoch, a rebuild marker per maintainable
    /// entry (deletes shuffle compacted positions, so no engine survives).
    ///
    /// Returns the bytes the index copied on write during this epoch (read
    /// from its snapshot; 0 when unobserved — the snapshot is only taken
    /// for the gauges).
    fn bump_epoch(&mut self, deleting: bool) -> u64 {
        self.write_epoch += 1;
        let mut cow_bytes = 0;
        if let Some(o) = &self.obs {
            o.epochs.inc();
            let s = self.index.snapshot();
            o.index_arena_bytes.set(s.arena_bytes as i64);
            o.index_nodes.set(s.nodes as i64);
            cow_bytes = s.cow_bytes.saturating_sub(o.index_cow_bytes.get());
            o.index_cow_bytes.add(cow_bytes);
        }
        self.live_view = None;
        if !self.incremental {
            self.cache.clear();
        } else if deleting {
            self.cache.retain(|_, e| {
                let maintained = e.engine.is_some() || e.rebuild_pending;
                e.engine = None;
                e.anchor = None;
                e.rebuild_pending = maintained;
                maintained
            });
        } else {
            self.cache
                .retain(|_, e| e.engine.is_some() || e.rebuild_pending);
        }
        cow_bytes
    }

    /// Answers a run of read requests: derived structures are memoized
    /// first (in request order, so cache hit/miss counters reflect the
    /// stream), then all responses are produced data-parallel.
    fn answer_reads(&mut self, run: &[Request<D>], out: &mut Vec<GeoResult<Response<D>>>) {
        let obs = self.obs.clone();
        for req in run {
            if let Some(kind) = req.derived_kind() {
                // The derived class's latency sample is taken here, around
                // the memo ensure, so it captures compute/advance cost —
                // the parallel fetch below is a cache read.
                let t = obs.as_ref().map(|_| Instant::now());
                self.ensure_derived(kind);
                if let (Some(o), Some(t)) = (&obs, t) {
                    o.class_nanos[4].record_duration(t.elapsed());
                }
            }
        }
        let _span = obs.as_ref().map(|o| {
            let mut g = o.registry.span("read_fanout", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("requests", run.len());
            g
        });
        // Grain 1: an item is a whole request (often a query batch).
        let responses = parlay::map(run, 1, |req| self.answer_one(req));
        out.extend(responses);
    }

    /// Brings the memo entry for `kind` to the current epoch: a hit when
    /// already current, an incremental engine advance when an insert-only
    /// delta can be applied, and a full (re)compute otherwise.
    fn ensure_derived(&mut self, kind: DerivedKind) {
        let obs = self.obs.clone();
        if let Some(e) = self.cache.get(&kind) {
            if e.epoch == self.write_epoch {
                self.cache_stats.hits += 1;
                if let Some(o) = &obs {
                    o.memo[obs::MEMO_HIT].inc();
                }
                return;
            }
        }
        self.cache_stats.misses += 1;
        let mut span = obs.as_ref().map(|o| {
            let mut g = o.registry.span("derived_memo", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("kind", kind.label());
            g
        });
        let view = self.live_view();
        let mut prior = self.cache.remove(&kind);
        let had_structure = prior
            .as_ref()
            .is_some_and(|e| e.engine.is_some() || e.rebuild_pending);

        // Incremental path: a live engine whose consumed prefix is intact
        // (live ids ascend and inserts append, so one id pins the prefix)
        // absorbs the delta in place; otherwise `fallback` says why not.
        let mut fallback = None;
        if self.incremental {
            if let Some(mut entry) = prior.take() {
                let anchored = entry.anchor.is_some_and(|(consumed, last_id)| {
                    consumed >= 1 && view.0.len() >= consumed && view.0[consumed - 1] == last_id
                });
                let advanced = match entry.engine.as_mut() {
                    Some(engine) if anchored => {
                        derived::advance_engine(engine, &view.0, &view.1, self.damage_threshold)
                    }
                    Some(_) => Err(Fallback::AnchorLost),
                    None => Err(Fallback::Delete),
                };
                match (advanced, view.0.last()) {
                    (Ok(val), Some(&last)) => {
                        self.cache_stats.incremental += 1;
                        if let Some(o) = &obs {
                            o.memo[obs::memo_idx(MemoPath::Incremental)].inc();
                        }
                        if let Some(s) = span.as_mut() {
                            s.label("path", MemoPath::Incremental.label());
                        }
                        entry.epoch = self.write_epoch;
                        entry.value = Ok(val);
                        entry.anchor = Some((view.0.len(), last));
                        entry.path = MemoPath::Incremental;
                        entry.rebuild_pending = false;
                        self.cache.insert(kind, entry);
                        return;
                    }
                    (Err(cause), _) if had_structure => fallback = Some(cause),
                    _ => {}
                }
            }
        }

        // Full (re)compute — the rebuild path when a structure existed.
        let (value, engine) = derived::compute_full(kind, &view.0, &view.1, self.incremental);
        let path = if had_structure {
            self.cache_stats.rebuilds += 1;
            MemoPath::Rebuilt
        } else {
            MemoPath::Fresh
        };
        if let Some(o) = &obs {
            o.memo[obs::memo_idx(path)].inc();
        }
        if let Some(s) = span.as_mut() {
            s.label("path", path.label());
        }
        if let Some(cause) = fallback {
            if let Some(o) = &obs {
                o.memo_fallback(kind, cause).inc();
            }
            if let Some(s) = span.as_mut() {
                s.label("cause", cause.label());
            }
        }
        let anchor = engine
            .as_ref()
            .and_then(|_| view.0.last().map(|&last| (view.0.len(), last)));
        self.cache.insert(
            kind,
            MemoEntry {
                epoch: self.write_epoch,
                value,
                engine,
                anchor,
                path,
                rebuild_pending: false,
            },
        );
    }

    /// Which path produced the memoized value for `kind`, if one is
    /// cached for the current epoch.
    pub fn derived_path(&self, kind: DerivedKind) -> Option<MemoPath> {
        self.cache
            .get(&kind)
            .filter(|e| e.epoch == self.write_epoch)
            .map(|e| e.path)
    }

    /// Answers one read request against the (now read-only) store state,
    /// recording its latency into the per-class histogram for the classes
    /// whose cost lives here (k-NN, range, stats — the derived classes
    /// sample around the memo ensure instead). Runs inside the parallel
    /// fan-out: recording is atomics only.
    fn answer_one(&self, req: &Request<D>) -> GeoResult<Response<D>> {
        let Some(o) = &self.obs else {
            return self.answer_one_inner(req);
        };
        let class = obs::class_of(req);
        if class == 4 {
            return self.answer_one_inner(req);
        }
        let t = Instant::now();
        let resp = self.answer_one_inner(req);
        o.class_nanos[class].record_duration(t.elapsed());
        resp
    }

    /// The untimed body of [`answer_one`](Self::answer_one).
    fn answer_one_inner(&self, req: &Request<D>) -> GeoResult<Response<D>> {
        match req {
            Request::Knn { queries, k } => {
                if *k == 0 {
                    return Err(GeoError::BadParameter {
                        op: "knn",
                        what: "k must be positive",
                    });
                }
                if *k > self.live_ids.len() {
                    return Err(GeoError::KTooLarge {
                        op: "knn",
                        k: *k,
                        n: self.live_ids.len(),
                    });
                }
                Ok(Response::Knn(self.index.knn_batch(queries, *k)))
            }
            Request::Range(boxes) => Ok(Response::Range(self.index.range_batch(boxes))),
            Request::Stats => Ok(Response::Stats(self.stats())),
            _ => {
                // Planner invariants ("only reads reach the fan-out" and
                // "every derived kind was ensured first") are answered
                // with typed errors, not panics: a violation must never
                // take the serve path down.
                let Some(kind) = req.derived_kind() else {
                    return Err(GeoError::BadParameter {
                        op: "geostore",
                        what: "non-read request reached the read fan-out",
                    });
                };
                let entry = self
                    .cache
                    .get(&kind)
                    .filter(|e| e.epoch == self.write_epoch)
                    .ok_or(GeoError::BadParameter {
                        op: "geostore",
                        what: "derived value missing from the memo cache",
                    })?;
                entry.value.clone().map(|v| match v {
                    DerivedVal::Hull(h) => Response::Hull(h),
                    DerivedVal::Seb(b) => Response::Seb(b),
                    DerivedVal::ClosestPair(cp) => Response::ClosestPair(cp),
                    DerivedVal::Emst(e) => Response::Emst(e),
                    DerivedVal::Graph(g) => match kind {
                        DerivedKind::KnnGraph(_) => Response::KnnGraph(g),
                        _ => Response::DelaunayGraph(g),
                    },
                })
            }
        }
    }

    /// The compacted live view for the current epoch (memoized; rebuilt
    /// in `O(live)` from the incrementally maintained live-id list).
    fn live_view(&mut self) -> Arc<LiveView<D>> {
        if let Some(view) = &self.live_view {
            return Arc::clone(view);
        }
        let ids = self.live_ids.clone();
        let pts = ids.iter().map(|&id| self.points[id as usize]).collect();
        let view = Arc::new((ids, pts));
        self.live_view = Some(Arc::clone(&view));
        view
    }

    // ---- typed sugar over `run` ----------------------------------------

    /// Inserts a batch; returns the first assigned id (`None` when empty).
    ///
    /// # Panics
    /// If the batch does not fit the `u32` store id space, which
    /// [`execute`](Self::execute) reports as a typed error instead.
    pub fn insert(&mut self, batch: &[Point<D>]) -> Option<u32> {
        match self.run(Request::Insert(batch.to_vec())) {
            Ok(Response::Inserted { first_id, .. }) => first_id,
            Err(e) => panic!("insert: {e}"),
            Ok(_) => unreachable!("insert answers with its first id"),
        }
    }

    /// Deletes by value; returns the number of points removed.
    ///
    /// # Panics
    /// If the id mirror and the index disagree about what was removed —
    /// a bug in the backend, which [`execute`](Self::execute) reports as a
    /// typed error instead.
    pub fn delete(&mut self, batch: &[Point<D>]) -> usize {
        match self.run(Request::Delete(batch.to_vec())) {
            Ok(Response::Deleted { count }) => count,
            Err(e) => panic!("delete: {e}"),
            Ok(_) => unreachable!("delete answers with a count"),
        }
    }

    /// The `k` nearest live neighbors of every query.
    pub fn knn(&mut self, queries: &[Point<D>], k: usize) -> GeoResult<Vec<Vec<Neighbor>>> {
        match self.run(Request::Knn {
            queries: queries.to_vec(),
            k,
        })? {
            Response::Knn(rows) => Ok(rows),
            _ => unreachable!(),
        }
    }

    /// Sorted live ids inside every query box.
    pub fn range(&mut self, boxes: &[Bbox<D>]) -> GeoResult<Vec<Vec<u32>>> {
        match self.run(Request::Range(boxes.to_vec()))? {
            Response::Range(rows) => Ok(rows),
            _ => unreachable!(),
        }
    }

    /// Convex hull vertex ids of the live set (memoized).
    pub fn hull(&mut self) -> GeoResult<Vec<u32>> {
        match self.run(Request::Hull)? {
            Response::Hull(h) => Ok(h),
            _ => unreachable!(),
        }
    }

    /// Smallest enclosing ball of the live set (memoized).
    pub fn seb(&mut self) -> GeoResult<Ball<D>> {
        match self.run(Request::Seb)? {
            Response::Seb(b) => Ok(b),
            _ => unreachable!(),
        }
    }

    /// Closest pair of the live set, over store ids (memoized).
    pub fn closest_pair(&mut self) -> GeoResult<pargeo_closestpair::ClosestPair> {
        match self.run(Request::ClosestPair)? {
            Response::ClosestPair(cp) => Ok(cp),
            _ => unreachable!(),
        }
    }

    /// EMST edges of the live set, over store ids (memoized).
    pub fn emst(&mut self) -> GeoResult<Vec<pargeo_wspd::EmstEdge>> {
        match self.run(Request::Emst)? {
            Response::Emst(e) => Ok(e),
            _ => unreachable!(),
        }
    }

    /// Directed k-NN graph of the live set, over store ids (memoized).
    pub fn knn_graph(&mut self, k: usize) -> GeoResult<Vec<(u32, u32)>> {
        match self.run(Request::KnnGraph { k })? {
            Response::KnnGraph(g) => Ok(g),
            _ => unreachable!(),
        }
    }

    /// Delaunay edges of the live set, over store ids (memoized; 2D only).
    pub fn delaunay_graph(&mut self) -> GeoResult<Vec<(u32, u32)>> {
        match self.run(Request::DelaunayGraph)? {
            Response::DelaunayGraph(g) => Ok(g),
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_engine::{LivePoints, SnapshotView};

    /// An index whose `delete` removes what it is told to and reports one
    /// fewer — the mirror ≡ index invariant broken from the index side.
    struct UnderReporting(VecIndex<2>);

    impl SpatialIndex<2> for UnderReporting {
        fn backend_name(&self) -> &'static str {
            "under-reporting"
        }
        fn insert(&mut self, batch: &[Point<2>]) {
            self.0.insert(batch)
        }
        fn delete(&mut self, batch: &[Point<2>]) -> usize {
            self.0.delete(batch).saturating_sub(1)
        }
        fn knn_batch(&self, queries: &[Point<2>], k: usize) -> Vec<Vec<Neighbor>> {
            self.0.knn_batch(queries, k)
        }
        fn range_batch(&self, queries: &[Bbox<2>]) -> Vec<Vec<u32>> {
            self.0.range_batch(queries)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn snapshot(&self) -> Snapshot {
            self.0.snapshot()
        }
        fn pin(&self) -> Box<dyn SnapshotView<2>> {
            self.0.pin()
        }
        fn live_points(&self) -> LivePoints<2> {
            self.0.live_points()
        }
        fn live_bbox(&self) -> Bbox<2> {
            self.0.live_bbox()
        }
    }

    #[test]
    fn store_ids_are_minted_checked_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        let exhausted = Err(GeoError::BadParameter {
            op: "insert",
            what: "store id space exhausted",
        });
        assert_eq!(first_store_id(0, 0), Ok(0));
        assert_eq!(first_store_id(0, max), Ok(0));
        assert_eq!(first_store_id(max - 1, 1), Ok(u32::MAX - 1));
        assert_eq!(first_store_id(max, 0), Ok(u32::MAX));
        assert_eq!(first_store_id(max, 1), exhausted);
        assert_eq!(first_store_id(max - 1, 2), exhausted);
        assert_eq!(first_store_id(0, max + 1), exhausted);
        assert_eq!(first_store_id(7, usize::MAX), exhausted);
    }

    #[test]
    fn zero_buffer_size_is_clamped_at_the_builder() {
        let pts: Vec<Point<2>> = (0..40).map(|i| Point::new([i as f64, 1.0])).collect();
        let builder = GeoStore::<2>::builder().buffer_size(0);
        let built = builder.clone().build();
        let tried = builder.try_build().expect("no dedicated pool to fail");
        for mut store in [built, tried] {
            assert_eq!(store.insert(&pts), Some(0));
            assert_eq!(store.delete(&pts[..10]), 10);
            let nearest = store.knn(&pts[..1], 1).expect("30 live points");
            assert_eq!(nearest[0][0].id, 10);
        }
    }

    #[test]
    fn mirror_divergence_is_a_typed_error_and_a_counter() {
        let pts: Vec<Point<2>> = (0..10).map(|i| Point::new([i as f64, 0.0])).collect();
        let mut store = GeoStore::<2>::builder()
            .backend(Backend::Oracle)
            .observe(ObsLevel::Metrics)
            .build();
        store.index = Box::new(UnderReporting(VecIndex::new()));
        store.insert(&pts);
        let diverged = Err(GeoError::BadParameter {
            op: "delete",
            what: "id mirror diverged from the index",
        });
        // Every request of the coalesced run is answered with the error —
        // none of their mirror-derived counts can be vouched for — and
        // requests outside the run are untouched.
        let got = store.execute(&[
            Request::Stats,
            Request::Delete(pts[..2].to_vec()),
            Request::Delete(pts[2..3].to_vec()),
            Request::Range(vec![Bbox::from_points(&pts)]),
            Request::Delete(vec![Point::new([-1.0, -1.0])]),
        ]);
        assert!(matches!(got[0], Ok(Response::Stats(_))));
        assert_eq!(got[1], diverged);
        assert_eq!(got[2], diverged);
        assert_eq!(got[3], Ok(Response::Range(vec![(3..10).collect()])));
        // A run the mirror says removes nothing never reaches the index.
        assert_eq!(got[4], Ok(Response::Deleted { count: 0 }));
        let divergences = store
            .registry()
            .expect("metrics level")
            .counter("geostore_mirror_divergence_total", &[])
            .get();
        assert_eq!(divergences, 1, "one diverged run");
        // The epoch still advanced and the mirror retired its ids: the
        // store stays serviceable, it does not pretend nothing happened.
        assert_eq!(store.len(), 7);
        assert_eq!(store.stats().write_epoch, 2);
    }
}

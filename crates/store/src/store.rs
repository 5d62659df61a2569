//! The store itself: builder, epoch planner, memo cache — the index is
//! the point set, and the compacted live view its one store-side shadow.

use crate::derived::{self, DelaunaySlot};
use crate::obs::{self, StoreObs};
use crate::pipeline::{LiveView, Memo, StoreSnapshot};
use crate::request::{CacheStats, DerivedKind, MemoPath, Request, Response, StoreStats};
use pargeo_bdltree::{bdl::DEFAULT_BUFFER_SIZE, BdlTree};
use pargeo_engine::{ShardedIndex, Snapshot, SpatialIndex, VecIndex};
use pargeo_geometry::{Ball, Bbox, GeoError, GeoResult, Point};
use pargeo_kdtree::Neighbor;
use pargeo_obs::{ObsLevel, Registry};
use pargeo_parlay as parlay;
use pargeo_sched::{Pool, PoolBuilder};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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
    observe: ObsLevel,
    pipeline: bool,
}

impl<const D: usize> Default for GeoStoreBuilder<D> {
    fn default() -> Self {
        Self {
            backend: Backend::Bdl,
            buffer_size: DEFAULT_BUFFER_SIZE,
            threads: None,
            shards: None,
            observe: ObsLevel::Off,
            pipeline: false,
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

    /// Overlaps each read run's fan-out with the write run that follows it
    /// (default: off — runs are served one after another).
    ///
    /// Every read run is answered from a [`StoreSnapshot`] pinned at its
    /// epoch, whichever way this is set. On, the fan-out against the pin
    /// runs concurrently with the *following* write epoch's apply on the
    /// live index — reads never wait on writes, at the price of a
    /// copy-on-write delta for whatever that write touches of the pinned
    /// levels. Off, the pin is dropped before the next run starts, so no
    /// write ever copies on its behalf. Responses are bit-identical either
    /// way.
    pub fn pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
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
        let pool = pool.map(Arc::new);
        let registry = self.observe.build_registry();
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
            pipeline: self.pipeline,
            write_epoch: 0,
            live_view: None,
            cache: HashMap::new(),
            delaunay: DelaunaySlot::default(),
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

/// What a maximal run of the request stream does: adjacent writes of one
/// kind coalesce into one index batch (one write epoch), and everything
/// between two writes is one read run.
#[derive(Clone, Copy, PartialEq)]
enum RunKind {
    Insert,
    Delete,
    Read,
}

impl RunKind {
    fn of<const D: usize>(req: &Request<D>) -> Self {
        match req {
            Request::Insert(_) => RunKind::Insert,
            Request::Delete(_) => RunKind::Delete,
            _ => RunKind::Read,
        }
    }
}

/// The run partition of a request stream: where one epoch ends and the next
/// begins.
fn runs<const D: usize>(requests: &[Request<D>]) -> impl Iterator<Item = (RunKind, &[Request<D>])> {
    requests
        .chunk_by(|a, b| RunKind::of(a) == RunKind::of(b))
        .map(|run| (RunKind::of(&run[0]), run))
}

/// The point batches of a write run, in request order.
fn batches<const D: usize>(run: &[Request<D>]) -> impl Iterator<Item = &[Point<D>]> {
    run.iter().map(|req| match req {
        Request::Insert(batch) | Request::Delete(batch) => batch.as_slice(),
        _ => unreachable!("write run"),
    })
}

/// A write run as the one batch the index applies: a single request's
/// points as they are, the concatenation for a longer run.
fn coalesce<const D: usize>(run: &[Request<D>]) -> Cow<'_, [Point<D>]> {
    match run {
        [Request::Insert(only) | Request::Delete(only)] => Cow::Borrowed(only),
        _ => Cow::Owned(batches(run).collect::<Vec<_>>().concat()),
    }
}

/// Per-request `Deleted` counts of a coalesced delete run, read off the
/// index's report: a victim is counted for the first request naming its
/// value — a later request naming it again found nothing left to remove.
fn claimed_counts<const D: usize>(run: &[Request<D>], removed: &[(Point<D>, u32)]) -> Vec<usize> {
    let mut claims: Vec<([u64; D], usize)> = batches(run)
        .enumerate()
        .flat_map(|(r, batch)| batch.iter().map(move |p| (p.bits_key(), r)))
        .collect();
    claims.sort_unstable();
    claims.dedup_by_key(|claim| claim.0); // sorted by (value, request): the first request stays
    let mut counts = vec![0; run.len()];
    for (p, _) in removed {
        if let Ok(i) = claims.binary_search_by_key(&p.bits_key(), |claim| claim.0) {
            counts[claims[i].1] += 1;
        }
    }
    counts
}

/// Makes room for `extra` more rows of the live view. Where it must grow,
/// it grows to `len + max(extra, len / 8)`: still amortised O(1) per row,
/// and never more than an eighth of the view left unused — doubling, the
/// `Vec` default, would leave a whole copy of a just-derived view idle.
fn reserve_an_eighth<T>(rows: &mut Vec<T>, extra: usize) {
    if rows.capacity() - rows.len() < extra {
        rows.reserve_exact(extra.max(rows.len() / 8));
    }
}

/// Drops the rows of `removed` from the compacted live view in place. Both
/// id lists ascend once the removed ids are sorted, so it is one merge
/// pass: a compare per live row, no probe.
fn retire<const D: usize>((ids, pts): &mut LiveView<D>, removed: &[(Point<D>, u32)]) {
    let mut dying: Vec<u32> = removed.iter().map(|&(_, id)| id).collect();
    dying.sort_unstable();
    let mut dying = dying.into_iter().peekable();
    let mut kept = 0;
    for row in 0..ids.len() {
        if dying.next_if_eq(&ids[row]).is_none() {
            ids[kept] = ids[row];
            pts[kept] = pts[row];
            kept += 1;
        }
    }
    debug_assert!(dying.peek().is_none(), "a removed id was not live");
    ids.truncate(kept);
    pts.truncate(kept);
}

/// One service-grade façade over every ParGeo module.
///
/// A `GeoStore` owns a chosen batch-dynamic [`SpatialIndex`] backend — the
/// index *is* the point set: ids, the live count and what a delete removed
/// are all read off it — and serves *mixed* request batches through one
/// typed surface: updates and spatial queries go to the index, and
/// whole-dataset derived structures (hull, smallest enclosing ball,
/// closest pair, EMST, k-NN graph, Delaunay graph) run over the live set
/// through the algorithm crates' non-panicking `try_*` paths — memoized
/// per write epoch.
///
/// [`execute`](GeoStore::execute) is the epoch planner: it splits the
/// request stream into write runs and read runs, coalesces adjacent
/// same-kind writes into single index batches (one write epoch each), and
/// fans the reads of a run out data-parallel against a [`StoreSnapshot`]
/// pinned at the run's epoch. Every request gets a
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
    /// Dedicated pool when built with `.threads(..)`, constructed once and
    /// shared with each call, so a panic unwinding out of one cannot lose it.
    pool: Option<Arc<Pool>>,
    /// Overlap each read run's fan-out with the following write run.
    pipeline: bool,
    /// Coalesced write batches applied so far.
    write_epoch: u64,
    /// The compacted live set derived structures are computed over — the
    /// only per-point state outside the index. `None` until a derived kind
    /// is first asked for (then `index.live_points()`), from then on kept
    /// current in place by every write: appended to on insert, merged
    /// against the index's report on delete. Never shared with a pin.
    live_view: Option<LiveView<D>>,
    /// The derived values of the current write epoch and the path that
    /// produced each; every epoch bump clears it.
    cache: HashMap<DerivedKind, (Memo<D>, MemoPath)>,
    /// The Delaunay graph's delta engine, carried across epoch bumps.
    delaunay: DelaunaySlot,
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
        self.index.len()
    }

    /// True iff no live points are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
    /// against a [`StoreSnapshot`] of the index state left by the preceding
    /// writes. Derived structures are computed at most once per (kind,
    /// epoch) and served from the memo cache afterwards.
    pub fn execute(&mut self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
        match self.pool.clone() {
            Some(pool) => pool.install(|| self.execute_dispatch(requests)),
            None => self.execute_dispatch(requests),
        }
    }

    /// Serves a batch run by run. A write run applies as one coalesced
    /// index batch; a read run memoizes its derived kinds on the live
    /// store, pins, and fans out against the pin — overlapped with the
    /// write run that follows when built with
    /// [`pipeline(true)`](GeoStoreBuilder::pipeline), alone otherwise (the
    /// pin then drops before the next run starts).
    fn execute_dispatch(&mut self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
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
            if self.pipeline {
                g.label("executor", "pipelined");
            }
            g
        });
        let mut out = Vec::with_capacity(requests.len());
        let mut runs = runs(requests).peekable();
        while let Some((kind, run)) = runs.next() {
            if kind != RunKind::Read {
                self.apply_writes(kind, run, &mut out);
                continue;
            }
            // The ensure pass runs on the live store, so memo state,
            // CacheStats and any Stats response follow the stream; the
            // snapshot then captures its result.
            self.ensure_run(run);
            let snap = self.pin();
            let _span = obs.as_ref().map(|o| {
                let mut g = o.registry.span("read_fanout", Vec::new());
                g.label("epoch", self.write_epoch);
                g.label("requests", run.len());
                if self.pipeline {
                    o.pipeline_runs.inc();
                    g.label("executor", "pipelined");
                }
                g
            });
            // Overlap: epoch E's read fan-out (against the pinned
            // snapshot) runs concurrently with epoch E+1's write apply
            // (against the live index). Runs are maximal, so whatever
            // follows a read run is a write run.
            let Some((wkind, wrun)) = runs.next_if(|_| self.pipeline) else {
                out.extend(snap.execute(run));
                continue;
            };
            if let Some(o) = &obs {
                o.pipeline_overlapped.inc();
            }
            let (mut wout, reads) = parlay::par_do(
                || {
                    let mut wout = Vec::new();
                    self.apply_writes(wkind, wrun, &mut wout);
                    wout
                },
                || snap.execute(run),
            );
            out.extend(reads);
            out.append(&mut wout);
        }
        out
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

    /// Applies a write run as one coalesced index batch.
    fn apply_writes(
        &mut self,
        kind: RunKind,
        run: &[Request<D>],
        out: &mut Vec<GeoResult<Response<D>>>,
    ) {
        match kind {
            RunKind::Insert => self.apply_inserts(run, out),
            RunKind::Delete => self.apply_deletes(run, out),
            RunKind::Read => unreachable!("a read run is answered from a pin"),
        }
    }

    /// Pins an immutable [`StoreSnapshot`] of the current write epoch: the
    /// index's pin (its copy-on-write clone; see [`SpatialIndex::pin`] for
    /// what each backend pays), the epoch's memoized derived values
    /// (shared, not copied: O(kinds)), and the statistics as of now —
    /// nothing proportional to the live set. The
    /// store's compacted live view is never shared: a snapshot derives its
    /// own from its pinned index the first time a derived structure not
    /// memoized here is asked of it. The snapshot answers every
    /// read request class bit-identically to a frozen copy of this store
    /// taken at this instant, regardless of how many write epochs follow;
    /// it may outlive rebuilds and be dropped in any order relative to
    /// other snapshots.
    pub fn pin(&self) -> StoreSnapshot<D> {
        let derived: HashMap<DerivedKind, Memo<D>> = self
            .cache
            .iter()
            .map(|(kind, (value, _))| (*kind, value.clone()))
            .collect();
        StoreSnapshot::new(self.index.pin(), self.stats(), derived, self.obs.clone())
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
        // A NaN or ±∞ coordinate is refused here, at the boundary, before
        // it can reach a median comparison or a Morton code: the request
        // that carries one answers a typed error and the rest of the run is
        // applied as if it were absent.
        let refused: Vec<bool> = batches(run)
            .map(|batch| !batch.iter().all(Point::is_finite))
            .collect();
        let points = if refused.contains(&true) {
            let admitted = batches(run).zip(&refused).filter(|(_, &r)| !r);
            Cow::Owned(
                admitted
                    .map(|(batch, _)| batch)
                    .collect::<Vec<_>>()
                    .concat(),
            )
        } else {
            coalesce(run)
        };
        // Store ids are the index's own insertion counter. The admitted
        // part of the run is one index batch, so it is admitted or refused
        // whole.
        let inserted = self.index.snapshot().inserted;
        let first = match first_store_id(inserted as usize, points.len()) {
            Ok(id) => id,
            Err(e) => {
                out.extend(run.iter().map(|_| Err(e)));
                return;
            }
        };
        let mut next_id = first;
        for (batch, &refused) in batches(run).zip(&refused) {
            if refused {
                out.push(Err(GeoError::BadParameter {
                    op: "insert",
                    what: "non-finite coordinate",
                }));
                continue;
            }
            out.push(Ok(Response::Inserted {
                count: batch.len(),
                first_id: (!batch.is_empty()).then_some(next_id),
            }));
            next_id += batch.len() as u32; // within `first_store_id`'s checked total
        }
        if points.is_empty() {
            // Nothing entered the live set: the memoized derived
            // structures are still exact, so the epoch (and with it the
            // memo cache) is spared.
            self.spare_epoch();
        } else {
            self.index.insert(&points);
            if let Some((ids, pts)) = &mut self.live_view {
                reserve_an_eighth(ids, points.len());
                reserve_an_eighth(pts, points.len());
                ids.extend(first..next_id); // fresh ids ascend: order preserved
                pts.extend_from_slice(&points);
            }
            cow_bytes = self.bump_epoch();
        }
        if let Some(o) = &obs {
            o.class_nanos[0].record_duration(t.elapsed());
            if let Some(s) = span.as_mut() {
                s.label("points", points.len());
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
        let len_before = self.index.len();
        let removed = self.index.remove(&coalesce(run));
        if len_before != self.index.len() + removed.len() {
            // The index's report and its live count disagree about what
            // was removed. No per-request count read off such a report can
            // be vouched for: the run's requests get a typed error instead
            // of a possibly wrong `Deleted`, and the view is re-derived
            // from the index on the next need.
            if let Some(o) = &obs {
                o.index_divergence.inc();
            }
            out.extend(run.iter().map(|_| {
                Err(GeoError::BadParameter {
                    op: "delete",
                    what: "index delete report diverged from its live count",
                })
            }));
            self.live_view = None;
            cow_bytes = self.bump_epoch();
        } else if removed.is_empty() {
            // A delete run that matched no live point (or was empty) is a
            // no-op: the index reports it removed nothing, so the epoch
            // does not advance and the memoized derived structures stay
            // valid.
            out.extend(run.iter().map(|_| Ok(Response::Deleted { count: 0 })));
            self.spare_epoch();
        } else {
            match run {
                [_] => out.push(Ok(Response::Deleted {
                    count: removed.len(),
                })),
                _ => out.extend(
                    claimed_counts(run, &removed)
                        .into_iter()
                        .map(|count| Ok(Response::Deleted { count })),
                ),
            }
            if let Some(view) = &mut self.live_view {
                retire(view, &removed);
            }
            cow_bytes = self.bump_epoch();
        }
        if let Some(o) = &obs {
            o.class_nanos[1].record_duration(t.elapsed());
            if let Some(s) = span.as_mut() {
                s.label("points", removed.len());
                s.label("cow_bytes", cow_bytes);
            }
        }
    }

    /// Counts a write run that changed nothing in the live set.
    fn spare_epoch(&mut self) {
        self.cache_stats.spared += 1;
        if let Some(o) = &self.obs {
            o.memo[obs::MEMO_SPARED].inc();
        }
    }

    /// Advances the write epoch. Structures memoized over the previous live
    /// set expire immediately, so stale values are never served (the
    /// compacted view was already brought up to date); only the Delaunay
    /// engine's slot carries state across the bump.
    ///
    /// Returns the bytes the index copied on write during this epoch (read
    /// from its snapshot; 0 when unobserved — the snapshot is only taken
    /// for the gauges).
    fn bump_epoch(&mut self) -> u64 {
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
        self.cache.clear();
        cow_bytes
    }

    /// Memoizes every derived structure a read run asks for, in request
    /// order. The derived class's latency sample is taken here, around the
    /// memo ensure, so it captures compute/advance cost — the fan-out that
    /// follows is a cache read.
    fn ensure_run(&mut self, run: &[Request<D>]) {
        for kind in run.iter().filter_map(Request::derived_kind) {
            let t = self.obs.as_ref().map(|_| Instant::now());
            self.ensure_derived(kind);
            if let (Some(o), Some(t)) = (&self.obs, t) {
                o.class_nanos[4].record_duration(t.elapsed());
            }
        }
    }

    /// Memoizes `kind` at the current epoch: a hit when already there,
    /// else the Delaunay slot's advance or rebuild for the maintained
    /// kind and a fresh compute for every other.
    fn ensure_derived(&mut self, kind: DerivedKind) {
        let obs = self.obs.clone();
        if self.cache.contains_key(&kind) {
            self.cache_stats.hits += 1;
            if let Some(o) = &obs {
                o.memo[obs::MEMO_HIT].inc();
            }
            return;
        }
        self.cache_stats.misses += 1;
        let mut span = obs.as_ref().map(|o| {
            let mut g = o.registry.span("derived_memo", Vec::new());
            g.label("epoch", self.write_epoch);
            g.label("kind", kind.label());
            g
        });
        // The first derived request derives the view from the index; from
        // then on the write path keeps it current.
        let (ids, pts) = &*self
            .live_view
            .get_or_insert_with(|| self.index.live_points());
        let (value, path, fallback) = match kind {
            DerivedKind::DelaunayGraph => self.delaunay.ensure(ids, pts),
            _ => (derived::compute(kind, ids, pts), MemoPath::Fresh, None),
        };
        match path {
            MemoPath::Fresh => {}
            MemoPath::Incremental => self.cache_stats.incremental += 1,
            MemoPath::Rebuilt => self.cache_stats.rebuilds += 1,
        }
        if let Some(o) = &obs {
            o.memo[obs::memo_idx(path)].inc();
            if let Some(cause) = fallback {
                o.memo_fallback(cause).inc();
            }
        }
        if let Some(s) = span.as_mut() {
            s.label("path", path.label());
            if let Some(cause) = fallback {
                s.label("cause", cause.label());
            }
        }
        self.cache.insert(kind, (value.map(Arc::new), path));
    }

    /// Which path produced the memoized value for `kind`, if one is
    /// cached for the current epoch.
    pub fn derived_path(&self, kind: DerivedKind) -> Option<MemoPath> {
        self.cache.get(&kind).map(|&(_, path)| path)
    }

    // ---- typed sugar over `run` ----------------------------------------

    /// Inserts a batch; returns the first assigned id (`None` when empty).
    ///
    /// # Panics
    /// If the batch does not fit the `u32` store id space or carries a
    /// non-finite coordinate, which [`execute`](Self::execute) reports as
    /// typed errors instead.
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
    /// If the index's report and its live count disagree about what was
    /// removed — a bug in the backend, which [`execute`](Self::execute) reports as a
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
    use pargeo_engine::LivePoints;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// The oracle index with injected faults.
    #[derive(Clone, Default)]
    struct Faulty {
        inner: VecIndex<2>,
        /// `remove` removes what it is told to and reports one point fewer
        /// — a report its own live count contradicts.
        under_report: bool,
        /// The next `insert` panics before it touches anything.
        panic_on_insert: bool,
        /// Workers of the pool the last completed `insert` ran on.
        insert_workers: Arc<AtomicUsize>,
        /// The next `knn_batch`, on this index or any pin of it, panics.
        panic_on_knn: Arc<AtomicBool>,
        /// The next `live_points` panics.
        panic_on_live_points: Arc<AtomicBool>,
    }

    impl SpatialIndex<2> for Faulty {
        fn backend_name(&self) -> &'static str {
            "faulty"
        }
        fn insert(&mut self, batch: &[Point<2>]) {
            if std::mem::take(&mut self.panic_on_insert) {
                panic!("injected insert fault");
            }
            let workers = parlay::num_threads();
            self.insert_workers.store(workers, Ordering::Relaxed);
            self.inner.insert(batch)
        }
        fn remove(&mut self, batch: &[Point<2>]) -> Vec<(Point<2>, u32)> {
            let mut removed = self.inner.remove(batch);
            if self.under_report {
                removed.pop();
            }
            removed
        }
        fn knn_batch(&self, queries: &[Point<2>], k: usize) -> Vec<Vec<Neighbor>> {
            if self.panic_on_knn.swap(false, Ordering::Relaxed) {
                panic!("injected knn fault");
            }
            self.inner.knn_batch(queries, k)
        }
        fn range_batch(&self, queries: &[Bbox<2>]) -> Vec<Vec<u32>> {
            self.inner.range_batch(queries)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn snapshot(&self) -> Snapshot {
            self.inner.snapshot()
        }
        fn pin(&self) -> Box<dyn SpatialIndex<2> + Send + Sync> {
            Box::new(self.clone())
        }
        fn live_points(&self) -> LivePoints<2> {
            if self.panic_on_live_points.swap(false, Ordering::Relaxed) {
                panic!("injected live_points fault");
            }
            self.inner.live_points()
        }
        fn live_bbox(&self) -> Bbox<2> {
            self.inner.live_bbox()
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
    fn live_view_is_derived_once_then_tracks_the_index_in_place() {
        let pts: Vec<Point<2>> = (0..300)
            .map(|i| Point::new([(i % 20) as f64, (i / 20) as f64 + 0.5 * (i % 3) as f64]))
            .collect();
        for shards in [1, 4] {
            let mut store = GeoStore::<2>::builder()
                .buffer_size(16)
                .shards(shards)
                .build();
            store.insert(&pts[..200]);
            store.delete(&pts[..20]);
            assert!(store.live_view.is_none(), "no derived kind asked yet");
            store.seb().expect("180 live points");
            assert_eq!(store.live_view, Some(store.index.live_points()));
            // From here on no request re-derives the view: an insert run, a
            // coalesced delete run naming one value twice, a no-op delete
            // and a re-insert of deleted values each leave it current.
            store.execute(&[
                Request::Insert(pts[200..].to_vec()),
                Request::Insert(pts[..10].to_vec()),
                Request::Delete(pts[50..90].to_vec()),
                Request::Delete(pts[80..120].to_vec()),
                Request::Delete(vec![Point::new([-1.0, -1.0])]),
                Request::Hull,
                Request::Delete(pts[..10].to_vec()),
            ]);
            assert_eq!(store.len(), 300 - 20 - 70);
            assert_eq!(store.live_view, Some(store.index.live_points()));
        }
    }

    /// An insert into a just-derived view grows it by an eighth, not by
    /// a second copy, and a batch larger than that grows it by the batch.
    #[test]
    fn an_insert_grows_the_live_view_by_an_eighth_not_by_doubling() {
        let pts = pargeo_datagen::uniform_cube::<2>(13_010, 3);
        let mut store = GeoStore::<2>::default();
        store.insert(&pts[..8_000]);
        store.seb().expect("8 000 live points");
        for (batch, len) in [
            (8_000..8_010, 8_010),
            (8_010..11_010, 11_010),
            (11_010..13_010, 13_010),
        ] {
            store.insert(&pts[batch]);
            let (ids, view) = store.live_view.as_ref().expect("derived");
            assert_eq!((ids.len(), view.len()), (len, len));
            for cap in [ids.capacity(), view.capacity()] {
                assert!(cap <= len + len / 8, "capacity {cap} for {len} rows");
            }
        }
        assert_eq!(store.live_view, Some(store.index.live_points()));
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
        store.index = Box::new(Faulty {
            under_report: true,
            ..Faulty::default()
        });
        store.insert(&pts);
        let diverged = Err(GeoError::BadParameter {
            op: "delete",
            what: "index delete report diverged from its live count",
        });
        // Every request of the coalesced run is answered with the error —
        // no count read off that report can be vouched for — and requests
        // outside the run are untouched.
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
        // A run the index reports removed nothing is spared, not checked.
        assert_eq!(got[4], Ok(Response::Deleted { count: 0 }));
        let divergences = store
            .registry()
            .expect("metrics level")
            .counter("geostore_index_divergence_total", &[])
            .get();
        assert_eq!(divergences, 1, "one diverged run");
        // The epoch still advanced and the live count is the index's own:
        // the store stays serviceable, it does not pretend nothing happened.
        assert_eq!(store.len(), 7);
        assert_eq!(store.stats().write_epoch, 2);
    }

    /// A panic out of the index unwinds through `execute` to the caller and
    /// leaves the store whole: its dedicated pool still runs the next call,
    /// and the epoch, the index and the live view still agree.
    #[test]
    fn a_panicking_write_keeps_the_pool_and_a_consistent_store() {
        let pts: Vec<Point<2>> = (0..60)
            .map(|i| Point::new([(i % 8) as f64, (i / 8) as f64 + 0.1 * (i % 3) as f64]))
            .collect();
        for pipeline in [false, true] {
            let mut store = GeoStore::<2>::builder()
                .threads(3)
                .pipeline(pipeline)
                .build();
            let workers = Arc::new(AtomicUsize::new(0));
            store.index = Box::new(Faulty {
                panic_on_insert: true,
                insert_workers: workers.clone(),
                ..Faulty::default()
            });
            // A read run ahead of the write: pipelined, the fan-out overlaps
            // the panicking apply.
            let stream = [Request::Stats, Request::Insert(pts.clone())];
            let unwound =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.execute(&stream)));
            assert!(unwound.is_err(), "pipeline={pipeline}: the fault surfaced");
            assert_eq!((store.len(), store.stats().write_epoch), (0, 0));

            let got = store.execute(&[&stream[..], &[Request::Seb]].concat());
            assert_eq!(workers.load(Ordering::Relaxed), 3, "pipeline={pipeline}");
            assert!(got.iter().all(Result::is_ok), "pipeline={pipeline}");
            assert_eq!((store.len(), store.stats().write_epoch), (60, 1));
            assert_eq!(store.live_view, Some(store.index.live_points()));
        }
    }

    /// A panic inside a read fan-out crosses the fan-out's joins to the
    /// caller of `execute`; the pool runs the next call and the store's
    /// state is what it was.
    #[test]
    fn a_panicking_read_keeps_the_pool_and_the_store_unchanged() {
        let pts: Vec<Point<2>> = (0..60)
            .map(|i| Point::new([(i % 8) as f64, (i / 8) as f64 + 0.1 * (i % 3) as f64]))
            .collect();
        let mut store = GeoStore::<2>::builder().threads(3).build();
        let fault = Arc::new(AtomicBool::new(false));
        store.index = Box::new(Faulty {
            panic_on_knn: fault.clone(),
            ..Faulty::default()
        });
        store.insert(&pts);
        store.seb().expect("60 live points");
        let before = (
            store.len(),
            store.stats().write_epoch,
            store.live_view.clone(),
        );
        let knn = Request::Knn {
            queries: pts[..4].to_vec(),
            k: 3,
        };
        // A read run of several requests, so the fan-out forks.
        let reads = [
            knn.clone(),
            Request::Range(vec![Bbox::from_points(&pts)]),
            knn,
            Request::Stats,
        ];
        fault.store(true, Ordering::Relaxed);
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.execute(&reads)));
        let payload = unwound.expect_err("the fault surfaced");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("injected knn fault")
        );
        assert!(!fault.load(Ordering::Relaxed), "the fault fired once");
        assert_eq!(
            (
                store.len(),
                store.stats().write_epoch,
                store.live_view.clone()
            ),
            before
        );
        let got = store.execute(&reads);
        assert!(got.iter().all(Result::is_ok));
        assert_eq!(got[0], got[2]);
    }

    /// A panic inside a derived compute — here where the first derived
    /// request derives the live view from the index — reaches the caller
    /// of `execute` and leaves the store as it was: same live count and
    /// epoch, no live view, nothing memoized. The next `Seb` is served as
    /// an oracle store serves it.
    #[test]
    fn a_panicking_derived_compute_keeps_the_store_unchanged() {
        let pts: Vec<Point<2>> = (0..60)
            .map(|i| Point::new([(i % 8) as f64, (i / 8) as f64 + 0.1 * (i % 3) as f64]))
            .collect();
        let mut store = GeoStore::<2>::builder().threads(3).build();
        let fault = Arc::new(AtomicBool::new(false));
        store.index = Box::new(Faulty {
            panic_on_live_points: fault.clone(),
            ..Faulty::default()
        });
        store.insert(&pts);
        let before = (store.len(), store.stats().write_epoch);
        assert!(store.live_view.is_none() && store.cache.is_empty());

        fault.store(true, Ordering::Relaxed);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.execute(&[Request::Seb])
        }));
        let payload = unwound.expect_err("the fault surfaced");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("injected live_points fault")
        );
        assert!(!fault.load(Ordering::Relaxed), "the fault fired once");
        assert_eq!((store.len(), store.stats().write_epoch), before);
        assert!(store.live_view.is_none(), "no half-derived live view");
        assert!(store.cache.is_empty(), "nothing memoized");

        let mut oracle = GeoStore::<2>::builder().backend(Backend::Oracle).build();
        oracle.insert(&pts);
        let want = oracle.execute(&[Request::Seb]);
        assert!(want[0].is_ok());
        assert_eq!(store.execute(&[Request::Seb]), want);
        assert_eq!(store.live_view, Some(store.index.live_points()));
    }

    /// A panic inside a derived kind's own work once the live view exists —
    /// a full compute, then engine advances over an insert epoch and a
    /// delete epoch — reaches the caller of `execute` and leaves the store
    /// as it was: same live count, epoch and live view, and no value for
    /// that kind at the current epoch. The next request for it is served as an oracle store
    /// serves it, by a fresh compute.
    #[test]
    fn a_panicking_kind_compute_keeps_the_store_unchanged() {
        // Quasi-random points; the second batch lies inside the first's box,
        // so an unfaulted store advances its Delaunay engine over it.
        let at = |i: usize, lo: f64, w: f64| {
            let t = i as f64;
            Point::new([
                lo + w * (t * 0.618_034).fract(),
                lo + w * (t * 0.754_878).fract(),
            ])
        };
        let first: Vec<Point<2>> = (1..=150).map(|i| at(i, 0.0, 1.0)).collect();
        let second: Vec<Point<2>> = (1..=8).map(|i| at(i + 500, 0.3, 0.4)).collect();
        // No pool of its own: the store computes on this thread, where the
        // fault is armed.
        let mut store = GeoStore::<2>::builder().observe(ObsLevel::Metrics).build();
        let mut oracle = GeoStore::<2>::builder().backend(Backend::Oracle).build();
        let kind = DerivedKind::DelaunayGraph;
        let request = [Request::DelaunayGraph];
        let fault_then_serve = |store: &mut GeoStore<2>, oracle: &mut GeoStore<2>, path| {
            let before = (
                store.len(),
                store.stats().write_epoch,
                store.live_view.clone(),
            );
            let misses = store.stats().cache.misses;
            derived::PANIC_NEXT.with(|armed| armed.set(true));
            let unwound =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.execute(&request)));
            let payload = unwound.expect_err("the fault surfaced");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("injected derived fault")
            );
            assert!(
                !derived::PANIC_NEXT.with(|armed| armed.get()),
                "it fired once"
            );
            let after = (
                store.len(),
                store.stats().write_epoch,
                store.live_view.clone(),
            );
            assert_eq!(after, before);
            assert_eq!(store.derived_path(kind), None, "nothing memoized");
            assert_eq!(store.stats().cache.misses, misses + 1);

            let want = oracle.execute(&request);
            assert!(want[0].is_ok());
            assert_eq!(store.execute(&request), want);
            assert_eq!(store.derived_path(kind), Some(path));
        };

        store.insert(&first);
        oracle.insert(&first);
        // The live view exists before the faulted compute.
        assert_eq!(
            store.execute(&[Request::Seb]),
            oracle.execute(&[Request::Seb])
        );
        assert!(store.live_view.is_some());
        // Nothing was memoized before the first compute, so nothing is
        // rebuilt after it.
        fault_then_serve(&mut store, &mut oracle, MemoPath::Fresh);
        assert_eq!(oracle.derived_path(kind), Some(MemoPath::Fresh));

        // The faulted advance leaves the Delaunay slot without its engine,
        // pending a rebuild: the next request is a counted `Rebuilt`.
        store.insert(&second);
        oracle.insert(&second);
        fault_then_serve(&mut store, &mut oracle, MemoPath::Rebuilt);
        assert_eq!(
            oracle.derived_path(kind),
            Some(MemoPath::Incremental),
            "the faulted request was an engine advance"
        );
        assert_eq!(store.stats().cache.incremental, 0);
        assert_eq!(store.stats().cache.rebuilds, 1);
        let registry = store.registry().expect("observed").clone();
        let fallbacks = |cause| {
            let labels = [("kind", "delaunay-graph"), ("cause", cause)];
            registry
                .counter("geostore_memo_fallback_total", &labels)
                .get()
        };
        assert_eq!((fallbacks("poisoned"), fallbacks("anchor_lost")), (1, 0));

        // A faulted advance over a delete epoch leaves the structure
        // pending again: the next request is a second counted `Rebuilt`,
        // where the unfaulted store removes the deleted points in place.
        store.delete(&first[..20]);
        oracle.delete(&first[..20]);
        fault_then_serve(&mut store, &mut oracle, MemoPath::Rebuilt);
        assert_eq!(oracle.derived_path(kind), Some(MemoPath::Incremental));
        assert_eq!(store.stats().cache.incremental, 0);
        assert_eq!(store.stats().cache.rebuilds, 2);
        assert_eq!((fallbacks("poisoned"), fallbacks("anchor_lost")), (2, 0));
    }

    /// The Delaunay engine has no bbox: an insert epoch entirely outside
    /// the one it was built on advances it, and the answer equals the
    /// oracle's fresh compute.
    #[test]
    fn a_delaunay_insert_outside_the_build_bbox_is_incremental() {
        let mut store = GeoStore::<2>::builder().build();
        let mut oracle = GeoStore::<2>::builder().backend(Backend::Oracle).build();
        let inside = pargeo_datagen::uniform_cube::<2>(300, 5);
        let outside: Vec<Point<2>> = pargeo_datagen::uniform_cube::<2>(40, 6)
            .iter()
            .map(|p| Point::new([3.0 + p[0], -2.0 - p[1]]))
            .collect();
        for batch in [inside, outside] {
            store.insert(&batch);
            oracle.insert(&batch);
            let want = oracle.execute(&[Request::DelaunayGraph]);
            assert!(want[0].is_ok());
            assert_eq!(store.execute(&[Request::DelaunayGraph]), want);
        }
        assert_eq!(
            store.derived_path(DerivedKind::DelaunayGraph),
            Some(MemoPath::Incremental)
        );
        assert_eq!(store.stats().cache.rebuilds, 0);
    }

    /// `pin` hands the snapshot the memo's values, not copies of them.
    #[test]
    fn pin_shares_memoized_values() {
        let pts: Vec<Point<2>> = (0..200)
            .map(|i| Point::new([(i % 13) as f64 + 0.01 * i as f64, (i / 13) as f64]))
            .collect();
        let mut store = GeoStore::<2>::builder().build();
        store.insert(&pts);
        store.execute(&[Request::DelaunayGraph, Request::Emst]);
        let kinds = [DerivedKind::DelaunayGraph, DerivedKind::Emst];
        let holders = |store: &GeoStore<2>| -> Vec<usize> {
            let memo = kinds.iter().map(|kind| &store.cache[kind].0);
            memo.map(|v| Arc::strong_count(v.as_ref().expect("computed")))
                .collect()
        };
        assert_eq!(holders(&store), [1, 1]);
        let (a, b) = (store.pin(), store.pin());
        assert_eq!(
            holders(&store),
            [3, 3],
            "each pin holds the memo's own value"
        );
        drop(a);
        assert_eq!(
            b.execute(&[Request::DelaunayGraph, Request::Emst]),
            store.execute(&[Request::DelaunayGraph, Request::Emst])
        );
        drop(b);
        assert_eq!(holders(&store), [1, 1]);
    }

    /// A non-finite coordinate stops at the boundary, on both backends and
    /// both executors: its request is refused with a typed error, takes no
    /// ids and no epoch, and the rest of its run — and every derived kind
    /// after it — is served as if it had never been sent.
    #[test]
    fn non_finite_inserts_are_refused_at_the_boundary() {
        let pts: Vec<Point<2>> = (0..300)
            .map(|i| Point::new([(i % 17) as f64 + 0.01 * i as f64, (i / 17) as f64]))
            .collect();
        let with = |at: usize, c: f64| {
            let mut bad = pts[100..200].to_vec();
            bad[at] = Point::new([c, 1.0]);
            Request::Insert(bad)
        };
        let reads = [
            Request::Emst,
            Request::KnnGraph { k: 3 },
            Request::Hull,
            Request::Seb,
            Request::ClosestPair,
            Request::DelaunayGraph,
        ];
        let refused = Err(GeoError::BadParameter {
            op: "insert",
            what: "non-finite coordinate",
        });
        for backend in [Backend::Bdl, Backend::Oracle] {
            for pipeline in [false, true] {
                let build = || {
                    let b = GeoStore::<2>::builder().backend(backend);
                    b.pipeline(pipeline).buffer_size(16).build()
                };
                let mut clean = build();
                let want = clean.execute(
                    &[
                        &[Request::Insert(pts[..200].to_vec())][..],
                        &[Request::Insert(pts[200..].to_vec())],
                        &reads,
                    ]
                    .concat(),
                );
                let mut store = build();
                let got = store.execute(
                    &[
                        &[Request::Insert(pts[..200].to_vec())][..],
                        &[with(0, f64::NAN), with(99, f64::INFINITY)],
                        &[Request::Insert(pts[200..].to_vec())],
                        &[with(50, f64::NEG_INFINITY)],
                        &reads,
                    ]
                    .concat(),
                );
                assert_eq!(got[1..3], [refused.clone(), refused.clone()]);
                assert_eq!(got[4], refused);
                assert_eq!(got[0], want[0]);
                assert_eq!(got[3], want[1], "the refused batches took no ids");
                assert_eq!(got[5..], want[2..], "{backend:?} pipeline={pipeline}");
                assert!(got[5..].iter().all(Result::is_ok));
                assert_eq!(store.len(), 300);
                assert_eq!(store.stats().write_epoch, clean.stats().write_epoch);
                // A run refused whole is no epoch at all: the memo survives.
                let hits = store.stats().cache.hits;
                assert_eq!(
                    store.execute(&[with(7, f64::NAN), Request::Emst])[0],
                    refused
                );
                assert_eq!(store.stats().write_epoch, clean.stats().write_epoch);
                assert_eq!(store.stats().cache.hits, hits + 1);
            }
        }
    }

    /// Non-finite read arguments are decided at the boundary too, on both
    /// backends, both executors, sharded or not, live store and pinned
    /// snapshot alike: a k-NN query with a NaN or ±∞ coordinate has no `k`
    /// nearest neighbours, so its request answers a typed error (never a
    /// short row, never ids at distance ∞); a range box with a NaN bound
    /// contains nothing and a delete of a NaN point matches nothing, which
    /// are exact answers. The rest of the run is served as if unaffected.
    #[test]
    fn non_finite_reads_are_decided_at_the_boundary() {
        let pts: Vec<Point<2>> = (0..300)
            .map(|i| Point::new([(i % 17) as f64 + 0.01 * i as f64, (i / 17) as f64]))
            .collect();
        let nan = f64::NAN;
        let knn = |queries: Vec<Point<2>>| Request::Knn { queries, k: 3 };
        let finite = knn(pts[..20].to_vec());
        let bad_knn = [
            knn(vec![
                Point::new([nan, 1.0]),
                Point::new([f64::INFINITY, 1.0]),
                Point::new([nan, nan]),
            ]),
            knn([&pts[..5], &[Point::new([1.0, f64::NEG_INFINITY])]].concat()),
        ];
        let nan_box = Request::Range(vec![Bbox {
            min: Point::new([nan, 0.0]),
            max: Point::new([5.0, 5.0]),
        }]);
        let reads = [&bad_knn[..], &[nan_box, finite.clone()]].concat();
        let refused = Err(GeoError::BadParameter {
            op: "knn",
            what: "non-finite coordinate",
        });
        for backend in [Backend::Bdl, Backend::Oracle] {
            for (pipeline, shards) in [(false, 1), (true, 1), (false, 4), (true, 4)] {
                let ctx = format!("{backend:?} pipeline={pipeline} shards={shards}");
                let mut store = GeoStore::<2>::builder()
                    .backend(backend)
                    .pipeline(pipeline)
                    .shards(shards)
                    .buffer_size(16)
                    .build();
                let got = store.execute(
                    &[
                        &[Request::Insert(pts.clone())][..],
                        &reads,
                        &[Request::Delete(vec![Point::new([nan, 1.0])])],
                        std::slice::from_ref(&finite),
                    ]
                    .concat(),
                );
                assert_eq!(got[1..3], [refused.clone(), refused.clone()], "{ctx}");
                assert_eq!(got[3], Ok(Response::Range(vec![vec![]])), "{ctx}");
                let Ok(Response::Knn(rows)) = &got[4] else {
                    panic!("{ctx}: the finite k-NN of the same run must answer");
                };
                assert!(rows.len() == 20 && rows.iter().all(|r| r.len() == 3));
                assert_eq!(got[5], Ok(Response::Deleted { count: 0 }), "{ctx}");
                assert_eq!(got[6], got[4], "{ctx}: nothing was removed");
                assert_eq!(store.len(), 300, "{ctx}");
                // The pinned snapshot answers through the same check.
                let snap = store.pin();
                assert_eq!(snap.execute(&reads), got[1..5], "{ctx}: snapshot");
            }
        }
    }
}

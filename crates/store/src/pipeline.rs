//! Epoch-pinned store snapshots — the read side of every read run.
//!
//! [`StoreSnapshot`] is what [`GeoStore::pin`](crate::GeoStore::pin)
//! returns: a fully owned, immutable capture of the store at one write
//! epoch. It holds the index's pin — the backend's own copy-on-write
//! clone, boxed ([`SpatialIndex::pin`]: O(X + log n) for the
//! structure-sharing BDL-tree, one pin per shard for the sharded executor;
//! the oracle copies itself whole) — the epoch's memoized derived values
//! (each the `Arc<Response>` the store's memo holds, shared, never
//! copied), and the
//! store statistics as of the pin: everything needed to answer every read
//! request class *bit-identically to a frozen copy of the store* while
//! later write epochs apply on the live side. The pinned index runs the
//! live index's own read code. It could be written too, but the snapshot
//! never hands it out and answers write requests with a typed error, so a
//! client sees an immutable capture. Pinning does no work proportional to
//! the live set and shares nothing the live side writes: a snapshot
//! derives its own compacted live view from the pinned index
//! (`live_points()`) the first time a derived structure not memoized at
//! pin time is asked of it.
//!
//! Lifecycle: **pin → answer → retire.** The store pins one snapshot per
//! read run, after the run's derived-memo ensure pass on the live store,
//! answers the run's fan-out against it, and retires it by dropping it —
//! which releases the pinned `Arc`s and decrements the
//! `geostore_pinned_views` gauge. Built with `pipeline(false)`, the store
//! drops the snapshot before the next run, so no write ever copies on its
//! behalf; with `pipeline(true)` the fan-out overlaps the *next* write
//! epoch's apply on the live store, which costs one copy-on-write delta
//! per pinned epoch (counted in `geostore_index_cow_bytes_total`).
//! Snapshots a caller pins may outlive rebuilds and be dropped in any
//! order.

use crate::derived;
use crate::obs::{self, StoreObs};
use crate::request::{check_knn, DerivedKind, Request, Response, StoreStats};
use pargeo_engine::{Snapshot, SpatialIndex};
use pargeo_geometry::{GeoError, GeoResult};
use pargeo_parlay as parlay;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Compacted live view: `pts[i]` is the live point with store id `ids[i]`,
/// ids strictly ascending — the index's own
/// [`LivePoints`](pargeo_engine::LivePoints), since index ids are store ids.
pub(crate) type LiveView<const D: usize> = pargeo_engine::LivePoints<D>;

/// A memoized derived value — the response that answers its kind —
/// shared between the store's memo and every snapshot pinned at its epoch.
pub(crate) type Memo<const D: usize> = GeoResult<Arc<Response<D>>>;

/// An immutable capture of a [`GeoStore`](crate::GeoStore) at one write
/// epoch, created by [`GeoStore::pin`](crate::GeoStore::pin).
///
/// Every read request class — k-NN, range, statistics, and all derived
/// structures — answers against the pinned epoch, bit-identically to a
/// frozen copy of the store taken at pin time, no matter how many write
/// epochs (including delete and rebuild epochs) the live store applies
/// afterwards. Derived structures memoized at pin time are served from
/// the pinned cache; kinds not yet memoized are computed on demand over
/// the pinned live set (and memoized inside the snapshot).
///
/// [`Stats`](Request::Stats) and [`shard_snapshots`](Self::shard_snapshots)
/// report the *pinned* epoch, never the live one.
pub struct StoreSnapshot<const D: usize> {
    /// The index pinned at this epoch; never handed out, never written.
    index: Box<dyn SpatialIndex<D> + Send + Sync>,
    /// Derived from `index` on first need.
    live_view: OnceLock<LiveView<D>>,
    stats: StoreStats,
    /// Derived values at the pinned epoch: seeded from the store's memo
    /// cache (the same `Arc`s), extended lazily for kinds first requested
    /// through the snapshot. A `Mutex`, not `RwLock`: it is held for a
    /// lookup or a lazy compute, never for the copy a response makes, and
    /// the store side never touches it.
    derived: Mutex<HashMap<DerivedKind, Memo<D>>>,
    obs: Option<Arc<StoreObs>>,
}

impl<const D: usize> StoreSnapshot<D> {
    /// Assembles a pinned snapshot (store-side constructor) and counts it
    /// into the `geostore_pinned_views` gauge.
    pub(crate) fn new(
        index: Box<dyn SpatialIndex<D> + Send + Sync>,
        stats: StoreStats,
        derived: HashMap<DerivedKind, Memo<D>>,
        obs: Option<Arc<StoreObs>>,
    ) -> Self {
        if let Some(o) = &obs {
            o.pinned_views.add(1);
        }
        Self {
            index,
            live_view: OnceLock::new(),
            stats,
            derived: Mutex::new(derived),
            obs,
        }
    }

    /// Store statistics as of the pin (index snapshot, write epoch, cache
    /// counters — all frozen at pin time).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The write epoch this snapshot was pinned at.
    pub fn write_epoch(&self) -> u64 {
        self.stats.write_epoch
    }

    /// Number of live points at the pinned epoch.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True iff the pinned epoch held no live points.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Per-shard epoch statistics as of the pin — one [`Snapshot`] per
    /// shard, reported against the pinned epoch rather than the live one.
    pub fn shard_snapshots(&self) -> Vec<Snapshot> {
        self.index.shard_snapshots()
    }

    /// Answers a run of read requests data-parallel against the pinned
    /// epoch, one `Result` per request in request order. Write requests
    /// (`Insert`/`Delete`) come back as typed errors: a snapshot is
    /// immutable by construction.
    pub fn execute(&self, requests: &[Request<D>]) -> Vec<GeoResult<Response<D>>> {
        // Grain 1: an item is a whole request (often a query batch).
        parlay::map(requests, 1, |req| self.answer(req))
    }

    /// Answers one request against the pinned epoch (see
    /// [`execute`](Self::execute)).
    pub fn answer(&self, req: &Request<D>) -> GeoResult<Response<D>> {
        let Some(o) = &self.obs else {
            return self.answer_inner(req);
        };
        let class = obs::class_of(req);
        if class == 4 {
            // Derived latency is sampled inside the lazy-compute path
            // only — pinned-cache reads mirror the store's hit path,
            // which is unsampled there too.
            return self.answer_inner(req);
        }
        let t = Instant::now();
        let resp = self.answer_inner(req);
        o.class_nanos[class].record_duration(t.elapsed());
        resp
    }

    fn answer_inner(&self, req: &Request<D>) -> GeoResult<Response<D>> {
        match req {
            Request::Insert(_) | Request::Delete(_) => Err(GeoError::BadParameter {
                op: "geostore_snapshot",
                what: "write request against a pinned snapshot",
            }),
            Request::Knn { queries, k } => {
                check_knn(queries, *k, self.len())?;
                Ok(Response::Knn(self.index.knn_batch(queries, *k)))
            }
            Request::Range(boxes) => Ok(Response::Range(self.index.range_batch(boxes))),
            Request::Stats => Ok(Response::Stats(self.stats)),
            _ => {
                let Some(kind) = req.derived_kind() else {
                    return Err(GeoError::BadParameter {
                        op: "geostore_snapshot",
                        what: "unroutable request against a pinned snapshot",
                    });
                };
                self.derived_value(kind).map(|v| (*v).clone())
            }
        }
    }

    /// The derived value for `kind` at the pinned epoch: served from the
    /// pinned memo when present, computed over the pinned live set (and
    /// memoized in the snapshot) otherwise. Values are bit-identical to
    /// what a frozen copy of the store would compute at the pinned epoch.
    fn derived_value(&self, kind: DerivedKind) -> Memo<D> {
        let mut memo = self.derived.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = memo.get(&kind) {
            return v.clone();
        }
        let t = self.obs.as_ref().map(|_| Instant::now());
        // Index ids are store ids (both count inserted points in order),
        // so the pinned index's own live points are the store's live view.
        let (ids, pts) = self.live_view.get_or_init(|| self.index.live_points());
        let value = derived::compute(kind, ids, pts).map(Arc::new);
        if let (Some(o), Some(t)) = (&self.obs, t) {
            o.class_nanos[4].record_duration(t.elapsed());
        }
        memo.insert(kind, value.clone());
        value
    }
}

impl<const D: usize> Drop for StoreSnapshot<D> {
    fn drop(&mut self) {
        if let Some(o) = &self.obs {
            o.pinned_views.add(-1);
        }
    }
}

//! The mixed-workload driver for the store façade.
//!
//! [`run_store_workload`] replays a generated [`Workload`] — including the
//! derived-structure (analytics) ops the index-only engine driver skips —
//! against a [`GeoStore`], folding every answer into one order-sensitive
//! digest. Stores over different backends that served the workload
//! correctly produce **identical** digests; the differential suites assert
//! exactly that.

use crate::request::{Request, Response};
use crate::store::GeoStore;
use crate::CacheStats;
use pargeo_datagen::{DerivedOp, Workload, WorkloadOp};
use pargeo_geometry::GeoResult;

/// What happened when a workload was replayed against one store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreReport {
    /// Backend label of the store that served the workload.
    pub backend: &'static str,
    /// Morton-prefix shards the index ran over (1 = unsharded; the digest
    /// is shard-count-invariant).
    pub shards: usize,
    /// Batches per traffic class: (insert, delete, knn, range, derived).
    pub ops: (usize, usize, usize, usize, usize),
    /// Order-sensitive digest over every response (ids and counts;
    /// typed errors fold in as a tag, so two stores agree only if they
    /// also failed identically).
    pub digest: u64,
    /// Requests that returned a typed error (degenerate live sets).
    pub errors: u64,
    /// Live points after the final operation.
    pub final_live: usize,
    /// Memo-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Live points per Morton-prefix shard at the end of the run
    /// (single-element when unsharded); sums to `final_live`, and the
    /// spread across entries is the router's balance diagnostic.
    pub shard_live: Vec<usize>,
}

fn to_request<const D: usize>(op: &WorkloadOp<D>) -> Request<D> {
    match op {
        WorkloadOp::Insert(batch) => Request::Insert(batch.clone()),
        WorkloadOp::Delete(batch) => Request::Delete(batch.clone()),
        WorkloadOp::Knn(queries, k) => Request::Knn {
            queries: queries.clone(),
            k: *k,
        },
        WorkloadOp::Range(boxes) => Request::Range(boxes.clone()),
        WorkloadOp::Derived(d) => match d {
            DerivedOp::Hull => Request::Hull,
            DerivedOp::Seb => Request::Seb,
            DerivedOp::ClosestPair => Request::ClosestPair,
            DerivedOp::Emst => Request::Emst,
            DerivedOp::KnnGraph(k) => Request::KnnGraph { k: *k },
            DerivedOp::DelaunayGraph => Request::DelaunayGraph,
        },
    }
}

/// Replays `workload` against `store`, returning the answer digest, op
/// counts and cache counters. The store is mutated in place (callers
/// pass a fresh one per run).
pub fn run_store_workload<const D: usize>(
    store: &mut GeoStore<D>,
    workload: &Workload<D>,
) -> StoreReport {
    let mut r = StoreReport {
        backend: store.backend().label(),
        shards: store.shard_count(),
        ..StoreReport::default()
    };
    let resp = store.run(Request::Insert(workload.initial.clone()));
    r.digest = fold(r.digest, &resp, &mut r.errors);

    for op in &workload.ops {
        let req = to_request(op);
        match &req {
            Request::Insert(_) => r.ops.0 += 1,
            Request::Delete(_) => r.ops.1 += 1,
            Request::Knn { .. } => r.ops.2 += 1,
            Request::Range(_) => r.ops.3 += 1,
            _ => r.ops.4 += 1,
        }
        let resp = store.run(req);
        r.digest = fold(r.digest, &resp, &mut r.errors);
    }
    r.final_live = store.len();
    r.cache = store.stats().cache;
    r.shard_live = store.shard_snapshots().iter().map(|s| s.live).collect();
    r
}

fn fold<const D: usize>(digest: u64, resp: &GeoResult<Response<D>>, errors: &mut u64) -> u64 {
    if resp.is_err() {
        *errors += 1;
    }
    crate::request::fold_response_digest(digest, resp)
}

//! The typed request/response surface of the store.
//!
//! Every capability of the library — batched index updates, batched
//! spatial queries, and whole-dataset derived structures — is one variant
//! of [`Request`]; the store answers each with the matching [`Response`]
//! variant or a typed [`GeoError`]. Keeping the surface a plain enum
//! (rather than one method per algorithm) is what lets a *mixed* batch
//! travel through the epoch planner as data.

use pargeo_closestpair::ClosestPair;
use pargeo_engine::Snapshot;
use pargeo_geometry::{Ball, Bbox, GeoError, GeoResult, Point};
use pargeo_kdtree::Neighbor;
use pargeo_parlay::mix64 as mix;
use pargeo_wspd::EmstEdge;

/// A derived structure computed over the whole live point set.
///
/// Derived structures are memoized per write epoch: asking twice without
/// an intervening write returns the cached value; any insert or delete
/// invalidates all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerivedKind {
    /// Convex hull vertices (2D: CCW order; 3D: sorted ascending).
    Hull,
    /// Smallest enclosing ball.
    Seb,
    /// Closest pair of live points.
    ClosestPair,
    /// Euclidean minimum spanning tree.
    Emst,
    /// Directed k-nearest-neighbor graph with this `k`.
    KnnGraph(usize),
    /// Delaunay edge graph (2D only).
    DelaunayGraph,
}

impl DerivedKind {
    /// Short label for reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            DerivedKind::Hull => "hull",
            DerivedKind::Seb => "seb",
            DerivedKind::ClosestPair => "closest-pair",
            DerivedKind::Emst => "emst",
            DerivedKind::KnnGraph(_) => "knn-graph",
            DerivedKind::DelaunayGraph => "delaunay-graph",
        }
    }
}

/// One request to a [`GeoStore`](crate::GeoStore).
#[derive(Debug, Clone)]
pub enum Request<const D: usize> {
    /// Insert a batch of points; they receive consecutive store ids. A
    /// batch carrying a NaN or ±∞ coordinate is refused whole with
    /// [`GeoError::BadParameter`]:
    /// nothing of it is inserted, it takes no ids and no epoch, and the
    /// other requests of its run are applied as if it were absent.
    Insert(Vec<Point<D>>),
    /// Delete every live point whose coordinates match a batch point (a
    /// NaN coordinate matches nothing).
    Delete(Vec<Point<D>>),
    /// The `k` nearest live neighbors of every query point.
    Knn {
        /// Query points (answered data-parallel over the batch). A NaN or
        /// ±∞ coordinate anywhere in the batch answers the whole request
        /// [`GeoError::BadParameter`].
        queries: Vec<Point<D>>,
        /// Neighbors per query; must be positive and must not exceed the
        /// live point count.
        k: usize,
    },
    /// Ids of the live points inside every query box (boundary inclusive;
    /// a box with a NaN bound contains nothing).
    Range(Vec<Bbox<D>>),
    /// Convex hull of the live set (`D ∈ {2, 3}`).
    Hull,
    /// Smallest enclosing ball of the live set.
    Seb,
    /// Closest pair of the live set.
    ClosestPair,
    /// Euclidean minimum spanning tree of the live set.
    Emst,
    /// Directed k-NN graph of the live set.
    KnnGraph {
        /// Neighbors per vertex; must be positive and below the live
        /// point count (each vertex excludes itself).
        k: usize,
    },
    /// Delaunay edge graph of the live set (`D = 2`).
    DelaunayGraph,
    /// Point-in-time store statistics (a read; never invalidates caches).
    Stats,
}

impl<const D: usize> Request<D> {
    /// The derived structure this request asks for, if any.
    pub fn derived_kind(&self) -> Option<DerivedKind> {
        match self {
            Request::Hull => Some(DerivedKind::Hull),
            Request::Seb => Some(DerivedKind::Seb),
            Request::ClosestPair => Some(DerivedKind::ClosestPair),
            Request::Emst => Some(DerivedKind::Emst),
            Request::KnnGraph { k } => Some(DerivedKind::KnnGraph(*k)),
            Request::DelaunayGraph => Some(DerivedKind::DelaunayGraph),
            _ => None,
        }
    }
}

/// The k-NN argument check of the store and of its pinned snapshots: `k`
/// must be positive and must not exceed the `live` point count, and every
/// query coordinate must be finite — a NaN or ±∞ query has no k nearest
/// neighbours to report, so it is refused here, at the boundary, rather
/// than answered with a short or arbitrary row.
pub(crate) fn check_knn<const D: usize>(
    queries: &[Point<D>],
    k: usize,
    live: usize,
) -> GeoResult<()> {
    if k == 0 {
        return Err(GeoError::BadParameter {
            op: "knn",
            what: "k must be positive",
        });
    }
    if k > live {
        return Err(GeoError::KTooLarge {
            op: "knn",
            k,
            n: live,
        });
    }
    if !queries.iter().all(Point::is_finite) {
        return Err(GeoError::BadParameter {
            op: "knn",
            what: "non-finite coordinate",
        });
    }
    Ok(())
}

/// Cache effectiveness counters (monotone over the store's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Derived-structure requests answered from the memo cache.
    pub hits: u64,
    /// Derived-structure requests that had to (re)compute — the sum of
    /// fresh computes, incremental applies, and rebuild fallbacks.
    pub misses: u64,
    /// Coalesced write runs that changed nothing in the live set (empty
    /// batches, deletes matching no live point) and therefore spared the
    /// write epoch and the memo cache instead of invalidating them.
    pub spared: u64,
    /// Misses answered by a delta engine applying the epochs' deletes and
    /// inserts to the previous structure instead of recomputing.
    pub incremental: u64,
    /// Misses where a previous structure existed but had to be recomputed
    /// wholesale (a lost anchor, or an engine that failed or panicked).
    pub rebuilds: u64,
}

/// Which path produced the memoized derived value of the current epoch.
///
/// Reported by [`GeoStore::derived_path`](crate::GeoStore::derived_path);
/// the per-path totals live in [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoPath {
    /// Computed from scratch with no prior structure for this kind.
    Fresh,
    /// A live delta engine applied the deletes and inserts in place.
    Incremental,
    /// A prior structure existed but was recomputed wholesale (a lost
    /// anchor, or an engine that failed or panicked).
    Rebuilt,
}

impl MemoPath {
    /// Short label for reports and benches.
    pub fn label(self) -> &'static str {
        match self {
            MemoPath::Fresh => "fresh",
            MemoPath::Incremental => "incremental",
            MemoPath::Rebuilt => "rebuilt",
        }
    }
}

/// Point-in-time view of a store, answered by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// The backing index's epoch statistics.
    pub snapshot: Snapshot,
    /// Write epochs applied by the store's planner (each coalesced write
    /// batch is one epoch; memoized structures are valid for exactly one).
    pub write_epoch: u64,
    /// Memo-cache effectiveness so far.
    pub cache: CacheStats,
}

/// The answer to one [`Request`], variant-matched to it.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<const D: usize> {
    /// Points accepted by an `Insert`, with the first id assigned.
    Inserted {
        /// Number of points inserted.
        count: usize,
        /// Store id of the first point of the batch (consecutive ids
        /// follow); `None` for an empty batch.
        first_id: Option<u32>,
    },
    /// Number of live points removed by a `Delete`.
    Deleted {
        /// Points removed (all live copies of every matched value).
        count: usize,
    },
    /// One row per query, each ascending by `(distance², id)`.
    Knn(Vec<Vec<Neighbor>>),
    /// One row of sorted live ids per query box.
    Range(Vec<Vec<u32>>),
    /// Hull vertex ids — CCW order in 2D, sorted ascending in 3D.
    Hull(Vec<u32>),
    /// Smallest enclosing ball of the live set.
    Seb(Ball<D>),
    /// Closest pair, with `a`/`b` being store ids (`a < b`).
    ClosestPair(ClosestPair),
    /// EMST edges over store ids.
    Emst(Vec<EmstEdge>),
    /// Directed k-NN graph edges over store ids.
    KnnGraph(Vec<(u32, u32)>),
    /// Delaunay edges over store ids.
    DelaunayGraph(Vec<(u32, u32)>),
    /// Store statistics.
    Stats(StoreStats),
}

impl<const D: usize> Response<D> {
    /// Folds the response's *discrete* content (counts, ids, edges) into an
    /// order-sensitive digest. Floating-point payloads (distances, ball
    /// centers) are excluded so the digest is bit-stable across thread
    /// counts; id-level agreement is what the cross-backend anchors assert.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        match self {
            Response::Inserted { count, first_id } => {
                h = mix(h, *count as u64);
                h = mix(h, first_id.map_or(u64::MAX, |i| i as u64));
            }
            Response::Deleted { count } => h = mix(h, *count as u64),
            Response::Knn(rows) => {
                for row in rows {
                    for n in row {
                        h = mix(h, n.id as u64);
                    }
                }
            }
            Response::Range(rows) => {
                for row in rows {
                    for id in row {
                        h = mix(h, *id as u64);
                    }
                }
            }
            Response::Hull(ids) => {
                for id in ids {
                    h = mix(h, *id as u64);
                }
            }
            Response::Seb(_) => h = mix(h, 0x5EB),
            Response::ClosestPair(cp) => {
                h = mix(h, cp.a as u64);
                h = mix(h, cp.b as u64);
            }
            Response::Emst(edges) => {
                for e in edges {
                    h = mix(h, (e.u as u64) << 32 | e.v as u64);
                }
            }
            Response::KnnGraph(edges) | Response::DelaunayGraph(edges) => {
                for (u, v) in edges {
                    h = mix(h, (*u as u64) << 32 | *v as u64);
                }
            }
            Response::Stats(s) => h = mix(h, s.snapshot.live as u64),
        }
        h
    }
}

/// Folds one response (or typed error, as a tag) into a running digest.
pub fn fold_response_digest<const D: usize>(
    h: u64,
    response: &Result<Response<D>, pargeo_geometry::GeoError>,
) -> u64 {
    match response {
        Ok(resp) => resp.fold_digest(h),
        Err(_) => mix(h, 0xE770_u64),
    }
}

/// Order-sensitive digest over a whole response stream (errors fold in as
/// a tag so two streams only agree when they fail identically too).
pub fn digest_responses<const D: usize>(
    responses: &[Result<Response<D>, pargeo_geometry::GeoError>],
) -> u64 {
    responses.iter().fold(0, fold_response_digest)
}

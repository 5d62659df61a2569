//! # pargeo-store — GeoStore, the service façade over every ParGeo module
//!
//! ParGeo's design claim is one library surface spanning trees,
//! computational-geometry kernels, and spatial-graph generators. This
//! crate turns that surface into a *service*: a [`GeoStore`] owns a
//! batch-dynamic index — the BDL-tree, its one copy of the points — and
//! serves batched **mixed** traffic — index updates, spatial queries, and
//! whole-dataset derived structures — through one typed
//! [`Request`]/[`Response`] pair.
//!
//! * [`GeoStore`] — built via
//!   [`GeoStore::builder()`](GeoStore::builder)`.shards(..).threads(..)`;
//!   it serves from `pargeo-engine`'s `SpatialIndex` over the paper's
//!   BDL-tree, and [`Backend::Oracle`] swaps in the brute-force reference
//!   that answers the same requests identically.
//! * [`Request`] / [`Response`] — `Insert`, `Delete`, `Knn`, `Range`,
//!   `Hull`, `Seb`, `ClosestPair`, `Emst`, `KnnGraph`, `DelaunayGraph`,
//!   `Stats`. Every algorithm runs through its crate's non-panicking
//!   `try_*` path, so degenerate input (empty store, `k > n`, collinear
//!   2D hulls, coplanar 3D hulls, unsupported dimensions) comes back as a
//!   typed [`GeoError`](pargeo_geometry::GeoError) instead of a panic.
//! * **Epoch planner** — [`GeoStore::execute`] walks a mixed batch once:
//!   adjacent same-kind writes coalesce into single index batches (one
//!   write epoch each) and each maximal run of reads is answered
//!   data-parallel via `pargeo-parlay` from a [`StoreSnapshot`] pinned at
//!   its epoch — the same snapshot [`GeoStore::pin`] hands a caller.
//! * **Sharded execution** — [`GeoStore::builder()`](GeoStore::builder)`.shards(S)`
//!   routes the index through `pargeo-engine`'s morton-prefix
//!   `ShardedIndex`: each coalesced write batch becomes per-shard
//!   sub-batches applied in parallel across shards, reads fan out only to
//!   the shards whose region can contribute, and answers stay
//!   bit-identical to the unsharded store at any shard count.
//! * **Memoization with delta maintenance** — derived structures (hull,
//!   EMST, Delaunay, …) are cached in a map of the current write epoch's
//!   responses: repeated reads between writes are free, and any write
//!   that changes the live set clears it. No-op writes (empty batches,
//!   deletes matching nothing live) spare the cache instead. The 2D
//!   Delaunay graph, the one maintained kind, goes further: across write
//!   epochs its delta engine removes the deleted points from the existing
//!   triangulation and inserts the appended ones instead of recomputing —
//!   with answers bit-identical to a fresh compute.
//!   [`CacheStats`] reports hits, misses, spared epochs, incremental
//!   applies, and rebuild fallbacks; [`GeoStore::derived_path`] names
//!   the path ([`MemoPath`]) that produced the current value.
//! * [`run_store_workload`] — replays a `pargeo-datagen`
//!   [`Workload`](pargeo_datagen::Workload) (including its
//!   derived-structure ops) against a store and digests every answer, the
//!   anchor the differential suites assert against the oracle store.
//!
//! ```
//! use pargeo_store::{GeoStore, Request, Response};
//! use pargeo_datagen::uniform_cube;
//!
//! let pts = uniform_cube::<2>(1_000, 7);
//! let mut store: GeoStore<2> = GeoStore::builder().build();
//! store.insert(&pts);
//!
//! // One typed surface for index queries and derived structures alike.
//! let hull = store.hull().unwrap();
//! assert!(hull.len() >= 3);
//! let knn = store.knn(&pts[..4], 3).unwrap();
//! assert_eq!(knn.len(), 4);
//!
//! // A second hull between writes is a cache hit …
//! let again = store.hull().unwrap();
//! assert_eq!(hull, again);
//! assert_eq!(store.stats().cache.hits, 1);
//!
//! // … and a write invalidates it.
//! store.delete(&pts[..100]);
//! let fresh = store.hull().unwrap();
//! assert!(fresh.iter().all(|&id| id >= 100));
//! ```

#![warn(missing_docs)]

mod derived;
pub mod driver;
mod obs;
mod pipeline;
pub mod request;
pub mod store;

pub use driver::{run_store_workload, StoreReport};
pub use pargeo_obs::{HistSummary, ObsLevel, Registry};
pub use pipeline::StoreSnapshot;
pub use request::{
    digest_responses, fold_response_digest, CacheStats, DerivedKind, MemoPath, Request, Response,
    StoreStats,
};
pub use store::{Backend, GeoStore, GeoStoreBuilder};

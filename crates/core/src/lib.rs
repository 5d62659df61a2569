//! # ParGeo-rs — a library for parallel computational geometry
//!
//! A Rust reproduction of *"ParGeo: A Library for Parallel Computational
//! Geometry"* (Wang, Yesantharao, Yu, Dhulipala, Gu, Shun — PPoPP 2022).
//! This facade crate re-exports every module; see `DESIGN.md` for the full
//! system inventory and `EXPERIMENTS.md` for the paper-figure
//! reproductions.
//!
//! ## Modules (paper Figure 1)
//!
//! | Paper module | Here |
//! |---|---|
//! | (0) service façade: one typed `Request`/`Response` surface over everything | [`store`] |
//! | (1) static & batch-dynamic kd-trees, k-NN, range search | [`kdtree`], [`bdltree`] |
//! | (1a) unified batch-dynamic engine (`SpatialIndex` over the BDL-tree, its Zd-tree comparator and the oracle) | [`engine`] |
//! | (2) computational geometry: hull, SEB, closest pair, BCCP, WSPD, Morton sort | [`hull`], [`seb`], [`closestpair`], [`wspd`], [`morton`] |
//! | (3) spatial graph generators: k-NN graph, β-skeleton, Gabriel, Delaunay, EMST, spanner | [`graphgen`], [`delaunay`], [`wspd`] |
//! | (4) point data generators | [`datagen`] |
//! | — parallel primitives (ParlayLib's role) | [`parlay`] |
//! | — geometry kernel with exact predicates | [`geometry`] |
//! | — observability: metrics registry, spans, latency histograms | [`obs`] |
//!
//! ## Quickstart — the GeoStore façade
//!
//! Every capability below is also reachable through [`store::GeoStore`]:
//! one object owns the point set plus a batch-dynamic index (the paper's
//! BDL-tree) and serves *mixed* batched traffic — updates, spatial queries, and
//! whole-dataset derived structures — through one typed
//! [`Request`](store::Request)/[`Response`](store::Response) surface.
//!
//! ```
//! use pargeo::prelude::*;
//!
//! // 10k uniform points in a square (paper's U distribution).
//! let pts = pargeo::datagen::uniform_cube::<2>(10_000, 42);
//!
//! // Build a store (it serves from the BDL-tree) and load it.
//! let mut store: GeoStore<2> = GeoStore::builder().build();
//! assert_eq!(store.backend(), Backend::Bdl);
//! store.insert(&pts);
//!
//! // Batched spatial queries …
//! let nn = store.knn(&pts[..5], 8).unwrap();
//! assert_eq!(nn.len(), 5);
//!
//! // … and whole-dataset derived structures through the same surface.
//! let hull = store.hull().unwrap();
//! assert!(hull.len() >= 3);
//! let ball = store.seb().unwrap();
//! assert!(pts.iter().all(|p| ball.contains(p)));
//! let mst = store.emst().unwrap();
//! assert_eq!(mst.len(), pts.len() - 1);
//!
//! // Mixed batches travel through the epoch planner: adjacent writes
//! // coalesce into one index batch, reads fan out data-parallel, and
//! // derived structures memoize per write epoch.
//! let responses = store.execute(&[
//!     Request::Delete(pts[..100].to_vec()),
//!     Request::Hull,
//!     Request::ClosestPair,
//!     Request::Stats,
//! ]);
//! assert!(responses.iter().all(|r| r.is_ok()));
//!
//! // Shard the spatial core: `.shards(S)` routes the index
//! // through a morton-prefix `ShardedIndex` — write batches apply in
//! // parallel across shards, reads fan out only to shards that can
//! // contribute, and answers are bit-identical to the unsharded store.
//! let mut sharded: GeoStore<2> = GeoStore::builder().shards(8).build();
//! sharded.insert(&pts);
//! assert_eq!(sharded.shard_count(), 8);
//! assert_eq!(sharded.knn(&pts[..5], 8).unwrap(), nn);
//!
//! // Observe the serve path: `.observe(..)` gives the store a metrics
//! // registry — per-request-class latency histograms, memo-path
//! // counters, per-shard routing counters — rendered as Prometheus text
//! // or JSON. Off (the default) records nothing; answers are
//! // bit-identical at every level.
//! let mut observed: GeoStore<2> = GeoStore::builder()
//!     .shards(4)
//!     .observe(ObsLevel::Metrics)
//!     .build();
//! observed.insert(&pts);
//! assert_eq!(observed.knn(&pts[..5], 8).unwrap(), nn);
//! let registry = observed.registry().unwrap();
//! assert!(registry.render_prometheus().contains("geostore_requests_total"));
//! assert!(registry.render_json().starts_with('{'));
//!
//! // Degenerate input is a typed error, never a panic.
//! let mut empty: GeoStore<2> = GeoStore::builder().build();
//! assert_eq!(empty.hull(), Err(GeoError::EmptyInput { op: "hull2d" }));
//! assert_eq!(
//!     empty.knn(&pts[..1], 3),
//!     Err(GeoError::KTooLarge { op: "knn", k: 3, n: 0 })
//! );
//! ```
//!
//! The per-crate surfaces stay available for direct use:
//!
//! ```
//! use pargeo::prelude::*;
//!
//! let pts = pargeo::datagen::uniform_cube::<2>(10_000, 42);
//!
//! // Convex hull: the default entry point runs the family's fastest
//! // member; any other is one `try_hull2d_with` away.
//! let hull = try_hull2d(&pts).unwrap();
//! assert_eq!(Ok(hull), pargeo::hull::try_hull2d_with(&pts, hull2d_randinc));
//!
//! // k-nearest neighbors through a parallel kd-tree.
//! let tree = KdTree::build(&pts, SplitRule::ObjectMedian);
//! let nn = tree.knn(&pts[0], 5);
//! assert_eq!(nn.len(), 5);
//!
//! // Smallest enclosing ball via the sampling-based algorithm.
//! let ball = pargeo::seb::seb_sampling(&pts);
//! assert!(pts.iter().all(|p| ball.contains(p)));
//!
//! // Batched orthogonal range search, data-parallel over the queries.
//! let boxes = pargeo::datagen::uniform_rects::<2>(100, 7, 0.2);
//! let hits = tree.range_box_batch(&boxes);
//! assert_eq!(hits[0].len(), tree.count_box(&boxes[0]));
//! ```
//!
//! ## Module quickstarts
//!
//! **Build a tree** (Module 1) — every spatial index accepts batched
//! updates and batched queries through one [`engine::SpatialIndex`] trait,
//! so backends are interchangeable:
//!
//! ```
//! use pargeo::prelude::*;
//!
//! let pts = pargeo::datagen::uniform_cube::<3>(2_000, 7);
//! // The serving tree, its §6.3 comparator and the oracle: one API.
//! let mut backends: Vec<Box<dyn SpatialIndex<3>>> = vec![
//!     Box::new(BdlTree::new()),
//!     Box::new(ZdTree::new()),
//!     Box::new(VecIndex::new()),
//! ];
//! for b in &mut backends {
//!     b.insert(&pts[..1_500]);
//!     assert_eq!(b.delete(&pts[..500]), 500);
//!     b.insert(&pts[1_500..]);
//!     let s = b.snapshot();
//!     assert_eq!((s.live, s.inserted, s.deleted), (1_500, 2_000, 500));
//! }
//! // All three serve identical k-NN answers (same neighbor ids, same
//! // order — the deterministic (distance², id) contract).
//! let answers: Vec<Vec<Vec<u32>>> = backends
//!     .iter()
//!     .map(|b| {
//!         b.knn_batch(&pts[500..510], 3)
//!             .into_iter()
//!             .map(|row| row.into_iter().map(|n| n.id).collect())
//!             .collect()
//!     })
//!     .collect();
//! assert_eq!(answers[0], answers[1]);
//! assert_eq!(answers[1], answers[2]);
//! ```
//!
//! **Convex hull** (Module 2) — the 2D methods return the same index
//! vector (counterclockwise from the lexicographically smallest point),
//! the 3D methods the same sorted vertex set in general position;
//! `try_hull2d` / `try_hull3d` run the measured winners (parallel
//! quickhull behind its interior-box filter; pseudohull culling):
//!
//! ```
//! use pargeo::prelude::*;
//!
//! let pts = pargeo::datagen::on_sphere::<2>(2_000, 3);
//! let h = try_hull2d(&pts).unwrap();
//! assert_eq!(h, hull2d_randinc(&pts));
//! assert_eq!(h, hull2d_divide_conquer(&pts));
//!
//! let pts = pargeo::datagen::in_sphere::<3>(2_000, 3);
//! let h = try_hull3d(&pts).unwrap();
//! assert_eq!(h.vertices, hull3d_randinc(&pts).vertices);
//! ```
//!
//! **Spatial graphs** (Module 3) — k-NN graph and Delaunay triangulation
//! over the same point set:
//!
//! ```
//! use pargeo::prelude::*;
//!
//! let pts = pargeo::datagen::uniform_cube::<2>(500, 5);
//! // Directed k-NN graph: one edge per (point, neighbor) pair.
//! let g = knn_graph(&pts, 4);
//! assert_eq!(g.len(), 500 * 4);
//! // Delaunay triangulation and its edge graph.
//! let tri = delaunay(&pts);
//! let edges = pargeo::delaunay::delaunay_edges(&tri);
//! assert!(edges.len() >= 500); // ≤ 3n - 6, ≥ n for random points
//! ```
//!
//! **Data and workload generation** (Module 4) — deterministic point
//! families plus mixed batch-dynamic operation streams:
//!
//! ```
//! use pargeo::prelude::*;
//!
//! let spec = WorkloadSpec::new("demo", Distribution::InSphere, 1_000, 10);
//! let w: Workload<2> = spec.generate();
//! assert_eq!(w.initial.len(), 1_000);
//! assert_eq!(w.ops.len(), 10);
//! // Replay it on a backend and on the brute-force oracle: identical
//! // answer digests prove the backend served every query correctly.
//! let mut tree = BdlTree::<2>::new();
//! let mut oracle = VecIndex::<2>::new();
//! let a = run_workload(&mut tree, &w);
//! let b = run_workload(&mut oracle, &w);
//! assert_eq!(a.digest(), b.digest());
//! ```
//!
//! ## Parallelism
//!
//! Every algorithm parallelizes through [`parlay`] — fork-join and a
//! small loop family whose grain is the caller's argument — on the
//! work-stealing [`sched`] pool of the calling thread. To measure scaling
//! (the paper's `T1` / `T36h` sweeps), run any closure under a fixed-size
//! pool:
//!
//! ```
//! let t1 = pargeo::parlay::with_threads(1, || {
//!     let pts = pargeo::datagen::uniform_cube::<2>(50_000, 7);
//!     pargeo::hull::hull2d_divide_conquer(&pts).len()
//! });
//! assert!(t1 >= 3);
//! ```

pub use pargeo_bdltree as bdltree;
pub use pargeo_closestpair as closestpair;
pub use pargeo_datagen as datagen;
pub use pargeo_delaunay as delaunay;
pub use pargeo_engine as engine;
pub use pargeo_geometry as geometry;
pub use pargeo_graphgen as graphgen;
pub use pargeo_hull as hull;
pub use pargeo_kdtree as kdtree;
pub use pargeo_morton as morton;
pub use pargeo_obs as obs;
pub use pargeo_parlay as parlay;
pub use pargeo_sched as sched;
pub use pargeo_seb as seb;
pub use pargeo_store as store;
pub use pargeo_wspd as wspd;

/// The most commonly used types and functions in one import.
pub mod prelude {
    pub use pargeo_bdltree::BdlTree;
    pub use pargeo_closestpair::{closest_pair, try_closest_pair, ClosestPair};
    pub use pargeo_datagen::{DerivedOp, Distribution, Workload, WorkloadOp, WorkloadSpec};
    pub use pargeo_delaunay::{
        delaunay, delaunay_edges, gabriel_graph, try_delaunay, DelaunayBatchOutcome,
        DelaunayIncremental,
    };
    pub use pargeo_engine::{
        run_workload, ShardedIndex, Snapshot, SpatialIndex, VecIndex, WorkloadReport,
    };
    pub use pargeo_geometry::{Ball, Bbox, GeoError, GeoResult, Point, Point2, Point3};
    pub use pargeo_graphgen::{beta_skeleton, knn_graph};
    pub use pargeo_hull::{
        hull2d_divide_conquer, hull2d_quickhull_parallel, hull2d_randinc, hull2d_seq,
        hull3d_divide_conquer, hull3d_pseudo, hull3d_quickhull_parallel, hull3d_randinc,
        hull3d_seq, try_hull2d, try_hull3d, Hull2dIncremental, Hull3d, HullBatchOutcome,
    };
    pub use pargeo_kdtree::{B1Tree, B2Tree, KdTree, LevelTree, SplitRule, ZdTree};
    pub use pargeo_obs::{HistSummary, ObsLevel, Registry};
    pub use pargeo_seb::{
        seb_orthant_scan, seb_sampling, seb_welzl_parallel, seb_welzl_parallel_mtf_pivot,
        seb_welzl_seq, try_seb,
    };
    pub use pargeo_store::{
        run_store_workload, Backend, CacheStats, DerivedKind, GeoStore, GeoStoreBuilder, MemoPath,
        Request, Response, StoreReport, StoreSnapshot, StoreStats,
    };
    pub use pargeo_wspd::{bccp_points, emst, spanner, wspd, EmstEdge};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything() {
        let pts = crate::datagen::uniform_cube::<2>(2_000, 1);
        let hull = hull2d_seq(&pts);
        assert!(hull.len() >= 3);
        let ball = seb_welzl_seq(&pts);
        assert!(pts.iter().all(|p| ball.contains(p)));
        let cp = closest_pair(&pts);
        assert!(cp.dist > 0.0);
        let tree = KdTree::build(&pts, SplitRule::ObjectMedian);
        assert_eq!(tree.knn(&pts[0], 3).len(), 3);
        let mst = emst(&pts);
        assert_eq!(mst.len(), pts.len() - 1);
        assert_eq!(tree.count_box(&Bbox::from_points(&pts)), pts.len());
    }
}

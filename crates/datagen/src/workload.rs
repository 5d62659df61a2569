//! Mixed-workload generators for the batch-dynamic engine.
//!
//! A [`WorkloadSpec`] describes a stream of batched operations — inserts,
//! value-deletes, k-NN query batches, and orthogonal range query batches —
//! over one of the paper's point distributions, with two serving-style
//! twists the static figures never exercise:
//!
//! * **sliding-window churn** — deletes target the *oldest* live points
//!   (FIFO expiry), the telemetry/robotics pattern where data ages out;
//! * **query hotspots** — a configurable fraction of queries concentrates
//!   in a small subregion, the skew real read traffic shows.
//!
//! [`WorkloadSpec::generate`] expands the spec into a concrete, fully
//! deterministic [`Workload`] (same seed ⇒ same ops, regardless of thread
//! count), which `pargeo-engine`'s driver replays against any
//! `SpatialIndex` backend. [`WorkloadSpec::presets`] names the standard
//! scenario set the engine's differential suites replay.

use crate::SeedSpreaderParams;
use crate::{cube_side, in_sphere, on_cube, on_sphere, seed_spreader, uniform_cube};
use pargeo_geometry::{Bbox, Point};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// The point-data families of the paper's evaluation (§6 "Data Sets"),
/// selectable per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// **U** — uniform in a hypercube ([`uniform_cube`]).
    UniformCube,
    /// **IS** — uniform inside a hypersphere ([`in_sphere`]).
    InSphere,
    /// **OS** — on a hypersphere shell ([`on_sphere`]).
    OnSphere,
    /// **OC** — on the hypercube surface ([`on_cube`]).
    OnCube,
    /// **V** — Gan–Tao seed-spreader clusters ([`seed_spreader`]).
    SeedSpreader,
}

impl Distribution {
    /// Generates `n` points of this family with the given seed.
    pub fn points<const D: usize>(self, n: usize, seed: u64) -> Vec<Point<D>> {
        match self {
            Distribution::UniformCube => uniform_cube(n, seed),
            Distribution::InSphere => in_sphere(n, seed),
            Distribution::OnSphere => on_sphere(n, seed),
            Distribution::OnCube => on_cube(n, seed),
            Distribution::SeedSpreader => seed_spreader(n, seed, SeedSpreaderParams::default()),
        }
    }

    /// Short label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            Distribution::UniformCube => "U",
            Distribution::InSphere => "IS",
            Distribution::OnSphere => "OS",
            Distribution::OnCube => "OC",
            Distribution::SeedSpreader => "V",
        }
    }
}

/// How the query half of a workload splits between k-NN and range search.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Fraction of query batches that are k-NN (the rest are range).
    pub knn_frac: f64,
    /// `k` for the k-NN batches.
    pub k: usize,
    /// Range-query box side, as a fraction of the domain side.
    pub range_extent: f64,
}

impl Default for QueryMix {
    fn default() -> Self {
        Self {
            knn_frac: 0.5,
            k: 8,
            range_extent: 0.05,
        }
    }
}

/// A whole-dataset derived structure requested by a workload — the
/// analytics half of mixed serving traffic, executed by `pargeo-store`'s
/// `GeoStore` (the engine's index-only driver skips them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerivedOp {
    /// Convex hull of the live set.
    Hull,
    /// Smallest enclosing ball of the live set.
    Seb,
    /// Closest pair of the live set.
    ClosestPair,
    /// Euclidean minimum spanning tree of the live set.
    Emst,
    /// Directed k-NN graph with this `k`.
    KnnGraph(usize),
    /// Delaunay edge graph (2D point sets only).
    DelaunayGraph,
}

/// A skewed read region: a sub-box of the domain that attracts a fixed
/// fraction of all queries.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    /// Fraction of queries drawn from the hotspot region.
    pub frac: f64,
    /// Hotspot side length as a fraction of the domain side.
    pub extent: f64,
}

/// Declarative description of a mixed batch-dynamic workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Scenario name (used in bench tables and reports).
    pub name: String,
    /// Initial bulk-load size (inserted as one batch before the op stream).
    pub initial: usize,
    /// Number of operation batches after the initial load.
    pub batches: usize,
    /// Points (or queries) per batch.
    pub batch_size: usize,
    /// Probability that a batch is an insert.
    pub insert_frac: f64,
    /// Probability that a batch is a delete (`insert_frac + delete_frac ≤
    /// 1`; the remainder are query batches).
    pub delete_frac: f64,
    /// Point-data family for inserts.
    pub dist: Distribution,
    /// Query-side composition.
    pub query: QueryMix,
    /// Fraction of query batches that request a whole-dataset derived
    /// structure (hull, SEB, closest pair, EMST, k-NN graph, Delaunay)
    /// instead of point queries. The analytics share of mixed traffic;
    /// `0.0` (the default) reproduces the index-only streams.
    pub derived_frac: f64,
    /// When true, deletes expire the oldest live points (FIFO) instead of
    /// uniformly random victims.
    pub sliding_window: bool,
    /// Optional query-skew region.
    pub hotspot: Option<Hotspot>,
    /// Optional *write*-skew region: after the initial load (which keeps
    /// the base distribution, so a store's routing universe still spans
    /// the full domain), this fraction of op-stream insert points is
    /// squeezed into a small sub-box — the "hot shard" pattern where one
    /// spatial region absorbs most write traffic. `None` (the default)
    /// leaves every stream bit-identical to the pre-skew generator.
    pub write_hotspot: Option<Hotspot>,
    /// Master seed; everything derives deterministically from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A balanced default spec over the given distribution: half queries,
    /// 30% inserts, 20% random deletes.
    pub fn new(name: &str, dist: Distribution, initial: usize, batches: usize) -> Self {
        Self {
            name: name.to_string(),
            initial,
            batches,
            batch_size: (initial / batches.max(1)).max(1),
            insert_frac: 0.3,
            delete_frac: 0.2,
            dist,
            query: QueryMix::default(),
            derived_frac: 0.0,
            sliding_window: false,
            hotspot: None,
            write_hotspot: None,
            seed: 42,
        }
    }

    /// The named scenario set the engine suites replay, scaled so the
    /// initial load is `n/2` points and the op stream touches about `n`
    /// more.
    pub fn presets(n: usize) -> Vec<WorkloadSpec> {
        let initial = (n / 2).max(64);
        let batches = 20;
        let mut uniform =
            WorkloadSpec::new("uniform-mixed", Distribution::UniformCube, initial, batches);
        uniform.seed = 101;

        let mut insert_heavy =
            WorkloadSpec::new("insert-heavy-IS", Distribution::InSphere, initial, batches);
        insert_heavy.insert_frac = 0.7;
        insert_heavy.delete_frac = 0.1;
        insert_heavy.seed = 102;

        let mut window = WorkloadSpec::new(
            "sliding-window",
            Distribution::UniformCube,
            initial,
            batches,
        );
        window.insert_frac = 0.4;
        window.delete_frac = 0.4;
        window.sliding_window = true;
        window.seed = 103;

        let mut hotspot = WorkloadSpec::new("hotspot-read", Distribution::OnCube, initial, batches);
        hotspot.insert_frac = 0.1;
        hotspot.delete_frac = 0.1;
        hotspot.hotspot = Some(Hotspot {
            frac: 0.9,
            extent: 0.05,
        });
        hotspot.seed = 104;

        let mut spreader = WorkloadSpec::new(
            "seed-spreader-churn",
            Distribution::SeedSpreader,
            initial,
            batches,
        );
        spreader.insert_frac = 0.4;
        spreader.delete_frac = 0.3;
        spreader.seed = 105;

        vec![uniform, insert_heavy, window, hotspot, spreader]
    }

    /// The named scenario set the store suites replay: the engine's
    /// serving axes plus a derived-structure (analytics) share, so the
    /// store's planner and memo cache see realistic mixed traffic.
    pub fn store_presets(n: usize) -> Vec<WorkloadSpec> {
        let initial = (n / 2).max(64);
        let batches = 24;

        let mut mixed =
            WorkloadSpec::new("mixed-serving", Distribution::UniformCube, initial, batches);
        mixed.derived_frac = 0.25;
        mixed.seed = 201;

        let mut analytics =
            WorkloadSpec::new("analytics-heavy", Distribution::InSphere, initial, batches);
        analytics.insert_frac = 0.15;
        analytics.delete_frac = 0.05;
        analytics.derived_frac = 0.7;
        analytics.seed = 202;

        let mut churn = WorkloadSpec::new(
            "churn-analytics",
            Distribution::UniformCube,
            initial,
            batches,
        );
        churn.insert_frac = 0.35;
        churn.delete_frac = 0.35;
        churn.sliding_window = true;
        churn.derived_frac = 0.5;
        churn.seed = 203;

        let mut hotspot =
            WorkloadSpec::new("hotspot-serving", Distribution::OnCube, initial, batches);
        hotspot.insert_frac = 0.1;
        hotspot.delete_frac = 0.1;
        hotspot.derived_frac = 0.15;
        hotspot.hotspot = Some(Hotspot {
            frac: 0.9,
            extent: 0.05,
        });
        hotspot.seed = 204;

        let mut spreader = WorkloadSpec::new(
            "spreader-analytics",
            Distribution::SeedSpreader,
            initial,
            batches,
        );
        spreader.insert_frac = 0.3;
        spreader.delete_frac = 0.25;
        spreader.derived_frac = 0.35;
        spreader.seed = 205;

        // The sharding stressor: most op-stream inserts (and most reads)
        // pile onto one tiny region, so one shard absorbs the write
        // traffic while the initial load keeps the full domain populated.
        let mut hot_shard =
            WorkloadSpec::new("hotspot-shard", Distribution::UniformCube, initial, batches);
        hot_shard.insert_frac = 0.45;
        hot_shard.delete_frac = 0.15;
        hot_shard.derived_frac = 0.35;
        hot_shard.write_hotspot = Some(Hotspot {
            frac: 0.85,
            extent: 0.05,
        });
        hot_shard.hotspot = Some(Hotspot {
            frac: 0.8,
            extent: 0.08,
        });
        hot_shard.seed = 253;

        vec![mixed, analytics, churn, hotspot, spreader, hot_shard]
    }

    /// Expands the spec into a concrete operation stream.
    ///
    /// Deterministic in `seed` and independent of thread count. Panics if
    /// `insert_frac + delete_frac > 1` or either is negative.
    pub fn generate<const D: usize>(&self) -> Workload<D> {
        assert!(self.insert_frac >= 0.0 && self.delete_frac >= 0.0);
        assert!(self.insert_frac + self.delete_frac <= 1.0 + 1e-12);
        let pool_size = self.initial + self.batches * self.batch_size;
        let pool = self.dist.points::<D>(pool_size, self.seed);
        let side = cube_side(pool_size);
        let domain = Bbox::from_points(&pool);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Hotspot regions: random sub-boxes of the domain. The query box
        // is drawn first, then (only when write skew is requested, so
        // skew-free streams stay bit-identical) the write box.
        let hot_box = self.hotspot.map(|h| sub_box(&mut rng, &domain, h.extent));
        let write_box = self
            .write_hotspot
            .map(|h| sub_box(&mut rng, &domain, h.extent));

        let mut cursor = 0usize; // next fresh pool point
        let mut live: VecDeque<Point<D>> = VecDeque::new();
        let take = |cursor: &mut usize, want: usize| -> Vec<Point<D>> {
            let got = want.min(pool_size - *cursor);
            let batch = pool[*cursor..*cursor + got].to_vec();
            *cursor += got;
            batch
        };

        // The initial load keeps the base distribution even under write
        // skew: it spans the full domain, so an index universe derived
        // from it covers the op stream's hotspot too.
        let initial = take(&mut cursor, self.initial);
        live.extend(initial.iter().copied());
        let mut ops: Vec<WorkloadOp<D>> = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let r: f64 = rng.gen();
            if r < self.insert_frac && cursor < pool_size {
                let mut batch = take(&mut cursor, self.batch_size);
                if let (Some(wb), Some(h)) = (write_box, self.write_hotspot) {
                    // Squeeze this fraction of fresh points into the hot
                    // box (an affine map — distinct points stay distinct,
                    // so delete-by-value semantics are unchanged).
                    for p in batch.iter_mut() {
                        if rng.gen::<f64>() < h.frac {
                            for d in 0..D {
                                let side = (domain.max[d] - domain.min[d]).max(f64::MIN_POSITIVE);
                                let t = (p[d] - domain.min[d]) / side;
                                p[d] = wb.min[d] + t * (wb.max[d] - wb.min[d]);
                            }
                        }
                    }
                }
                live.extend(batch.iter().copied());
                ops.push(WorkloadOp::Insert(batch));
            } else if r < self.insert_frac + self.delete_frac && !live.is_empty() {
                let want = self.batch_size.min(live.len());
                let batch: Vec<Point<D>> = if self.sliding_window {
                    live.drain(..want).collect()
                } else {
                    (0..want)
                        .map(|_| {
                            let i = rng.gen_range(0..live.len());
                            live.swap_remove_back(i).unwrap()
                        })
                        .collect()
                };
                ops.push(WorkloadOp::Delete(batch));
            } else if self.derived_frac > 0.0 && rng.gen::<f64>() < self.derived_frac {
                let palette = [
                    DerivedOp::Hull,
                    DerivedOp::Seb,
                    DerivedOp::ClosestPair,
                    DerivedOp::Emst,
                    DerivedOp::KnnGraph(self.query.k.max(1)),
                    DerivedOp::DelaunayGraph,
                ];
                ops.push(WorkloadOp::Derived(
                    palette[rng.gen_range(0..palette.len())],
                ));
            } else {
                let centers: Vec<Point<D>> = (0..self.batch_size)
                    .map(|_| {
                        let region = match (hot_box, self.hotspot) {
                            (Some(hb), Some(h)) if rng.gen::<f64>() < h.frac => hb,
                            _ => domain,
                        };
                        let mut c = [0.0; D];
                        for d in 0..D {
                            c[d] =
                                region.min[d] + rng.gen::<f64>() * (region.max[d] - region.min[d]);
                        }
                        Point::new(c)
                    })
                    .collect();
                if rng.gen::<f64>() < self.query.knn_frac {
                    ops.push(WorkloadOp::Knn(centers, self.query.k.max(1)));
                } else {
                    let half = 0.5 * self.query.range_extent * side;
                    let boxes = centers
                        .into_iter()
                        .map(|c| {
                            let mut lo = [0.0; D];
                            let mut hi = [0.0; D];
                            for d in 0..D {
                                lo[d] = c[d] - half;
                                hi[d] = c[d] + half;
                            }
                            Bbox {
                                min: Point::new(lo),
                                max: Point::new(hi),
                            }
                        })
                        .collect();
                    ops.push(WorkloadOp::Range(boxes));
                }
            }
        }
        Workload { initial, ops }
    }
}

/// A random `extent`-sided sub-box of the domain (one `gen` per
/// dimension — the draw order every pre-existing stream depends on).
fn sub_box<const D: usize>(rng: &mut ChaCha8Rng, domain: &Bbox<D>, extent: f64) -> Bbox<D> {
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    for d in 0..D {
        let side = (domain.max[d] - domain.min[d]) * extent;
        let lo = domain.min[d] + rng.gen::<f64>() * (domain.max[d] - domain.min[d] - side).max(0.0);
        min[d] = lo;
        max[d] = lo + side;
    }
    Bbox {
        min: Point::new(min),
        max: Point::new(max),
    }
}

/// One batched operation of a generated workload.
#[derive(Debug, Clone)]
pub enum WorkloadOp<const D: usize> {
    /// Insert this batch of fresh points.
    Insert(Vec<Point<D>>),
    /// Delete these points by value.
    Delete(Vec<Point<D>>),
    /// Answer a k-NN batch (`queries`, `k`).
    Knn(Vec<Point<D>>, usize),
    /// Answer an orthogonal range-report batch.
    Range(Vec<Bbox<D>>),
    /// Compute a whole-dataset derived structure over the live set
    /// (served by `pargeo-store`; index-only drivers skip it).
    Derived(DerivedOp),
}

/// A concrete, replayable operation stream produced by
/// [`WorkloadSpec::generate`].
#[derive(Debug, Clone)]
pub struct Workload<const D: usize> {
    /// Bulk load applied before the op stream.
    pub initial: Vec<Point<D>>,
    /// The operation batches, in order.
    pub ops: Vec<WorkloadOp<D>>,
}

impl<const D: usize> Workload<D> {
    /// Counts of (insert, delete, knn, range) batches in the stream
    /// (derived-structure batches are counted by [`derived_count`][d]).
    ///
    /// [d]: Workload::derived_count
    pub fn op_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for op in &self.ops {
            match op {
                WorkloadOp::Insert(_) => c.0 += 1,
                WorkloadOp::Delete(_) => c.1 += 1,
                WorkloadOp::Knn(..) => c.2 += 1,
                WorkloadOp::Range(_) => c.3 += 1,
                WorkloadOp::Derived(_) => {}
            }
        }
        c
    }

    /// Number of derived-structure batches in the stream.
    pub fn derived_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Derived(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::new("t", Distribution::UniformCube, 1_000, 30);
        s.seed = 7;
        s
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Workload<2> = spec().generate();
        let b: Workload<2> = spec().generate();
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            match (x, y) {
                (WorkloadOp::Insert(p), WorkloadOp::Insert(q)) => assert_eq!(p, q),
                (WorkloadOp::Delete(p), WorkloadOp::Delete(q)) => assert_eq!(p, q),
                (WorkloadOp::Knn(p, k), WorkloadOp::Knn(q, l)) => {
                    assert_eq!(p, q);
                    assert_eq!(k, l);
                }
                (WorkloadOp::Range(p), WorkloadOp::Range(q)) => assert_eq!(p, q),
                _ => panic!("op kind mismatch"),
            }
        }
        let mut c = spec();
        c.seed = 8;
        let w: Workload<2> = c.generate();
        assert_ne!(w.initial, a.initial);
    }

    #[test]
    fn deletes_only_target_live_points() {
        // Replay the stream against a multiset; every delete victim must be
        // currently live.
        let mut s = spec();
        s.delete_frac = 0.4;
        let w: Workload<2> = s.generate();
        let mut live: std::collections::HashMap<[u64; 2], usize> = std::collections::HashMap::new();
        let key = |p: &Point<2>| [p[0].to_bits(), p[1].to_bits()];
        for p in &w.initial {
            *live.entry(key(p)).or_insert(0) += 1;
        }
        for op in &w.ops {
            match op {
                WorkloadOp::Insert(batch) => {
                    for p in batch {
                        *live.entry(key(p)).or_insert(0) += 1;
                    }
                }
                WorkloadOp::Delete(batch) => {
                    for p in batch {
                        let c = live.get_mut(&key(p)).expect("delete of non-live point");
                        *c -= 1;
                        if *c == 0 {
                            live.remove(&key(p));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn sliding_window_deletes_oldest_first() {
        let mut s = spec();
        s.sliding_window = true;
        s.insert_frac = 0.0;
        s.delete_frac = 1.0;
        let w: Workload<2> = s.generate();
        // With only deletes, victims must replay the initial load in order.
        let mut expect = w.initial.iter();
        for op in &w.ops {
            if let WorkloadOp::Delete(batch) = op {
                for p in batch {
                    assert_eq!(Some(p), expect.next());
                }
            }
        }
    }

    #[test]
    fn hotspot_queries_concentrate() {
        let mut s = spec();
        s.insert_frac = 0.0;
        s.delete_frac = 0.0;
        s.query.knn_frac = 1.0;
        s.hotspot = Some(Hotspot {
            frac: 1.0,
            extent: 0.05,
        });
        let w: Workload<2> = s.generate();
        let (_, _, knn, _) = w.op_counts();
        assert_eq!(knn, 30);
        // All query points land in one tiny box: their bbox is small.
        let mut all = Vec::new();
        for op in &w.ops {
            if let WorkloadOp::Knn(qs, _) = op {
                all.extend(qs.iter().copied());
            }
        }
        let bb = Bbox::from_points(&all);
        let side = cube_side(1_000 + 30 * (1_000 / 30));
        for d in 0..2 {
            assert!(bb.max[d] - bb.min[d] <= 0.06 * side, "hotspot too wide");
        }
    }

    #[test]
    fn derived_ops_are_deterministic_and_opt_in() {
        // Default spec: no analytics traffic, bit-identical to the pre-
        // derived-op streams.
        let w: Workload<2> = spec().generate();
        assert_eq!(w.derived_count(), 0);

        let mut s = spec();
        s.insert_frac = 0.2;
        s.delete_frac = 0.2;
        s.derived_frac = 0.6;
        let a: Workload<2> = s.generate();
        let b: Workload<2> = s.generate();
        assert!(a.derived_count() > 0);
        assert_eq!(a.derived_count(), b.derived_count());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            if let (WorkloadOp::Derived(p), WorkloadOp::Derived(q)) = (x, y) {
                assert_eq!(p, q);
            }
        }
    }

    #[test]
    fn store_presets_cover_the_analytics_axes() {
        let ps = WorkloadSpec::store_presets(10_000);
        assert_eq!(ps.len(), 6);
        assert!(ps.iter().all(|p| p.derived_frac > 0.0));
        assert!(ps.iter().any(|p| p.sliding_window));
        assert!(ps.iter().any(|p| p.hotspot.is_some()));
        assert!(ps.iter().any(|p| p.write_hotspot.is_some()));
        assert!(ps.iter().any(|p| p.dist == Distribution::SeedSpreader));
        for p in &ps {
            let w: Workload<2> = p.generate();
            assert_eq!(w.initial.len(), 5_000);
            assert!(w.derived_count() > 0, "{}: no analytics ops", p.name);
        }
    }

    #[test]
    fn write_hotspot_concentrates_op_inserts_but_not_the_initial_load() {
        let mut s = spec();
        s.insert_frac = 1.0;
        s.delete_frac = 0.0;
        s.write_hotspot = Some(Hotspot {
            frac: 1.0,
            extent: 0.05,
        });
        let w: Workload<2> = s.generate();
        let mut op_inserts = Vec::new();
        for op in &w.ops {
            if let WorkloadOp::Insert(batch) = op {
                op_inserts.extend(batch.iter().copied());
            }
        }
        assert!(!op_inserts.is_empty());
        let domain = Bbox::from_points(&w.initial);
        let hot = Bbox::from_points(&op_inserts);
        for d in 0..2 {
            // All op-stream inserts squeeze into ≤ 6% of the domain side;
            // the initial load still spans it.
            assert!(
                hot.max[d] - hot.min[d] <= 0.06 * (domain.max[d] - domain.min[d]),
                "write hotspot too wide in dim {d}"
            );
        }
        // Deterministic, and distinctness survives the affine squeeze
        // (delete-by-value semantics rely on it).
        let again: Workload<2> = s.generate();
        for (x, y) in w.ops.iter().zip(&again.ops) {
            if let (WorkloadOp::Insert(p), WorkloadOp::Insert(q)) = (x, y) {
                assert_eq!(p, q);
            }
        }
        let mut keys: Vec<[u64; 2]> = op_inserts.iter().map(|p| p.bits_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), op_inserts.len(), "squeeze collided points");
    }

    #[test]
    fn presets_cover_the_scenario_axes() {
        let ps = WorkloadSpec::presets(10_000);
        assert_eq!(ps.len(), 5);
        assert!(ps.iter().any(|p| p.sliding_window));
        assert!(ps.iter().any(|p| p.hotspot.is_some()));
        assert!(ps.iter().any(|p| p.dist == Distribution::SeedSpreader));
        for p in &ps {
            let w: Workload<2> = p.generate();
            assert_eq!(w.initial.len(), 5_000);
            assert_eq!(w.ops.len(), 20);
        }
    }
}

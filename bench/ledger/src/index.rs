//! `index-batch`: the tree layers the store stands on, with no router,
//! mirror or planner. A static 2D `KdTree` (build, k-NN over every point,
//! range reports) and a bare 5D `BdlTree` driven through `SpatialIndex`
//! in Table 1's batch-dynamic shape: construct half, ten inserts of 5%,
//! queries, ten deletes of 5% oldest first, queries.

use crate::common::{secs_of, Cfg, Metrics, Outcome};
use crate::gen::{fold_boxes, fold_points, query_boxes, query_points, sub_seed, Rng};
use crate::rec::{Class, Rec, RepTimes};
use pargeo::datagen::{cube_side, uniform_cube};
use pargeo::kdtree::{knn_brute_force, Neighbor};
use pargeo::parlay::mix64;
use pargeo::prelude::{Bbox, BdlTree, KdTree, Point, Point2, SpatialIndex, SplitRule, VecIndex};

const NAME: &str = "index-batch";

/// Recorded sizes.
pub const KD_N: usize = 200_000;
pub const KD_RANGE_Q: usize = 40_000;
pub const BDL_N: usize = 200_000;
pub const BDL_Q: usize = 20_000;
const K: usize = 5;
/// Update batches per direction, each `BDL_N / 20` points (5%).
const BATCHES: usize = 10;

pub fn sizes_json(cfg: &Cfg) -> String {
    format!(
        "{{\"kd_n\": {}, \"kd_range_q\": {}, \"bdl_n\": {}, \"bdl_q\": {}, \"k\": {K}, \"update_batches\": {BATCHES}}}",
        cfg.size(KD_N),
        cfg.size(KD_RANGE_Q),
        cfg.size(BDL_N),
        cfg.size(BDL_Q)
    )
}

/// Everything generated for one repetition.
pub struct Inputs {
    kd_pts: Vec<Point2>,
    kd_boxes: Vec<Bbox<2>>,
    bdl_pts: Vec<Point<5>>,
    bdl_knn_a: Vec<Point<5>>,
    bdl_boxes: Vec<Bbox<5>>,
    bdl_knn_b: Vec<Point<5>>,
    digest: u64,
}

pub fn inputs(cfg: &Cfg, rec: &mut Rec) -> Inputs {
    let (kd_n, bdl_n) = (cfg.size(KD_N), cfg.size(BDL_N).max(2 * BATCHES * 2));
    let kd_pts = rec.generate(kd_n, || {
        uniform_cube::<2>(kd_n, sub_seed(cfg.seed, NAME, 1))
    });
    let bdl_pts = rec.generate(bdl_n, || {
        uniform_cube::<5>(bdl_n, sub_seed(cfg.seed, NAME, 2))
    });
    rec.setup("bench.build_queries", || {
        let mut rng = Rng::new(cfg.seed, 0x1d8);
        let q = cfg.size(BDL_Q);
        let kd_boxes = query_boxes::<2>(&mut rng, cfg.size(KD_RANGE_Q), cube_side(kd_n), 0.01);
        let bdl_knn_a = query_points::<5>(&mut rng, q, cube_side(bdl_n));
        let bdl_boxes = query_boxes::<5>(&mut rng, q, cube_side(bdl_n), 0.2);
        let bdl_knn_b = query_points::<5>(&mut rng, q, cube_side(bdl_n));
        let mut digest = fold_points(fold_points(0, &kd_pts), &bdl_pts);
        digest = fold_boxes(digest, &kd_boxes);
        digest = fold_points(digest, &bdl_knn_a);
        digest = fold_boxes(digest, &bdl_boxes);
        digest = fold_points(digest, &bdl_knn_b);
        Inputs {
            kd_pts,
            kd_boxes,
            bdl_pts,
            bdl_knn_a,
            bdl_boxes,
            bdl_knn_b,
            digest,
        }
    })
}

fn fold_knn(h: u64, rows: &[Vec<Neighbor>]) -> u64 {
    rows.iter()
        .flatten()
        .fold(mix64(h, rows.len() as u64), |h, n| mix64(h, n.id as u64))
}

fn fold_range(h: u64, rows: &[Vec<u32>]) -> u64 {
    rows.iter()
        .flatten()
        .fold(mix64(h, rows.len() as u64), |h, &id| mix64(h, id as u64))
}

fn expect_rows<T>(
    out: &mut Outcome,
    what: &str,
    rows: &[Vec<T>],
    queries: usize,
    k: Option<usize>,
) {
    out.attempted += queries as u64;
    if rows.len() != queries {
        out.fail(format!("{what}: {} rows for {queries} queries", rows.len()));
    } else if let Some(k) = k {
        let short = rows.iter().filter(|r| r.len() != k).count();
        if short > 0 {
            out.failed += short as u64 - 1;
            out.fail(format!("{what}: {short} rows without {k} neighbors"));
        }
    }
}

/// Query batches are issued in this many calls each: a caller's batches are
/// bounded, and the run's noise filter (the fastest execution of each call)
/// works per call.
const QUERY_CALLS: usize = 10;

fn chunks_of<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    items.chunks(items.len().div_ceil(QUERY_CALLS).max(1))
}

/// Facts about the built structures the per-layer metrics need.
#[derive(Default)]
pub struct Facts {
    pub kd_arena_bytes_per_pt: f64,
    pub bdl_arena_bytes_per_pt: f64,
    pub bdl_rebuilds: u64,
}

/// The batch-dynamic half against any `SpatialIndex` (the `BdlTree` under
/// test, or the `VecIndex` oracle for the twin).
fn dynamic_half(
    index: &mut dyn SpatialIndex<5>,
    inp: &Inputs,
    rec: &mut Rec,
    out: &mut Outcome,
    facts: &mut Facts,
) {
    let n = inp.bdl_pts.len();
    let half = n / 2;
    let step = (n - half) / BATCHES;
    rec.call(Class::Write, "bdltree.construct", || {
        index.insert(&inp.bdl_pts[..half])
    });
    out.attempted += 1;
    for b in 0..BATCHES {
        let batch = &inp.bdl_pts[half + b * step..half + (b + 1) * step];
        rec.call(Class::Write, "bdltree.insert", || index.insert(batch));
        out.attempted += 1;
    }
    let live = half + BATCHES * step;
    if index.len() != live {
        out.fail(format!(
            "bdl holds {} points after inserts, want {live}",
            index.len()
        ));
    }
    let snap = index.snapshot();
    facts.bdl_arena_bytes_per_pt = snap.arena_bytes as f64 / live as f64;

    bdl_knn(index, &inp.bdl_knn_a, rec, out);
    for boxes in chunks_of(&inp.bdl_boxes) {
        let rows = rec.call(Class::Read, "bdltree.range_batch", || {
            index.range_batch(boxes)
        });
        expect_rows(out, "bdl range", &rows, boxes.len(), None);
        out.digest = rec.check(|| fold_range(out.digest, &rows));
    }

    for b in 0..BATCHES {
        let batch = &inp.bdl_pts[b * step..(b + 1) * step];
        let removed = rec.call(Class::Write, "bdltree.delete", || index.delete(batch));
        out.attempted += 1;
        if removed != batch.len() {
            out.fail(format!("bdl delete removed {removed} of {}", batch.len()));
        }
    }
    bdl_knn(index, &inp.bdl_knn_b, rec, out);
    facts.bdl_rebuilds = index.snapshot().rebuilds;
}

fn bdl_knn(index: &dyn SpatialIndex<5>, queries: &[Point<5>], rec: &mut Rec, out: &mut Outcome) {
    for queries in chunks_of(queries) {
        let rows = rec.call(Class::Read, "bdltree.knn_batch", || {
            index.knn_batch(queries, K)
        });
        expect_rows(out, "bdl knn", &rows, queries.len(), Some(K));
        out.digest = rec.check(|| fold_knn(out.digest, &rows));
    }
}

/// One repetition: generate (set-up), then the timed stream.
pub fn rep(cfg: &Cfg, rec: &mut Rec) -> (Outcome, RepTimes, Facts) {
    rec.begin_rep();
    let inp = inputs(cfg, rec);
    let mut out = Outcome {
        stream_digest: inp.digest,
        ..Outcome::default()
    };
    let mut facts = Facts::default();
    rec.start_timed();

    let tree = rec.call(Class::Write, "kdtree.build", || {
        KdTree::build(&inp.kd_pts, SplitRule::ObjectMedian)
    });
    out.attempted += 1;
    facts.kd_arena_bytes_per_pt = tree.arena_bytes() as f64 / inp.kd_pts.len() as f64;
    for queries in chunks_of(&inp.kd_pts) {
        let rows = rec.call(Class::Read, "kdtree.knn_batch", || {
            tree.knn_batch(queries, K)
        });
        expect_rows(&mut out, "kd knn", &rows, queries.len(), Some(K));
        out.digest = rec.check(|| fold_knn(out.digest, &rows));
    }
    for boxes in chunks_of(&inp.kd_boxes) {
        let rows = rec.call(Class::Read, "kdtree.range_batch", || {
            tree.range_box_batch(boxes)
        });
        expect_rows(&mut out, "kd range", &rows, boxes.len(), None);
        out.digest = rec.check(|| fold_range(out.digest, &rows));
    }
    rec.check(|| drop(tree));

    let mut bdl = BdlTree::<5>::new();
    dynamic_half(&mut bdl, &inp, rec, &mut out, &mut facts);
    rec.check(|| drop(bdl));
    (out, rec.finish_rep(), facts)
}

/// The twin: a tenth of the sizes, the kd-tree checked against brute force
/// and the `BdlTree` against the `VecIndex` oracle, answer for answer.
pub fn verify(cfg: &Cfg) -> Outcome {
    let mut rec = Rec::new(false);
    let inp = inputs(cfg, &mut rec);
    let mut out = Outcome::default();

    let tree = KdTree::build(&inp.kd_pts, SplitRule::ObjectMedian);
    let sample = &inp.kd_pts[..inp.kd_pts.len().min(200)];
    let rows = tree.knn_batch(sample, K);
    for (q, row) in sample.iter().zip(&rows) {
        out.attempted += 1;
        let want = knn_brute_force(&inp.kd_pts, q, K);
        if row.iter().map(|n| n.id).ne(want.iter().map(|n| n.id)) {
            out.fail("kd-tree k-NN row differs from brute force".into());
        }
    }
    let oracle2 = VecIndex::<2>::from_points(&inp.kd_pts);
    let boxes = &inp.kd_boxes[..inp.kd_boxes.len().min(500)];
    out.attempted += boxes.len() as u64;
    if tree.range_box_batch(boxes) != oracle2.range_batch(boxes) {
        out.fail("kd-tree range rows differ from the oracle".into());
    }

    let (mut got, mut want) = (Outcome::default(), Outcome::default());
    let mut facts = Facts::default();
    dynamic_half(
        &mut BdlTree::<5>::new(),
        &inp,
        &mut rec,
        &mut got,
        &mut facts,
    );
    dynamic_half(
        &mut VecIndex::<5>::new(),
        &inp,
        &mut rec,
        &mut want,
        &mut facts,
    );
    out.absorb(&got);
    out.failed += want.failed;
    if got.digest != want.digest {
        out.fail(format!(
            "BdlTree digest {:016x} differs from the oracle's {:016x}",
            got.digest, want.digest
        ));
    }
    out
}

/// Per-layer metrics from the traced run's merged repetitions, plus the
/// Morton-sort probe on the workload's 2D data.
pub fn layer_metrics(cfg: &Cfg, t: &RepTimes, facts: &Facts, m: &mut Metrics) {
    let kq = |count: usize, secs: f64| {
        if secs > 0.0 {
            count as f64 / 1e3 / secs
        } else {
            0.0
        }
    };
    let kd_n = cfg.size(KD_N);
    let bdl_n = cfg.size(BDL_N);
    let q = cfg.size(BDL_Q);
    let step = (bdl_n - bdl_n / 2) / BATCHES;
    m.insert("kdtree.build_s", (t.named_s("kdtree.build"), "s"));
    m.insert(
        "kdtree.knn_kq_per_s",
        (kq(kd_n, t.named_s("kdtree.knn_batch")), "kq/s"),
    );
    m.insert(
        "kdtree.range_kq_per_s",
        (
            kq(cfg.size(KD_RANGE_Q), t.named_s("kdtree.range_batch")),
            "kq/s",
        ),
    );
    m.insert(
        "kdtree.arena_bytes_per_pt",
        (facts.kd_arena_bytes_per_pt, "B/pt"),
    );
    m.insert("bdltree.construct_s", (t.named_s("bdltree.construct"), "s"));
    let mpts = |secs: f64| {
        if secs > 0.0 {
            (BATCHES * step) as f64 / 1e6 / secs
        } else {
            0.0
        }
    };
    m.insert(
        "bdltree.insert_mpts_per_s",
        (mpts(t.named_s("bdltree.insert")), "Mpts/s"),
    );
    m.insert(
        "bdltree.delete_mpts_per_s",
        (mpts(t.named_s("bdltree.delete")), "Mpts/s"),
    );
    m.insert(
        "bdltree.knn_kq_per_s",
        (kq(2 * q, t.named_s("bdltree.knn_batch")), "kq/s"),
    );
    m.insert(
        "bdltree.range_kq_per_s",
        (kq(q, t.named_s("bdltree.range_batch")), "kq/s"),
    );
    m.insert("bdltree.rebuilds", (facts.bdl_rebuilds as f64, "count"));
    m.insert(
        "bdltree.arena_bytes_per_pt",
        (facts.bdl_arena_bytes_per_pt, "B/pt"),
    );

    let mut pts = uniform_cube::<2>(kd_n, sub_seed(cfg.seed, NAME, 1));
    let secs = secs_of(|| {
        std::hint::black_box(pargeo::morton::morton_sort(&mut pts));
    });
    m.insert(
        "morton.sort_mpts_per_s",
        (kd_n as f64 / 1e6 / secs, "Mpts/s"),
    );
}

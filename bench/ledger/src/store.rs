//! The four `GeoStore` workloads. Each is a frozen stream — a prefill plus
//! windows of `execute` batches — replayed through a store configuration
//! (the workload's own, or a shadow used by the traced run to attribute
//! time to the layers beneath the store).
//!
//! The data is one `uniform_cube` stream: prefill takes its head, every
//! insert takes the next points and every delete removes the oldest, so the
//! live set is always the contiguous slice `all[lo..hi]` and store ids equal
//! stream positions. That is what lets the run check ids exactly and lets
//! the traced run call the kernels directly on the same live set.

use crate::common::{rss_mb, secs_of, Cfg, Metrics, Outcome, Threads};
use crate::gen::{fold_boxes, fold_points, query_boxes, query_points, sub_seed, Rng};
use crate::rec::{Class, Rec, RepTimes};
use pargeo::closestpair::try_closest_pair;
use pargeo::datagen::{cube_side, uniform_cube};
use pargeo::delaunay::DelaunayIncremental;
use pargeo::hull::{try_hull2d, Hull2dIncremental};
use pargeo::obs::ObsLevel;
use pargeo::parlay::mix64;
use pargeo::prelude::{
    Backend, BdlTree, CacheStats, GeoResult, GeoStore, Point2, Request, Response, SpatialIndex,
};
use pargeo::seb::try_seb;
use pargeo::store::fold_response_digest;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    Churn,
    Analytics,
    Pinned,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Serve => "store-serve",
            Kind::Churn => "store-churn",
            Kind::Analytics => "store-analytics",
            Kind::Pinned => "store-pinned",
        }
    }
}

/// Recorded shape of one store workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Points prefilled before the timed section, in `chunk`-point inserts.
    pub n: usize,
    pub chunk: usize,
    pub windows: usize,
    /// Points per insert and per delete request.
    pub write: usize,
    /// Queries per k-NN request and boxes per range request.
    pub knn_q: usize,
    pub range_q: usize,
    pub k: usize,
}

impl Shape {
    pub fn of(kind: Kind, cfg: &Cfg) -> Shape {
        let full = match kind {
            Kind::Serve => Shape {
                n: 400_000,
                chunk: 40_000,
                windows: 40,
                write: 1_000,
                knn_q: 250,
                range_q: 250,
                k: 8,
            },
            Kind::Churn => Shape {
                n: 400_000,
                chunk: 40_000,
                windows: 16,
                write: 10_000,
                knn_q: 100,
                range_q: 0,
                k: 8,
            },
            Kind::Analytics => Shape {
                n: 30_000,
                chunk: 30_000,
                windows: 10,
                write: 500,
                knn_q: 0,
                range_q: 0,
                k: 5,
            },
            Kind::Pinned => Shape {
                n: 300_000,
                chunk: 30_000,
                windows: 60,
                write: 125,
                knn_q: 40,
                range_q: 40,
                k: 8,
            },
        };
        let s = |v: usize| if v == 0 { 0 } else { cfg.size(v) };
        Shape {
            n: s(full.n).max(64),
            chunk: s(full.chunk).max(64),
            write: s(full.write),
            knn_q: s(full.knn_q),
            range_q: s(full.range_q),
            ..full
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"chunk\": {}, \"windows\": {}, \"write\": {}, \"knn_q\": {}, \"range_q\": {}, \"k\": {}}}",
            self.n, self.chunk, self.windows, self.write, self.knn_q, self.range_q, self.k
        )
    }
}

/// Analytics: windows that insert before the two that delete.
const ANALYTICS_INSERT_WINDOWS: usize = 8;
/// Analytics: epochs that also ask for the EMST and the k-NN graph.
const ANALYTICS_HEAVY_EPOCHS: [usize; 2] = [1, 5];
/// Pinned: `[Knn, Insert, Range, Delete]` groups per window.
const PINNED_GROUPS: usize = 4;

/// One `execute` call.
pub struct Batch {
    pub class: Class,
    pub name: &'static str,
    pub requests: Vec<Request<2>>,
}

pub struct Window {
    pub batches: Vec<Batch>,
    /// The live set after this window's writes is `all[lo..hi]`.
    pub lo: usize,
    pub hi: usize,
}

pub struct Stream {
    pub shape: Shape,
    pub all: Vec<Point2>,
    pub prefill: Vec<Request<2>>,
    pub windows: Vec<Window>,
    pub digest: u64,
}

/// Builds the workload's stream: a pure function of `(seed, shape)`.
pub fn stream(kind: Kind, cfg: &Cfg, rec: &mut Rec) -> Stream {
    let shape = Shape::of(kind, cfg);
    let write_requests_per_window = match kind {
        Kind::Pinned => PINNED_GROUPS,
        _ => 1,
    };
    let total = shape.n + shape.windows * write_requests_per_window * shape.write;
    let mut all = rec.generate(total, || {
        uniform_cube::<2>(total, sub_seed(cfg.seed, kind.name(), 1))
    });
    rec.setup("bench.build_requests", || {
        let side = cube_side(total);
        if kind == Kind::Analytics {
            // A point inserted outside the live set's bounding box makes
            // the Delaunay delta engine fall back to a rebuild: with
            // uniform inserts that is a lottery over seeds (0–2 of the 8
            // insert epochs, a tenth of `t1_s` each). Pulled a tenth of the
            // way to the centre, every insert epoch is Incremental; the
            // delete epochs are the Rebuilt ones.
            for p in &mut all[shape.n..] {
                for c in &mut p.coords {
                    *c += 0.1 * (side / 2.0 - *c);
                }
            }
        }
        let mut rng = Rng::new(cfg.seed, kind as u64 + 0x570);
        let mut digest = fold_points(0, &all);
        let prefill = all[..shape.n]
            .chunks(shape.chunk)
            .map(|c| Request::Insert(c.to_vec()))
            .collect();
        let (mut lo, mut hi) = (0usize, shape.n);
        let knn = |rng: &mut Rng, digest: &mut u64| {
            let queries = query_points::<2>(rng, shape.knn_q, side);
            *digest = mix64(fold_points(*digest, &queries), shape.k as u64);
            Request::Knn {
                queries,
                k: shape.k,
            }
        };
        let range = |rng: &mut Rng, digest: &mut u64| {
            let boxes = query_boxes::<2>(rng, shape.range_q, side, 0.01);
            *digest = fold_boxes(*digest, &boxes);
            Request::Range(boxes)
        };
        let mut windows = Vec::with_capacity(shape.windows);
        for w in 0..shape.windows {
            let insert = |hi: &mut usize| {
                let r = Request::Insert(all[*hi..*hi + shape.write].to_vec());
                *hi += shape.write;
                r
            };
            let delete = |lo: &mut usize| {
                let r = Request::Delete(all[*lo..*lo + shape.write].to_vec());
                *lo += shape.write;
                r
            };
            let batches = match kind {
                Kind::Serve => vec![
                    Batch {
                        class: Class::Read,
                        name: "store.execute_read",
                        requests: vec![knn(&mut rng, &mut digest), range(&mut rng, &mut digest)],
                    },
                    Batch {
                        class: Class::Write,
                        name: "store.execute_write",
                        requests: vec![insert(&mut hi), delete(&mut lo)],
                    },
                ],
                Kind::Churn => vec![
                    Batch {
                        class: Class::Write,
                        name: "store.execute_write",
                        requests: vec![insert(&mut hi), delete(&mut lo)],
                    },
                    Batch {
                        class: Class::Read,
                        name: "store.execute_read",
                        requests: vec![knn(&mut rng, &mut digest)],
                    },
                    Batch {
                        class: Class::Derived,
                        name: "store.execute_derived",
                        requests: vec![Request::Seb],
                    },
                ],
                Kind::Analytics => {
                    let write = if w < ANALYTICS_INSERT_WINDOWS {
                        insert(&mut hi)
                    } else {
                        delete(&mut lo)
                    };
                    let mut asks = vec![
                        Request::Hull,
                        Request::DelaunayGraph,
                        Request::Seb,
                        Request::ClosestPair,
                        Request::Hull,
                    ];
                    if ANALYTICS_HEAVY_EPOCHS.contains(&w) {
                        asks.push(Request::Emst);
                        asks.push(Request::KnnGraph { k: shape.k });
                    }
                    vec![
                        Batch {
                            class: Class::Write,
                            name: "store.execute_write",
                            requests: vec![write],
                        },
                        Batch {
                            class: Class::Derived,
                            name: "store.execute_derived",
                            requests: asks,
                        },
                    ]
                }
                Kind::Pinned => {
                    let mut requests = Vec::with_capacity(4 * PINNED_GROUPS);
                    for _ in 0..PINNED_GROUPS {
                        requests.push(knn(&mut rng, &mut digest));
                        requests.push(insert(&mut hi));
                        requests.push(range(&mut rng, &mut digest));
                        requests.push(delete(&mut lo));
                    }
                    vec![Batch {
                        class: Class::Window,
                        name: "store.execute_window",
                        requests,
                    }]
                }
            };
            digest = mix64(mix64(digest, lo as u64), hi as u64);
            windows.push(Window { batches, lo, hi });
        }
        Stream {
            shape,
            all,
            prefill,
            windows,
            digest,
        }
    })
}

/// A store configuration. `None` leaves the builder's default in place, so
/// the default-config workloads measure whatever `builder()` yields.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    pub backend: Option<Backend>,
    pub shards: Option<usize>,
    pub pipeline: Option<bool>,
    pub observe: Option<ObsLevel>,
}

impl Variant {
    /// The configuration the workload is defined on.
    pub fn base(kind: Kind) -> Variant {
        match kind {
            Kind::Pinned => Variant {
                backend: Some(Backend::Bdl),
                pipeline: Some(true),
                ..Variant::default()
            },
            _ => Variant::default(),
        }
    }

    fn build(&self, threads: Threads) -> GeoStore<2> {
        let mut b = GeoStore::<2>::builder();
        if let Some(backend) = self.backend {
            b = b.backend(backend);
        }
        if let Some(shards) = self.shards {
            b = b.shards(shards);
        }
        if let Some(on) = self.pipeline {
            b = b.pipeline(on);
        }
        if let Some(level) = self.observe {
            b = b.observe(level);
        }
        if threads == Threads::One {
            b = b.threads(1);
        }
        b.build()
    }
}

/// What a replay reports besides its timings.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    pub cache: CacheStats,
    pub live: usize,
    pub rss_start_mb: f64,
    pub rss_prefill_mb: f64,
    pub rss_end_mb: f64,
    /// Seconds in the store's own four span scopes (observed replays only):
    /// plan_coalesce, write_apply, read_fanout, derived_memo.
    pub store_span_s: [f64; 4],
    /// Digest of the k-NN and range answers only — comparable between a
    /// store and a bare index replaying the same stream.
    pub read_digest: u64,
    /// Bare-`BdlTree` replays only: median of three `pin()` and one delete
    /// of n/1000 points after the stream.
    pub pin_ms: f64,
    pub small_delete_ms: f64,
}

pub struct Replay {
    pub out: Outcome,
    pub times: RepTimes,
    pub extras: Extras,
}

const STORE_SPANS: [&str; 4] = [
    "plan_coalesce",
    "write_apply",
    "read_fanout",
    "derived_memo",
];

fn fold_reads(h: u64, resp: &Response<2>) -> u64 {
    match resp {
        Response::Knn(_) | Response::Range(_) => resp.fold_digest(h),
        _ => h,
    }
}

/// Checks one `execute`'s responses against what the stream implies and
/// folds them into the digests.
fn check_batch(
    requests: &[Request<2>],
    responses: &[GeoResult<Response<2>>],
    next_id: &mut usize,
    out: &mut Outcome,
    read_digest: &mut u64,
) {
    out.attempted += requests.len() as u64;
    if responses.len() != requests.len() {
        out.fail(format!(
            "{} responses for {} requests",
            responses.len(),
            requests.len()
        ));
        return;
    }
    for (req, resp) in requests.iter().zip(responses) {
        out.digest = fold_response_digest(out.digest, resp);
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{req:.40?} → {e:?}"));
                continue;
            }
        };
        *read_digest = fold_reads(*read_digest, resp);
        let ok = match (req, resp) {
            (Request::Insert(pts), Response::Inserted { count, first_id }) => {
                let ok = *count == pts.len() && *first_id == Some(*next_id as u32);
                *next_id += pts.len();
                ok
            }
            (Request::Delete(pts), Response::Deleted { count }) => *count == pts.len(),
            (Request::Knn { queries, k }, Response::Knn(rows)) => {
                rows.len() == queries.len() && rows.iter().all(|r| r.len() == *k)
            }
            (Request::Range(boxes), Response::Range(rows)) => rows.len() == boxes.len(),
            (Request::Hull, Response::Hull(ids)) => ids.len() >= 3,
            (Request::Seb, Response::Seb(ball)) => ball.radius > 0.0,
            (Request::ClosestPair, Response::ClosestPair(cp)) => cp.a < cp.b,
            (Request::Emst, Response::Emst(edges)) => !edges.is_empty(),
            (Request::KnnGraph { .. }, Response::KnnGraph(edges)) => !edges.is_empty(),
            (Request::DelaunayGraph, Response::DelaunayGraph(edges)) => !edges.is_empty(),
            _ => false,
        };
        if !ok {
            out.fail(format!("{req:.40?}: answer has the wrong shape"));
        }
    }
}

/// One repetition through a store: build the stream and prefill (set-up),
/// then the timed windows.
pub fn rep(kind: Kind, cfg: &Cfg, variant: &Variant, rec: &mut Rec) -> Replay {
    rec.begin_rep();
    let mut extras = Extras {
        rss_start_mb: rss_mb(),
        ..Extras::default()
    };
    let st = stream(kind, cfg, rec);
    let mut out = Outcome {
        stream_digest: st.digest,
        ..Outcome::default()
    };
    let mut next_id = 0usize;
    let mut store = variant.build(cfg.threads);
    for chunk in &st.prefill {
        let resp = rec.setup("store.prefill", || {
            store.execute(std::slice::from_ref(chunk))
        });
        check_batch(
            std::slice::from_ref(chunk),
            &resp,
            &mut next_id,
            &mut out,
            &mut extras.read_digest,
        );
    }
    extras.rss_prefill_mb = rss_mb();

    rec.start_timed();
    for (w, window) in st.windows.iter().enumerate() {
        rec.set_window(w as u32);
        let span = rec.enter("window");
        for batch in &window.batches {
            let resp = rec.call(batch.class, batch.name, || store.execute(&batch.requests));
            rec.check(|| {
                check_batch(
                    &batch.requests,
                    &resp,
                    &mut next_id,
                    &mut out,
                    &mut extras.read_digest,
                )
            });
        }
        rec.exit(span);
    }
    let times = rec.finish_rep();

    extras.rss_end_mb = rss_mb();
    extras.live = store.len();
    extras.cache = store.stats().cache;
    let last = st.windows.last().expect("a stream has windows");
    if extras.live != last.hi - last.lo {
        out.fail(format!(
            "store holds {} live points, stream implies {}",
            extras.live,
            last.hi - last.lo
        ));
    }
    if let Some(reg) = store.registry() {
        for (slot, scope) in STORE_SPANS.into_iter().enumerate() {
            extras.store_span_s[slot] =
                reg.histogram("span_nanos", &[("scope", scope)]).sum() as f64 * 1e-9;
        }
    }
    Replay { out, times, extras }
}

/// Shadow replay: the identical insert/delete/k-NN/range batches applied to
/// a bare `BdlTree` through `SpatialIndex` — no planner, mirror or memo.
/// Derived requests have no counterpart at this layer and are skipped.
pub fn rep_bare(kind: Kind, cfg: &Cfg, rec: &mut Rec) -> Replay {
    rec.begin_rep();
    let st = stream(kind, cfg, rec);
    let mut out = Outcome {
        stream_digest: st.digest,
        ..Outcome::default()
    };
    let mut extras = Extras::default();
    let mut tree = BdlTree::<2>::new();
    let index: &mut dyn SpatialIndex<2> = &mut tree;
    for chunk in &st.prefill {
        if let Request::Insert(pts) = chunk {
            rec.setup("engine.prefill", || index.insert(pts));
        }
    }
    rec.start_timed();
    let requests = st
        .windows
        .iter()
        .flat_map(|w| &w.batches)
        .flat_map(|b| &b.requests);
    for req in requests {
        let answer = match req {
            Request::Insert(pts) => {
                rec.call(Class::Write, "engine.insert", || index.insert(pts));
                None
            }
            Request::Delete(pts) => {
                let removed = rec.call(Class::Write, "engine.delete", || index.delete(pts));
                if removed != pts.len() {
                    out.fail(format!("bare delete removed {removed} of {}", pts.len()));
                }
                None
            }
            Request::Knn { queries, k } => Some(Response::Knn(rec.call(
                Class::Read,
                "engine.knn_batch",
                || index.knn_batch(queries, *k),
            ))),
            Request::Range(boxes) => Some(Response::Range(rec.call(
                Class::Read,
                "engine.range_batch",
                || index.range_batch(boxes),
            ))),
            _ => continue,
        };
        out.attempted += 1;
        if let Some(answer) = answer {
            extras.read_digest = rec.check(|| fold_reads(extras.read_digest, &answer));
        }
    }
    let times = rec.finish_rep();

    // The pin the pipelined store pays per read run, and a small delete, at
    // this workload's n.
    let mut pins: Vec<f64> = (0..3)
        .map(|_| {
            let mut view = None;
            let ms = 1e3 * secs_of(|| view = Some(index.pin()));
            drop(view);
            ms
        })
        .collect();
    pins.sort_by(|a, b| a.total_cmp(b));
    extras.pin_ms = pins[1];
    let last = st.windows.last().expect("a stream has windows");
    let victims = &st.all[last.lo..last.lo + (st.shape.n / 1000).max(1)];
    let mut removed = 0;
    extras.small_delete_ms = 1e3 * secs_of(|| removed = index.delete(victims));
    if removed != victims.len() {
        out.fail(format!(
            "bare small delete removed {removed} of {}",
            victims.len()
        ));
    }
    extras.live = index.len();
    Replay { out, times, extras }
}

/// The twin: the stream at a tenth of the sizes through the workload's own
/// configuration and through `Backend::Oracle`, compared answer digest by
/// answer digest.
pub fn verify(kind: Kind, cfg: &Cfg) -> Outcome {
    let mut rec = Rec::new(false);
    let oracle = Variant {
        backend: Some(Backend::Oracle),
        ..Variant::default()
    };
    let got = rep(kind, cfg, &Variant::base(kind), &mut rec);
    let want = rep(kind, cfg, &oracle, &mut rec);
    let mut out = got.out;
    out.failed += want.out.failed;
    out.notes.extend(want.out.notes.iter().cloned());
    if out.digest != want.out.digest {
        out.fail(format!(
            "answer digest {:016x} differs from the oracle store's {:016x}",
            out.digest, want.out.digest
        ));
    }
    out
}

/// Direct kernel calls on the same live sets the store derived from: the
/// cost of the answers without live view, id remap or memo. Also advances
/// the two incremental engines per insert batch, as the store's memo does.
pub fn direct_derived(kind: Kind, cfg: &Cfg, rec: &mut Rec, m: &mut Metrics) -> f64 {
    let st = stream(kind, cfg, rec);
    let mut direct_s = 0.0;
    let (mut delaunay_s, mut emst_s, mut knn_graph_s) = (0.0, 0.0, 0.0);
    let mut inc_hull_ms = Vec::new();
    let mut inc_del_ms = Vec::new();
    let mut engines: Option<(usize, Hull2dIncremental, DelaunayIncremental)> = None;
    for window in &st.windows {
        let live = &st.all[window.lo..window.hi];
        let asks = window.batches.iter().flat_map(|b| &b.requests);
        let mut seen_hull = false;
        for req in asks {
            let secs = match req {
                Request::Hull if !seen_hull => {
                    seen_hull = true;
                    secs_of(|| {
                        std::hint::black_box(try_hull2d(live).map(|h| h.len()).ok());
                    })
                }
                Request::DelaunayGraph => secs_of(|| {
                    let edges = DelaunayIncremental::try_build(live).and_then(|d| d.edges());
                    std::hint::black_box(edges.map(|e| e.len()).ok());
                }),
                Request::Seb => secs_of(|| {
                    std::hint::black_box(try_seb(live).map(|b| b.radius).ok());
                }),
                Request::ClosestPair => secs_of(|| {
                    std::hint::black_box(try_closest_pair(live).map(|c| c.dist).ok());
                }),
                Request::Emst => secs_of(|| {
                    std::hint::black_box(pargeo::wspd::emst(live).len());
                }),
                Request::KnnGraph { k } => secs_of(|| {
                    std::hint::black_box(pargeo::graphgen::knn_graph(live, *k).len());
                }),
                _ => 0.0,
            };
            direct_s += secs;
            match req {
                Request::DelaunayGraph => delaunay_s += secs,
                Request::Emst => emst_s += secs,
                Request::KnnGraph { .. } => knn_graph_s += secs,
                _ => {}
            }
        }
        if kind == Kind::Analytics {
            match &mut engines {
                Some((lo, hull, del)) if *lo == window.lo => {
                    let consumed = hull.consumed();
                    inc_hull_ms.push(
                        1e3 * secs_of(|| {
                            std::hint::black_box(hull.try_insert_batch(live, 0.5).is_ok());
                        }),
                    );
                    inc_del_ms.push(
                        1e3 * secs_of(|| {
                            std::hint::black_box(
                                del.try_insert_batch(&live[consumed..], 0.5).is_ok(),
                            );
                        }),
                    );
                }
                _ => {
                    engines = Hull2dIncremental::try_build(live)
                        .and_then(|h| Ok((window.lo, h, DelaunayIncremental::try_build(live)?)))
                        .ok();
                }
            }
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    if kind == Kind::Analytics {
        m.insert("delaunay.full_s", (delaunay_s, "s"));
        m.insert("wspd.emst_s", (emst_s, "s"));
        m.insert("graphgen.knn_graph_s", (knn_graph_s, "s"));
        m.insert("hull.inc2d_batch_ms", (median(&mut inc_hull_ms), "ms"));
        m.insert("delaunay.inc_batch_ms", (median(&mut inc_del_ms), "ms"));
    }
    direct_s
}

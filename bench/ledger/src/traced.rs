//! The traced run: three repetitions at T1 (untraced, traced, untraced) for
//! the spans, the class sums and the tracing overhead; one repetition with
//! the pools at `nproc` for `sched.*`; and then the probes that attribute the
//! workload's time to the layers beneath it — all timed from the benchmark's
//! side of each crate's public functions.

use crate::common::{at_one_thread, nproc, secs_of, Cfg, Metrics, Outcome, Threads};
use crate::metrics::PER_LAYER;
use crate::rec::{fastest_calls, Class, Rec, RepTimes};
use crate::store::{self, Kind, Variant};
use crate::{check_anchor, index, kernels, Args, Workload};
use pargeo::obs::ObsLevel;
use pargeo::prelude::Backend;
use pargeo::sched::Pool;

/// Elements of each `parlay` primitive probe.
const PARLAY_N: usize = 2_000_000;
const JOINS: usize = 200_000;
/// Replays of every shadow configuration; like the workload's own
/// repetitions they are merged call by call (`fastest_calls`).
const SHADOW_REPS: usize = 2;

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn class_metrics(times: &RepTimes, m: &mut Metrics) {
    m.insert("write_s", (times.class_s(Class::Write), "s"));
    m.insert("read_s", (times.class_s(Class::Read), "s"));
    m.insert("derived_s", (times.class_s(Class::Derived), "s"));
    m.insert("hull_s", (times.class_s(Class::Hull), "s"));
    m.insert("seb_s", (times.class_s(Class::Seb), "s"));
    m.insert("read_p50_ms", (times.lat_ms(Class::Read, 0.5), "ms"));
    m.insert("write_p50_ms", (times.lat_ms(Class::Write, 0.5), "ms"));
    m.insert("window_p50_ms", (times.lat_ms(Class::Window, 0.5), "ms"));
    m.insert("store.read_p95_ms", (times.lat_ms(Class::Read, 0.95), "ms"));
    m.insert(
        "store.write_p95_ms",
        (times.lat_ms(Class::Write, 0.95), "ms"),
    );
    m.insert(
        "store.write_max_ms",
        (times.lat_ms(Class::Write, 1.0), "ms"),
    );
    m.insert(
        "store.window_p95_ms",
        (times.lat_ms(Class::Window, 0.95), "ms"),
    );
    m.insert(
        "store.derived_p50_ms",
        (times.lat_ms(Class::Derived, 0.5), "ms"),
    );
    m.insert(
        "closestpair.cp2d_s",
        (times.named_s("closestpair.cp2d"), "s"),
    );
    m.insert(
        "closestpair.cp3d_s",
        (times.named_s("closestpair.cp3d"), "s"),
    );
    if times.gen_ns > 0 {
        let rate = times.gen_pts as f64 / 1e6 / secs(times.gen_ns);
        m.insert("datagen.gen_mpts_per_s", (rate, "Mpts/s"));
    }
}

/// `parlay` sort / scan / pack on `PARLAY_N` elements, at one thread.
fn parlay_probes(seed: u64, m: &mut Metrics) {
    let mut rng = crate::gen::Rng::new(seed, 0x9a71a7);
    let keys: Vec<f64> = (0..PARLAY_N).map(|_| rng.next_f64()).collect();
    let ints: Vec<u64> = keys.iter().map(|k| (k * 1e6) as u64).collect();
    let flags: Vec<bool> = ints.iter().map(|v| v % 3 == 0).collect();
    let rate = |f: &mut dyn FnMut()| PARLAY_N as f64 / 1e6 / secs_of(f);
    at_one_thread(|| {
        let mut sorted = keys.clone();
        let sort = rate(&mut || pargeo::parlay::sort_by_key_f64(&mut sorted, |k| *k));
        let scan = rate(&mut || {
            let total = pargeo::parlay::scan_exclusive(&ints, 0u64, |a, b| a.wrapping_add(b)).1;
            std::hint::black_box(total);
        });
        let pack = rate(&mut || {
            std::hint::black_box(pargeo::parlay::pack(&ints, &flags).len());
        });
        m.insert("parlay.sort_mkeys_per_s", (sort, "Mkeys/s"));
        m.insert("parlay.scan_melem_per_s", (scan, "Melem/s"));
        m.insert("parlay.pack_melem_per_s", (pack, "Melem/s"));
    });
}

/// Re-runs the stream with the pools at `nproc` and reads the pool's
/// counters; also times an empty `join` on that pool.
fn sched_probes(args: &Args, cfg: &Cfg, t1: &RepTimes, total: &mut Outcome, m: &mut Metrics) {
    let p = nproc();
    let pool = Pool::new(p);
    let tp_cfg = cfg.with_threads(Threads::Ambient);
    let (out, times) = pool.install(|| args.workload.rep(&tp_cfg, &mut Rec::new(false)));
    let stats = pool.stats();
    total.absorb(&out);
    if out.digest != total.digest {
        total.fail(format!(
            "answers at {p} threads differ from the answers at 1 thread"
        ));
    }
    let tp_ns = times.calls_sum_ns().max(1);
    m.insert("sched.tp_s", (secs(tp_ns), "s"));
    m.insert("sched.speedup", (t1.t1_ns as f64 / tp_ns as f64, "x"));
    m.insert("sched.tasks", (stats.tasks_total as f64, "count"));
    m.insert("sched.steals", (stats.steals_total as f64, "count"));
    m.insert("sched.parks", (stats.parks_total as f64, "count"));
    let join_ns = pool.install(|| {
        let joins = || {
            for i in 0..JOINS {
                std::hint::black_box(pargeo::sched::join(
                    || std::hint::black_box(i),
                    || std::hint::black_box(i + 1),
                ));
            }
        };
        secs_of(joins) * 1e9 / JOINS as f64
    });
    m.insert("sched.join_ns", (join_ns, "ns"));
}

/// `SHADOW_REPS` replays at T1, merged call by call; the facts are those of
/// the last replay.
fn merged(total: &mut Outcome, replay: impl Fn() -> store::Replay + Sync) -> store::Replay {
    let mut replays: Vec<store::Replay> =
        (0..SHADOW_REPS).map(|_| at_one_thread(&replay)).collect();
    for r in &replays {
        total.absorb(&r.out);
    }
    let times: Vec<RepTimes> = replays.iter().map(|r| r.times.clone()).collect();
    let mut last = replays.pop().expect("SHADOW_REPS > 0");
    last.times = fastest_calls(&times);
    last
}

/// `base` are the workload's own merged repetitions; `x` the facts of the
/// first repetition of the process, whose RSS readings no earlier
/// allocation distorts.
fn store_probes(
    kind: Kind,
    cfg: &Cfg,
    base: &RepTimes,
    x: &store::Extras,
    total: &mut Outcome,
    m: &mut Metrics,
) {
    m.insert("store.memo_hits", (x.cache.hits as f64, "count"));
    m.insert(
        "store.memo_incremental",
        (x.cache.incremental as f64, "count"),
    );
    m.insert("store.memo_rebuilds", (x.cache.rebuilds as f64, "count"));
    m.insert(
        "store.rss_growth_mb",
        (x.rss_end_mb - x.rss_prefill_mb, "MB"),
    );
    let bytes_per_pt = (x.rss_end_mb - x.rss_start_mb) * 1048576.0 / x.live.max(1) as f64;
    m.insert("store.bytes_per_live_pt", (bytes_per_pt, "B/pt"));
    let shadow = |variant: Variant, total: &mut Outcome| {
        merged(total, || {
            store::rep(kind, cfg, &variant, &mut Rec::new(false))
        })
    };
    let base_t1_s = secs(base.t1_ns);

    // The store's own four span scopes, and what observing costs.
    let observed = |level: ObsLevel| Variant {
        observe: Some(level),
        ..Variant::base(kind)
    };
    let trace = shadow(observed(ObsLevel::Trace), total);
    let scopes = [
        "store.span_plan_coalesce_s",
        "store.span_write_apply_s",
        "store.span_read_fanout_s",
        "store.span_derived_memo_s",
    ];
    for (name, v) in scopes.into_iter().zip(trace.extras.store_span_s) {
        m.insert(name, (v, "s"));
    }
    if kind == Kind::Serve {
        let metrics = shadow(observed(ObsLevel::Metrics), total);
        let over = |r: &store::Replay| secs(r.times.t1_ns) / base_t1_s - 1.0;
        m.insert("obs.metrics_overhead_frac", (over(&metrics), "frac"));
        m.insert("obs.trace_overhead_frac", (over(&trace), "frac"));
    }

    // Beneath the store: the same batches on a bare BdlTree.
    let bare = merged(total, || store::rep_bare(kind, cfg, &mut Rec::new(false)));
    if bare.extras.read_digest != x.read_digest {
        total.fail("bare BdlTree k-NN/range answers differ from the store's".into());
    }
    m.insert("bdltree.pin_ms", (bare.extras.pin_ms, "ms"));
    m.insert(
        "bdltree.small_delete_ms",
        (bare.extras.small_delete_ms, "ms"),
    );
    match kind {
        Kind::Serve | Kind::Churn => {
            // … on a Bdl store, and on a four-shard Bdl store.
            let bdl = Variant {
                backend: Some(Backend::Bdl),
                ..Variant::default()
            };
            let on_bdl = shadow(bdl, total);
            let sharded = shadow(
                Variant {
                    shards: Some(4),
                    ..bdl
                },
                total,
            );
            let (w, r) = (Class::Write, Class::Read);
            m.insert("engine.write_s", (bare.times.class_s(w), "s"));
            m.insert("engine.read_s", (bare.times.class_s(r), "s"));
            m.insert("engine.shard4_write_s", (sharded.times.class_s(w), "s"));
            m.insert("engine.shard4_read_s", (sharded.times.class_s(r), "s"));
            m.insert(
                "engine.default_gap_s",
                (base_t1_s - secs(on_bdl.times.t1_ns), "s"),
            );
            let write_over = on_bdl.times.class_s(w) - bare.times.class_s(w);
            let read_over = on_bdl.times.class_s(r) - bare.times.class_s(r);
            m.insert("store.write_overhead_s", (write_over, "s"));
            m.insert("store.read_overhead_s", (read_over, "s"));
        }
        Kind::Pinned => {
            let serial = shadow(
                Variant {
                    pipeline: Some(false),
                    ..Variant::base(kind)
                },
                total,
            );
            if serial.out.digest != total.digest {
                total.fail("pipelined answers differ from the serial planner's".into());
            }
            m.insert(
                "store.pin_overhead_s",
                (base_t1_s - secs(serial.times.t1_ns), "s"),
            );
        }
        Kind::Analytics => {}
    }
    if matches!(kind, Kind::Analytics | Kind::Churn) {
        let direct_s = at_one_thread(|| store::direct_derived(kind, cfg, &mut Rec::new(false), m));
        m.insert(
            "store.derived_overhead_s",
            (base.class_s(Class::Derived) - direct_s, "s"),
        );
    }
}

pub fn run(args: &Args, cfg: &Cfg) -> (Outcome, Metrics, Rec) {
    let mut m: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, (0.0, unit)))
        .collect();
    let mut total = Outcome::default();
    let mut rec = Rec::new(true);

    // Three repetitions at T1: untraced, traced, untraced. The first runs
    // in a process that has allocated nothing yet, so its RSS readings are
    // the store's own — and it takes the first-touch page faults, so the
    // tracing overhead is read against the faster of the two untraced ones.
    let cold = at_one_thread(|| args.workload.rep_with_facts(cfg, &mut Rec::new(false)));
    let traced = at_one_thread(|| args.workload.rep_with_facts(cfg, &mut rec));
    let warm = at_one_thread(|| args.workload.rep(cfg, &mut Rec::new(false)));
    total.digest = traced.out.digest;
    total.stream_digest = traced.out.stream_digest;
    for out in [&cold.out, &traced.out, &warm.0] {
        total.absorb(out);
        if out.digest != total.digest {
            total.fail("the traced and untraced repetitions answered differently".into());
        }
    }
    check_anchor(args, cfg, &mut total);

    let untraced_t1_s = secs(cold.times.t1_ns.min(warm.1.t1_ns));
    let overhead = secs(traced.times.t1_ns) / untraced_t1_s - 1.0;
    m.insert("trace.overhead_frac", (overhead, "frac"));
    m.insert("trace.span_coverage", (rec.coverage(0), "frac"));
    eprintln!(
        "ledger: {}: traced t1 {:.4} s, untraced t1 {:.4} s, tracing overhead {:+.2}%, spans cover {:.2}% of the repetition",
        args.workload.name(),
        secs(traced.times.t1_ns),
        untraced_t1_s,
        100.0 * overhead,
        100.0 * rec.coverage(0)
    );

    // Every other per-layer number reads the three repetitions merged call
    // by call, like the end-to-end `t1_s`.
    let base = fastest_calls(&[cold.times, traced.times, warm.1]);
    class_metrics(&base, &mut m);
    sched_probes(args, cfg, &base, &mut total, &mut m);
    match args.workload {
        Workload::Kernels => {
            at_one_thread(|| kernels::probes(cfg, &mut rec, &mut m));
            parlay_probes(cfg.seed, &mut m);
        }
        Workload::Index => {
            let facts = traced.index.expect("index repetition ran");
            at_one_thread(|| index::layer_metrics(cfg, &base, &facts, &mut m));
        }
        Workload::Store(k) => {
            let extras = cold.store.expect("store repetition ran");
            store_probes(k, cfg, &base, &extras, &mut total, &mut m);
        }
    }
    total.absorb(&args.workload.verify(cfg));
    (total, m, rec)
}

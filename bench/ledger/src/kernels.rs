//! `geom-kernels`: the paper's §3–4 kernels as a library user calls them —
//! `try_hull2d`, `try_hull3d`, `try_seb`, `try_closest_pair` on generated
//! data, one data set alive at a time. Trees, engine and store do nothing
//! here; `hull`, `seb`, `closestpair` and `parlay` do all the work.

use crate::common::{secs_of, Cfg, Metrics, Outcome};
use crate::gen::{fold_points, sub_seed};
use crate::rec::{Class, Rec, RepTimes};
use crate::DEFAULT_SEED;
use pargeo::closestpair::{closest_pair_brute, try_closest_pair};
use pargeo::datagen::{in_sphere, on_cube, on_sphere, uniform_cube};
use pargeo::hull::hull2d::validate::check_hull2d;
use pargeo::hull::hull3d::validate::check_hull3d;
use pargeo::hull::{
    hull2d_divide_conquer, hull2d_quickhull_parallel, hull2d_randinc, hull3d_divide_conquer,
    hull3d_pseudo, hull3d_quickhull_parallel, hull3d_randinc, try_hull2d, try_hull2d_with,
    try_hull3d, try_hull3d_with,
};
use pargeo::parlay::mix64;
use pargeo::prelude::{Point, Point2, Point3};
use pargeo::seb::{
    seb_orthant_scan, seb_sampling, seb_welzl_parallel_mtf_pivot, seb_welzl_seq, try_seb,
    try_seb_with,
};

const NAME: &str = "geom-kernels";

/// Recorded sizes (points per data set).
pub const HULL2D_N: usize = 500_000;
/// Each 3D distribution is one large instance (3 MB of coordinates, 1.4×
/// the 2 MiB per-core L2) and several small ones. `try_hull3d`'s time is a
/// property of the instance — it varies by ±30–40% from one random
/// instance to the next at any n — so the large instances are the same on
/// every `--seed` (generated from [`DEFAULT_SEED`]) and only the small ones,
/// whose sum is steady, follow the seed.
pub const HULL3D_LARGE_N: usize = 125_000;
pub const HULL3D_N: usize = 4_000;
pub const HULL3D_INSTANCES: usize = 8;
pub const SEB_OS_N: usize = 5_000_000;
pub const SEB_5D_N: usize = 4_000_000;
pub const CP_N: usize = 100_000;

pub fn sizes_json(cfg: &Cfg) -> String {
    format!(
        "{{\"hull2d_n\": {}, \"hull3d_large_n\": {}, \"hull3d_n\": {}, \"hull3d_instances\": {HULL3D_INSTANCES}, \"seb_os_n\": {}, \"seb_5d_n\": {}, \"cp_n\": {}}}",
        cfg.size(HULL2D_N),
        cfg.size(HULL3D_LARGE_N),
        cfg.size(HULL3D_N),
        cfg.size(SEB_OS_N),
        cfg.size(SEB_5D_N),
        cfg.size(CP_N)
    )
}

/// The four distributions of the paper's hull figures.
const DISTS: [&str; 4] = ["U", "IS", "OS", "OC"];

fn gen_dist<const D: usize>(dist: usize, n: usize, seed: u64) -> Vec<Point<D>> {
    match dist {
        0 => uniform_cube::<D>(n, seed),
        1 => in_sphere::<D>(n, seed),
        2 => on_sphere::<D>(n, seed),
        _ => on_cube::<D>(n, seed),
    }
}

/// One generated data set, handed to the visitor while it is alive.
enum Data<'a> {
    /// A hull input and the index of its distribution in [`DISTS`].
    Hull2(&'a [Point2], usize),
    Hull3(&'a [Point3], usize),
    Seb2(&'a [Point2]),
    Seb3(&'a [Point3]),
    Seb5(&'a [Point<5>]),
    Cp2(&'a [Point2]),
    Cp3(&'a [Point3]),
}

/// Generates the workload's data sets in their fixed order, one alive at a
/// time, and hands each to `visit`. Returns the digest of the inputs.
fn for_each_data(cfg: &Cfg, rec: &mut Rec, mut visit: impl FnMut(&mut Rec, Data<'_>)) -> u64 {
    let mut h = 0u64;
    let mut input = 0u64;
    let mut seed = || {
        input += 1;
        sub_seed(cfg.seed, NAME, input)
    };
    for dist in 0..DISTS.len() {
        let (n, s) = (cfg.size(HULL2D_N), seed());
        let pts = rec.generate(n, || gen_dist::<2>(dist, n, s));
        h = rec.check(|| fold_points(h, &pts));
        visit(rec, Data::Hull2(&pts, dist));
    }
    for dist in 0..DISTS.len() {
        {
            let n = cfg.size(HULL3D_LARGE_N);
            let s = sub_seed(DEFAULT_SEED, NAME, 1000 + dist as u64);
            let pts = rec.generate(n, || gen_dist::<3>(dist, n, s));
            h = rec.check(|| fold_points(h, &pts));
            visit(rec, Data::Hull3(&pts, dist));
        }
        for _ in 0..HULL3D_INSTANCES {
            let (n, s) = (cfg.size(HULL3D_N).max(16), seed());
            let pts = rec.generate(n, || gen_dist::<3>(dist, n, s));
            h = rec.check(|| fold_points(h, &pts));
            visit(rec, Data::Hull3(&pts, dist));
        }
    }
    {
        let (n, s) = (cfg.size(SEB_OS_N), seed());
        let pts = rec.generate(n, || on_sphere::<2>(n, s));
        h = mix64(h, pts.len() as u64);
        visit(rec, Data::Seb2(&pts));
    }
    {
        let (n, s) = (cfg.size(SEB_OS_N), seed());
        let pts = rec.generate(n, || on_sphere::<3>(n, s));
        h = mix64(h, pts.len() as u64);
        visit(rec, Data::Seb3(&pts));
    }
    {
        let (n, s) = (cfg.size(SEB_5D_N), seed());
        let pts = rec.generate(n, || uniform_cube::<5>(n, s));
        h = mix64(h, pts.len() as u64);
        visit(rec, Data::Seb5(&pts));
    }
    {
        let (n, s) = (cfg.size(CP_N), seed());
        let pts = rec.generate(n, || uniform_cube::<2>(n, s));
        h = rec.check(|| fold_points(h, &pts));
        visit(rec, Data::Cp2(&pts));
    }
    {
        let (n, s) = (cfg.size(CP_N), seed());
        let pts = rec.generate(n, || uniform_cube::<3>(n, s));
        h = rec.check(|| fold_points(h, &pts));
        visit(rec, Data::Cp3(&pts));
    }
    h
}

fn fold_ids(h: u64, ids: &[u32]) -> u64 {
    ids.iter()
        .fold(mix64(h, ids.len() as u64), |h, &i| mix64(h, i as u64))
}

fn seb_call<const D: usize>(
    rec: &mut Rec,
    out: &mut Outcome,
    name: &'static str,
    pts: &[Point<D>],
) {
    out.attempted += 1;
    match rec.call(Class::Seb, name, || try_seb(pts)) {
        Ok(ball) => {
            // Ball-contains-all on the full input: O(n), outside the timing.
            if !rec.check(|| pts.iter().all(|p| ball.contains(p))) {
                out.fail(format!("{name}: ball misses an input point"));
            }
            out.digest = mix64(out.digest, 0x5EB);
        }
        Err(e) => out.fail(format!("{name}: {e:?}")),
    }
}

fn cp_call<const D: usize>(rec: &mut Rec, out: &mut Outcome, name: &'static str, pts: &[Point<D>]) {
    out.attempted += 1;
    match rec.call(Class::ClosestPair, name, || try_closest_pair(pts)) {
        Ok(cp) => {
            out.digest = mix64(mix64(out.digest, cp.a as u64), cp.b as u64);
            if cp.a >= cp.b || cp.dist != pts[cp.a as usize].dist(&pts[cp.b as usize]) {
                out.fail(format!("{name}: pair ({}, {}) inconsistent", cp.a, cp.b));
            }
        }
        Err(e) => out.fail(format!("{name}: {e:?}")),
    }
}

/// One repetition: the timed stream. Generation is set-up, interleaved.
pub fn rep(cfg: &Cfg, rec: &mut Rec) -> (Outcome, RepTimes) {
    let mut out = Outcome::default();
    rec.begin_rep();
    rec.start_timed();
    out.stream_digest = for_each_data(cfg, rec, |rec, data| match data {
        Data::Hull2(pts, _) => {
            out.attempted += 1;
            match rec.call(Class::Hull, "hull.try_hull2d", || try_hull2d(pts)) {
                Ok(h) => out.digest = fold_ids(out.digest, &h),
                Err(e) => out.fail(format!("try_hull2d: {e:?}")),
            }
        }
        Data::Hull3(pts, _) => {
            out.attempted += 1;
            match rec.call(Class::Hull, "hull.try_hull3d", || try_hull3d(pts)) {
                Ok(h) => {
                    out.digest = fold_ids(mix64(out.digest, h.num_facets() as u64), &h.vertices)
                }
                Err(e) => out.fail(format!("try_hull3d: {e:?}")),
            }
        }
        Data::Seb2(pts) => seb_call(rec, &mut out, "seb.try_seb_2d", pts),
        Data::Seb3(pts) => seb_call(rec, &mut out, "seb.try_seb_3d", pts),
        Data::Seb5(pts) => seb_call(rec, &mut out, "seb.try_seb_5d", pts),
        Data::Cp2(pts) => cp_call(rec, &mut out, "closestpair.cp2d", pts),
        Data::Cp3(pts) => cp_call(rec, &mut out, "closestpair.cp3d", pts),
    });
    let times = rec.finish_rep();
    (out, times)
}

/// The twin: the same stream at a tenth of the sizes, every answer checked
/// by the crates' own validators. Data sets whose hull is the whole input
/// (on-sphere) are capped so the quadratic validators stay affordable.
pub fn verify(cfg: &Cfg) -> Outcome {
    const QUADRATIC_CAP: usize = 2_000;
    let mut out = Outcome::default();
    let mut nth = 0;
    for_each_data(cfg, &mut Rec::new(false), |_, data| {
        nth += 1;
        out.attempted += 1;
        let cap = |n: usize, dist: usize| {
            if DISTS[dist] == "OS" {
                n.min(QUADRATIC_CAP)
            } else {
                n
            }
        };
        let r: Result<(), String> = match data {
            Data::Hull2(pts, dist) => {
                let pts = &pts[..cap(pts.len(), dist)];
                try_hull2d(pts)
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|h| check_hull2d(pts, &h))
            }
            Data::Hull3(pts, dist) => {
                let pts = &pts[..cap(pts.len(), dist)];
                try_hull3d(pts)
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|h| check_hull3d(pts, &h))
            }
            Data::Seb2(pts) => check_seb(pts),
            Data::Seb3(pts) => check_seb(pts),
            Data::Seb5(pts) => check_seb(pts),
            Data::Cp2(pts) => check_cp(pts),
            Data::Cp3(pts) => check_cp(pts),
        };
        if let Err(e) = r {
            out.fail(format!("twin data set {nth}: {e}"));
        }
    });
    out
}

/// How far, as a share of the optimal radius, a `try_seb` radius may lie
/// below and above Welzl's.
const SEB_BELOW_TOL: f64 = 1e-9;
const SEB_ABOVE_TOL: f64 = 1e-3;

fn check_seb<const D: usize>(pts: &[Point<D>]) -> Result<(), String> {
    let ball = try_seb(pts).map_err(|e| format!("{e:?}"))?;
    if !pts.iter().all(|p| ball.contains(p)) {
        return Err("ball misses an input point".into());
    }
    // `try_seb` (sampling) falls back to growing its ball when the miniball
    // update stalls in floating point, which happens on co-spherical input:
    // over 8 000 on-sphere twins (seeds 1000-4999, 2D and 3D) its radius was
    // never below Welzl's, and above it by more than 1e-9 in 2.3% of them, by
    // 6.3e-5 at most (README, "Protocol"). Smaller than the optimum is wrong
    // at any size; larger is wrong beyond that fallback's reach.
    let exact = seb_welzl_seq(pts);
    let excess = (ball.radius - exact.radius) / exact.radius.max(1.0);
    if !(-SEB_BELOW_TOL..=SEB_ABOVE_TOL).contains(&excess) {
        return Err(format!(
            "radius {} but Welzl gives {}",
            ball.radius, exact.radius
        ));
    }
    Ok(())
}

fn check_cp<const D: usize>(pts: &[Point<D>]) -> Result<(), String> {
    let sample = &pts[..pts.len().min(2_000)];
    let got = try_closest_pair(sample).map_err(|e| format!("{e:?}"))?;
    let want = closest_pair_brute(sample);
    if got.dist != want.dist {
        return Err(format!(
            "closest pair {} but brute force gives {}",
            got.dist, want.dist
        ));
    }
    Ok(())
}

/// Per-layer probes of the traced run: every named hull and SEB method on
/// the workload's own data.
pub fn probes(cfg: &Cfg, rec: &mut Rec, m: &mut Metrics) {
    // Adds the time of `f` to the metric `name` (pre-seeded with 0).
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        m.entry(name).or_insert((0.0, "s")).0 += secs_of(f);
    };
    for_each_data(cfg, rec, |_, data| match data {
        Data::Hull2(pts, _) => {
            let algos: [(&str, fn(&[Point2]) -> Vec<u32>); 3] = [
                ("hull.quick2d_s", hull2d_quickhull_parallel),
                ("hull.randinc2d_s", hull2d_randinc),
                ("hull.dnc2d_s", hull2d_divide_conquer),
            ];
            for (name, algo) in algos {
                timed(name, &mut || {
                    std::hint::black_box(try_hull2d_with(pts, algo).map(|h| h.len()).ok());
                });
            }
        }
        Data::Hull3(pts, _) => {
            let algos: [(&str, fn(&[Point3]) -> pargeo::hull::Hull3d); 4] = [
                ("hull.quick3d_s", hull3d_quickhull_parallel),
                ("hull.randinc3d_s", hull3d_randinc),
                ("hull.pseudo3d_s", hull3d_pseudo),
                ("hull.dnc3d_s", hull3d_divide_conquer),
            ];
            for (name, algo) in algos {
                timed(name, &mut || {
                    std::hint::black_box(try_hull3d_with(pts, algo).map(|h| h.num_facets()).ok());
                });
            }
        }
        Data::Seb2(pts) => seb_methods(pts, &mut timed),
        Data::Seb3(pts) => seb_methods(pts, &mut timed),
        Data::Seb5(pts) => seb_methods(pts, &mut timed),
        Data::Cp2(_) | Data::Cp3(_) => {}
    });
}

/// Welzl's algorithm takes seconds on the full SEB sets; it is timed on
/// their first tenth.
const WELZL_PREFIX_DIV: usize = 10;

fn seb_methods<const D: usize>(
    pts: &[Point<D>],
    timed: &mut impl FnMut(&'static str, &mut dyn FnMut()),
) {
    let algos: [(&str, fn(&[Point<D>]) -> pargeo::prelude::Ball<D>, usize); 3] = [
        ("seb.sampling_s", seb_sampling, 1),
        ("seb.scan_s", seb_orthant_scan, 1),
        (
            "seb.welzl_s",
            seb_welzl_parallel_mtf_pivot,
            WELZL_PREFIX_DIV,
        ),
    ];
    for (name, algo, div) in algos {
        let pts = &pts[..(pts.len() / div).max(1)];
        timed(name, &mut || {
            std::hint::black_box(try_seb_with(pts, algo).map(|b| b.radius).ok());
        });
    }
}

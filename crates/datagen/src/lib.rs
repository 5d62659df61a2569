//! # pargeo-datagen — synthetic point-set generators (paper Module 4)
//!
//! Deterministic, seedable generators for every data-set family in the
//! paper's evaluation (§6 "Data Sets"):
//!
//! * [`uniform_cube`] — **U**: uniform in a hypercube of side `√n`.
//! * [`in_sphere`] — **IS**: uniform inside a hypersphere of diameter `√n`.
//! * [`on_sphere`] — **OS**: uniform on the sphere surface with shell
//!   thickness `0.1 ×` diameter.
//! * [`on_cube`] — **OC**: uniform on the hypercube surface with thickness
//!   `0.1 ×` side.
//! * [`seed_spreader`] — **V** ("VisualVar"): clustered data of varying
//!   density in the style of Gan & Tao's seed spreader \[33\].
//! * [`statue_surface`] — stand-in for the Stanford *Thai Statue* / *Dragon*
//!   scans: a dense sample of a closed, bumpy 2-manifold in `R³` (see
//!   DESIGN.md §5 for the substitution rationale).
//! * [`uniform_rects`] — random axis-aligned query boxes for the range
//!   search suites.
//!
//! All generators except the (inherently sequential) seed spreader produce
//! point `i` from a counter-mode hash of `(seed, i)`, so generation is
//! embarrassingly parallel and the output is identical regardless of thread
//! count.
//!
//! The [`workload`] module layers mixed batch-dynamic *operation streams*
//! on top of the point families: [`WorkloadSpec`] describes
//! insert/delete/query ratios, sliding-window churn, and query hotspots,
//! and expands into a deterministic [`Workload`] for the engine driver.

#![warn(missing_docs)]

pub mod workload;

pub use workload::{
    DerivedOp, Distribution, Hotspot, QueryMix, Workload, WorkloadOp, WorkloadSpec,
};

use pargeo_geometry::{Bbox, Point};
use pargeo_parlay::shuffle::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-point deterministic RNG state derived from `(seed, index)`.
struct Counter {
    state: u64,
}

impl Counter {
    #[inline]
    fn new(seed: u64, i: usize) -> Self {
        Self {
            state: splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next uniform f64 in [0, 1).
    #[inline]
    fn next_f64(&mut self) -> f64 {
        self.state = splitmix64(self.state);
        (self.state >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next standard normal via Box–Muller.
    #[inline]
    fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Counter-mode generation harness: `f(i)` produces object `i`, 4096
/// objects to a task (works for points, segment pairs, boxes — anything
/// `Send`).
fn gen_parallel<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    gen_parallel_range(0..n, f)
}

/// [`gen_parallel`] restricted to a sub-range of the stream. Because every
/// object is derived from `(seed, i)` alone, generating `[start, end)` is
/// bit-identical to slicing the monolithic output — the property
/// [`uniform_cube_range`] relies on to feed 10^7-point streams without a
/// second full-size temporary allocation.
fn gen_parallel_range<T, F>(range: std::ops::Range<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    pargeo_parlay::tabulate(range.len(), 4096, |i| f(range.start + i))
}

/// Side length of the paper's hypercube: `√n`.
pub fn cube_side(n: usize) -> f64 {
    (n as f64).sqrt()
}

/// **U**: `n` points uniform in `[0, √n]^D`.
pub fn uniform_cube<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    uniform_cube_range(n, seed, 0..n)
}

/// Chunk `[range.start, range.end)` of the `uniform_cube(n, seed)` stream —
/// bit-identical to slicing the monolithic output (each point depends only
/// on `(seed, i)` plus the domain side `√n`), so a large stream can be
/// generated in fixed-size chunks with peak temporary memory of one chunk.
pub fn uniform_cube_range<const D: usize>(
    n: usize,
    seed: u64,
    range: std::ops::Range<usize>,
) -> Vec<Point<D>> {
    let side = cube_side(n);
    gen_parallel_range(range, |i| {
        let mut rng = Counter::new(seed, i);
        let mut c = [0.0; D];
        for x in c.iter_mut() {
            *x = rng.next_f64() * side;
        }
        Point::new(c)
    })
}

/// **IS**: `n` points uniform inside a hypersphere of radius `√n / 2`
/// centered at the origin.
pub fn in_sphere<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let radius = cube_side(n) / 2.0;
    gen_parallel(n, |i| {
        let mut rng = Counter::new(seed, i);
        unit_ball_point::<D>(&mut rng) * radius
    })
}

/// **OS**: `n` points uniform on the hypersphere surface (radius `√n / 2`),
/// jittered inward within a shell of thickness `0.1 ×` diameter.
pub fn on_sphere<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let radius = cube_side(n) / 2.0;
    let thickness = 0.1 * 2.0 * radius;
    gen_parallel(n, |i| {
        let mut rng = Counter::new(seed, i);
        let dir = unit_sphere_point::<D>(&mut rng);
        let r = radius - rng.next_f64() * thickness;
        dir * r
    })
}

/// **OC**: `n` points uniform on the hypercube surface (side `√n`),
/// jittered inward within a slab of thickness `0.1 ×` side.
pub fn on_cube<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let side = cube_side(n);
    let thickness = 0.1 * side;
    gen_parallel(n, |i| {
        let mut rng = Counter::new(seed, i);
        let mut c = [0.0; D];
        for x in c.iter_mut() {
            *x = rng.next_f64() * side;
        }
        // Pick a facet (a dimension and a side), then push the point onto it
        // with inward jitter.
        let facet = (rng.next_f64() * D as f64) as usize % D;
        let inward = rng.next_f64() * thickness;
        if rng.next_f64() < 0.5 {
            c[facet] = inward;
        } else {
            c[facet] = side - inward;
        }
        Point::new(c)
    })
}

/// Parameters for [`seed_spreader`].
#[derive(Debug, Clone, Copy)]
pub struct SeedSpreaderParams {
    /// Probability of teleporting the spreader to a fresh uniform location
    /// (creates a new cluster). Gan–Tao use `10/n`; we default to `1e-4`.
    pub restart_prob: f64,
    /// Base vicinity radius as a fraction of the domain side.
    pub base_vicinity: f64,
    /// Per-step drift as a fraction of the vicinity radius.
    pub drift: f64,
}

impl Default for SeedSpreaderParams {
    fn default() -> Self {
        Self {
            restart_prob: 1e-4,
            base_vicinity: 0.01,
            drift: 0.2,
        }
    }
}

/// **V**: clustered points of varying density (Gan–Tao seed spreader, the
/// paper's "VisualVar"/`2D-V` generator).
///
/// A spreader performs a random walk: each step emits one point uniformly in
/// a ball around the current location, then drifts; with probability
/// `restart_prob` it teleports and re-samples the local density, producing
/// clusters whose densities vary by orders of magnitude.
///
/// Unlike the counter-mode families this walk is inherently sequential —
/// point `i` depends on the entire prefix — so it could have no chunked
/// variant like [`uniform_cube_range`]: re-seeding per chunk would change
/// the stream.
pub fn seed_spreader<const D: usize>(
    n: usize,
    seed: u64,
    params: SeedSpreaderParams,
) -> Vec<Point<D>> {
    let side = cube_side(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut loc = [0.0f64; D].map(|_| rng.gen::<f64>() * side);
    let mut vicinity = side * params.base_vicinity;
    for _ in 0..n {
        if rng.gen::<f64>() < params.restart_prob {
            loc = loc.map(|_| rng.gen::<f64>() * side);
            // New cluster density: radius varies over ~2 orders of magnitude.
            let scale = 10f64.powf(rng.gen::<f64>() * 2.0 - 1.0);
            vicinity = side * params.base_vicinity * scale;
        }
        let mut c = [0.0f64; D];
        for (x, l) in c.iter_mut().zip(loc.iter()) {
            *x = l + (rng.gen::<f64>() * 2.0 - 1.0) * vicinity;
        }
        out.push(Point::new(c));
        for l in loc.iter_mut() {
            *l += (rng.gen::<f64>() * 2.0 - 1.0) * vicinity * params.drift;
            *l = l.rem_euclid(side);
        }
    }
    out
}

/// Synthetic "scanned statue" surface in `R³` — the stand-in for the
/// Stanford Thai-statue / Dragon data sets.
///
/// Points sample a closed surface `r(θ, φ) = R · (1 + Σ bumps)` — a sphere
/// modulated by a few low-frequency lobes — plus fine scan noise. Like a
/// real scan it is a dense 2-manifold sample: hull output is large and
/// normals vary smoothly, which is what distinguishes Thai/Dragon from the
/// synthetic U/IS families in Figures 9 and 10.
pub fn statue_surface(n: usize, seed: u64) -> Vec<Point<3>> {
    let radius = cube_side(n) / 2.0;
    gen_parallel(n, |i| {
        let mut rng = Counter::new(seed, i);
        let dir = unit_sphere_point::<3>(&mut rng);
        let (x, y, z) = (dir[0], dir[1], dir[2]);
        let theta = z.clamp(-1.0, 1.0).asin();
        let phi = y.atan2(x);
        // Low-frequency lobes (statue "features")...
        let bumps = 0.18 * (3.0 * phi).sin() * (2.0 * theta).cos()
            + 0.12 * (5.0 * phi + 1.3).cos() * (3.0 * theta).sin()
            + 0.08 * (7.0 * theta).sin();
        // ...plus fine scan noise.
        let noise = 0.002 * rng.next_gaussian();
        dir * (radius * (1.0 + bumps + noise))
    })
}

/// `n` random axis-aligned boxes in the `[0, √n]^D` domain: center uniform,
/// each side length uniform in `(0, max_side_frac × √n]`. Seeded and
/// counter-mode parallel.
pub fn uniform_rects<const D: usize>(n: usize, seed: u64, max_side_frac: f64) -> Vec<Bbox<D>> {
    let side = cube_side(n);
    gen_parallel(n, |i| {
        let mut rng = Counter::new(seed, i);
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            let center = rng.next_f64() * side;
            let half = rng.next_f64() * max_side_frac * side / 2.0;
            lo[d] = center - half;
            hi[d] = center + half;
        }
        Bbox {
            min: Point::new(lo),
            max: Point::new(hi),
        }
    })
}

/// Uniform direction on the unit sphere (Gaussian normalization).
fn unit_sphere_point<const D: usize>(rng: &mut Counter) -> Point<D> {
    loop {
        let mut c = [0.0; D];
        for x in c.iter_mut() {
            *x = rng.next_gaussian();
        }
        let p = Point::new(c);
        let norm = p.norm();
        if norm > 1e-12 {
            return p * (1.0 / norm);
        }
    }
}

/// Uniform point in the unit ball (direction × radius^(1/D)).
fn unit_ball_point<const D: usize>(rng: &mut Counter) -> Point<D> {
    let dir = unit_sphere_point::<D>(rng);
    let r = rng.next_f64().powf(1.0 / D as f64);
    dir * r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cube_bounds_and_determinism() {
        let a = uniform_cube::<3>(10_000, 1);
        let b = uniform_cube::<3>(10_000, 1);
        let c = uniform_cube::<3>(10_000, 2);
        assert_eq!(a.len(), 10_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let side = cube_side(10_000);
        for p in &a {
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] < side);
            }
        }
    }

    #[test]
    fn in_sphere_within_radius() {
        let pts = in_sphere::<4>(5_000, 7);
        let r = cube_side(5_000) / 2.0;
        for p in &pts {
            assert!(p.norm() <= r * (1.0 + 1e-9));
        }
        // Points should genuinely fill the ball, not hug the surface.
        let inner = pts.iter().filter(|p| p.norm() < 0.5 * r).count();
        assert!(inner > 100, "inner={inner}");
    }

    #[test]
    fn on_sphere_shell() {
        let pts = on_sphere::<3>(5_000, 3);
        let r = cube_side(5_000) / 2.0;
        for p in &pts {
            let d = p.norm();
            assert!(d <= r * (1.0 + 1e-9), "d={d} r={r}");
            assert!(d >= r - 0.2 * r - 1e-9, "d={d} r={r}");
        }
    }

    #[test]
    fn on_cube_near_surface() {
        let n = 5_000;
        let pts = on_cube::<3>(n, 11);
        let side = cube_side(n);
        for p in &pts {
            let near =
                (0..3).any(|d| p[d] <= 0.1 * side + 1e-9 || p[d] >= side - 0.1 * side - 1e-9);
            assert!(near, "{:?}", p);
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] <= side);
            }
        }
    }

    #[test]
    fn seed_spreader_is_clustered() {
        let n = 20_000;
        let pts = seed_spreader::<2>(n, 5, SeedSpreaderParams::default());
        assert_eq!(pts.len(), n);
        // Clustering proxy: occupancy of a 20×20 grid is far more skewed
        // than for uniform data (coefficient of variation ≫ that of a
        // Poisson distribution with the same mean).
        let side = cube_side(n);
        let g = 20usize;
        let mut counts = vec![0usize; g * g];
        for p in &pts {
            let cx = ((p[0] / side * g as f64) as usize).min(g - 1);
            let cy = ((p[1] / side * g as f64) as usize).min(g - 1);
            counts[cy * g + cx] += 1;
        }
        let mean = n as f64 / (g * g) as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / (g * g) as f64;
        let cv = var.sqrt() / mean;
        let poisson_cv = 1.0 / mean.sqrt();
        assert!(cv > 5.0 * poisson_cv, "cv={cv} poisson_cv={poisson_cv}");
    }

    #[test]
    fn statue_is_a_closed_surface_sample() {
        let n = 10_000;
        let pts = statue_surface(n, 9);
        let r = cube_side(n) / 2.0;
        for p in &pts {
            let d = p.norm();
            // 1 ± (0.18 + 0.12 + 0.08 + noise) envelope.
            assert!(d > 0.5 * r && d < 1.5 * r, "d={d} r={r}");
        }
        // Not a thin sphere: radial spread should be wide.
        let mean: f64 = pts.iter().map(|p| p.norm()).sum::<f64>() / n as f64;
        let var: f64 = pts.iter().map(|p| (p.norm() - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(var.sqrt() > 0.05 * r);
    }

    #[test]
    fn rects_are_well_formed_and_bounded() {
        let n = 5_000;
        let rects = uniform_rects::<3>(n, 4, 0.2);
        assert_eq!(rects.len(), n);
        assert_eq!(rects, uniform_rects::<3>(n, 4, 0.2));
        let side = cube_side(n);
        for r in &rects {
            assert!(!r.is_empty());
            for d in 0..3 {
                assert!(r.max[d] - r.min[d] <= 0.2 * side * (1.0 + 1e-9));
                assert!(r.min[d] > -0.5 * side && r.max[d] < 1.5 * side);
            }
        }
    }

    #[test]
    fn chunked_generation_is_bit_identical_to_monolithic() {
        // Concatenating fixed-size chunks must reproduce the monolithic
        // stream bit for bit, for chunk sizes that do and do not divide n
        // (and straddle the parallel cutoff).
        let n = 10_000;
        for chunk in [1_000, 4_096, 7_777] {
            let stitch = |f: &dyn Fn(std::ops::Range<usize>) -> Vec<Point<3>>| {
                let mut out = Vec::with_capacity(n);
                let mut s = 0;
                while s < n {
                    let e = (s + chunk).min(n);
                    out.extend(f(s..e));
                    s = e;
                }
                out
            };
            assert_eq!(
                uniform_cube::<3>(n, 1),
                stitch(&|r| uniform_cube_range::<3>(n, 1, r))
            );
        }
        // A chunk is exactly the monolithic slice, at any offset.
        assert_eq!(
            uniform_cube_range::<2>(n, 9, 137..4_321),
            uniform_cube::<2>(n, 9)[137..4_321]
        );
    }

    #[test]
    fn generators_are_parallel_deterministic() {
        // Same output under different pool sizes.
        let a = pargeo_parlay::with_threads(1, || uniform_cube::<2>(50_000, 42));
        let b = pargeo_parlay::with_threads(4, || uniform_cube::<2>(50_000, 42));
        assert_eq!(a, b);
    }
}

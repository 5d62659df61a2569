//! # pargeo-seb — smallest enclosing ball (paper §4)
//!
//! The paper's second algorithmic contribution. Implementations:
//!
//! * [`seb_welzl_seq`] — the classic sequential Welzl recursion with
//!   move-to-front (the CGAL baseline stand-in of Figure 10).
//! * [`seb_welzl_parallel`] / [`seb_welzl_parallel_mtf`] /
//!   [`seb_welzl_parallel_mtf_pivot`] — the first parallel implementation
//!   of Welzl's algorithm (Blelloch et al.'s prefix-doubling scheme \[23\]),
//!   plus the move-to-front and Gärtner pivoting heuristics lifted to the
//!   parallel setting (§4 "Parallel Welzl's Algorithm and Optimizations").
//!   Prefixes below a sequential cutoff run the sequential algorithm, as
//!   the paper prescribes.
//! * [`seb_orthant_scan`] — Larsson et al.'s iterative orthant scan \[41\],
//!   parallelized over input blocks.
//! * [`seb_sampling`] — the paper's new sampling-based two-phase algorithm
//!   (Figure 6): cheap orthant scans over random samples build a
//!   near-optimal ball before the final phase, which reads the input once
//!   and then rescans only a certified shell of near-boundary points.

#![warn(missing_docs)]

mod scan;
mod welzl;

pub use scan::{seb_orthant_scan, seb_sampling, seb_sampling_with_batch};
pub use welzl::{
    seb_welzl_parallel, seb_welzl_parallel_mtf, seb_welzl_parallel_mtf_pivot, seb_welzl_seq,
    welzl_support,
};

use pargeo_geometry::{Ball, GeoError, GeoResult, Point};

/// Non-panicking smallest enclosing ball: rejects an empty input with
/// [`GeoError::EmptyInput`] and a NaN or infinite coordinate with
/// [`GeoError::BadParameter`] (one read of the input) instead of
/// panicking, then runs `algo` (any of this crate's `seb_*` entry points).
///
/// ```
/// use pargeo_seb::{try_seb_with, seb_sampling};
/// use pargeo_geometry::Point2;
/// assert!(try_seb_with::<2>(&[], seb_sampling).is_err());
/// let pts = [Point2::new([0.0, 0.0]), Point2::new([2.0, 0.0])];
/// assert!((try_seb_with(&pts, seb_sampling).unwrap().radius - 1.0).abs() < 1e-12);
/// ```
pub fn try_seb_with<const D: usize>(
    points: &[Point<D>],
    algo: fn(&[Point<D>]) -> Ball<D>,
) -> GeoResult<Ball<D>> {
    if points.is_empty() {
        return Err(GeoError::EmptyInput { op: "seb" });
    }
    if !points.iter().all(Point::is_finite) {
        return Err(scan::NON_FINITE);
    }
    Ok(algo(points))
}

/// Non-panicking [`seb_sampling`] (the paper's fastest method): refuses
/// what [`try_seb_with`] refuses. A non-finite coordinate is found by the
/// passes the method makes anyway — the initial pair, each sample, each
/// shell of the final phase — so the refusal costs no read of the input.
///
/// **Tolerance.** The ball always contains every input point and is never
/// smaller than the optimum, but it is the optimum only up to a relative
/// `1e-4`: on near-co-spherical input (nearly every point touching the
/// optimal ball) the sampling method's floating-point miniball update can
/// stall, and its grow-on-stall fallback then stops at a slightly larger
/// enclosing ball. Measured over 8 000 on-sphere inputs of 250k–500k
/// points in 2D and 3D: above the optimum by more than `1e-9` of it on
/// 2.3%, by `6.3e-5` at most; on other distributions, and below a few
/// thousand points, the result is Welzl's to rounding. For the optimum
/// itself use `try_seb_with(points, seb_welzl_parallel_mtf_pivot)`.
pub fn try_seb<const D: usize>(points: &[Point<D>]) -> GeoResult<Ball<D>> {
    if points.is_empty() {
        return Err(GeoError::EmptyInput { op: "seb" });
    }
    Ok(scan::sampling(points, scan::SAMPLE)?.0)
}

/// Brute-force smallest enclosing ball for testing (exponential in `D`,
/// cubic-ish in `n`; only for tiny inputs).
pub fn seb_brute_force<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    assert!(!points.is_empty());
    let n = points.len();
    let mut best = Ball::empty();
    let mut best_r = f64::INFINITY;
    let mut consider = |support: &[Point<D>]| {
        let b = pargeo_geometry::ball_through(support);
        if b.radius >= 0.0 && b.radius < best_r && points.iter().all(|p| b.contains(p)) {
            best = b;
            best_r = b.radius;
        }
    };
    for i in 0..n {
        consider(&[points[i]]);
        for j in i + 1..n {
            consider(&[points[i], points[j]]);
            if D >= 2 {
                for k in j + 1..n {
                    consider(&[points[i], points[j], points[k]]);
                    if D >= 3 {
                        for l in k + 1..n {
                            consider(&[points[i], points[j], points[k], points[l]]);
                        }
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{in_sphere, on_sphere, uniform_cube};

    type Algo2 = fn(&[Point<2>]) -> Ball<2>;
    type Algo3 = fn(&[Point<3>]) -> Ball<3>;

    fn algos2() -> Vec<(&'static str, Algo2)> {
        vec![
            ("welzl_seq", seb_welzl_seq as Algo2),
            ("welzl_par", seb_welzl_parallel as Algo2),
            ("welzl_mtf", seb_welzl_parallel_mtf as Algo2),
            ("welzl_mtf_pivot", seb_welzl_parallel_mtf_pivot as Algo2),
            ("orthant_scan", seb_orthant_scan as Algo2),
            ("sampling", seb_sampling as Algo2),
        ]
    }

    fn algos3() -> Vec<(&'static str, Algo3)> {
        vec![
            ("welzl_seq", seb_welzl_seq as Algo3),
            ("welzl_par", seb_welzl_parallel as Algo3),
            ("welzl_mtf", seb_welzl_parallel_mtf as Algo3),
            ("welzl_mtf_pivot", seb_welzl_parallel_mtf_pivot as Algo3),
            ("orthant_scan", seb_orthant_scan as Algo3),
            ("sampling", seb_sampling as Algo3),
        ]
    }

    fn check2(points: &[Point<2>], want_radius: f64) {
        for (name, f) in algos2() {
            let b = f(points);
            for (i, p) in points.iter().enumerate() {
                assert!(b.contains(p), "{name}: point {i} escapes ball {b:?}");
            }
            assert!(
                (b.radius - want_radius).abs() <= 1e-7 * (1.0 + want_radius),
                "{name}: radius {} vs optimal {want_radius}",
                b.radius
            );
        }
    }

    fn check3(points: &[Point<3>], want_radius: f64) {
        for (name, f) in algos3() {
            let b = f(points);
            for (i, p) in points.iter().enumerate() {
                assert!(b.contains(p), "{name}: point {i} escapes ball {b:?}");
            }
            assert!(
                (b.radius - want_radius).abs() <= 1e-7 * (1.0 + want_radius),
                "{name}: radius {} vs optimal {want_radius}",
                b.radius
            );
        }
    }

    #[test]
    fn matches_brute_force_2d() {
        for seed in 0..5 {
            let pts = uniform_cube::<2>(25, seed);
            let want = seb_brute_force(&pts);
            check2(&pts, want.radius);
        }
    }

    #[test]
    fn matches_brute_force_3d() {
        for seed in 5..8 {
            let pts = uniform_cube::<3>(18, seed);
            let want = seb_brute_force(&pts);
            check3(&pts, want.radius);
        }
    }

    #[test]
    fn all_agree_on_large_uniform_2d() {
        let pts = uniform_cube::<2>(20_000, 100);
        let want = seb_welzl_seq(&pts);
        check2(&pts, want.radius);
    }

    #[test]
    fn all_agree_on_sphere_3d() {
        // On-sphere data: nearly all points touch the optimum — the hard
        // case for scan-based methods.
        let pts = on_sphere::<3>(5_000, 101);
        let want = seb_welzl_seq(&pts);
        check3(&pts, want.radius);
    }

    #[test]
    fn all_agree_in_sphere_3d() {
        let pts = in_sphere::<3>(10_000, 102);
        let want = seb_welzl_seq(&pts);
        check3(&pts, want.radius);
    }

    /// The tolerance `try_seb` documents, where it is needed: on-sphere
    /// input large enough for the sampling method's update to stall.
    #[test]
    fn try_seb_stays_within_its_tolerance_on_sphere() {
        for seed in 1000..1200 {
            let pts = on_sphere::<2>(20_000, seed);
            let ball = try_seb(&pts).unwrap();
            assert!(pts.iter().all(|p| ball.contains(p)), "seed {seed}");
            let optimum = seb_welzl_seq(&pts).radius;
            let excess = (ball.radius - optimum) / optimum;
            assert!(
                (-1e-9..=1e-4).contains(&excess),
                "seed {seed}: radius {} vs optimum {optimum}",
                ball.radius
            );
        }
    }

    #[test]
    fn known_optimum_antipodal() {
        // Two antipodal points on a circle of radius 5 define the ball.
        let mut pts = vec![Point::new([5.0, 0.0]), Point::new([-5.0, 0.0])];
        pts.extend(in_sphere::<2>(1_000, 103).iter().map(|p| *p * 0.05));
        check2(&pts, 5.0);
    }

    #[test]
    fn degenerate_inputs() {
        for (name, f) in algos2() {
            let one = [Point::new([3.0, 4.0])];
            let b = f(&one);
            assert_eq!(b.radius, 0.0, "{name}");
            assert!(b.contains(&one[0]), "{name}");

            let same = [Point::new([1.0, 1.0]); 40];
            let b = f(&same);
            assert!(b.radius <= 1e-9, "{name}");

            let collinear: Vec<Point<2>> = (0..50).map(|i| Point::new([i as f64, 0.0])).collect();
            let b = f(&collinear);
            assert!((b.radius - 24.5).abs() < 1e-7, "{name}: {}", b.radius);
        }
    }

    #[test]
    fn try_rejects_empty_input_for_every_algorithm() {
        for (name, f) in algos2() {
            let err = try_seb_with(&[], f).unwrap_err();
            assert_eq!(err, GeoError::EmptyInput { op: "seb" }, "{name}");
        }
        assert_eq!(try_seb::<3>(&[]), Err(GeoError::EmptyInput { op: "seb" }));
        let one = [Point::new([3.0, 4.0])];
        assert_eq!(try_seb(&one).unwrap().radius, 0.0);
    }

    /// A NaN or infinite coordinate first, in the middle or last, below and
    /// above the sample size, is refused by `try_seb` and `try_seb_with`.
    fn refuses_non_finite<const D: usize>() {
        let refused = Err(GeoError::BadParameter {
            op: "seb",
            what: "non-finite coordinate",
        });
        for n in [1, 2, 1_000, 30_000] {
            let pts = uniform_cube::<D>(n, 105);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for i in [0, n / 2, n - 1] {
                    for axis in [0, D - 1] {
                        let mut p = pts.clone();
                        p[i][axis] = bad;
                        let at = format!("{D}-D n {n}: {bad} at {i}, axis {axis}");
                        assert_eq!(try_seb(&p), refused, "{at}");
                        assert_eq!(try_seb_with(&p, seb_orthant_scan), refused, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn try_rejects_non_finite_coordinates() {
        refuses_non_finite::<2>();
        refuses_non_finite::<3>();
        refuses_non_finite::<5>();
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<3>(10_000, 104);
        for (name, f) in algos3() {
            let a = pargeo_parlay::with_threads(1, || f(&pts));
            let b = pargeo_parlay::with_threads(4, || f(&pts));
            assert!(
                (a.radius - b.radius).abs() <= 1e-9 * (1.0 + a.radius),
                "{name}"
            );
        }
    }
}

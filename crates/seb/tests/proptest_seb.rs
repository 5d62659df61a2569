//! Property-based tests for the smallest enclosing ball: all six methods
//! enclose everything and agree on the radius, over arbitrary inputs
//! including duplicate-heavy lattices. Above the 10k-point sample size the
//! scan-based methods finish on a shell of near-boundary points, which the
//! near-co-spherical and duplicate-heavy families fill.

use pargeo_geometry::{Ball, Point, Point2, Point3};
use pargeo_seb::*;
use proptest::prelude::*;

fn lattice_points() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..64, 0i32..64).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        1..200,
    )
}

fn smooth_points() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (-1e5f64..1e5, -1e5f64..1e5).prop_map(|(x, y)| Point2::new([x, y])),
        1..200,
    )
}

/// 10k–20k points within `10^-k` of the radius of a circle of radius
/// 1 000, for `k` in 1..10: nearly every point touches the optimum.
fn near_cospherical_2d() -> impl Strategy<Value = Vec<Point2>> {
    (
        1i32..10,
        prop::collection::vec((0f64..std::f64::consts::TAU, 0f64..1.0), 10_001..20_000),
    )
        .prop_map(|(k, polar)| {
            let depth = 1e3 * 10f64.powi(-k);
            polar
                .into_iter()
                .map(|(t, u)| {
                    let r = 1e3 - depth * u;
                    Point2::new([r * t.cos(), r * t.sin()])
                })
                .collect()
        })
}

/// 10k–20k points on the 6³ grid: every grid point many times over.
fn duplicate_heavy_3d() -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (0i32..6, 0i32..6, 0i32..6)
            .prop_map(|(x, y, z)| Point3::new([x as f64, y as f64, z as f64])),
        10_001..20_000,
    )
}

/// The sampling and scan methods enclose every point, and their radius is
/// Welzl's within the tolerance `try_seb` documents.
fn check_large<const D: usize>(pts: &[Point<D>]) -> Result<(), TestCaseError> {
    let optimum = seb_welzl_seq(pts).radius;
    let balls = [
        ("try_seb", try_seb(pts).unwrap()),
        ("scan", seb_orthant_scan(pts)),
    ];
    for (name, b) in balls {
        prop_assert!(pts.iter().all(|p| b.contains(p)), "{} lost a point", name);
        prop_assert!(
            b.radius >= optimum * (1.0 - 1e-9) && b.radius <= optimum * (1.0 + 1e-4),
            "{}: {} vs {}",
            name,
            b.radius,
            optimum
        );
    }
    Ok(())
}

fn check_all(pts: &[Point2]) -> Result<(), TestCaseError> {
    let reference = seb_welzl_seq(pts);
    for p in pts {
        prop_assert!(reference.contains(p));
    }
    let algos: Vec<(&str, fn(&[Point2]) -> Ball<2>)> = vec![
        ("welzl_par", seb_welzl_parallel),
        ("welzl_mtf", seb_welzl_parallel_mtf),
        ("welzl_mtf_pivot", seb_welzl_parallel_mtf_pivot),
        ("scan", seb_orthant_scan),
        ("sampling", seb_sampling),
    ];
    for (name, f) in algos {
        let b = f(pts);
        for p in pts {
            prop_assert!(b.contains(p), "{} lost a point: {:?}", name, b);
        }
        prop_assert!(
            (b.radius - reference.radius).abs() <= 1e-6 * (1.0 + reference.radius),
            "{}: {} vs {}",
            name,
            b.radius,
            reference.radius
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_methods_agree_on_lattices(pts in lattice_points()) {
        check_all(&pts)?;
    }

    #[test]
    fn all_methods_agree_on_smooth_points(pts in smooth_points()) {
        check_all(&pts)?;
    }

    #[test]
    fn scan_methods_hold_on_near_cospherical_input(pts in near_cospherical_2d()) {
        check_large(&pts)?;
    }

    #[test]
    fn scan_methods_hold_on_duplicate_heavy_input(pts in duplicate_heavy_3d()) {
        check_large(&pts)?;
    }

    /// The SEB radius is at least half the diameter and at most the
    /// diameter (Jung-type sanity bounds in the plane it is ≤ d/√3, we
    /// check the loose bound).
    #[test]
    fn radius_bounds(pts in lattice_points()) {
        prop_assume!(pts.len() >= 2);
        let b = seb_welzl_seq(&pts);
        let mut diam: f64 = 0.0;
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                diam = diam.max(pts[i].dist(&pts[j]));
            }
        }
        prop_assert!(b.radius >= diam / 2.0 - 1e-9);
        prop_assert!(b.radius <= diam / 3f64.sqrt() + 1e-9);
    }

    /// Adding interior points never changes the ball.
    #[test]
    fn interior_points_are_irrelevant(pts in lattice_points(), extra in 0usize..50) {
        prop_assume!(pts.len() >= 3);
        let base = seb_welzl_seq(&pts);
        let mut fat = pts.clone();
        // Add points on the segment between the center and existing points
        // (strictly inside the ball).
        for p in pts.iter().take(extra) {
            fat.push(base.center.midpoint(p));
        }
        let b2 = seb_welzl_seq(&fat);
        prop_assert!((b2.radius - base.radius).abs() <= 1e-9 * (1.0 + base.radius));
    }
}

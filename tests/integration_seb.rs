//! Cross-crate integration: every SEB implementation on every dataset
//! family, plus relationships to the convex hull (the SEB of the hull
//! vertices equals the SEB of the set).

use pargeo::datagen;
use pargeo::prelude::*;
use pargeo::seb;

fn all_algos_agree<const D: usize>(pts: &[Point<D>], label: &str) {
    let reference = seb_welzl_seq(pts);
    let algos: Vec<(&str, fn(&[Point<D>]) -> Ball<D>)> = vec![
        ("welzl_par", seb_welzl_parallel),
        ("welzl_mtf", seb::seb_welzl_parallel_mtf),
        ("welzl_mtf_pivot", seb_welzl_parallel_mtf_pivot),
        ("orthant_scan", seb_orthant_scan),
        ("sampling", seb_sampling),
    ];
    for (name, f) in algos {
        let b = f(pts);
        assert!(
            pts.iter().all(|p| b.contains(p)),
            "{label}/{name}: not enclosing"
        );
        assert!(
            (b.radius - reference.radius).abs() <= 1e-6 * (1.0 + reference.radius),
            "{label}/{name}: radius {} vs {}",
            b.radius,
            reference.radius
        );
    }
}

#[test]
fn seb_all_datasets_2d() {
    let n = 8_000;
    all_algos_agree(&datagen::uniform_cube::<2>(n, 1), "2D-U");
    all_algos_agree(&datagen::in_sphere::<2>(n, 2), "2D-IS");
    all_algos_agree(&datagen::on_sphere::<2>(n, 3), "2D-OS");
    all_algos_agree(&datagen::on_cube::<2>(n, 4), "2D-OC");
}

#[test]
fn seb_all_datasets_3d() {
    let n = 6_000;
    all_algos_agree(&datagen::uniform_cube::<3>(n, 5), "3D-U");
    all_algos_agree(&datagen::in_sphere::<3>(n, 6), "3D-IS");
    all_algos_agree(&datagen::on_sphere::<3>(n, 7), "3D-OS");
    all_algos_agree(&datagen::statue_surface(n, 8), "3D-Statue");
}

#[test]
fn seb_5d() {
    all_algos_agree(&datagen::uniform_cube::<5>(4_000, 9), "5D-U");
}

#[test]
fn seb_of_hull_equals_seb_of_set() {
    let pts = datagen::in_sphere::<2>(10_000, 10);
    let full = seb_welzl_seq(&pts);
    let hull = hull2d_quickhull_parallel(&pts);
    let hull_pts: Vec<Point2> = hull.iter().map(|&i| pts[i as usize]).collect();
    let reduced = seb_welzl_seq(&hull_pts);
    assert!((full.radius - reduced.radius).abs() < 1e-9 * (1.0 + full.radius));
}

#[test]
fn sampling_phase_actually_prunes_scans() {
    // On uniform data the sampling phase should converge long before
    // scanning everything: the final ball from a 5% sample already covers
    // almost all points.
    let pts = datagen::uniform_cube::<3>(50_000, 11);
    let sample = &pts[..2_500];
    let b = seb_welzl_seq(sample);
    let outliers = pts.iter().filter(|p| !b.contains(p)).count();
    assert!(
        outliers < pts.len() / 20,
        "sample ball should cover ≥95%, {outliers} escaped"
    );
}

/// `Ball::contains` has no absolute slack: a set whose radius is far below
/// 1e-5 gets a ball that encloses it, from the kernel and through the
/// store alike, and scaling the input by a power of two scales the radius
/// and nothing else.
#[test]
fn seb_is_scale_invariant_down_to_tiny_inputs() {
    use pargeo::store::{GeoStore, Request, Response};
    let unit = datagen::uniform_cube::<2>(2_000, 31);
    let r1 = seb::try_seb(&unit).unwrap().radius;
    for e in [-16, -20, -100] {
        let scale = 2f64.powi(e);
        let pts: Vec<Point<2>> = unit.iter().map(|&p| p * scale).collect();
        let mut store: GeoStore<2> = GeoStore::builder().build();
        let served = match store.execute(&[Request::Insert(pts.clone()), Request::Seb])[1] {
            Ok(Response::Seb(b)) => b,
            ref other => panic!("2^{e}: {other:?}"),
        };
        for (via, ball) in [("try_seb", seb::try_seb(&pts).unwrap()), ("store", served)] {
            let r = ball.radius;
            assert!(
                (r - r1 * scale).abs() <= 1e-9 * r1 * scale,
                "2^{e} {via}: radius {r}"
            );
            for p in &pts {
                let d = p.dist(&ball.center);
                assert!(d <= r * (1.0 + 1e-9), "2^{e} {via}: {p:?} at {d} > {r}");
            }
        }
    }
}

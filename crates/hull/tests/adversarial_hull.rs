//! Adversarial inputs through the reservation driver and the hulls built
//! on it: a million copies of a few positions, a circle on which every
//! point is a vertex, and a duplicated sphere in 3D.

use pargeo_datagen::on_sphere;
use pargeo_geometry::{orient2d, Orientation, Point2, Point3};
use pargeo_hull::hull2d::validate::check_hull2d;
use pargeo_hull::hull3d::validate::check_hull3d;
use pargeo_hull::*;
use std::collections::HashMap;

type Algo2 = fn(&[Point2]) -> Vec<u32>;

/// Every 2D algorithm returns the quickhull's index vector: a strictly
/// convex cycle, each corner under the smallest index holding its
/// coordinates.
fn all_2d_agree(pts: &[Point2]) -> Vec<u32> {
    let want = hull2d_quickhull_parallel(pts);
    let mut first = HashMap::new();
    for (i, p) in pts.iter().enumerate().rev() {
        first.insert(p.coords.map(f64::to_bits), i as u32);
    }
    let at = |k: usize| &pts[want[k % want.len()] as usize];
    for (k, &v) in want.iter().enumerate() {
        assert_eq!(first[&at(k).coords.map(f64::to_bits)], v, "corner {k}");
        assert_eq!(orient2d(at(k), at(k + 1), at(k + 2)), Orientation::Positive);
    }
    let algos: [(&str, Algo2); 4] = [
        ("seq", hull2d_seq),
        ("randinc", hull2d_randinc),
        ("dnc", hull2d_divide_conquer),
        ("try_hull2d", |pts| try_hull2d(pts).unwrap()),
    ];
    for (name, f) in algos {
        assert_eq!(f(pts), want, "{name}");
    }
    want
}

#[test]
fn a_million_copies_of_a_few_positions() {
    // Four corners of a square, a point on one side and three inside; the
    // first copy of each position sits far from index 0.
    let positions = [
        [0.0, 0.0],
        [8.0, 0.0],
        [8.0, 8.0],
        [0.0, 8.0],
        [4.0, 0.0],
        [3.0, 3.0],
        [5.0, 2.0],
        [1.0, 7.0],
    ];
    let pts: Vec<Point2> = (0..1_000_000u64)
        .map(|i| {
            let h = (i + 12_345).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
            Point2::new(positions[h as usize])
        })
        .collect();
    let hull = all_2d_agree(&pts);
    check_hull2d(&pts, &hull).unwrap();
    assert_eq!(hull.len(), 4);
}

#[test]
fn every_point_of_a_circle_is_a_vertex() {
    // Evenly spaced angles, scattered over the indices.
    let n = 200_000u64;
    let pts: Vec<Point2> = (0..n)
        .map(|i| {
            let angle = ((i * 7_919) % n) as f64 * std::f64::consts::TAU / n as f64;
            Point2::new([1e3 * angle.cos(), 1e3 * angle.sin()])
        })
        .collect();
    // Strictly convex through all n points: nothing can lie outside.
    assert_eq!(all_2d_agree(&pts).len(), n as usize);
}

#[test]
fn duplicated_sphere_in_3d() {
    let base = on_sphere::<3>(2_000, 7);
    let pts: Vec<Point3> = base.iter().chain(base.iter().rev()).copied().collect();
    let coords = |h: &Hull3d| {
        let mut v: Vec<[f64; 3]> = h.vertices.iter().map(|&i| pts[i as usize].coords).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    };
    let want = coords(&hull3d_seq(&pts));
    let algos: [(&str, fn(&[Point3]) -> Hull3d); 5] = [
        ("randinc", hull3d_randinc),
        ("quickhull", hull3d_quickhull_parallel),
        ("pseudo", hull3d_pseudo),
        ("dnc", hull3d_divide_conquer),
        ("try_hull3d", |pts| try_hull3d(pts).unwrap()),
    ];
    for (name, f) in algos {
        let h = f(&pts);
        check_hull3d(&pts, &h).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(coords(&h), want, "{name}");
    }
}

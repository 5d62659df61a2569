//! Property-based tests for the convex hull algorithms: validity and
//! cross-algorithm agreement over arbitrary (degenerate-rich) inputs.

use pargeo_geometry::{Point2, Point3};
use pargeo_hull::hull2d::validate::check_hull2d;
use pargeo_hull::hull3d::validate::check_hull3d;
use pargeo_hull::*;
use proptest::prelude::*;

/// Integer grids produce masses of collinear/coplanar/duplicate cases.
fn grid_points2(max: i32) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0..max, 0..max).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        1..120,
    )
}

fn grid_points3(max: i32) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec(
        (0..max, 0..max, 0..max).prop_map(|(x, y, z)| Point3::new([x as f64, y as f64, z as f64])),
        1..100,
    )
}

fn smooth_points2() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (-1e6f64..1e6, -1e6f64..1e6).prop_map(|(x, y)| Point2::new([x, y])),
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hull2d_all_valid_and_agree_on_grids(pts in grid_points2(12)) {
        let seq = hull2d_seq(&pts);
        check_hull2d(&pts, &seq).unwrap();
        // Every corner under the first index holding its coordinates.
        for &v in &seq {
            prop_assert_eq!(pts.iter().position(|p| *p == pts[v as usize]), Some(v as usize));
        }
        for f in [hull2d_quickhull_parallel, hull2d_randinc, hull2d_divide_conquer] {
            prop_assert_eq!(&f(&pts), &seq);
        }
    }

    /// The same index vector from all four on duplicate-heavy input: a
    /// few distinct positions, each held by many indices.
    #[test]
    fn hull2d_all_agree_on_duplicate_heavy_input(pts in grid_points2(4)) {
        let seq = hull2d_seq(&pts);
        check_hull2d(&pts, &seq).unwrap();
        for f in [hull2d_quickhull_parallel, hull2d_randinc, hull2d_divide_conquer] {
            prop_assert_eq!(&f(&pts), &seq);
        }
    }

    #[test]
    fn hull2d_valid_on_smooth_points(pts in smooth_points2()) {
        let seq = hull2d_seq(&pts);
        check_hull2d(&pts, &seq).unwrap();
        for f in [hull2d_quickhull_parallel, hull2d_randinc, hull2d_divide_conquer] {
            prop_assert_eq!(&f(&pts), &seq);
        }
    }

    /// On degenerate grids, different algorithms may report boundary points
    /// that lie on facet interiors differently (a point inserted early can
    /// end up exactly on a facet spanned by later points), so vertex sets
    /// are not canonical — but the hull *geometry* is. Compare volumes
    /// (signed-tetra sums over the closed, outward-oriented surfaces).
    #[test]
    fn hull3d_all_valid_and_same_volume_on_grids(pts in grid_points3(8)) {
        fn volume(pts: &[Point3], h: &Hull3d) -> f64 {
            h.facets
                .iter()
                .map(|f| {
                    let a = pts[f[0] as usize];
                    let b = pts[f[1] as usize];
                    let c = pts[f[2] as usize];
                    // Signed volume of the tetra (origin, a, b, c); outward
                    // orientation makes the sum the enclosed volume (up to
                    // a global sign fixed by the orientation convention).
                    a.dot(&b.cross(&c)) / 6.0
                })
                .sum::<f64>()
                .abs()
        }
        let seq = hull3d_seq(&pts);
        check_hull3d(&pts, &seq).unwrap();
        let v_ref = volume(&pts, &seq);
        for f in [
            hull3d_randinc,
            hull3d_quickhull_parallel,
            hull3d_divide_conquer,
            hull3d_pseudo,
        ] {
            let h = f(&pts);
            check_hull3d(&pts, &h).unwrap();
            let v = volume(&pts, &h);
            prop_assert!((v - v_ref).abs() <= 1e-9 * (1.0 + v_ref), "{v} vs {v_ref}");
        }
    }

    /// Scaling and translating the input never changes the hull's vertex
    /// set (affine invariance with exactly-representable transforms).
    #[test]
    fn hull2d_affine_invariance(pts in grid_points2(16), shift in 0i32..1000) {
        prop_assume!(pts.len() >= 3);
        let moved: Vec<Point2> = pts
            .iter()
            .map(|p| Point2::new([p[0] * 4.0 + shift as f64, p[1] * 4.0 - shift as f64]))
            .collect();
        let a: std::collections::BTreeSet<u32> = hull2d_seq(&pts).into_iter().collect();
        let b: std::collections::BTreeSet<u32> = hull2d_seq(&moved).into_iter().collect();
        // Same index sets (the transform is injective and order-preserving
        // per coordinate).
        prop_assert_eq!(a, b);
    }
}

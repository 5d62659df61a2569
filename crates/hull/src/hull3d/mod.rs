//! 3-dimensional convex hull (paper §3).
//!
//! All algorithms return a [`Hull3d`]: outward-oriented triangles plus the
//! set of hull vertices. Facets are triangles under the strict-visibility
//! rule (a point exactly on a facet's plane is *not* visible), so points
//! interior to faces/edges are never hull vertices.
//!
//! In general position the hull's vertex set is a property of the input
//! and every algorithm reports the same sorted `vertices` (facet *order*
//! is each algorithm's own). On coplanar-rich input — several points
//! exactly on one hull face, as on a lattice or a cube's sides — the
//! family agrees on the hull's *geometry* only: how a flat face is
//! triangulated, and therefore which of its on-face points appear as
//! triangle corners, depends on insertion order. [`try_hull3d`]'s
//! `vertices` are canonical only in general position.
//!
//! Every algorithm inserts points through one kernel (`mesh`): the
//! sequential quickhull directly, the reservation driver (Figure 5) many
//! at a time, and the pseudohull and divide-and-conquer variants by
//! culling the input first and finishing on the reservation quickhull.
//! [`try_hull3d`] runs the pseudohull variant, the fastest on every
//! distribution of Figure 9 (EXPERIMENTS.md `fig9`).
//!
//! Degenerate inputs (all points collinear or coplanar) have no 3D hull;
//! they are handled by projecting onto the dominant plane and returning the
//! 2D hull vertices with an empty facet list. A NaN or infinite coordinate
//! is refused by the `try_*` entry points; the others' answer is unspecified.

mod dnc;
mod mesh;
mod pseudo;
mod reservation;
mod seq;
pub mod validate;

pub use crate::reservation::HullStats;
pub use dnc::hull3d_divide_conquer;
pub use mesh::Hull3d;
pub use pseudo::{hull3d_pseudo, hull3d_pseudo_with_threshold};
pub use reservation::{
    hull3d_quickhull_parallel, hull3d_quickhull_parallel_with_stats, hull3d_randinc,
    hull3d_randinc_seeded, hull3d_randinc_with_stats,
};
pub use seq::{hull3d_seq, hull3d_seq_with_stats};

use pargeo_geometry::{orient3d, GeoError, GeoResult, Orientation, Point3};

/// Non-panicking 3D hull that *rejects* inputs with no full-dimensional
/// hull — empty, fewer than four points, a NaN or infinite coordinate, or
/// all collinear/coplanar — with a typed [`GeoError`] instead of degrading
/// to the projected 2D hull, then runs `algo` (any of this crate's
/// `hull3d_*` entry points).
pub fn try_hull3d_with(points: &[Point3], algo: fn(&[Point3]) -> Hull3d) -> GeoResult<Hull3d> {
    initial_tetrahedron(points)?;
    Ok(algo(points))
}

/// The default 3D hull: [`try_hull3d_with`]'s checks, then the pseudohull
/// cull + reservation quickhull ([`hull3d_pseudo`]) — the family's fastest
/// member on every distribution of Figure 9 — started from the seed
/// tetrahedron the check already found.
pub fn try_hull3d(points: &[Point3]) -> GeoResult<Hull3d> {
    let tetra = initial_tetrahedron(points)?;
    Ok(pseudo::pseudo_from(
        points,
        tetra,
        pseudo::DEFAULT_CULL_THRESHOLD,
    ))
}

/// Picks four affinely independent points (the initial tetrahedron), or
/// names why the input has none with a typed [`GeoError`]: empty, fewer
/// than four points, a non-finite coordinate (which the first pass finds:
/// it outranks every finite point), or all collinear/coplanar.
pub(crate) fn initial_tetrahedron(points: &[Point3]) -> GeoResult<[u32; 4]> {
    if points.len() < 4 {
        return Err(match points.len() {
            0 => GeoError::EmptyInput { op: "hull3d" },
            got => GeoError::TooFewPoints {
                op: "hull3d",
                needed: 4,
                got,
            },
        });
    }
    let flat = GeoError::Degenerate {
        op: "hull3d",
        what: "coplanar",
    };
    let lex_min = |p: &Point3| (!p.is_finite(), -p[0], -p[1], -p[2]);
    let p0 = pargeo_parlay::max_index_by(points, lex_min).ok_or(flat)? as u32;
    let a = points[p0 as usize];
    if !a.is_finite() {
        return Err(GeoError::BadParameter {
            op: "hull3d",
            what: "non-finite coordinate",
        });
    }
    let p1 = pargeo_parlay::max_index_by(points, |p| p.dist_sq(&a)).ok_or(flat)? as u32;
    let b = points[p1 as usize];
    let ab = b - a;
    let p2 = pargeo_parlay::max_index_by(points, |p| ab.cross(&(*p - a)).norm_sq()).ok_or(flat)?;
    let c = points[p2];
    if ab.cross(&(c - a)).norm_sq() == 0.0 {
        return Err(flat); // all coincident or collinear
    }
    // Furthest from the plane by |double det| as a heuristic, validated by
    // the exact predicate.
    let height = |p: &Point3| ((*p - a).dot(&ab.cross(&(c - a)))).abs();
    let p3 = pargeo_parlay::max_index_by(points, height).ok_or(flat)?;
    if orient3d(&a, &b, &c, &points[p3]) == Orientation::Zero {
        return Err(flat); // all coplanar
    }
    Ok([p0, p1, p2 as u32, p3 as u32])
}

/// Fallback for flat inputs: project on the dominant plane and take the 2D
/// hull (facets stay empty).
pub(crate) fn degenerate_hull3d(points: &[Point3]) -> Hull3d {
    use pargeo_geometry::Point2;
    if points.is_empty() {
        return Hull3d {
            facets: Vec::new(),
            vertices: Vec::new(),
        };
    }
    // Dominant plane: drop the coordinate with the smallest extent.
    let bbox = pargeo_geometry::Bbox::from_points(points);
    let drop_dim = (0..3)
        .min_by(|&i, &j| bbox.side(i).partial_cmp(&bbox.side(j)).unwrap())
        .unwrap();
    let keep: Vec<usize> = (0..3).filter(|&i| i != drop_dim).collect();
    let projected: Vec<Point2> = points
        .iter()
        .map(|p| Point2::new([p[keep[0]], p[keep[1]]]))
        .collect();
    let vertices = crate::hull2d::hull2d_seq(&projected);
    Hull3d {
        facets: Vec::new(),
        vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::validate::check_hull3d;
    use super::*;
    use pargeo_datagen::{in_sphere, on_cube, on_sphere, statue_surface, uniform_cube};

    type Algo = fn(&[Point3]) -> Hull3d;

    fn algos() -> Vec<(&'static str, Algo)> {
        vec![
            ("seq", hull3d_seq as Algo),
            ("randinc", hull3d_randinc as Algo),
            ("quickhull", hull3d_quickhull_parallel as Algo),
            ("dnc", hull3d_divide_conquer as Algo),
            ("pseudo", hull3d_pseudo as Algo),
        ]
    }

    fn check_all(points: &[Point3]) {
        let reference: Vec<[f64; 3]> = {
            let mut v: Vec<[f64; 3]> = hull3d_seq(points)
                .vertices
                .iter()
                .map(|&i| points[i as usize].coords)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        for (name, f) in algos() {
            let h = f(points);
            check_hull3d(points, &h).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut got: Vec<[f64; 3]> = h
                .vertices
                .iter()
                .map(|&i| points[i as usize].coords)
                .collect();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, reference, "{name} vertex set differs from seq");
        }
    }

    #[test]
    fn all_algorithms_agree_uniform() {
        check_all(&uniform_cube::<3>(2_000, 41));
    }

    #[test]
    fn all_algorithms_agree_in_sphere() {
        check_all(&in_sphere::<3>(2_000, 42));
    }

    #[test]
    fn all_algorithms_agree_on_sphere() {
        check_all(&on_sphere::<3>(1_000, 43));
    }

    #[test]
    fn all_algorithms_agree_on_cube() {
        check_all(&on_cube::<3>(1_500, 44));
    }

    #[test]
    fn all_algorithms_agree_statue() {
        check_all(&statue_surface(1_000, 45));
    }

    #[test]
    fn tetrahedron_exact() {
        let pts = vec![
            Point3::new([0.0, 0.0, 0.0]),
            Point3::new([1.0, 0.0, 0.0]),
            Point3::new([0.0, 1.0, 0.0]),
            Point3::new([0.0, 0.0, 1.0]),
            Point3::new([0.1, 0.1, 0.1]), // interior
        ];
        for (name, f) in algos() {
            let h = f(&pts);
            check_hull3d(&pts, &h).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(h.vertices, vec![0, 1, 2, 3], "{name}");
            assert_eq!(h.facets.len(), 4, "{name}");
        }
    }

    #[test]
    fn coplanar_input_degrades_to_2d() {
        let pts: Vec<Point3> = (0..100)
            .map(|i| {
                let t = i as f64;
                Point3::new([t.sin() * 10.0, t.cos() * 10.0, 5.0])
            })
            .collect();
        for (name, f) in algos() {
            let h = f(&pts);
            assert!(h.facets.is_empty(), "{name} should have no 3D facets");
            assert!(!h.vertices.is_empty(), "{name}");
        }
    }

    #[test]
    fn try_hull3d_rejects_degenerate_inputs() {
        assert_eq!(try_hull3d(&[]), Err(GeoError::EmptyInput { op: "hull3d" }));
        let tri = [
            Point3::new([0.0, 0.0, 0.0]),
            Point3::new([1.0, 0.0, 0.0]),
            Point3::new([0.0, 1.0, 0.0]),
        ];
        assert_eq!(
            try_hull3d(&tri),
            Err(GeoError::TooFewPoints {
                op: "hull3d",
                needed: 4,
                got: 3
            })
        );
        let coplanar: Vec<Point3> = (0..60)
            .map(|i| {
                let t = i as f64;
                Point3::new([t.sin() * 10.0, t.cos() * 10.0, 5.0])
            })
            .collect();
        for (_, f) in algos() {
            assert_eq!(
                try_hull3d_with(&coplanar, f),
                Err(GeoError::Degenerate {
                    op: "hull3d",
                    what: "coplanar"
                })
            );
        }
        let line: Vec<Point3> = (0..50)
            .map(|i| Point3::new([i as f64, 2.0 * i as f64, -i as f64]))
            .collect();
        assert_eq!(
            try_hull3d(&line),
            Err(GeoError::Degenerate {
                op: "hull3d",
                what: "coplanar"
            })
        );
        let tetra = [
            Point3::new([0.0, 0.0, 0.0]),
            Point3::new([1.0, 0.0, 0.0]),
            Point3::new([0.0, 1.0, 0.0]),
            Point3::new([0.0, 0.0, 1.0]),
        ];
        assert_eq!(try_hull3d(&tetra).unwrap().facets.len(), 4);
    }

    /// 1 000 uniform points with one coordinate made NaN or infinite, at
    /// the first, a middle and the last index.
    fn non_finite_inputs() -> Vec<Vec<Point3>> {
        let mut inputs = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 500, 999] {
                let mut pts = uniform_cube::<3>(1_000, 48);
                pts[at].coords[at % 3] = bad;
                inputs.push(pts);
            }
        }
        inputs
    }

    const NON_FINITE: GeoResult<Hull3d> = Err(GeoError::BadParameter {
        op: "hull3d",
        what: "non-finite coordinate",
    });

    #[test]
    fn try_hull3d_refuses_non_finite_coordinates() {
        for pts in non_finite_inputs() {
            assert_eq!(try_hull3d(&pts), NON_FINITE);
        }
    }

    #[test]
    fn try_hull3d_with_refuses_non_finite_coordinates() {
        for pts in non_finite_inputs() {
            for (name, f) in algos() {
                assert_eq!(try_hull3d_with(&pts, f), NON_FINITE, "{name}");
            }
        }
    }

    #[test]
    fn collinear_and_tiny_inputs() {
        let line: Vec<Point3> = (0..50)
            .map(|i| Point3::new([i as f64, 2.0 * i as f64, -i as f64]))
            .collect();
        for (name, f) in algos() {
            let h = f(&line);
            assert!(h.facets.is_empty(), "{name}");
            assert!(
                h.vertices.contains(&0) && h.vertices.contains(&49),
                "{name}"
            );
            assert!(f(&[]).vertices.is_empty(), "{name}");
            let single = f(&[Point3::new([1.0, 2.0, 3.0])]);
            assert_eq!(single.vertices, vec![0], "{name}");
        }
    }

    #[test]
    fn duplicates_are_harmless() {
        let mut pts = uniform_cube::<3>(800, 46);
        let dups: Vec<Point3> = pts.iter().step_by(5).copied().collect();
        pts.extend(dups);
        check_all(&pts);
    }

    #[test]
    fn euler_formula_holds() {
        let pts = uniform_cube::<3>(3_000, 47);
        let h = hull3d_seq(&pts);
        // V - E + F = 2 for a triangulated sphere: E = 3F/2.
        let v = h.vertices.len() as i64;
        let f = h.facets.len() as i64;
        assert_eq!(v - 3 * f / 2 + f, 2, "V={v} F={f}");
    }
}

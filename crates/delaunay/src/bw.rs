//! The library's Bowyer–Watson driver: the [`TriMesh`] kernel's insertion
//! loop over the Morton order of the input.

use crate::tri::TriMesh;
use pargeo_geometry::{orient2d, GeoError, GeoResult, Orientation, Point2};

/// A Delaunay triangulation of the input point set (duplicates collapse
/// onto their first occurrence; collinear inputs produce no triangles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delaunay {
    /// CCW triangles over original input indices.
    pub triangles: Vec<[u32; 3]>,
}

impl Delaunay {
    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// True iff the input admitted no full-dimensional triangulation.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }
}

/// The error for input with no 2-D extent: all points collinear or
/// coincident.
const FLAT: GeoError = GeoError::Degenerate {
    op: "delaunay",
    what: "collinear",
};

/// Rejects NaN and infinite coordinates, which no predicate orders.
pub(crate) fn check_finite(points: &[Point2]) -> GeoResult<()> {
    if points
        .iter()
        .any(|p| !(p[0].is_finite() && p[1].is_finite()))
    {
        return Err(GeoError::BadParameter {
            op: "delaunay",
            what: "non-finite coordinate",
        });
    }
    Ok(())
}

/// The input checks shared by the fallible entry points. Flat input is
/// refused by one early-exit scan — two distinct points, then any third
/// off their line — before a single point is inserted; that first
/// non-collinear triple is returned as the mesh's seed.
pub(crate) fn check_input(points: &[Point2]) -> GeoResult<[u32; 3]> {
    if points.is_empty() {
        return Err(GeoError::EmptyInput { op: "delaunay" });
    }
    if points.len() < 3 {
        return Err(GeoError::TooFewPoints {
            op: "delaunay",
            needed: 3,
            got: points.len(),
        });
    }
    check_finite(points)?;
    let a = &points[0];
    let b = points.iter().position(|p| p != a).ok_or(FLAT)?;
    let c = points
        .iter()
        .position(|q| orient2d(a, &points[b], q) != Orientation::Zero)
        .ok_or(FLAT)?;
    Ok([0, b as u32, c as u32])
}

/// Delaunay triangulation by Bowyer–Watson insertion in Morton order (a
/// BRIO-style locality order). Inputs [`try_delaunay`] rejects give no
/// triangles.
pub fn delaunay(points: &[Point2]) -> Delaunay {
    try_delaunay(points).unwrap_or(Delaunay {
        triangles: Vec::new(),
    })
}

/// Non-panicking Delaunay triangulation: rejects inputs that admit no
/// full-dimensional triangulation — empty, fewer than three points, a
/// non-finite coordinate, or all points collinear/coincident — with a
/// typed [`GeoError`] instead of returning an empty triangle list.
pub fn try_delaunay(points: &[Point2]) -> GeoResult<Delaunay> {
    let mut mesh = TriMesh::new(points, check_input(points)?);
    let order = pargeo_morton::morton_sort(&mut points.to_vec());
    mesh.insert_all(order, f64::INFINITY);
    Ok(Delaunay {
        triangles: mesh.extract(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tri::validate_delaunay;
    use crate::{delaunay_edges, DelaunayIncremental};
    use pargeo_datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};
    use pargeo_parlay as parlay;

    fn canonical(tris: &[[u32; 3]]) -> Vec<[u32; 3]> {
        let mut out: Vec<[u32; 3]> = tris
            .iter()
            .map(|t| {
                // Rotate so the smallest vertex leads (CCW preserved).
                let k = (0..3).min_by_key(|&i| t[i]).unwrap();
                [t[k], t[(k + 1) % 3], t[(k + 2) % 3]]
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn seq_is_delaunay_uniform() {
        let pts = uniform_cube::<2>(400, 1);
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
    }

    /// One insertion loop, two orders: the perturbed triangulation is
    /// unique, so Morton order and the store's index order build the same
    /// edges (`tests/metamorphic.rs` covers cocircular input).
    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..3 {
            let pts = uniform_cube::<2>(500, seed);
            let morton = delaunay(&pts);
            validate_delaunay(&pts, &morton.triangles).unwrap();
            let index = DelaunayIncremental::try_build(&pts).unwrap();
            assert_eq!(
                delaunay_edges(&morton),
                index.edges().unwrap(),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn clustered_data() {
        let pts = seed_spreader::<2>(600, 5, SeedSpreaderParams::default());
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
    }

    #[test]
    fn try_delaunay_rejects_degenerate_inputs() {
        assert_eq!(
            try_delaunay(&[]),
            Err(GeoError::EmptyInput { op: "delaunay" })
        );
        let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 0.0])];
        assert_eq!(
            try_delaunay(&two),
            Err(GeoError::TooFewPoints {
                op: "delaunay",
                needed: 3,
                got: 2
            })
        );
        let line: Vec<Point2> = (0..30).map(|i| Point2::new([i as f64, i as f64])).collect();
        assert_eq!(try_delaunay(&line), Err(FLAT));
        // Copies of one line point ahead of the line, and one point alone.
        let mut late = vec![line[7]; 20];
        late.extend(&line);
        assert_eq!(try_delaunay(&late), Err(FLAT));
        assert_eq!(try_delaunay(&[line[3]; 9]), Err(FLAT));
        // One point off the line, last, is enough: a fan over the line.
        late.push(Point2::new([0.0, 1.0]));
        assert_eq!(try_delaunay(&late).unwrap().len(), 29);
        let pts = uniform_cube::<2>(100, 9);
        assert!(!try_delaunay(&pts).unwrap().is_empty());
    }

    #[test]
    fn euler_and_edge_sharing() {
        let pts = uniform_cube::<2>(800, 7);
        let d = delaunay(&pts);
        let mut edge_count: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for t in &d.triangles {
            for i in 0..3 {
                let (a, b) = (t[i], t[(i + 1) % 3]);
                *edge_count.entry((a.min(b), a.max(b))).or_default() += 1;
            }
        }
        // Every edge borders one (hull) or two (interior) triangles.
        assert!(edge_count.values().all(|&c| c <= 2));
        let e = edge_count.len() as i64;
        let f = d.triangles.len() as i64 + 1; // plus the outer face
        let mut verts: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for t in &d.triangles {
            verts.extend(t.iter());
        }
        let v = verts.len() as i64;
        assert_eq!(v - e + f, 2, "Euler failed: V={v} E={e} F={f}");
    }

    #[test]
    fn duplicates_collapse() {
        let mut pts = uniform_cube::<2>(200, 9);
        let extra: Vec<Point2> = pts.iter().step_by(4).copied().collect();
        pts.extend(extra);
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
        // No triangle uses two copies of the same location.
        for t in &d.triangles {
            assert_ne!(pts[t[0] as usize], pts[t[1] as usize]);
            assert_ne!(pts[t[1] as usize], pts[t[2] as usize]);
            assert_ne!(pts[t[0] as usize], pts[t[2] as usize]);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(delaunay(&[]).is_empty());
        assert!(delaunay(&[Point2::new([0.0, 0.0])]).is_empty());
        let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 1.0])];
        assert!(delaunay(&two).is_empty());
        let collinear: Vec<Point2> = (0..50).map(|i| Point2::new([i as f64, i as f64])).collect();
        assert!(delaunay(&collinear).is_empty());
    }

    #[test]
    fn grid_with_cocircular_points_is_valid() {
        // A regular grid is maximally degenerate (every quad cocircular).
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
        // A triangulated 11x11 grid of unit squares: 242 triangles.
        assert_eq!(d.triangles.len(), 242);
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<2>(1_000, 11);
        let a = parlay::with_threads(1, || delaunay(&pts));
        let b = parlay::with_threads(4, || delaunay(&pts));
        assert_eq!(canonical(&a.triangles), canonical(&b.triangles));
    }
}

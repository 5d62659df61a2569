//! 2-dimensional convex hull.
//!
//! All four algorithms return the *same* index vector: the hull vertices in
//! counterclockwise order starting from the lexicographically smallest
//! point, each corner under the smallest index holding its coordinates.
//! Collinear boundary points are *not* reported (strict hull), and
//! degenerate inputs (≤ 2 distinct points, or all collinear) return the
//! extreme points only; input with a NaN or infinite coordinate, none.
//!
//! [`try_hull2d`] runs the parallel quickhull: with one fused pass per
//! level and the interior box of the extreme-point scan in front of its
//! first level it is the sequential quickhull chunked, and the fastest of
//! the four on every distribution of Figure 8 at one thread (EXPERIMENTS.md
//! `fig8`); divide-and-conquer and the reservation algorithm (the 3D
//! hulls' Figure 5 driver over hull edges) stay selectable through
//! [`try_hull2d_with`]. Both refuse a NaN or infinite coordinate.

mod dnc;
mod inc;
mod prefilter;
mod quickhull;
mod randinc;
mod seq;
pub mod validate;

pub use dnc::hull2d_divide_conquer;
pub use inc::{Hull2dIncremental, HullBatchOutcome};
pub use quickhull::hull2d_quickhull_parallel;
pub use randinc::hull2d_randinc;
pub use seq::hull2d_seq;

use pargeo_geometry::{orient2d, GeoError, GeoResult, Orientation, Point2};

/// Non-panicking 2D hull that *rejects* inputs with no full-dimensional
/// hull — empty, fewer than three points, a NaN or infinite coordinate,
/// all coincident, or all collinear — with a typed [`GeoError`] instead of
/// silently returning the extreme points, then runs `algo` (any of this
/// crate's `hull2d_*` entry points).
pub fn try_hull2d_with(points: &[Point2], algo: fn(&[Point2]) -> Vec<u32>) -> GeoResult<Vec<u32>> {
    full_dimensional(points)?;
    Ok(algo(points))
}

/// The default 2D hull: [`try_hull2d_with`]'s checks, then the parallel
/// quickhull ([`hull2d_quickhull_parallel`]) — the family's fastest member
/// at one thread on every distribution of Figure 8 — started from the
/// extremes the check already found.
pub fn try_hull2d(points: &[Point2]) -> GeoResult<Vec<u32>> {
    let ext = full_dimensional(points)?;
    Ok(quickhull::quickhull_from(points, &ext))
}

/// The [`Extremes`] of an input that has a 2D hull, or the typed
/// [`GeoError`] naming why it has none.
fn full_dimensional(points: &[Point2]) -> GeoResult<Extremes> {
    if points.is_empty() {
        return Err(GeoError::EmptyInput { op: "hull2d" });
    }
    if points.len() < 3 {
        return Err(GeoError::TooFewPoints {
            op: "hull2d",
            needed: 3,
            got: points.len(),
        });
    }
    // Non-empty input with no extreme point has a non-finite coordinate.
    extremes(points).map_err(|flat| match flat.len() {
        0 => GeoError::BadParameter {
            op: "hull2d",
            what: "non-finite coordinate",
        },
        n => GeoError::Degenerate {
            op: "hull2d",
            what: if n == 1 { "coincident" } else { "collinear" },
        },
    })
}

/// True iff `q` lies strictly to the right of the directed line `a → b`
/// (i.e. `q` sees the CCW hull edge `(a, b)` from outside).
#[inline]
pub(crate) fn sees(points: &[Point2], a: u32, b: u32, q: u32) -> bool {
    orient2d(
        &points[a as usize],
        &points[b as usize],
        &points[q as usize],
    ) == Orientation::Negative
}

/// Squared "distance" proxy of `q` from line `a → b` (twice the signed
/// triangle area; sign dropped). Used only to *select* split points, never
/// to decide predicates, so plain doubles are fine.
#[inline]
pub(crate) fn line_dist(points: &[Point2], a: u32, b: u32, q: u32) -> f64 {
    let pa = points[a as usize];
    let pb = points[b as usize];
    let pq = points[q as usize];
    ((pb - pa).cross2(&(pq - pa))).abs()
}

/// Projection of `q` along the chord direction `a → b` (tie-break key for
/// furthest-point selection: among points tied at the same distance — a
/// collinear chain parallel to the chord — the extremes of the chain have
/// extremal projections, and only they are true hull vertices, so
/// maximizing `(distance, projection)` never emits a mid-chain point).
#[inline]
pub(crate) fn proj_along(points: &[Point2], a: u32, b: u32, q: u32) -> f64 {
    let pa = points[a as usize];
    let pb = points[b as usize];
    let pq = points[q as usize];
    (pq - pa).dot(&(pb - pa))
}

/// Removes vertices that lie on the segment between their hull neighbors.
///
/// The incremental algorithms never revisit a vertex once added, so a point
/// inserted early can end up exactly *on* a final hull edge (a later point
/// extended the edge past it). Quickhull's strict recursion excludes such
/// points; stripping them here keeps all algorithms' outputs identical
/// (strict hull semantics).
pub(crate) fn strip_collinear(points: &[Point2], hull: Vec<u32>) -> Vec<u32> {
    if hull.len() < 3 {
        return hull;
    }
    let orient = |a: u32, b: u32, c: u32| {
        orient2d(
            &points[a as usize],
            &points[b as usize],
            &points[c as usize],
        )
    };
    let mut out: Vec<u32> = Vec::with_capacity(hull.len());
    for &v in &hull {
        while out.len() >= 2
            && orient(out[out.len() - 2], out[out.len() - 1], v) == Orientation::Zero
        {
            out.pop();
        }
        out.push(v);
    }
    // Wrap-around: the seam at out[0] / out[last] may still be collinear.
    loop {
        let n = out.len();
        if n >= 3 && orient(out[n - 2], out[n - 1], out[0]) == Orientation::Zero {
            out.pop();
            continue;
        }
        let n = out.len();
        if n >= 3 && orient(out[n - 1], out[0], out[1]) == Orientation::Zero {
            out.remove(0);
            continue;
        }
        break;
    }
    out
}

/// Rotates a vertex cycle to start at its lexicographically smallest
/// point (the canonical start every algorithm reports).
pub(crate) fn rotate_to_lex_min(points: &[Point2], cycle: &mut [u32]) {
    let lex = |v: &u32| points[*v as usize].coords;
    let start = (0..cycle.len()).min_by(|&i, &j| {
        lex(&cycle[i])
            .partial_cmp(&lex(&cycle[j]))
            .expect("finite coords")
    });
    cycle.rotate_left(start.unwrap_or(0));
}

/// What every quickhull starts from, on a full-dimensional input.
pub(crate) struct Extremes {
    /// The lexicographically smallest and largest points — the first
    /// chord — each the minimal index holding its coordinates.
    pub lo: u32,
    pub hi: u32,
    /// Points strictly inside are interior to the hull.
    pub inner: prefilter::InnerBox,
}

/// One scan for the [`Extremes`]. `Err` carries the whole answer for an
/// input with no 2D hull: its extreme point(s) if it is a single point or
/// all collinear, none if it is empty or has a NaN or infinite coordinate.
pub(crate) fn extremes(points: &[Point2]) -> Result<Extremes, Vec<u32>> {
    if points.is_empty() {
        return Err(Vec::new());
    }
    let (lo, hi, inner) = prefilter::scan(points);
    let (a, b) = (&points[lo as usize], &points[hi as usize]);
    if !a.is_finite() {
        return Err(Vec::new()); // a non-finite point is the minimum
    }
    if a == b {
        return Err(vec![lo.min(hi)]);
    }
    // Any point off the line lo–hi proves full dimensionality.
    if points
        .iter()
        .all(|q| orient2d(a, b, q) == Orientation::Zero)
    {
        return Err(vec![lo, hi]);
    }
    Ok(Extremes { lo, hi, inner })
}

#[cfg(test)]
mod tests {
    use super::validate::check_hull2d;
    use super::*;
    use pargeo_datagen::{in_sphere, on_cube, on_sphere, uniform_cube};

    type Algo = fn(&[Point2]) -> Vec<u32>;

    fn algos() -> Vec<(&'static str, Algo)> {
        vec![
            ("seq", hull2d_seq as Algo),
            ("quickhull", hull2d_quickhull_parallel as Algo),
            ("randinc", hull2d_randinc as Algo),
            ("dnc", hull2d_divide_conquer as Algo),
        ]
    }

    /// Every algorithm must return the same index vector: counterclockwise
    /// from the lexicographically smallest point, each corner under the
    /// smallest index holding its coordinates.
    fn check_all(points: &[Point2]) {
        let reference = hull2d_seq(points);
        for (name, f) in algos() {
            let h = f(points);
            check_hull2d(points, &h).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(h, reference, "{name} disagrees with seq");
        }
        for (i, &v) in reference.iter().enumerate() {
            let first = points.iter().position(|p| *p == points[v as usize]);
            assert_eq!(first, Some(v as usize), "corner {i} is not its first copy");
        }
        let lex = |v: &u32| points[*v as usize].coords;
        let start = reference
            .iter()
            .min_by(|a, b| lex(a).partial_cmp(&lex(b)).unwrap());
        assert_eq!(start, reference.first(), "cycle must start at the lex-min");
    }

    #[test]
    fn all_algorithms_agree_uniform() {
        check_all(&uniform_cube::<2>(4_000, 1));
    }

    #[test]
    fn all_algorithms_agree_in_sphere() {
        check_all(&in_sphere::<2>(4_000, 2));
    }

    #[test]
    fn all_algorithms_agree_on_sphere() {
        // Large hull output: stresses the incremental rounds.
        check_all(&on_sphere::<2>(2_000, 3));
    }

    #[test]
    fn all_algorithms_agree_on_cube() {
        check_all(&on_cube::<2>(3_000, 4));
    }

    #[test]
    fn tiny_inputs() {
        for (_, f) in algos() {
            assert!(f(&[]).is_empty());
            assert_eq!(f(&[Point2::new([1.0, 1.0])]), vec![0]);
            let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 0.0])];
            assert_eq!(f(&two), vec![0, 1]);
            let tri = [
                Point2::new([0.0, 0.0]),
                Point2::new([1.0, 0.0]),
                Point2::new([0.0, 1.0]),
            ];
            let h = f(&tri);
            assert_eq!(h.len(), 3);
        }
    }

    #[test]
    fn collinear_input() {
        let pts: Vec<Point2> = (0..100)
            .map(|i| Point2::new([i as f64, 2.0 * i as f64]))
            .collect();
        for (name, f) in algos() {
            let h = f(&pts);
            assert_eq!(h.len(), 2, "{name}");
            assert!(h.contains(&0) && h.contains(&99), "{name}");
        }
    }

    #[test]
    fn try_hull2d_rejects_degenerate_inputs() {
        assert_eq!(try_hull2d(&[]), Err(GeoError::EmptyInput { op: "hull2d" }));
        let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 0.0])];
        assert_eq!(
            try_hull2d(&two),
            Err(GeoError::TooFewPoints {
                op: "hull2d",
                needed: 3,
                got: 2
            })
        );
        let same = [Point2::new([1.0, 1.0]); 5];
        assert_eq!(
            try_hull2d(&same),
            Err(GeoError::Degenerate {
                op: "hull2d",
                what: "coincident"
            })
        );
        let collinear: Vec<Point2> = (0..40).map(|i| Point2::new([i as f64, i as f64])).collect();
        for (_, f) in algos() {
            assert_eq!(
                try_hull2d_with(&collinear, f),
                Err(GeoError::Degenerate {
                    op: "hull2d",
                    what: "collinear"
                })
            );
        }
        let tri = [
            Point2::new([0.0, 0.0]),
            Point2::new([1.0, 0.0]),
            Point2::new([0.0, 1.0]),
        ];
        assert_eq!(try_hull2d(&tri).unwrap().len(), 3);
    }

    /// 1 000 uniform points with one coordinate made NaN or infinite, at
    /// the first, a middle and the last index.
    fn non_finite_inputs() -> Vec<Vec<Point2>> {
        let mut inputs = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 500, 999] {
                let mut pts = uniform_cube::<2>(1_000, 6);
                pts[at].coords[at % 2] = bad;
                inputs.push(pts);
            }
        }
        inputs
    }

    const NON_FINITE: GeoResult<Vec<u32>> = Err(GeoError::BadParameter {
        op: "hull2d",
        what: "non-finite coordinate",
    });

    #[test]
    fn try_hull2d_refuses_non_finite_coordinates() {
        for pts in non_finite_inputs() {
            assert_eq!(try_hull2d(&pts), NON_FINITE);
        }
    }

    #[test]
    fn try_hull2d_with_refuses_non_finite_coordinates() {
        for pts in non_finite_inputs() {
            for (name, f) in algos() {
                assert_eq!(try_hull2d_with(&pts, f), NON_FINITE, "{name}");
            }
        }
    }

    #[test]
    fn duplicates_everywhere() {
        let mut pts = uniform_cube::<2>(500, 5);
        let dups: Vec<Point2> = pts.iter().step_by(3).copied().collect();
        pts.extend(dups);
        check_all(&pts);
    }

    #[test]
    fn duplicate_heavy_lattice() {
        // Every lattice point three times over, copies far apart in index
        // order: corners, collinear boundary runs and interior alike.
        let lattice: Vec<Point2> = (0..15 * 15)
            .map(|i| Point2::new([(i % 15) as f64, (i / 15) as f64]))
            .collect();
        let mut pts: Vec<Point2> = lattice.iter().rev().copied().collect();
        pts.extend(&lattice);
        pts.extend(lattice.iter().skip(7).chain(lattice.iter().take(7)));
        check_all(&pts);
        assert_eq!(hull2d_seq(&pts).len(), 4);
    }

    #[test]
    fn square_with_interior_grid() {
        // Exact corners; every other point strictly inside.
        let mut pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([10.0, 0.0]),
            Point2::new([10.0, 10.0]),
            Point2::new([0.0, 10.0]),
        ];
        for i in 1..10 {
            for j in 1..10 {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        for (name, f) in algos() {
            let mut h = f(&pts);
            h.sort();
            assert_eq!(h, vec![0, 1, 2, 3], "{name}");
        }
    }
}

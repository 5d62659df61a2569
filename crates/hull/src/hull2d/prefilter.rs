//! The extreme-point scan every quickhull starts with, and the interior
//! box it yields for free: a "throw-away" prefilter (Akl & Toussaint,
//! 1978) that costs no predicate.
//!
//! One pass finds the lexicographic extremes (the first chord) and the
//! extreme points of the four diagonal directions. Any four input points
//! `NE, NW, SW, SE` span an axis-aligned box
//! `[max(NW.x, SW.x), min(NE.x, SE.x)] × [max(SW.y, SE.y), min(NW.y, NE.y)]`
//! that lies inside their convex hull: seen from a point of the box the
//! four sit one per closed quadrant, so the segments `NW–NE` and `SW–SE`
//! cross the vertical line through it above and below it. A point
//! *strictly* inside the box is therefore interior to the hull of the
//! input — not a corner, not on an edge, not a copy of a corner — and the
//! first quickhull pass skips it for four floating-point comparisons,
//! which are exact. The diagonal extremes merely make the box large: it
//! covers nearly all of a uniform square and 2/π of a disc, and is empty
//! (nothing is skipped) for points on a circle.
//!
//! Candidates keep their index order, so downstream ties resolve to the
//! same indices with or without the filter; the octagon test this module
//! used to run on top (eight exact orientation tests per interior point)
//! measured no faster than quickhull's own first levels and is gone.

use pargeo_geometry::Point2;
use pargeo_parlay::{reduce, GRANULARITY};

/// The open box of points provably interior to the hull.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InnerBox {
    lo: [f64; 2],
    hi: [f64; 2],
}

impl InnerBox {
    /// True iff `p` is strictly inside the box.
    #[inline]
    pub fn contains(&self, p: &Point2) -> bool {
        self.lo[0] < p[0] && p[0] < self.hi[0] && self.lo[1] < p[1] && p[1] < self.hi[1]
    }
}

/// Running maxima of six linear keys — lexicographic min and max, then
/// the NE, SW, SE, NW diagonals — each with the first index attaining it.
#[derive(Clone, Copy)]
struct Scan {
    key: [(f64, f64); 6],
    idx: [u32; 6],
}

impl Scan {
    const EMPTY: Scan = Scan {
        key: [(f64::NEG_INFINITY, f64::NEG_INFINITY); 6],
        idx: [0; 6],
    };

    fn of(points: &[Point2], first: u32) -> Scan {
        let mut scan = Scan::EMPTY;
        for (q, p) in (first..).zip(points) {
            let (x, y) = (p[0], p[1]);
            // A non-finite point outranks every finite one as the minimum.
            let lex_min = match p.is_finite() {
                true => (-x, -y),
                false => (f64::INFINITY, f64::INFINITY),
            };
            let keys = [
                lex_min,
                (x, y),
                (x + y, 0.0),
                (-x - y, 0.0),
                (x - y, 0.0),
                (y - x, 0.0),
            ];
            for i in 0..6 {
                if keys[i] > scan.key[i] {
                    (scan.key[i], scan.idx[i]) = (keys[i], q);
                }
            }
        }
        scan
    }

    /// `later` covers higher indices: it wins only where strictly better.
    fn merge(mut self, later: Scan) -> Scan {
        for i in 0..6 {
            if later.key[i] > self.key[i] {
                (self.key[i], self.idx[i]) = (later.key[i], later.idx[i]);
            }
        }
        self
    }
}

/// The lexicographically smallest and largest points of a non-empty input
/// (each the first index holding its coordinates) and the interior box.
pub(crate) fn scan(points: &[Point2]) -> (u32, u32, InnerBox) {
    let scan = reduce(
        points.len(),
        GRANULARITY,
        |r| Scan::of(&points[r.clone()], r.start as u32),
        Scan::merge,
    );
    let [lo, hi, ne, sw, se, nw] = scan.idx;
    let at = |q: u32| points[q as usize];
    let inner = InnerBox {
        lo: [at(nw)[0].max(at(sw)[0]), at(sw)[1].max(at(se)[1])],
        hi: [at(ne)[0].min(at(se)[0]), at(nw)[1].min(at(ne)[1])],
    };
    (lo, hi, inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull2d::{hull2d_randinc, try_hull2d, try_hull2d_with};
    use pargeo_datagen::{in_sphere, on_sphere, uniform_cube};

    /// The default hull (which filters) against the randomized
    /// incremental one (which does not).
    fn parity(points: &[Point2]) {
        let filtered = try_hull2d(points);
        let plain = try_hull2d_with(points, hull2d_randinc);
        assert_eq!(filtered, plain, "prefilter changed the hull");
    }

    fn discarded(points: &[Point2]) -> usize {
        let (_, _, inner) = scan(points);
        points.iter().filter(|p| inner.contains(p)).count()
    }

    #[test]
    fn parity_on_generator_suites() {
        for seed in [1u64, 7, 42] {
            parity(&uniform_cube::<2>(2_000, seed));
            parity(&in_sphere::<2>(2_000, seed));
            // The OS dataset is an annulus (10% inward jitter), so some
            // points are interior — parity still must hold.
            parity(&on_sphere::<2>(500, seed));
        }
    }

    #[test]
    fn exact_ring_discards_nothing() {
        // Points exactly on a circle are never strictly inside a box
        // inscribed in the hull of four of them.
        let ring: Vec<Point2> = (0..512)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / 512.0;
                Point2::new([100.0 * t.cos(), 100.0 * t.sin()])
            })
            .collect();
        assert_eq!(discarded(&ring), 0, "circle points are never interior");
        parity(&ring);
    }

    #[test]
    fn discards_interior_bulk_on_blobs() {
        // The box spanned by a disc's diagonal extremes covers 2/π of it,
        // a square's nearly all of it.
        let disc = in_sphere::<2>(10_000, 3);
        assert!(discarded(&disc) > disc.len() / 2);
        let square = uniform_cube::<2>(10_000, 4);
        assert!(discarded(&square) > square.len() * 9 / 10);
    }

    #[test]
    fn octagon_is_not_a_slab_intersection() {
        // {(0,0),(10,1),(1,10),(9.0,0.6)}: the last point is inside every
        // axis/diagonal *slab* of the other three but is a hull vertex. A
        // slab-based filter would wrongly discard it; the box is built
        // from input points' own coordinates and cannot.
        let mut pts: Vec<Point2> = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([10.0, 1.0]),
            Point2::new([1.0, 10.0]),
            Point2::new([9.0, 0.6]),
        ];
        for i in 0..200 {
            let t = i as f64 / 200.0;
            pts.push(Point2::new([2.0 + 3.0 * t, 2.0 + 2.0 * t]));
        }
        let hull = try_hull2d(&pts).unwrap();
        assert!(hull.contains(&3), "the near-edge vertex must survive");
        parity(&pts);
    }

    #[test]
    fn duplicates_and_collinear_boundaries_survive() {
        // Square with duplicated corners and collinear edge midpoints:
        // all on the hull boundary, none may be discarded before the
        // dedup/tie logic downstream sees them.
        let mut pts: Vec<Point2> = Vec::new();
        for _ in 0..2 {
            pts.push(Point2::new([0.0, 0.0]));
            pts.push(Point2::new([4.0, 0.0]));
            pts.push(Point2::new([4.0, 4.0]));
            pts.push(Point2::new([0.0, 4.0]));
            pts.push(Point2::new([2.0, 0.0]));
            pts.push(Point2::new([4.0, 2.0]));
        }
        let (_, _, inner) = scan(&pts);
        assert!(!pts.iter().any(|p| inner.contains(p)));
        for i in 0..100 {
            let t = 0.5 + (i as f64) / 50.0;
            pts.push(Point2::new([t.min(3.5), 1.0 + (i % 7) as f64 / 3.0]));
        }
        assert_eq!(discarded(&pts), 100);
        parity(&pts);
    }

    #[test]
    fn small_and_degenerate_inputs_pass_through() {
        parity(&[]);
        parity(&[Point2::new([1.0, 2.0])]);
        let coincident: Vec<Point2> = vec![Point2::new([3.0, 3.0]); 100];
        parity(&coincident);
        assert_eq!(discarded(&coincident), 0);
        let collinear: Vec<Point2> = (0..100)
            .map(|i| Point2::new([i as f64, 2.0 * i as f64]))
            .collect();
        parity(&collinear);
        assert_eq!(discarded(&collinear), 0);
    }
}

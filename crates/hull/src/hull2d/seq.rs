//! Optimized sequential quickhull — the stand-in for the CGAL / Qhull
//! baselines of Figure 8 (see DESIGN.md §5).
//!
//! Classic two-sided quickhull, one pass per level: the pass that splits a
//! chord's candidates around its furthest point also finds each side's own
//! furthest point, so a candidate costs at most two exact orientation
//! tests and one key per level. Orientation tests are exact;
//! furthest-point selection uses plain doubles (selection only affects
//! recursion order). The parallel quickhull runs the same passes in
//! chunks.

use super::{extremes, line_dist, proj_along, sees, Extremes};
use pargeo_geometry::{orient2d, Orientation, Point2};

/// Sequential quickhull. Returns CCW hull vertex indices.
pub fn hull2d_seq(points: &[Point2]) -> Vec<u32> {
    let ext = match extremes(points) {
        Ok(ext) => ext,
        Err(flat) => return flat,
    };
    let (a, b) = (ext.lo, ext.hi);
    let (below, above) = split_chord(points, &ext, 0..points.len() as u32);
    let mut out = vec![a];
    qh_rec(points, a, b, below, &mut out);
    out.push(b);
    qh_rec(points, b, a, above, &mut out);
    out
}

/// The candidates strictly right of a chord, in index order, and the one
/// furthest from it. Ties break toward the largest projection along the
/// chord — of a set of collinear tied points only the chain *endpoints*
/// are true hull vertices, and the projection tie-break always selects one
/// — and then toward the first candidate, i.e. the smallest index of a
/// duplicated corner.
#[derive(Default)]
pub(super) struct Side {
    pub ids: Vec<u32>,
    pub far: u32,
    key: (f64, f64),
}

impl Side {
    fn push(&mut self, points: &[Point2], a: u32, b: u32, q: u32) {
        let key = (line_dist(points, a, b, q), proj_along(points, a, b, q));
        if self.ids.is_empty() || key > self.key {
            (self.far, self.key) = (q, key);
        }
        self.ids.push(q);
    }

    /// Appends a side built from later candidates of the same chord.
    pub fn append(&mut self, mut later: Side) {
        if self.ids.is_empty() || (!later.ids.is_empty() && later.key > self.key) {
            (self.far, self.key) = (later.far, later.key);
        }
        self.ids.append(&mut later.ids);
    }
}

/// First level: candidates `ids` outside the interior box split by side
/// of the chord `lo → hi` (one orientation test each) into those right of
/// `lo → hi` and right of `hi → lo`.
pub(super) fn split_chord(
    points: &[Point2],
    ext: &Extremes,
    ids: std::ops::Range<u32>,
) -> (Side, Side) {
    let (a, b) = (ext.lo, ext.hi);
    let (pa, pb) = (&points[a as usize], &points[b as usize]);
    let (mut below, mut above) = (Side::default(), Side::default());
    for q in ids {
        let pq = &points[q as usize];
        if ext.inner.contains(pq) {
            continue;
        }
        match orient2d(pa, pb, pq) {
            Orientation::Negative => below.push(points, a, b, q),
            Orientation::Positive => above.push(points, b, a, q),
            Orientation::Zero => {}
        }
    }
    (below, above)
}

/// Splits the candidates of chord `a → b` around its hull vertex `f`:
/// right of `a → f`, right of `f → b`; the rest are inside the triangle
/// `(a, f, b)` and are discarded.
pub(super) fn split_around(
    points: &[Point2],
    a: u32,
    f: u32,
    b: u32,
    cand: &[u32],
) -> (Side, Side) {
    let (mut left, mut right) = (Side::default(), Side::default());
    for &q in cand.iter().filter(|&&q| q != f) {
        if sees(points, a, f, q) {
            left.push(points, a, f, q);
        } else if sees(points, f, b, q) {
            right.push(points, f, b, q);
        }
    }
    (left, right)
}

/// Emits the hull vertices strictly between `a` and `b` (walking the hull
/// from `a` to `b` with all of `side` on the right of `a → b`), in order.
pub(super) fn qh_rec(points: &[Point2], a: u32, b: u32, side: Side, out: &mut Vec<u32>) {
    if side.ids.is_empty() {
        return;
    }
    let f = side.far;
    let (left, right) = split_around(points, a, f, b, &side.ids);
    drop(side);
    qh_rec(points, a, f, left, out);
    out.push(f);
    qh_rec(points, f, b, right, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull2d::validate::check_hull2d;

    #[test]
    fn unit_square_corners() {
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([1.0, 0.0]),
            Point2::new([1.0, 1.0]),
            Point2::new([0.0, 1.0]),
            Point2::new([0.5, 0.5]),
        ];
        let h = hull2d_seq(&pts);
        assert_eq!(h, vec![0, 1, 2, 3]); // CCW from lex-min
        check_hull2d(&pts, &h).unwrap();
    }

    #[test]
    fn circle_keeps_every_point() {
        let n = 360;
        let pts: Vec<Point2> = (0..n)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Point2::new([t.cos(), t.sin()])
            })
            .collect();
        let h = hull2d_seq(&pts);
        assert_eq!(h.len(), n);
        check_hull2d(&pts, &h).unwrap();
    }

    #[test]
    fn output_is_ccw_starting_at_lex_min() {
        let pts = pargeo_datagen::uniform_cube::<2>(1_000, 9);
        let h = hull2d_seq(&pts);
        check_hull2d(&pts, &h).unwrap();
        let lo = super::extremes(&pts).ok().unwrap().lo;
        assert_eq!(h[0], lo);
    }
}

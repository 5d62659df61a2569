//! Axis-aligned bounding boxes.
//!
//! `Bbox<D>` supports the queries the tree modules need: point containment,
//! box/box and box/point distances (k-NN pruning), the widest dimension
//! (kd-splits), and the well-separation test of Callahan–Kosaraju (WSPD).

use crate::point::Point;

/// An axis-aligned box `[min, max]` in `D` dimensions. An *empty* box has
/// `min[i] > max[i]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bbox<const D: usize> {
    /// Componentwise lower corner.
    pub min: Point<D>,
    /// Componentwise upper corner.
    pub max: Point<D>,
}

impl<const D: usize> Bbox<D> {
    /// The empty box (identity for [`Bbox::union`]).
    pub fn empty() -> Self {
        Self {
            min: Point::new([f64::INFINITY; D]),
            max: Point::new([f64::NEG_INFINITY; D]),
        }
    }

    /// The degenerate box containing a single point.
    pub fn from_point(p: &Point<D>) -> Self {
        Self { min: *p, max: *p }
    }

    /// The smallest box containing all `points`.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.extend(p);
        }
        b
    }

    /// True iff the box contains no point.
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.min[i] > self.max[i])
    }

    /// Grows the box to contain `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point<D>) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        Self {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// True iff `p` lies inside (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.min[i] <= p[i] && p[i] <= self.max[i])
    }

    /// [`Bbox::contains`] for row `i` of a columnar store — reads the
    /// coordinate columns directly, no `Point` materialization.
    #[inline]
    pub fn contains_soa(&self, pts: &crate::soa::SoaPoints<D>, i: usize) -> bool {
        (0..D).all(|d| {
            let c = pts.coord(i, d);
            self.min[d] <= c && c <= self.max[d]
        })
    }

    /// True iff `other` lies entirely inside `self`.
    pub fn contains_box(&self, other: &Self) -> bool {
        (0..D).all(|i| self.min[i] <= other.min[i] && other.max[i] <= self.max[i])
    }

    /// True iff the boxes share at least one point.
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// Squared distance from `p` to the nearest point of the box
    /// (0 if inside). The k-NN pruning bound, evaluated hundreds of times
    /// per query on unpredictable data — so branch-free: per axis at most
    /// one of `min − p` and `p − max` is positive, and `f64::max` drops a
    /// NaN operand, which makes a NaN coordinate count as inside.
    #[inline]
    pub fn dist_sq_to_point(&self, p: &Point<D>) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = (self.min[i] - p[i]).max(p[i] - self.max[i]).max(0.0);
            s += d * d;
        }
        s
    }

    /// Squared distance from `p` to the farthest point of the box.
    #[inline]
    pub fn max_dist_sq_to_point(&self, p: &Point<D>) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = (p[i] - self.min[i]).abs().max((p[i] - self.max[i]).abs());
            s += d * d;
        }
        s
    }

    /// Squared distance between the closest points of two boxes (0 if they
    /// intersect). The WSPD's lower bound and the BCCP descent's pruning
    /// test, on node pairs in no predictable order — so branch-free like
    /// [`dist_sq_to_point`](Self::dist_sq_to_point): per axis at most one of
    /// the two gaps is positive.
    #[inline]
    pub fn dist_sq_to_box(&self, other: &Self) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = (self.min[i] - other.max[i])
                .max(other.min[i] - self.max[i])
                .max(0.0);
            s += d * d;
        }
        s
    }

    /// Side length along dimension `i` (0 for empty boxes).
    #[inline]
    pub fn side(&self, i: usize) -> f64 {
        (self.max[i] - self.min[i]).max(0.0)
    }

    /// The dimension with the largest extent.
    pub fn widest_dim(&self) -> usize {
        let mut best = 0;
        let mut w = self.side(0);
        for i in 1..D {
            let s = self.side(i);
            if s > w {
                w = s;
                best = i;
            }
        }
        best
    }

    /// Squared length of the diagonal.
    pub fn diag_sq(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = self.side(i);
            s += d * d;
        }
        s
    }

    /// Center point.
    pub fn center(&self) -> Point<D> {
        self.min.midpoint(&self.max)
    }

    /// Callahan–Kosaraju well-separation: both boxes fit in balls of radius
    /// `r` (circumradius of the larger box), and the balls are at least
    /// `s · r` apart.
    pub fn well_separated(&self, other: &Self, s: f64) -> bool {
        let r_sq = self.diag_sq().max(other.diag_sq()) / 4.0;
        let center_dist_sq = self.center().dist_sq(&other.center());
        // ||c1 - c2|| >= (s + 2) * r  (gap of s·r between balls of radius r)
        center_dist_sq >= (s + 2.0) * (s + 2.0) * r_sq
    }
}

impl<const D: usize> Default for Bbox<D> {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point2, Point3};

    #[test]
    fn empty_box_behaviour() {
        let b = Bbox::<2>::empty();
        assert!(b.is_empty());
        assert!(!b.contains(&Point2::new([0.0, 0.0])));
        let u = b.union(&Bbox::from_point(&Point2::new([1.0, 2.0])));
        assert!(!u.is_empty());
        assert_eq!(u.min.coords, [1.0, 2.0]);
    }

    #[test]
    fn from_points_and_contains() {
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([2.0, 1.0]),
            Point2::new([1.0, 3.0]),
        ];
        let b = Bbox::from_points(&pts);
        assert_eq!(b.min.coords, [0.0, 0.0]);
        assert_eq!(b.max.coords, [2.0, 3.0]);
        for p in &pts {
            assert!(b.contains(p));
        }
        assert!(!b.contains(&Point2::new([2.1, 0.0])));
    }

    #[test]
    fn point_distances() {
        let b = Bbox {
            min: Point2::new([0.0, 0.0]),
            max: Point2::new([1.0, 1.0]),
        };
        assert_eq!(b.dist_sq_to_point(&Point2::new([0.5, 0.5])), 0.0);
        assert_eq!(b.dist_sq_to_point(&Point2::new([2.0, 0.5])), 1.0);
        assert_eq!(b.dist_sq_to_point(&Point2::new([2.0, 2.0])), 2.0);
        assert_eq!(b.max_dist_sq_to_point(&Point2::new([0.0, 0.0])), 2.0);
    }

    /// The three-way definition `dist_sq_to_point` replaced: the branch-free
    /// form must return the same bits on every input the library can meet.
    fn dist_sq_three_way<const D: usize>(b: &Bbox<D>, p: &Point<D>) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = if p[i] < b.min[i] {
                b.min[i] - p[i]
            } else if p[i] > b.max[i] {
                p[i] - b.max[i]
            } else {
                0.0
            };
            s += d * d;
        }
        s
    }

    /// Ordinary, degenerate (a point, a segment), empty, infinite,
    /// half-infinite, signed zeros on the boundary.
    fn boxes_the_library_can_meet() -> [Bbox<3>; 7] {
        const INF: f64 = f64::INFINITY;
        [
            ([0.25, -1.5, 3.0], [2.0, 0.5, 7.0]),
            ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
            ([0.0, 2.0, -3.0], [0.0, 2.0, 4.0]),
            ([INF, INF, INF], [-INF, -INF, -INF]),
            ([-INF, -INF, -INF], [INF, INF, INF]),
            ([-INF, 0.0, 1.0], [0.0, INF, 1.0]),
            ([-0.0, -0.0, 0.0], [0.0, -0.0, 0.0]),
        ]
        .map(|(min, max)| Bbox {
            min: Point3::new(min),
            max: Point3::new(max),
        })
    }

    #[test]
    fn branch_free_point_distance_matches_the_three_way_definition() {
        const INF: f64 = f64::INFINITY;
        let boxes = boxes_the_library_can_meet();
        let axis = [
            -INF,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            0.25,
            1.0,
            2.0,
            3.5,
            7.0,
            1e300,
            INF,
            f64::NAN,
        ];
        for b in &boxes {
            for &x in &axis {
                for &y in &axis {
                    for &z in &axis {
                        let p = Point3::new([x, y, z]);
                        assert_eq!(
                            b.dist_sq_to_point(&p).to_bits(),
                            dist_sq_three_way(b, &p).to_bits(),
                            "{b:?} {p:?}"
                        );
                    }
                }
            }
        }
    }

    /// Likewise for `dist_sq_to_box`, against the three-way form it had.
    #[test]
    fn branch_free_box_distance_matches_the_three_way_definition() {
        let three_way = |a: &Bbox<3>, b: &Bbox<3>| {
            let mut s = 0.0;
            for i in 0..3 {
                let d = if b.max[i] < a.min[i] {
                    a.min[i] - b.max[i]
                } else if a.max[i] < b.min[i] {
                    b.min[i] - a.max[i]
                } else {
                    0.0
                };
                s += d * d;
            }
            s
        };
        let mut boxes = boxes_the_library_can_meet().to_vec();
        let shifted = |b: &Bbox<3>, by: f64| Bbox {
            min: b.min + Point3::new([by, -by, 0.0]),
            max: b.max + Point3::new([by, -by, 0.0]),
        };
        for by in [-9.5, 0.75, 1e300] {
            boxes.extend(boxes_the_library_can_meet().iter().map(|b| shifted(b, by)));
        }
        for a in &boxes {
            for b in &boxes {
                assert_eq!(
                    a.dist_sq_to_box(b).to_bits(),
                    three_way(a, b).to_bits(),
                    "{a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn box_distances() {
        let a = Bbox {
            min: Point2::new([0.0, 0.0]),
            max: Point2::new([1.0, 1.0]),
        };
        let c = Bbox {
            min: Point2::new([3.0, 0.0]),
            max: Point2::new([4.0, 1.0]),
        };
        assert_eq!(a.dist_sq_to_box(&c), 4.0);
        assert_eq!(a.dist_sq_to_box(&a), 0.0);
        assert!(a.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn widest_dim_and_diag() {
        let b = Bbox {
            min: Point3::new([0.0, 0.0, 0.0]),
            max: Point3::new([1.0, 5.0, 2.0]),
        };
        assert_eq!(b.widest_dim(), 1);
        assert_eq!(b.diag_sq(), 1.0 + 25.0 + 4.0);
        assert_eq!(b.center().coords, [0.5, 2.5, 1.0]);
    }

    #[test]
    fn well_separated_scaling() {
        let a = Bbox {
            min: Point2::new([0.0, 0.0]),
            max: Point2::new([1.0, 1.0]),
        };
        let far = Bbox {
            min: Point2::new([100.0, 0.0]),
            max: Point2::new([101.0, 1.0]),
        };
        let near = Bbox {
            min: Point2::new([1.5, 0.0]),
            max: Point2::new([2.5, 1.0]),
        };
        assert!(a.well_separated(&far, 2.0));
        assert!(!a.well_separated(&near, 2.0));
    }
}

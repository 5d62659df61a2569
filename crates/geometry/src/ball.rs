//! Balls and circumballs of support sets — the numeric core of the smallest
//! enclosing ball module.
//!
//! [`ball_through`] returns the smallest ball whose boundary passes through
//! all given points (at most `D + 1` of them) with its center in their
//! affine hull: the base operation of Welzl's recursion and of Larsson's
//! orthant-scan update step.

use crate::point::Point;

/// Relative tolerance used to decide affine dependence and boundary
/// membership. Matches the slack used by practical miniball codes
/// (Gärtner's uses 1e-32 on squared quantities; we work on relative scale).
const REL_TOL: f64 = 1e-10;

/// A `D`-dimensional ball. The *empty* ball (`radius < 0`) contains nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ball<const D: usize> {
    /// Center.
    pub center: Point<D>,
    /// Radius; negative for the empty ball.
    pub radius: f64,
}

impl<const D: usize> Ball<D> {
    /// The empty ball.
    pub fn empty() -> Self {
        Self {
            center: Point::origin(),
            radius: -1.0,
        }
    }

    /// The degenerate ball `{p}`.
    pub fn from_point(p: &Point<D>) -> Self {
        Self {
            center: *p,
            radius: 0.0,
        }
    }

    /// True iff this is the empty ball.
    pub fn is_empty(&self) -> bool {
        self.radius < 0.0
    }

    /// Containment with a relative slack — a point on the boundary is
    /// inside. This is the test used by all SEB algorithms to decide whether
    /// a point is a *visible point* (outside the current ball). The slack
    /// scales with the ball, so the test answers the same at every scale
    /// (the degenerate ball `{p}` holds only `p`).
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        if self.radius < 0.0 {
            return false;
        }
        let r2 = self.radius * self.radius;
        p.dist_sq(&self.center) <= r2 * (1.0 + REL_TOL)
    }
}

/// Smallest ball with every point of `support` on its boundary and center in
/// the support's affine hull.
///
/// Affinely dependent points are detected by Gram–Schmidt with a relative
/// tolerance and skipped, so the call never fails on (near-)degenerate
/// supports; at most `D + 1` points are meaningful. Returns the empty ball
/// for an empty support.
pub fn ball_through<const D: usize>(support: &[Point<D>]) -> Ball<D> {
    if support.is_empty() {
        return Ball::empty();
    }
    let p0 = support[0];
    // Collect an affinely independent subset of direction vectors.
    let mut basis: Vec<Point<D>> = Vec::new(); // original v_i kept
    let mut ortho: Vec<Point<D>> = Vec::new(); // orthogonalized copies
    for p in &support[1..] {
        let v = *p - p0;
        let vn = v.norm_sq();
        if vn == 0.0 {
            continue; // duplicate of p0
        }
        let mut r = v;
        for q in &ortho {
            let qn = q.norm_sq();
            if qn > 0.0 {
                r = r - *q * (r.dot(q) / qn);
            }
        }
        if r.norm_sq() > REL_TOL * REL_TOL * vn {
            basis.push(v);
            ortho.push(r);
            if basis.len() == D {
                break;
            }
        }
    }
    let k = basis.len();
    if k == 0 {
        return Ball::from_point(&p0);
    }
    // Solve the Gram system 2 (v_i . v_j) lambda_j = |v_i|^2.
    let mut a = vec![vec![0.0f64; k + 1]; k];
    for i in 0..k {
        for j in 0..k {
            a[i][j] = 2.0 * basis[i].dot(&basis[j]);
        }
        a[i][k] = basis[i].norm_sq();
    }
    let lambda = match solve_linear(&mut a) {
        Some(l) => l,
        None => return Ball::from_point(&p0), // numerically degenerate
    };
    let mut center = p0;
    for (l, v) in lambda.iter().zip(&basis) {
        center = center + *v * *l;
    }
    Ball {
        center,
        radius: center.dist(&p0),
    }
}

/// Gaussian elimination with partial pivoting on an augmented `k × (k+1)`
/// system. Returns `None` when (nearly) singular.
fn solve_linear(a: &mut [Vec<f64>]) -> Option<Vec<f64>> {
    let k = a.len();
    let scale: f64 = a
        .iter()
        .flat_map(|row| row[..k].iter())
        .fold(0.0f64, |m, &x| m.max(x.abs()));
    for col in 0..k {
        let (pivot_row, pivot_val) = (col..k)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap();
        if pivot_val <= REL_TOL * scale {
            return None;
        }
        a.swap(col, pivot_row);
        for r in col + 1..k {
            let f = a[r][col] / a[col][col];
            for c in col..=k {
                a[r][c] -= f * a[col][c];
            }
        }
    }
    let mut x = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut s = a[row][k];
        for c in row + 1..k {
            s -= a[row][c] * x[c];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point2, Point3};

    #[test]
    fn empty_and_singleton() {
        let e = Ball::<2>::empty();
        assert!(e.is_empty());
        assert!(!e.contains(&Point2::new([0.0, 0.0])));
        let p = Point2::new([1.0, 2.0]);
        let b = ball_through(&[p]);
        assert_eq!(b.radius, 0.0);
        assert!(b.contains(&p));
        assert!(!b.contains(&Point2::new([1.1, 2.0])));
    }

    #[test]
    fn two_points_diameter() {
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([2.0, 0.0]);
        let ball = ball_through(&[a, b]);
        assert!((ball.center[0] - 1.0).abs() < 1e-12);
        assert!(ball.center[1].abs() < 1e-12);
        assert!((ball.radius - 1.0).abs() < 1e-12);
        assert!(ball.contains(&a) && ball.contains(&b));
    }

    #[test]
    fn three_points_circumcircle() {
        // Right triangle: circumcenter at hypotenuse midpoint.
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([4.0, 0.0]);
        let c = Point2::new([0.0, 3.0]);
        let ball = ball_through(&[a, b, c]);
        assert!((ball.center[0] - 2.0).abs() < 1e-12);
        assert!((ball.center[1] - 1.5).abs() < 1e-12);
        assert!((ball.radius - 2.5).abs() < 1e-12);
    }

    #[test]
    fn four_points_circumsphere_3d() {
        // Regular tetrahedron corners of the unit cube.
        let pts = [
            Point3::new([0.0, 0.0, 0.0]),
            Point3::new([1.0, 1.0, 0.0]),
            Point3::new([1.0, 0.0, 1.0]),
            Point3::new([0.0, 1.0, 1.0]),
        ];
        let ball = ball_through(&pts);
        for p in &pts {
            assert!((ball.center.dist(p) - ball.radius).abs() < 1e-12);
        }
        assert!((ball.center[0] - 0.5).abs() < 1e-12);
        assert!((ball.radius - (0.75f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_are_skipped() {
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([2.0, 0.0]);
        let ball = ball_through(&[a, a, b, b]);
        assert!((ball.radius - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_three_points_fall_back_to_diameter_span() {
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([1.0, 0.0]);
        let c = Point2::new([2.0, 0.0]);
        // c is affinely dependent on {a, b} in 1D subspace; the solver keeps
        // a maximal independent subset. The result must still have finite
        // radius and its boundary passes through the kept points.
        let ball = ball_through(&[a, c, b]);
        assert!(ball.radius.is_finite());
        assert!((ball.center.dist(&a) - ball.radius).abs() < 1e-9);
        assert!((ball.center.dist(&c) - ball.radius).abs() < 1e-9);
    }

    #[test]
    fn boundary_points_count_as_contained() {
        let a = Point2::new([-1.0, 0.0]);
        let b = Point2::new([1.0, 0.0]);
        let ball = ball_through(&[a, b]);
        assert!(ball.contains(&Point2::new([0.0, 1.0])));
        assert!(!ball.contains(&Point2::new([0.0, 1.0 + 1e-4])));
    }
}

//! Exact geometric predicates with static filters.
//!
//! Each predicate first evaluates the determinant in plain double precision
//! together with a forward error bound (Shewchuk's "stage A" filter). When
//! the magnitude of the determinant exceeds the bound, its sign is provably
//! correct and is returned immediately — this is the overwhelmingly common
//! case. Otherwise the determinant is recomputed *exactly* over
//! floating-point expansions (the crate's private `expansion` module) and
//! the exact sign is returned. The result is therefore always the sign of
//! the true real-valued determinant.

use crate::expansion::Expansion;
use crate::point::{Point2, Point3};

/// Machine epsilon used in Shewchuk's error bounds (2^-53).
const EPSILON: f64 = 1.110_223_024_625_156_5e-16;
/// Error bound coefficient for the 2D orientation filter.
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;
/// Error bound coefficient for the 3D orientation filter.
const O3D_ERRBOUND_A: f64 = (7.0 + 56.0 * EPSILON) * EPSILON;
/// Error bound coefficient for the in-circle filter.
const ICC_ERRBOUND_A: f64 = (10.0 + 96.0 * EPSILON) * EPSILON;

/// The sign of an exact determinant test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Determinant > 0 (counterclockwise / below / inside, per predicate).
    Positive,
    /// Determinant < 0.
    Negative,
    /// Exactly degenerate (collinear / coplanar / cocircular).
    Zero,
}

impl Orientation {
    fn from_sign(s: i32) -> Self {
        match s.cmp(&0) {
            std::cmp::Ordering::Greater => Orientation::Positive,
            std::cmp::Ordering::Less => Orientation::Negative,
            std::cmp::Ordering::Equal => Orientation::Zero,
        }
    }

    fn from_f64(x: f64) -> Self {
        if x > 0.0 {
            Orientation::Positive
        } else if x < 0.0 {
            Orientation::Negative
        } else {
            Orientation::Zero
        }
    }

    /// +1 / 0 / -1.
    pub fn sign(self) -> i32 {
        match self {
            Orientation::Positive => 1,
            Orientation::Zero => 0,
            Orientation::Negative => -1,
        }
    }
}

/// Orientation of `c` relative to the directed line `a → b`.
///
/// `Positive` iff the triangle `(a, b, c)` winds counterclockwise, i.e. `c`
/// lies to the *left* of `a → b`. Exact.
pub fn orient2d(a: &Point2, b: &Point2, c: &Point2) -> Orientation {
    let detleft = (a[0] - c[0]) * (b[1] - c[1]);
    let detright = (a[1] - c[1]) * (b[0] - c[0]);
    let det = detleft - detright;
    let detsum = detleft.abs() + detright.abs();
    let errbound = CCW_ERRBOUND_A * detsum;
    if det > errbound || -det > errbound {
        return Orientation::from_f64(det);
    }
    orient2d_exact(a, b, c)
}

fn orient2d_exact(a: &Point2, b: &Point2, c: &Point2) -> Orientation {
    let acx = Expansion::from_diff(a[0], c[0]);
    let acy = Expansion::from_diff(a[1], c[1]);
    let bcx = Expansion::from_diff(b[0], c[0]);
    let bcy = Expansion::from_diff(b[1], c[1]);
    let det = acx.mul(&bcy).sub(&acy.mul(&bcx));
    Orientation::from_sign(det.sign())
}

/// Orientation of `d` relative to the oriented plane through `a, b, c`.
///
/// `Positive` iff `d` lies *below* the plane, where "above" is the direction
/// from which the triangle `(a, b, c)` appears counterclockwise (that is,
/// the side pointed to by `(b - a) × (c - a)`). Exact.
pub fn orient3d(a: &Point3, b: &Point3, c: &Point3, d: &Point3) -> Orientation {
    let adx = a[0] - d[0];
    let bdx = b[0] - d[0];
    let cdx = c[0] - d[0];
    let ady = a[1] - d[1];
    let bdy = b[1] - d[1];
    let cdy = c[1] - d[1];
    let adz = a[2] - d[2];
    let bdz = b[2] - d[2];
    let cdz = c[2] - d[2];

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;

    let det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * adz.abs()
        + (cdxady.abs() + adxcdy.abs()) * bdz.abs()
        + (adxbdy.abs() + bdxady.abs()) * cdz.abs();
    let errbound = O3D_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return Orientation::from_f64(det);
    }
    orient3d_exact(a, b, c, d)
}

fn orient3d_exact(a: &Point3, b: &Point3, c: &Point3, d: &Point3) -> Orientation {
    let adx = Expansion::from_diff(a[0], d[0]);
    let bdx = Expansion::from_diff(b[0], d[0]);
    let cdx = Expansion::from_diff(c[0], d[0]);
    let ady = Expansion::from_diff(a[1], d[1]);
    let bdy = Expansion::from_diff(b[1], d[1]);
    let cdy = Expansion::from_diff(c[1], d[1]);
    let adz = Expansion::from_diff(a[2], d[2]);
    let bdz = Expansion::from_diff(b[2], d[2]);
    let cdz = Expansion::from_diff(c[2], d[2]);

    let m1 = bdx.mul(&cdy).sub(&cdx.mul(&bdy)).mul(&adz);
    let m2 = cdx.mul(&ady).sub(&adx.mul(&cdy)).mul(&bdz);
    let m3 = adx.mul(&bdy).sub(&bdx.mul(&ady)).mul(&cdz);
    let det = m1.add(&m2).add(&m3);
    Orientation::from_sign(det.sign())
}

/// In-circle test: `Positive` iff `d` lies strictly inside the circle
/// through `a, b, c`, **provided** `(a, b, c)` is counterclockwise
/// (if clockwise, the meaning flips). Exact.
pub fn incircle(a: &Point2, b: &Point2, c: &Point2, d: &Point2) -> Orientation {
    let adx = a[0] - d[0];
    let bdx = b[0] - d[0];
    let cdx = c[0] - d[0];
    let ady = a[1] - d[1];
    let bdy = b[1] - d[1];
    let cdy = c[1] - d[1];

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICC_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return Orientation::from_f64(det);
    }
    incircle_exact(a, b, c, d)
}

fn incircle_exact(a: &Point2, b: &Point2, c: &Point2, d: &Point2) -> Orientation {
    let adx = Expansion::from_diff(a[0], d[0]);
    let bdx = Expansion::from_diff(b[0], d[0]);
    let cdx = Expansion::from_diff(c[0], d[0]);
    let ady = Expansion::from_diff(a[1], d[1]);
    let bdy = Expansion::from_diff(b[1], d[1]);
    let cdy = Expansion::from_diff(c[1], d[1]);

    let alift = adx.mul(&adx).add(&ady.mul(&ady));
    let blift = bdx.mul(&bdx).add(&bdy.mul(&bdy));
    let clift = cdx.mul(&cdx).add(&cdy.mul(&cdy));

    let bc = bdx.mul(&cdy).sub(&cdx.mul(&bdy));
    let ca = cdx.mul(&ady).sub(&adx.mul(&cdy));
    let ab = adx.mul(&bdy).sub(&bdx.mul(&ady));

    let det = alift.mul(&bc).add(&blift.mul(&ca)).add(&clift.mul(&ab));
    Orientation::from_sign(det.sign())
}

/// Diametral-circle test: `Positive` iff `c` lies strictly inside the
/// circle with diameter `ab`, `Zero` on it, `Negative` outside — the sign
/// of `−(a − c)·(b − c)`, the angle `acb` being obtuse, right or acute.
/// Exact.
pub fn in_diametral_circle(a: &Point2, b: &Point2, c: &Point2) -> Orientation {
    let x = (a[0] - c[0]) * (b[0] - c[0]);
    let y = (a[1] - c[1]) * (b[1] - c[1]);
    let dot = x + y;
    // Two products of differences, summed: `orient2d`'s shape and bound.
    let errbound = CCW_ERRBOUND_A * (x.abs() + y.abs());
    if dot > errbound || -dot > errbound {
        return Orientation::from_f64(-dot);
    }
    in_diametral_circle_exact(a, b, c)
}

fn in_diametral_circle_exact(a: &Point2, b: &Point2, c: &Point2) -> Orientation {
    let acx = Expansion::from_diff(a[0], c[0]);
    let acy = Expansion::from_diff(a[1], c[1]);
    let bcx = Expansion::from_diff(b[0], c[0]);
    let bcy = Expansion::from_diff(b[1], c[1]);
    let dot = acx.mul(&bcx).add(&acy.mul(&bcy));
    Orientation::from_sign(-dot.sign())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2(x: f64, y: f64) -> Point2 {
        Point2::new([x, y])
    }
    fn p3(x: f64, y: f64, z: f64) -> Point3 {
        Point3::new([x, y, z])
    }

    #[test]
    fn orient2d_basic() {
        let a = p2(0.0, 0.0);
        let b = p2(1.0, 0.0);
        assert_eq!(orient2d(&a, &b, &p2(0.0, 1.0)), Orientation::Positive);
        assert_eq!(orient2d(&a, &b, &p2(0.0, -1.0)), Orientation::Negative);
        assert_eq!(orient2d(&a, &b, &p2(2.0, 0.0)), Orientation::Zero);
    }

    #[test]
    fn orient2d_near_degenerate_is_exact() {
        // Classic adversarial case: points nearly collinear along a line of
        // slope 1 with coordinates that round badly in double precision.
        let a = p2(0.5, 0.5);
        let b = p2(12.0, 12.0);
        // c on the line y = x exactly:
        assert_eq!(orient2d(&a, &b, &p2(24.0, 24.0)), Orientation::Zero);
        // c off the line by one ulp:
        let tiny = f64::EPSILON;
        assert_eq!(
            orient2d(&a, &b, &p2(24.0, 24.0 * (1.0 + tiny))),
            Orientation::Positive
        );
        assert_eq!(
            orient2d(&a, &b, &p2(24.0, 24.0 * (1.0 - tiny))),
            Orientation::Negative
        );
    }

    #[test]
    fn orient2d_consistency_under_rotation_of_args() {
        let a = p2(0.1, 0.2);
        let b = p2(0.3, 0.9);
        let c = p2(0.7, 0.4);
        let o = orient2d(&a, &b, &c);
        assert_eq!(orient2d(&b, &c, &a), o);
        assert_eq!(orient2d(&c, &a, &b), o);
        // Swapping two args flips the sign.
        assert_eq!(orient2d(&b, &a, &c).sign(), -o.sign());
    }

    #[test]
    fn orient3d_basic() {
        let a = p3(0.0, 0.0, 0.0);
        let b = p3(1.0, 0.0, 0.0);
        let c = p3(0.0, 1.0, 0.0);
        // d above the plane (direction of (b-a)x(c-a) = +z) => Negative.
        assert_eq!(
            orient3d(&a, &b, &c, &p3(0.0, 0.0, 1.0)),
            Orientation::Negative
        );
        assert_eq!(
            orient3d(&a, &b, &c, &p3(0.0, 0.0, -1.0)),
            Orientation::Positive
        );
        assert_eq!(orient3d(&a, &b, &c, &p3(5.0, 7.0, 0.0)), Orientation::Zero);
    }

    #[test]
    fn orient3d_near_coplanar_is_exact() {
        let a = p3(0.0, 0.0, 0.0);
        let b = p3(1.0, 0.0, 0.0);
        let c = p3(0.0, 1.0, 0.0);
        let eps = 2f64.powi(-60);
        assert_eq!(
            orient3d(&a, &b, &c, &p3(0.3, 0.3, eps)),
            Orientation::Negative
        );
        assert_eq!(
            orient3d(&a, &b, &c, &p3(0.3, 0.3, -eps)),
            Orientation::Positive
        );
        assert_eq!(orient3d(&a, &b, &c, &p3(0.3, 0.3, 0.0)), Orientation::Zero);
    }

    #[test]
    fn incircle_basic() {
        // Unit circle through these three ccw points.
        let a = p2(1.0, 0.0);
        let b = p2(0.0, 1.0);
        let c = p2(-1.0, 0.0);
        assert_eq!(incircle(&a, &b, &c, &p2(0.0, 0.0)), Orientation::Positive);
        assert_eq!(incircle(&a, &b, &c, &p2(0.0, -2.0)), Orientation::Negative);
        assert_eq!(incircle(&a, &b, &c, &p2(0.0, -1.0)), Orientation::Zero);
    }

    #[test]
    fn incircle_near_cocircular_is_exact() {
        let a = p2(1.0, 0.0);
        let b = p2(0.0, 1.0);
        let c = p2(-1.0, 0.0);
        // On the circle up to one ulp.
        let d_in = p2(0.0, -(1.0 - f64::EPSILON));
        let d_out = p2(0.0, -(1.0 + f64::EPSILON));
        assert_eq!(incircle(&a, &b, &c, &d_in), Orientation::Positive);
        assert_eq!(incircle(&a, &b, &c, &d_out), Orientation::Negative);
    }

    #[test]
    fn in_diametral_circle_is_exact() {
        let a = p2(0.0, 0.0);
        let b = p2(1.0, 0.0);
        assert_eq!(
            in_diametral_circle(&a, &b, &p2(0.5, 0.25)),
            Orientation::Positive
        );
        assert_eq!(
            in_diametral_circle(&a, &b, &p2(0.5, 0.5)),
            Orientation::Zero
        );
        assert_eq!(
            in_diametral_circle(&a, &b, &p2(0.5, -0.5)),
            Orientation::Zero
        );
        assert_eq!(
            in_diametral_circle(&a, &b, &p2(2.0, 0.0)),
            Orientation::Negative
        );
        // One ulp either side of the circle, inside the float filter's
        // error bound: only the exact path tells.
        let above = p2(0.5, 0.5 + 2f64.powi(-53));
        let below = p2(0.5, 0.5 - 2f64.powi(-54));
        assert_eq!(in_diametral_circle(&a, &b, &above), Orientation::Negative);
        assert_eq!(in_diametral_circle(&a, &b, &below), Orientation::Positive);
        // Endpoints lie on the circle.
        assert_eq!(in_diametral_circle(&a, &b, &a), Orientation::Zero);
    }

    #[test]
    fn exact_paths_agree_with_filtered_on_clear_cases() {
        // For well-separated inputs the exact path must agree with the
        // filtered fast path.
        let a = p2(0.12, 3.4);
        let b = p2(5.6, 0.78);
        let c = p2(2.0, 2.0);
        assert_eq!(orient2d_exact(&a, &b, &c), orient2d(&a, &b, &c));
        let a3 = p3(0.1, 0.2, 0.3);
        let b3 = p3(1.1, 0.2, 0.4);
        let c3 = p3(0.3, 1.5, 0.1);
        let d3 = p3(0.7, 0.7, 2.0);
        assert_eq!(
            orient3d_exact(&a3, &b3, &c3, &d3),
            orient3d(&a3, &b3, &c3, &d3)
        );
        let d2 = p2(1.0, 1.0);
        assert_eq!(incircle_exact(&a, &b, &c, &d2), incircle(&a, &b, &c, &d2));
    }

    #[test]
    fn orientation_sign_helper() {
        assert_eq!(Orientation::Positive.sign(), 1);
        assert_eq!(Orientation::Zero.sign(), 0);
        assert_eq!(Orientation::Negative.sign(), -1);
    }
}

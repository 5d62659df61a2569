//! Fixed-dimension points over `f64`.
//!
//! `Point<D>` is a `Copy` value type — geometry modules move points around in
//! flat arrays (the paper's implementations are array-of-structs too), so the
//! type stays `#[repr(transparent)]`-thin: just `[f64; D]`.

use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A point (or vector) in `D`-dimensional Euclidean space.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Point<const D: usize> {
    /// Cartesian coordinates.
    pub coords: [f64; D],
}

/// 2-dimensional point.
pub type Point2 = Point<2>;
/// 3-dimensional point.
pub type Point3 = Point<3>;

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// The origin.
    #[inline]
    pub fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Coordinate bit pattern, usable as an exact-equality hash key (the
    /// delete-by-value semantics shared by every dynamic index). Note that
    /// `to_bits` distinguishes `-0.0` from `+0.0` and distinct NaN
    /// payloads, so this is bitwise identity, not float `==`.
    #[inline]
    pub fn bits_key(&self) -> [u64; D] {
        self.coords.map(f64::to_bits)
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Self) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            s += self.coords[i] * other.coords[i];
        }
        s
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = self.coords[i] - other.coords[i];
            s += d * d;
        }
        s
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared L2 norm.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.dot(self)
    }

    /// L2 norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Self) -> Self {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = self.coords[i].min(other.coords[i]);
        }
        Self { coords: c }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Self) -> Self {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = self.coords[i].max(other.coords[i]);
        }
        Self { coords: c }
    }

    /// Scales by `1 / s`.
    #[inline]
    pub fn div(&self, s: f64) -> Self {
        *self * (1.0 / s)
    }

    /// Midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Self) -> Self {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = 0.5 * (self.coords[i] + other.coords[i]);
        }
        Self { coords: c }
    }

    /// True if all coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

impl Point<3> {
    /// 3D cross product.
    #[inline]
    pub fn cross(&self, o: &Self) -> Self {
        Point::new([
            self.coords[1] * o.coords[2] - self.coords[2] * o.coords[1],
            self.coords[2] * o.coords[0] - self.coords[0] * o.coords[2],
            self.coords[0] * o.coords[1] - self.coords[1] * o.coords[0],
        ])
    }
}

impl Point<2> {
    /// 2D cross product (z-component of the 3D cross of the embedded vectors).
    #[inline]
    pub fn cross2(&self, o: &Self) -> f64 {
        self.coords[0] * o.coords[1] - self.coords[1] * o.coords[0]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = self.coords[i] + o.coords[i];
        }
        Self { coords: c }
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = self.coords[i] - o.coords[i];
        }
        Self { coords: c }
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = self.coords[i] * s;
        }
        Self { coords: c }
    }
}

impl<const D: usize> Neg for Point<D> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self * -1.0
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::origin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Point2::new([1.0, 2.0]);
        let b = Point2::new([3.0, 5.0]);
        assert_eq!((a + b).coords, [4.0, 7.0]);
        assert_eq!((b - a).coords, [2.0, 3.0]);
        assert_eq!((a * 2.0).coords, [2.0, 4.0]);
        assert_eq!((-a).coords, [-1.0, -2.0]);
    }

    #[test]
    fn distances() {
        let a = Point3::new([0.0, 0.0, 0.0]);
        let b = Point3::new([3.0, 4.0, 0.0]);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.norm(), 5.0);
    }

    #[test]
    fn cross_products() {
        let x = Point3::new([1.0, 0.0, 0.0]);
        let y = Point3::new([0.0, 1.0, 0.0]);
        assert_eq!(x.cross(&y).coords, [0.0, 0.0, 1.0]);
        let u = Point2::new([1.0, 0.0]);
        let v = Point2::new([0.0, 1.0]);
        assert_eq!(u.cross2(&v), 1.0);
        assert_eq!(v.cross2(&u), -1.0);
    }

    #[test]
    fn min_max_midpoint() {
        let a = Point2::new([1.0, 5.0]);
        let b = Point2::new([3.0, 2.0]);
        assert_eq!(a.min(&b).coords, [1.0, 2.0]);
        assert_eq!(a.max(&b).coords, [3.0, 5.0]);
        assert_eq!(a.midpoint(&b).coords, [2.0, 3.5]);
    }

    #[test]
    fn indexing() {
        let mut a = Point::<5>::new([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a[3], 4.0);
        a[3] = 9.0;
        assert_eq!(a[3], 9.0);
    }

    #[test]
    fn finiteness() {
        assert!(Point2::new([1.0, 2.0]).is_finite());
        assert!(!Point2::new([f64::NAN, 2.0]).is_finite());
        assert!(!Point2::new([1.0, f64::INFINITY]).is_finite());
    }
}

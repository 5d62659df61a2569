//! Floating-point expansion arithmetic.
//!
//! An *expansion* is a sum of `f64` components, nonoverlapping and ordered by
//! increasing magnitude, that represents a real number exactly
//! (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
//! Geometric Predicates", 1997). All operations below are exact: no bit of
//! the true value is lost. They are the slow path behind the statically
//! filtered predicates in [`crate::predicates`].
//!
//! We deliberately use `Vec<f64>`-valued expansions rather than the fixed
//! arrays of Shewchuk's hand-unrolled C: the exact path only runs on
//! (near-)degenerate inputs, so clarity wins over constant factors here.

/// Exact sum: returns `(x, y)` with `x + y == a + b` exactly, `x = fl(a+b)`.
/// (Knuth's TwoSum; no assumption on magnitudes.)
#[inline]
pub(crate) fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bv = x - a;
    let av = x - bv;
    let br = b - bv;
    let ar = a - av;
    (x, ar + br)
}

/// Exact sum assuming `|a| >= |b|` (Dekker's FastTwoSum).
#[inline]
pub(crate) fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bv = x - a;
    (x, b - bv)
}

/// Exact difference: `(x, y)` with `x + y == a - b` exactly.
#[inline]
pub(crate) fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let bv = a - x;
    let av = x + bv;
    let br = bv - b;
    let ar = a - av;
    (x, ar + br)
}

/// Splits `a` into two half-precision (26-bit) pieces (Dekker).
#[inline]
fn split(a: f64) -> (f64, f64) {
    const SPLITTER: f64 = 134_217_729.0; // 2^27 + 1
    let c = SPLITTER * a;
    let hi = c - (c - a);
    (hi, a - hi)
}

/// Exact product: `(x, y)` with `x + y == a * b` exactly.
#[inline]
pub(crate) fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let e1 = x - ahi * bhi;
    let e2 = e1 - alo * bhi;
    let e3 = e2 - ahi * blo;
    (x, alo * blo - e3)
}

/// An exact multi-component value. Components are stored in increasing order
/// of magnitude with zeros eliminated; the empty expansion is zero.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Expansion(Vec<f64>);

impl Expansion {
    /// The zero expansion.
    pub(crate) fn zero() -> Self {
        Expansion(Vec::new())
    }

    /// The exact difference `a - b` as a two-component expansion.
    pub(crate) fn from_diff(a: f64, b: f64) -> Self {
        let (x, y) = two_diff(a, b);
        let mut v = Vec::with_capacity(2);
        if y != 0.0 {
            v.push(y);
        }
        if x != 0.0 {
            v.push(x);
        }
        Expansion(v)
    }

    /// Exact sum of two expansions (fast expansion sum with zero
    /// elimination).
    pub(crate) fn add(&self, other: &Self) -> Self {
        let (e, f) = (&self.0, &other.0);
        if e.is_empty() {
            return other.clone();
        }
        if f.is_empty() {
            return self.clone();
        }
        // Merge by increasing magnitude.
        let mut g: Vec<f64> = Vec::with_capacity(e.len() + f.len());
        let (mut i, mut j) = (0, 0);
        while i < e.len() && j < f.len() {
            if e[i].abs() < f[j].abs() {
                g.push(e[i]);
                i += 1;
            } else {
                g.push(f[j]);
                j += 1;
            }
        }
        g.extend_from_slice(&e[i..]);
        g.extend_from_slice(&f[j..]);
        // Linear pass of two-sums, eliminating zeros.
        let mut h: Vec<f64> = Vec::with_capacity(g.len());
        let mut q = g[0];
        for &gi in &g[1..] {
            let (qnew, hterm) = two_sum(q, gi);
            if hterm != 0.0 {
                h.push(hterm);
            }
            q = qnew;
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion(h)
    }

    /// Exact negation.
    pub(crate) fn neg(&self) -> Self {
        Expansion(self.0.iter().map(|&x| -x).collect())
    }

    /// Exact difference.
    pub(crate) fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Exact product with a scalar (scale-expansion with zero elimination).
    pub(crate) fn scale(&self, b: f64) -> Self {
        if self.0.is_empty() || b == 0.0 {
            return Self::zero();
        }
        let e = &self.0;
        let mut h: Vec<f64> = Vec::with_capacity(2 * e.len());
        let (mut q, lo) = two_product(e[0], b);
        if lo != 0.0 {
            h.push(lo);
        }
        for &ei in &e[1..] {
            let (t1, t0) = two_product(ei, b);
            let (q2, h1) = two_sum(q, t0);
            if h1 != 0.0 {
                h.push(h1);
            }
            let (q3, h2) = fast_two_sum(t1, q2);
            if h2 != 0.0 {
                h.push(h2);
            }
            q = q3;
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion(h)
    }

    /// Exact product of two expansions (distribute-and-sum).
    pub(crate) fn mul(&self, other: &Self) -> Self {
        let mut acc = Self::zero();
        for &b in &other.0 {
            acc = acc.add(&self.scale(b));
        }
        acc
    }

    /// Sign of the exact value: -1, 0, or +1. The largest-magnitude
    /// component carries the sign after zero elimination.
    pub(crate) fn sign(&self) -> i32 {
        match self.0.last() {
            None => 0,
            Some(&x) if x > 0.0 => 1,
            Some(&x) if x < 0.0 => -1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Expansion {
        /// A single-component expansion (which may be zero).
        fn from_f64(a: f64) -> Self {
            if a == 0.0 {
                Self::zero()
            } else {
                Expansion(vec![a])
            }
        }

        /// Closest `f64` approximation (sum of components, largest last).
        fn estimate(&self) -> f64 {
            self.0.iter().sum()
        }
    }

    #[test]
    fn two_sum_is_exact() {
        let a = 1.0e16;
        let b = 1.0;
        let (x, y) = two_sum(a, b);
        // x alone rounds; x + y recovers the truth.
        assert_eq!(x, 1.0e16); // 1e16 + 1 rounds to 1e16 under f64? (ulp at 1e16 is 2)
        assert_eq!(y, 1.0);
    }

    #[test]
    fn two_diff_is_exact() {
        let (x, y) = two_diff(1.0e16, 1.0);
        // reconstruct exactly in higher precision by checking the identity
        // x + y = a - b via integer arithmetic at this scale
        assert_eq!(x as i64 + y as i64, 10_000_000_000_000_000 - 1);
    }

    #[test]
    fn two_product_is_exact() {
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-30);
        let (x, y) = two_product(a, b);
        // a*b = 1 + 2^-29 + 2^-60 exactly; x misses the 2^-60 tail.
        assert_eq!(x, 1.0 + 2f64.powi(-29));
        assert_eq!(y, 2f64.powi(-60));
    }

    #[test]
    fn expansion_add_exact_cancellation() {
        let e = Expansion::from_f64(1.0e20).add(&Expansion::from_f64(1.0));
        let f = Expansion::from_f64(-1.0e20);
        let s = e.add(&f);
        assert_eq!(s.estimate(), 1.0);
        assert_eq!(s.sign(), 1);
    }

    #[test]
    fn expansion_scale_and_sign() {
        let e = Expansion::from_diff(1.0 + 2f64.powi(-52), 1.0); // = 2^-52
        assert_eq!(e.estimate(), 2f64.powi(-52));
        let s = e.scale(-3.0);
        assert_eq!(s.sign(), -1);
        assert_eq!(s.estimate(), -3.0 * 2f64.powi(-52));
    }

    #[test]
    fn expansion_mul_matches_integer_arithmetic() {
        // Exact integer products stay exact through the expansion path.
        let a = Expansion::from_f64(94_906_265.0); // ~2^26.5
        let b = Expansion::from_f64(94_906_267.0);
        let p = a.mul(&b);
        let want = 94_906_265i128 * 94_906_267i128;
        // The product exceeds 2^53 so a single f64 cannot hold it, but the
        // expansion components sum to it exactly.
        let exact: i128 = p.0.iter().map(|&c| c as i128).sum();
        assert_eq!(exact, want);
        assert_eq!(p.sign(), 1);
    }

    #[test]
    fn zero_expansion() {
        let z = Expansion::zero();
        assert_eq!(z.sign(), 0);
        assert_eq!(z.estimate(), 0.0);
        let e = Expansion::from_f64(5.0);
        assert_eq!(z.add(&e).estimate(), 5.0);
        assert_eq!(e.sub(&e).sign(), 0);
        assert_eq!(e.mul(&z).sign(), 0);
    }

    #[test]
    fn sign_of_tiny_difference() {
        // (1 + eps) - 1 - eps == 0 exactly.
        let eps = 2f64.powi(-52);
        let e = Expansion::from_diff(1.0 + eps, 1.0).sub(&Expansion::from_f64(eps));
        assert_eq!(e.sign(), 0);
    }
}

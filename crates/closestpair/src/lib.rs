//! # pargeo-closestpair — parallel closest pair (paper Module 2)
//!
//! Classic divide-and-conquer closest pair generalized to `D` dimensions:
//! split by the median along the widest dimension, solve the halves in
//! parallel, then check the strip around the splitting hyperplane whose
//! candidate pairs are bounded by a packing argument. The strip pass sorts
//! by the next dimension and scans a constant-width window.

#![warn(missing_docs)]

use pargeo_geometry::{GeoError, GeoResult, Point};
use pargeo_parlay as parlay;

/// The closest pair result: `(index a, index b, distance)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosestPair {
    /// Index of the first point of the pair (`a < b`).
    pub a: u32,
    /// Index of the second point of the pair.
    pub b: u32,
    /// Euclidean distance between the two points.
    pub dist: f64,
}

/// Below this many points the halves are solved one after the other: a
/// 1024-point subproblem is ~50 µs of work, hundreds of forks' worth.
const SEQ_CUTOFF: usize = 1024;
/// At or below this many points the recursion stops and compares all pairs:
/// 32 measured best of 16/32/64 (at 1024 a leaf pays 512 tests per point).
const BRUTE_BASE: usize = 32;
/// Window width for the strip scan; 7 suffices in 2D, higher dimensions
/// use a packing-bound-scaled window.
fn window(d: usize) -> usize {
    8 * (1 << (d.saturating_sub(2)).min(4))
}

/// Finds the closest pair of distinct indices (`n ≥ 2`). Duplicate points
/// yield distance 0.
///
/// Panics on fewer than two points or a NaN or infinite coordinate;
/// [`try_closest_pair`] is the non-panicking equivalent.
pub fn closest_pair<const D: usize>(points: &[Point<D>]) -> ClosestPair {
    try_closest_pair(points).expect("closest pair needs two finite points")
}

/// Non-panicking [`closest_pair`]: rejects inputs with fewer than two
/// points with [`GeoError::TooFewPoints`], and a NaN or infinite
/// coordinate with [`GeoError::BadParameter`], instead of panicking.
pub fn try_closest_pair<const D: usize>(points: &[Point<D>]) -> GeoResult<ClosestPair> {
    if points.len() < 2 {
        return Err(GeoError::TooFewPoints {
            op: "closest_pair",
            needed: 2,
            got: points.len(),
        });
    }
    let mut items: Vec<(Point<D>, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();
    let dim = widest_dim(&items).ok_or(GeoError::BadParameter {
        op: "closest_pair",
        what: "non-finite coordinate",
    })?;
    items.sort_unstable_by(|x, y| x.0[dim].total_cmp(&y.0[dim]));
    let (a, b, d2) = solve(&items, dim);
    Ok(ClosestPair {
        a: a.min(b),
        b: a.max(b),
        dist: d2.sqrt(),
    })
}

/// The widest dimension of the items' bounding box; `None` if a
/// coordinate is NaN or infinite.
fn widest_dim<const D: usize>(items: &[(Point<D>, u32)]) -> Option<usize> {
    let mut bbox = pargeo_geometry::Bbox::empty();
    let mut finite = true;
    for (p, _) in items {
        bbox.extend(p);
        finite &= p.is_finite();
    }
    finite.then(|| bbox.widest_dim())
}

/// Returns `(id_a, id_b, dist²)` for `items` sorted along `dim`.
fn solve<const D: usize>(items: &[(Point<D>, u32)], dim: usize) -> (u32, u32, f64) {
    let n = items.len();
    if n <= BRUTE_BASE {
        return brute(items);
    }
    let mid = n / 2;
    let split = items[mid].0[dim];
    let (l, r) = items.split_at(mid);
    let ((la, lb, ld), (ra, rb, rd)) =
        parlay::par_do_if(n > SEQ_CUTOFF, || solve(l, dim), || solve(r, dim));
    let (mut ba, mut bb, mut bd) = if ld <= rd { (la, lb, ld) } else { (ra, rb, rd) };
    // Strip: points within sqrt(bd) of the splitting plane, sorted along a
    // second dimension, each checked against a constant window.
    let w = bd.sqrt();
    let mut strip: Vec<(Point<D>, u32)> = items
        .iter()
        .filter(|(p, _)| (p[dim] - split).abs() <= w)
        .copied()
        .collect();
    let sort_dim = (dim + 1) % D;
    strip.sort_unstable_by(|x, y| x.0[sort_dim].partial_cmp(&y.0[sort_dim]).unwrap());
    let win = window(D);
    for i in 0..strip.len() {
        for j in i + 1..(i + 1 + win).min(strip.len()) {
            // Early exit once the window's second coordinate outruns the
            // current best.
            let dy = strip[j].0[sort_dim] - strip[i].0[sort_dim];
            if dy * dy > bd {
                break;
            }
            let d = strip[i].0.dist_sq(&strip[j].0);
            if d < bd {
                bd = d;
                ba = strip[i].1;
                bb = strip[j].1;
            }
        }
    }
    (ba, bb, bd)
}

fn brute<const D: usize>(items: &[(Point<D>, u32)]) -> (u32, u32, f64) {
    let mut best = (items[0].1, items[1].1, f64::INFINITY);
    for i in 0..items.len() {
        for j in i + 1..items.len() {
            let d = items[i].0.dist_sq(&items[j].0);
            if d < best.2 {
                best = (items[i].1, items[j].1, d);
            }
        }
    }
    best
}

/// Brute-force reference for testing.
pub fn closest_pair_brute<const D: usize>(points: &[Point<D>]) -> ClosestPair {
    assert!(points.len() >= 2);
    let items: Vec<(Point<D>, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();
    let (a, b, d2) = brute(&items);
    ClosestPair {
        a: a.min(b),
        b: a.max(b),
        dist: d2.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};

    fn check<const D: usize>(points: &[Point<D>]) {
        let got = closest_pair(points);
        let want = closest_pair_brute(points);
        assert!(
            (got.dist - want.dist).abs() <= 1e-9 * (1.0 + want.dist),
            "got {got:?}, want {want:?}"
        );
        assert!((points[got.a as usize].dist(&points[got.b as usize]) - got.dist).abs() < 1e-12);
        assert_ne!(got.a, got.b);
    }

    #[test]
    fn matches_brute_2d() {
        for seed in 0..5 {
            check(&uniform_cube::<2>(3_000, seed));
        }
    }

    #[test]
    fn matches_brute_3d() {
        for seed in 5..8 {
            check(&uniform_cube::<3>(2_500, seed));
        }
    }

    #[test]
    fn matches_brute_5d() {
        check(&uniform_cube::<5>(2_000, 11));
    }

    #[test]
    fn clustered_data() {
        check(&seed_spreader::<2>(
            4_000,
            13,
            SeedSpreaderParams::default(),
        ));
    }

    #[test]
    fn duplicates_give_zero() {
        let mut pts = uniform_cube::<2>(2_000, 14);
        pts.push(pts[77]);
        let got = closest_pair(&pts);
        assert_eq!(got.dist, 0.0);
    }

    /// Sizes on either side of the brute-force base and the fork cutoff,
    /// with and without a coincident pair.
    #[test]
    fn matches_brute_around_the_base_and_the_fork_cutoff() {
        fn both<const D: usize>(n: usize, seed: u64) {
            let mut pts = uniform_cube::<D>(n, seed);
            check(&pts);
            pts[n / 3] = pts[n - 1];
            check(&pts);
            assert_eq!(closest_pair(&pts).dist, 0.0);
        }
        for base in [BRUTE_BASE, SEQ_CUTOFF] {
            for n in [base - 1, base, base + 1, 2 * base + 1] {
                both::<2>(n, n as u64);
                both::<3>(n, n as u64);
                both::<5>(n, n as u64);
            }
        }
    }

    /// Past 65 536 points (where the presort used to change algorithm) a
    /// quadratic reference is too slow, so the answer is planted: two
    /// points a hundred times closer than uniform points ever get.
    #[test]
    fn finds_a_planted_pair_at_scale() {
        fn planted<const D: usize>(n: usize) {
            let mut pts = uniform_cube::<D>(n, n as u64);
            let (i, j) = (n / 5, n - 7);
            let mut q = pts[i];
            q[D - 1] += 1e-7;
            pts[j] = q;
            let got = closest_pair(&pts);
            assert_eq!((got.a as usize, got.b as usize), (i, j));
            assert_eq!(got.dist, pts[i].dist(&pts[j]));
            pts[j] = pts[i];
            assert_eq!(closest_pair(&pts).dist, 0.0);
        }
        for n in [65_535, 65_536, 65_537] {
            planted::<2>(n);
            planted::<3>(n);
            planted::<5>(n);
        }
    }

    #[test]
    fn two_points() {
        let pts = [Point::new([0.0, 0.0]), Point::new([3.0, 4.0])];
        let got = closest_pair(&pts);
        assert_eq!((got.a, got.b), (0, 1));
        assert!((got.dist - 5.0).abs() < 1e-12);
    }

    #[test]
    fn try_rejects_tiny_inputs_instead_of_panicking() {
        let err = try_closest_pair::<2>(&[]).unwrap_err();
        assert_eq!(
            err,
            GeoError::TooFewPoints {
                op: "closest_pair",
                needed: 2,
                got: 0
            }
        );
        let one = [Point::new([1.0, 2.0])];
        assert_eq!(
            try_closest_pair(&one),
            Err(GeoError::TooFewPoints {
                op: "closest_pair",
                needed: 2,
                got: 1
            })
        );
        let two = [Point::new([0.0, 0.0]), Point::new([3.0, 4.0])];
        assert!(try_closest_pair(&two).is_ok());
    }

    /// A NaN or infinite coordinate at the first, a middle or the last
    /// index is refused, in 2-D and 3-D.
    #[test]
    fn try_refuses_non_finite_coordinates() {
        fn refused<const D: usize>(seed: u64) {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, 500, 999] {
                    let mut pts = uniform_cube::<D>(1_000, seed);
                    pts[at].coords[at % D] = bad;
                    assert_eq!(
                        try_closest_pair(&pts),
                        Err(GeoError::BadParameter {
                            op: "closest_pair",
                            what: "non-finite coordinate"
                        }),
                        "{bad} at {at}"
                    );
                }
            }
        }
        refused::<2>(16);
        refused::<3>(17);
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<2>(30_000, 15);
        let a = pargeo_parlay::with_threads(1, || closest_pair(&pts));
        let b = pargeo_parlay::with_threads(4, || closest_pair(&pts));
        assert_eq!(a.dist, b.dist);
    }
}

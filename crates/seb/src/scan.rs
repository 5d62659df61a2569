//! Larsson et al.'s orthant scan and the paper's sampling-based two-phase
//! algorithm (Figure 6).

use crate::welzl::welzl_support;
use pargeo_geometry::{Ball, Point};

/// Safety valve: rounds before falling back to exact Welzl (never reached
/// on real data; guards pathological floating-point stalls).
const MAX_ROUNDS: usize = 200;

/// One parallel orthant scan: for every orthant around `ball.center`, the
/// furthest point *outside* the ball. Returns `(has_outlier, extremes)`.
///
/// The input is cut into blocks scanned sequentially but in parallel across
/// blocks; per-block extreme tables are merged (§4 "We parallelize the
/// orthant scan").
pub fn orthant_scan_pass<const D: usize>(
    points: &[Point<D>],
    ball: &Ball<D>,
) -> (bool, Vec<Point<D>>) {
    let orthants = 1usize << D.min(8);
    let center = ball.center;
    let merge = |mut a: Vec<Option<(f64, Point<D>)>>, b: Vec<Option<(f64, Point<D>)>>| {
        for (x, y) in a.iter_mut().zip(b) {
            if let Some((dy, py)) = y {
                match x {
                    Some((dx, _)) if *dx >= dy => {}
                    _ => *x = Some((dy, py)),
                }
            }
        }
        a
    };
    let scan_block = |chunk: &[Point<D>]| {
        let mut table: Vec<Option<(f64, Point<D>)>> = vec![None; orthants];
        for p in chunk {
            if ball.contains(p) {
                continue;
            }
            let mut o = 0usize;
            for i in 0..D.min(8) {
                o = (o << 1) | ((p[i] >= center[i]) as usize);
            }
            let d = p.dist_sq(&center);
            match &table[o] {
                Some((best, _)) if *best >= d => {}
                _ => table[o] = Some((d, *p)),
            }
        }
        table
    };
    let table = pargeo_parlay::reduce(points.len(), 8192, |r| scan_block(&points[r]), merge);
    let extremes: Vec<Point<D>> = table.into_iter().flatten().map(|(_, p)| p).collect();
    (!extremes.is_empty(), extremes)
}

/// `constructBall`: the next intermediate ball from the current support set
/// and the scan's extreme points (exact miniball of the ≤ `D+1 + 2^D`
/// candidates).
fn construct_ball<const D: usize>(
    support: &[Point<D>],
    extremes: &[Point<D>],
) -> (Ball<D>, Vec<Point<D>>) {
    let mut cand: Vec<Point<D>> = support.to_vec();
    cand.extend_from_slice(extremes);
    welzl_support(&cand)
}

/// Larsson et al.'s iterative orthant scan over the full input.
pub fn seb_orthant_scan<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    assert!(!points.is_empty(), "smallest enclosing ball of nothing");
    let (mut ball, mut support) = initial_ball(points);
    for _ in 0..MAX_ROUNDS {
        let (has_outlier, extremes) = orthant_scan_pass(points, &ball);
        if !has_outlier {
            return ball;
        }
        let (b, s) = construct_ball(&support, &extremes);
        // Monotone growth guard against floating-point stalls.
        ball = if b.radius > ball.radius {
            b
        } else {
            grow(ball, &extremes)
        };
        support = s;
    }
    crate::welzl::seb_welzl_parallel_mtf_pivot(points)
}

/// The paper's sampling-based algorithm (Figure 6): scan constant-size
/// random samples until one produces no outlier, then finish with full
/// orthant scans.
pub fn seb_sampling<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    seb_sampling_with_batch(points, 10_000)
}

/// Sampling SEB with an explicit sample-segment size `c`.
pub fn seb_sampling_with_batch<const D: usize>(points: &[Point<D>], c: usize) -> Ball<D> {
    assert!(!points.is_empty(), "smallest enclosing ball of nothing");
    let c = c.max(D + 2);
    let n = points.len();
    // Each round scans a constant-size random sample. The paper permutes
    // the whole input and walks segments; materializing the permutation
    // costs a full O(n) shuffle, which can exceed the scans it saves, so we
    // gather each segment by counter-mode hashed indices instead — the same
    // "random sample at negligible cost" the paper's sampling phase is
    // after, without the O(n) preprocessing.
    let (mut ball, mut support) = initial_ball(points);
    let mut seg: Vec<Point<D>> = Vec::with_capacity(c);
    // Sampling phase (Figure 6 lines 5–13).
    let mut scanned = 0usize;
    while scanned < n {
        seg.clear();
        for j in 0..c.min(n - scanned) {
            let h = pargeo_parlay::shuffle::splitmix64(0x5A11 ^ (scanned + j) as u64) as usize % n;
            seg.push(points[h]);
        }
        scanned += c;
        let (has_outlier, extremes) = orthant_scan_pass(&seg, &ball);
        if !has_outlier {
            break; // the current sample does not violate B
        }
        let (b, s) = construct_ball(&support, &extremes);
        ball = if b.radius > ball.radius {
            b
        } else {
            grow(ball, &extremes)
        };
        support = s;
    }
    // Final computation phase (lines 15–20).
    for _ in 0..MAX_ROUNDS {
        let (has_outlier, extremes) = orthant_scan_pass(points, &ball);
        if !has_outlier {
            return ball;
        }
        let (b, s) = construct_ball(&support, &extremes);
        ball = if b.radius > ball.radius {
            b
        } else {
            grow(ball, &extremes)
        };
        support = s;
    }
    crate::welzl::seb_welzl_parallel_mtf_pivot(points)
}

/// Initial ball: the diameter pair heuristic (a point, its furthest mate,
/// and the furthest point from their midpoint ball).
fn initial_ball<const D: usize>(points: &[Point<D>]) -> (Ball<D>, Vec<Point<D>>) {
    let a = points[0];
    let b = points[pargeo_parlay::max_index_by(points, |p| p.dist_sq(&a)).unwrap()];
    welzl_support(&[a, b])
}

/// Fallback growth step: expand `ball` minimally to cover `extremes`
/// (keeps the radius strictly increasing when the miniball update stalls
/// in floating point).
fn grow<const D: usize>(ball: Ball<D>, extremes: &[Point<D>]) -> Ball<D> {
    let mut b = ball;
    for p in extremes {
        let d = b.center.dist(p);
        if d > b.radius {
            // Shift the center toward p and grow to the midpoint ball of
            // the far boundary and p.
            let new_r = 0.5 * (b.radius + d);
            let t = (d - b.radius) / (2.0 * d);
            b = Ball {
                center: b.center + (*p - b.center) * t,
                radius: new_r,
            };
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    #[test]
    fn scan_pass_finds_extremes_per_orthant() {
        let pts = vec![
            Point::new([2.0, 2.0]),
            Point::new([-3.0, 2.0]),
            Point::new([0.1, 0.1]),
        ];
        let ball = Ball {
            center: Point::new([0.0, 0.0]),
            radius: 1.0,
        };
        let (has, ext) = orthant_scan_pass(&pts, &ball);
        assert!(has);
        assert_eq!(ext.len(), 2); // two distinct orthants outside
    }

    #[test]
    fn scan_pass_none_when_enclosed() {
        let pts = uniform_cube::<2>(1_000, 1);
        let (ball, _) = welzl_support(&pts);
        let (has, ext) = orthant_scan_pass(&pts, &ball);
        assert!(!has, "{ext:?}");
    }

    #[test]
    fn grow_covers_points() {
        let ball = Ball {
            center: Point::new([0.0, 0.0]),
            radius: 1.0,
        };
        let p = Point::new([5.0, 0.0]);
        let g = grow(ball, &[p]);
        assert!(g.contains(&p));
        assert!(g.contains(&Point::new([-1.0, 0.0]))); // old boundary kept
        assert!((g.radius - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_with_tiny_batches() {
        let pts = uniform_cube::<2>(5_000, 2);
        let b = seb_sampling_with_batch(&pts, 16);
        assert!(pts.iter().all(|p| b.contains(p)));
    }
}

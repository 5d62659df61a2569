//! Larsson et al.'s orthant scan and the paper's sampling-based two-phase
//! algorithm (Figure 6).

use crate::welzl::welzl_support;
use pargeo_geometry::{Ball, GeoError, GeoResult, Point};

/// Safety valve: rounds before falling back to exact Welzl (never reached
/// on real data; guards pathological floating-point stalls).
const MAX_ROUNDS: usize = 200;

/// The final phase's first full scan keeps the points not deeper than
/// `r/SHELL_DIV` inside its ball; each later one twice as deep (DESIGN
/// §2.14).
const SHELL_DIV: f64 = 128.0;

/// Points in one sample of the sampling phase.
pub(crate) const SAMPLE: usize = 10_000;

/// The refusal of a NaN or infinite coordinate.
pub(crate) const NON_FINITE: GeoError = GeoError::BadParameter {
    op: "seb",
    what: "non-finite coordinate",
};

/// One parallel orthant scan (§4 "We parallelize the orthant scan"):
/// for every orthant around `ball.center`, the first furthest point
/// outside the ball in input order. With `Some(inner)`, `inner ≤ r`, it
/// also returns the **shell**: the points, in input order, not within
/// `inner` of the center, a NaN or infinite coordinate among them. The
/// shell holds every outlier, so a scan of it finds the same extremes;
/// each block then scans only its own shell.
fn scan<const D: usize>(
    points: &[Point<D>],
    ball: &Ball<D>,
    inner: Option<f64>,
) -> (Vec<Point<D>>, Vec<Point<D>>) {
    type Scanned<const D: usize> = (Vec<Option<(f64, Point<D>)>>, Vec<Vec<Point<D>>>);
    let orthants = 1usize << D.min(8);
    let center = ball.center;
    let scan_block = |chunk: &[Point<D>]| {
        let mut table = vec![None; orthants];
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
    let leaf = |r: std::ops::Range<usize>| {
        let Some(inner) = inner else {
            return (scan_block(&points[r]), Vec::new());
        };
        let inner_sq = inner * inner;
        // Farther than `inner`, or unordered: a NaN always joins the shell.
        let shell: Vec<Point<D>> = points[r]
            .iter()
            .filter(|p| {
                let d = p.dist_sq(&center).partial_cmp(&inner_sq);
                d.is_none_or(|d| d.is_gt())
            })
            .copied()
            .collect();
        (scan_block(&shell), vec![shell])
    };
    let merge = |(mut a, mut shell): Scanned<D>, (b, more): Scanned<D>| {
        for (x, y) in a.iter_mut().zip(b) {
            if let Some((dy, py)) = y {
                match x {
                    Some((dx, _)) if *dx >= dy => {}
                    _ => *x = Some((dy, py)),
                }
            }
        }
        shell.extend(more);
        (a, shell)
    };
    let (table, shell) = pargeo_parlay::reduce(points.len(), 8192, leaf, merge);
    let extremes = table.into_iter().flatten().map(|(_, p)| p).collect();
    (extremes, shell.concat())
}

/// Larsson et al.'s iterative orthant scan over the full input: the
/// initial ball, then the sampling method's final phase. Panics on empty
/// input or a non-finite coordinate, which [`crate::try_seb_with`] refuses.
pub fn seb_orthant_scan<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    assert!(!points.is_empty(), "smallest enclosing ball of nothing");
    let ball = initial_ball(points).and_then(|(ball, support)| finish(points, ball, support));
    ball.unwrap_or_else(|e| panic!("{e}")).0
}

/// The paper's sampling-based algorithm (Figure 6): scan constant-size
/// random samples until one produces no outlier, then finish with orthant
/// scans that read the input once.
pub fn seb_sampling<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    seb_sampling_with_batch(points, SAMPLE)
}

/// Sampling SEB with an explicit sample-segment size `c`. Panics on empty
/// input or a non-finite coordinate, which [`crate::try_seb`] refuses.
pub fn seb_sampling_with_batch<const D: usize>(points: &[Point<D>], c: usize) -> Ball<D> {
    assert!(!points.is_empty(), "smallest enclosing ball of nothing");
    sampling(points, c).unwrap_or_else(|e| panic!("{e}")).0
}

/// Sampling SEB of non-empty input, and the number of full scans its final
/// phase made.
pub(crate) fn sampling<const D: usize>(
    points: &[Point<D>],
    c: usize,
) -> GeoResult<(Ball<D>, usize)> {
    let (ball, support) = sample(points, c)?;
    finish(points, ball, support)
}

/// The sampling phase (Figure 6 lines 5–13): the ball and support set of
/// the first sample without an outlier.
fn sample<const D: usize>(points: &[Point<D>], c: usize) -> GeoResult<(Ball<D>, Vec<Point<D>>)> {
    let c = c.max(D + 2);
    let n = points.len();
    // Each round scans a constant-size random sample. The paper permutes
    // the whole input and walks segments; materializing the permutation
    // costs a full O(n) shuffle, which can exceed the scans it saves, so we
    // gather each segment by counter-mode hashed indices instead — the same
    // "random sample at negligible cost" the paper's sampling phase is
    // after, without the O(n) preprocessing.
    let (mut ball, mut support) = initial_ball(points)?;
    let mut seg: Vec<Point<D>> = Vec::with_capacity(c);
    let mut scanned = 0usize;
    while scanned < n {
        seg.clear();
        for j in 0..c.min(n - scanned) {
            let h = pargeo_parlay::shuffle::splitmix64(0x5A11 ^ (scanned + j) as u64) as usize % n;
            seg.push(points[h]);
        }
        if !seg.iter().all(Point::is_finite) {
            return Err(NON_FINITE);
        }
        scanned += c;
        let (extremes, _) = scan(&seg, &ball, None);
        if extremes.is_empty() {
            break; // the current sample does not violate B
        }
        (ball, support) = update(ball, &support, &extremes);
    }
    Ok((ball, support))
}

/// The final phase (Figure 6 lines 15–20): orthant scans and ball updates
/// until a scan finds no outlier. A full scan at ball `A` keeps its shell
/// for `inner = r_A − w·r_A`. While the current ball `B` satisfies
/// `|c_B − c_A| + inner ≤ r_B`, every point outside the shell lies inside
/// `B`, so the next scan reads the shell alone; when the certificate fails
/// it is a full scan again, with `w` doubled. Returns the ball and the
/// number of full scans.
fn finish<const D: usize>(
    points: &[Point<D>],
    mut ball: Ball<D>,
    mut support: Vec<Point<D>>,
) -> GeoResult<(Ball<D>, usize)> {
    // `inner` starts NaN, which no certificate passes: the first scan is full.
    let (mut shell, mut anchor, mut inner, mut reads) = (Vec::new(), ball.center, f64::NAN, 0);
    let mut width = 1.0 / SHELL_DIV;
    for _ in 0..MAX_ROUNDS {
        let extremes = if ball.center.dist(&anchor) + inner <= ball.radius {
            scan(&shell, &ball, None).0
        } else {
            drop(std::mem::take(&mut shell)); // before the next is gathered
            (anchor, inner) = (ball.center, ball.radius - ball.radius * width);
            width = (2.0 * width).min(1.0); // wider if this one fails; `inner ≥ 0`
            let (extremes, gathered) = scan(points, &ball, Some(inner));
            if !gathered.iter().all(Point::is_finite) {
                return Err(NON_FINITE);
            }
            (shell, reads) = (gathered, reads + 1);
            extremes
        };
        if extremes.is_empty() {
            return Ok((ball, reads));
        }
        (ball, support) = update(ball, &support, &extremes);
    }
    Ok((crate::welzl::seb_welzl_parallel_mtf_pivot(points), reads))
}

/// One round's ball update: `constructBall`, the exact miniball of the
/// support set and the scan's extremes (≤ `D+1 + 2^D` candidates), or
/// [`grow`] when that stalls in floating point (the radius must rise).
fn update<const D: usize>(
    ball: Ball<D>,
    support: &[Point<D>],
    extremes: &[Point<D>],
) -> (Ball<D>, Vec<Point<D>>) {
    let mut cand: Vec<Point<D>> = support.to_vec();
    cand.extend_from_slice(extremes);
    let (b, s) = welzl_support(&cand);
    let b = if b.radius > ball.radius {
        b
    } else {
        grow(ball, extremes)
    };
    (b, s)
}

/// Initial ball: the diameter pair heuristic (a point, its furthest mate,
/// and the furthest point from their midpoint ball). A non-finite pair is
/// refused here; any other non-finite point joins the first shell.
fn initial_ball<const D: usize>(points: &[Point<D>]) -> GeoResult<(Ball<D>, Vec<Point<D>>)> {
    let a = points[0];
    let b = points[pargeo_parlay::max_index_by(points, |p| p.dist_sq(&a)).unwrap()];
    if !(a.is_finite() && b.is_finite()) {
        return Err(NON_FINITE);
    }
    Ok(welzl_support(&[a, b]))
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
        let (ext, _) = scan(&pts, &ball, None);
        assert_eq!(ext.len(), 2); // two distinct orthants outside
    }

    #[test]
    fn scan_pass_none_when_enclosed() {
        let pts = uniform_cube::<2>(1_000, 1);
        let (ball, _) = welzl_support(&pts);
        let (ext, _) = scan(&pts, &ball, None);
        assert!(ext.is_empty(), "{ext:?}");
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

    /// The orthant scan in one sequential pass over the whole input: per
    /// orthant, the first furthest outlier in input order.
    fn full_scan<const D: usize>(points: &[Point<D>], ball: &Ball<D>) -> Vec<Point<D>> {
        let mut table: Vec<Option<(f64, Point<D>)>> = vec![None; 1 << D.min(8)];
        for p in points.iter().filter(|p| !ball.contains(p)) {
            let o = (0..D.min(8)).fold(0, |o, i| (o << 1) | (p[i] >= ball.center[i]) as usize);
            let d = p.dist_sq(&ball.center);
            if table[o].is_none_or(|(best, _)| d > best) {
                table[o] = Some((d, *p));
            }
        }
        table.into_iter().flatten().map(|(_, p)| p).collect()
    }

    /// The reference final phase: a full orthant scan of the input per
    /// ball update.
    fn finish_full_scans<const D: usize>(
        points: &[Point<D>],
        mut ball: Ball<D>,
        mut support: Vec<Point<D>>,
    ) -> Ball<D> {
        for _ in 0..MAX_ROUNDS {
            let extremes = full_scan(points, &ball);
            if extremes.is_empty() {
                return ball;
            }
            (ball, support) = update(ball, &support, &extremes);
        }
        crate::welzl::seb_welzl_parallel_mtf_pivot(points)
    }

    fn bits<const D: usize>(ball: &Ball<D>) -> (u64, [u64; D]) {
        (ball.radius.to_bits(), ball.center.coords.map(f64::to_bits))
    }

    /// The shell finish and the full-scan finish return the same bits from
    /// the sampling phase's ball and from Larsson's initial ball.
    fn same_finish<const D: usize>(pts: &[Point<D>], label: &str) {
        let starts = [
            sample(pts, SAMPLE).unwrap(),
            sample(pts, 64).unwrap(),
            initial_ball(pts).unwrap(),
        ];
        for (k, (ball, support)) in starts.into_iter().enumerate() {
            let want = finish_full_scans(pts, ball, support.clone());
            let (got, _) = finish(pts, ball, support).unwrap();
            assert_eq!(bits(&got), bits(&want), "{label}, start {k}");
        }
    }

    #[test]
    fn shell_finish_is_the_full_scan_finish() {
        use pargeo_datagen::{in_sphere, on_cube, on_sphere};
        for seed in 0..6 {
            for n in [50, 3_000, 40_000] {
                same_finish(&on_sphere::<2>(n, seed), &format!("OS2 {n}/{seed}"));
                same_finish(&on_sphere::<3>(n, seed), &format!("OS3 {n}/{seed}"));
                same_finish(&in_sphere::<3>(n, seed), &format!("IS3 {n}/{seed}"));
                same_finish(&on_cube::<3>(n, seed), &format!("OC3 {n}/{seed}"));
                same_finish(&uniform_cube::<2>(n, seed), &format!("U2 {n}/{seed}"));
                same_finish(&uniform_cube::<5>(n, seed), &format!("U5 {n}/{seed}"));
            }
        }
    }

    /// The final phase reads the input once on on-sphere input, where the
    /// full-scan loop read it 4 times (seed 1) and 3 times (seed 2).
    #[test]
    fn final_phase_reads_on_sphere_input_once() {
        for seed in [1, 2] {
            let pts = pargeo_datagen::on_sphere::<3>(200_000, seed);
            let (_, reads) = sampling(&pts, SAMPLE).unwrap();
            assert_eq!(reads, 1, "seed {seed}");
        }
    }

    #[test]
    fn sampling_with_tiny_batches() {
        let pts = uniform_cube::<2>(5_000, 2);
        let b = seb_sampling_with_batch(&pts, 16);
        assert!(pts.iter().all(|p| b.contains(p)));
    }
}

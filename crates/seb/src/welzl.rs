//! Welzl's algorithm: sequential (with move-to-front) and the parallel
//! prefix-doubling scheme with the paper's heuristics.

use pargeo_geometry::{ball_through, Ball, Point};
use pargeo_parlay as parlay;

/// Prefix size below which the parallel algorithm runs sequentially
/// (the paper uses 500 000 on a 36-core machine; scaled for laptops).
const SEQ_CUTOFF: usize = 50_000;

/// Sequential Welzl with move-to-front — the Figure 10 "CGAL" stand-in.
pub fn seb_welzl_seq<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    assert!(!points.is_empty(), "smallest enclosing ball of nothing");
    let mut pts = points.to_vec();
    parlay::shuffle_seeded(&mut pts, 0x5EB);
    let mut support = Vec::with_capacity(D + 1);
    seq_md(&mut pts, &mut support, true)
}

/// Sequential Welzl that also returns the support set (used by the orthant
/// scan's `constructBall` and by tests).
pub fn welzl_support<const D: usize>(points: &[Point<D>]) -> (Ball<D>, Vec<Point<D>>) {
    assert!(!points.is_empty());
    let mut pts = points.to_vec();
    parlay::shuffle_seeded(&mut pts, 0x5EB);
    let mut support = Vec::with_capacity(D + 1);
    let ball = seq_md(&mut pts, &mut support, true);
    // Recover the support as the input points on the boundary (≤ D+1).
    let r = ball.radius.max(1e-300);
    let mut sup: Vec<Point<D>> = Vec::new();
    for p in points {
        if ((p.dist(&ball.center) - r) / r).abs() < 1e-7 && !sup.iter().any(|s| s == p) {
            sup.push(*p);
            if sup.len() == D + 1 {
                break;
            }
        }
    }
    if sup.is_empty() {
        sup.push(points[0]);
    }
    (ball, sup)
}

/// Welzl's recursion over `pts` with the boundary set `support`.
/// `mtf` enables the move-to-front heuristic.
fn seq_md<const D: usize>(pts: &mut [Point<D>], support: &mut Vec<Point<D>>, mtf: bool) -> Ball<D> {
    let mut ball = ball_through(support);
    if support.len() == D + 1 {
        return ball;
    }
    for i in 0..pts.len() {
        if !ball.contains(&pts[i]) {
            let p = pts[i];
            support.push(p);
            ball = seq_md(&mut pts[..i], support, mtf);
            support.pop();
            if mtf {
                // Move the violator to the front so later recursions meet
                // it early.
                pts[..=i].rotate_right(1);
            }
        }
    }
    ball
}

/// Heuristic set for the parallel Welzl driver.
#[derive(Clone, Copy, Default)]
struct Opts {
    mtf: bool,
    pivot: bool,
}

/// Parallel Welzl (prefix doubling), no heuristics.
pub fn seb_welzl_parallel<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    drive(points, Opts::default())
}

/// Parallel Welzl with move-to-front.
pub fn seb_welzl_parallel_mtf<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    drive(
        points,
        Opts {
            mtf: true,
            pivot: false,
        },
    )
}

/// Parallel Welzl with move-to-front and Gärtner pivoting (the pivot is
/// located with a parallel maximum-finding pass).
pub fn seb_welzl_parallel_mtf_pivot<const D: usize>(points: &[Point<D>]) -> Ball<D> {
    drive(
        points,
        Opts {
            mtf: true,
            pivot: true,
        },
    )
}

fn drive<const D: usize>(points: &[Point<D>], opts: Opts) -> Ball<D> {
    assert!(!points.is_empty(), "smallest enclosing ball of nothing");
    let mut pts = points.to_vec();
    parlay::shuffle_seeded(&mut pts, 0x5EB);
    par_md(&mut pts, &mut Vec::with_capacity(D + 1), opts)
}

/// Parallel analogue of [`seq_md`]: processes prefixes of exponentially
/// increasing size; each prefix is scanned in parallel for its earliest
/// violator, which is pushed onto the support for a recursive call on the
/// points before it.
fn par_md<const D: usize>(
    pts: &mut [Point<D>],
    support: &mut Vec<Point<D>>,
    opts: Opts,
) -> Ball<D> {
    if support.len() == D + 1 {
        return ball_through(support);
    }
    let n = pts.len();
    if n <= SEQ_CUTOFF {
        return seq_md(pts, support, opts.mtf);
    }
    // Sequential warm-up prefix (limited parallelism there — §4).
    let mut ball = seq_md(&mut pts[..SEQ_CUTOFF], support, opts.mtf);
    let mut lo = SEQ_CUTOFF;
    let mut hi = (2 * SEQ_CUTOFF).min(n);
    while lo < n {
        match first_violator(&pts[lo..hi], &ball) {
            None => {
                lo = hi;
                hi = (2 * hi).max(lo + 1).min(n);
            }
            Some(rel) => {
                let mut idx = lo + rel;
                if opts.pivot {
                    // Use the globally furthest point from the current
                    // center instead (parallel maximum-finding); it is a
                    // violator because one exists. Its big radius jump cuts
                    // the number of subsequent violators (Gärtner).
                    let center = ball.center;
                    let far = parlay::max_index_by(pts, |p| p.dist_sq(&center)).expect("non-empty");
                    if !ball.contains(&pts[far]) {
                        idx = far;
                    }
                }
                let p = pts[idx];
                if opts.mtf {
                    pts[..=idx].rotate_right(1);
                    support.push(p);
                    ball = par_md(&mut pts[1..=idx], support, opts);
                    support.pop();
                } else {
                    support.push(p);
                    ball = par_md(&mut pts[..idx], support, opts);
                    support.pop();
                }
                // Everything up to and including idx is now enclosed; with
                // a pivot behind `lo` the scan backs up and revalidates the
                // stretch in between (radius strictly grew, so this
                // terminates).
                lo = idx + 1;
                hi = (2 * lo).max(SEQ_CUTOFF).min(n);
            }
        }
    }
    ball
}

/// Index of the first point outside `ball` (parallel reduce).
fn first_violator<const D: usize>(pts: &[Point<D>], ball: &Ball<D>) -> Option<usize> {
    parlay::reduce(
        pts.len(),
        8192,
        |mut r| r.find(|&i| !ball.contains(&pts[i])),
        // The left run holds the smaller indices.
        |l, r| l.or(r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    #[test]
    fn seq_md_supports_full_support() {
        // Equilateral-ish triangle: all three points on the boundary.
        let pts = [
            Point::new([0.0, 0.0]),
            Point::new([4.0, 0.0]),
            Point::new([2.0, 3.0]),
        ];
        let b = seb_welzl_seq(&pts);
        for p in &pts {
            assert!((b.center.dist(p) - b.radius).abs() < 1e-9);
        }
    }

    #[test]
    fn first_violator_finds_earliest() {
        let mut pts = vec![Point::new([0.0, 0.0]); 100_000];
        pts[70_001] = Point::new([10.0, 0.0]);
        pts[90_000] = Point::new([11.0, 0.0]);
        let ball = Ball {
            center: Point::new([0.0, 0.0]),
            radius: 1.0,
        };
        assert_eq!(first_violator(&pts, &ball), Some(70_001));
    }

    #[test]
    fn parallel_equals_sequential_radius() {
        let pts = uniform_cube::<3>(200_000, 7);
        let seq = seb_welzl_seq(&pts);
        for f in [
            seb_welzl_parallel,
            seb_welzl_parallel_mtf,
            seb_welzl_parallel_mtf_pivot,
        ] {
            let par = f(&pts);
            assert!((par.radius - seq.radius).abs() < 1e-9 * (1.0 + seq.radius));
            assert!(pts.iter().all(|p| par.contains(p)));
        }
    }

    #[test]
    fn support_recovery() {
        let pts = uniform_cube::<2>(500, 8);
        let (ball, sup) = welzl_support(&pts);
        assert!(!sup.is_empty() && sup.len() <= 3);
        for s in &sup {
            assert!((ball.center.dist(s) - ball.radius).abs() < 1e-6 * (1.0 + ball.radius));
        }
    }
}

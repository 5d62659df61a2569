//! Parallel recursive quickhull for R² — the paper's `QuickHull` entry for
//! 2D (Blelloch's vector-model algorithm \[19\] as implemented in PBBS):
//! the furthest point splits the chord and the halves recurse in parallel.
//! A level is the sequential quickhull's one fused pass ([`split_around`])
//! run over chunks of the candidates and stitched in order, so the
//! predicate count is the sequential algorithm's at any thread count.

use super::seq::{qh_rec, split_around, split_chord, Side};
use super::{extremes, Extremes};
use pargeo_geometry::Point2;
use pargeo_parlay as parlay;

const SEQ_CUTOFF: usize = parlay::GRANULARITY;

/// Parallel quickhull. Returns CCW hull vertex indices.
pub fn hull2d_quickhull_parallel(points: &[Point2]) -> Vec<u32> {
    match extremes(points) {
        Ok(ext) => quickhull_from(points, &ext),
        Err(flat) => flat,
    }
}

/// [`hull2d_quickhull_parallel`] from the extremes the caller already
/// found.
pub(super) fn quickhull_from(points: &[Point2], ext: &Extremes) -> Vec<u32> {
    let (a, b) = (ext.lo, ext.hi);
    let (below, above) = parlay::reduce(
        points.len(),
        SEQ_CUTOFF,
        |r| split_chord(points, ext, r.start as u32..r.end as u32),
        stitch,
    );
    let (mut lower, mut upper) = parlay::par_do(
        || par_rec(points, a, b, below),
        || par_rec(points, b, a, above),
    );
    let mut out = Vec::with_capacity(lower.len() + upper.len() + 2);
    out.push(a);
    out.append(&mut lower);
    out.push(b);
    out.append(&mut upper);
    out
}

/// Joins the splits of two consecutive runs of candidates.
fn stitch(mut all: (Side, Side), (left, right): (Side, Side)) -> (Side, Side) {
    all.0.append(left);
    all.1.append(right);
    all
}

/// Returns the hull vertices strictly between `a` and `b`, in walk order.
fn par_rec(points: &[Point2], a: u32, b: u32, side: Side) -> Vec<u32> {
    if side.ids.len() < SEQ_CUTOFF {
        let mut out = Vec::new();
        qh_rec(points, a, b, side, &mut out);
        return out;
    }
    let f = side.far;
    let (left, right) = parlay::reduce(
        side.ids.len(),
        SEQ_CUTOFF,
        |r| split_around(points, a, f, b, &side.ids[r]),
        stitch,
    );
    drop(side);
    let (mut lo, mut hi) = parlay::par_do(
        || par_rec(points, a, f, left),
        || par_rec(points, f, b, right),
    );
    let mut out = Vec::with_capacity(lo.len() + hi.len() + 1);
    out.append(&mut lo);
    out.push(f);
    out.append(&mut hi);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull2d::validate::check_hull2d;
    use pargeo_datagen::uniform_cube;

    #[test]
    fn matches_sequential_on_large_input() {
        let pts = uniform_cube::<2>(50_000, 11);
        let par = hull2d_quickhull_parallel(&pts);
        let seq = crate::hull2d::hull2d_seq(&pts);
        assert_eq!(par, seq);
        check_hull2d(&pts, &par).unwrap();
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<2>(30_000, 12);
        let a = pargeo_parlay::with_threads(1, || hull2d_quickhull_parallel(&pts));
        let b = pargeo_parlay::with_threads(4, || hull2d_quickhull_parallel(&pts));
        assert_eq!(a, b);
    }
}

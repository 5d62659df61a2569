//! Divide-and-conquer 2D convex hull (paper §3 "Parallel
//! Divide-and-Conquer").
//!
//! The input is split into `c · numProc` equal chunks; each chunk's hull is
//! computed by one processor with the optimized *sequential* quickhull (all
//! chunks in parallel); the union of the sub-hull vertices — a small set —
//! is then resolved with the reservation-based parallel algorithm.

use super::{extremes, hull2d_randinc, hull2d_seq};
use pargeo_geometry::Point2;
use pargeo_parlay as parlay;

/// Chunks per processor (the paper's small constant `c`).
const CHUNKS_PER_PROC: usize = 4;

/// Divide-and-conquer hull. Returns CCW hull vertex indices.
pub fn hull2d_divide_conquer(points: &[Point2]) -> Vec<u32> {
    if let Err(flat) = extremes(points) {
        return flat;
    }
    let n = points.len();
    let nchunks = (CHUNKS_PER_PROC * parlay::num_threads()).clamp(1, n.div_ceil(8));
    if nchunks <= 1 {
        return hull2d_seq(points);
    }
    let chunk = n.div_ceil(nchunks);
    // Sub-hulls in parallel (grain 1: an item is a whole sub-hull), each
    // sequential. Every corner of the full hull is a corner of its
    // chunk's hull, under the same (smallest) index.
    let sub_hulls: Vec<Vec<u32>> = parlay::tabulate(nchunks, 1, |c| {
        let lo = c * chunk;
        let hi = ((c + 1) * chunk).min(n);
        let mut hull = hull2d_seq(&points[lo..hi]);
        hull.iter_mut().for_each(|v| *v += lo as u32);
        hull.sort_unstable();
        hull
    });
    // Conquer over the (few) candidates, in index order so that the
    // smallest index of a corner stays the smallest, with the reservation
    // algorithm.
    let candidate_ids = sub_hulls.concat();
    let cand_points: Vec<Point2> = candidate_ids.iter().map(|&i| points[i as usize]).collect();
    hull2d_randinc(&cand_points)
        .into_iter()
        .map(|i| candidate_ids[i as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull2d::validate::check_hull2d;
    use pargeo_datagen::{on_sphere, uniform_cube};

    #[test]
    fn matches_sequential() {
        let pts = uniform_cube::<2>(30_000, 31);
        let got = hull2d_divide_conquer(&pts);
        check_hull2d(&pts, &got).unwrap();
        assert_eq!(got, hull2d_seq(&pts));
    }

    #[test]
    fn surface_data() {
        let pts = on_sphere::<2>(8_000, 32);
        let h = hull2d_divide_conquer(&pts);
        check_hull2d(&pts, &h).unwrap();
    }

    #[test]
    fn small_input_falls_back() {
        let pts = uniform_cube::<2>(20, 33);
        let h = hull2d_divide_conquer(&pts);
        check_hull2d(&pts, &h).unwrap();
    }
}

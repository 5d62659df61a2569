//! Divide-and-conquer 3D convex hull (paper §3).
//!
//! `c · numProc` chunks are solved with the sequential quickhull in
//! parallel; the union of sub-hull vertices is resolved with the
//! reservation-based parallel quickhull.

use super::mesh::Hull3d;
use super::reservation::hull3d_quickhull_parallel;
use super::seq::hull3d_seq;
use pargeo_geometry::Point3;
use pargeo_parlay as parlay;

const CHUNKS_PER_PROC: usize = 4;

/// Divide-and-conquer hull.
pub fn hull3d_divide_conquer(points: &[Point3]) -> Hull3d {
    let n = points.len();
    if n < 64 {
        return hull3d_seq(points);
    }
    let nchunks = (CHUNKS_PER_PROC * parlay::num_threads()).clamp(1, n / 16);
    let chunk = n.div_ceil(nchunks);
    // Grain 1: an item is a whole sub-hull.
    let sub_hulls: Vec<Vec<u32>> = parlay::tabulate(nchunks, 1, |c| {
        let lo = c * chunk;
        let hi = ((c + 1) * chunk).min(n);
        let mut vertices = hull3d_seq(&points[lo..hi]).vertices;
        vertices.iter_mut().for_each(|v| *v += lo as u32);
        vertices
    });
    let candidate_ids = sub_hulls.concat();
    let cand_points: Vec<Point3> = candidate_ids.iter().map(|&i| points[i as usize]).collect();
    hull3d_quickhull_parallel(&cand_points).remap(&candidate_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull3d::validate::check_hull3d;
    use pargeo_datagen::{statue_surface, uniform_cube};

    #[test]
    fn matches_sequential() {
        let pts = uniform_cube::<3>(8_000, 81);
        let h = hull3d_divide_conquer(&pts);
        check_hull3d(&pts, &h).unwrap();
        assert_eq!(h.vertices, hull3d_seq(&pts).vertices);
    }

    #[test]
    fn statue_surface_hull() {
        let pts = statue_surface(2_000, 82);
        let h = hull3d_divide_conquer(&pts);
        check_hull3d(&pts, &h).unwrap();
        assert_eq!(h.vertices, hull3d_seq(&pts).vertices);
    }
}

//! Pseudohull point culling (Tang et al. \[54\], multicore variant — §3
//! "Point Culling via Pseudohull Computation").
//!
//! Starting from the initial tetrahedron, every facet recursively grows
//! toward its furthest visible point, splitting into three child facets;
//! points interior to the local tetrahedron `(a, b, c, q)` are provably
//! inside the input's hull and are discarded. Unlike Tang et al.'s
//! GPU lock-step expansion, the recursion runs asynchronously in parallel
//! (fork-join); and instead of growing until no visible points remain, a
//! facet stops when its conflict count drops below a threshold — the
//! stack-overflow guard the paper describes. The survivors (a small
//! fraction of the input) are handed to the reservation-based parallel
//! quickhull for the exact final hull.

use super::mesh::{sees, tetra_faces, Hull3d};
use super::reservation::quickhull_from;
use super::{degenerate_hull3d, initial_tetrahedron};
use pargeo_geometry::Point3;
use pargeo_parlay::par_do;

/// Default facet-size threshold below which the pseudohull stops growing.
pub const DEFAULT_CULL_THRESHOLD: usize = 32;

const SEQ_CUTOFF: usize = 2048;

/// Pseudohull culling followed by parallel quickhull (default threshold).
pub fn hull3d_pseudo(points: &[Point3]) -> Hull3d {
    hull3d_pseudo_with_threshold(points, DEFAULT_CULL_THRESHOLD)
}

/// Pseudohull culling with an explicit stop threshold.
pub fn hull3d_pseudo_with_threshold(points: &[Point3], threshold: usize) -> Hull3d {
    match initial_tetrahedron(points) {
        Ok(tetra) => pseudo_from(points, tetra, threshold),
        Err(_) => degenerate_hull3d(points),
    }
}

/// [`hull3d_pseudo_with_threshold`] from a seed tetrahedron the caller
/// already found.
pub(crate) fn pseudo_from(points: &[Point3], tetra: [u32; 4], threshold: usize) -> Hull3d {
    let threshold = threshold.max(1);
    // Assign each exterior point to the first tetrahedron face it sees.
    let faces = tetra_faces(points, tetra);
    let mut face_pts: [Vec<u32>; 4] = Default::default();
    for q in 0..points.len() as u32 {
        if let Some(i) = faces.iter().position(|f| sees(points, f, q)) {
            face_pts[i].push(q);
        }
    }
    // Grow the four pseudohull cones in parallel.
    let [p0, p1, p2, p3] = face_pts;
    let grow = |i: usize, pts| {
        let mut cone = Vec::new();
        expand(points, faces[i], pts, threshold, &mut cone);
        cone
    };
    let ((s0, s1), (s2, s3)) = par_do(
        || par_do(|| grow(0, p0), || grow(1, p1)),
        || par_do(|| grow(2, p2), || grow(3, p3)),
    );
    let mut candidates: Vec<u32> = [&tetra[..], &s0, &s1, &s2, &s3].concat();
    candidates.sort_unstable();
    candidates.dedup();
    // Exact hull on the survivors, seeded with the same tetrahedron.
    let cand_points: Vec<Point3> = candidates.iter().map(|&i| points[i as usize]).collect();
    let local_tetra = tetra.map(|t| candidates.binary_search(&t).expect("seed survives") as u32);
    quickhull_from(&cand_points, local_tetra).remap(&candidates)
}

/// Grows facet `(a, b, c)` toward its furthest conflict point; appends the
/// surviving candidates of this cone (including every pseudohull vertex
/// used along the way) to `out`.
fn expand(points: &[Point3], f: [u32; 3], pts: Vec<u32>, threshold: usize, out: &mut Vec<u32>) {
    if pts.len() <= threshold {
        out.extend(pts);
        return;
    }
    // Furthest point from the facet plane (selection only: doubles).
    let a = points[f[0] as usize];
    let n = (points[f[1] as usize] - a).cross(&(points[f[2] as usize] - a));
    let height = |t: u32| (points[t as usize] - a).dot(&n);
    let q = *pts
        .iter()
        .max_by(|&&x, &&y| height(x).partial_cmp(&height(y)).unwrap())
        .unwrap();
    out.push(q);
    // The other three faces of the local tetrahedron (a, b, c, q): `q` is
    // above the outward-oriented `f`, so these are outward as written.
    let children = [[f[0], f[1], q], [f[1], f[2], q], [f[2], f[0], q]];
    let mut child_pts: [Vec<u32>; 3] = Default::default();
    for &t in pts.iter().filter(|&&t| t != q) {
        // Points visible to no child are inside (a, b, c, q): provably
        // interior to the final hull, discard.
        if let Some(i) = children.iter().position(|c| sees(points, c, t)) {
            child_pts[i].push(t);
        }
    }
    drop(pts);
    let [p0, p1, p2] = child_pts;
    if p0.len() + p1.len() + p2.len() >= SEQ_CUTOFF {
        let grow = |i: usize, pts| {
            let mut cone = Vec::new();
            expand(points, children[i], pts, threshold, &mut cone);
            cone
        };
        let (_, (s1, s2)) = par_do(
            || expand(points, children[0], p0, threshold, out),
            || par_do(|| grow(1, p1), || grow(2, p2)),
        );
        out.extend(s1);
        out.extend(s2);
    } else {
        for (child, pts) in children.into_iter().zip([p0, p1, p2]) {
            expand(points, child, pts, threshold, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull3d::validate::check_hull3d;
    use pargeo_datagen::{in_sphere, uniform_cube};

    #[test]
    fn culling_preserves_the_exact_hull() {
        let pts = uniform_cube::<3>(5_000, 71);
        let h = hull3d_pseudo(&pts);
        check_hull3d(&pts, &h).unwrap();
        assert_eq!(h.vertices, crate::hull3d::hull3d_seq(&pts).vertices);
    }

    #[test]
    fn threshold_one_prunes_hardest() {
        let pts = in_sphere::<3>(2_000, 72);
        let h = hull3d_pseudo_with_threshold(&pts, 1);
        check_hull3d(&pts, &h).unwrap();
        assert_eq!(h.vertices, crate::hull3d::hull3d_seq(&pts).vertices);
    }

    #[test]
    fn large_threshold_degenerates_to_plain_quickhull() {
        let pts = uniform_cube::<3>(1_000, 73);
        let h = hull3d_pseudo_with_threshold(&pts, usize::MAX >> 1);
        check_hull3d(&pts, &h).unwrap();
        assert_eq!(h.vertices, crate::hull3d::hull3d_seq(&pts).vertices);
    }
}

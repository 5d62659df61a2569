//! Optimized sequential 3D quickhull — the CGAL / Qhull baseline stand-in
//! of Figure 9, and the "no-reservation" side of Figure 12.

use super::mesh::{Cavity, Hull3d, Mesh, Scratch};
use super::{degenerate_hull3d, initial_tetrahedron};
use crate::reservation::{Complex, HullStats, NONE};
use pargeo_geometry::Point3;

/// Sequential quickhull.
pub fn hull3d_seq(points: &[Point3]) -> Hull3d {
    hull3d_seq_with_stats(points).0
}

/// Sequential quickhull with the Figure 12 work counters.
pub fn hull3d_seq_with_stats(points: &[Point3]) -> (Hull3d, HullStats) {
    let mut stats = HullStats::default();
    let Ok(tetra) = initial_tetrahedron(points) else {
        return (degenerate_hull3d(points), stats);
    };
    let mut mesh = Mesh::new_tetrahedron(points, tetra);
    for q in 0..points.len() as u32 {
        mesh.seed(q, mesh.seed_facet(q));
    }
    // Facet work stack (quickhull order: any facet with conflicts; its
    // furthest point is inserted next). A slot that died or was reused
    // since it was pushed is simply judged by what it holds now.
    let mut active: Vec<u32> = (0..4).collect();
    let (mut scratch, mut cav) = (Scratch::default(), Cavity::default());
    while let Some(f) = active.pop() {
        if mesh.pts[f as usize].is_empty() {
            continue;
        }
        mesh.find_cavity(&mut scratch, f, NONE, &mut cav);
        stats.points_touched += 1;
        stats.facets_touched += cav.visible.len() as u64;
        stats.rounds += 1;
        stats.insertions += 1;
        mesh.replace_cavity(&mut cav);
        mesh.distribute(&mut cav, |_, _| {});
        mesh.install(&mut cav);
        active.extend(
            cav.fan
                .iter()
                .filter(|&&f| !mesh.pts[f as usize].is_empty()),
        );
    }
    (mesh.extract(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull3d::validate::check_hull3d;
    use pargeo_datagen::{on_sphere, uniform_cube};

    #[test]
    fn uniform_hull_is_valid_and_small() {
        let pts = uniform_cube::<3>(5_000, 51);
        let (h, stats) = hull3d_seq_with_stats(&pts);
        check_hull3d(&pts, &h).unwrap();
        // Uniform-in-cube hulls are tiny relative to n.
        assert!(h.vertices.len() < 500);
        assert!(stats.points_touched >= h.vertices.len() as u64 - 4);
    }

    #[test]
    fn sphere_surface_keeps_most_points() {
        let pts = on_sphere::<3>(800, 52);
        let h = hull3d_seq(&pts);
        check_hull3d(&pts, &h).unwrap();
        assert!(h.vertices.len() > 100);
    }

    #[test]
    fn stats_count_work() {
        let pts = uniform_cube::<3>(1_000, 53);
        let (_, stats) = hull3d_seq_with_stats(&pts);
        assert!(stats.facets_touched >= stats.points_touched);
        assert_eq!(stats.rounds, stats.points_touched);
    }
}

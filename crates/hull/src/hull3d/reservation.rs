//! The two reservation hulls of §3 in R³: the facet mesh grown by the
//! shared Figure 5 driver (`crate::reservation`) under its RandInc and
//! QuickHull batch policies.

use super::mesh::{Hull3d, Mesh};
use super::{degenerate_hull3d, initial_tetrahedron};
use crate::reservation::{run, HullStats};
use pargeo_geometry::Point3;
use pargeo_parlay as parlay;

/// Parallel randomized incremental hull (default seed).
pub fn hull3d_randinc(points: &[Point3]) -> Hull3d {
    hull3d_randinc_seeded(points, 42)
}

/// Parallel randomized incremental hull with an explicit seed.
pub fn hull3d_randinc_seeded(points: &[Point3], seed: u64) -> Hull3d {
    drive(points, Some(seed)).0
}

/// Parallel randomized incremental hull with Figure 12 counters.
pub fn hull3d_randinc_with_stats(points: &[Point3]) -> (Hull3d, HullStats) {
    drive(points, Some(42))
}

/// Reservation-based parallel quickhull.
pub fn hull3d_quickhull_parallel(points: &[Point3]) -> Hull3d {
    drive(points, None).0
}

/// Reservation-based parallel quickhull with Figure 12 counters.
pub fn hull3d_quickhull_parallel_with_stats(points: &[Point3]) -> (Hull3d, HullStats) {
    drive(points, None)
}

/// [`hull3d_quickhull_parallel`] from a seed tetrahedron the caller
/// already found.
pub(crate) fn quickhull_from(points: &[Point3], tetra: [u32; 4]) -> Hull3d {
    let (mesh, _) = run(Mesh::new_tetrahedron(points, tetra), points.len(), None);
    mesh.extract()
}

/// RandInc with the permutation seed, or QuickHull.
fn drive(points: &[Point3], seed: Option<u64>) -> (Hull3d, HullStats) {
    let Ok(tetra) = initial_tetrahedron(points) else {
        return (degenerate_hull3d(points), HullStats::default());
    };
    let order = seed.map(|seed| parlay::random_permutation(points.len(), seed));
    let (mesh, stats) = run(Mesh::new_tetrahedron(points, tetra), points.len(), order);
    (mesh.extract(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull3d::validate::check_hull3d;
    use pargeo_datagen::{on_sphere, uniform_cube};

    #[test]
    fn randinc_matches_seq_vertices() {
        let pts = uniform_cube::<3>(4_000, 61);
        let h = hull3d_randinc(&pts);
        check_hull3d(&pts, &h).unwrap();
        let want = crate::hull3d::hull3d_seq(&pts);
        assert_eq!(h.vertices, want.vertices);
    }

    #[test]
    fn quickhull_matches_seq_vertices() {
        let pts = uniform_cube::<3>(4_000, 62);
        let h = hull3d_quickhull_parallel(&pts);
        check_hull3d(&pts, &h).unwrap();
        let want = crate::hull3d::hull3d_seq(&pts);
        assert_eq!(h.vertices, want.vertices);
    }

    #[test]
    fn surface_data_large_hull() {
        let pts = on_sphere::<3>(2_000, 63);
        for h in [hull3d_randinc(&pts), hull3d_quickhull_parallel(&pts)] {
            check_hull3d(&pts, &h).unwrap();
            assert!(h.vertices.len() > 200);
        }
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<3>(3_000, 64);
        let a = parlay::with_threads(1, || hull3d_randinc(&pts));
        let b = parlay::with_threads(4, || hull3d_randinc(&pts));
        assert_eq!(a.vertices, b.vertices);
    }

    /// The seed picks the insertion order, never the hull: every seed's
    /// sorted vertex set is parallel quickhull's.
    #[test]
    fn seed_changes_order_not_result() {
        let pts = uniform_cube::<3>(3_000, 65);
        let want = hull3d_quickhull_parallel(&pts).vertices;
        for seed in [1, 2, 42, 0x5EED] {
            let h = hull3d_randinc_seeded(&pts, seed);
            check_hull3d(&pts, &h).unwrap();
            assert_eq!(h.vertices, want, "seed {seed}");
        }
    }

    #[test]
    fn stats_overhead_is_modest_vs_seq() {
        // Appendix B: most reservations succeed, so at one thread either
        // instantiation attempts at most twice the points the sequential
        // quickhull inserts and touches at most four times its facets
        // (the parallel count includes the reserved ring, the sequential
        // one has none).
        type Counted = fn(&[Point3]) -> (Hull3d, HullStats);
        let drivers: [(&str, Counted); 2] = [
            ("randinc", hull3d_randinc_with_stats),
            ("quickhull", hull3d_quickhull_parallel_with_stats),
        ];
        for pts in [uniform_cube::<3>(3_000, 65), on_sphere::<3>(3_000, 66)] {
            let (_, seq) = crate::hull3d::hull3d_seq_with_stats(&pts);
            for (name, driver) in drivers {
                let (_, par) = parlay::with_threads(1, || driver(&pts));
                assert!(
                    par.points_touched <= 2 * seq.points_touched
                        && par.facets_touched <= 4 * seq.facets_touched,
                    "{name}: par={par:?} seq={seq:?}"
                );
                assert!(par.rounds <= par.points_touched);
            }
        }
    }
}

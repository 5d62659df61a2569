//! Bowyer–Watson drivers over the [`TriMesh`] kernel: sequential (Morton
//! order) and the parallel reservation-based batch insertion.

use crate::tri::{Cavity, TriMesh};
use pargeo_geometry::{GeoError, GeoResult, Point2};
use pargeo_parlay as parlay;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

const EMPTY: usize = usize::MAX;

/// A Delaunay triangulation of the input point set (duplicates collapse
/// onto their first occurrence; collinear inputs produce no triangles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delaunay {
    /// CCW triangles over original input indices.
    pub triangles: Vec<[u32; 3]>,
}

impl Delaunay {
    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// True iff the input admitted no full-dimensional triangulation.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }
}

/// Rejects NaN and infinite coordinates, which no predicate orders.
pub(crate) fn check_finite(points: &[Point2]) -> GeoResult<()> {
    if points
        .iter()
        .any(|p| !(p[0].is_finite() && p[1].is_finite()))
    {
        return Err(GeoError::BadParameter {
            op: "delaunay",
            what: "non-finite coordinate",
        });
    }
    Ok(())
}

/// The input checks shared by the fallible entry points.
pub(crate) fn check_input(points: &[Point2]) -> GeoResult<()> {
    if points.is_empty() {
        return Err(GeoError::EmptyInput { op: "delaunay" });
    }
    if points.len() < 3 {
        return Err(GeoError::TooFewPoints {
            op: "delaunay",
            needed: 3,
            got: points.len(),
        });
    }
    check_finite(points)
}

/// Sequential Bowyer–Watson, inserting in Morton order (a BRIO-style
/// locality order). Inputs [`try_delaunay`] rejects give no triangles.
pub fn delaunay_seq(points: &[Point2]) -> Delaunay {
    if check_input(points).is_err() {
        return Delaunay {
            triangles: Vec::new(),
        };
    }
    let mut mesh = TriMesh::with_points(points);
    let order = pargeo_morton::morton_sort(&mut points.to_vec());
    mesh.insert_all(order, f64::INFINITY);
    Delaunay {
        triangles: mesh.extract(),
    }
}

/// Parallel reservation-based Delaunay (default seed).
pub fn delaunay(points: &[Point2]) -> Delaunay {
    delaunay_seeded(points, 42)
}

/// Non-panicking Delaunay triangulation: rejects inputs that admit no
/// full-dimensional triangulation — empty, fewer than three points, a
/// non-finite coordinate, or all points collinear/coincident — with a
/// typed [`GeoError`] instead of returning an empty triangle list.
pub fn try_delaunay(points: &[Point2]) -> GeoResult<Delaunay> {
    check_input(points)?;
    let d = delaunay(points);
    if d.is_empty() {
        return Err(GeoError::Degenerate {
            op: "delaunay",
            what: "collinear",
        });
    }
    Ok(d)
}

/// Parallel reservation-based Delaunay with an explicit permutation seed.
/// Inputs [`try_delaunay`] rejects give no triangles.
///
/// Each round, a prefix of the uninserted points computes its cavities on
/// the shared mesh and priority-writes its rank onto every slot a re-star
/// would touch; the points that hold all their reservations own disjoint
/// slot sets, so their cavities are re-starred in place and their
/// conflict lists redistributed independently. The conflict lists, the
/// point → triangle map and the reservations are side tables of this
/// driver, indexed like the mesh's slab.
pub fn delaunay_seeded(points: &[Point2], seed: u64) -> Delaunay {
    let n = points.len();
    if check_input(points).is_err() {
        return Delaunay {
            triangles: Vec::new(),
        };
    }
    let mut mesh = TriMesh::with_points(points);
    let order = parlay::random_permutation(n, seed);
    let mut reservations: Vec<AtomicUsize> = vec![AtomicUsize::new(EMPTY)];
    // Uninserted points lying inside each triangle, and the inverse map.
    // `tri_of` is written by the winners of a round in parallel (each
    // point by the one winner whose cavity held it) and read in the next
    // round; the fork-join between phases orders the two, so `Relaxed`.
    let mut conf: Vec<Vec<u32>> = vec![order.clone()];
    let tri_of: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let mut alive_pt: Vec<bool> = vec![true; n];
    let mut p: Vec<u32> = order;

    while !p.is_empty() {
        let r = round_size(mesh.v.len(), parlay::num_threads(), p.len());
        let batch = &p[..r];
        // Phase A: conflict cavities + reservations (`None` = duplicate).
        let plans: Vec<Option<Cavity>> = parlay::tabulate(r, CAVITY_GRAIN, |rank| {
            let q = batch[rank];
            let t0 = tri_of[q as usize].load(Ordering::Relaxed);
            if mesh.is_vertex_of(t0, q) {
                return None;
            }
            let mut cav = Cavity::default();
            mesh.cavity(t0, q, &mut cav);
            for t in cav.touched() {
                let slot = &reservations[t as usize];
                if slot.load(Ordering::Relaxed) > rank {
                    slot.fetch_min(rank, Ordering::Relaxed);
                }
            }
            Some(cav)
        });
        // Phase A': winners.
        let success: Vec<bool> = parlay::tabulate(r, SLOT_GRAIN, |rank| {
            plans[rank].as_ref().is_some_and(|cav| {
                cav.touched()
                    .all(|t| reservations[t as usize].load(Ordering::Relaxed) == rank)
            })
        });
        // Phase B: sequential surgery per winner, remembering the slots of
        // its new triangles (the cavity's own plus two fresh ones).
        let mut winners: Vec<(u32, &Cavity, Vec<u32>)> = Vec::new();
        for ((&q, pl), &won) in batch.iter().zip(&plans).zip(&success) {
            match pl {
                None => alive_pt[q as usize] = false,
                Some(cav) if won => {
                    let fresh = mesh.restar(q, cav);
                    alive_pt[q as usize] = false;
                    winners.push((q, cav, cav.region.iter().copied().chain(fresh).collect()));
                }
                Some(_) => {}
            }
        }
        reservations.resize_with(mesh.v.len(), || AtomicUsize::new(EMPTY));
        conf.resize_with(mesh.v.len(), Vec::new);
        // Phase C: parallel redistribution by containment. Each winner
        // reads the lists of its cavity and builds those of its new
        // triangles, which then replace them slot by slot.
        // A winner's work is its cavity's share of the pending points:
        // early rounds have a few winners moving thousands each, late ones
        // many winners moving none.
        let pending_per_tri = p.len() / mesh.v.len();
        let winners_per_task = (CAVITY_GRAIN / (1 + pending_per_tri)).max(1);
        let moved: Vec<Vec<Vec<u32>>> =
            parlay::map(&winners, winners_per_task, |(q, cav, slots)| {
                let mut lists = vec![Vec::new(); slots.len()];
                let pending = cav.region.iter().flat_map(|&dead| &conf[dead as usize]);
                for &t in pending.filter(|&t| t != q) {
                    let home = slots.iter().position(|&nt| mesh.contains(nt, t));
                    debug_assert!(home.is_some(), "cavity must cover its points");
                    match home {
                        Some(i) => {
                            tri_of[t as usize].store(slots[i], Ordering::Relaxed);
                            lists[i].push(t);
                        }
                        // Defensive: drop rather than corrupt.
                        None => tri_of[t as usize].store(u32::MAX, Ordering::Relaxed),
                    }
                }
                lists
            });
        for ((_, _, slots), lists) in winners.iter().zip(moved) {
            for (&slot, list) in slots.iter().zip(lists) {
                conf[slot as usize] = list;
            }
        }
        // Phase D: reset + pack.
        parlay::parallel_for(r, SLOT_GRAIN, |rank| {
            for t in plans[rank].iter().flat_map(Cavity::touched) {
                reservations[t as usize].store(EMPTY, Ordering::Relaxed);
            }
        });
        p = parlay::filter(&p, |&t| {
            alive_pt[t as usize] && tri_of[t as usize].load(Ordering::Relaxed) != u32::MAX
        });
    }
    Delaunay {
        triangles: mesh.extract(),
    }
}

/// Cavities per task in a round's Phase A (a cavity is a point location
/// and a tour of some six triangles — about a microsecond).
const CAVITY_GRAIN: usize = 32;
/// Items per task in the phases that only visit a cavity's dozen
/// reservation slots.
const SLOT_GRAIN: usize = 256;

/// Batch size: grows with both the mesh (conflict cavities must be sparse
/// enough for reservations to succeed) and the remaining points (each
/// round packs `P`, so the round count must stay logarithmic).
fn round_size(alive_tris: usize, threads: usize, remaining: usize) -> usize {
    if alive_tris < 32 {
        return 1;
    }
    let floor = (8 * threads).max(1);
    let adaptive = (remaining / 8).min(alive_tris / 8);
    floor.max(adaptive).min(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tri::validate_delaunay;
    use pargeo_datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};

    fn canonical(tris: &[[u32; 3]]) -> Vec<[u32; 3]> {
        let mut out: Vec<[u32; 3]> = tris
            .iter()
            .map(|t| {
                // Rotate so the smallest vertex leads (CCW preserved).
                let k = (0..3).min_by_key(|&i| t[i]).unwrap();
                [t[k], t[(k + 1) % 3], t[(k + 2) % 3]]
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn seq_is_delaunay_uniform() {
        let pts = uniform_cube::<2>(400, 1);
        let d = delaunay_seq(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..3 {
            let pts = uniform_cube::<2>(500, seed);
            let s = delaunay_seq(&pts);
            let p = delaunay(&pts);
            validate_delaunay(&pts, &p.triangles).unwrap();
            assert_eq!(
                canonical(&s.triangles),
                canonical(&p.triangles),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn clustered_data() {
        let pts = seed_spreader::<2>(600, 5, SeedSpreaderParams::default());
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
    }

    #[test]
    fn try_delaunay_rejects_degenerate_inputs() {
        assert_eq!(
            try_delaunay(&[]),
            Err(GeoError::EmptyInput { op: "delaunay" })
        );
        let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 0.0])];
        assert_eq!(
            try_delaunay(&two),
            Err(GeoError::TooFewPoints {
                op: "delaunay",
                needed: 3,
                got: 2
            })
        );
        let line: Vec<Point2> = (0..30).map(|i| Point2::new([i as f64, i as f64])).collect();
        assert_eq!(
            try_delaunay(&line),
            Err(GeoError::Degenerate {
                op: "delaunay",
                what: "collinear"
            })
        );
        let pts = uniform_cube::<2>(100, 9);
        assert!(!try_delaunay(&pts).unwrap().is_empty());
    }

    #[test]
    fn euler_and_edge_sharing() {
        let pts = uniform_cube::<2>(800, 7);
        let d = delaunay(&pts);
        let mut edge_count: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for t in &d.triangles {
            for i in 0..3 {
                let (a, b) = (t[i], t[(i + 1) % 3]);
                *edge_count.entry((a.min(b), a.max(b))).or_default() += 1;
            }
        }
        // Every edge borders one (hull) or two (interior) triangles.
        assert!(edge_count.values().all(|&c| c <= 2));
        let e = edge_count.len() as i64;
        let f = d.triangles.len() as i64 + 1; // plus the outer face
        let mut verts: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for t in &d.triangles {
            verts.extend(t.iter());
        }
        let v = verts.len() as i64;
        assert_eq!(v - e + f, 2, "Euler failed: V={v} E={e} F={f}");
    }

    #[test]
    fn duplicates_collapse() {
        let mut pts = uniform_cube::<2>(200, 9);
        let extra: Vec<Point2> = pts.iter().step_by(4).copied().collect();
        pts.extend(extra);
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
        // No triangle uses two copies of the same location.
        for t in &d.triangles {
            assert_ne!(pts[t[0] as usize], pts[t[1] as usize]);
            assert_ne!(pts[t[1] as usize], pts[t[2] as usize]);
            assert_ne!(pts[t[0] as usize], pts[t[2] as usize]);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(delaunay(&[]).is_empty());
        assert!(delaunay(&[Point2::new([0.0, 0.0])]).is_empty());
        let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 1.0])];
        assert!(delaunay(&two).is_empty());
        let collinear: Vec<Point2> = (0..50).map(|i| Point2::new([i as f64, i as f64])).collect();
        assert!(delaunay(&collinear).is_empty());
        assert!(delaunay_seq(&collinear).is_empty());
    }

    #[test]
    fn grid_with_cocircular_points_is_valid() {
        // A regular grid is maximally degenerate (every quad cocircular).
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        let d = delaunay(&pts);
        validate_delaunay(&pts, &d.triangles).unwrap();
        // A triangulated 11x11 grid of unit squares: 242 triangles.
        assert_eq!(d.triangles.len(), 242);
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<2>(1_000, 11);
        let a = parlay::with_threads(1, || delaunay(&pts));
        let b = parlay::with_threads(4, || delaunay(&pts));
        assert_eq!(canonical(&a.triangles), canonical(&b.triangles));
    }
}

//! The reservation-based parallel incremental convex hull (paper Figure 5).
//!
//! One driver implements both instantiations:
//!
//! * **RandInc** — the input is randomly permuted and each round attempts a
//!   *prefix* of the remaining visible points.
//! * **QuickHull** — each round attempts the furthest visible point of each
//!   of (up to) `c · numProc` facets with non-empty conflict lists, drawn
//!   far apart in the work list so the attempts rarely collide.
//!
//! A round attempts `c · numProc` points (Figure 5) — never a share of the
//! mesh: every attempt claims its cavity plus the ring around it, so a
//! batch that grows with the mesh oversubscribes it and most attempts are
//! thrown away. The phases: (A) every worker finds the cavities of its
//! `c` points ([`Mesh::find_cavity`], read-only) and priority-writes their
//! ranks onto cavity and ring; (B) in rank order, a point that holds *all*
//! its reservations wins and has its cavity replaced by the new fan
//! (`O(Σ cavity)` surgery, the dead facets' conflict lists moved out);
//! (C) the winners redistribute those lists onto their fans side by side
//! ([`Mesh::distribute`], read-only — each winner owns its points and
//! lists, the invariant the reservation buys); (D) the lists are moved
//! into place and the work list updated. Rank 0 always wins every slot it
//! touches, so progress is guaranteed.

use super::mesh::{Cavity, Hull3d, HullStats, Mesh, Scratch, NONE};
use super::{degenerate_hull3d, initial_tetrahedron};
use pargeo_geometry::Point3;
use pargeo_parlay as parlay;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Attempts per processor per round: the `c` of the paper's `c · numProc`.
const ATTEMPTS_PER_PROC: usize = 8;

/// Tiny-hull guard (Appendix B's contention note): an attempt claims a
/// dozen-odd facets, so a round never makes more than one per this many
/// live facets — one point per round while the hull is a few facets.
const FACETS_PER_ATTEMPT: usize = 64;

/// Batch scheduling strategy (the two §3 instantiations).
enum Strategy {
    /// With the permutation seed.
    RandInc(u64),
    Quickhull,
}

/// Parallel randomized incremental hull (default seed).
pub fn hull3d_randinc(points: &[Point3]) -> Hull3d {
    hull3d_randinc_seeded(points, 42)
}

/// Parallel randomized incremental hull with an explicit seed.
pub fn hull3d_randinc_seeded(points: &[Point3], seed: u64) -> Hull3d {
    drive(points, Strategy::RandInc(seed)).0
}

/// Parallel randomized incremental hull with Figure 12 counters.
pub fn hull3d_randinc_with_stats(points: &[Point3]) -> (Hull3d, HullStats) {
    drive(points, Strategy::RandInc(42))
}

/// Reservation-based parallel quickhull.
pub fn hull3d_quickhull_parallel(points: &[Point3]) -> Hull3d {
    drive(points, Strategy::Quickhull).0
}

/// Reservation-based parallel quickhull with Figure 12 counters.
pub fn hull3d_quickhull_parallel_with_stats(points: &[Point3]) -> (Hull3d, HullStats) {
    drive(points, Strategy::Quickhull)
}

/// [`hull3d_quickhull_parallel`] from a seed tetrahedron the caller
/// already found.
pub(crate) fn quickhull_from(points: &[Point3], tetra: [u32; 4]) -> Hull3d {
    run(points, tetra, Strategy::Quickhull).0
}

fn drive(points: &[Point3], strategy: Strategy) -> (Hull3d, HullStats) {
    match initial_tetrahedron(points) {
        Some(tetra) => run(points, tetra, strategy),
        None => (degenerate_hull3d(points), HullStats::default()),
    }
}

/// What is left to insert.
enum Pending {
    /// `order[head..]`: the visible points in permutation order, among
    /// points inserted or swallowed since (`facet_of` = `NONE`, skipped
    /// when met). `facet_of[q]` is one facet visible to `q`.
    RandInc {
        order: Vec<u32>,
        head: usize,
        facet_of: Vec<AtomicU32>,
    },
    /// Facet slots that may hold conflicts, each listed at most once.
    Quickhull { active: Vec<u32>, queued: Vec<bool> },
}

/// One processor's share of a round.
struct Worker {
    scratch: Scratch,
    cavs: Vec<Cavity>,
}

fn run(points: &[Point3], tetra: [u32; 4], strategy: Strategy) -> (Hull3d, HullStats) {
    let mut stats = HullStats::default();
    let n = points.len();
    let mut mesh = Mesh::new_tetrahedron(points, tetra);

    // Initial conflict assignment: one predicate pass, then a scatter in
    // insertion-priority order.
    let facet_of: Vec<AtomicU32> = parlay::tabulate(n, parlay::GRANULARITY, |q| {
        AtomicU32::new(mesh.seed_facet(q as u32))
    });
    let mut assign = |q: u32| {
        let f = facet_of[q as usize].load(Relaxed);
        if f != NONE {
            mesh.pts[f as usize].push(q);
        }
        f != NONE
    };
    let mut pending = match strategy {
        Strategy::RandInc(seed) => {
            let mut order = parlay::random_permutation(n, seed);
            order.retain(|&q| assign(q));
            Pending::RandInc {
                order,
                head: 0,
                facet_of,
            }
        }
        Strategy::Quickhull => {
            (0..n as u32).for_each(|q| {
                assign(q);
            });
            Pending::Quickhull {
                active: (0..4).collect(),
                queued: vec![true; 4],
            }
        }
    };

    let mut workers: Vec<Worker> = (0..parlay::num_threads())
        .map(|_| Worker {
            scratch: Scratch::default(),
            cavs: (0..ATTEMPTS_PER_PROC).map(|_| Cavity::default()).collect(),
        })
        .collect();
    let mut reserved: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(NONE)).collect();
    // The round's attempts by rank: (point — `NONE` for "the furthest of
    // the facet" —, a facet it sees), and who won.
    let mut batch: Vec<(u32, u32)> = Vec::new();
    let mut won: Vec<bool> = Vec::new();

    loop {
        let size = (ATTEMPTS_PER_PROC * workers.len())
            .min(mesh.live() / FACETS_PER_ATTEMPT)
            .max(1);
        batch.clear();
        match &mut pending {
            Pending::RandInc {
                order,
                head,
                facet_of,
            } => {
                while batch.len() < size && *head < order.len() {
                    let q = order[*head];
                    *head += 1;
                    let f = facet_of[q as usize].load(Relaxed);
                    if f != NONE {
                        batch.push((q, f));
                    }
                }
            }
            Pending::Quickhull { active, queued } => {
                // Evenly spaced draws: neighbours in `active` are the
                // mutually adjacent facets of one fan.
                let step = (active.len() / size).max(1);
                let mut at = 0;
                while batch.len() < size && !active.is_empty() {
                    let f = active.swap_remove(at.min(active.len() - 1));
                    queued[f as usize] = false;
                    if !mesh.pts[f as usize].is_empty() {
                        batch.push((NONE, f));
                        at += step;
                    }
                }
            }
        }
        if batch.is_empty() {
            break;
        }
        // Worker w attempts ranks w·per .. (w+1)·per.
        let per = batch.len().div_ceil(workers.len());
        let busy = batch.len().div_ceil(per);

        // ---- Phase A: cavities + reservations ----
        parlay::for_each_mut(&mut workers[..busy], 1, |w, worker| {
            let ranks = batch.iter().enumerate().skip(w * per).take(per);
            for (cav, (rank, &(q, f0))) in worker.cavs.iter_mut().zip(ranks) {
                let q = if q == NONE { mesh.furthest(f0) } else { q };
                mesh.find_cavity(&mut worker.scratch, f0, q, cav);
                for &f in cav.visible.iter().chain(&cav.ring) {
                    let slot = &reserved[f as usize];
                    if slot.load(Relaxed) > rank as u32 {
                        slot.fetch_min(rank as u32, Relaxed);
                    }
                }
            }
        });

        // ---- Phase B: check reservations, winners' structural surgery ----
        // In rank order, so clearing a rank's reservations as soon as it is
        // judged cannot turn a later loser (it lost to a lower rank) into
        // a winner.
        won.clear();
        for rank in 0..batch.len() {
            let cav = &mut workers[rank / per].cavs[rank % per];
            let claimed = || cav.visible.iter().chain(&cav.ring);
            won.push(claimed().all(|&f| reserved[f as usize].load(Relaxed) == rank as u32));
            claimed().for_each(|&f| reserved[f as usize].store(NONE, Relaxed));
            stats.facets_touched += claimed().count() as u64;
            if won[rank] {
                mesh.replace_cavity(cav);
            }
        }
        stats.rounds += 1;
        stats.points_touched += batch.len() as u64;
        reserved.resize_with(mesh.slots(), || AtomicU32::new(NONE));

        // ---- Phase C: winners redistribute their conflict points ----
        parlay::for_each_mut(&mut workers[..busy], 1, |w, worker| {
            let won = won.iter().skip(w * per).take(per);
            for (cav, _) in worker.cavs.iter_mut().zip(won).filter(|(_, &won)| won) {
                mesh.distribute(cav, |t, f| {
                    if let Pending::RandInc { facet_of, .. } = &pending {
                        facet_of[t as usize].store(f, Relaxed);
                    }
                });
            }
        });

        // ---- Phase D: install the lists; maintain the work list ----
        for rank in (0..batch.len()).filter(|&rank| won[rank]) {
            mesh.install(&mut workers[rank / per].cavs[rank % per]);
        }
        match &mut pending {
            // Winners leave; losers go back in front of the unscanned
            // points, in order.
            Pending::RandInc {
                order,
                head,
                facet_of,
            } => {
                for (rank, &(q, _)) in batch.iter().enumerate().rev() {
                    if won[rank] {
                        facet_of[q as usize].store(NONE, Relaxed);
                    } else {
                        *head -= 1;
                        order[*head] = q;
                    }
                }
            }
            // Losers' facets are retried; winners' fans join the list.
            Pending::Quickhull { active, queued } => {
                queued.resize(mesh.slots(), false);
                for (rank, (_, f0)) in batch.iter().enumerate() {
                    let fresh = match won[rank] {
                        true => &workers[rank / per].cavs[rank % per].fan[..],
                        false => std::slice::from_ref(f0),
                    };
                    for &f in fresh {
                        if !mesh.pts[f as usize].is_empty()
                            && !std::mem::replace(&mut queued[f as usize], true)
                        {
                            active.push(f);
                        }
                    }
                }
            }
        }
    }
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

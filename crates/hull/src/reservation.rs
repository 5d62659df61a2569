//! The reservation-based parallel incremental convex hull (paper Figure 5),
//! one driver over a [`Complex`] — the 3D facet mesh, or the 2D ring of
//! edges — and two batch policies:
//!
//! * **RandInc** — the input is randomly permuted and each round attempts a
//!   *prefix* of the remaining visible points.
//! * **QuickHull** — each round attempts the furthest visible point of each
//!   of (up to) `c · numProc` facets with non-empty conflict lists, drawn
//!   far apart in the work list so the attempts rarely collide.
//!
//! A round attempts `c · numProc` points (Figure 5) — never a share of the
//! hull: every attempt claims its cavity plus the ring around it, so a
//! batch that grows with the hull oversubscribes it and most attempts are
//! thrown away. The phases: (A) every worker finds the cavities of its
//! `c` points ([`Complex::find_cavity`], read-only) and priority-writes
//! their ranks onto cavity and ring; (B) in rank order, a point that holds
//! *all* its reservations wins and has its cavity replaced by the new fan
//! (`O(Σ cavity)` surgery, the dead facets' conflict lists moved out);
//! (C) the winners redistribute those lists onto their fans side by side
//! ([`Complex::distribute`], read-only — each winner owns its points and
//! lists, the invariant the reservation buys); (D) the lists are moved
//! into place and the work list updated. Rank 0 always wins every slot it
//! touches, so progress is guaranteed.

use pargeo_parlay as parlay;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// "No facet" / "no point" / free-slot marker.
pub(crate) const NONE: u32 = u32::MAX;

/// Attempts per processor per round: the `c` of the paper's `c · numProc`.
const ATTEMPTS_PER_PROC: usize = 8;

/// Work counters behind Figure 12 and Appendix B.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HullStats {
    /// Visible points processed (batch members across all rounds, or
    /// insertion attempts for the sequential algorithm).
    pub points_touched: u64,
    /// Visible facets traversed while computing visible regions
    /// (reservation targets included for the parallel algorithms).
    pub facets_touched: u64,
    /// Number of rounds (1 per insertion for the sequential algorithm).
    pub rounds: u64,
    /// Points inserted: the winners across all rounds.
    pub(crate) insertions: u64,
}

/// A hull grown a point at a time: facet slots (live or free) with
/// conflict lists. In 2D a facet is an edge and a cavity a visible chain.
pub(crate) trait Complex: Sync {
    /// One point's insertion in flight; reused across insertions.
    type Cavity: Default + Send;
    /// One worker's search state.
    type Scratch: Default + Send;
    /// Tiny-hull guard (Appendix B's contention note): a round makes at
    /// most one attempt per this many live facets.
    const FACETS_PER_ATTEMPT: usize;

    /// Number of facet slots (live and free).
    fn slots(&self) -> usize;
    /// Number of live facets.
    fn live(&self) -> usize;
    /// The first facet of the seed simplex that sees `q` (`NONE`: none).
    fn seed_facet(&self, q: u32) -> u32;
    /// Puts `q` on the conflict list of its seed facet `f` (if not `NONE`).
    fn seed(&mut self, q: u32, f: u32);
    /// The conflict list of `f`.
    fn conflicts(&self, f: u32) -> &[u32];
    /// Fills `cav` with the cavity of `q` around its visible facet `f0`
    /// and the ring of facets just beyond it. `q = NONE` inserts the
    /// conflict point of `f0` furthest from it (QuickHull; 3D only).
    fn find_cavity(&self, s: &mut Self::Scratch, f0: u32, q: u32, cav: &mut Self::Cavity);
    /// The slots an attempt reserves: its cavity and the ring around it.
    fn claimed(cav: &Self::Cavity) -> impl Iterator<Item = u32> + '_;
    /// Replaces the cavity by a fan around its point (the caller owns the
    /// claimed slots); the dead facets' conflict points move into `cav`.
    fn replace_cavity(&mut self, cav: &mut Self::Cavity);
    /// Assigns each moved-out conflict point to a fan facet that sees it
    /// and reports `placed(point, facet)` — `NONE` for a swallowed point.
    fn distribute(&self, cav: &mut Self::Cavity, placed: impl Fn(u32, u32));
    /// Moves the filled conflict lists into the fan's slots.
    fn install(&mut self, cav: &mut Self::Cavity);
    /// The fan's slots, after [`Complex::replace_cavity`].
    fn fan(cav: &Self::Cavity) -> &[u32];
}

/// What is left to insert.
enum Pending {
    /// `order[head..]`: the visible points in permutation order, among
    /// points inserted or swallowed since (`facet_of` = `NONE`, skipped
    /// when met).
    RandInc { order: Vec<u32>, head: usize },
    /// Facet slots that may hold conflicts, each listed at most once.
    Quickhull { active: Vec<u32>, queued: Vec<bool> },
}

/// One processor's share of a round.
struct Worker<C: Complex> {
    scratch: C::Scratch,
    cavs: Vec<C::Cavity>,
}

/// Inserts the `n` input points outside the seed simplex of `hull`: with
/// RandInc in `order`, a random permutation of the input, or with
/// QuickHull if `order` is `None`.
pub(crate) fn run<C: Complex>(mut hull: C, n: usize, order: Option<Vec<u32>>) -> (C, HullStats) {
    let mut stats = HullStats::default();

    // Initial conflict assignment: one predicate pass, then a scatter in
    // insertion-priority order. `facet_of[q]` is one facet visible to `q`
    // (kept up to date for RandInc only).
    let facet_of: Vec<AtomicU32> = parlay::tabulate(n, parlay::GRANULARITY, |q| {
        AtomicU32::new(hull.seed_facet(q as u32))
    });
    let mut assign = |q: u32| {
        let f = facet_of[q as usize].load(Relaxed);
        hull.seed(q, f);
        f != NONE
    };
    let mut pending = match order {
        Some(mut order) => {
            order.retain(|&q| assign(q));
            Pending::RandInc { order, head: 0 }
        }
        None => {
            (0..n as u32).for_each(|q| {
                assign(q);
            });
            Pending::Quickhull {
                active: (0..hull.slots() as u32).collect(),
                queued: vec![true; hull.slots()],
            }
        }
    };

    let mut workers: Vec<Worker<C>> = (0..parlay::num_threads())
        .map(|_| Worker {
            scratch: C::Scratch::default(),
            cavs: (0..ATTEMPTS_PER_PROC)
                .map(|_| C::Cavity::default())
                .collect(),
        })
        .collect();
    let mut reserved: Vec<AtomicU32> = (0..hull.slots()).map(|_| AtomicU32::new(NONE)).collect();
    // The round's attempts by rank: (point — `NONE` for "the furthest of
    // the facet" —, a facet it sees), and who won.
    let mut batch: Vec<(u32, u32)> = Vec::new();
    let mut won: Vec<bool> = Vec::new();

    loop {
        let size = (ATTEMPTS_PER_PROC * workers.len())
            .min(hull.live() / C::FACETS_PER_ATTEMPT)
            .max(1);
        batch.clear();
        match &mut pending {
            Pending::RandInc { order, head } => {
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
                    if !hull.conflicts(f).is_empty() {
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
                hull.find_cavity(&mut worker.scratch, f0, q, cav);
                for f in C::claimed(cav) {
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
            won.push(C::claimed(cav).all(|f| reserved[f as usize].load(Relaxed) == rank as u32));
            C::claimed(cav).for_each(|f| reserved[f as usize].store(NONE, Relaxed));
            stats.facets_touched += C::claimed(cav).count() as u64;
            if won[rank] {
                hull.replace_cavity(cav);
                stats.insertions += 1;
            }
        }
        stats.rounds += 1;
        stats.points_touched += batch.len() as u64;
        reserved.resize_with(hull.slots(), || AtomicU32::new(NONE));

        // ---- Phase C: winners redistribute their conflict points ----
        parlay::for_each_mut(&mut workers[..busy], 1, |w, worker| {
            let won = won.iter().skip(w * per).take(per);
            for (cav, _) in worker.cavs.iter_mut().zip(won).filter(|(_, &won)| won) {
                hull.distribute(cav, |t, f| {
                    if let Pending::RandInc { .. } = pending {
                        facet_of[t as usize].store(f, Relaxed);
                    }
                });
            }
        });

        // ---- Phase D: install the lists; maintain the work list ----
        for rank in (0..batch.len()).filter(|&rank| won[rank]) {
            hull.install(&mut workers[rank / per].cavs[rank % per]);
        }
        match &mut pending {
            // Winners leave; losers go back in front of the unscanned
            // points, in order (Figure 5, line 17).
            Pending::RandInc { order, head } => {
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
                queued.resize(hull.slots(), false);
                for (rank, (_, f0)) in batch.iter().enumerate() {
                    let fresh = match won[rank] {
                        true => C::fan(&workers[rank / per].cavs[rank % per]),
                        false => std::slice::from_ref(f0),
                    };
                    for &f in fresh {
                        if !hull.conflicts(f).is_empty()
                            && !std::mem::replace(&mut queued[f as usize], true)
                        {
                            active.push(f);
                        }
                    }
                }
            }
        }
    }
    (hull, stats)
}

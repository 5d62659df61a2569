//! Reservation-based parallel randomized incremental convex hull in R²
//! (the paper's Figure 5 specialized to two dimensions, where facets are
//! directed hull edges and the horizon is the pair of chain endpoints).
//!
//! Each round attempts `c · numProc` of the remaining (randomly permuted)
//! visible points; every point walks its contiguous visible chain,
//! priority-writes its rank onto the chain **and** the two edges just
//! beyond it (see the crate-level note on boundary reservation), and
//! winners replace their chains with two new edges — in the chain's own
//! slots, the dead edges' conflict lists moved out first — then
//! redistribute those lists side by side: points of deleted edges move to
//! one of the winner's new edges or become interior, exactly as in the
//! paper.
//!
//! A hull corner held by several input points is reported under the
//! smallest of their indices, like the quickhulls do: every copy of a
//! point sees what the point sees, so all copies still outside the hull
//! sit in the conflict lists of the chain the point replaces and pass
//! through its redistribution, which keeps the smallest.

use super::{extremes, rotate_to_lex_min, sees, strip_collinear};
use pargeo_geometry::{orient2d, Orientation, Point2};
use pargeo_parlay as parlay;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

const NONE: u32 = u32::MAX;

/// Attempts per processor per round: the `c` of the paper's `c · numProc`.
const ATTEMPTS_PER_PROC: usize = 8;

/// Tiny-hull guard (Appendix B's contention note): an attempt claims its
/// chain plus two edges, so a round never makes more than one per this
/// many hull edges.
const EDGES_PER_ATTEMPT: usize = 16;

/// A directed hull edge `a → b` in the cyclic list, with the visible
/// points assigned to it; `a == NONE` in a free slot.
struct Edge {
    a: u32,
    b: u32,
    prev: u32,
    next: u32,
    pts: Vec<u32>,
}

/// One point's insertion in flight; the buffers are reused across rounds.
#[derive(Default)]
struct Attempt {
    q: u32,
    /// The visible chain: `len` edges from `first`, following `next`.
    first: u32,
    len: usize,
    /// The surviving edges just before and after the chain.
    left: u32,
    right: u32,
    /// A winner's two new edges `(u, q)` and `(q, v)`, …
    fan: [u32; 2],
    /// … the conflict points of the chain it replaced, their lists while
    /// they are being filled, …
    orphans: Vec<u32>,
    lists: [Vec<u32>; 2],
    /// … and the smallest index holding `q`'s coordinates.
    corner: u32,
}

impl Attempt {
    /// The edges this attempt reserves: chain plus boundary.
    fn claimed<'a>(&self, edges: &'a [Edge]) -> impl Iterator<Item = u32> + 'a {
        std::iter::successors(Some(self.left), |&e| Some(edges[e as usize].next)).take(self.len + 2)
    }
}

/// Work counters of one run (the 2D twin of `HullStats`).
struct Rounds {
    attempts: u64,
    insertions: u64,
    rounds: u64,
}

/// Reservation-based randomized incremental hull (default seed).
pub fn hull2d_randinc(points: &[Point2]) -> Vec<u32> {
    hull2d_randinc_seeded(points, 42)
}

/// Reservation-based randomized incremental hull with an explicit
/// permutation seed.
pub fn hull2d_randinc_seeded(points: &[Point2], seed: u64) -> Vec<u32> {
    match extremes(points) {
        Ok(_) => randinc(points, seed).0,
        Err(flat) => flat,
    }
}

/// The algorithm proper, on a full-dimensional input.
fn randinc(points: &[Point2], seed: u64) -> (Vec<u32>, Rounds) {
    let n = points.len();
    let mut order = parlay::random_permutation(n, seed);
    let at = |q: u32| &points[q as usize];

    // Initial triangle: the first point in permutation order, the first
    // distinct from it, the first off their line — counterclockwise.
    let t0 = order[0];
    let t1 = *order
        .iter()
        .find(|&&q| at(q) != at(t0))
        .expect("distinct point exists");
    let (t2, turn) = order
        .iter()
        .map(|&q| (q, orient2d(at(t0), at(t1), at(q))))
        .find(|&(_, turn)| turn != Orientation::Zero)
        .expect("non-collinear point exists");
    let mut tri = match turn {
        Orientation::Positive => [t0, t1, t2],
        _ => [t0, t2, t1],
    };
    let mut edges: Vec<Edge> = (0..3)
        .map(|i| Edge {
            a: tri[i],
            b: tri[(i + 1) % 3],
            prev: (i as u32 + 2) % 3,
            next: (i as u32 + 1) % 3,
            pts: Vec::new(),
        })
        .collect();
    let mut free: Vec<u32> = Vec::new();

    // Initial conflict assignment: one predicate pass, then a scatter in
    // permutation order. `edge_of[q]` is one edge visible to `q`.
    let edge_of: Vec<AtomicU32> = parlay::tabulate(n, parlay::GRANULARITY, |q| {
        let seen = edges.iter().position(|e| sees(points, e.a, e.b, q as u32));
        AtomicU32::new(seen.map_or(NONE, |e| e as u32))
    });
    order.retain(|&q| match edge_of[q as usize].load(Relaxed) {
        NONE => {
            for corner in tri.iter_mut().filter(|c| q < **c) {
                if at(q) == at(*corner) {
                    *corner = q;
                }
            }
            false
        }
        e => {
            edges[e as usize].pts.push(q);
            true
        }
    });
    for (i, e) in edges.iter_mut().enumerate() {
        (e.a, e.b) = (tri[i], tri[(i + 1) % 3]);
    }

    // Main reservation rounds (Figure 5). `order[head..]` holds the
    // visible points in permutation order, among points inserted or
    // swallowed since (`edge_of` = `NONE`, skipped when met).
    let mut head = 0;
    let mut workers: Vec<Vec<Attempt>> = (0..parlay::num_threads())
        .map(|_| (0..ATTEMPTS_PER_PROC).map(|_| Attempt::default()).collect())
        .collect();
    let mut reserved: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(NONE)).collect();
    let mut batch: Vec<u32> = Vec::new();
    let mut won: Vec<bool> = Vec::new();
    let mut stats = Rounds {
        attempts: 0,
        insertions: 0,
        rounds: 0,
    };
    loop {
        let live = edges.len() - free.len();
        let size = (ATTEMPTS_PER_PROC * workers.len())
            .min(live / EDGES_PER_ATTEMPT)
            .max(1);
        batch.clear();
        while batch.len() < size && head < order.len() {
            let q = order[head];
            head += 1;
            if edge_of[q as usize].load(Relaxed) != NONE {
                batch.push(q);
            }
        }
        if batch.is_empty() {
            break;
        }
        // Worker w attempts ranks w·per .. (w+1)·per.
        let per = batch.len().div_ceil(workers.len());
        let busy = batch.len().div_ceil(per);

        // Phase A: find visible chains and reserve them (+ boundary).
        parlay::for_each_mut(&mut workers[..busy], 1, |w, attempts| {
            let ranks = batch.iter().enumerate().skip(w * per).take(per);
            for (attempt, (rank, &q)) in attempts.iter_mut().zip(ranks) {
                find_chain(
                    points,
                    &edges,
                    edge_of[q as usize].load(Relaxed),
                    q,
                    attempt,
                );
                for e in attempt.claimed(&edges) {
                    let slot = &reserved[e as usize];
                    if slot.load(Relaxed) > rank as u32 {
                        slot.fetch_min(rank as u32, Relaxed);
                    }
                }
            }
        });

        // Phase B: check reservations, then the winners' structural
        // surgery (chains are walked through the links it rewrites). In
        // rank order, so clearing a rank's reservations as soon as it is
        // judged cannot turn a later loser (it lost to a lower rank) into
        // a winner.
        won.clear();
        for rank in 0..batch.len() {
            let attempt = &workers[rank / per][rank % per];
            let holds = |e: u32| reserved[e as usize].load(Relaxed) == rank as u32;
            won.push(attempt.claimed(&edges).all(holds));
            for e in attempt.claimed(&edges) {
                reserved[e as usize].store(NONE, Relaxed);
            }
        }
        for rank in (0..batch.len()).filter(|&rank| won[rank]) {
            replace_chain(&mut edges, &mut free, &mut workers[rank / per][rank % per]);
        }
        reserved.resize_with(edges.len(), || AtomicU32::new(NONE));
        stats.rounds += 1;
        stats.attempts += batch.len() as u64;

        // Phase C: winners redistribute the conflict points of their
        // deleted edges onto their two new edges (each winner owns its
        // points and lists — the invariant the reservation buys).
        parlay::for_each_mut(&mut workers[..busy], 1, |w, attempts| {
            let won = won.iter().skip(w * per).take(per);
            for (attempt, _) in attempts.iter_mut().zip(won).filter(|(_, &won)| won) {
                distribute(points, &edges, &edge_of, attempt);
            }
        });

        // Phase D: install the lists. Winners leave; losers go back in
        // front of the unscanned points, in order (Figure 5, line 17).
        for (rank, &q) in batch.iter().enumerate().rev() {
            if !won[rank] {
                head -= 1;
                order[head] = q;
                continue;
            }
            let attempt = &mut workers[rank / per][rank % per];
            let [e1, e2] = attempt.fan;
            edges[e1 as usize].pts = std::mem::take(&mut attempt.lists[0]);
            edges[e2 as usize].pts = std::mem::take(&mut attempt.lists[1]);
            edges[e1 as usize].b = attempt.corner;
            edges[e2 as usize].a = attempt.corner;
            edge_of[q as usize].store(NONE, Relaxed);
            stats.insertions += 1;
        }
    }

    // Walk the cycle; report it as the quickhulls do.
    let start = edges
        .iter()
        .position(|e| e.a != NONE)
        .expect("hull has edges") as u32;
    let cycle = std::iter::successors(Some(start), |&e| {
        Some(edges[e as usize].next).filter(|&next| next != start)
    });
    let mut hull = strip_collinear(points, cycle.map(|e| edges[e as usize].a).collect());
    rotate_to_lex_min(points, &mut hull);
    (hull, stats)
}

/// Fills `attempt` with the contiguous chain of edges visible to `q`
/// around its visible edge `e0`. Read-only on the edge list.
fn find_chain(points: &[Point2], edges: &[Edge], e0: u32, q: u32, attempt: &mut Attempt) {
    let visible = |e: u32| sees(points, edges[e as usize].a, edges[e as usize].b, q);
    debug_assert!(visible(e0));
    let mut first = e0;
    loop {
        let prev = edges[first as usize].prev;
        // Guarded: a point cannot see the whole cycle.
        if prev == e0 || !visible(prev) {
            break;
        }
        first = prev;
    }
    let (mut last, mut len) = (first, 1);
    loop {
        let next = edges[last as usize].next;
        if next == first || !visible(next) {
            break;
        }
        (last, len) = (next, len + 1);
    }
    attempt.q = q;
    attempt.first = first;
    attempt.len = len;
    attempt.left = edges[first as usize].prev;
    attempt.right = edges[last as usize].next;
}

/// Replaces the chain with the edges `(u, q)` and `(q, v)`, in the chain's
/// own first and last slots (a one-edge chain takes a free or fresh slot
/// for the second; a longer one frees its middle), and moves the dead
/// edges' conflict points into the attempt. The caller holds the
/// reservation on chain and boundary.
fn replace_chain(edges: &mut Vec<Edge>, free: &mut Vec<u32>, attempt: &mut Attempt) {
    let (first, q) = (attempt.first, attempt.q);
    attempt.orphans.clear();
    let (mut e, mut last) = (first, first);
    for i in 0..attempt.len {
        let edge = &mut edges[e as usize];
        attempt.orphans.append(&mut edge.pts);
        if i > 0 && i + 1 < attempt.len {
            edge.a = NONE;
            free.push(e);
        }
        (last, e) = (e, edge.next);
    }
    let v = edges[last as usize].b;
    let second = match attempt.len {
        1 => free.pop().unwrap_or_else(|| {
            edges.push(Edge {
                a: NONE,
                b: NONE,
                prev: NONE,
                next: NONE,
                pts: Vec::new(),
            });
            edges.len() as u32 - 1
        }),
        _ => last,
    };
    let e1 = &mut edges[first as usize];
    (e1.b, e1.next) = (q, second);
    attempt.lists[0] = std::mem::take(&mut e1.pts);
    let e2 = &mut edges[second as usize];
    (e2.a, e2.b, e2.prev, e2.next) = (q, v, first, attempt.right);
    attempt.lists[1] = std::mem::take(&mut e2.pts);
    edges[attempt.right as usize].prev = second;
    attempt.fan = [first, second];
    attempt.corner = q;
}

/// Assigns each orphaned conflict point to the new edge that sees it, or
/// marks it interior — noting, among those, the copies of `q` itself.
/// Read-only on the edge list.
fn distribute(points: &[Point2], edges: &[Edge], edge_of: &[AtomicU32], attempt: &mut Attempt) {
    let (q, [e1, e2]) = (attempt.q, attempt.fan);
    let (u, v) = (edges[e1 as usize].a, edges[e2 as usize].b);
    for &t in attempt.orphans.iter().filter(|&&t| t != q) {
        let to = if sees(points, u, q, t) {
            attempt.lists[0].push(t);
            e1
        } else if sees(points, q, v, t) {
            attempt.lists[1].push(t);
            e2
        } else {
            if t < attempt.corner && points[t as usize] == points[q as usize] {
                attempt.corner = t;
            }
            NONE
        };
        edge_of[t as usize].store(to, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull2d::validate::check_hull2d;
    use pargeo_datagen::{on_sphere, uniform_cube};

    #[test]
    fn matches_sequential() {
        let pts = uniform_cube::<2>(20_000, 21);
        let got = hull2d_randinc(&pts);
        check_hull2d(&pts, &got).unwrap();
        assert_eq!(got, crate::hull2d::hull2d_seq(&pts));
    }

    #[test]
    fn large_output_hull() {
        let pts = on_sphere::<2>(5_000, 22);
        let h = hull2d_randinc(&pts);
        check_hull2d(&pts, &h).unwrap();
        assert!(h.len() > 50, "surface data should have a large hull");
    }

    #[test]
    fn seed_changes_order_not_result() {
        let pts = uniform_cube::<2>(5_000, 23);
        assert_eq!(
            hull2d_randinc_seeded(&pts, 1),
            hull2d_randinc_seeded(&pts, 2)
        );
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let pts = uniform_cube::<2>(10_000, 24);
        let a = pargeo_parlay::with_threads(1, || hull2d_randinc(&pts));
        let b = pargeo_parlay::with_threads(4, || hull2d_randinc(&pts));
        assert_eq!(a, b);
    }

    /// The 2D twin of the 3D reservation-overhead bound: at one thread
    /// most reservations succeed, and rounds are batches, not points.
    #[test]
    fn most_reservations_succeed() {
        for pts in [uniform_cube::<2>(3_000, 25), on_sphere::<2>(3_000, 26)] {
            let (_, s) = pargeo_parlay::with_threads(1, || randinc(&pts, 42));
            assert!(s.insertions > 0 && s.rounds <= s.attempts);
            assert!(
                s.attempts <= 2 * s.insertions,
                "{} attempts for {} insertions in {} rounds",
                s.attempts,
                s.insertions,
                s.rounds
            );
        }
    }
}

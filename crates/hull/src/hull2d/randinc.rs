//! Reservation-based parallel randomized incremental convex hull in R²:
//! the Figure 5 driver of the 3D hulls (`crate::reservation`) growing a
//! ring of directed edges. A cavity is the chain of edges a point sees,
//! its ring the two edges just beyond; a winner's chain becomes two new
//! edges, and its points move onto them or become interior.
//!
//! A hull corner held by several input points is reported under the
//! smallest of their indices, like the quickhulls do: all copies of a
//! point still outside the hull sit in the conflict lists of the chain the
//! point replaces, and its redistribution keeps the smallest.

use super::{extremes, rotate_to_lex_min, sees, strip_collinear};
use crate::reservation::{run, Complex, HullStats, NONE};
use pargeo_geometry::{orient2d, Orientation, Point2};
use pargeo_parlay as parlay;

/// A directed hull edge `a → b` in the cyclic list, with the visible
/// points assigned to it; `a == NONE` in a free slot.
#[derive(Default)]
struct Edge {
    a: u32,
    b: u32,
    prev: u32,
    next: u32,
    pts: Vec<u32>,
}

/// The hull as a ring of edge slots.
struct Ring<'a> {
    points: &'a [Point2],
    edges: Vec<Edge>,
    free: Vec<u32>,
}

/// One point's insertion in flight; the buffers are reused across rounds.
#[derive(Default)]
struct Chain {
    q: u32,
    /// In ring order: the surviving edge before the visible chain, the
    /// chain, and the surviving edge after it.
    claims: Vec<u32>,
    /// A winner's two new edges `(u, q)` and `(q, v)`, …
    fan: [u32; 2],
    /// … the conflict points of the chain it replaced, their lists while
    /// they are being filled, …
    orphans: Vec<u32>,
    lists: [Vec<u32>; 2],
    /// … and the smallest index holding `q`'s coordinates.
    corner: u32,
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
fn randinc(points: &[Point2], seed: u64) -> (Vec<u32>, HullStats) {
    let order = parlay::random_permutation(points.len(), seed);
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
    let tri = match turn {
        Orientation::Positive => [t0, t1, t2],
        _ => [t0, t2, t1],
    };
    let edges = (0..3)
        .map(|i| Edge {
            a: tri[i],
            b: tri[(i + 1) % 3],
            prev: (i as u32 + 2) % 3,
            next: (i as u32 + 1) % 3,
            pts: Vec::new(),
        })
        .collect();
    let ring = Ring {
        points,
        edges,
        free: Vec::new(),
    };
    let (ring, stats) = run(ring, points.len(), Some(order));

    // Walk the cycle; report it as the quickhulls do.
    let edges = &ring.edges;
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

impl Ring<'_> {
    fn sees(&self, e: u32, q: u32) -> bool {
        let edge = &self.edges[e as usize];
        sees(self.points, edge.a, edge.b, q)
    }
}

impl Complex for Ring<'_> {
    type Cavity = Chain;
    type Scratch = ();
    const FACETS_PER_ATTEMPT: usize = 16;

    fn slots(&self) -> usize {
        self.edges.len()
    }

    fn live(&self) -> usize {
        self.edges.len() - self.free.len()
    }

    fn seed_facet(&self, q: u32) -> u32 {
        (0..3).find(|&e| self.sees(e, q)).unwrap_or(NONE)
    }

    /// A point inside the triangle that copies one of its corners becomes
    /// that corner if its index is smaller.
    fn seed(&mut self, q: u32, e: u32) {
        if e != NONE {
            self.edges[e as usize].pts.push(q);
            return;
        }
        for i in 0..3 {
            let corner = self.edges[i].a;
            if q < corner && self.points[q as usize] == self.points[corner as usize] {
                self.edges[i].a = q;
                self.edges[(i + 2) % 3].b = q;
            }
        }
    }

    fn conflicts(&self, e: u32) -> &[u32] {
        &self.edges[e as usize].pts
    }

    /// Walks the contiguous chain of edges visible to `q` around `e0`.
    fn find_cavity(&self, _: &mut (), e0: u32, q: u32, chain: &mut Chain) {
        debug_assert!(self.sees(e0, q));
        let prev = |e: u32| self.edges[e as usize].prev;
        let mut first = e0;
        // Guarded: a point cannot see the whole cycle.
        while prev(first) != e0 && self.sees(prev(first), q) {
            first = prev(first);
        }
        chain.q = q;
        chain.claims.clear();
        chain.claims.push(prev(first));
        let mut e = first;
        loop {
            chain.claims.push(e);
            e = self.edges[e as usize].next;
            if e == first || !self.sees(e, q) {
                break;
            }
        }
        chain.claims.push(e);
    }

    fn claimed(chain: &Chain) -> impl Iterator<Item = u32> + '_ {
        chain.claims.iter().copied()
    }

    /// The new edges `(u, q)` and `(q, v)` take the chain's first and last
    /// slots (a one-edge chain takes a free or fresh slot for the second;
    /// a longer one frees its middle).
    fn replace_cavity(&mut self, chain: &mut Chain) {
        let q = chain.q;
        let [_, ref inner @ .., right] = chain.claims[..] else {
            unreachable!("a chain has its two boundary edges")
        };
        let (first, last) = (inner[0], inner[inner.len() - 1]);
        chain.orphans.clear();
        for &e in inner {
            let edge = &mut self.edges[e as usize];
            chain.orphans.append(&mut edge.pts);
            if e != first && e != last {
                edge.a = NONE;
                self.free.push(e);
            }
        }
        let v = self.edges[last as usize].b;
        let second = match inner.len() {
            1 => self.free.pop().unwrap_or_else(|| {
                self.edges.push(Edge::default());
                self.edges.len() as u32 - 1
            }),
            _ => last,
        };
        let e1 = &mut self.edges[first as usize];
        (e1.b, e1.next) = (q, second);
        chain.lists[0] = std::mem::take(&mut e1.pts);
        let e2 = &mut self.edges[second as usize];
        (e2.a, e2.b, e2.prev, e2.next) = (q, v, first, right);
        chain.lists[1] = std::mem::take(&mut e2.pts);
        self.edges[right as usize].prev = second;
        chain.fan = [first, second];
        chain.corner = q;
    }

    /// Onto the new edge that sees the point; among the swallowed points,
    /// the copies of `q` itself are noted.
    fn distribute(&self, chain: &mut Chain, placed: impl Fn(u32, u32)) {
        let (q, [e1, e2]) = (chain.q, chain.fan);
        let (u, v) = (self.edges[e1 as usize].a, self.edges[e2 as usize].b);
        for &t in chain.orphans.iter().filter(|&&t| t != q) {
            let to = if sees(self.points, u, q, t) {
                chain.lists[0].push(t);
                e1
            } else if sees(self.points, q, v, t) {
                chain.lists[1].push(t);
                e2
            } else {
                if t < chain.corner && self.points[t as usize] == self.points[q as usize] {
                    chain.corner = t;
                }
                NONE
            };
            placed(t, to);
        }
    }

    /// Also reports the new corner under its smallest index.
    fn install(&mut self, chain: &mut Chain) {
        let [e1, e2] = chain.fan;
        self.edges[e1 as usize].pts = std::mem::take(&mut chain.lists[0]);
        self.edges[e2 as usize].pts = std::mem::take(&mut chain.lists[1]);
        self.edges[e1 as usize].b = chain.corner;
        self.edges[e2 as usize].a = chain.corner;
    }

    fn fan(chain: &Chain) -> &[u32] {
        &chain.fan
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

    /// The 2D twin of the 3D reservation-overhead bound, on the driver's
    /// counters: at one thread most reservations succeed, and rounds are
    /// batches, not points.
    #[test]
    fn most_reservations_succeed() {
        for pts in [uniform_cube::<2>(3_000, 25), on_sphere::<2>(3_000, 26)] {
            let (_, s) = pargeo_parlay::with_threads(1, || randinc(&pts, 42));
            assert!(s.insertions > 0 && s.rounds <= s.points_touched);
            assert!(s.points_touched <= 2 * s.insertions, "{s:?}");
        }
    }
}

//! Euclidean minimum spanning tree from the WSPD (paper Module 3, the
//! `EMST` row of Table 1): MemoGFK \[56\].
//!
//! For separation `s ≥ 2` every MST edge is the bichromatic closest pair of
//! some well-separated pair \[25\], and a pair's box distance is a lower
//! bound on its BCCP. MemoGFK never builds the decomposition. It runs
//! Kruskal in rounds, and each round re-walks the WSPD recursion (one
//! `plan` of its top, made once) for only the pairs the round can use:
//!
//! 1. **Label components once.** A kd-tree node is a range of the tree's
//!    leaf order, so one labelling pass (`ComponentRuns`) answers "is this
//!    node inside one component, and which" in O(1) for the whole round.
//! 2. **Find the round's cap** `hi`: the smallest bound among pairs that
//!    are not yet connected, hold more than `β` points and were not taken
//!    by an earlier round (bound ≥ `lo`). `β` is 2, 4, 8, …. A min-walk
//!    cuts at node pairs of ≤ `β` points, at pairs no nearer than the best
//!    so far, and at pairs inside one component.
//! 3. **Realize the window.** One walk emits every pair with bound in
//!    `[lo, hi)` and computes its BCCP on the spot. It cuts a node pair
//!    with everything beneath it when its box distance is ≥ `hi` (child
//!    boxes lie inside their parent's, so nothing below is nearer) or both
//!    sides lie in one component, and skips the pairs within a node that
//!    lies in one component. Every open pair in the window holds ≤ `β`
//!    points (a larger one would have set a smaller cap), so its BCCP is
//!    cheap.
//! 4. **Kruskal what can no longer be undercut.** Every pair with bound
//!    below `hi` has now been realized or cut, so the realized edges at or
//!    below `hi` are sorted by `(d², u, v)` and unioned in order; longer
//!    ones are held for a later round. Then `lo = hi`.
//!
//! Both walks are one `parlay` pass over the plan's tasks: a shared
//! minimum for the cap, exact in whatever order the tasks run, and a
//! `flatten` for the window, in recursion order. No union runs during the
//! walks, so both see the components of the round's start, and the counts
//! in [`EmstWork`] do not depend on the pool.
//!
//! The result is the MST's edges in ascending `(d², u, v)` order, after the
//! zero-length edges that join coincident points, each oriented as
//! `bccp_nodes` reports it for the pair's recursion order. When no two
//! candidate lengths tie exactly the MST is unique and so is this list;
//! under exact ties it is *an* MST whose choice among equal edges depends
//! on where the round boundaries fall.

use crate::bccp::bccp_nodes;
use crate::unionfind::UnionFind;
use crate::wspd::{plan, wspd_tree, Walk};
use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::tree::NodeId;
use pargeo_kdtree::KdTree;
use pargeo_parlay as parlay;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The WSPD separation whose pairs' BCCPs contain the MST.
const SEPARATION: f64 = 2.0;

/// An MST edge between original point indices, with its length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmstEdge {
    /// First endpoint (index into the input point slice).
    pub u: u32,
    /// Second endpoint (index into the input point slice).
    pub v: u32,
    /// Euclidean length of the edge.
    pub weight: f64,
}

/// What one [`emst_work`] call did, in counts that depend on the input
/// alone (not on the machine or the pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmstWork {
    /// Well-separated pairs the rounds emitted, summed over rounds.
    pub pairs_generated: u64,
    /// Pairs whose BCCP was computed. The component filter runs inside the
    /// walk, so every emitted pair is realized and this equals
    /// `pairs_generated`.
    pub bccps: u64,
    /// Realized edges that were sorted for Kruskal.
    pub edges_sorted: u64,
    /// Rounds taken.
    pub rounds: u64,
    /// The most realized pairs alive at once: one round's window plus the
    /// edges held over from earlier rounds. The EMST's transient memory is
    /// this many 16-byte rows.
    pub max_round_pairs: u64,
}

/// Computes the EMST; returns `n - 1` edges for `n > 0` distinct-component
/// inputs (duplicate points yield zero-weight edges as usual).
pub fn emst<const D: usize>(points: &[Point<D>]) -> Vec<EmstEdge> {
    emst_work(points).0
}

/// [`emst`] plus the work the same run did.
pub fn emst_work<const D: usize>(points: &[Point<D>]) -> (Vec<EmstEdge>, EmstWork) {
    let n = points.len();
    let mut work = EmstWork::default();
    if n <= 1 {
        return (Vec::new(), work);
    }
    let tree = wspd_tree(points);
    let tasks = plan(&tree, SEPARATION);

    let mut uf = UnionFind::new(n);
    let mut out: Vec<EmstEdge> = Vec::with_capacity(n - 1);
    // Duplicate-point leaves: a WSPD over collapsed duplicates never emits
    // intra-leaf pairs, so connect duplicates up front (zero-weight edges).
    connect_duplicates(&tree, &mut uf, &mut out);

    // Realized `(d², u, v)` edges longer than every cap so far.
    let mut held: Vec<(f64, u32, u32)> = Vec::new();
    let (mut lo, mut beta) = (0.0, 2);
    // A round whose cap is ∞ realizes every pair left, so it is the last.
    while out.len() < n - 1 && lo < f64::INFINITY {
        let runs = ComponentRuns::new(&tree, &uf);
        let cap = AtomicU64::new(f64::INFINITY.to_bits());
        parlay::parallel_for(tasks.len(), 1, |i| {
            let mut walk = NextCap {
                runs: &runs,
                lo,
                beta,
                cap: &cap,
            };
            tasks[i].walk(&tree, SEPARATION, &mut walk);
        });
        let hi = f64::from_bits(cap.into_inner());
        let realized = parlay::flatten(tasks.len(), 1, |i| {
            let mut walk = Realize {
                runs: &runs,
                lo,
                cap: hi,
                edges: Vec::new(),
            };
            tasks[i].walk(&tree, SEPARATION, &mut walk);
            walk.edges
        });
        work.rounds += 1;
        work.pairs_generated += realized.len() as u64;
        work.bccps += realized.len() as u64;
        held.extend(realized);
        work.max_round_pairs = work.max_round_pairs.max(held.len() as u64);
        (lo, beta) = (hi, beta * 2);

        let (mut ready, later) = parlay::split_two(&held, |e| e.0 <= hi);
        held = later;
        work.edges_sorted += ready.len() as u64;
        // A total order, so the unstable sort is deterministic; sequential,
        // as the union loop over the same rows is.
        ready.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
        for (_, u, v) in ready {
            if uf.union(u, v) {
                out.push(EmstEdge {
                    u,
                    v,
                    weight: points[u as usize].dist(&points[v as usize]),
                });
                if out.len() == n - 1 {
                    break;
                }
            }
        }
    }
    (out, work)
}

/// The min-walk for the round's cap: the smallest bound `≥ lo` of an open
/// pair with more than `beta` points (∞ if there is none). Every pair with
/// a smaller bound than `lo` was emitted by an earlier round. `cap` holds
/// the bits of the smallest such bound found so far by any task — for
/// non-negative floats the bit order is the numeric order — so every task
/// prunes against it, and the minimum is exact in whatever order the tasks
/// run. `Relaxed`: the bits publish no other data, and the round reads them
/// after the loop's join.
struct NextCap<'r, const D: usize> {
    runs: &'r ComponentRuns<'r, D>,
    lo: f64,
    beta: usize,
    cap: &'r AtomicU64,
}

impl<const D: usize> Walk<D> for NextCap<'_, D> {
    fn within(&mut self, u: NodeId) -> bool {
        self.runs.tree.node_size(u) > self.beta && self.runs.of(u).is_none()
    }

    fn across(&mut self, a: NodeId, b: NodeId, ba: &Bbox<D>, bb: &Bbox<D>) -> bool {
        let tree = self.runs.tree;
        tree.node_size(a) + tree.node_size(b) > self.beta
            && ba.dist_sq_to_box(bb) < f64::from_bits(self.cap.load(Relaxed))
            && !self.runs.same_component(a, b)
    }

    fn pair(&mut self, _: NodeId, _: NodeId, ba: &Bbox<D>, bb: &Bbox<D>) {
        let bound = ba.dist_sq_to_box(bb);
        if bound >= self.lo {
            self.cap.fetch_min(bound.to_bits(), Relaxed);
        }
    }
}

/// The walk that realizes the round's window: every open pair with bound
/// in `[lo, cap)`, as a `(d², u, v)` edge.
struct Realize<'r, const D: usize> {
    runs: &'r ComponentRuns<'r, D>,
    lo: f64,
    cap: f64,
    edges: Vec<(f64, u32, u32)>,
}

impl<const D: usize> Walk<D> for Realize<'_, D> {
    fn within(&mut self, u: NodeId) -> bool {
        self.runs.of(u).is_none()
    }

    fn across(&mut self, a: NodeId, b: NodeId, ba: &Bbox<D>, bb: &Bbox<D>) -> bool {
        ba.dist_sq_to_box(bb) < self.cap && !self.runs.same_component(a, b)
    }

    fn pair(&mut self, a: NodeId, b: NodeId, ba: &Bbox<D>, bb: &Bbox<D>) {
        if ba.dist_sq_to_box(bb) >= self.lo {
            let (u, v, d) = bccp_nodes(self.runs.tree, a, b);
            self.edges.push((d * d, u, v));
        }
    }
}

/// The Kruskal components along the tree's leaf order: `label[i]` is the
/// component of the point at position `i`, `run_start[i]` the first
/// position of the maximal run of equal labels around `i`. A node is the
/// range `lo..hi`, and lies inside one component iff `run_start[hi - 1] ≤
/// lo`.
struct ComponentRuns<'t, const D: usize> {
    tree: &'t KdTree<D>,
    label: Vec<u32>,
    run_start: Vec<u32>,
}

impl<'t, const D: usize> ComponentRuns<'t, D> {
    fn new(tree: &'t KdTree<D>, uf: &UnionFind) -> Self {
        let ids = tree.points().ids();
        let label = parlay::map(ids, parlay::GRANULARITY, |&id| uf.find_readonly(id));
        let heads = parlay::tabulate(ids.len(), parlay::GRANULARITY, |i| {
            if i > 0 && label[i] == label[i - 1] {
                0
            } else {
                i as u32
            }
        });
        let run_start = parlay::scan_inclusive(&heads, 0, |a, b| a.max(b));
        Self {
            tree,
            label,
            run_start,
        }
    }

    /// The component holding every point of `node`, if one does.
    fn of(&self, node: NodeId) -> Option<u32> {
        let r = self.tree.node_range(node);
        (self.run_start[r.end - 1] as usize <= r.start).then(|| self.label[r.start])
    }

    /// True iff all points of both nodes are in one component, so the
    /// pair's BCCP cannot be an MST edge.
    fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        let of_a = self.of(a);
        of_a.is_some() && of_a == self.of(b)
    }
}

fn connect_duplicates<const D: usize>(
    tree: &KdTree<D>,
    uf: &mut UnionFind,
    out: &mut Vec<EmstEdge>,
) {
    // Leaves hold >1 point only when all their points are identical.
    let Some(root) = tree.root_id() else { return };
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        match tree.node_children(node) {
            Some((l, r)) => {
                stack.push(l);
                stack.push(r);
            }
            None => {
                let ids = tree.node_point_ids(node);
                for w in ids.windows(2) {
                    if uf.union(w[0], w[1]) {
                        out.push(EmstEdge {
                            u: w[0],
                            v: w[1],
                            weight: 0.0,
                        });
                    }
                }
            }
        }
    }
}

/// Reference Prim's algorithm for testing (O(n²)); returns the MST weight.
pub fn emst_prim_brute<const D: usize>(points: &[Point<D>]) -> f64 {
    let n = points.len();
    if n <= 1 {
        return 0.0;
    }
    let mut in_tree = vec![false; n];
    let mut dist_sq = vec![f64::INFINITY; n];
    dist_sq[0] = 0.0;
    let mut total = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&i| !in_tree[i])
            .min_by(|&i, &j| dist_sq[i].partial_cmp(&dist_sq[j]).unwrap())
            .unwrap();
        in_tree[u] = true;
        if dist_sq[u].is_finite() && dist_sq[u] > 0.0 {
            total += dist_sq[u].sqrt();
        }
        for v in 0..n {
            if !in_tree[v] {
                let d = points[u].dist_sq(&points[v]);
                if d < dist_sq[v] {
                    dist_sq[v] = d;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};

    fn check_emst<const D: usize>(points: &[Point<D>]) {
        let edges = emst(points);
        assert_eq!(edges.len(), points.len().saturating_sub(1));
        // Spanning: union-find over the edges connects everything.
        let mut uf = UnionFind::new(points.len());
        for e in &edges {
            uf.union(e.u, e.v);
        }
        assert_eq!(uf.component_count(), 1);
        // Weight matches Prim.
        let total: f64 = edges.iter().map(|e| e.weight).sum();
        let want = emst_prim_brute(points);
        assert!(
            (total - want).abs() <= 1e-7 * (1.0 + want),
            "got {total}, want {want}"
        );
    }

    #[test]
    fn matches_prim_uniform_2d() {
        for seed in 0..3 {
            check_emst(&uniform_cube::<2>(300, seed));
        }
    }

    #[test]
    fn matches_prim_uniform_3d() {
        check_emst(&uniform_cube::<3>(250, 5));
    }

    #[test]
    fn matches_prim_clustered() {
        check_emst(&seed_spreader::<2>(400, 7, SeedSpreaderParams::default()));
    }

    #[test]
    fn duplicates_get_zero_edges() {
        let mut pts = uniform_cube::<2>(50, 8);
        pts.push(pts[0]);
        pts.push(pts[0]);
        let edges = emst(&pts);
        assert_eq!(edges.len(), pts.len() - 1);
        let zero = edges.iter().filter(|e| e.weight == 0.0).count();
        assert!(zero >= 2);
        check_emst(&pts);
    }

    #[test]
    fn tiny_inputs() {
        assert!(emst::<2>(&[]).is_empty());
        assert!(emst(&[Point::new([1.0, 1.0])]).is_empty());
        let two = [Point::new([0.0, 0.0]), Point::new([3.0, 4.0])];
        let e = emst(&two);
        assert_eq!(e.len(), 1);
        assert!((e[0].weight - 5.0).abs() < 1e-12);
    }

    #[test]
    fn larger_instance_spans() {
        let pts = uniform_cube::<2>(5_000, 9);
        let edges = emst(&pts);
        assert_eq!(edges.len(), 4_999);
        let mut uf = UnionFind::new(5_000);
        for e in &edges {
            uf.union(e.u, e.v);
        }
        assert_eq!(uf.component_count(), 1);
    }

    /// Uniform 2D 30k and 3D 20k points, seed 42. The rounds generate
    /// only the pairs they realize: 82 826 in 2D and 124 002 in 3D, where
    /// the windowed filter-Kruskal before them generated all 457 607 and
    /// 1 274 985 pairs of the WSPD. `max_round_pairs` (67 520 in 2D,
    /// 112 945 in 3D) bounds the transient rows. BCCPs (70 125 → 82 826),
    /// sorted edges (69 975 → 81 615) and rounds (3 → 4) rise against the
    /// windowed loop in 2D: round 1 (`β` = 2) realizes every point-to-point
    /// pair nearer than the nearest pair of more than two points, each one
    /// distance, before any union can filter them, where the first window
    /// stopped at `n` pairs. Later changes may only lower these.
    #[test]
    fn emst_work_stays_under_the_recorded_ceiling() {
        let (edges, w) = emst_work(&uniform_cube::<2>(30_000, 42));
        assert_eq!(edges.len(), 29_999);
        assert!(w.pairs_generated <= 100_000, "{w:?}");
        assert!(w.bccps <= 100_000, "{w:?}");
        assert!(w.edges_sorted <= 100_000, "{w:?}");
        assert!(w.rounds <= 4, "{w:?}");
        assert!(w.max_round_pairs <= 75_000, "{w:?}");

        let (edges, w) = emst_work(&uniform_cube::<3>(20_000, 42));
        assert_eq!(edges.len(), 19_999);
        assert!(w.pairs_generated <= 150_000, "{w:?}");
        assert!(w.bccps <= 150_000, "{w:?}");
        assert!(w.edges_sorted <= 150_000, "{w:?}");
        assert!(w.rounds <= 3, "{w:?}");
        assert!(w.max_round_pairs <= 125_000, "{w:?}");
    }
}

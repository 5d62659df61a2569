//! Euclidean minimum spanning tree from the WSPD (paper Module 3, the
//! `EMST` row of Table 1).
//!
//! For separation `s ≥ 2` every MST edge is the bichromatic closest pair of
//! some well-separated pair \[25\], so the WSPD pairs' BCCPs are a valid
//! candidate edge set, and a pair's box distance is a lower bound on its
//! BCCP. [`emst`] is the filter-Kruskal over them (GeoFilterKruskal
//! \[56\]), in windows:
//!
//! 1. **Select, don't sort.** The next window is the `w` unvisited pairs
//!    of smallest bound, found by `select_nth`; `w` starts at `n` and
//!    doubles. The smallest bound left behind is the window's *cap*: no
//!    pair still unvisited can yield an edge shorter than it.
//! 2. **Filter before the BCCP.** A pair whose two nodes lie wholly inside
//!    one Kruskal component cannot yield an MST edge and is dropped
//!    unrealized. A kd-tree node is a range of the tree's leaf order, so one
//!    labelling pass per window (`ComponentRuns`) answers "is this node
//!    inside one component, and which" in O(1). The labels are those of the
//!    window's start; components only ever merge, so a stale label can
//!    fail to drop a pair (Kruskal's `union` then rejects its edge) but
//!    never drops one wrongly.
//! 3. **One parallel BCCP pass** realizes the window's surviving pairs.
//! 4. **Kruskal what can no longer be undercut.** The realized edges at or
//!    below the cap are sorted by `(d², u, v)` and unioned in order; longer
//!    ones are held for a later window.
//!
//! The result is the MST's edges in ascending `(d², u, v)` order, after the
//! zero-length edges that join coincident points. When no two candidate
//! lengths tie exactly the MST is unique and so is this list; under exact
//! ties it is *an* MST whose choice among equal edges depends on where the
//! window boundaries fall.

use crate::bccp::bccp_nodes;
use crate::unionfind::UnionFind;
use crate::wspd::{wspd_map, wspd_tree};
use pargeo_geometry::Point;
use pargeo_kdtree::tree::NodeId;
use pargeo_kdtree::KdTree;
use pargeo_parlay as parlay;

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
    /// Well-separated pairs the WSPD produced.
    pub pairs_generated: u64,
    /// Pairs that entered a window (the rest were never looked at again).
    pub pairs_visited: u64,
    /// Visited pairs that survived the component filter and had their BCCP
    /// computed.
    pub bccps: u64,
    /// Realized edges that were sorted for Kruskal.
    pub edges_sorted: u64,
    /// Windows taken.
    pub windows: u64,
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
    // (box-distance lower bound, pair); `pairs[next..]` is unvisited.
    let mut pairs: Vec<(f64, NodeId, NodeId)> =
        wspd_map(&tree, 2.0, &|a, b, ba, bb| (ba.dist_sq_to_box(bb), a, b));
    work.pairs_generated = pairs.len() as u64;
    let mut next = 0;

    let mut uf = UnionFind::new(n);
    let mut out: Vec<EmstEdge> = Vec::with_capacity(n - 1);
    // Duplicate-point leaves: a WSPD over collapsed duplicates never emits
    // intra-leaf pairs, so connect duplicates up front (zero-weight edges).
    connect_duplicates(&tree, &mut uf, &mut out);

    // Realized `(d², u, v)` edges longer than every cap so far.
    let mut held: Vec<(f64, u32, u32)> = Vec::new();
    let mut width = n;
    while out.len() < n - 1 && (next < pairs.len() || !held.is_empty()) {
        let unvisited = &mut pairs[next..];
        let (window, cap) = if width < unvisited.len() {
            // The slice's own in-place quickselect: 1.0–1.3 ms a window on
            // the 248k–458k rows of a 30k-point run, where `parlay`'s
            // rounds — one pass out to a scratch and back — take 1.3–2.5
            // at one thread (1.9–2.2×) and, on rows this narrow, 1.2–1.5×
            // on two; O(unvisited) per window either way.
            unvisited.select_nth_unstable_by(width, |x, y| x.0.total_cmp(&y.0));
            (&unvisited[..width], unvisited[width].0)
        } else {
            (&unvisited[..], f64::INFINITY)
        };
        let runs = ComponentRuns::new(&tree, &uf);
        // 256 pairs to a task: a pair is two run lookups and, when they
        // differ, a BCCP descent.
        let realized: Vec<(f64, u32, u32)> = parlay::flatten(window.len(), 256, |i| {
            let (_, a, b) = window[i];
            if runs.same_component(&tree, a, b) {
                return None;
            }
            let (u, v, d) = bccp_nodes(&tree, a, b);
            Some((d * d, u, v))
        });
        work.windows += 1;
        work.pairs_visited += window.len() as u64;
        work.bccps += realized.len() as u64;
        next += window.len();
        width *= 2;

        held.extend(realized);
        let (mut ready, later) = parlay::split_two(&held, |e| e.0 <= cap);
        held = later;
        work.edges_sorted += ready.len() as u64;
        parlay::sample_sort_by(&mut ready, |x, y| {
            x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2))
        });
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

/// The Kruskal components along the tree's leaf order: `label[i]` is the
/// component of the point at position `i`, `run_start[i]` the first
/// position of the maximal run of equal labels around `i`. A node is the
/// range `lo..hi`, and lies inside one component iff `run_start[hi - 1] ≤
/// lo`.
struct ComponentRuns {
    label: Vec<u32>,
    run_start: Vec<u32>,
}

impl ComponentRuns {
    fn new<const D: usize>(tree: &KdTree<D>, uf: &UnionFind) -> Self {
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
        Self { label, run_start }
    }

    /// The component holding every point of `node`, if one does.
    fn of<const D: usize>(&self, tree: &KdTree<D>, node: NodeId) -> Option<u32> {
        let r = tree.node_range(node);
        (self.run_start[r.end - 1] as usize <= r.start).then(|| self.label[r.start])
    }

    /// True iff all points of both nodes are in one component, so the
    /// pair's BCCP cannot be an MST edge.
    fn same_component<const D: usize>(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> bool {
        let of_a = self.of(tree, a);
        of_a.is_some() && of_a == self.of(tree, b)
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

    /// Uniform 2D, 30k points, seed 42. The heap-and-refill Kruskal this
    /// loop replaced visited 200 655 of the same 457 607 pairs but computed
    /// 145 872 BCCPs (its filter only fired on two single points) and popped
    /// 134 234 edges off its heap. Later changes may only lower these.
    #[test]
    fn emst_work_stays_under_the_recorded_ceiling() {
        let (edges, w) = emst_work(&uniform_cube::<2>(30_000, 42));
        assert_eq!(edges.len(), 29_999);
        assert!(w.pairs_generated <= 457_607, "{w:?}");
        assert!(w.pairs_visited <= 210_000, "{w:?}");
        assert!(w.bccps <= 70_125, "{w:?}");
        assert!(w.edges_sorted <= 69_975, "{w:?}");
        assert!(w.windows <= 3, "{w:?}");
    }
}

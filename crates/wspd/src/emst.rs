//! Euclidean minimum spanning tree from the WSPD (paper Module 3, the
//! `EMST` row of Table 1).
//!
//! For separation `s ≥ 2` every MST edge is the bichromatic closest pair of
//! some well-separated pair \[25\], so the WSPD pairs' BCCPs are a valid
//! candidate edge set. We run Kruskal over them **lazily**, in the spirit
//! of GeoFilterKruskal \[56\]: pairs are sorted by their box-distance lower
//! bound, BCCPs are realized in parallel batches only once their lower
//! bound surfaces in the edge heap, and pairs whose sides are already
//! connected are filtered before paying for their BCCP.

use crate::bccp::bccp_nodes;
use crate::unionfind::UnionFind;
use crate::wspd::wspd;
use pargeo_geometry::Point;
use pargeo_kdtree::tree::NodeId;
use pargeo_parlay as parlay;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Batch of BCCPs realized per refill.
const BATCH: usize = 32_768;

/// Computes the EMST; returns `n - 1` edges for `n > 0` distinct-component
/// inputs (duplicate points yield zero-weight edges as usual).
pub fn emst<const D: usize>(points: &[Point<D>]) -> Vec<EmstEdge> {
    let n = points.len();
    if n <= 1 {
        return Vec::new();
    }
    let (tree, pairs) = wspd(points, 2.0);
    // Lower bounds, sorted ascending (parallel sort by f64 key).
    let mut order: Vec<(f64, u32)> = parlay::tabulate(pairs.len(), parlay::GRANULARITY, |i| {
        let (a, b) = pairs[i];
        let d = tree.node_bbox(a).dist_sq_to_box(&tree.node_bbox(b));
        (d, i as u32)
    });
    parlay::sort_by_key_f64(&mut order, |&(d, _)| d);

    let mut uf = UnionFind::new(n);
    let mut out: Vec<EmstEdge> = Vec::with_capacity(n - 1);
    // Min-heap of realized edges, keyed by squared length.
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32, u32)>> = BinaryHeap::new();
    let mut next = 0usize; // next unrealized pair in `order`

    // Duplicate-point leaves: a WSPD over collapsed duplicates never emits
    // intra-leaf pairs, so connect duplicates up front (zero-weight edges).
    connect_duplicates(&tree, &mut uf, &mut out);

    while out.len() < n - 1 {
        // Realize pairs until the heap's top is globally minimal.
        let need_refill = match heap.peek() {
            None => next < order.len(),
            Some(Reverse((d, _, _))) => next < order.len() && order[next].0 < d.0,
        };
        if need_refill {
            let hi = (next + BATCH).min(order.len());
            // Also stop the batch at the heap top's key: realizing further
            // is wasted work if the heap already wins.
            let limit = heap.peek().map(|Reverse((d, _, _))| d.0);
            let mut end = hi;
            if let Some(l) = limit {
                end = order[next..hi].partition_point(|&(d, _)| d <= l) + next;
                end = end.max(next + 1);
            }
            let uf_ref = &uf;
            let realize = |&(_, pi): &(f64, u32)| {
                let (a, b) = pairs[pi as usize];
                if sides_connected(&tree, uf_ref, a, b) {
                    return None; // filtered: BCCP can't be an MST edge
                }
                let (u, v, d) = bccp_nodes(&tree, a, b);
                Some((d * d, u, v))
            };
            // 256 pairs to a task: a pair is two union-find lookups and,
            // when they differ, a BCCP descent.
            let realized: Vec<(f64, u32, u32)> =
                parlay::flatten(end - next, 256, |i| realize(&order[next + i]));
            for (d2, u, v) in realized {
                heap.push(Reverse((OrdF64(d2), u, v)));
            }
            next = end;
            continue;
        }
        let Some(Reverse((_, u, v))) = heap.pop() else {
            break; // no more candidates
        };
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
    out
}

/// Cheap pre-filter: both sides already in one component (stale reads are
/// fine — the final `union` re-checks exactly).
fn sides_connected<const D: usize>(
    tree: &pargeo_kdtree::KdTree<D>,
    uf: &UnionFind,
    a: NodeId,
    b: NodeId,
) -> bool {
    let ia = tree.node_point_ids(a)[0];
    let ib = tree.node_point_ids(b)[0];
    // Only exact when both nodes are single-component internally, which
    // holds for singleton/duplicate leaves; for larger nodes this filter
    // simply never fires (conservative).
    tree.node_size(a) == 1 && tree.node_size(b) == 1 && uf.find_readonly(ia) == uf.find_readonly(ib)
}

fn connect_duplicates<const D: usize>(
    tree: &pargeo_kdtree::KdTree<D>,
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

/// Total-ordered f64 wrapper (finite values only).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite weights")
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
}

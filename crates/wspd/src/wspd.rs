//! Callahan–Kosaraju well-separated pair decomposition over the parallel
//! kd-tree.
//!
//! A pair of tree nodes `(A, B)` is `s`-well-separated when both fit in
//! balls of radius `r` that are at least `s·r` apart. The decomposition
//! covers every unordered point pair exactly once. The recursion follows
//! the standard split-the-larger-node rule. It runs in two steps: the top
//! of the recursion is walked sequentially down to subproblems under
//! `SEQ_CUTOFF` points, which are listed in recursion order; the list is
//! then solved by one `parlay::flatten`, each subproblem sequentially into
//! its own vector — so a pair is written once and moved once, however deep
//! the recursion that found it.

use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::tree::{KdTree, NodeId, SplitRule};
use pargeo_parlay as parlay;

/// A subproblem with fewer points than this on its larger side is one task:
/// at leaf size 1 it is thousands of box tests, three orders of magnitude
/// above a fork, and a 30k-point tree still yields hundreds of tasks.
const SEQ_CUTOFF: usize = 2048;

/// Builds a leaf-size-1 kd-tree over `points` and returns it together with
/// its `s`-WSPD. Keeping the tree lets callers resolve [`NodeId`]s to point
/// sets.
pub fn wspd<const D: usize>(points: &[Point<D>], s: f64) -> (KdTree<D>, Vec<(NodeId, NodeId)>) {
    let tree = wspd_tree(points);
    let pairs = wspd_from_tree(&tree, s);
    (tree, pairs)
}

/// The tree [`wspd`] decomposes. Leaf size 1: every pair must be splittable
/// down to single points (identical duplicates collapse into one leaf,
/// which is fine — a zero-diameter leaf is well-separated from everything
/// disjoint).
pub(crate) fn wspd_tree<const D: usize>(points: &[Point<D>]) -> KdTree<D> {
    KdTree::build_with_leaf_size(points, SplitRule::ObjectMedian, 1)
}

/// The `s`-WSPD of an existing tree. The tree must have been built with
/// leaf size 1 (asserted).
pub fn wspd_from_tree<const D: usize>(tree: &KdTree<D>, s: f64) -> Vec<(NodeId, NodeId)> {
    wspd_map(tree, s, &|a, b, _, _| (a, b))
}

/// [`wspd_from_tree`] with every pair turned into a row by `emit(a, b,
/// box of a, box of b)` where it is found, while both boxes are at hand.
pub(crate) fn wspd_map<const D: usize, T: Send>(
    tree: &KdTree<D>,
    s: f64,
    emit: &(impl Fn(NodeId, NodeId, &Bbox<D>, &Bbox<D>) -> T + Sync),
) -> Vec<T> {
    assert!(s > 0.0, "separation must be positive");
    assert!(tree.leaf_size() == 1, "WSPD requires a leaf-size-1 kd-tree");
    let Some(root) = tree.root_id() else {
        return Vec::new();
    };
    let mut tasks = Vec::new();
    plan(tree, root, s, &mut tasks);
    parlay::flatten(tasks.len(), 1, |i| {
        let mut out = Vec::new();
        let mut push = |a, b, ba: &Bbox<D>, bb: &Bbox<D>| out.push(emit(a, b, ba, bb));
        match tasks[i] {
            Task::Within(u) => split_node(tree, u, s, &mut push),
            Task::Across(a, b) => find_pairs(tree, a, b, s, 0, &mut push),
        }
        out
    })
}

/// A subproblem small enough to solve sequentially.
enum Task {
    /// All pairs within one node.
    Within(NodeId),
    /// All pairs between two disjoint nodes.
    Across(NodeId, NodeId),
}

/// Lists, in recursion order, the subproblems of `u` that fall under
/// [`SEQ_CUTOFF`] (and the pairs already well separated above it).
fn plan<const D: usize>(tree: &KdTree<D>, u: NodeId, s: f64, tasks: &mut Vec<Task>) {
    let Some((l, r)) = tree.node_children(u) else {
        return; // single leaf: no pairs within
    };
    if tree.node_size(u) < SEQ_CUTOFF {
        tasks.push(Task::Within(u));
        return;
    }
    plan(tree, l, s, tasks);
    plan(tree, r, s, tasks);
    find_pairs(tree, l, r, s, SEQ_CUTOFF, &mut |a, b, _, _| {
        tasks.push(Task::Across(a, b))
    });
}

/// Recurse within one node: pairs among the left child, among the right
/// child, and across.
fn split_node<const D: usize>(
    tree: &KdTree<D>,
    u: NodeId,
    s: f64,
    visit: &mut impl FnMut(NodeId, NodeId, &Bbox<D>, &Bbox<D>),
) {
    let Some((l, r)) = tree.node_children(u) else {
        return;
    };
    split_node(tree, l, s, visit);
    split_node(tree, r, s, visit);
    find_pairs(tree, l, r, s, 0, visit);
}

/// Walks the pairs covering `A × B` (disjoint nodes) and hands `visit`
/// every one that is well separated — or, without looking further, has
/// fewer than `stop` points on its larger side.
fn find_pairs<const D: usize>(
    tree: &KdTree<D>,
    a: NodeId,
    b: NodeId,
    s: f64,
    stop: usize,
    visit: &mut impl FnMut(NodeId, NodeId, &Bbox<D>, &Bbox<D>),
) {
    let ba = tree.node_bbox(a);
    let bb = tree.node_bbox(b);
    if tree.node_size(a).max(tree.node_size(b)) < stop || ba.well_separated(&bb, s) {
        visit(a, b, &ba, &bb);
        return;
    }
    // Split the node with the larger diameter.
    let (split_a, (l, r)) = match (tree.node_children(a), tree.node_children(b)) {
        (None, None) => {
            // Two leaves that are not well separated can only be identical
            // zero-diameter leaves at the same location — impossible for
            // disjoint tree nodes with positive separation distance — or a
            // numerical corner; emit them as a pair (distance 0 pairs are
            // exact for duplicates).
            visit(a, b, &ba, &bb);
            return;
        }
        (Some(kids), None) => (true, kids),
        (None, Some(kids)) => (false, kids),
        (Some(of_a), Some(of_b)) => {
            if ba.diag_sq() >= bb.diag_sq() {
                (true, of_a)
            } else {
                (false, of_b)
            }
        }
    };
    if split_a {
        find_pairs(tree, l, b, s, stop, visit);
        find_pairs(tree, r, b, s, stop, visit);
    } else {
        find_pairs(tree, a, l, s, stop, visit);
        find_pairs(tree, a, r, s, stop, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    /// Every unordered point pair must be covered by exactly one WSPD pair.
    fn check_coverage<const D: usize>(points: &[Point<D>], s: f64) {
        let (tree, pairs) = wspd(points, s);
        let n = points.len();
        let mut covered = vec![0u32; n * n];
        for &(a, b) in &pairs {
            for &i in tree.node_point_ids(a) {
                for &j in tree.node_point_ids(b) {
                    assert_ne!(i, j, "pair covers a point against itself");
                    let (lo, hi) = (i.min(j) as usize, i.max(j) as usize);
                    covered[lo * n + hi] += 1;
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(
                    covered[i * n + j],
                    1,
                    "pair ({i},{j}) covered {} times",
                    covered[i * n + j]
                );
            }
        }
        // Separation: the emitted boxes satisfy the definition.
        for &(a, b) in &pairs {
            let ba = tree.node_bbox(a);
            let bb = tree.node_bbox(b);
            assert!(
                ba.well_separated(&bb, s) || (ba.diag_sq() == 0.0 && bb.diag_sq() == 0.0),
                "unseparated pair emitted"
            );
        }
    }

    #[test]
    fn coverage_small_uniform() {
        check_coverage(&uniform_cube::<2>(60, 1), 2.0);
        check_coverage(&uniform_cube::<3>(40, 2), 2.0);
    }

    #[test]
    fn coverage_high_separation() {
        check_coverage(&uniform_cube::<2>(50, 3), 8.0);
    }

    #[test]
    fn coverage_with_duplicates() {
        let mut pts = uniform_cube::<2>(30, 4);
        let d = pts[0];
        pts.push(d);
        pts.push(d);
        // Duplicates share a leaf; pairs among them are not representable
        // (distance 0). Coverage check must treat the collapsed leaf as
        // covering its internal pairs implicitly — so here we only check
        // distinct positions.
        let (tree, pairs) = wspd(&pts, 2.0);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            for &i in tree.node_point_ids(a) {
                for &j in tree.node_point_ids(b) {
                    seen.insert((i.min(j), i.max(j)));
                }
            }
        }
        // All cross pairs of distinct positions covered.
        for i in 0..pts.len() as u32 {
            for j in i + 1..pts.len() as u32 {
                if pts[i as usize] != pts[j as usize] {
                    assert!(seen.contains(&(i, j)), "({i},{j}) uncovered");
                }
            }
        }
    }

    #[test]
    fn pair_count_is_linear_ish() {
        // O(s^d n) pairs for uniform data: sanity check the constant.
        let n = 4_000;
        let (_, pairs) = wspd(&uniform_cube::<2>(n, 5), 2.0);
        assert!(pairs.len() < 80 * n, "pairs = {}", pairs.len());
        assert!(pairs.len() >= n / 2, "suspiciously few pairs");
    }

    #[test]
    fn empty_and_singleton() {
        let (_, pairs) = wspd::<2>(&[], 2.0);
        assert!(pairs.is_empty());
        let (_, pairs) = wspd(&[Point::new([1.0, 2.0])], 2.0);
        assert!(pairs.is_empty());
    }
}

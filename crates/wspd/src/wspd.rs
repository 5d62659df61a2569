//! Callahan–Kosaraju well-separated pair decomposition over the parallel
//! kd-tree.
//!
//! A pair of tree nodes `(A, B)` is `s`-well-separated when both fit in
//! balls of radius `r` that are at least `s·r` apart. The decomposition
//! covers every unordered point pair exactly once. The recursion follows
//! the standard split-the-larger-node rule and is written once, here. It
//! runs in two steps: `plan` walks the top of the recursion sequentially
//! down to subproblems under `SEQ_CUTOFF` points and lists them in
//! recursion order; the list is then solved by one `parlay::flatten`, each
//! subproblem sequentially into its own vector — so a pair is written once
//! and moved once, however deep the recursion that found it.
//!
//! A `Walk` is what the recursion does at each step. Its hooks may cut a
//! node, or a pair of nodes, together with every pair beneath it; a plain
//! closure is a walk that never cuts and so receives the whole
//! decomposition ([`wspd_from_tree`]). The EMST's rounds re-walk one plan
//! with hooks that cut what a round cannot use, so the full decomposition
//! is never built there.

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
    let tasks = plan(tree, s);
    parlay::flatten(tasks.len(), 1, |i| {
        let mut out = Vec::new();
        tasks[i].walk(tree, s, &mut |a, b, _: &Bbox<D>, _: &Bbox<D>| {
            out.push((a, b))
        });
        out
    })
}

/// What the pair recursion does at each step. `within` and `across` are
/// asked before a node, or a pair of disjoint nodes, is looked into;
/// `false` cuts it with every pair beneath it. `pair` receives each
/// well-separated pair that is reached, with both boxes.
pub(crate) trait Walk<const D: usize> {
    /// Whether to look for pairs within node `u`.
    fn within(&mut self, u: NodeId) -> bool;
    /// Whether to look for pairs between `a` and `b` (boxes `ba`, `bb`).
    fn across(&mut self, a: NodeId, b: NodeId, ba: &Bbox<D>, bb: &Bbox<D>) -> bool;
    /// One pair of the decomposition.
    fn pair(&mut self, a: NodeId, b: NodeId, ba: &Bbox<D>, bb: &Bbox<D>);
}

/// A closure never cuts: it is handed every pair.
impl<const D: usize, F: FnMut(NodeId, NodeId, &Bbox<D>, &Bbox<D>)> Walk<D> for F {
    fn within(&mut self, _: NodeId) -> bool {
        true
    }

    fn across(&mut self, _: NodeId, _: NodeId, _: &Bbox<D>, _: &Bbox<D>) -> bool {
        true
    }

    fn pair(&mut self, a: NodeId, b: NodeId, ba: &Bbox<D>, bb: &Bbox<D>) {
        self(a, b, ba, bb)
    }
}

/// A subproblem small enough to solve sequentially.
pub(crate) enum Task {
    /// All pairs within one node.
    Within(NodeId),
    /// All pairs between two disjoint nodes.
    Across(NodeId, NodeId),
}

impl Task {
    /// Runs `walk` over this subproblem's pairs, in recursion order.
    pub(crate) fn walk<const D: usize>(&self, tree: &KdTree<D>, s: f64, walk: &mut impl Walk<D>) {
        match *self {
            Task::Within(u) => split_node(tree, u, s, walk),
            Task::Across(a, b) => find_pairs(tree, a, b, s, 0, walk),
        }
    }
}

/// The top of the `s`-WSPD recursion: the subproblems under
/// [`SEQ_CUTOFF`] points (and the pairs already well separated above it),
/// in recursion order. The tree must have leaf size 1 (asserted).
pub(crate) fn plan<const D: usize>(tree: &KdTree<D>, s: f64) -> Vec<Task> {
    assert!(s > 0.0, "separation must be positive");
    assert!(tree.leaf_size() == 1, "WSPD requires a leaf-size-1 kd-tree");
    let mut tasks = Vec::new();
    if let Some(root) = tree.root_id() {
        plan_node(tree, root, s, &mut tasks);
    }
    tasks
}

fn plan_node<const D: usize>(tree: &KdTree<D>, u: NodeId, s: f64, tasks: &mut Vec<Task>) {
    let Some((l, r)) = tree.node_children(u) else {
        return; // single leaf: no pairs within
    };
    if tree.node_size(u) < SEQ_CUTOFF {
        tasks.push(Task::Within(u));
        return;
    }
    plan_node(tree, l, s, tasks);
    plan_node(tree, r, s, tasks);
    find_pairs(
        tree,
        l,
        r,
        s,
        SEQ_CUTOFF,
        &mut |a, b, _: &Bbox<D>, _: &Bbox<D>| tasks.push(Task::Across(a, b)),
    );
}

/// Recurse within one node: pairs among the left child, among the right
/// child, and across.
fn split_node<const D: usize>(tree: &KdTree<D>, u: NodeId, s: f64, walk: &mut impl Walk<D>) {
    let Some((l, r)) = tree.node_children(u) else {
        return;
    };
    if !walk.within(u) {
        return;
    }
    split_node(tree, l, s, walk);
    split_node(tree, r, s, walk);
    find_pairs(tree, l, r, s, 0, walk);
}

/// Walks the pairs covering `A × B` (disjoint nodes) and hands `walk`
/// every one that is well separated — or, without looking further, has
/// fewer than `stop` points on its larger side.
fn find_pairs<const D: usize>(
    tree: &KdTree<D>,
    a: NodeId,
    b: NodeId,
    s: f64,
    stop: usize,
    walk: &mut impl Walk<D>,
) {
    let ba = tree.node_bbox(a);
    let bb = tree.node_bbox(b);
    if !walk.across(a, b, &ba, &bb) {
        return;
    }
    if tree.node_size(a).max(tree.node_size(b)) < stop || ba.well_separated(&bb, s) {
        walk.pair(a, b, &ba, &bb);
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
            walk.pair(a, b, &ba, &bb);
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
        find_pairs(tree, l, b, s, stop, walk);
        find_pairs(tree, r, b, s, stop, walk);
    } else {
        find_pairs(tree, a, l, s, stop, walk);
        find_pairs(tree, a, r, s, stop, walk);
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

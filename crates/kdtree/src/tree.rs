//! The static kd-tree with parallel construction.
//!
//! The tree is a flat node arena (children by `u32` index); points live in
//! a columnar [`SoaPoints`] permutation of the input so that every leaf
//! owns a range `start..end` whose axis scans are dense sequential reads.
//! Construction is a per-*level* frontier sweep: each round splits every
//! frontier node in parallel over an AoS work buffer (parallel selection
//! for object-median, parallel partition for spatial-median — the "split
//! in parallel" optimization of §2 of the paper), then bulk-appends the
//! next level's nodes to the arena in one go. Nothing allocates per node:
//! the arena grows by whole levels and the work buffer is scattered into
//! columns once, at the end.

use pargeo_geometry::{Bbox, Point, SoaPoints};
use pargeo_parlay as parlay;

/// How internal nodes choose their splitting hyperplane (paper §5/§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitRule {
    /// Median *point* along the widest dimension (balanced; costlier split).
    ObjectMedian,
    /// Midpoint of the bounding box along the widest dimension (cheap split;
    /// possibly unbalanced).
    SpatialMedian,
}

/// Points per leaf of a default build ([`KdTree::build`], and the vEB, BDL
/// and Zd trees' defaults); [`KdTree::build_with_leaf_size`] takes another.
/// The leaf size never affects *answers* — only tree shape and build/query
/// constants.
pub const LEAF_SIZE: usize = 16;

/// The one sequential cutoff of both tree builds and of the vEB tree's
/// bulk erase: a node with fewer points (an erase with fewer queries) runs
/// its bbox and partition serially and does not fork its children (the
/// median selection has its own, far higher cutoff inside
/// `parlay::select_nth_unstable_by`). Measured on a 394k-point 2-D build:
/// 44–50 ms on one worker and 25–27 on two at every value from 1 024 to
/// 16 384 — inside this box's noise — so the value is set by what a fork
/// must carry: a 4 096-point subtree is ~0.3 ms of work, some three
/// thousand forks' worth, and a 394k build still has 96 of them to hand
/// out.
pub const SEQ_BUILD_CUTOFF: usize = 4096;

#[derive(Debug, Clone)]
pub(crate) struct Node<const D: usize> {
    /// Bounding box of all points below this node.
    pub bbox: Bbox<D>,
    /// Splitting dimension (unused for leaves).
    pub dim: u8,
    /// Splitting coordinate (unused for leaves).
    pub val: f64,
    /// Index of the left child, `u32::MAX` for leaves.
    pub left: u32,
    /// Index of the right child, `u32::MAX` for leaves.
    pub right: u32,
    /// Start of this node's range in the reordered point array.
    pub start: u32,
    /// End (exclusive) of this node's range.
    pub end: u32,
}

impl<const D: usize> Node<D> {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// A static kd-tree over `D`-dimensional points.
#[derive(Debug, Clone)]
pub struct KdTree<const D: usize> {
    pub(crate) pts: SoaPoints<D>,
    pub(crate) nodes: Vec<Node<D>>,
    leaf_size: usize,
}

/// Raw-pointer window for the per-level parallel phases: frontier nodes
/// own pairwise-disjoint item ranges and distinct arena slots, so handing
/// each task mutable access to its own range/slot is sound.
struct SharedMut<T>(*mut T);
unsafe impl<T: Send> Send for SharedMut<T> {}
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Safety: callers must hand out non-overlapping ranges.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, start: usize, end: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), end - start)
    }

    /// Safety: callers must not alias `i` across tasks.
    #[allow(clippy::mut_from_ref)]
    unsafe fn at(&self, i: usize) -> &mut T {
        &mut *self.0.add(i)
    }
}

impl<const D: usize> KdTree<D> {
    /// Builds a kd-tree over `points` with [`LEAF_SIZE`] points per leaf.
    pub fn build(points: &[Point<D>], rule: SplitRule) -> Self {
        Self::build_with_leaf_size(points, rule, LEAF_SIZE)
    }

    /// Builds a kd-tree with an explicit leaf size (at least 1).
    ///
    /// The build proceeds level by level: every frontier node computes its
    /// bbox and split over its disjoint slice of the AoS work buffer (in
    /// parallel across nodes, and within a node above
    /// [`SEQ_BUILD_CUTOFF`]), then the next level's nodes are appended to
    /// the arena in bulk. The work buffer is scattered into the columnar
    /// store once at the end.
    pub fn build_with_leaf_size(points: &[Point<D>], rule: SplitRule, leaf_size: usize) -> Self {
        let leaf_size = leaf_size.max(1);
        let cutoff = SEQ_BUILD_CUTOFF;
        let n = points.len();
        let mut items: Vec<(Point<D>, u32)> =
            parlay::tabulate(n, cutoff, |i| (points[i], i as u32));
        let mut tree = KdTree {
            pts: SoaPoints::new(),
            nodes: Vec::new(),
            leaf_size,
        };
        if n == 0 {
            return tree;
        }
        tree.nodes.reserve(4 * n / leaf_size.max(1) + 2);
        tree.nodes.push(Node {
            bbox: Bbox::empty(),
            dim: 0,
            val: 0.0,
            left: u32::MAX,
            right: u32::MAX,
            start: 0,
            end: n as u32,
        });
        let mut frontier: Vec<u32> = vec![0];
        while !frontier.is_empty() {
            // Phase 1 — parallel over the frontier: each node fills its
            // bbox and, if it splits, partitions its item range in place
            // and records the split point. Ranges are disjoint by
            // construction, arena slots distinct.
            let items_ptr = SharedMut(items.as_mut_ptr());
            let nodes_ptr = SharedMut(tree.nodes.as_mut_ptr());
            let split_one = |&ni: &u32| -> Option<u32> {
                let node = unsafe { nodes_ptr.at(ni as usize) };
                let seg = unsafe { items_ptr.slice(node.start as usize, node.end as usize) };
                node.bbox = compute_bbox(seg, cutoff);
                if seg.len() <= leaf_size || node.bbox.diag_sq() == 0.0 {
                    // All-identical point sets cannot be split spatially;
                    // stop.
                    return None;
                }
                let (dim, val, mid) = split_segment(seg, &node.bbox, rule, cutoff);
                node.dim = dim as u8;
                node.val = val;
                Some(mid as u32)
            };
            // A level's nodes share its `n` points about evenly: one task
            // per run of nodes holding some `cutoff` points between them.
            let nodes_per_task = (cutoff * frontier.len()).div_ceil(n);
            let mids: Vec<Option<u32>> = parlay::map(&frontier, nodes_per_task, split_one);
            // Phase 2 — serial bulk append: two arena slots per split
            // node, wired up and pushed onto the next frontier.
            let mut next = Vec::with_capacity(2 * frontier.len());
            for (&ni, &mid) in frontier.iter().zip(&mids) {
                let Some(mid) = mid else { continue };
                let base = tree.nodes.len() as u32;
                let (start, end) = {
                    let node = &mut tree.nodes[ni as usize];
                    node.left = base;
                    node.right = base + 1;
                    (node.start, node.end)
                };
                for (s, e) in [(start, start + mid), (start + mid, end)] {
                    tree.nodes.push(Node {
                        bbox: Bbox::empty(),
                        dim: 0,
                        val: 0.0,
                        left: u32::MAX,
                        right: u32::MAX,
                        start: s,
                        end: e,
                    });
                }
                next.push(base);
                next.push(base + 1);
            }
            frontier = next;
        }
        tree.pts = scatter_soa(&items, cutoff);
        tree
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// True iff the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Bounding box of the whole point set.
    pub fn bbox(&self) -> Bbox<D> {
        if self.nodes.is_empty() {
            Bbox::empty()
        } else {
            self.nodes[0].bbox
        }
    }

    /// Leaf size this tree was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// The reordered points, in columnar layout (leaf ranges index into
    /// this).
    pub fn points(&self) -> &SoaPoints<D> {
        &self.pts
    }

    /// Reordered point `i`, materialized (the API-boundary conversion).
    pub fn point_at(&self, i: usize) -> Point<D> {
        self.pts.get(i)
    }

    /// Original input index of reordered point `i`.
    pub fn original_id(&self, i: usize) -> u32 {
        self.pts.id(i)
    }

    /// Heap bytes held by the node arena and the point columns.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<D>>() + self.pts.bytes()
    }

    // --- internal accessors used by the sibling modules and by WSPD ---

    pub(crate) fn root(&self) -> Option<&Node<D>> {
        self.nodes.first()
    }

    pub(crate) fn node(&self, i: u32) -> &Node<D> {
        &self.nodes[i as usize]
    }

    /// Number of tree nodes (for tests and diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (for tests and diagnostics).
    pub fn depth(&self) -> usize {
        fn go<const D: usize>(t: &KdTree<D>, i: u32) -> usize {
            let n = t.node(i);
            if n.is_leaf() {
                1
            } else {
                1 + go(t, n.left).max(go(t, n.right))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            go(self, 0)
        }
    }
}

/// Opaque node handle for traversals that need direct structural access
/// (WSPD, dual-tree algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(pub(crate) u32);

impl<const D: usize> KdTree<D> {
    /// Root handle, if the tree is non-empty.
    pub fn root_id(&self) -> Option<NodeId> {
        if self.nodes.is_empty() {
            None
        } else {
            Some(NodeId(0))
        }
    }

    /// Bounding box of a node.
    pub fn node_bbox(&self, id: NodeId) -> Bbox<D> {
        self.node(id.0).bbox
    }

    /// Children of an internal node; `None` for leaves.
    pub fn node_children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        let n = self.node(id.0);
        if n.is_leaf() {
            None
        } else {
            Some((NodeId(n.left), NodeId(n.right)))
        }
    }

    /// Number of points under a node.
    pub fn node_size(&self, id: NodeId) -> usize {
        let n = self.node(id.0);
        (n.end - n.start) as usize
    }

    /// The reordered point range owned by a node — index it through
    /// [`KdTree::point_at`] / [`KdTree::original_id`] (or the columns of
    /// [`KdTree::points`]).
    pub fn node_range(&self, id: NodeId) -> std::ops::Range<usize> {
        let n = self.node(id.0);
        n.start as usize..n.end as usize
    }

    /// Original ids of the points owned by a node.
    pub fn node_point_ids(&self, id: NodeId) -> &[u32] {
        let n = self.node(id.0);
        &self.pts.ids()[n.start as usize..n.end as usize]
    }
}

/// One node's split decision: `(dim, val, mid)` with the segment
/// partitioned in place around `mid`. Depends only on the segment's
/// multiset and bbox — never on thread count — so tree shape is
/// reproducible.
fn split_segment<const D: usize>(
    seg: &mut [(Point<D>, u32)],
    bbox: &Bbox<D>,
    rule: SplitRule,
    cutoff: usize,
) -> (usize, f64, usize) {
    let n = seg.len();
    let dim = bbox.widest_dim();
    let mid = match rule {
        SplitRule::ObjectMedian => {
            let mid = n / 2;
            parlay::select_nth_unstable_by(seg, mid, |a, b| {
                a.0[dim].partial_cmp(&b.0[dim]).unwrap()
            });
            mid
        }
        SplitRule::SpatialMedian => {
            let splitval = 0.5 * (bbox.min[dim] + bbox.max[dim]);
            let mid = partition_by(seg, cutoff, |p| p[dim] < splitval);
            if mid == 0 || mid == n {
                // Degenerate spatial split (points concentrated at the
                // boundary) — fall back to the object median.
                let mid = n / 2;
                seg.select_nth_unstable_by(mid, |a, b| a.0[dim].partial_cmp(&b.0[dim]).unwrap());
                mid
            } else {
                mid
            }
        }
    };
    let val = match rule {
        SplitRule::ObjectMedian => seg[mid].0[dim],
        SplitRule::SpatialMedian => 0.5 * (bbox.min[dim] + bbox.max[dim]),
    };
    (dim, val, mid)
}

/// Bounding box of a run of work-buffer items, `cutoff` items to a task.
pub(crate) fn compute_bbox<const D: usize>(items: &[(Point<D>, u32)], cutoff: usize) -> Bbox<D> {
    parlay::reduce(
        items.len(),
        cutoff,
        |r| {
            // Four boxes taking rows in turn: one running min/max is a
            // dependency chain a row long, and the scan waits on it.
            let mut lanes = [Bbox::empty(); 4];
            let mut fours = items[r].chunks_exact(4);
            for four in &mut fours {
                for (b, (p, _)) in lanes.iter_mut().zip(four) {
                    b.extend(p);
                }
            }
            for (p, _) in fours.remainder() {
                lanes[0].extend(p);
            }
            let [a, b, c, d] = lanes;
            a.union(&b).union(&c.union(&d))
        },
        |a, b| a.union(&b),
    )
}

/// Unstable in-place partition; returns the number of elements satisfying
/// `pred`. Parallel for large slices (out-of-place pack + copy back).
fn partition_by<const D: usize>(
    items: &mut [(Point<D>, u32)],
    cutoff: usize,
    pred: impl Fn(&Point<D>) -> bool + Sync,
) -> usize {
    let n = items.len();
    if n < cutoff {
        let mut i = 0usize;
        let mut j = n;
        while i < j {
            if pred(&items[i].0) {
                i += 1;
            } else {
                j -= 1;
                items.swap(i, j);
            }
        }
        return i;
    }
    let (yes, no) = parlay::split_two(items, |(p, _)| pred(p));
    let mid = yes.len();
    items[..mid].copy_from_slice(&yes);
    items[mid..].copy_from_slice(&no);
    mid
}

/// Scatters the AoS work buffer into columns, in parallel chunks of
/// `cutoff` rows.
pub(crate) fn scatter_soa<const D: usize>(
    items: &[(Point<D>, u32)],
    cutoff: usize,
) -> SoaPoints<D> {
    let n = items.len();
    let cutoff = cutoff.max(1);
    let mut pts = SoaPoints::with_len(n);
    let cols: Vec<SharedMut<f64>> = (0..D)
        .map(|d| SharedMut(pts.axis_mut(d).as_mut_ptr()))
        .collect();
    let ids = SharedMut(pts.ids_mut().as_mut_ptr());
    parlay::parallel_for(n.div_ceil(cutoff), 1, |c| {
        let lo = c * cutoff;
        let hi = ((c + 1) * cutoff).min(n);
        for d in 0..D {
            let col = unsafe { cols[d].slice(lo, hi) };
            for (x, (p, _)) in col.iter_mut().zip(&items[lo..hi]) {
                *x = p.coords[d];
            }
        }
        let out = unsafe { ids.slice(lo, hi) };
        for (slot, (_, id)) in out.iter_mut().zip(&items[lo..hi]) {
            *slot = *id;
        }
    });
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    fn check_structure<const D: usize>(t: &KdTree<D>) {
        // Every point is inside its leaf bbox; leaf ranges tile 0..n.
        let mut covered = vec![false; t.len()];
        fn go<const D: usize>(t: &KdTree<D>, i: u32, covered: &mut [bool]) {
            let n = t.node(i);
            for j in n.start..n.end {
                assert!(n.bbox.contains(&t.pts.get(j as usize)));
            }
            if n.is_leaf() {
                for j in n.start..n.end {
                    assert!(!covered[j as usize]);
                    covered[j as usize] = true;
                }
            } else {
                let l = t.node(n.left);
                let r = t.node(n.right);
                assert_eq!(l.start, n.start);
                assert_eq!(r.end, n.end);
                assert_eq!(l.end, r.start);
                go(t, n.left, covered);
                go(t, n.right, covered);
            }
        }
        if let Some(root) = t.root_id() {
            go(t, root.0, &mut covered);
        }
        assert!(covered.iter().all(|&c| c));
        // ids are a permutation.
        let mut ids: Vec<u32> = t.pts.ids().to_vec();
        ids.sort();
        assert_eq!(ids, (0..t.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn build_object_median_structure() {
        let pts = uniform_cube::<3>(5_000, 1);
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        assert_eq!(t.len(), 5_000);
        check_structure(&t);
        // Object-median trees over distinct points are balanced.
        assert!(t.depth() <= 2 + (5_000f64 / 16.0).log2().ceil() as usize + 2);
        assert!(t.arena_bytes() >= 5_000 * (3 * 8 + 4));
    }

    #[test]
    fn build_spatial_median_structure() {
        let pts = uniform_cube::<2>(5_000, 2);
        let t = KdTree::build(&pts, SplitRule::SpatialMedian);
        check_structure(&t);
    }

    #[test]
    fn build_handles_duplicates() {
        let mut pts = uniform_cube::<2>(100, 3);
        let dup = pts[0];
        pts.extend(std::iter::repeat_n(dup, 500));
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        check_structure(&t);
        let t2 = KdTree::build(&pts, SplitRule::SpatialMedian);
        check_structure(&t2);
    }

    #[test]
    fn build_all_identical_points() {
        let pts = vec![pargeo_geometry::Point2::new([1.0, 1.0]); 1000];
        let t = KdTree::build(&pts, SplitRule::ObjectMedian);
        assert_eq!(t.node_count(), 1); // single leaf, no infinite recursion
        check_structure(&t);
    }

    #[test]
    fn build_empty_and_singleton() {
        let t = KdTree::<2>::build(&[], SplitRule::ObjectMedian);
        assert!(t.is_empty());
        assert!(t.root_id().is_none());
        let t1 = KdTree::build(
            &[pargeo_geometry::Point2::new([3.0, 4.0])],
            SplitRule::ObjectMedian,
        );
        assert_eq!(t1.len(), 1);
        check_structure(&t1);
    }

    #[test]
    fn parallel_build_matches_sequential_build_shape() {
        let pts = uniform_cube::<3>(20_000, 5);
        let a = pargeo_parlay::with_threads(1, || KdTree::build(&pts, SplitRule::ObjectMedian));
        let b = pargeo_parlay::with_threads(4, || KdTree::build(&pts, SplitRule::ObjectMedian));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.depth(), b.depth());
        check_structure(&a);
        check_structure(&b);
    }

    #[test]
    fn large_leaf_size() {
        let pts = uniform_cube::<2>(1_000, 7);
        let t = KdTree::build_with_leaf_size(&pts, SplitRule::ObjectMedian, 1_000);
        assert_eq!(t.node_count(), 1);
        let t2 = KdTree::build_with_leaf_size(&pts, SplitRule::ObjectMedian, 1);
        check_structure(&t2);
    }

    #[test]
    fn build_params_answers_are_invariant() {
        // The leaf size shifts the leaf/split frontier but never the
        // answers.
        let pts = uniform_cube::<2>(6_000, 8);
        let base = KdTree::build(&pts, SplitRule::ObjectMedian);
        assert_eq!(base.leaf_size(), LEAF_SIZE);
        let queries: Vec<_> = pts.iter().copied().step_by(251).collect();
        for leaf_size in [1, 7, 64] {
            let t = KdTree::build_with_leaf_size(&pts, SplitRule::ObjectMedian, leaf_size);
            check_structure(&t);
            assert_eq!(t.leaf_size(), leaf_size);
            for q in &queries {
                assert_eq!(t.knn(q, 4), base.knn(q, 4));
            }
            let b = Bbox {
                min: pts[0].min(&pts[1]),
                max: pts[0].max(&pts[1]),
            };
            assert_eq!(t.range_box(&b), base.range_box(&b));
        }
    }
}

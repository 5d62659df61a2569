//! The static kd-tree with parallel construction — the one tree of the
//! crate: [`crate::LevelTree`] is this tree with a deletion overlay on
//! top, and [`crate::zdtree::ZdTree`] is this tree built over Morton-sorted
//! rows.
//!
//! The tree is a flat node arena (children by `u32` index); points live in
//! a columnar [`SoaPoints`] permutation of the input so that every node
//! owns a range `start..end` whose axis scans are dense sequential reads.
//! Construction is one depth-first recursion over an AoS work buffer: a
//! node takes its bounding box, splits its segment in place (parallel
//! selection for object-median, parallel partition for spatial-median —
//! the "split in parallel" optimization of §2 of the paper), appends
//! itself to the arena and descends, so a subtree is finished while its
//! rows are still in cache. Nothing allocates per node: a task appends to
//! one vector in preorder (`Runs`), a subtree forked off above
//! [`SEQ_BUILD_CUTOFF`] starts a vector of its own, the vectors are laid
//! end to end once, and the work buffer is scattered into columns once.
//!
//! Traversals run on a borrowed `Walk`, generic over `Liveness`: the
//! static tree passes `AllLive`, for which every liveness test folds
//! away, and a BDL level passes its overlay.

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

/// Points per leaf of a default build ([`KdTree::build`], and the level,
/// BDL and Zd trees' defaults); [`KdTree::build_with_leaf_size`] takes another.
/// The leaf size never affects *answers* — only tree shape and build/query
/// constants.
pub const LEAF_SIZE: usize = 16;

/// The one sequential cutoff of the tree builds and of a BDL level's bulk
/// erase: a node with fewer points (an erase with fewer queries) runs
/// its bbox and partition serially and does not fork its children (the
/// median selection has its own, far higher cutoff inside
/// `parlay::select_nth_unstable_by`). Measured on a 394k-point 2-D build:
/// 44–50 ms on one worker and 25–27 on two at every value from 1 024 to
/// 16 384 — inside this box's noise — so the value is set by what a fork
/// must carry: a 4 096-point subtree is ~0.3 ms of work, some three
/// thousand forks' worth, and a 394k build still has 96 of them to hand
/// out.
pub const SEQ_BUILD_CUTOFF: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Node<const D: usize> {
    /// Bounding box of all points below this node.
    pub bbox: Bbox<D>,
    /// Splitting dimension (unused for leaves).
    pub dim: u8,
    /// Splitting coordinate (unused for leaves): rows `<=` it went left,
    /// rows `>=` it right.
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

    /// This node's range in the reordered point array.
    #[inline]
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Makes this leaf of a run the parent of the two subtrees that follow
    /// it in preorder, the left one `left_nodes` long, split at `val` on
    /// `dim`.
    pub fn link(&mut self, dim: usize, val: f64, left_nodes: u32) {
        (self.dim, self.val) = (dim as u8, val);
        (self.left, self.right) = (1, 1 + left_nodes);
    }
}

/// A static kd-tree over `D`-dimensional points.
#[derive(Debug, Clone)]
pub struct KdTree<const D: usize> {
    pub(crate) pts: SoaPoints<D>,
    /// In preorder as built: root first (when there is one), every left
    /// subtree right after its parent, the right one after it.
    pub(crate) nodes: Vec<Node<D>>,
    leaf_size: usize,
}

impl<const D: usize> KdTree<D> {
    /// Builds a kd-tree over `points` with [`LEAF_SIZE`] points per leaf.
    pub fn build(points: &[Point<D>], rule: SplitRule) -> Self {
        Self::build_with_leaf_size(points, rule, LEAF_SIZE)
    }

    /// Builds a kd-tree with an explicit leaf size (at least 1); point `i`
    /// of the input keeps `i` as its id.
    pub fn build_with_leaf_size(points: &[Point<D>], rule: SplitRule, leaf_size: usize) -> Self {
        let rows = parlay::tabulate(points.len(), SEQ_BUILD_CUTOFF, |i| (points[i], i as u32));
        Self::from_rows(rows, rule, leaf_size.max(1))
    }

    /// The tree over `(point, id)` rows, partitioned in the buffer they
    /// arrive in, nodes in preorder.
    pub(crate) fn from_rows(
        mut rows: Vec<(Point<D>, u32)>,
        rule: SplitRule,
        leaf_size: usize,
    ) -> Self {
        let mut runs = Vec::new();
        if !rows.is_empty() {
            build_rec(&mut rows, 0, rule, leaf_size, &mut runs);
        }
        // The rows go before the node array comes: it fits where they were.
        let pts = scatter_soa(&rows, |(p, id)| (p, *id));
        drop(rows);
        Self::from_runs(pts, runs, leaf_size)
    }

    /// The tree over the columns `pts` whose nodes a build left in `runs`:
    /// the runs laid end to end, every link turned from an offset from its
    /// own node into an index.
    pub(crate) fn from_runs(pts: SoaPoints<D>, runs: Runs<D>, leaf_size: usize) -> Self {
        let mut nodes = runs.concat();
        for (i, node) in nodes.iter_mut().enumerate() {
            if !node.is_leaf() {
                node.left += i as u32;
                node.right += i as u32;
            }
        }
        KdTree {
            pts,
            nodes,
            leaf_size,
        }
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
        self.nodes.first().map_or(Bbox::empty(), |root| root.bbox)
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

    pub(crate) fn node(&self, i: u32) -> &Node<D> {
        &self.nodes[i as usize]
    }

    /// The tree's slabs borrowed for one traversal under `live`.
    pub(crate) fn walk<L: Liveness>(&self, live: L) -> Walk<'_, D, L> {
        Walk {
            nodes: &self.nodes,
            pts: &self.pts,
            live,
        }
    }

    /// Number of tree nodes (for tests and diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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
        self.node(id.0).rows().len()
    }

    /// The reordered point range owned by a node — index it through
    /// [`KdTree::point_at`] / [`KdTree::original_id`] (or the columns of
    /// [`KdTree::points`]).
    pub fn node_range(&self, id: NodeId) -> std::ops::Range<usize> {
        self.node(id.0).rows()
    }

    /// Original ids of the points owned by a node.
    pub fn node_point_ids(&self, id: NodeId) -> &[u32] {
        &self.pts.ids()[self.node(id.0).rows()]
    }
}

/// What a traversal may assume about deleted rows.
pub(crate) trait Liveness: Copy {
    /// No row is ever dead, so a subtree that lies inside a query is
    /// reported as one slice of ids and counted by its length.
    const NEVER_DEAD: bool;

    /// Whether reordered row `row` still holds a point.
    fn alive(self, row: usize) -> bool;

    /// From slot `c` (which holds a live point), the slot a tree with its
    /// dead subtrees spliced out would point to.
    fn live_child<const D: usize>(self, nodes: &[Node<D>], c: u32) -> u32;
}

/// The liveness of a tree nothing is deleted from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllLive;

impl Liveness for AllLive {
    const NEVER_DEAD: bool = true;

    #[inline]
    fn alive(self, _row: usize) -> bool {
        true
    }

    #[inline]
    fn live_child<const D: usize>(self, _nodes: &[Node<D>], c: u32) -> u32 {
        c
    }
}

/// One tree's slabs borrowed for a traversal — the only k-NN, range and
/// count descents of the crate are its methods (in [`crate::knn`] and
/// [`crate::range`]). Every method takes the slot of a node that holds a
/// live point.
pub(crate) struct Walk<'a, const D: usize, L> {
    pub nodes: &'a [Node<D>],
    pub pts: &'a SoaPoints<D>,
    pub live: L,
}

impl<const D: usize, L: Liveness> Walk<'_, D, L> {
    /// The two children of internal node `node`, dead subtrees stepped
    /// over.
    #[inline]
    pub fn children(&self, node: &Node<D>) -> (u32, u32) {
        (
            self.live.live_child(self.nodes, node.left),
            self.live.live_child(self.nodes, node.right),
        )
    }
}

/// Runs `a` then `b` on `acc`; when `fork` is set, `b` instead runs beside
/// `a` on an accumulator of its own, which `join` then folds into `acc`.
/// Whether to fork must not depend on the pool, so that `acc` ends up the
/// same on any number of workers.
pub(crate) fn fork_onto<T: Default + Send, A: Send, B: Send>(
    fork: bool,
    acc: &mut T,
    a: impl FnOnce(&mut T) -> A + Send,
    b: impl FnOnce(&mut T) -> B + Send,
    join: impl FnOnce(&mut T, T),
) -> (A, B) {
    if !fork {
        return (a(acc), b(acc));
    }
    let mut apart = T::default();
    let out = parlay::par_do(|| a(acc), || b(&mut apart));
    join(acc, apart);
    out
}

/// The node array of a build in pieces: each run is the stretch of
/// preorder one task wrote, a subtree forked off above
/// [`SEQ_BUILD_CUTOFF`] starts a run of its own, and where subtrees join so
/// do their lists — no node moves until [`KdTree::from_runs`] puts the
/// whole array together. Links are left as offsets from their own node,
/// which mean the same wherever its run ends up.
pub(crate) type Runs<const D: usize> = Vec<Vec<Node<D>>>;

/// Appends a leaf over rows `start..start + n` to this task's run —
/// starting the run if the task has none — and returns where it went.
pub(crate) fn push_node<const D: usize>(
    runs: &mut Runs<D>,
    bbox: Bbox<D>,
    start: u32,
    n: usize,
    leaf_size: usize,
) -> (usize, usize) {
    if runs.is_empty() {
        // This task's own run: a few forking nodes, then the one subtree
        // under the cutoff that its leftmost path reaches — sized for what
        // an object-median tree over distinct points comes to.
        let rows = n.min(SEQ_BUILD_CUTOFF);
        runs.push(Vec::with_capacity(
            2 * rows.div_ceil(leaf_size).next_power_of_two(),
        ));
    }
    let run = runs.len() - 1;
    runs[run].push(Node {
        bbox,
        dim: 0,
        val: 0.0,
        left: u32::MAX,
        right: u32::MAX,
        start,
        end: start + n as u32,
    });
    (run, runs[run].len() - 1)
}

/// Appends the subtree over `seg` — rows `start..` of the work buffer — to
/// `runs` in preorder and returns how many nodes that is.
fn build_rec<const D: usize>(
    seg: &mut [(Point<D>, u32)],
    start: u32,
    rule: SplitRule,
    leaf_size: usize,
    runs: &mut Runs<D>,
) -> u32 {
    let n = seg.len();
    let bbox = compute_bbox(seg);
    let (run, me) = push_node(runs, bbox, start, n, leaf_size);
    // All-identical point sets cannot be split spatially; stop.
    if n <= leaf_size || bbox.diag_sq() == 0.0 {
        return 1;
    }
    let (dim, val, mid) = split_segment(seg, &bbox, rule);
    let (lo, hi) = seg.split_at_mut(mid);
    let (l, r) = fork_onto(
        n >= SEQ_BUILD_CUTOFF,
        runs,
        |runs| build_rec(lo, start, rule, leaf_size, runs),
        |runs| build_rec(hi, start + mid as u32, rule, leaf_size, runs),
        Vec::extend,
    );
    runs[run][me].link(dim, val, l);
    1 + l + r
}

/// One node's split decision: `(dim, val, mid)` with the segment
/// partitioned in place around `mid`, rows `<= val` before it and rows
/// `>= val` from it on. Depends only on the segment's rows, their order
/// and the bbox — never on thread count — so tree shape is reproducible.
fn split_segment<const D: usize>(
    seg: &mut [(Point<D>, u32)],
    bbox: &Bbox<D>,
    rule: SplitRule,
) -> (usize, f64, usize) {
    let n = seg.len();
    let dim = bbox.widest_dim();
    if rule == SplitRule::SpatialMedian {
        let val = 0.5 * (bbox.min[dim] + bbox.max[dim]);
        let mid = partition_by(seg, |p| p[dim] < val);
        if mid != 0 && mid != n {
            return (dim, val, mid);
        }
        // Degenerate spatial split (the box's midpoint rounds onto its
        // edge) — fall back to the object median.
    }
    let mid = n / 2;
    parlay::select_nth_unstable_by(seg, mid, |a, b| {
        a.0[dim].partial_cmp(&b.0[dim]).expect("NaN coordinate")
    });
    (dim, seg[mid].0[dim], mid)
}

/// Bounding box of a run of work-buffer items, [`SEQ_BUILD_CUTOFF`] items
/// to a task.
pub(crate) fn compute_bbox<const D: usize>(items: &[(Point<D>, u32)]) -> Bbox<D> {
    parlay::reduce(
        items.len(),
        SEQ_BUILD_CUTOFF,
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
/// `pred`. Parallel from [`SEQ_BUILD_CUTOFF`] rows up (out-of-place pack +
/// copy back).
pub(crate) fn partition_by<const D: usize>(
    items: &mut [(Point<D>, u32)],
    pred: impl Fn(&Point<D>) -> bool + Sync,
) -> usize {
    let n = items.len();
    if n < SEQ_BUILD_CUTOFF {
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

/// Scatters AoS rows, each read as `(point, id)` through `row`, into
/// columns: every column is cut into windows of [`SEQ_BUILD_CUTOFF`] rows,
/// and one task fills the windows of one chunk of rows, all columns in one
/// pass over the chunk.
pub(crate) fn scatter_soa<T: Sync, const D: usize>(
    rows: &[T],
    row: impl Fn(&T) -> (&Point<D>, u32) + Sync,
) -> SoaPoints<D> {
    let mut pts = SoaPoints::with_len(rows.len());
    let (cols, ids) = pts.columns_mut();
    let mut cols = cols.map(|col| col.chunks_mut(SEQ_BUILD_CUTOFF));
    let mut chunks: Vec<_> = ids
        .chunks_mut(SEQ_BUILD_CUTOFF)
        .map(|ids| (cols.each_mut().map(|col| col.next().unwrap()), ids))
        .collect();
    parlay::for_each_mut(&mut chunks, 1, |c, (cols, ids)| {
        let chunk = &rows[c * SEQ_BUILD_CUTOFF..][..ids.len()];
        for (d, col) in cols.iter_mut().enumerate() {
            for (x, r) in col.iter_mut().zip(chunk) {
                *x = row(r).0.coords[d];
            }
        }
        for (slot, r) in ids.iter_mut().zip(chunk) {
            *slot = row(r).1;
        }
    });
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    /// Levels of the tree (0 when it is empty).
    fn depth<const D: usize>(t: &KdTree<D>) -> usize {
        fn go<const D: usize>(t: &KdTree<D>, i: u32) -> usize {
            let n = t.node(i);
            if n.is_leaf() {
                1
            } else {
                1 + go(t, n.left).max(go(t, n.right))
            }
        }
        t.root_id().map_or(0, |root| go(t, root.0))
    }

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
        assert!(depth(&t) <= 2 + (5_000f64 / 16.0).log2().ceil() as usize + 2);
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
        assert_eq!(depth(&a), depth(&b));
        check_structure(&a);
        check_structure(&b);
    }

    /// Forks are decided by row counts alone and joined in order: the node
    /// array and the point columns are the same bytes on any pool, forked
    /// subtrees, parallel partitions and duplicate-heavy splits included —
    /// for both builds, the kd-tree's and the Zd-tree's radix build.
    #[test]
    fn a_build_is_the_same_arrays_on_any_pool() {
        let n = 5 * SEQ_BUILD_CUTOFF + 123;
        let mut pts = uniform_cube::<2>(n, 11);
        for (i, p) in pts.iter_mut().enumerate().skip(n / 2) {
            *p = pargeo_geometry::Point2::new([(i % 13) as f64, (i % 7) as f64]);
        }
        for rule in [SplitRule::ObjectMedian, SplitRule::SpatialMedian] {
            for leaf_size in [1, LEAF_SIZE] {
                let [one, two, four] = [1, 2, 4].map(|workers| {
                    pargeo_parlay::with_threads(workers, || {
                        KdTree::build_with_leaf_size(&pts, rule, leaf_size)
                    })
                });
                check_structure(&one);
                for other in [two, four] {
                    assert_eq!(other.nodes, one.nodes, "{rule:?}, leaf {leaf_size}");
                    assert_eq!(other.pts, one.pts, "{rule:?}, leaf {leaf_size}");
                }
            }
        }
        let [one, two, four] = [1, 2, 4].map(|workers| {
            pargeo_parlay::with_threads(workers, || {
                let mut zd = crate::ZdTree::from_points(&pts[..n / 3]);
                zd.insert(&pts[n / 3..]);
                zd.delete(&pts[..n / 4]);
                zd.tree
            })
        });
        for other in [two, four] {
            assert_eq!(other.nodes, one.nodes, "Zd");
            assert_eq!(other.pts, one.pts, "Zd");
        }
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

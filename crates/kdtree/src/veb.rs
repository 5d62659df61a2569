//! The van Emde Boas layout static kd-tree (paper Appendix C.1).
//!
//! This is the building block of the BDL-tree: a balanced object-median
//! kd-tree whose nodes are stored in the recursive vEB order of Agarwal et
//! al. \[9\] (top half of the levels first, then the bottom subtrees
//! left-to-right, recursively), making root-to-leaf traversals
//! cache-oblivious. It supports
//!
//! * parallel construction (Algorithm 1),
//! * parallel bulk deletion with subtree collapse (Algorithm 2) — deleted
//!   points are tombstoned and fully dead subtrees are flagged so every
//!   traversal steps over them exactly as if they had been spliced out,
//! * k-NN search into a shared [`KnnBuffer`] (the hook the BDL-tree uses to
//!   combine answers across its log-structured set of trees).
//!
//! Construction builds the balanced tree with fork-join parallelism (the
//! `O(n log n)` part), then computes the vEB slot permutation in two linear
//! passes — same layout as the paper's one-pass Algorithm 1, expressed as
//! build-then-permute.
//!
//! Storage is **flat**: the partitioned points land in one tree-level
//! columnar [`SoaPoints`] arena and one liveness slab, and each leaf holds
//! only a `[start, end)` range into them — no per-leaf heap allocations,
//! so a 10M-point tree costs a handful of slabs instead of ~600k vectors.
//!
//! Storage is also **shared**: everything `build_with` produces (node
//! geometry, leaf ranges, coordinate and id columns) is never written
//! again and sits behind one `Arc`; the only state deletion changes — the
//! liveness slab and the dead-subtree flags, about 1.2 B/pt — sits behind
//! a second, copy-on-write `Arc`. `clone()` is two reference-count bumps,
//! and the first `erase` that actually removes a point from a shared tree
//! copies that small overlay, never a coordinate, id or bounding box.

use crate::knn::{KnnBuffer, KnnProbe};
use crate::tree::{compute_bbox, scatter_soa, SplitRule, SEQ_BUILD_CUTOFF};
use pargeo_geometry::{Bbox, Point, SoaPoints};
use pargeo_parlay as parlay;
use std::sync::Arc;

/// A leaf's range `[start, end)` into the tree-level point arena.
#[derive(Debug, Clone, Copy)]
struct VLeaf {
    start: u32,
    end: u32,
}

#[derive(Debug, Clone)]
struct VNode<const D: usize> {
    bbox: Bbox<D>,
    dim: u8,
    val: f64,
    /// Child slots; `u32::MAX` marks a leaf node.
    left: u32,
    right: u32,
    /// Leaf payload index (valid when `left == u32::MAX`).
    leaf: u32,
}

impl<const D: usize> VNode<D> {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// What construction produces and nothing ever writes again.
#[derive(Debug)]
struct VebCore<const D: usize> {
    nodes: Vec<VNode<D>>,
    leaves: Vec<VLeaf>,
    /// Columnar point arena in build-partition order; leaves hold ranges.
    pts: SoaPoints<D>,
}

/// The state deletion changes, copied on the first write while shared.
#[derive(Debug, Clone)]
struct Overlay {
    /// Liveness of arena slot `i` (false = tombstoned).
    alive: Vec<bool>,
    /// `dead[slot]` ⇔ no live point remains under node `slot`. Empty until
    /// the first subtree dies, so an undamaged tree's traversals pay one
    /// length test per child and no lookup.
    dead: Vec<bool>,
}

/// A static kd-tree in van Emde Boas layout with tombstone deletion.
///
/// `clone()` shares the structure and the deletion overlay (O(1)); the
/// clone and the original then diverge copy-on-write, see the module docs.
#[derive(Debug, Clone)]
pub struct VebTree<const D: usize> {
    core: Arc<VebCore<D>>,
    overlay: Arc<Overlay>,
    /// Topmost node with two live children, or the last live leaf
    /// (`u32::MAX` when the whole tree died).
    root: u32,
    live: usize,
    /// Overlay bytes copied by copy-on-write so far.
    cow_bytes: u64,
}

// ---------- construction ----------

/// Arena node used between the parallel build and the vEB permutation.
struct ArenaNode<const D: usize> {
    bbox: Bbox<D>,
    dim: u8,
    val: f64,
    left: usize,  // usize::MAX for leaf
    right: usize, // usize::MAX for leaf
    leaf: usize,
    height: usize,
}

impl<const D: usize> VebTree<D> {
    /// Builds a vEB tree over `(point, original id)` pairs
    /// (object-median splits, [`crate::tree::LEAF_SIZE`] points per leaf).
    pub fn build(items: &[(Point<D>, u32)]) -> Self {
        Self::build_with_leaf_size(items, crate::tree::LEAF_SIZE)
    }

    /// Builds with an explicit leaf size (object-median splits).
    pub fn build_with_leaf_size(items: &[(Point<D>, u32)], leaf_size: usize) -> Self {
        Self::build_with(items.to_vec(), leaf_size, SplitRule::ObjectMedian)
    }

    /// Builds with an explicit leaf size and split rule (the paper's
    /// object-median vs spatial-median comparison, §6.3). The rows are
    /// partitioned in the buffer they arrive in.
    pub fn build_with(mut work: Vec<(Point<D>, u32)>, leaf_size: usize, rule: SplitRule) -> Self {
        assert!(leaf_size >= 1);
        if work.is_empty() {
            return Self::from_parts(Vec::new(), Vec::new(), SoaPoints::new(), u32::MAX);
        }
        // Phase 1: parallel balanced build into a boxed tree. Leaves record
        // ranges into `work`, whose partition order is final once a segment
        // bottoms out.
        let boxed = build_boxed(&mut work, 0, leaf_size, rule);
        // Phase 2: flatten to a preorder arena.
        let mut arena: Vec<ArenaNode<D>> = Vec::new();
        let mut leaves: Vec<VLeaf> = Vec::new();
        let root_arena = flatten(boxed, &mut arena, &mut leaves);
        debug_assert_eq!(root_arena, 0);
        // Phase 3: compute the vEB slot of every arena node.
        let m = arena.len();
        let mut slot = vec![0usize; m];
        let mut assigner = VebAssign {
            arena: &arena,
            slot: &mut slot,
        };
        let h = arena[0].height;
        let assigned = assigner.assign(0, h, 0);
        debug_assert_eq!(assigned, m);
        // Phase 4: scatter into the final node array in slot order.
        let mut nodes: Vec<VNode<D>> = vec![
            VNode {
                bbox: Bbox::empty(),
                dim: 0,
                val: 0.0,
                left: u32::MAX,
                right: u32::MAX,
                leaf: u32::MAX,
            };
            m
        ];
        for (i, a) in arena.iter().enumerate() {
            nodes[slot[i]] = VNode {
                bbox: a.bbox,
                dim: a.dim,
                val: a.val,
                left: if a.left == usize::MAX {
                    u32::MAX
                } else {
                    slot[a.left] as u32
                },
                right: if a.right == usize::MAX {
                    u32::MAX
                } else {
                    slot[a.right] as u32
                },
                leaf: if a.leaf == usize::MAX {
                    u32::MAX
                } else {
                    a.leaf as u32
                },
            };
        }
        // Phase 5: columnar scatter of the partitioned points — one arena
        // for the whole tree, leaves address it by range.
        let pts = scatter_soa(&work, SEQ_BUILD_CUTOFF);
        Self::from_parts(nodes, leaves, pts, slot[0] as u32)
    }

    fn from_parts(nodes: Vec<VNode<D>>, leaves: Vec<VLeaf>, pts: SoaPoints<D>, root: u32) -> Self {
        let live = pts.len();
        VebTree {
            core: Arc::new(VebCore { nodes, leaves, pts }),
            overlay: Arc::new(Overlay {
                alive: vec![true; live],
                dead: Vec::new(),
            }),
            root,
            live,
            cow_bytes: 0,
        }
    }

    /// Number of live (non-tombstoned) points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no live points remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Bounding box of the (original) point set. Conservative after
    /// deletions: a superset of the live points' box.
    pub fn bbox(&self) -> Bbox<D> {
        if self.root == u32::MAX {
            Bbox::empty()
        } else {
            self.core.nodes[self.root as usize].bbox
        }
    }

    /// Exact bounding box of the live points, folded from the coordinate
    /// columns under the liveness mask — no allocation.
    pub fn live_bbox(&self) -> Bbox<D> {
        let mut b = Bbox::empty();
        for axis in 0..D {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (&c, &alive) in self.core.pts.axis(axis).iter().zip(&self.overlay.alive) {
                if alive {
                    lo = lo.min(c);
                    hi = hi.max(c);
                }
            }
            b.min.coords[axis] = lo;
            b.max.coords[axis] = hi;
        }
        b
    }

    /// All live `(point, id)` pairs.
    pub fn collect_live(&self) -> Vec<(Point<D>, u32)> {
        let pts = &self.core.pts;
        let mut out = Vec::with_capacity(self.live);
        for i in 0..pts.len() {
            if self.overlay.alive[i] {
                out.push((pts.get(i), pts.id(i)));
            }
        }
        out
    }

    /// Heap bytes held by the tree's flat arenas (node array, leaf table,
    /// coordinate columns, liveness slab, dead-subtree flags) — counted
    /// once per tree however many clones share them.
    pub fn arena_bytes(&self) -> usize {
        self.core.nodes.len() * std::mem::size_of::<VNode<D>>()
            + self.core.leaves.len() * std::mem::size_of::<VLeaf>()
            + self.core.pts.bytes()
            + self.overlay.bytes()
    }

    /// True iff `other` is a clone of this tree that still shares its
    /// immutable structure (node geometry, leaf ranges, point columns).
    pub fn shares_core_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Overlay bytes this tree has copied because a clone shared them when
    /// an `erase` removed its first point — the whole copy-on-write cost
    /// of the tree's lifetime.
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    // ---------- deletion (Algorithm 2) ----------

    /// Deletes every live point whose coordinates match a query point
    /// (all duplicates of a matched value are removed). Fully-dead subtrees
    /// are flagged and skipped by every later traversal. Returns the
    /// `(point, id)` pairs deleted, in no particular order.
    ///
    /// The search is read-only; only when it found a victim is the overlay
    /// written — and copied first if a clone still shares it.
    pub fn erase(&mut self, queries: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        self.erase_work(queries).0
    }

    /// [`erase`](Self::erase) plus what the descent did, as
    /// `(query-levels, compares)`: the queries routed through a node,
    /// summed over the nodes visited, and the query-against-row key tests
    /// at the leaves. `BdlTree::write_work`'s plumbing.
    #[doc(hidden)]
    pub fn erase_work(&mut self, queries: &[Point<D>]) -> (Vec<(Point<D>, u32)>, (u64, u64)) {
        // The descent reorders its queries in place: one private copy, of
        // those the root box does not already rule out.
        let root_box = self.bbox();
        let mut queries: Vec<Point<D>> = queries
            .iter()
            .filter(|q| root_box.contains(q))
            .copied()
            .collect();
        if queries.is_empty() {
            return (Vec::new(), (0, 0));
        }
        let mut found = Erased::default();
        let all_dead = self.walk().erase_scan(self.root, &mut queries, &mut found);
        let Erased { hits, died, work } = found;
        if hits.is_empty() {
            return (Vec::new(), work);
        }
        // `make_mut` clones the overlay only when a clone still shares
        // it; that copy is the work `cow_bytes` counts.
        if Arc::get_mut(&mut self.overlay).is_none() {
            self.cow_bytes += self.overlay.bytes() as u64;
        }
        let overlay = Arc::make_mut(&mut self.overlay);
        for &i in &hits {
            overlay.alive[i as usize] = false;
        }
        if !died.is_empty() {
            if overlay.dead.is_empty() {
                overlay.dead = vec![false; self.core.nodes.len()];
            }
            for &slot in &died {
                overlay.dead[slot as usize] = true;
            }
        }
        self.live -= hits.len();
        self.root = if all_dead {
            u32::MAX
        } else {
            self.walk().live_child(self.root)
        };
        let pts = &self.core.pts;
        let rows = hits
            .iter()
            .map(|&i| (pts.get(i as usize), pts.id(i as usize)))
            .collect();
        (rows, work)
    }

    // ---------- k-NN ----------

    /// Accumulates the k nearest live points to `q` into `buf`. A tree
    /// whose root box lies beyond the buffer's bound is skipped whole.
    pub fn knn_into<W: KnnProbe>(&self, q: &Point<D>, buf: &mut KnnBuffer<W>) {
        if self.root == u32::MAX {
            return;
        }
        if self.bbox().dist_sq_to_point(q) <= buf.bound() {
            self.walk().knn_rec(self.root, q, buf);
        } else {
            buf.probe().tree_skipped();
        }
    }

    /// Standalone k-NN over this tree only.
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<crate::knn::Neighbor> {
        let mut buf = KnnBuffer::new(k);
        self.knn_into(q, &mut buf);
        buf.finish()
    }

    // ---------- range search ----------

    /// Appends the ids of all live points inside `query` (boundary
    /// inclusive) to `out`, in unspecified order — the hook the BDL-tree
    /// uses to accumulate one answer across its forest of trees.
    ///
    /// Node bounding boxes are conservative after deletions (supersets of
    /// the live points), so pruning may over-visit but never misses.
    pub fn range_into(&self, query: &Bbox<D>, out: &mut Vec<u32>) {
        if self.root != u32::MAX {
            self.walk().range_rec(self.root, query, out);
        }
    }

    /// Number of live points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        if self.root == u32::MAX {
            0
        } else {
            self.walk().count_rec(self.root, query)
        }
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// The tree's slabs borrowed for one traversal.
    fn walk(&self) -> Walk<'_, D> {
        Walk {
            nodes: &self.core.nodes,
            leaves: &self.core.leaves,
            pts: &self.core.pts,
            alive: &self.overlay.alive,
            dead: &self.overlay.dead,
        }
    }
}

/// One tree's slabs borrowed for a traversal, so the two `Arc`s are
/// resolved once per query and not once per node visited. Every method
/// takes the slot of a node that holds a live point.
struct Walk<'a, const D: usize> {
    nodes: &'a [VNode<D>],
    leaves: &'a [VLeaf],
    pts: &'a SoaPoints<D>,
    alive: &'a [bool],
    dead: &'a [bool],
}

impl<const D: usize> Walk<'_, D> {
    /// Steps from slot `c` over every node with a dead child, to where a
    /// spliced tree would point.
    #[inline]
    fn live_child(&self, mut c: u32) -> u32 {
        if self.dead.is_empty() {
            return c;
        }
        loop {
            let node = &self.nodes[c as usize];
            if node.is_leaf() {
                return c;
            }
            if self.dead[node.left as usize] {
                c = node.right;
            } else if self.dead[node.right as usize] {
                c = node.left;
            } else {
                return c;
            }
        }
    }

    /// Routes `queries` down from node `idx` (which holds a live point),
    /// recording the arena slots they kill and every node left without a
    /// live point. Returns whether `idx` is such a node. Writes nothing to
    /// the tree — sibling subtrees run in parallel on plain shared borrows
    /// — and leaves `queries` in no particular state.
    fn erase_scan(&self, idx: u32, queries: &mut [Point<D>], found: &mut Erased) -> bool {
        let node = &self.nodes[idx as usize];
        found.work.0 += queries.len() as u64;
        let all_dead = if node.is_leaf() {
            let leaf = &self.leaves[node.leaf as usize];
            let before = found.hits.len();
            let mut alive = 0usize;
            // Bitwise identity (`Point::bits_key`) — the library-wide
            // delete-by-value semantic shared by every backend — tested on
            // one column first: the other coordinates of a row are read
            // only where that one matched.
            let first = &self.pts.axis(0)[leaf.start as usize..leaf.end as usize];
            for (i, x) in (leaf.start..leaf.end).zip(first) {
                if !self.alive[i as usize] {
                    continue;
                }
                alive += 1;
                let at = queries.iter().position(|q| {
                    q[0].to_bits() == x.to_bits()
                        && (1..D).all(|d| q[d].to_bits() == self.pts.coord(i as usize, d).to_bits())
                });
                found.work.1 += at.map_or(queries.len(), |p| p + 1) as u64;
                if at.is_some() {
                    found.hits.push(i);
                }
            }
            found.hits.len() - before == alive
        } else {
            let (dim, val) = (node.dim as usize, node.val);
            // `queries` becomes `[< val | == val | > val]`. A query equal
            // to the split coordinate may match a point on either side, so
            // both children get the middle run (superset routing keeps
            // deletion exact); a child may scramble what it is handed, so
            // the run is set aside while the left one has it. It is almost
            // always empty, and costs a second pass only when it is not.
            let mut on_split = 0;
            let upto = partition_in_place(queries, |q| {
                on_split += (q[dim] == val) as usize;
                q[dim] <= val
            });
            let below = match on_split {
                0 => upto,
                _ => partition_in_place(&mut queries[..upto], |q| q[dim] < val),
            };
            let dead = self.dead;
            let scan = |c: u32, qs: &mut [Point<D>], found: &mut Erased| {
                if !dead.is_empty() && dead[c as usize] {
                    true
                } else if qs.is_empty() {
                    false
                } else {
                    self.erase_scan(c, qs, found)
                }
            };
            if queries.len() >= SEQ_BUILD_CUTOFF {
                let mut right_queries = queries[below..].to_vec();
                let mut right = Erased::default();
                let (l, r) = parlay::par_do(
                    || scan(node.left, &mut queries[..upto], found),
                    || scan(node.right, &mut right_queries, &mut right),
                );
                found.hits.append(&mut right.hits);
                found.died.append(&mut right.died);
                found.work.0 += right.work.0;
                found.work.1 += right.work.1;
                l && r
            } else {
                let both = queries[below..upto].to_vec();
                let l = scan(node.left, &mut queries[..upto], found);
                queries[below..upto].copy_from_slice(&both);
                let r = scan(node.right, &mut queries[below..], found);
                l && r
            }
        };
        if all_dead {
            found.died.push(idx);
        }
        all_dead
    }

    fn knn_rec<W: KnnProbe>(&self, idx: u32, q: &Point<D>, buf: &mut KnnBuffer<W>) {
        buf.probe().node();
        let node = &self.nodes[idx as usize];
        if node.is_leaf() {
            let leaf = &self.leaves[node.leaf as usize];
            let alive = self.alive;
            buf.scan(self.pts, leaf.start as usize..leaf.end as usize, q, |i| {
                alive[i]
            });
            return;
        }
        let (left, right) = (self.live_child(node.left), self.live_child(node.right));
        let (near, far) = if q[node.dim as usize] <= node.val {
            (left, right)
        } else {
            (right, left)
        };
        if self.nodes[near as usize].bbox.dist_sq_to_point(q) <= buf.bound() {
            self.knn_rec(near, q, buf);
        }
        if self.nodes[far as usize].bbox.dist_sq_to_point(q) <= buf.bound() {
            self.knn_rec(far, q, buf);
        }
    }

    fn range_rec(&self, idx: u32, query: &Bbox<D>, out: &mut Vec<u32>) {
        let node = &self.nodes[idx as usize];
        if !node.bbox.intersects(query) {
            return;
        }
        if node.is_leaf() {
            let leaf = &self.leaves[node.leaf as usize];
            let whole = query.contains_box(&node.bbox);
            for i in leaf.start as usize..leaf.end as usize {
                if self.alive[i] && (whole || query.contains_soa(self.pts, i)) {
                    out.push(self.pts.id(i));
                }
            }
            return;
        }
        self.range_rec(self.live_child(node.left), query, out);
        self.range_rec(self.live_child(node.right), query, out);
    }

    fn count_rec(&self, idx: u32, query: &Bbox<D>) -> usize {
        let node = &self.nodes[idx as usize];
        if !node.bbox.intersects(query) {
            return 0;
        }
        if node.is_leaf() {
            let leaf = &self.leaves[node.leaf as usize];
            let whole = query.contains_box(&node.bbox);
            return (leaf.start as usize..leaf.end as usize)
                .filter(|&i| self.alive[i] && (whole || query.contains_soa(self.pts, i)))
                .count();
        }
        self.count_rec(self.live_child(node.left), query)
            + self.count_rec(self.live_child(node.right), query)
    }
}

/// What one `erase_scan` found: the arena slots its queries kill, the
/// nodes left without a live point, and its `(query-levels, compares)`.
#[derive(Default)]
struct Erased {
    hits: Vec<u32>,
    died: Vec<u32>,
    work: (u64, u64),
}

/// Moves the rows satisfying `pred` to the front, in no particular order,
/// and returns how many there are. Branch-free: every row is swapped with
/// the first row of the other group, which then grows or does not.
fn partition_in_place<T: Copy>(rows: &mut [T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut front = 0;
    for i in 0..rows.len() {
        // The test reads the row's copy: reading it back from where the
        // swap has just put it would wait on that store, every row.
        let row = rows[i];
        rows.swap(i, front);
        front += pred(&row) as usize;
    }
    front
}

impl Overlay {
    fn bytes(&self) -> usize {
        (self.alive.len() + self.dead.len()) * std::mem::size_of::<bool>()
    }
}

// Boxed intermediate tree. Leaves carry `[start, end)` ranges into the
// build work buffer — the points themselves stay put and scatter into the
// tree-level columnar arena once at the end.
enum Boxed<const D: usize> {
    Leaf(Bbox<D>, usize, usize),
    Internal(Bbox<D>, u8, f64, Box<Boxed<D>>, Box<Boxed<D>>),
}

fn build_boxed<const D: usize>(
    items: &mut [(Point<D>, u32)],
    offset: usize,
    leaf_size: usize,
    rule: SplitRule,
) -> Boxed<D> {
    let n = items.len();
    let bbox = compute_bbox(items, SEQ_BUILD_CUTOFF);
    if n <= leaf_size || bbox.diag_sq() == 0.0 {
        return Boxed::Leaf(bbox, offset, offset + n);
    }
    let dim = bbox.widest_dim();
    let (mid, val) = match rule {
        SplitRule::ObjectMedian => {
            let mid = n / 2;
            parlay::select_nth_unstable_by(items, mid, |a, b| {
                a.0[dim].partial_cmp(&b.0[dim]).unwrap()
            });
            (mid, items[mid].0[dim])
        }
        SplitRule::SpatialMedian => {
            let splitval = 0.5 * (bbox.min[dim] + bbox.max[dim]);
            let mut i = 0usize;
            let mut j = n;
            while i < j {
                if items[i].0[dim] < splitval {
                    i += 1;
                } else {
                    j -= 1;
                    items.swap(i, j);
                }
            }
            if i == 0 || i == n {
                // Degenerate spatial split: fall back to the object median.
                let mid = n / 2;
                items.select_nth_unstable_by(mid, |a, b| a.0[dim].partial_cmp(&b.0[dim]).unwrap());
                (mid, items[mid].0[dim])
            } else {
                (i, splitval)
            }
        }
    };
    let (lo, hi) = items.split_at_mut(mid);
    let (l, r) = if n >= SEQ_BUILD_CUTOFF {
        parlay::par_do(
            || build_boxed(lo, offset, leaf_size, rule),
            || build_boxed(hi, offset + mid, leaf_size, rule),
        )
    } else {
        (
            build_boxed(lo, offset, leaf_size, rule),
            build_boxed(hi, offset + mid, leaf_size, rule),
        )
    };
    Boxed::Internal(bbox, dim as u8, val, Box::new(l), Box::new(r))
}

fn flatten<const D: usize>(
    b: Boxed<D>,
    arena: &mut Vec<ArenaNode<D>>,
    leaves: &mut Vec<VLeaf>,
) -> usize {
    let my = arena.len();
    match b {
        Boxed::Leaf(bbox, start, end) => {
            leaves.push(VLeaf {
                start: start as u32,
                end: end as u32,
            });
            arena.push(ArenaNode {
                bbox,
                dim: 0,
                val: 0.0,
                left: usize::MAX,
                right: usize::MAX,
                leaf: leaves.len() - 1,
                height: 1,
            });
        }
        Boxed::Internal(bbox, dim, val, l, r) => {
            arena.push(ArenaNode {
                bbox,
                dim,
                val,
                left: 0,
                right: 0,
                leaf: usize::MAX,
                height: 0,
            });
            let li = flatten(*l, arena, leaves);
            let ri = flatten(*r, arena, leaves);
            let h = arena[li].height.max(arena[ri].height) + 1;
            let a = &mut arena[my];
            a.left = li;
            a.right = ri;
            a.height = h;
        }
    }
    my
}

/// Recursive vEB slot assignment.
///
/// `assign(node, cap, base)` assigns contiguous slots starting at `base` to
/// exactly the nodes of `node`'s subtree at depth `< cap`, in vEB order:
/// split `cap = lt + lb`, lay out the truncated top (`cap = lt`) first, then
/// each depth-`lt` boundary subtree (budget `lb`) left to right. Returns the
/// number of slots consumed.
struct VebAssign<'a, const D: usize> {
    arena: &'a [ArenaNode<D>],
    slot: &'a mut [usize],
}

impl<const D: usize> VebAssign<'_, D> {
    fn assign(&mut self, node: usize, cap: usize, base: usize) -> usize {
        let h = cap.min(self.arena[node].height);
        debug_assert!(h >= 1);
        if h == 1 || self.arena[node].left == usize::MAX {
            self.slot[node] = base;
            return 1;
        }
        if h == 2 {
            // Root, then left subtree-top, then right subtree-top.
            self.slot[node] = base;
            let a = self.assign(self.arena[node].left, 1, base + 1);
            let b = self.assign(self.arena[node].right, 1, base + 1 + a);
            return 1 + a + b;
        }
        // lb = hyperceiling(floor((h+1)/2)), clamped so both halves advance.
        let lb = hyperceiling(h.div_ceil(2)).clamp(1, h - 1);
        let lt = h - lb;
        let mut used = self.assign(node, lt, base);
        let mut roots = Vec::new();
        boundary_roots(self.arena, node, lt, &mut roots);
        for b in roots {
            used += self.assign(b, lb, base + used);
        }
        used
    }
}

/// Collects the depth-`depth` descendants of `node` (left to right), not
/// descending through leaves that end earlier.
fn boundary_roots<const D: usize>(
    arena: &[ArenaNode<D>],
    node: usize,
    depth: usize,
    out: &mut Vec<usize>,
) {
    if depth == 0 {
        out.push(node);
        return;
    }
    let a = &arena[node];
    if a.left == usize::MAX {
        return; // leaf shallower than the boundary: already assigned in top
    }
    boundary_roots(arena, a.left, depth - 1, out);
    boundary_roots(arena, a.right, depth - 1, out);
}

/// Smallest power of two `≥ n` (the paper's ⌈⌈n⌉⌉).
fn hyperceiling(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::knn_brute_force;
    use pargeo_datagen::uniform_cube;

    fn items<const D: usize>(pts: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        pts.iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect()
    }

    #[test]
    fn build_and_collect_roundtrip() {
        let pts = uniform_cube::<3>(5_000, 1);
        let t = VebTree::build(&items(&pts));
        assert_eq!(t.len(), 5_000);
        let mut live = t.collect_live();
        live.sort_by_key(|&(_, id)| id);
        assert_eq!(live.len(), 5_000);
        for (i, (p, id)) in live.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(*p, pts[i]);
        }
    }

    #[test]
    fn veb_slots_are_a_permutation() {
        let pts = uniform_cube::<2>(3_000, 2);
        let t = VebTree::build(&items(&pts));
        // Every node reachable exactly once from the root.
        let mut seen = vec![false; t.node_count()];
        fn go<const D: usize>(t: &VebTree<D>, i: u32, seen: &mut [bool]) -> usize {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
            let n = &t.core.nodes[i as usize];
            if n.is_leaf() {
                1
            } else {
                1 + go(t, n.left, seen) + go(t, n.right, seen)
            }
        }
        let cnt = go(&t, t.root, &mut seen);
        assert_eq!(cnt, t.node_count());
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn veb_layout_top_precedes_bottom() {
        // For a perfectly balanced tree of 8 leaves with leaf_size 1 the
        // paper's Figure 13 layout applies: root region (3 nodes) first,
        // then four 3-node bottom subtrees. Check the root sits at slot 0
        // and its grandchildren live in slots 1..3 while depth-2 subtree
        // roots land at 3, 6, 9, 12.
        let pts: Vec<Point<1>> = (0..8).map(|i| Point::new([i as f64])).collect();
        let t = VebTree::build_with_leaf_size(&items(&pts), 1);
        assert_eq!(t.node_count(), 15);
        assert_eq!(t.root, 0);
        let root = &t.core.nodes[0];
        assert!(
            root.left < 3 && root.right < 3,
            "top half must occupy slots 0..3"
        );
        let l = &t.core.nodes[root.left as usize];
        let r = &t.core.nodes[root.right as usize];
        let mut bottoms = vec![l.left, l.right, r.left, r.right];
        bottoms.sort();
        assert_eq!(bottoms, vec![3, 6, 9, 12]);
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = uniform_cube::<3>(2_000, 3);
        let t = VebTree::build(&items(&pts));
        for q in pts.iter().step_by(101) {
            let got = t.knn(q, 6);
            let want = knn_brute_force(&pts, q, 6);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn erase_removes_batch_and_knn_respects_it() {
        let pts = uniform_cube::<2>(2_000, 4);
        let mut t = VebTree::build(&items(&pts));
        let victims: Vec<_> = pts.iter().copied().take(500).collect();
        let deleted = t.erase(&victims).len();
        assert_eq!(deleted, 500);
        assert_eq!(t.len(), 1_500);
        let survivors: Vec<_> = pts[500..].to_vec();
        for q in survivors.iter().step_by(53) {
            let got = t.knn(q, 4);
            let want = knn_brute_force(&survivors, q, 4);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
            }
        }
        // Deleted points are no longer reported.
        let got = t.knn(&pts[0], 1);
        assert!(got[0].dist_sq > 0.0 || survivors.contains(&pts[0]));
    }

    #[test]
    fn erase_everything_collapses_tree() {
        let pts = uniform_cube::<2>(1_000, 5);
        let mut t = VebTree::build(&items(&pts));
        let deleted = t.erase(&pts).len();
        assert_eq!(deleted, 1_000);
        assert!(t.is_empty());
        assert_eq!(t.root, u32::MAX);
        assert!(t.collect_live().is_empty());
        // knn on a dead tree returns nothing.
        assert!(t.knn(&pts[0], 3).is_empty());
    }

    /// Brute-force answers over `(point, id)` survivors, for comparison.
    fn check_against<const D: usize>(t: &VebTree<D>, survivors: &[(Point<D>, u32)]) {
        let pts: Vec<Point<D>> = survivors.iter().map(|s| s.0).collect();
        assert_eq!(t.len(), survivors.len());
        // Every survivor is reachable: no live point hides under a flag.
        let mut reached = Vec::new();
        t.range_into(&Bbox::from_points(&pts), &mut reached);
        reached.sort_unstable();
        let ids: Vec<u32> = survivors.iter().map(|s| s.1).collect();
        assert_eq!(reached, ids);
        for (q, _) in survivors.iter().step_by(41) {
            let got: Vec<f64> = t.knn(q, 5).iter().map(|n| n.dist_sq).collect();
            let want: Vec<f64> = knn_brute_force(&pts, q, 5)
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            assert_eq!(got, want);
            let query = Bbox::from_points(&[*q, pts[0]]);
            let mut got = Vec::new();
            t.range_into(&query, &mut got);
            got.sort_unstable();
            let mut want: Vec<u32> = survivors
                .iter()
                .filter(|(p, _)| query.contains(p))
                .map(|&(_, id)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(t.count_box(&query), want.len());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn clustered_erase_kills_subtrees_and_a_clone_keeps_its_epoch() {
        // Spatially clustered deletes empty whole subtrees — the case the
        // dead flags exist for — and a clone taken in between must not
        // see the later erase.
        let pts = uniform_cube::<2>(4_000, 9);
        let all = items(&pts);
        let mid = pts.iter().map(|p| p[0]).sum::<f64>() / pts.len() as f64;
        let mut t = VebTree::build(&all);
        let west: Vec<_> = pts.iter().copied().filter(|p| p[0] < mid).collect();
        assert_eq!(t.erase(&west).len(), west.len());
        assert!(
            t.overlay.dead.iter().any(|&d| d),
            "half the plane gone must leave dead subtrees"
        );
        assert_eq!(t.cow_bytes(), 0, "nothing shared yet");
        let east: Vec<_> = all.iter().copied().filter(|(p, _)| p[0] >= mid).collect();
        check_against(&t, &east);

        let pin = t.clone();
        assert!(pin.shares_core_with(&t));
        let south: Vec<_> = pts.iter().copied().filter(|p| p[1] < mid).collect();
        let north_east: Vec<_> = east.iter().copied().filter(|(p, _)| p[1] >= mid).collect();
        assert_eq!(t.erase(&south).len(), east.len() - north_east.len());
        assert_eq!(t.cow_bytes() as usize, pin.overlay.bytes());
        check_against(&t, &north_east);
        check_against(&pin, &east);
        assert!(pin.shares_core_with(&t), "erase never copies the structure");
    }

    /// At `SEQ_BUILD_CUTOFF` queries a node hands its right child a copy
    /// of its share and forks; the lattice puts a run of queries on every
    /// split value, which both sides must see.
    #[test]
    fn a_batch_above_the_fork_cutoff_erases_the_same_rows_on_any_pool() {
        let pts: Vec<Point<2>> = (0..30_000u64)
            .map(|i| Point::new([(i * 7_919 % 97) as f64, (i * 104_729 % 89) as f64]))
            .collect();
        let all = items(&pts);
        let doomed = |p: &Point<2>| (p[0] + p[1]) % 3.0 == 0.0;
        let victims: Vec<_> = pts.iter().copied().filter(doomed).collect();
        assert!(victims.len() >= 2 * SEQ_BUILD_CUTOFF);
        let mut want: Vec<_> = all.iter().copied().filter(|(p, _)| doomed(p)).collect();
        want.sort_by_key(|&(_, id)| id);
        let trees = [1, 2, 4].map(|workers| {
            let mut t = VebTree::build(&all);
            let mut got = parlay::with_threads(workers, || t.erase(&victims));
            got.sort_by_key(|&(_, id)| id);
            assert_eq!(got, want, "{workers} workers");
            t
        });
        let survivors: Vec<_> = all.iter().copied().filter(|(p, _)| !doomed(p)).collect();
        check_against(&trees[2], &survivors);
    }

    #[test]
    fn a_leaf_dies_only_with_its_last_point() {
        let pts: Vec<Point<1>> = (0..8).map(|i| Point::new([i as f64])).collect();
        let mut t = VebTree::build_with_leaf_size(&items(&pts), 4);
        assert_eq!(t.erase(&pts[..3]).len(), 3);
        assert!(t.overlay.dead.is_empty(), "point 3 keeps its leaf alive");
        assert_eq!(t.knn(&pts[0], 1)[0].id, 3);
        assert_eq!(t.erase(&pts[3..4]).len(), 1);
        assert!(t.overlay.dead.iter().any(|&d| d));
        assert_eq!(t.knn(&pts[0], 1)[0].id, 4);
        assert_eq!(t.count_box(&Bbox::from_points(&pts)), 4);
    }

    #[test]
    fn erase_missing_points_is_noop() {
        let pts = uniform_cube::<2>(500, 6);
        let mut t = VebTree::build(&items(&pts));
        let outside = vec![Point::new([-1000.0, -1000.0]); 10];
        assert_eq!(t.erase(&outside), []);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn erase_duplicates_removes_all_copies() {
        let p = Point::new([1.0, 2.0]);
        let q = Point::new([3.0, 4.0]);
        let items: Vec<_> = vec![(p, 0), (p, 1), (q, 2)];
        let mut t = VebTree::build(&items);
        let mut erased = t.erase(&[p]);
        erased.sort_by_key(|&(_, id)| id);
        assert_eq!(erased, [(p, 0), (p, 1)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_build() {
        let t = VebTree::<2>::build(&[]);
        assert!(t.is_empty());
        assert!(t.collect_live().is_empty());
    }

    #[test]
    fn hyperceiling_values() {
        assert_eq!(hyperceiling(1), 1);
        assert_eq!(hyperceiling(2), 2);
        assert_eq!(hyperceiling(3), 4);
        assert_eq!(hyperceiling(5), 8);
    }
}

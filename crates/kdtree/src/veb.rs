//! One level of the BDL-tree (paper §5, Appendix C.1).
//!
//! A level is the crate's one static tree ([`KdTree`], balanced
//! object-median by default), its node array kept in the preorder
//! [`KdTree::from_rows`] writes, root in slot 0, with what the BDL-tree
//! adds to it —
//!
//! * parallel bulk deletion with subtree collapse (Algorithm 2) — deleted
//!   points are tombstoned and fully dead subtrees are flagged so every
//!   traversal steps over them exactly as if they had been spliced out,
//! * k-NN search into a shared [`KnnBuffer`] (the hook the BDL-tree uses to
//!   combine answers across its log-structured set of trees).
//!
//! Appendix C.1 also stores each level in the recursive van Emde Boas
//! order of Agarwal et al. \[9\]. A level here keeps the build's
//! preorder: that permutation moves node slots only, so it cannot change
//! an answer or a work counter, and it bought no time measurable on a
//! 2-vCPU box (DESIGN §5, entry 7). The k-NN, range and count descents
//! are the static tree's, run under this tree's liveness overlay.
//!
//! Storage is **shared**: everything `build_with` produces (node
//! geometry and ranges, coordinate and id columns) is never written
//! again and sits behind one `Arc`; the only state deletion changes — the
//! liveness slab and the dead-subtree flags, about 1.2 B/pt — sits behind
//! a second, copy-on-write `Arc`. `clone()` is two reference-count bumps,
//! and the first `erase` that actually removes a point from a shared tree
//! copies that small overlay, never a coordinate, id or bounding box.

use crate::knn::{KnnBuffer, KnnProbe};
use crate::range::RangeProbe;
use crate::tree::{fork_onto, KdTree, Liveness, Node, SplitRule, Walk, SEQ_BUILD_CUTOFF};
use pargeo_geometry::{Bbox, Point};
use std::sync::Arc;

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

/// A static kd-tree with tombstone deletion: one level of the BDL-tree.
///
/// `clone()` shares the structure and the deletion overlay (O(1)); the
/// clone and the original then diverge copy-on-write, see the module docs.
#[derive(Debug, Clone)]
pub struct LevelTree<const D: usize> {
    /// What construction produces and nothing ever writes again.
    core: Arc<KdTree<D>>,
    overlay: Arc<Overlay>,
    /// Topmost node with two live children, or the last live leaf
    /// (`u32::MAX` when the whole tree died).
    root: u32,
    live: usize,
    /// Overlay bytes copied by copy-on-write so far.
    cow_bytes: u64,
}

impl<const D: usize> LevelTree<D> {
    /// Builds a level over `(point, original id)` pairs
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
    pub fn build_with(work: Vec<(Point<D>, u32)>, leaf_size: usize, rule: SplitRule) -> Self {
        assert!(leaf_size >= 1);
        let core = KdTree::from_rows(work, rule, leaf_size);
        let live = core.len();
        LevelTree {
            core: Arc::new(core),
            overlay: Arc::new(Overlay {
                alive: vec![true; live],
                dead: Vec::new(),
            }),
            // Preorder keeps the root in slot 0.
            root: if live == 0 { u32::MAX } else { 0 },
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

    /// The live `(point, id)` pairs in slot order, read straight from the
    /// columns — what a cascade deals from a level it destroys or drains.
    pub fn live_rows(&self) -> impl DoubleEndedIterator<Item = (Point<D>, u32)> + '_ {
        let pts = &self.core.pts;
        (self.overlay.alive.iter().enumerate())
            .filter(|&(_, &alive)| alive)
            .map(move |(i, _)| (pts.get(i), pts.id(i)))
    }

    /// Heap bytes held by the tree's flat arenas (node array, coordinate
    /// columns, liveness slab, dead-subtree flags) — counted once per tree
    /// however many clones share them.
    pub fn arena_bytes(&self) -> usize {
        self.core.arena_bytes() + self.overlay.bytes()
    }

    /// True iff `other` is a clone of this tree that still shares its
    /// immutable structure (node geometry and ranges, point columns).
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
            self.walk().live.live_child(&self.core.nodes, self.root)
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
    /// uses to accumulate one answer across its forest of trees — and
    /// reports the descent's work to `probe` (`&mut ()` counts nothing).
    pub fn range_into<W: RangeProbe>(&self, query: &Bbox<D>, out: &mut Vec<u32>, probe: &mut W) {
        if self.root != u32::MAX {
            self.walk().range_box(self.root, query, out, probe);
        }
    }

    /// Number of live points inside `query` without materializing them.
    pub fn count_box(&self, query: &Bbox<D>) -> usize {
        if self.root == u32::MAX {
            0
        } else {
            self.walk().count_box(self.root, query, &mut ())
        }
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.core.node_count()
    }

    /// The tree's slabs borrowed for one traversal, so the two `Arc`s are
    /// resolved once per query and not once per node visited.
    fn walk(&self) -> Walk<'_, D, Masks<'_>> {
        self.core.walk(Masks {
            alive: &self.overlay.alive,
            dead: &self.overlay.dead,
        })
    }
}

/// The overlay's two slabs, borrowed.
#[derive(Clone, Copy)]
struct Masks<'a> {
    alive: &'a [bool],
    dead: &'a [bool],
}

impl Liveness for Masks<'_> {
    const NEVER_DEAD: bool = false;

    #[inline]
    fn alive(self, row: usize) -> bool {
        self.alive[row]
    }

    /// Steps from slot `c` over every node with a dead child.
    #[inline]
    fn live_child<const D: usize>(self, nodes: &[Node<D>], mut c: u32) -> u32 {
        if self.dead.is_empty() {
            return c;
        }
        loop {
            let node = &nodes[c as usize];
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
}

impl<const D: usize> Walk<'_, D, Masks<'_>> {
    /// Routes `queries` down from node `idx` (which holds a live point),
    /// recording the arena slots they kill and every node left without a
    /// live point. Returns whether `idx` is such a node. Writes nothing to
    /// the tree — sibling subtrees run in parallel on plain shared borrows
    /// — and leaves `queries` in no particular state.
    fn erase_scan(&self, idx: u32, queries: &mut [Point<D>], found: &mut Erased) -> bool {
        let node = &self.nodes[idx as usize];
        found.work.0 += queries.len() as u64;
        let all_dead = if node.is_leaf() {
            let before = found.hits.len();
            let mut alive = 0usize;
            // Bitwise identity (`Point::bits_key`) — the library-wide
            // delete-by-value semantic shared by every backend — tested on
            // one column first: the other coordinates of a row are read
            // only where that one matched.
            let first = &self.pts.axis(0)[node.rows()];
            for (i, x) in (node.start..node.end).zip(first) {
                if !self.live.alive[i as usize] {
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
            let (dim, val, routed) = (node.dim as usize, node.val, queries.len());
            // `queries` becomes `[< val | == val | > val]`. A query equal
            // to the split coordinate may match a point on either side, so
            // both children get the middle run (superset routing keeps
            // deletion exact). It is almost always empty, and costs a
            // second pass and the right child a copy of its share — a
            // child may scramble what it is handed — only when it is not.
            let mut on_split = 0;
            let upto = partition_in_place(queries, |q| {
                on_split += (q[dim] == val) as usize;
                q[dim] <= val
            });
            let mut with_split = Vec::new();
            let (left_queries, right_queries) = match on_split {
                0 => queries.split_at_mut(upto),
                _ => {
                    let below = partition_in_place(&mut queries[..upto], |q| q[dim] < val);
                    with_split.extend_from_slice(&queries[below..]);
                    (&mut queries[..upto], &mut with_split[..])
                }
            };
            let dead = self.live.dead;
            let scan = |c: u32, qs: &mut [Point<D>], found: &mut Erased| {
                if !dead.is_empty() && dead[c as usize] {
                    true
                } else if qs.is_empty() {
                    false
                } else {
                    self.erase_scan(c, qs, found)
                }
            };
            let (l, r) = fork_onto(
                routed >= SEQ_BUILD_CUTOFF,
                found,
                |found| scan(node.left, left_queries, found),
                |found| scan(node.right, right_queries, found),
                Erased::absorb,
            );
            l && r
        };
        if all_dead {
            found.died.push(idx);
        }
        all_dead
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

impl Erased {
    /// Adds what a scan run apart from this one found.
    fn absorb(&mut self, mut other: Erased) {
        self.hits.append(&mut other.hits);
        self.died.append(&mut other.died);
        self.work.0 += other.work.0;
        self.work.1 += other.work.1;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::knn_brute_force;
    use pargeo_datagen::uniform_cube;
    use pargeo_parlay as parlay;

    fn items<const D: usize>(pts: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        pts.iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect()
    }

    #[test]
    fn build_and_collect_roundtrip() {
        let pts = uniform_cube::<3>(5_000, 1);
        let t = LevelTree::build(&items(&pts));
        assert_eq!(t.len(), 5_000);
        let mut live: Vec<_> = t.live_rows().collect();
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
        let t = LevelTree::build(&items(&pts));
        // Every node reachable exactly once from the root.
        let mut seen = vec![false; t.node_count()];
        fn go<const D: usize>(t: &LevelTree<D>, i: u32, seen: &mut [bool]) -> usize {
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

    /// A level's core is the node array and the point columns
    /// [`KdTree::from_rows`] writes over the same rows, root in slot 0 —
    /// on uniform rows, on a lattice of duplicates and on one repeated
    /// point, with `n` on both sides of the leaf size and of the fork
    /// cutoff.
    #[test]
    fn a_level_keeps_the_node_array_the_static_tree_builds() {
        let cutoff = SEQ_BUILD_CUTOFF;
        for leaf_size in [1, 3, 16] {
            for n in [
                1,
                leaf_size,
                leaf_size + 1,
                150,
                cutoff - 1,
                cutoff,
                2 * cutoff + 37,
            ] {
                let uniform = uniform_cube::<2>(n, n as u64);
                let lattice = (0..n as u64)
                    .map(|i| Point::new([(i * 7_919 % 23) as f64, (i * 104_729 % 19) as f64]))
                    .collect();
                let same = vec![Point::new([2.0, 3.0]); n];
                for pts in [uniform, lattice, same] {
                    for rule in [SplitRule::ObjectMedian, SplitRule::SpatialMedian] {
                        let kd = KdTree::from_rows(items(&pts), rule, leaf_size);
                        let level = LevelTree::build_with(items(&pts), leaf_size, rule);
                        assert_eq!(
                            level.core.nodes, kd.nodes,
                            "n {n}, leaf {leaf_size}, {rule:?}"
                        );
                        assert_eq!(level.core.pts, kd.pts);
                        assert_eq!(level.root, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = uniform_cube::<3>(2_000, 3);
        let t = LevelTree::build(&items(&pts));
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
        let mut t = LevelTree::build(&items(&pts));
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
        let mut t = LevelTree::build(&items(&pts));
        let deleted = t.erase(&pts).len();
        assert_eq!(deleted, 1_000);
        assert!(t.is_empty());
        assert_eq!(t.root, u32::MAX);
        assert_eq!(t.live_rows().count(), 0);
        // knn on a dead tree returns nothing.
        assert!(t.knn(&pts[0], 3).is_empty());
    }

    /// Brute-force answers over `(point, id)` survivors, for comparison.
    fn check_against<const D: usize>(t: &LevelTree<D>, survivors: &[(Point<D>, u32)]) {
        let pts: Vec<Point<D>> = survivors.iter().map(|s| s.0).collect();
        assert_eq!(t.len(), survivors.len());
        // Every survivor is reachable: no live point hides under a flag.
        let mut reached = Vec::new();
        t.range_into(&Bbox::from_points(&pts), &mut reached, &mut ());
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
            t.range_into(&query, &mut got, &mut ());
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
        let mut t = LevelTree::build(&all);
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
            let mut t = LevelTree::build(&all);
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
        let mut t = LevelTree::build_with_leaf_size(&items(&pts), 4);
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
        let mut t = LevelTree::build(&items(&pts));
        let outside = vec![Point::new([-1000.0, -1000.0]); 10];
        assert_eq!(t.erase(&outside), []);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn erase_duplicates_removes_all_copies() {
        let p = Point::new([1.0, 2.0]);
        let q = Point::new([3.0, 4.0]);
        let items: Vec<_> = vec![(p, 0), (p, 1), (q, 2)];
        let mut t = LevelTree::build(&items);
        let mut erased = t.erase(&[p]);
        erased.sort_by_key(|&(_, id)| id);
        assert_eq!(erased, [(p, 0), (p, 1)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_build() {
        let t = LevelTree::<2>::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.live_rows().count(), 0);
    }
}

//! The Bowyer–Watson kernel: a flat triangle slab with edge adjacency,
//! in-place cavity re-starring and hinted point location.
//!
//! - **One ghost vertex closes the mesh.** Beyond every hull edge lies a
//!   ghost triangle whose third vertex is [`GHOST`], the vertex at
//!   infinity, so the mesh is a triangulated sphere: every triangle has
//!   three neighbours, a real vertex id *is* its input index, and a point
//!   anywhere in the plane can be inserted. A ghost triangle's
//!   "circumcircle" is the open half-plane beyond its finite edge plus the
//!   open edge itself.
//! - **Ties are perturbed, so a point set has one triangulation.** An
//!   exact `incircle` zero is broken by the points' lexicographic ranks
//!   (`TriMesh::conflicts`), so insertion order, batch splits and the
//!   input's order cannot change the answer. `orient2d` is not perturbed,
//!   so no output triangle is degenerate.
//! - **The slab is exactly the live mesh.** `v[t]` / `nbr[t]` are plain
//!   arrays; a cavity of `r` triangles around a new vertex is re-starred
//!   into its own `r` slots plus two fresh ones, so no slot is ever dead
//!   and the slab of a mesh over `m` distinct points is `2m − 2` long.
//! - **Cavities need no membership set.** The triangles in conflict with a
//!   point form a disc without interior vertices (every vertex of a
//!   Delaunay triangulation survives an insertion), so their dual graph
//!   is a tree: one counterclockwise depth-first tour from the containing
//!   triangle that never re-crosses the edge it entered by visits every
//!   cavity triangle once and emits the boundary edges already in cycle
//!   order.
//! - **A removal refills the star it leaves.** A removed vertex's link
//!   polygon is cut into ears, each a proper triangle over three
//!   consecutive corners that no other corner left conflicts with (the
//!   same perturbed test), which makes it a triangle of the remaining
//!   points' one triangulation (after Devillers, IJCGA 2002); a batch
//!   then renumbers the survivors in order, so the mesh is the one a
//!   build over them makes.
//! - **Location is a hint, not an input.** A walk starts at a triangle
//!   incident to a nearby inserted vertex, found through a coarse-to-fine
//!   grid over the points' bbox (a batch that lands beyond it grows the
//!   box and refills the grid). Where a walk starts cannot change what is
//!   built: the cavity is the *set* of triangles in conflict with the
//!   point, and every triangle containing the point belongs to it.

use pargeo_geometry::{incircle, orient2d, Bbox, Orientation, Point2};
use std::cmp::Ordering;

/// "No triangle" in the hint arrays, "no vertex" in the hint grid.
pub(crate) const NONE: u32 = u32::MAX;
/// The vertex at infinity, third vertex of every ghost triangle.
pub(crate) const GHOST: u32 = u32::MAX - 1;

/// A directed cavity-boundary edge `a → b` (as in its cavity triangle)
/// and the triangle beyond it, whose `nbr[outer_slot]` points back in.
#[derive(Debug, Clone, Copy)]
struct BEdge {
    a: u32,
    b: u32,
    outer: u32,
    outer_slot: u8,
}

/// One point's conflict cavity, or one removed vertex's star: its
/// triangles and its boundary cycle.
#[derive(Debug, Default)]
struct Cavity {
    region: Vec<u32>,
    /// Boundary edges in counterclockwise cycle order; `ring.len() ==
    /// region.len() + 2` for a cavity, `region.len()` for a star.
    ring: Vec<BEdge>,
    /// Tour frames `(triangle, next edge, edges left)`.
    stack: Vec<(u32, u8, u8)>,
}

/// Ear cutting's scratch, kept apart from [`Cavity`], which every
/// insertion moves: a linked list over a star's ring, and the positions
/// whose ear failed since its edges last changed.
#[derive(Debug, Default)]
struct Ears {
    next: Vec<u32>,
    prev: Vec<u32>,
    failed: Vec<bool>,
}

/// Pyramid of square grids over the points' bbox, level `l` holding
/// `2^l × 2^l` cells, each remembering the first vertex inserted into it.
/// An occupied cell has occupied ancestors, so a lookup climbs from the
/// finest level to the first hit: the vertex it finds is as close as the
/// mesh is dense there.
#[derive(Debug)]
struct Grid {
    lo: [f64; 2],
    span: [f64; 2],
    /// Finest level.
    top: u32,
    /// Level `l` starts at `(4^l − 1) / 3`.
    cells: Vec<u32>,
}

impl Grid {
    /// A grid for `n` points: the finest level has at most `3n/4` cells,
    /// so the whole pyramid (4/3 of that) stays within 4 bytes a point.
    fn new(lo: [f64; 2], span: [f64; 2], n: usize) -> Self {
        let mut top = 0;
        while 4usize << (2 * top + 2) <= 3 * n {
            top += 1;
        }
        let cells = vec![NONE; ((4usize << (2 * top)) - 1) / 3];
        Grid {
            lo,
            span,
            top,
            cells,
        }
    }

    /// Points beyond which walks from the finest level get long (16 a cell).
    fn capacity(&self) -> usize {
        16 << (2 * self.top)
    }

    /// The `(lo, span)` to refill over once the points in `b` join, or
    /// `None` while each lies within a finest cell of the box (it clamps
    /// to the border cell beside it). Each side a point overflows at least
    /// doubles the box, so a stream drifting away refills the grid once
    /// per doubling of the distance, not once a batch.
    fn grown(&self, b: &Bbox<2>) -> Option<([f64; 2], [f64; 2])> {
        let (mut lo, mut hi) = (self.lo, [0, 1].map(|d| self.lo[d] + self.span[d]));
        let mut grew = false;
        for d in 0..2 {
            let slack = self.span[d] / (1usize << self.top) as f64;
            if b.min[d] < self.lo[d] - slack {
                lo[d] = b.min[d].min(hi[d] - 2.0 * self.span[d]);
                grew = true;
            }
            if b.max[d] > hi[d] + slack {
                hi[d] = b.max[d].max(self.lo[d] + 2.0 * self.span[d]);
                grew = true;
            }
        }
        grew.then(|| (lo, [0, 1].map(|d| hi[d] - lo[d])))
    }

    fn cell(&self, p: &Point2) -> [usize; 2] {
        let side = 1usize << self.top;
        // The cast saturates: a point outside the bbox clamps to a border
        // cell, and a zero span (NaN) casts to cell 0.
        [0, 1].map(|d| (((p[d] - self.lo[d]) / self.span[d] * side as f64) as usize).min(side - 1))
    }

    /// Index of the level-`l` ancestor of finest-level cell `[x, y]`.
    fn index(&self, l: u32, [x, y]: [usize; 2]) -> usize {
        let s = self.top - l;
        ((1usize << (2 * l)) - 1) / 3 + (((y >> s) << l) | (x >> s))
    }

    fn put(&mut self, p: &Point2, v: u32) {
        let c = self.cell(p);
        for l in (0..=self.top).rev() {
            let i = self.index(l, c);
            if self.cells[i] != NONE {
                break;
            }
            self.cells[i] = v;
        }
    }

    /// An inserted vertex near `p`, or [`NONE`] while the grid is empty.
    fn get(&self, p: &Point2) -> u32 {
        let c = self.cell(p);
        (0..=self.top)
            .rev()
            .map(|l| self.cells[self.index(l, c)])
            .find(|&v| v != NONE)
            .unwrap_or(NONE)
    }
}

#[derive(Debug)]
pub(crate) struct TriMesh {
    /// The input points; vertex id = index.
    pub points: Vec<Point2>,
    /// Vertex ids of each triangle, counterclockwise; a ghost triangle's
    /// finite edge runs from the vertex after [`GHOST`] to the one before.
    pub v: Vec<[u32; 3]>,
    /// `nbr[t][i]` = triangle across edge `(v[t][i], v[t][(i+1)%3])`.
    pub nbr: Vec<[u32; 3]>,
    /// One triangle incident to each inserted vertex ([`NONE`] for points
    /// not inserted: pending, or duplicates of an earlier one).
    pub vtri: Vec<u32>,
    grid: Grid,
    /// Scratch of [`TriMesh::insert`].
    cav: Cavity,
    /// Walks start at slot 0 instead of the hinted triangle.
    #[cfg(test)]
    pub no_hint: bool,
    /// Triangles visited by location walks so far.
    #[cfg(test)]
    pub steps: std::cell::Cell<usize>,
}

impl TriMesh {
    /// A mesh over `points` holding the triangle `seed` (three of them, not
    /// collinear) and its three ghost triangles; every other point is
    /// uninserted. The perturbed triangulation does not depend on the
    /// order of insertion, so the seed changes no answer.
    pub fn new(points: &[Point2], seed: [u32; 3]) -> Self {
        let [a, b, c] = seed;
        let [a, b] = match orient2d(
            &points[a as usize],
            &points[b as usize],
            &points[c as usize],
        ) {
            Orientation::Positive => [a, b],
            _ => [b, a],
        };
        let bbox = Bbox::from_points(points);
        let span = [bbox.side(0), bbox.side(1)];
        let mut mesh = TriMesh {
            points: points.to_vec(),
            // Slot `1 + i` is the ghost triangle beyond the seed's edge `i`.
            v: vec![[a, b, c], [b, a, GHOST], [c, b, GHOST], [a, c, GHOST]],
            nbr: vec![[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
            vtri: vec![NONE; points.len()],
            grid: Grid::new(bbox.min.coords, span, points.len()),
            cav: Cavity::default(),
            #[cfg(test)]
            no_hint: false,
            #[cfg(test)]
            steps: Default::default(),
        };
        for q in [a, b, c] {
            mesh.vtri[q as usize] = 0;
            mesh.grid.put(&points[q as usize], q);
        }
        mesh
    }

    /// Appends uninserted points, anywhere in the plane. Touches no
    /// triangle; the hint grid is refilled from the vertices when the
    /// points land beyond its box (over the grown box) or the point count
    /// outgrows it (every 4×).
    pub fn append_points(&mut self, extra: &[Point2]) {
        self.points.extend_from_slice(extra);
        self.vtri.resize(self.points.len(), NONE);
        let grown = self.grid.grown(&Bbox::from_points(extra));
        if grown.is_some() || self.points.len() > self.grid.capacity() {
            let (lo, span) = grown.unwrap_or((self.grid.lo, self.grid.span));
            self.regrid(lo, span);
        }
    }

    /// Refills the hint grid over `(lo, span)` from the inserted vertices.
    fn regrid(&mut self, lo: [f64; 2], span: [f64; 2]) {
        let mut grid = Grid::new(lo, span, self.points.len());
        for (q, p) in self.points.iter().enumerate() {
            if self.vtri[q] != NONE {
                grid.put(p, q as u32);
            }
        }
        self.grid = grid;
    }

    #[inline]
    fn pt(&self, v: u32) -> &Point2 {
        &self.points[v as usize]
    }

    /// Position of [`GHOST`] in triangle `t`, if it is a ghost triangle.
    #[inline]
    fn ghost_at(&self, t: u32) -> Option<usize> {
        ghost_in(self.v[t as usize])
    }

    /// The triangles of the triangulation proper, in slab order.
    pub fn real_tris(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.v.len() as u32).filter(|&t| self.ghost_at(t).is_none())
    }

    /// Conflict of ghost triangle `v` (ghost at `k`) with point `p`: `p`
    /// lies strictly beyond its finite edge `a → b`, or on that edge's line
    /// strictly between `a` and `b`.
    #[inline]
    fn ghost_conflicts(&self, v: [u32; 3], k: usize, p: &Point2) -> bool {
        let (a, b) = (self.pt(v[(k + 1) % 3]), self.pt(v[(k + 2) % 3]));
        match orient2d(a, b, p) {
            Orientation::Positive => true,
            Orientation::Negative => false,
            Orientation::Zero => {
                // Collinear: compare along an axis the edge spans.
                let d = usize::from(a[0] == b[0]);
                let (lo, hi) = if a[d] < b[d] {
                    (a[d], b[d])
                } else {
                    (b[d], a[d])
                };
                lo < p[d] && p[d] < hi
            }
        }
    }

    /// Conflict of triangle `t` with point `q`: `q` lies strictly inside
    /// its circumcircle (a ghost triangle's: [`TriMesh::ghost_conflicts`]).
    /// A cocircular tie goes to Simulation of Simplicity over the
    /// lexicographic `(x, y)` ranks (DESIGN §4): the highest-ranked of the
    /// four points decides — no conflict if it is `q`, else the sign of
    /// `orient2d` with `q` in that vertex's place — and the second-ranked
    /// decides when that triple is collinear (both are only if `q` is a
    /// vertex).
    #[inline]
    fn conflicts(&self, t: u32, q: u32) -> bool {
        self.in_circle(self.v[t as usize], q)
    }

    /// [`TriMesh::conflicts`] of the triangle with vertices `v`, in the
    /// slab or not.
    #[inline]
    fn in_circle(&self, v: [u32; 3], q: u32) -> bool {
        if let Some(k) = ghost_in(v) {
            return self.ghost_conflicts(v, k, self.pt(q));
        }
        let [a, b, c] = v.map(|x| self.pt(x));
        match incircle(a, b, c, self.pt(q)) {
            Orientation::Positive => true,
            Orientation::Negative => false,
            Orientation::Zero => {
                let rank = |x: &u32, y: &u32| {
                    let (p, r) = (self.pt(*x), self.pt(*y));
                    p.coords.partial_cmp(&r.coords).unwrap_or(Ordering::Equal)
                };
                let mut four = [v[0], v[1], v[2], q];
                four.sort_unstable_by(|x, y| rank(y, x));
                for top in &four[..2] {
                    let Some(i) = v.iter().position(|x| x == top) else {
                        return false;
                    };
                    let mut w = v;
                    w[i] = q;
                    match orient2d(self.pt(w[0]), self.pt(w[1]), self.pt(w[2])) {
                        Orientation::Positive => return true,
                        Orientation::Negative => return false,
                        Orientation::Zero => {}
                    }
                }
                unreachable!("a duplicate point reached the cavity")
            }
        }
    }

    /// True iff triangle `t` holds `q`: contains it (boundary inclusive),
    /// or for a ghost triangle, conflicts with it.
    #[inline]
    fn holds(&self, t: u32, q: u32) -> bool {
        let (p, v) = (self.pt(q), self.v[t as usize]);
        if let Some(k) = ghost_in(v) {
            return self.ghost_conflicts(v, k, p);
        }
        (0..3).all(|i| orient2d(self.pt(v[i]), self.pt(v[(i + 1) % 3]), p) != Orientation::Negative)
    }

    /// The vertex of `t` at the location of `q`, if any.
    #[inline]
    fn vertex_at(&self, t: u32, q: u32) -> Option<u32> {
        let v = self.v[t as usize];
        v.into_iter()
            .find(|&v| v != GHOST && self.pt(v) == self.pt(q))
    }

    /// Index of the edge of `g` that borders `t`.
    #[inline]
    fn edge_to(&self, g: u32, t: u32) -> u8 {
        let j = self.nbr[g as usize].iter().position(|&x| x == t);
        j.expect("adjacency is symmetric") as u8
    }

    /// Fills `cav` with the conflict cavity of `q` around the triangle
    /// `t0` (which always conflicts): a counterclockwise tour of the
    /// cavity's dual tree.
    fn cavity(&self, t0: u32, q: u32, cav: &mut Cavity) {
        cav.region.clear();
        cav.ring.clear();
        cav.region.push(t0);
        cav.stack.push((t0, 0, 3));
        while let Some((t, i, left)) = cav.stack.pop() {
            if left > 1 {
                cav.stack.push((t, (i + 1) % 3, left - 1));
            }
            let g = self.nbr[t as usize][i as usize];
            let back = self.edge_to(g, t);
            if self.conflicts(g, q) {
                // A cycle in the cavity's dual would tour forever.
                assert!(cav.region.len() < self.v.len(), "cavity is a disc");
                cav.region.push(g);
                cav.stack.push((g, (back + 1) % 3, 2));
            } else {
                let v = self.v[t as usize];
                cav.ring.push(BEdge {
                    a: v[i as usize],
                    b: v[(i as usize + 1) % 3],
                    outer: g,
                    outer_slot: back,
                });
            }
        }
        debug_assert_eq!(cav.ring.len(), cav.region.len() + 2, "cavity is a disc");
    }

    /// Stars `cav` around the new vertex `q` in place: triangle `pos` of
    /// the fan takes the cavity's slot `pos`, the last two take two fresh
    /// slots at the end of the slab.
    fn restar(&mut self, q: u32, cav: &Cavity) {
        let (r, k) = (cav.region.len(), cav.ring.len());
        let base = self.v.len() as u32;
        let slot = |pos: usize| match cav.region.get(pos) {
            Some(&t) => t,
            None => base + (pos - r) as u32,
        };
        self.v.resize(base as usize + k - r, [NONE; 3]);
        self.nbr.resize(base as usize + k - r, [NONE; 3]);
        for (pos, e) in cav.ring.iter().enumerate() {
            debug_assert_eq!(e.b, cav.ring[(pos + 1) % k].a, "cavity boundary must chain");
            debug_assert!(
                e.a == GHOST
                    || e.b == GHOST
                    || orient2d(self.pt(e.a), self.pt(e.b), self.pt(q)) == Orientation::Positive,
                "new triangle must be CCW"
            );
            let id = slot(pos);
            self.v[id as usize] = [e.a, e.b, q];
            self.nbr[id as usize] = [e.outer, slot((pos + 1) % k), slot((pos + k - 1) % k)];
            self.nbr[e.outer as usize][e.outer_slot as usize] = id;
            if e.a != GHOST {
                self.vtri[e.a as usize] = id;
            }
        }
        self.vtri[q as usize] = slot(0);
    }

    /// A triangle that holds `q` (see [`TriMesh::holds`]): an orientation
    /// walk from the hinted triangle that stops at the first ghost
    /// triangle in conflict, step-capped with an exhaustive fallback so
    /// location terminates on any mesh.
    fn locate(&self, q: u32) -> u32 {
        let p = self.pt(q);
        let hinted = match self.grid.get(p) {
            NONE => 0,
            near => self.vtri[near as usize],
        };
        #[cfg(test)]
        let hinted = if self.no_hint { 0 } else { hinted };
        let mut t = hinted;
        'walk: for _ in 0..self.v.len() {
            #[cfg(test)]
            self.steps.set(self.steps.get() + 1);
            let v = self.v[t as usize];
            if let Some(k) = ghost_in(v) {
                if self.ghost_conflicts(v, k, p) {
                    return t;
                }
                t = self.nbr[t as usize][(k + 1) % 3];
                continue;
            }
            for i in 0..3 {
                if orient2d(self.pt(v[i]), self.pt(v[(i + 1) % 3]), p) == Orientation::Negative {
                    t = self.nbr[t as usize][i];
                    continue 'walk;
                }
            }
            return t;
        }
        (0..self.v.len() as u32)
            .find(|&t| self.holds(t, q))
            .expect("the mesh covers the plane")
    }

    /// Locates and inserts point `q`, returning the number of triangles
    /// its cavity replaced (0 for a duplicate of an inserted point).
    fn insert(&mut self, q: u32) -> usize {
        let t0 = self.locate(q);
        if let Some(v) = self.vertex_at(t0, q) {
            // Every insertion order puts the lowest index of a location
            // first (Morton order by a stable sort), so that copy stays.
            debug_assert!(v <= q, "duplicate {q} inserted before {v}");
            return 0;
        }
        let mut cav = std::mem::take(&mut self.cav);
        self.cavity(t0, q, &mut cav);
        self.restar(q, &cav);
        let p = self.points[q as usize];
        self.grid.put(&p, q);
        let killed = cav.region.len();
        self.cav = cav;
        killed
    }

    /// The one sequential insertion loop: inserts `ids` in order until
    /// done or more than `budget` triangles were replaced. Returns the
    /// points inserted (duplicates and seed vertices excluded), the
    /// triangles replaced, and whether the run completed.
    pub fn insert_all(
        &mut self,
        ids: impl IntoIterator<Item = u32>,
        budget: f64,
    ) -> (usize, usize, bool) {
        let (mut inserted, mut killed) = (0, 0);
        for q in ids {
            let k = self.insert(q);
            killed += k;
            inserted += usize::from(k > 0);
            if killed as f64 > budget {
                return (inserted, killed, false);
            }
        }
        (inserted, killed, true)
    }

    /// The real triangles (no ghost vertex).
    pub fn extract(&self) -> Vec<[u32; 3]> {
        self.real_tris().map(|t| self.v[t as usize]).collect()
    }

    /// Sorted `(min, max)` edges of the real triangles. Each is the
    /// half-edge `a → b` with `a < b` of exactly one slab triangle (ghost
    /// triangles included, their ghost edges skipped), so one pass counts
    /// the edges by `a`, a second places them in `a`'s bucket, and each
    /// bucket's few upper ends are insertion-sorted: no comparison sort,
    /// no neighbour lookup.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let n = self.points.len();
        // `end[a + 1]` counts `a`'s edges, then (summed) starts its bucket.
        let mut end = vec![0u32; n + 1];
        for v in &self.v {
            for i in 0..3 {
                let (a, b) = (v[i], v[(i + 1) % 3]);
                if a < b && b < GHOST {
                    end[a as usize + 1] += 1;
                }
            }
        }
        for a in 1..end.len() {
            end[a] += end[a - 1];
        }
        let mut out = vec![(0, 0); end[n] as usize];
        for v in &self.v {
            for i in 0..3 {
                let (a, b) = (v[i], v[(i + 1) % 3]);
                if a < b && b < GHOST {
                    let at = &mut end[a as usize];
                    out[*at as usize] = (a, b);
                    *at += 1; // ends at the start of bucket `a + 1`
                }
            }
        }
        let mut lo = 0;
        for &hi in &end[..n] {
            let bucket = &mut out[lo..hi as usize];
            for i in 1..bucket.len() {
                let e = bucket[i];
                let mut j = i;
                while j > 0 && bucket[j - 1].1 > e.1 {
                    bucket[j] = bucket[j - 1];
                    j -= 1;
                }
                bucket[j] = e;
            }
            lo = hi as usize;
        }
        out
    }

    /// Removes the points at `gone` (strictly ascending positions) and
    /// renumbers the rest in order; `kept` is the surviving points, which
    /// the caller has checked span the plane. Each removed vertex's star
    /// is refilled ([`TriMesh::fill`]) — unless an uninserted copy of its
    /// point survives, when the lowest such copy takes over its triangles
    /// as a build over `kept` would have inserted it — and its two spare
    /// slots are filled from the slab's end, so the slab stays exactly the
    /// live mesh. The hint grid is refilled over its box.
    pub fn remove_all(&mut self, gone: &[u32], kept: Vec<Point2>) {
        // `NONE` marks a removed point until the survivors are numbered.
        let mut renumber = vec![0u32; self.points.len()];
        for &x in gone {
            renumber[x as usize] = NONE;
        }
        // The kernel's `==` has `-0.0 == 0.0`; so do these keys.
        let at = |p: &Point2| p.coords.map(|c| (c + 0.0).to_bits());
        let mut copies = std::collections::HashMap::new();
        for (q, p) in self.points.iter().enumerate() {
            if self.vtri[q] == NONE && renumber[q] != NONE {
                copies.entry(at(p)).or_insert(q as u32);
            }
        }
        let (mut cav, mut ears) = (std::mem::take(&mut self.cav), Ears::default());
        for &x in gone {
            if self.vtri[x as usize] == NONE {
                continue;
            }
            match copies.get(&at(self.pt(x))) {
                Some(&copy) => self.rename(x, copy),
                None => {
                    self.star(x, &mut cav);
                    self.fill(&mut cav, &mut ears);
                    let k = cav.region.len();
                    let (s, t) = (cav.region[k - 2], cav.region[k - 1]);
                    self.free_slot(s.max(t));
                    self.free_slot(s.min(t));
                }
            }
            self.vtri[x as usize] = NONE;
        }
        self.cav = cav;
        for (next, r) in renumber.iter_mut().filter(|r| **r != NONE).enumerate() {
            *r = next as u32;
        }
        for x in self.v.iter_mut().flatten().filter(|x| **x != GHOST) {
            *x = renumber[*x as usize];
        }
        let mut q = 0;
        self.vtri.retain(|_| {
            q += 1;
            renumber[q - 1] != NONE
        });
        self.points = kept;
        self.regrid(self.grid.lo, self.grid.span);
    }

    /// Gives vertex `x`'s triangles to `copy`, an uninserted point at the
    /// same location.
    fn rename(&mut self, x: u32, copy: u32) {
        let t0 = self.vtri[x as usize];
        let mut t = t0;
        loop {
            let i = self.v[t as usize].iter().position(|&y| y == x);
            let i = i.expect("the star of a vertex holds it");
            self.v[t as usize][i] = copy;
            t = self.nbr[t as usize][(i + 2) % 3];
            if t == t0 {
                break;
            }
        }
        self.vtri[copy as usize] = t0;
    }

    /// Fills `cav` with the star of vertex `x`: its triangles
    /// counterclockwise around it in `region`, and in `ring` the edge of
    /// each opposite `x` with the triangle beyond it — the link polygon,
    /// counterclockwise, [`GHOST`] a corner when `x` is on the hull.
    fn star(&self, x: u32, cav: &mut Cavity) {
        cav.region.clear();
        cav.ring.clear();
        let t0 = self.vtri[x as usize];
        let mut t = t0;
        loop {
            let v = self.v[t as usize];
            let i = v.iter().position(|&y| y == x);
            let i = i.expect("the star of a vertex holds it");
            let outer = self.nbr[t as usize][(i + 1) % 3];
            cav.region.push(t);
            cav.ring.push(BEdge {
                a: v[(i + 1) % 3],
                b: v[(i + 2) % 3],
                outer,
                outer_slot: self.edge_to(outer, t),
            });
            t = self.nbr[t as usize][(i + 2) % 3];
            if t == t0 {
                break;
            }
            // A cycle that misses `t0` would walk forever.
            assert!(cav.region.len() < self.v.len(), "star is a disc");
        }
    }

    /// True iff the ear `tri`, cut at position `at` of the polygon `ring`
    /// (linked by `next`), is a triangle of the mesh without the removed vertex:
    /// proper (a real one counterclockwise), and in conflict with no other
    /// corner of the polygon. The polygon's edges are edges of that mesh,
    /// so its triangles there are the polygon's own Delaunay triangles,
    /// and its corners are the only points that can conflict with one.
    fn is_ear(&self, tri: [u32; 3], ring: &[BEdge], next: &[u32], at: usize) -> bool {
        if ghost_in(tri).is_none()
            && orient2d(self.pt(tri[0]), self.pt(tri[1]), self.pt(tri[2])) != Orientation::Positive
        {
            return false;
        }
        // The corners after the ear's last one, back round to its first.
        let mut j = next[next[at] as usize] as usize;
        loop {
            j = next[j] as usize;
            if j == at {
                return true;
            }
            let q = ring[j].a;
            if q != GHOST && self.in_circle(tri, q) {
                return false;
            }
        }
    }

    /// Triangulates the link polygon of `cav` (a star) by cutting ears in
    /// place of the removed vertex: the `k − 2` new triangles take the
    /// star's first `k − 2` slots, and its last two are left free. An ear
    /// that fails is tried again only once one of its edges changes, so a
    /// link of `k` corners costs `O(k²)` conflict tests.
    fn fill(&mut self, cav: &mut Cavity, ears: &mut Ears) {
        let k = cav.ring.len();
        ears.next.clear();
        ears.next.extend((1..=k as u32).map(|i| i % k as u32));
        ears.prev.clear();
        ears.prev
            .extend((0..k as u32).map(|i| (i + k as u32 - 1) % k as u32));
        ears.failed.clear();
        ears.failed.resize(k, false);
        let (mut i, mut left, mut used, mut tried) = (0usize, k, 0, 0);
        while left > 3 {
            let j = ears.next[i] as usize;
            let (e, f) = (cav.ring[i], cav.ring[j]);
            let tri = [e.a, e.b, f.b];
            if !ears.failed[i] && self.is_ear(tri, &cav.ring, &ears.next, i) {
                let id = cav.region[used];
                used += 1;
                self.put_tri(id, tri, [Some(e), Some(f), None]);
                cav.ring[i] = BEdge {
                    a: e.a,
                    b: f.b,
                    outer: id,
                    outer_slot: 2,
                };
                let after = ears.next[j];
                ears.next[i] = after;
                ears.prev[after as usize] = i as u32;
                left -= 1;
                // The ears on both sides of the new edge changed.
                let before = ears.prev[i] as usize;
                ears.failed[i] = false;
                ears.failed[before] = false;
                i = before;
                tried = 0;
                continue;
            }
            ears.failed[i] = true;
            tried += 1;
            assert!(tried <= left, "a link polygon has a Delaunay ear");
            i = j;
        }
        let (j, l) = (
            ears.next[i] as usize,
            ears.next[ears.next[i] as usize] as usize,
        );
        let (e, f, g) = (cav.ring[i], cav.ring[j], cav.ring[l]);
        debug_assert_eq!(g.b, e.a, "the last three edges close a triangle");
        self.put_tri(
            cav.region[used],
            [e.a, e.b, f.b],
            [Some(e), Some(f), Some(g)],
        );
    }

    /// Writes triangle `tri` into slot `id`, each edge `i` facing the
    /// triangle beyond `edges[i]` (pointed back at `id`), or left for a
    /// later triangle to claim.
    fn put_tri(&mut self, id: u32, tri: [u32; 3], edges: [Option<BEdge>; 3]) {
        self.v[id as usize] = tri;
        for (i, e) in edges.iter().enumerate() {
            let Some(e) = e else { continue };
            self.nbr[id as usize][i] = e.outer;
            self.nbr[e.outer as usize][e.outer_slot as usize] = id;
        }
        for x in tri.into_iter().filter(|&x| x != GHOST) {
            self.vtri[x as usize] = id;
        }
    }

    /// Empties slot `f` by moving the slab's last triangle into it and
    /// repointing that triangle's neighbours and vertices.
    fn free_slot(&mut self, f: u32) {
        let last = self.v.len() as u32 - 1;
        if f != last {
            let (v, nbr) = (self.v[last as usize], self.nbr[last as usize]);
            self.v[f as usize] = v;
            self.nbr[f as usize] = nbr;
            for g in nbr {
                for s in &mut self.nbr[g as usize] {
                    if *s == last {
                        *s = f;
                    }
                }
            }
            for x in v.into_iter().filter(|&x| x != GHOST) {
                if self.vtri[x as usize] == last {
                    self.vtri[x as usize] = f;
                }
            }
        }
        self.v.pop();
        self.nbr.pop();
    }
}

/// Position of [`GHOST`] among a triangle's vertices `v`, if it is a ghost
/// triangle.
#[inline]
fn ghost_in(v: [u32; 3]) -> Option<usize> {
    v.iter().position(|&x| x == GHOST)
}

/// Validates the Delaunay property directly: every triangle is CCW and no
/// input point lies strictly inside any circumcircle. `O(T · n)` — tests
/// only.
pub fn validate_delaunay(points: &[Point2], triangles: &[[u32; 3]]) -> Result<(), String> {
    for (ti, t) in triangles.iter().enumerate() {
        let (a, b, c) = (
            &points[t[0] as usize],
            &points[t[1] as usize],
            &points[t[2] as usize],
        );
        if orient2d(a, b, c) != Orientation::Positive {
            return Err(format!("triangle {ti} not CCW: {t:?}"));
        }
        for (qi, q) in points.iter().enumerate() {
            if incircle(a, b, c, q) == Orientation::Positive {
                return Err(format!(
                    "point {qi} strictly inside circumcircle of triangle {ti} {t:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bw::check_input;
    use pargeo_datagen::uniform_cube;

    /// `n` uniform points in the unit square moved right by `dx`.
    fn square(n: usize, seed: u64, dx: f64) -> Vec<Point2> {
        let side = (n as f64).sqrt();
        let pts = uniform_cube::<2>(n, seed).into_iter();
        pts.map(|p| Point2::new([dx + p[0] / side, p[1] / side]))
            .collect()
    }

    /// A mesh over `build`, then `batches` appended and inserted one by
    /// one, and how many times the hint grid's box grew on the way.
    fn grow(build: &[Point2], batches: &[Vec<Point2>]) -> (TriMesh, usize) {
        let mut mesh = TriMesh::new(build, check_input(build).unwrap());
        mesh.insert_all(0..build.len() as u32, f64::INFINITY);
        let mut growths = 0;
        for batch in batches {
            let (first, span) = (mesh.points.len() as u32, mesh.grid.span);
            mesh.append_points(batch);
            growths += usize::from(mesh.grid.span != span);
            mesh.insert_all(first..mesh.points.len() as u32, f64::INFINITY);
        }
        (mesh, growths)
    }

    /// Batches that land beside the build's box, or drift ever further
    /// from it, start their walks near their own points: the hint grid
    /// grows over them, so walks stay a few triangles long (a grid kept on
    /// the build's box sends every such point in from a border cell, tens
    /// of triangles away), and it grows by doublings, not once a batch.
    #[test]
    fn walks_stay_short_when_batches_leave_the_build_box() {
        let build = square(500, 1, 0.0);
        // Batch k lands at x in [1, 2], or in [1 + k, 2 + k].
        let shifts: [(&str, fn(u64) -> f64, usize); 2] =
            [("beside", |_| 1.0, 1), ("drifting", |k| 1.0 + k as f64, 5)];
        for (name, shift, doublings) in shifts {
            let batches: Vec<Vec<Point2>> = (0..20).map(|k| square(250, 2 + k, shift(k))).collect();
            let (mesh, growths) = grow(&build, &batches);
            let points = mesh.points.len();
            assert!(
                mesh.steps.get() < 10 * points,
                "{name}: {} walk steps for {points} points",
                mesh.steps.get()
            );
            assert_eq!(growths, doublings, "{name}");
        }
    }

    /// A batch from the build's own distribution may beat its bbox by a
    /// hair; that is no reason to refill the grid.
    #[test]
    fn a_batch_a_hair_outside_the_box_keeps_the_grid() {
        let build = square(5_000, 3, 0.0);
        let batch = square(500, 4, 0.0);
        assert!(!Bbox::from_points(&build).contains_box(&Bbox::from_points(&batch)));
        assert_eq!(grow(&build, &[batch]).1, 0);
    }
}

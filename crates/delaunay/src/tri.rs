//! The Bowyer–Watson kernel: a flat triangle slab with edge adjacency,
//! in-place cavity re-starring and hinted point location.
//!
//! - **The slab is exactly the live mesh.** `v[t]` / `nbr[t]` are plain
//!   arrays; a cavity of `r` triangles around a new vertex is re-starred
//!   into its own `r` slots plus two fresh ones, so no slot is ever dead
//!   and the slab of a mesh over `m` distinct points is `2m + 1` long.
//! - **Super vertices never move.** Their ids are the fixed sentinels
//!   [`SUPER`]`..SUPER + 3` above every real id, so a real vertex id *is*
//!   its input index and appending points rewrites no triangle.
//! - **Cavities need no membership set.** The triangles in strict conflict
//!   with a point form a disc without interior vertices (every vertex of
//!   a Delaunay triangulation survives an insertion), so their dual graph
//!   is a tree: one counterclockwise depth-first tour from the containing
//!   triangle that never re-crosses the edge it entered by visits every
//!   cavity triangle once and emits the boundary edges already in cycle
//!   order.
//! - **Location is a hint, not an input.** A walk starts at a triangle
//!   incident to a nearby inserted vertex, found through a coarse-to-fine
//!   grid over the mesh's bbox. Where a walk starts cannot change what is
//!   built: the cavity is the *set* of triangles whose circumcircle
//!   strictly contains the point, and every triangle containing the point
//!   belongs to it.

use pargeo_geometry::{incircle, orient2d, Bbox, Orientation, Point2};

/// "No triangle" in `nbr`, "no vertex" in the hint arrays.
pub(crate) const NONE: u32 = u32::MAX;
/// First of the three super-vertex ids.
pub(crate) const SUPER: u32 = u32::MAX - 3;

/// A directed cavity-boundary edge `a → b` (as in its cavity triangle)
/// and the triangle beyond it, whose `nbr[outer_slot]` points back in.
#[derive(Debug, Clone, Copy)]
struct BEdge {
    a: u32,
    b: u32,
    outer: u32,
    outer_slot: u8,
}

/// One point's conflict cavity: its triangles and its boundary cycle.
#[derive(Debug, Default)]
struct Cavity {
    region: Vec<u32>,
    /// Boundary edges in counterclockwise cycle order; `ring.len() ==
    /// region.len() + 2`.
    ring: Vec<BEdge>,
    /// Tour frames `(triangle, next edge, edges left)`.
    stack: Vec<(u32, u8, u8)>,
}

/// Pyramid of square grids over the mesh's bbox, level `l` holding
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

    fn cell(&self, p: &Point2) -> [usize; 2] {
        let side = 1usize << self.top;
        // A zero span gives NaN, which casts to cell 0.
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
    /// Corners of the enclosing super-triangle, vertex ids `SUPER..`.
    sup: [Point2; 3],
    /// Vertex ids of each triangle, counterclockwise.
    pub v: Vec<[u32; 3]>,
    /// `nbr[t][i]` = triangle across edge `(v[t][i], v[t][(i+1)%3])`;
    /// [`NONE`] on the outer boundary of the super-triangle.
    nbr: Vec<[u32; 3]>,
    /// One triangle incident to each inserted vertex ([`NONE`] for points
    /// not inserted: pending, or duplicates of an earlier one).
    vtri: Vec<u32>,
    grid: Grid,
    /// Scratch of [`TriMesh::insert`].
    cav: Cavity,
    /// Walks start at slot 0 instead of the hinted triangle.
    #[cfg(test)]
    pub no_hint: bool,
}

impl TriMesh {
    /// A mesh of one super-triangle enclosing `bbox` (a pure function of
    /// it), with no points yet.
    pub fn new(bbox: &Bbox<2>) -> Self {
        let c = bbox.center();
        let r = bbox.diag_sq().sqrt().max(1.0) * 1e6;
        // Equilateral-ish super-triangle, counterclockwise.
        let sup = [
            Point2::new([c[0] - 1.8 * r, c[1] - r]),
            Point2::new([c[0] + 1.8 * r, c[1] - r]),
            Point2::new([c[0], c[1] + 2.1 * r]),
        ];
        debug_assert_eq!(orient2d(&sup[0], &sup[1], &sup[2]), Orientation::Positive);
        let span = [bbox.side(0), bbox.side(1)];
        TriMesh {
            points: Vec::new(),
            sup,
            v: vec![[SUPER, SUPER + 1, SUPER + 2]],
            nbr: vec![[NONE; 3]],
            vtri: Vec::new(),
            grid: Grid::new(bbox.min.coords, span, 0),
            cav: Cavity::default(),
            #[cfg(test)]
            no_hint: false,
        }
    }

    /// A mesh enclosing `points`, holding all of them uninserted.
    pub fn with_points(points: &[Point2]) -> Self {
        let mut mesh = Self::new(&Bbox::from_points(points));
        mesh.append_points(points);
        mesh
    }

    /// Appends uninserted points, which must lie inside the bbox the mesh
    /// was built from. Touches no triangle; when the point count outgrows
    /// the hint grid (every 4×) the grid is refilled from the vertices.
    pub fn append_points(&mut self, extra: &[Point2]) {
        self.points.extend_from_slice(extra);
        self.vtri.resize(self.points.len(), NONE);
        if self.points.len() > self.grid.capacity() {
            let mut grid = Grid::new(self.grid.lo, self.grid.span, self.points.len());
            for (q, p) in self.points.iter().enumerate() {
                if self.vtri[q] != NONE {
                    grid.put(p, q as u32);
                }
            }
            self.grid = grid;
        }
    }

    #[inline]
    fn pt(&self, v: u32) -> &Point2 {
        if v < SUPER {
            &self.points[v as usize]
        } else {
            &self.sup[(v - SUPER) as usize]
        }
    }

    /// True iff no vertex of `t` is a super vertex.
    #[inline]
    fn is_real(&self, t: u32) -> bool {
        self.v[t as usize].iter().all(|&v| v < SUPER)
    }

    /// The triangles of the triangulation proper, in slab order.
    pub fn real_tris(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.v.len() as u32).filter(|&t| self.is_real(t))
    }

    /// Strict conflict: `q` lies strictly inside the circumcircle of `t`.
    #[inline]
    fn conflicts(&self, t: u32, q: u32) -> bool {
        let [a, b, c] = self.v[t as usize];
        incircle(self.pt(a), self.pt(b), self.pt(c), self.pt(q)) == Orientation::Positive
    }

    /// True iff `q` lies inside triangle `t` (boundary inclusive).
    #[inline]
    fn contains(&self, t: u32, q: u32) -> bool {
        let v = self.v[t as usize];
        (0..3).all(|i| {
            orient2d(self.pt(v[i]), self.pt(v[(i + 1) % 3]), self.pt(q)) != Orientation::Negative
        })
    }

    /// True iff `q` coincides with a vertex of `t`.
    #[inline]
    fn is_vertex_of(&self, t: u32, q: u32) -> bool {
        self.v[t as usize].iter().any(|&v| self.pt(v) == self.pt(q))
    }

    /// Index of the edge of `g` that borders `t`.
    #[inline]
    fn edge_to(&self, g: u32, t: u32) -> u8 {
        let j = self.nbr[g as usize].iter().position(|&x| x == t);
        j.expect("adjacency is symmetric") as u8
    }

    /// Fills `cav` with the conflict cavity of `q` around the containing
    /// triangle `t0` (which always conflicts): a counterclockwise tour of
    /// the cavity's dual tree.
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
            let back = if g == NONE { 0 } else { self.edge_to(g, t) };
            if g != NONE && self.conflicts(g, q) {
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
            debug_assert_eq!(
                orient2d(self.pt(e.a), self.pt(e.b), self.pt(q)),
                Orientation::Positive,
                "new triangle must be CCW"
            );
            let id = slot(pos);
            self.v[id as usize] = [e.a, e.b, q];
            self.nbr[id as usize] = [e.outer, slot((pos + 1) % k), slot((pos + k - 1) % k)];
            if e.outer != NONE {
                self.nbr[e.outer as usize][e.outer_slot as usize] = id;
            }
            if e.a < SUPER {
                self.vtri[e.a as usize] = id;
            }
        }
        self.vtri[q as usize] = slot(0);
    }

    /// A triangle containing `q` (boundary inclusive): an orientation walk
    /// from the hinted triangle, step-capped with an exhaustive fallback
    /// so location terminates on any mesh. `None` iff `q` lies outside the
    /// super-triangle.
    fn locate(&self, q: u32) -> Option<u32> {
        let p = self.pt(q);
        let hinted = match self.grid.get(p) {
            NONE => 0,
            near => self.vtri[near as usize],
        };
        #[cfg(test)]
        let hinted = if self.no_hint { 0 } else { hinted };
        let mut t = hinted;
        'walk: for _ in 0..self.v.len() {
            let v = self.v[t as usize];
            for i in 0..3 {
                if orient2d(self.pt(v[i]), self.pt(v[(i + 1) % 3]), p) == Orientation::Negative {
                    match self.nbr[t as usize][i] {
                        NONE => break 'walk,
                        g => t = g,
                    }
                    continue 'walk;
                }
            }
            return Some(t);
        }
        (0..self.v.len() as u32).find(|&t| self.contains(t, q))
    }

    /// Locates and inserts point `q`, returning the number of triangles
    /// its cavity replaced (0 for a duplicate of an inserted point), or
    /// `None` if no triangle contains `q`.
    fn insert(&mut self, q: u32) -> Option<usize> {
        let t0 = self.locate(q)?;
        if self.is_vertex_of(t0, q) {
            return Some(0); // duplicate point collapses onto the first copy
        }
        let mut cav = std::mem::take(&mut self.cav);
        self.cavity(t0, q, &mut cav);
        self.restar(q, &cav);
        let p = self.points[q as usize];
        self.grid.put(&p, q);
        let killed = cav.region.len();
        self.cav = cav;
        Some(killed)
    }

    /// The one sequential insertion loop: inserts `ids` in order until
    /// done or more than `budget` triangles were replaced. Returns the
    /// points inserted (duplicates excluded), the triangles replaced, and
    /// whether the run completed.
    pub fn insert_all(
        &mut self,
        ids: impl IntoIterator<Item = u32>,
        budget: f64,
    ) -> (usize, usize, bool) {
        let (mut inserted, mut killed) = (0, 0);
        for q in ids {
            let Some(k) = self.insert(q) else {
                debug_assert!(false, "the super-triangle encloses every point of its bbox");
                return (inserted, killed, false);
            };
            killed += k;
            inserted += usize::from(k > 0);
            if killed as f64 > budget {
                return (inserted, killed, false);
            }
        }
        (inserted, killed, true)
    }

    /// The real triangles (no super vertices).
    pub fn extract(&self) -> Vec<[u32; 3]> {
        self.real_tris().map(|t| self.v[t as usize]).collect()
    }

    /// Sorted `(min, max)` edges of the real triangles, each emitted once
    /// straight from adjacency: by the lower-numbered of its two real
    /// triangles, or by its only one.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(3 * self.points.len());
        for t in self.real_tris() {
            let v = self.v[t as usize];
            for (i, &g) in self.nbr[t as usize].iter().enumerate() {
                if g > t || !self.is_real(g) {
                    let (a, b) = (v[i], v[(i + 1) % 3]);
                    out.push((a.min(b), a.max(b)));
                }
            }
        }
        out.sort_unstable();
        out
    }
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

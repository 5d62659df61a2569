//! The facet mesh: triangles with ridge adjacency and conflict lists.
//!
//! This is the "simple and fast data structure" of §3, kept flat: one slab
//! of facet slots (vertex ids, ridge neighbors, conflict list) in which a
//! dying cavity's slots — and the storage of their conflict lists — are
//! handed straight to the fan that replaces it, so the slab tracks the
//! live mesh. Every algorithm in this module inserts a point through the
//! same three steps of [`Complex`] (`find_cavity`, `replace_cavity` +
//! `distribute`, `install`); the sequential quickhull runs them back to
//! back, the reservation driver runs the first and third for many points
//! at once.

use crate::reservation::{Complex, NONE};
use pargeo_geometry::{orient3d, Orientation, Point3};
use pargeo_parlay as parlay;

/// A 3D convex hull: outward-oriented triangles over the input points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hull3d {
    /// Triangles `[a, b, c]` (indices into the input), oriented so that the
    /// hull interior lies on the `Positive` side of `orient3d(a, b, c, ·)`.
    pub facets: Vec<[u32; 3]>,
    /// Sorted unique hull vertex indices.
    pub vertices: Vec<u32>,
}

impl Hull3d {
    /// Number of hull vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of hull facets.
    pub fn num_facets(&self) -> usize {
        self.facets.len()
    }

    /// Translates a hull over the sub-sequence `points[ids[0]], points[ids[1]], …`
    /// (`ids` ascending) back to indices into `points`.
    pub(crate) fn remap(mut self, ids: &[u32]) -> Hull3d {
        for v in self.facets.iter_mut().flatten() {
            *v = ids[*v as usize];
        }
        for v in self.vertices.iter_mut() {
            *v = ids[*v as usize];
        }
        self
    }
}

/// Strict visibility: `q` sees the outward-oriented triangle `f` iff it is
/// strictly outside its plane.
#[inline]
pub(crate) fn sees(points: &[Point3], f: &[u32; 3], q: u32) -> bool {
    orient3d(
        &points[f[0] as usize],
        &points[f[1] as usize],
        &points[f[2] as usize],
        &points[q as usize],
    ) == Orientation::Negative
}

/// The four faces of the tetrahedron `t`, each oriented outward (its
/// opposite vertex on the `Positive` side); face `k` omits `t[3 - k]`.
pub(crate) fn tetra_faces(points: &[Point3], t: [u32; 4]) -> [[u32; 3]; 4] {
    let outward = |mut f: [u32; 3], opposite: u32| {
        if sees(points, &f, opposite) {
            f.swap(1, 2);
        }
        f
    };
    [
        outward([t[0], t[1], t[2]], t[3]),
        outward([t[0], t[1], t[3]], t[2]),
        outward([t[0], t[2], t[3]], t[1]),
        outward([t[1], t[2], t[3]], t[0]),
    ]
}

/// A horizon ridge `a → b` (directed as in the dying facet it bounds) and
/// the surviving facet across it.
struct Ridge {
    a: u32,
    b: u32,
    outer: u32,
    outer_slot: u8,
}

/// One point's insertion in flight; every buffer is reused across
/// insertions.
#[derive(Default)]
pub(crate) struct Cavity {
    /// The point being inserted.
    pub q: u32,
    /// Facets strictly visible to `q`, in tour order.
    pub visible: Vec<u32>,
    /// The boundary ring: surviving facets across the horizon, each once.
    pub ring: Vec<u32>,
    /// The horizon in cycle order (`horizon[i].b == horizon[i + 1].a`).
    horizon: Vec<Ridge>,
    /// Slots of the new fan; `fan[i]` stands on `horizon[i]`.
    pub fan: Vec<u32>,
    /// Conflict points of the dead facets, awaiting redistribution.
    orphans: Vec<u32>,
    /// The fan's conflict lists while they are being filled.
    lists: Vec<Vec<u32>>,
}

/// Per-worker state of the cavity search: a stamp per facet slot instead
/// of a visited set.
#[derive(Default)]
pub(crate) struct Scratch {
    stamp: Vec<u32>,
    epoch: u32,
    /// `(facet, next ridge, ridges left)` continuations of the tour.
    stack: Vec<(u32, u8, u8)>,
}

impl Scratch {
    /// Starts a search over `slots` facets; returns the "visible" stamp
    /// (the "tested, not visible" stamp is one above it).
    fn begin(&mut self, slots: usize) -> u32 {
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
        }
        if self.epoch >= u32::MAX - 3 {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.epoch
    }
}

pub(crate) struct Mesh<'a> {
    pub points: &'a [Point3],
    /// Vertex ids per slot, outward-oriented; `[NONE; 3]` in a free slot.
    v: Vec<[u32; 3]>,
    /// `nbr[f][i]` = facet across the ridge `(v[f][i], v[f][(i+1)%3])`.
    nbr: Vec<[u32; 3]>,
    /// Conflict lists: visible points assigned to each facet (empty in a
    /// free slot). A list's storage stays with its slot across reuse.
    pub pts: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl<'a> Mesh<'a> {
    /// Builds the initial tetrahedron mesh over vertex ids `t`.
    pub fn new_tetrahedron(points: &'a [Point3], t: [u32; 4]) -> Self {
        let v = tetra_faces(points, t).to_vec();
        // The facet across ridge i of face f holds the ridge's two vertices
        // plus the one f omits, i.e. it is the face omitting f's third.
        let nbr = v
            .iter()
            .map(|f| {
                [2, 0, 1].map(|third| {
                    let omitted = t.iter().position(|&x| x == f[third]);
                    3 - omitted.expect("face vertex is a tetrahedron vertex") as u32
                })
            })
            .collect();
        Mesh {
            points,
            v,
            nbr,
            pts: vec![Vec::new(); 4],
            free: Vec::new(),
        }
    }

    /// Strict visibility of facet `f` from point `q`.
    #[inline]
    pub fn sees(&self, f: u32, q: u32) -> bool {
        sees(self.points, &self.v[f as usize], q)
    }

    /// The slot of the directed ridge `a → b` in facet `g`.
    fn slot_of(&self, g: u32, a: u32, b: u32) -> u8 {
        let gv = &self.v[g as usize];
        (0..3)
            .find(|&j| gv[j] == a && gv[(j + 1) % 3] == b)
            .expect("ridge must exist in the facet across it") as u8
    }

    /// The conflict point of `f` furthest above its plane (doubles;
    /// selection only). `f`'s list must be non-empty.
    fn furthest(&self, f: u32) -> u32 {
        let [a, b, c] = self.v[f as usize].map(|i| self.points[i as usize]);
        let n = (b - a).cross(&(c - a));
        let pts = &self.pts[f as usize];
        let best = parlay::max_index_by(pts, |&t| (self.points[t as usize] - a).dot(&n));
        pts[best.expect("facet has conflicts")]
    }

    /// Extracts the hull from the live facets.
    pub fn extract(&self) -> Hull3d {
        let facets: Vec<[u32; 3]> = self.v.iter().filter(|f| f[0] != NONE).copied().collect();
        let mut vertices: Vec<u32> = facets.iter().flatten().copied().collect();
        vertices.sort_unstable();
        vertices.dedup();
        Hull3d { facets, vertices }
    }
}

impl Complex for Mesh<'_> {
    type Cavity = Cavity;
    type Scratch = Scratch;
    const FACETS_PER_ATTEMPT: usize = 64;

    fn slots(&self) -> usize {
        self.v.len()
    }

    fn live(&self) -> usize {
        self.v.len() - self.free.len()
    }

    fn seed_facet(&self, q: u32) -> u32 {
        (0..4).find(|&f| self.sees(f, q)).unwrap_or(NONE)
    }

    fn seed(&mut self, q: u32, f: u32) {
        if f != NONE {
            self.pts[f as usize].push(q);
        }
    }

    fn conflicts(&self, f: u32) -> &[u32] {
        &self.pts[f as usize]
    }

    /// One counterclockwise tour of the visible region yields its facets,
    /// the boundary ring, and the horizon already in cycle order. (The
    /// region is a disc; ridges between two facets the tour has both
    /// reached are cuts hanging off its boundary, so skipping them leaves
    /// the order of the boundary ridges intact.)
    fn find_cavity(&self, s: &mut Scratch, f0: u32, q: u32, cav: &mut Cavity) {
        let q = if q == NONE { self.furthest(f0) } else { q };
        debug_assert!(self.sees(f0, q));
        cav.q = q;
        cav.visible.clear();
        cav.ring.clear();
        cav.horizon.clear();
        let vis = s.begin(self.v.len());
        let hid = vis + 1;
        s.stamp[f0 as usize] = vis;
        cav.visible.push(f0);
        s.stack.push((f0, 0, 3));
        while let Some((f, i, left)) = s.stack.pop() {
            if left > 1 {
                s.stack.push((f, (i + 1) % 3, left - 1));
            }
            let fv = self.v[f as usize];
            let (a, b) = (fv[i as usize], fv[(i as usize + 1) % 3]);
            let g = self.nbr[f as usize][i as usize];
            let stamp = s.stamp[g as usize];
            if stamp == vis {
                continue;
            }
            if stamp != hid {
                if self.sees(g, q) {
                    s.stamp[g as usize] = vis;
                    cav.visible.push(g);
                    s.stack.push((g, (self.slot_of(g, b, a) + 1) % 3, 2));
                    continue;
                }
                s.stamp[g as usize] = hid;
                cav.ring.push(g);
            }
            cav.horizon.push(Ridge {
                a,
                b,
                outer: g,
                outer_slot: self.slot_of(g, b, a),
            });
        }
        debug_assert!(cav.horizon.len() >= 3, "horizon must be a cycle");
    }

    fn claimed(cav: &Cavity) -> impl Iterator<Item = u32> + '_ {
        cav.visible.iter().chain(&cav.ring).copied()
    }

    /// The fan takes the cavity's own slots (plus fresh ones, or minus
    /// freed ones); the ring facets' neighbor slots are rewired.
    fn replace_cavity(&mut self, cav: &mut Cavity) {
        let k = cav.horizon.len();
        cav.orphans.clear();
        for &f in &cav.visible {
            cav.orphans.append(&mut self.pts[f as usize]);
        }
        cav.fan.clear();
        cav.fan.extend(cav.visible.iter().take(k));
        for &f in cav.visible.iter().skip(k) {
            self.v[f as usize] = [NONE; 3];
            self.free.push(f);
        }
        while cav.fan.len() < k {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.v.push([NONE; 3]);
                self.nbr.push([NONE; 3]);
                self.pts.push(Vec::new());
                self.v.len() as u32 - 1
            });
            cav.fan.push(slot);
        }
        debug_assert!(cav.lists.is_empty());
        for (pos, r) in cav.horizon.iter().enumerate() {
            debug_assert_eq!(r.b, cav.horizon[(pos + 1) % k].a, "horizon must chain");
            let id = cav.fan[pos];
            // Ridge 0 `(a, b)` keeps the outer facet; ridge 1 `(b, q)` meets
            // the next fan facet (whose `a` is this `b`); ridge 2 `(q, a)`
            // the previous one.
            self.v[id as usize] = [r.a, r.b, cav.q];
            self.nbr[id as usize] = [r.outer, cav.fan[(pos + 1) % k], cav.fan[(pos + k - 1) % k]];
            self.nbr[r.outer as usize][r.outer_slot as usize] = id;
            cav.lists.push(std::mem::take(&mut self.pts[id as usize]));
        }
    }

    /// Onto the first fan facet that sees the point.
    fn distribute(&self, cav: &mut Cavity, placed: impl Fn(u32, u32)) {
        for &t in &cav.orphans {
            if t == cav.q {
                continue;
            }
            match cav.fan.iter().position(|&f| self.sees(f, t)) {
                Some(i) => {
                    cav.lists[i].push(t);
                    placed(t, cav.fan[i]);
                }
                None => placed(t, NONE),
            }
        }
    }

    fn install(&mut self, cav: &mut Cavity) {
        for (&f, list) in cav.fan.iter().zip(cav.lists.drain(..)) {
            self.pts[f as usize] = list;
        }
    }

    fn fan(cav: &Cavity) -> &[u32] {
        &cav.fan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull3d::initial_tetrahedron;

    fn cube_points() -> Vec<Point3> {
        let mut pts = Vec::new();
        for x in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for z in [0.0, 1.0] {
                    pts.push(Point3::new([x, y, z]));
                }
            }
        }
        pts
    }

    /// Every ridge is matched by its reverse in the facet across it.
    fn assert_consistent(mesh: &Mesh) {
        for (fi, f) in mesh.v.iter().enumerate().filter(|(_, f)| f[0] != NONE) {
            for (i, &g) in mesh.nbr[fi].iter().enumerate() {
                let slot = mesh.slot_of(g, f[(i + 1) % 3], f[i]);
                assert_eq!(mesh.nbr[g as usize][slot as usize] as usize, fi);
            }
        }
    }

    #[test]
    fn tetra_mesh_is_consistent() {
        let pts = cube_points();
        let t = initial_tetrahedron(&pts).unwrap();
        let mesh = Mesh::new_tetrahedron(&pts, t);
        assert_eq!(mesh.live(), 4);
        assert_consistent(&mesh);
        for f in 0..4u32 {
            let opposite = t.iter().find(|x| !mesh.v[f as usize].contains(x)).unwrap();
            assert!(!mesh.sees(f, *opposite), "facet {f} must face outward");
        }
    }

    /// Inserting all eight cube corners through the kernel keeps the mesh
    /// a closed surface, reuses dead slots, and leaves no free slot behind
    /// a cavity smaller than its fan.
    #[test]
    fn insert_point_grows_hull() {
        let pts = cube_points();
        let t = initial_tetrahedron(&pts).unwrap();
        let mut mesh = Mesh::new_tetrahedron(&pts, t);
        let (mut scratch, mut cav) = (Scratch::default(), Cavity::default());
        for q in (0..8u32).filter(|q| !t.contains(q)) {
            let f0 = (0..mesh.slots() as u32)
                .find(|&f| mesh.v[f as usize][0] != NONE && mesh.sees(f, q))
                .expect("cube corners are in convex position");
            mesh.find_cavity(&mut scratch, f0, q, &mut cav);
            mesh.replace_cavity(&mut cav);
            mesh.distribute(&mut cav, |_, _| {});
            mesh.install(&mut cav);
            assert_consistent(&mesh);
        }
        let hull = mesh.extract();
        assert_eq!(hull.vertices, (0..8).collect::<Vec<u32>>());
        assert_eq!(hull.facets.len(), 12);
        assert_eq!(mesh.slots(), mesh.live() + mesh.free.len());
        assert!(mesh.slots() <= 14, "slab must track the live mesh");
    }
}

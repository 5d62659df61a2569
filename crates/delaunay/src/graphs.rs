//! Graph extraction from the triangulation: the Delaunay graph and the
//! Gabriel graph (Table 1 rows "Delaunay Graph" and "Gabriel Graph").

use crate::bw::Delaunay;
use pargeo_geometry::{in_diametral_circle, Orientation, Point2};

/// Undirected Delaunay edges, deduplicated, `(min, max)` ordered.
pub fn delaunay_edges(d: &Delaunay) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = d
        .triangles
        .iter()
        .flat_map(|t| {
            (0..3).map(move |i| {
                let (a, b) = (t[i], t[(i + 1) % 3]);
                (a.min(b), a.max(b))
            })
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The Gabriel graph: Delaunay edges whose closed diametral disk holds no
/// other point.
///
/// Local test: an edge `(u, v)` is Gabriel iff the opposite vertex of each
/// adjacent triangle lies strictly outside the circle with `uv` as
/// diameter, i.e. the angle it subtends at the opposite vertex is acute —
/// the exact sign of [`in_diametral_circle`]. Such an edge is in every
/// Delaunay triangulation of the points, so the answer depends on the
/// point set alone.
pub fn gabriel_graph(points: &[Point2], d: &Delaunay) -> Vec<(u32, u32)> {
    // (edge, opposite vertex), sorted: each edge becomes one run of length
    // 1 (hull edge) or 2 (interior), and the output comes out sorted.
    let mut opposite: Vec<((u32, u32), u32)> = Vec::with_capacity(3 * d.len());
    for t in &d.triangles {
        for i in 0..3 {
            let (a, b) = (t[i], t[(i + 1) % 3]);
            opposite.push(((a.min(b), a.max(b)), t[(i + 2) % 3]));
        }
    }
    opposite.sort_unstable();
    let mut out = Vec::new();
    for run in opposite.chunk_by(|x, y| x.0 == y.0) {
        let (u, v) = run[0].0;
        let (pu, pv) = (&points[u as usize], &points[v as usize]);
        if run.iter().all(|&(_, w)| {
            in_diametral_circle(pu, pv, &points[w as usize]) == Orientation::Negative
        }) {
            out.push((u, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bw::delaunay;
    use pargeo_datagen::uniform_cube;

    /// Brute-force Gabriel graph definition: no other point in or on the
    /// diametral circle.
    fn gabriel_brute(points: &[Point2]) -> Vec<(u32, u32)> {
        let n = points.len();
        let mut out = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                let (pu, pv) = (&points[u as usize], &points[v as usize]);
                let empty = (0..n as u32).all(|w| {
                    w == u
                        || w == v
                        || in_diametral_circle(pu, pv, &points[w as usize]) == Orientation::Negative
                });
                if empty {
                    out.push((u, v));
                }
            }
        }
        out
    }

    #[test]
    fn gabriel_matches_brute_force() {
        for seed in 0..3 {
            let pts = uniform_cube::<2>(150, seed);
            let d = delaunay(&pts);
            let got = gabriel_graph(&pts, &d);
            let want = gabriel_brute(&pts);
            assert_eq!(got, want, "seed={seed}");
        }
    }

    #[test]
    fn gabriel_is_subgraph_of_delaunay() {
        let pts = uniform_cube::<2>(500, 5);
        let d = delaunay(&pts);
        let de: std::collections::HashSet<(u32, u32)> = delaunay_edges(&d).into_iter().collect();
        for e in gabriel_graph(&pts, &d) {
            assert!(de.contains(&e));
        }
    }

    #[test]
    fn delaunay_graph_is_connected_and_planar_sized() {
        let n = 1_000;
        let pts = uniform_cube::<2>(n, 6);
        let d = delaunay(&pts);
        let edges = delaunay_edges(&d);
        assert!(edges.len() <= 3 * n - 6);
        // Connectivity via union-find.
        let mut uf = pargeo_wspd_free_unionfind(n);
        for &(u, v) in &edges {
            union(&mut uf, u, v);
        }
        let root = find(&mut uf, 0);
        for i in 0..n as u32 {
            assert_eq!(find(&mut uf, i), root);
        }
    }

    // Tiny local union-find to avoid a dev-dependency cycle.
    fn pargeo_wspd_free_unionfind(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            p[x as usize] = p[p[x as usize] as usize];
            x = p[x as usize];
        }
        x
    }
    fn union(p: &mut [u32], a: u32, b: u32) {
        let (ra, rb) = (find(p, a), find(p, b));
        if ra != rb {
            p[ra as usize] = rb;
        }
    }

    #[test]
    fn gabriel_of_square_grid_equals_definition() {
        // Maximally cocircular input: no diagonal of a unit square is
        // Gabriel (the other two corners lie on its diametral circle), so
        // the local extraction equals the brute force on any of the
        // lattice's triangulations: the 2 · 6 · 5 unit edges.
        let mut pts = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        let got = gabriel_graph(&pts, &delaunay(&pts));
        assert_eq!(got, gabriel_brute(&pts));
        assert_eq!(got.len(), 60);
        assert!(got
            .iter()
            .all(|&(a, b)| pts[a as usize].dist_sq(&pts[b as usize]) == 1.0));
    }
}

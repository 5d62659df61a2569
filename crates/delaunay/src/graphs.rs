//! Graph extraction from the triangulation: the Delaunay graph and the
//! Gabriel graph (Table 1 rows "Delaunay Graph" and "Gabriel Graph").

use crate::bw::Delaunay;
use pargeo_geometry::Point2;

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

/// The Gabriel graph: Delaunay edges whose diametral circle is empty.
///
/// Local test: an edge `(u, v)` is Gabriel iff the opposite vertex of each
/// adjacent triangle lies outside (or on) the circle with `uv` as diameter,
/// i.e. the angle it subtends at the opposite vertex is at most 90°.
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
        let (pu, pv) = (points[u as usize], points[v as usize]);
        // w strictly inside the diametral circle ⇔ angle(u,w,v) > 90°
        // ⇔ (u - w)·(v - w) < 0.
        if run.iter().all(|&(_, w)| {
            let pw = points[w as usize];
            (pu - pw).dot(&(pv - pw)) >= 0.0
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

    /// Brute-force Gabriel graph definition.
    fn gabriel_brute(points: &[Point2]) -> Vec<(u32, u32)> {
        let n = points.len();
        let mut out = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                let pu = points[u as usize];
                let pv = points[v as usize];
                let empty = (0..n as u32).all(|w| {
                    if w == u || w == v {
                        return true;
                    }
                    let pw = points[w as usize];
                    (pu - pw).dot(&(pv - pw)) >= 0.0
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
    fn gabriel_of_square_grid_is_subset_of_definition() {
        // Maximally cocircular input: both diagonals of every unit square
        // satisfy the open-disk Gabriel definition, but only one lives in
        // the triangulation, so the DT-local extraction returns a subset.
        // Every axis-aligned unit edge, however, must be present.
        let mut pts = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        let d = delaunay(&pts);
        let got = gabriel_graph(&pts, &d);
        let want: std::collections::HashSet<(u32, u32)> = gabriel_brute(&pts).into_iter().collect();
        for e in &got {
            assert!(want.contains(e), "non-Gabriel edge {e:?} reported");
        }
        let got_set: std::collections::HashSet<(u32, u32)> = got.into_iter().collect();
        for i in 0..4u32 {
            for j in 0..3u32 {
                let a = i * 4 + j;
                assert!(got_set.contains(&(a, a + 1)), "missing vertical edge {a}");
                let b = j * 4 + i;
                assert!(got_set.contains(&(b, b + 4)), "missing horizontal edge {b}");
            }
        }
    }
}

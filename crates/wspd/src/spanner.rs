//! WSPD-based t-spanner (paper Module 3, Table 1 row "Spanner").
//!
//! One representative edge per well-separated pair with separation
//! `s = 4(t+1)/(t-1)` yields a t-spanner \[26\]: for every point pair the
//! graph distance is at most `t ×` the Euclidean distance.

use crate::wspd::wspd;
use pargeo_geometry::Point;

/// A spanner edge between original point indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannerEdge {
    /// First endpoint (index into the input point slice).
    pub u: u32,
    /// Second endpoint (index into the input point slice).
    pub v: u32,
    /// Euclidean length of the edge.
    pub weight: f64,
}

/// Builds a `t`-spanner (`t > 1`).
pub fn spanner<const D: usize>(points: &[Point<D>], t: f64) -> Vec<SpannerEdge> {
    assert!(t > 1.0, "stretch must exceed 1");
    let s = 4.0 * (t + 1.0) / (t - 1.0);
    spanner_with_separation(points, s)
}

/// Builds the spanner for an explicit WSPD separation `s` (stretch
/// `t = (s+4)/(s-4)` for `s > 4`).
pub fn spanner_with_separation<const D: usize>(points: &[Point<D>], s: f64) -> Vec<SpannerEdge> {
    let (tree, pairs) = wspd(points, s);
    pargeo_parlay::map(&pairs, pargeo_parlay::GRANULARITY, |&(a, b)| {
        let u = tree.node_point_ids(a)[0];
        let v = tree.node_point_ids(b)[0];
        SpannerEdge {
            u,
            v,
            weight: points[u as usize].dist(&points[v as usize]),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    /// All-pairs shortest paths over the spanner (Floyd–Warshall; tiny n).
    fn stretch_ok<const D: usize>(points: &[Point<D>], edges: &[SpannerEdge], t: f64) {
        let n = points.len();
        let mut dist = vec![f64::INFINITY; n * n];
        for i in 0..n {
            dist[i * n + i] = 0.0;
        }
        for e in edges {
            let (u, v) = (e.u as usize, e.v as usize);
            dist[u * n + v] = dist[u * n + v].min(e.weight);
            dist[v * n + u] = dist[v * n + u].min(e.weight);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[i * n + k] + dist[k * n + j];
                    if via < dist[i * n + j] {
                        dist[i * n + j] = via;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let direct = points[i].dist(&points[j]);
                assert!(
                    dist[i * n + j] <= t * direct + 1e-9,
                    "stretch violated for ({i},{j}): {} > {t} × {direct}",
                    dist[i * n + j]
                );
            }
        }
    }

    #[test]
    fn stretch_two() {
        let pts = uniform_cube::<2>(120, 1);
        let edges = spanner(&pts, 2.0);
        stretch_ok(&pts, &edges, 2.0);
    }

    #[test]
    fn stretch_1_5_3d() {
        let pts = uniform_cube::<3>(80, 2);
        let edges = spanner(&pts, 1.5);
        stretch_ok(&pts, &edges, 1.5);
    }

    #[test]
    fn spanner_is_sparse() {
        let n = 2_000;
        let pts = uniform_cube::<2>(n, 3);
        let edges = spanner(&pts, 2.0);
        // Linear in n for constant t and dimension.
        assert!(edges.len() < 200 * n, "edges = {}", edges.len());
        assert!(edges.len() >= n - 1);
    }

    #[test]
    fn tighter_stretch_means_more_edges() {
        let pts = uniform_cube::<2>(1_000, 4);
        let loose = spanner(&pts, 3.0).len();
        let tight = spanner(&pts, 1.2).len();
        assert!(tight > loose, "tight={tight} loose={loose}");
    }
}

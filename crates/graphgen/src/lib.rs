//! # pargeo-graphgen — spatial graph generators (paper Module 3)
//!
//! Every generator in Figure 1's graph module:
//!
//! * [`knn_graph`] — directed k-nearest-neighbor graph via the kd-tree's
//!   data-parallel batch k-NN.
//! * [`beta_skeleton`] — lune-based β-skeleton for `β ≥ 1`: candidate edges
//!   come from the Delaunay triangulation (the β ≥ 1 skeleton is a Delaunay
//!   subgraph) and each is verified with kd-tree range searches over the
//!   lune, exactly the paper's "range search is used to generate the
//!   β-skeleton graph".
//! * [`gabriel_graph`] — re-exported from `pargeo-delaunay` (the β = 1
//!   skeleton, extracted locally from the triangulation).
//! * [`delaunay_graph`] — Delaunay edges.
//! * [`spanner`] / [`emst`] — re-exported WSPD clients, completing the
//!   module's generator list.

#![warn(missing_docs)]

use pargeo_delaunay::{delaunay, delaunay_edges};
use pargeo_geometry::{Point, Point2};
use pargeo_kdtree::{KdTree, SplitRule};
use pargeo_parlay as parlay;

pub use pargeo_delaunay::gabriel_graph;
pub use pargeo_wspd::emst::emst;
pub use pargeo_wspd::spanner::spanner;

/// Directed k-NN edges `(i, j)`: `j` is one of the `k` nearest neighbors
/// of `i` (self excluded; duplicates of `i`'s position count as
/// neighbors at distance zero).
pub fn knn_graph<const D: usize>(points: &[Point<D>], k: usize) -> Vec<(u32, u32)> {
    if points.len() <= 1 || k == 0 {
        return Vec::new();
    }
    let tree = KdTree::build(points, SplitRule::ObjectMedian);
    // Ask for k+1 and drop the self hit.
    let rows = tree.knn_batch(points, k + 1);
    parlay::flatten(rows.len(), parlay::GRANULARITY, |i| {
        rows[i]
            .iter()
            .filter(move |n| n.id as usize != i)
            .take(k)
            .map(move |n| (i as u32, n.id))
    })
}

/// The Delaunay graph (undirected, deduplicated edges).
pub fn delaunay_graph(points: &[Point2]) -> Vec<(u32, u32)> {
    delaunay_edges(&delaunay(points))
}

/// Lune-based β-skeleton for `β ≥ 1` (β = 1 is the Gabriel graph; larger β
/// keeps fewer edges).
///
/// An edge `(u, v)` survives iff no third point lies strictly inside the
/// lune — the intersection of the two disks of radius `β·|uv|/2` centered
/// at `(1 − β/2)·u + (β/2)·v` and symmetrically.
pub fn beta_skeleton(points: &[Point2], beta: f64) -> Vec<(u32, u32)> {
    assert!(beta >= 1.0, "lune-based beta-skeleton requires beta >= 1");
    let d = delaunay(points);
    let candidates = delaunay_edges(&d);
    if candidates.is_empty() {
        return Vec::new();
    }
    let tree = KdTree::build(points, SplitRule::ObjectMedian);
    let lune_is_empty = |(u, v): (u32, u32)| {
        let pu = points[u as usize];
        let pv = points[v as usize];
        let len = pu.dist(&pv);
        if len == 0.0 {
            return true; // duplicate positions: empty lune
        }
        let r = beta * len / 2.0;
        let c1 = pu + (pv - pu) * (beta / 2.0);
        let c2 = pv + (pu - pv) * (beta / 2.0);
        // Range search the smaller disk, then test lune membership
        // (order-insensitive, so skip the sorted-output contract).
        let hits = tree.range_ball_unsorted(&c1, r);
        let r_sq = r * r;
        hits.into_iter().all(|w| {
            if w == u || w == v {
                return true;
            }
            let pw = points[w as usize];
            let same_as_endpoint = pw == pu || pw == pv;
            // Strictly inside both disks ⇒ inside the open lune.
            let inside =
                pw.dist_sq(&c1) < r_sq * (1.0 - 1e-12) && pw.dist_sq(&c2) < r_sq * (1.0 - 1e-12);
            same_as_endpoint || !inside
        })
    };
    // 64 edges to a task: an edge is a range search of its lune.
    parlay::flatten(candidates.len(), 64, |i| {
        lune_is_empty(candidates[i]).then_some(candidates[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;
    use pargeo_kdtree::knn_brute_force;

    #[test]
    fn knn_graph_matches_brute_force() {
        let pts = uniform_cube::<2>(300, 1);
        let k = 4;
        let edges = knn_graph(&pts, k);
        assert_eq!(edges.len(), 300 * k);
        let mut adj: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for (u, v) in edges {
            adj.entry(u).or_default().push(v);
        }
        for (i, p) in pts.iter().enumerate() {
            let want = knn_brute_force(&pts, p, k + 1);
            let want_dists: Vec<f64> = want
                .iter()
                .filter(|n| n.id as usize != i)
                .take(k)
                .map(|n| n.dist_sq)
                .collect();
            let mut got_dists: Vec<f64> = adj[&(i as u32)]
                .iter()
                .map(|&j| p.dist_sq(&pts[j as usize]))
                .collect();
            got_dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (g, w) in got_dists.iter().zip(&want_dists) {
                assert!((g - w).abs() < 1e-9, "point {i}");
            }
        }
    }

    #[test]
    fn beta_one_equals_gabriel() {
        let pts = uniform_cube::<2>(400, 2);
        let d = pargeo_delaunay::delaunay(&pts);
        let mut gabriel = gabriel_graph(&pts, &d);
        gabriel.sort_unstable();
        let mut beta1 = beta_skeleton(&pts, 1.0);
        beta1.sort_unstable();
        assert_eq!(beta1, gabriel);
    }

    #[test]
    fn larger_beta_is_sparser_subset() {
        let pts = uniform_cube::<2>(500, 3);
        let b1: std::collections::HashSet<(u32, u32)> =
            beta_skeleton(&pts, 1.0).into_iter().collect();
        let b15: std::collections::HashSet<(u32, u32)> =
            beta_skeleton(&pts, 1.5).into_iter().collect();
        let b2: std::collections::HashSet<(u32, u32)> =
            beta_skeleton(&pts, 2.0).into_iter().collect();
        assert!(b15.is_subset(&b1));
        assert!(b2.is_subset(&b15));
        assert!(b2.len() < b1.len());
    }

    #[test]
    fn beta_skeleton_brute_force_check() {
        // Direct definition check for a small instance.
        let pts = uniform_cube::<2>(80, 4);
        let beta = 1.3;
        let got: std::collections::HashSet<(u32, u32)> =
            beta_skeleton(&pts, beta).into_iter().collect();
        // Every returned edge must have an empty lune.
        for &(u, v) in &got {
            let pu = pts[u as usize];
            let pv = pts[v as usize];
            let r = beta * pu.dist(&pv) / 2.0;
            let c1 = pu + (pv - pu) * (beta / 2.0);
            let c2 = pv + (pu - pv) * (beta / 2.0);
            for (w, pw) in pts.iter().enumerate() {
                if w as u32 == u || w as u32 == v {
                    continue;
                }
                let inside = pw.dist(&c1) < r * (1.0 - 1e-9) && pw.dist(&c2) < r * (1.0 - 1e-9);
                assert!(!inside, "edge ({u},{v}) has point {w} in its lune");
            }
        }
        assert!(!got.is_empty());
    }

    #[test]
    fn delaunay_graph_size() {
        let n = 500;
        let pts = uniform_cube::<2>(n, 5);
        let edges = delaunay_graph(&pts);
        assert!(edges.len() <= 3 * n - 6);
        assert!(edges.len() >= n - 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(knn_graph::<2>(&[], 3).is_empty());
        assert!(delaunay_graph(&[]).is_empty());
        assert!(beta_skeleton(&[], 1.5).is_empty());
    }
}

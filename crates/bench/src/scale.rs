//! Shared definition of the `scale_sweep` workload.
//!
//! The sweep's answer digests only prove layout changes harmless if the
//! workload itself is frozen: every run — old layout or new, smoke tier or
//! full — must generate bit-identical data, queries, and boxes. That
//! definition lives here, in one place, instead of inside the binary.
//!
//! Frame convention: the data cube is `[0, √n]^2` (the paper's density
//! normalization). Queries and boxes are generated at a fixed count and
//! rescaled into the data frame by a single multiply, so their bit
//! patterns depend only on `(count, seed, n)` — never on how the data was
//! chunked or which backend serves them.

use pargeo::datagen::{cube_side, uniform_cube, uniform_rects};
use pargeo::kdtree::Neighbor;
use pargeo::parlay::mix64 as mix;
use pargeo::prelude::{Bbox, Point2};

/// The sweep's size tiers: the ROADMAP's three-orders-of-magnitude ladder.
pub const TIERS: [usize; 3] = [100_000, 1_000_000, 10_000_000];

/// Points per insert batch — also the chunked-datagen chunk size, so a
/// 10^7-point stream never materializes twice.
pub const CHUNK: usize = 100_000;

/// Queries per tier (both k-NN points and range boxes).
pub const N_QUERIES: usize = 1_000;

/// Neighbors per k-NN query.
pub const KNN_K: usize = 8;

/// Seed of the data stream (chunk `c` covers indices `[c·CHUNK, …)`).
pub const DATA_SEED: u64 = 42;

const QUERY_SEED: u64 = 9_001;
const BOX_SEED: u64 = 9_002;

/// Range boxes span up to this fraction of the query frame's side per
/// axis (≈0.01% of the area), keeping report sizes O(1) as n grows.
const BOX_FRAC: f64 = 0.01;

/// Size tiers selected by `PARGEO_SCALE`: `full` runs all three tiers,
/// `smoke` only 10^5; the default (CI) runs 10^5 and 10^6.
pub fn tiers() -> Vec<usize> {
    match std::env::var("PARGEO_SCALE").as_deref() {
        Ok("full") => TIERS.to_vec(),
        Ok("smoke") => vec![TIERS[0]],
        _ => vec![TIERS[0], TIERS[1]],
    }
}

#[inline]
fn rescale(p: Point2, s: f64) -> Point2 {
    Point2::new([p.coords[0] * s, p.coords[1] * s])
}

/// The tier's k-NN query points: `N_QUERIES` uniform points rescaled into
/// the data frame `[0, √n]^2`.
pub fn knn_queries(n: usize) -> Vec<Point2> {
    let s = cube_side(n) / cube_side(N_QUERIES);
    uniform_cube::<2>(N_QUERIES, QUERY_SEED)
        .into_iter()
        .map(|p| rescale(p, s))
        .collect()
}

/// The tier's range boxes, rescaled into the data frame.
pub fn range_boxes(n: usize) -> Vec<Bbox<2>> {
    let s = cube_side(n) / cube_side(N_QUERIES);
    uniform_rects::<2>(N_QUERIES, BOX_SEED, BOX_FRAC)
        .into_iter()
        .map(|b| Bbox {
            min: rescale(b.min, s),
            max: rescale(b.max, s),
        })
        .collect()
}

/// Order-sensitive digest of every reported neighbor id (the
/// `WorkloadReport` fold, applied to one batch).
pub fn knn_digest(rows: &[Vec<Neighbor>]) -> u64 {
    let mut h = 0u64;
    for row in rows {
        for nb in row {
            h = mix(h, nb.id as u64);
        }
    }
    h
}

/// Order-sensitive digest of every reported range id.
pub fn range_digest(rows: &[Vec<u32>]) -> u64 {
    let mut h = 0u64;
    for row in rows {
        for id in row {
            h = mix(h, *id as u64);
        }
    }
    h
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable (non-Linux).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Resets the kernel's peak-RSS watermark (Linux: writing `5` to
/// `/proc/self/clear_refs`), so per-phase peaks don't inherit an earlier
/// phase's high-water mark. Returns false (and the sweep reports monotone
/// peaks) where unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_frozen() {
        // The `ANCHORS` digests in `scale_sweep` stay comparable across
        // sessions only if these streams never change.
        let q = knn_queries(TIERS[0]);
        let b = range_boxes(TIERS[0]);
        assert_eq!(q.len(), N_QUERIES);
        assert_eq!(b.len(), N_QUERIES);
        assert_eq!(q, knn_queries(TIERS[0]));
        let side = cube_side(TIERS[0]);
        assert!(q
            .iter()
            .all(|p| p.coords.iter().all(|&c| (0.0..=side).contains(&c))));
        assert!(b
            .iter()
            .all(|bx| bx.max.coords[0] - bx.min.coords[0] <= BOX_FRAC * side));
    }

    #[test]
    fn rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }
}

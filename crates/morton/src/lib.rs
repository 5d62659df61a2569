//! # pargeo-morton — Morton (Z-order) encoding and parallel spatial sort
//!
//! The Morton-sort module of the paper's Module (2) and the substrate under
//! the Zd-tree comparator of §6.3. Points are quantized onto a
//! `2^bits_per_dim` grid over a bounding box and their coordinate bits are
//! interleaved into a single `u64` key; sorting by the key arranges points
//! along the Z-order space-filling curve.
//!
//! `bits_per_dim = ⌊63 / D⌋`, so precision falls as dimension grows — the
//! exact overhead the paper cites when explaining why the Zd-tree approach
//! does not extend cheaply beyond 2–3 dimensions.

#![warn(missing_docs)]

use pargeo_geometry::{Bbox, Point};
use pargeo_parlay as parlay;

/// Bits of grid resolution per dimension for `D`-dimensional codes.
pub const fn bits_per_dim(d: usize) -> u32 {
    (63 / d) as u32
}

/// Total significant bits of a `D`-dimensional Morton code
/// (`bits_per_dim(d) * d`; the remaining high bits of the `u64` are zero).
pub const fn total_bits(d: usize) -> u32 {
    bits_per_dim(d) * d as u32
}

/// The shard a Morton code routes to under `shard_bits` bits of prefix
/// routing: the top `shard_bits` significant bits of the code, i.e. the
/// index of the Z-order cell at depth `shard_bits` of the implicit radix
/// tree. `shard_bits = 0` puts everything in shard 0. The engine's
/// `ShardedIndex` routes by it.
pub const fn morton_shard_of<const D: usize>(code: u64, shard_bits: u32) -> u64 {
    if shard_bits == 0 {
        0
    } else {
        code >> (total_bits(D) - shard_bits)
    }
}

/// Morton code of `p` within `bbox` (coordinates outside the box clamp to
/// its boundary).
pub fn morton_code<const D: usize>(p: &Point<D>, bbox: &Bbox<D>) -> u64 {
    morton_code_bits(p, bbox, bits_per_dim(D))
}

/// [`morton_code`] on a coarser grid of `bits ≤ bits_per_dim(D)` bits per
/// dimension (NaN coordinates land in cell 0).
fn morton_code_bits<const D: usize>(p: &Point<D>, bbox: &Bbox<D>, bits: u32) -> u64 {
    let scale = (1u64 << bits) as f64;
    let mut cells = [0u64; D];
    for i in 0..D {
        let side = (bbox.max[i] - bbox.min[i]).max(f64::MIN_POSITIVE);
        let t = ((p[i] - bbox.min[i]) / side).clamp(0.0, 1.0);
        cells[i] = ((t * scale) as u64).min((1u64 << bits) - 1);
    }
    interleave::<D>(&cells, bits)
}

/// Interleaves `D` coordinate words, `bits` bits each, most significant bit
/// first: output bit layout is `x0_b y0_b z0_b x0_{b-1} …` so that the code
/// order equals the Z-order traversal of the grid.
pub fn interleave<const D: usize>(cells: &[u64; D], bits: u32) -> u64 {
    let mut code = 0u64;
    for b in (0..bits).rev() {
        for c in cells.iter() {
            code = (code << 1) | ((c >> b) & 1);
        }
    }
    code
}

/// Sorts `points` in place along the Z-order curve over their bounding box.
/// Returns the permutation's original indices alongside.
pub fn morton_sort<const D: usize>(points: &mut [Point<D>]) -> Vec<u32> {
    let bbox = parallel_bbox(points);
    let mut tagged: Vec<(Point<D>, u32)> =
        parlay::tabulate(points.len(), GRAIN, |i| (points[i], i as u32));
    parlay::radix_sort_u64_by_key(&mut tagged, |(p, _)| morton_code(p, &bbox));
    let ids: Vec<u32> = tagged.iter().map(|&(_, id)| id).collect();
    parlay::for_each_mut(points, GRAIN, |i, dst| *dst = tagged[i].0);
    ids
}

/// The grain of this crate's per-point loops (a Morton code or a box
/// extension per item).
const GRAIN: usize = 4096;

/// Batches below this size are answered in input order, sequentially: the
/// one grain of every tree's `knn_batch`.
const POINT_BATCH_GRAIN: usize = 64;

/// Maps `f` over a batch of query points and returns the results in input
/// order, evaluated in Z-order of the points:
/// [`map_batch_z_order_by`] with each query its own point.
pub fn map_batch_z_order<const D: usize, R: Send>(
    queries: &[Point<D>],
    f: impl Fn(&Point<D>) -> R + Sync,
) -> Vec<R> {
    map_batch_z_order_by(queries, |q| *q, f)
}

/// Maps `f` over a batch of queries against a spatial tree and returns the
/// results in input order — [`parlay::map`] for tree walks. Batches of at
/// least 64 queries are *evaluated* in Z-order of the point `at` gives each
/// query (the point itself, a box's or a ball's centre), so consecutive
/// queries (and each worker's contiguous chunk) walk the same root-to-leaf
/// paths and scan the same leaves while they are still in cache. `f` must
/// not depend on evaluation order.
///
/// Scratch is one `u64` per query: a 32-bit Morton code over the finite
/// points' bounding box above the query's index. Non-finite points clamp
/// to an end of the curve; one finite far-away point stretches the box and
/// costs the batch its locality. Nothing about a query can make the
/// ordering fail or move its row.
pub fn map_batch_z_order_by<Q: Sync, const D: usize, R: Send>(
    queries: &[Q],
    at: impl Fn(&Q) -> Point<D> + Sync,
    f: impl Fn(&Q) -> R + Sync,
) -> Vec<R> {
    if queries.len() < POINT_BATCH_GRAIN {
        return queries.iter().map(f).collect();
    }
    assert!(
        queries.len() <= u32::MAX as usize,
        "batch exceeds u32 indices"
    );
    let bbox = queries
        .iter()
        .map(&at)
        .filter(|q| q.coords.iter().all(|c| c.is_finite()))
        .fold(Bbox::empty(), |mut b, q| {
            b.extend(&q);
            b
        });
    let bits = bits_per_dim(D).min(32 / D as u32);
    let mut order: Vec<u64> = parlay::tabulate(queries.len(), GRAIN, |i| {
        morton_code_bits(&at(&queries[i]), &bbox, bits) << 32 | i as u64
    });
    parlay::radix_sort_u64_by_key(&mut order, |&key| key);
    let index = |key: u64| key as u32 as usize;
    let rows = parlay::map(&order, POINT_BATCH_GRAIN, |&key| f(&queries[index(key)]));
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(rows.len()).collect();
    for (row, key) in rows.into_iter().zip(order) {
        out[index(key)] = Some(row);
    }
    out.into_iter()
        .map(|row| row.expect("the order is a permutation"))
        .collect()
}

/// Computes Morton codes for a point set over a given box, in parallel.
pub fn morton_codes<const D: usize>(points: &[Point<D>], bbox: &Bbox<D>) -> Vec<u64> {
    parlay::map(points, GRAIN, |p| morton_code(p, bbox))
}

/// Parallel bounding box of a point set.
pub fn parallel_bbox<const D: usize>(points: &[Point<D>]) -> Bbox<D> {
    parlay::reduce(
        points.len(),
        GRAIN,
        |r| Bbox::from_points(&points[r]),
        |a, b| a.union(&b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_geometry::Point2;

    #[test]
    fn interleave_roundtrip() {
        let cells = [0b1011u64, 0b0110u64];
        let code = interleave::<2>(&cells, 4);
        // Bit `i` from the top belongs to dimension `i % 2`.
        let cell = |dim: u32| (0..4).fold(0, |c, i| c << 1 | code >> (7 - 2 * i - dim) & 1);
        assert_eq!([cell(0), cell(1)], cells);
        // Explicit bit check: x=1011, y=0110 -> 10 01 11 10.
        assert_eq!(code, 0b10_01_11_10);
    }

    #[test]
    fn code_order_is_z_order_on_grid() {
        // On a 2x2 grid the Z-order is (0,0), (0,1), (1,0), (1,1) with
        // x-bit major (x interleaved first).
        let bbox = Bbox {
            min: Point2::new([0.0, 0.0]),
            max: Point2::new([1.0, 1.0]),
        };
        let c00 = morton_code(&Point2::new([0.1, 0.1]), &bbox);
        let c01 = morton_code(&Point2::new([0.1, 0.9]), &bbox);
        let c10 = morton_code(&Point2::new([0.9, 0.1]), &bbox);
        let c11 = morton_code(&Point2::new([0.9, 0.9]), &bbox);
        assert!(c00 < c01 && c01 < c10 && c10 < c11);
    }

    #[test]
    fn sort_is_a_permutation_ordered_by_code() {
        let mut pts = pargeo_datagen::uniform_cube::<3>(20_000, 1);
        let orig = pts.clone();
        let ids = morton_sort(&mut pts);
        // Permutation check.
        let mut sorted_ids = ids.clone();
        sorted_ids.sort();
        assert_eq!(sorted_ids, (0..20_000u32).collect::<Vec<_>>());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pts[i], orig[id as usize]);
        }
        // Codes ascending.
        let bbox = parallel_bbox(&pts);
        let codes = morton_codes(&pts, &bbox);
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn locality_smoke() {
        // Consecutive points along the curve are near each other on
        // average: mean consecutive distance far below the domain diameter.
        let mut pts = pargeo_datagen::uniform_cube::<2>(50_000, 2);
        morton_sort(&mut pts);
        let side = pargeo_datagen::cube_side(50_000);
        let mean: f64 = pts.windows(2).map(|w| w[0].dist(&w[1])).sum::<f64>() / 49_999.0;
        assert!(mean < side * 0.05, "mean={mean} side={side}");
    }

    #[test]
    fn clamps_out_of_box_points() {
        let bbox = Bbox {
            min: Point2::new([0.0, 0.0]),
            max: Point2::new([1.0, 1.0]),
        };
        let inside_max = morton_code(&Point2::new([1.0, 1.0]), &bbox);
        let outside = morton_code(&Point2::new([50.0, 50.0]), &bbox);
        assert_eq!(inside_max, outside);
    }

    #[test]
    fn bits_per_dim_budget() {
        assert_eq!(bits_per_dim(2), 31);
        assert_eq!(bits_per_dim(3), 21);
        assert_eq!(bits_per_dim(7), 9);
        for d in 1..=9 {
            assert!(bits_per_dim(d) * d as u32 <= 63);
        }
    }

    #[test]
    fn shard_of_is_the_code_prefix() {
        assert_eq!(total_bits(2), 62);
        assert_eq!(total_bits(3), 63);
        let code = 0b10_01_11_10u64 << (total_bits(2) - 8);
        assert_eq!(morton_shard_of::<2>(code, 0), 0);
        assert_eq!(morton_shard_of::<2>(code, 1), 0b1);
        assert_eq!(morton_shard_of::<2>(code, 2), 0b10);
        assert_eq!(morton_shard_of::<2>(code, 4), 0b1001);
        // Codes sorted by value are also sorted by any prefix: routing by
        // shard preserves Z-order between shards.
        let bbox = Bbox {
            min: Point2::new([0.0, 0.0]),
            max: Point2::new([1.0, 1.0]),
        };
        let pts = pargeo_datagen::uniform_cube::<2>(1_000, 9);
        let mut codes: Vec<u64> = pts.iter().map(|p| morton_code(p, &bbox)).collect();
        codes.sort_unstable();
        for bits in [1u32, 2, 3, 4] {
            let shards: Vec<u64> = codes
                .iter()
                .map(|&c| morton_shard_of::<2>(c, bits))
                .collect();
            assert!(shards.windows(2).all(|w| w[0] <= w[1]));
            assert!(*shards.last().unwrap() < (1 << bits));
        }
    }

    #[test]
    fn sort_accepts_plain_slices() {
        // `&mut [Point<D>]` — a subrange of a larger buffer sorts in place.
        let mut pts = pargeo_datagen::uniform_cube::<2>(512, 6);
        let tail = pts[256..].to_vec();
        let ids = morton_sort(&mut pts[..256]);
        assert_eq!(ids.len(), 256);
        assert_eq!(&pts[256..], &tail[..], "out-of-range points untouched");
        let bbox = parallel_bbox(&pts[..256]);
        let codes = morton_codes(&pts[..256], &bbox);
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Runs `map_batch_z_order_by` on prefixes of `queries` at one
    /// thread: rows must come back in input order, small batches must be
    /// evaluated in input order, and larger ones along the curve of the
    /// finite points `at` gives them.
    fn check_z_order<Q: Sync>(queries: &[Q], at: impl Fn(&Q) -> Point<3> + Sync) {
        let key = |q: &Q| at(q).bits_key();
        for n in [
            0,
            1,
            POINT_BATCH_GRAIN - 1,
            POINT_BATCH_GRAIN,
            queries.len(),
        ] {
            let visited = std::sync::Mutex::new(Vec::new());
            let out = parlay::with_threads(1, || {
                map_batch_z_order_by(&queries[..n], &at, |q| {
                    visited.lock().unwrap().push(key(q));
                    key(q)
                })
            });
            let want: Vec<_> = queries[..n].iter().map(key).collect();
            assert_eq!(out, want, "n={n}: rows in input order");
            let mut visited = visited.into_inner().unwrap();
            if n < POINT_BATCH_GRAIN {
                assert_eq!(visited, want, "n={n}: small batches run in input order");
                continue;
            }
            // Finite points are visited in ascending cell order.
            let finite: Vec<Point<3>> = queries[..n]
                .iter()
                .map(&at)
                .filter(|p| p.coords.iter().all(|c| c.is_finite()))
                .collect();
            let bbox = Bbox::from_points(&finite);
            let keys: std::collections::HashSet<_> = finite.iter().map(Point::bits_key).collect();
            visited.retain(|key| keys.contains(key));
            let codes: Vec<u64> = visited
                .iter()
                .map(|key| morton_code_bits(&Point::new(key.map(f64::from_bits)), &bbox, 10))
                .collect();
            assert_eq!(codes.len(), finite.len());
            assert!(codes.windows(2).all(|w| w[0] <= w[1]), "n={n}");
        }
    }

    #[test]
    fn z_order_batches_evaluate_along_the_curve_and_answer_in_input_order() {
        let mut pts = pargeo_datagen::uniform_cube::<3>(5_000, 7);
        // Duplicate and non-finite queries ride along.
        pts[10] = pts[11];
        pts[30] = Point::new([f64::INFINITY, 1.0, 1.0]);
        pts[40] = Point::new([1.0, f64::NEG_INFINITY, 1.0]);
        pts[50] = Point::new([f64::NAN, f64::NAN, f64::NAN]);
        check_z_order(&pts, |p| *p);
        // Boxes, ordered by their centres: boxes of every size, an empty
        // box (a NaN centre) and one with an infinite side.
        let side = pargeo_datagen::cube_side(5_000);
        let mut boxes: Vec<Bbox<3>> = (pts.iter().enumerate())
            .map(|(i, p)| {
                let w = side * (i % 7) as f64 / 50.0;
                Bbox {
                    min: Point::new(p.coords.map(|c| c - w)),
                    max: Point::new(p.coords.map(|c| c + 2.0 * w)),
                }
            })
            .collect();
        boxes[60] = Bbox::empty();
        boxes[70].max = Point::new([f64::INFINITY; 3]);
        check_z_order(&boxes, Bbox::center);
    }
}

//! Parallel sorting: comparison-based merge sort and an LSD radix sort for
//! 64-bit keys (the substrate under Morton sort and the Zd-tree).

use crate::{counting, for_each_mut, map, par_do, GRANULARITY};
use std::cmp::Ordering;

/// Stable parallel merge sort.
///
/// Classic alternating-buffer merge sort: both recursive halves sort in
/// parallel, and the merge itself is parallelized by splitting the larger run
/// at its midpoint and binary-searching the split point in the smaller run.
/// Work `O(n log n)`, depth `O(log^3 n)`.
pub fn merge_sort_by<T, F>(a: &mut [T], cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = a.len();
    if n <= GRANULARITY {
        a.sort_by(&cmp);
        return;
    }
    let mut buf = a.to_vec();
    sort_in_place(a, &mut buf, &cmp);
}

/// Sorts `a` using `buf` as scratch; result lands in `a`.
fn sort_in_place<T, F>(a: &mut [T], buf: &mut [T], cmp: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = a.len();
    if n <= GRANULARITY {
        a.sort_by(cmp);
        return;
    }
    let mid = n / 2;
    let (a1, a2) = a.split_at_mut(mid);
    let (b1, b2) = buf.split_at_mut(mid);
    par_do(|| sort_into(a1, b1, cmp), || sort_into(a2, b2, cmp));
    par_merge(b1, b2, a, cmp);
}

/// Sorts the contents of `a`, writing the sorted run into `b`.
fn sort_into<T, F>(a: &mut [T], b: &mut [T], cmp: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = a.len();
    if n <= GRANULARITY {
        a.sort_by(cmp);
        b.copy_from_slice(a);
        return;
    }
    let mid = n / 2;
    let (a1, a2) = a.split_at_mut(mid);
    let (b1, b2) = b.split_at_mut(mid);
    par_do(|| sort_in_place(a1, b1, cmp), || sort_in_place(a2, b2, cmp));
    par_merge(a1, a2, b, cmp);
}

/// Merges sorted runs `x` and `y` into `out` (which must have length
/// `x.len() + y.len()`), stably and in parallel.
fn par_merge<T, F>(x: &[T], y: &[T], out: &mut [T], cmp: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    debug_assert_eq!(x.len() + y.len(), out.len());
    if x.len() + y.len() <= GRANULARITY {
        seq_merge(x, y, out, cmp);
        return;
    }
    // Split the longer run at its midpoint; binary-search the matching
    // position in the shorter run. Taking `Less` from y against x's pivot
    // keeps the merge stable (x elements win ties).
    if x.len() >= y.len() {
        let xm = x.len() / 2;
        let ym = y.partition_point(|e| cmp(e, &x[xm]) == Ordering::Less);
        let (o1, o2) = out.split_at_mut(xm + ym);
        par_do(
            || par_merge(&x[..xm], &y[..ym], o1, cmp),
            || par_merge(&x[xm..], &y[ym..], o2, cmp),
        );
    } else {
        let ym = y.len() / 2;
        let xm = x.partition_point(|e| cmp(e, &y[ym]) != Ordering::Greater);
        let (o1, o2) = out.split_at_mut(xm + ym);
        par_do(
            || par_merge(&x[..xm], &y[..ym], o1, cmp),
            || par_merge(&x[xm..], &y[ym..], o2, cmp),
        );
    }
}

fn seq_merge<T, F>(x: &[T], y: &[T], out: &mut [T], cmp: &F)
where
    T: Copy,
    F: Fn(&T, &T) -> Ordering,
{
    let (mut i, mut j) = (0, 0);
    for o in out.iter_mut() {
        if i < x.len() && (j >= y.len() || cmp(&x[i], &y[j]) != Ordering::Greater) {
            *o = x[i];
            i += 1;
        } else {
            *o = y[j];
            j += 1;
        }
    }
}

const RADIX_BITS: usize = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
/// Radix passes use much larger blocks than [`GRANULARITY`]: the
/// per-pass offset transpose is sequential `O(blocks × 256)`, so blocks
/// must be coarse for it to vanish next to the parallel scatter.
const RADIX_BLOCK: usize = 1 << 16;

/// Stable parallel LSD radix sort of `items` by a `u64` key.
///
/// Eight passes of 8-bit digits, each one count/scan/scatter step of
/// `counting`. Passes whose digit is constant across all keys are skipped.
pub fn radix_sort_u64_by_key<T, F>(items: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = items.len();
    if n <= RADIX_BLOCK {
        items.sort_by_key(|x| key(x));
        return;
    }
    let mut src: Vec<(u64, T)> = map(items, GRANULARITY, |x| (key(x), *x));
    let mut dst: Vec<(u64, T)> = Vec::new();
    for pass in 0..(64 / RADIX_BITS) {
        let shift = pass * RADIX_BITS;
        let digit = |&(k, _): &(u64, T)| ((k >> shift) as usize) & (BUCKETS - 1);
        let tallies = counting::count(&src, RADIX_BLOCK, BUCKETS, &digit);
        // Skip passes where every key shares the same digit.
        let nonzero_buckets = (0..BUCKETS)
            .filter(|&b| tallies.iter().skip(b).step_by(BUCKETS).any(|&c| c != 0))
            .count();
        if nonzero_buckets <= 1 {
            continue;
        }
        counting::scatter(&src, &mut dst, RADIX_BLOCK, BUCKETS, tallies, &digit);
        std::mem::swap(&mut src, &mut dst);
    }
    for_each_mut(items, GRANULARITY, |i, o| *o = src[i].1);
}

/// Sorts `items` in ascending order of an `f64` key (must be finite for all
/// items), using the order-preserving bit transform + radix sort.
pub fn sort_by_key_f64<T, F>(items: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> f64 + Sync,
{
    radix_sort_u64_by_key(items, |x| f64_to_ordered_u64(key(x)));
}

/// Maps `f64` to `u64` such that the `u64` order matches the `f64` order
/// (total order over finite values; -0.0 < +0.0).
#[inline]
pub fn f64_to_ordered_u64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sort_matches_std() {
        for n in [0usize, 1, 2, 1000, GRANULARITY + 1, 100_000] {
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| (i * 2_654_435_761) % 10_007)
                .collect();
            let mut want = a.clone();
            want.sort();
            merge_sort_by(&mut a, |x, y| x.cmp(y));
            assert_eq!(a, want, "n={n}");
        }
    }

    #[test]
    fn merge_sort_is_stable() {
        // Sort pairs by first component only; second must keep input order.
        let n = 50_000;
        let mut a: Vec<(u32, u32)> = (0..n).map(|i| ((i * 7) % 10, i)).collect();
        merge_sort_by(&mut a, |x, y| x.0.cmp(&y.0));
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn radix_sort_matches_std() {
        for n in [0usize, 1, 1000, 100_000] {
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let mut want = a.clone();
            want.sort();
            radix_sort_u64_by_key(&mut a, |&x| x);
            assert_eq!(a, want, "n={n}");
        }
    }

    #[test]
    fn radix_sort_is_stable() {
        let n = 60_000u64;
        let mut a: Vec<(u64, u64)> = (0..n).map(|i| ((i * 13) % 4, i)).collect();
        radix_sort_u64_by_key(&mut a, |x| x.0);
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn f64_order_transform_is_monotone() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(f64_to_ordered_u64(w[0]) <= f64_to_ordered_u64(w[1]));
        }
    }

    #[test]
    fn sort_by_f64_key() {
        let mut a: Vec<f64> = (0..30_000)
            .map(|i| ((i as f64) * 1.7).sin() * 1e6)
            .collect();
        let mut want = a.clone();
        want.sort_by(|x, y| x.partial_cmp(y).unwrap());
        sort_by_key_f64(&mut a, |&x| x);
        assert_eq!(a, want);
    }
}

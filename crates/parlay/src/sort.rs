//! Parallel sorting: an LSD radix sort for 64-bit keys (the substrate under
//! Morton sort and the Zd-tree).

use crate::{counting, for_each_mut, map, GRANULARITY};

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
pub(crate) fn f64_to_ordered_u64(x: f64) -> u64 {
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

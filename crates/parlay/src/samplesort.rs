//! Parallel sample sort — ParlayLib's workhorse comparison sort.
//!
//! Oversampled splitter selection, parallel bucket classification via a
//! per-block count/scan/scatter (the `counting` step the radix passes
//! use), then parallel recursion per bucket. Compared with the merge sort in
//! [`crate::sort`], sample sort trades the merge's perfect balance for
//! bucket-local cache behavior; the `sort_ablation` bench compares them.

use crate::{counting, for_each_mut, GRANULARITY};
use std::cmp::Ordering;

/// Number of buckets per level.
const BUCKETS: usize = 64;
/// Oversampling factor for splitter selection.
const OVERSAMPLE: usize = 8;

/// Parallel (unstable) sample sort.
pub fn sample_sort_by<T, F>(a: &mut [T], cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    sort_rec(a, &cmp, 0);
}

fn sort_rec<T, F>(a: &mut [T], cmp: &F, depth: usize)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = a.len();
    if n <= GRANULARITY || depth > 8 {
        a.sort_unstable_by(|x, y| cmp(x, y));
        return;
    }
    // Choose BUCKETS-1 splitters from an oversampled, deterministic sample.
    let s = BUCKETS * OVERSAMPLE;
    let mut sample: Vec<T> = (0..s).map(|i| a[(i * (n - 1)) / (s - 1)]).collect();
    sample.sort_unstable_by(|x, y| cmp(x, y));
    let splitters: Vec<T> = (1..BUCKETS).map(|b| sample[b * OVERSAMPLE]).collect();
    // Classify each element (branchless-ish binary search over splitters).
    let bucket_of =
        |x: &T| -> usize { splitters.partition_point(|sp| cmp(sp, x) != Ordering::Greater) };
    let tallies = counting::count(a, GRANULARITY, BUCKETS, &bucket_of);
    let mut buf: Vec<T> = Vec::new();
    let bucket_starts = counting::scatter(a, &mut buf, GRANULARITY, BUCKETS, tallies, &bucket_of);
    a.copy_from_slice(&buf);
    drop(buf);
    // Recurse per bucket in parallel over disjoint subslices.
    let mut rest: &mut [T] = a;
    let mut slices: Vec<&mut [T]> = Vec::with_capacity(BUCKETS);
    for b in 0..BUCKETS {
        let (head, tail) = rest.split_at_mut(bucket_starts[b + 1] - bucket_starts[b]);
        slices.push(head);
        rest = tail;
    }
    for_each_mut(&mut slices, 1, |_, s| sort_rec(s, cmp, depth + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_std_sort() {
        for n in [0usize, 1, 100, GRANULARITY + 1, 200_000] {
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 100_003)
                .collect();
            let mut want = a.clone();
            want.sort();
            sample_sort_by(&mut a, |x, y| x.cmp(y));
            assert_eq!(a, want, "n={n}");
        }
    }

    #[test]
    fn many_duplicates() {
        let mut a: Vec<u32> = (0..150_000).map(|i| i % 7).collect();
        let mut want = a.clone();
        want.sort();
        sample_sort_by(&mut a, |x, y| x.cmp(y));
        assert_eq!(a, want);
    }

    #[test]
    fn all_equal_hits_depth_guard() {
        let mut a = vec![5u8; 300_000];
        sample_sort_by(&mut a, |x, y| x.cmp(y));
        assert!(a.iter().all(|&x| x == 5));
    }

    #[test]
    fn reverse_sorted_floats() {
        let mut a: Vec<f64> = (0..120_000).rev().map(|i| i as f64 * 0.5).collect();
        sample_sort_by(&mut a, |x, y| x.partial_cmp(y).unwrap());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let a: Vec<u64> = (0..80_000u64)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut x = a.clone();
        let mut y = a.clone();
        crate::pool::with_threads(1, || sample_sort_by(&mut x, |p, q| p.cmp(q)));
        crate::pool::with_threads(4, || sample_sort_by(&mut y, |p, q| p.cmp(q)));
        assert_eq!(x, y);
    }
}

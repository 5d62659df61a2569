//! Parallel prefix sums (scans) over arbitrary associative operators.
//!
//! The implementation is the classic two-pass blocked scan: the input is cut
//! into blocks, each block is reduced in parallel, the block sums are scanned
//! sequentially (there are only `O(n / GRANULARITY)` of them), and finally
//! every block computes its local prefix in parallel seeded with its block
//! offset. Work is `O(n)` and depth is `O(GRANULARITY + n / GRANULARITY)`.

use crate::{block, fill_blocks, for_each_block_mut, for_each_mut, tabulate, GRANULARITY};

/// Sequential in-place exclusive scan (of a short input, or of the few
/// block sums of a long one); returns the total.
fn scan_seq<T: Copy>(a: &mut [T], id: T, op: impl Fn(T, T) -> T) -> T {
    let mut acc = id;
    for x in a {
        acc = op(acc, std::mem::replace(x, acc));
    }
    acc
}

/// Exclusive scan: `out[i] = id ⊕ a[0] ⊕ … ⊕ a[i-1]`.
///
/// Returns `(out, total)` where `total` is the reduction of the whole input.
/// `op` must be associative; `id` must be its identity.
///
/// ```
/// let a = [1u64, 2, 3, 4];
/// let (pre, tot) = pargeo_parlay::scan_exclusive(&a, 0u64, |x, y| x + y);
/// assert_eq!(pre, vec![0, 1, 3, 6]);
/// assert_eq!(tot, 10);
/// ```
pub fn scan_exclusive<T, F>(a: &[T], id: T, op: F) -> (Vec<T>, T)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = a.len();
    if n <= GRANULARITY {
        let mut out = a.to_vec();
        let total = scan_seq(&mut out, id, &op);
        return (out, total);
    }
    let nblocks = n.div_ceil(GRANULARITY);
    // Pass 1: per-block reductions, then a sequential scan over the (few)
    // block sums.
    let mut offsets = tabulate(nblocks, 1, |b| {
        a[block(b, GRANULARITY, n)]
            .iter()
            .fold(id, |acc, &x| op(acc, x))
    });
    let total = scan_seq(&mut offsets, id, &op);
    // Pass 2: per-block local scans seeded with block offsets.
    let out = fill_blocks(n, GRANULARITY, |r, sink| {
        let mut acc = offsets[r.start / GRANULARITY];
        for &x in &a[r] {
            // SAFETY: one push per element of `a[r]`, the sink's run.
            unsafe { sink.push(acc) };
            acc = op(acc, x);
        }
    });
    (out, total)
}

/// Inclusive scan: `out[i] = a[0] ⊕ … ⊕ a[i]`.
pub fn scan_inclusive<T, F>(a: &[T], id: T, op: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let (mut out, _) = scan_exclusive(a, id, &op);
    for_each_mut(&mut out, GRANULARITY, |i, o| *o = op(*o, a[i]));
    out
}

/// In-place exclusive scan over `usize` values; returns the total.
///
/// This is the workhorse used by [`crate::pack()`] where allocating a second
/// vector for the prefix array would double memory traffic.
pub(crate) fn scan_inplace_exclusive(a: &mut [usize]) -> usize {
    let n = a.len();
    if n <= GRANULARITY {
        return scan_seq(a, 0, |acc, x| acc + x);
    }
    let mut offsets = tabulate(n.div_ceil(GRANULARITY), 1, |b| {
        a[block(b, GRANULARITY, n)].iter().sum::<usize>()
    });
    let total = scan_seq(&mut offsets, 0, |acc, x| acc + x);
    for_each_block_mut(a, GRANULARITY, |b, chunk| {
        let mut acc = offsets[b];
        for x in chunk.iter_mut() {
            acc += std::mem::replace(x, acc);
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(a: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(a.len());
        let mut acc = 0u64;
        for &x in a {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn empty_input() {
        let (out, tot) = scan_exclusive::<u64, _>(&[], 0, |x, y| x + y);
        assert!(out.is_empty());
        assert_eq!(tot, 0);
    }

    #[test]
    fn matches_reference_small_and_large() {
        for n in [1usize, 2, 100, GRANULARITY, GRANULARITY + 1, 100_000] {
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % 101).collect();
            let (got, tot) = scan_exclusive(&a, 0, |x, y| x + y);
            let (want, wtot) = reference_exclusive(&a);
            assert_eq!(got, want, "n={n}");
            assert_eq!(tot, wtot, "n={n}");
        }
    }

    #[test]
    fn inclusive_scan_matches() {
        let a: Vec<u64> = (0..50_000).map(|i| i % 13).collect();
        let got = scan_inclusive(&a, 0, |x, y| x + y);
        let mut acc = 0;
        let want: Vec<u64> = a
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn inplace_matches_out_of_place() {
        let a: Vec<usize> = (0..30_000).map(|i| i % 5).collect();
        let mut b = a.clone();
        let total = scan_inplace_exclusive(&mut b);
        let (want, wtot) = scan_exclusive(&a, 0usize, |x, y| x + y);
        assert_eq!(b, want);
        assert_eq!(total, wtot);
    }

    #[test]
    fn max_scan_non_commutative_safety() {
        // scan must only rely on associativity; max is associative and
        // idempotent, a good smoke test for block boundary handling.
        let a: Vec<u64> = (0..20_000).map(|i| (i * 2_654_435_761) % 1_000).collect();
        let (got, tot) = scan_exclusive(&a, 0, |x, y| x.max(y));
        let mut acc = 0;
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(got[i], acc);
            acc = acc.max(x);
        }
        assert_eq!(tot, acc);
    }
}

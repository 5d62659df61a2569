//! Blocked reductions, including argmax ("parallel maximum-finding
//! routine" used by quickhull's furthest-point step and Welzl's pivot
//! heuristic).

use crate::{block, fork_blocks, GRANULARITY};
use std::ops::Range;

/// Blocked reduction over the index space `0..n`: `leaf` folds one block of
/// at most `grain` consecutive indices (it sees `0..0` when `n == 0`), and
/// `op` merges the results of adjacent runs of blocks, the lower indices'
/// result on the left. The merge tree depends on `n` and `grain` alone, so
/// an `op` that is associative only up to rounding still reduces to the
/// same bits at every worker count; it need not be commutative.
///
/// ```
/// let a: Vec<u64> = (0..10_000).collect();
/// let sum = pargeo_parlay::reduce(a.len(), 1024, |r| a[r].iter().sum::<u64>(), |x, y| x + y);
/// assert_eq!(sum, 49_995_000);
/// ```
pub fn reduce<R: Send>(
    n: usize,
    grain: usize,
    leaf: impl Fn(Range<usize>) -> R + Sync,
    op: impl Fn(R, R) -> R + Sync,
) -> R {
    let grain = grain.max(1);
    fork_blocks(0, n.div_ceil(grain), &|b| leaf(block(b, grain, n)), &op)
}

/// Index of the element maximizing `key`, breaking ties toward the smaller
/// index (deterministic regardless of thread schedule). Returns `None` on an
/// empty slice.
pub fn max_index_by<T, K, F>(a: &[T], key: F) -> Option<usize>
where
    T: Sync,
    K: PartialOrd + Copy + Send,
    F: Fn(&T) -> K + Sync,
{
    let best = reduce(
        a.len(),
        GRANULARITY,
        |r| {
            let mut best: Option<(usize, K)> = None;
            for i in r {
                let k = key(&a[i]);
                if best.is_none_or(|(_, b)| k > b) {
                    best = Some((i, k));
                }
            }
            best
        },
        // The left run holds the smaller indices, so it keeps ties.
        |x, y| match (x, y) {
            (Some(x), Some(y)) => Some(if y.1 > x.1 { y } else { x }),
            (x, y) => x.or(y),
        },
    );
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_matches() {
        let a: Vec<u64> = (0..100_000).collect();
        let sum = reduce(
            a.len(),
            GRANULARITY,
            |r| a[r].iter().sum::<u64>(),
            |x, y| x + y,
        );
        assert_eq!(sum, a.iter().sum::<u64>());
    }

    #[test]
    fn reduce_map_counts() {
        let a: Vec<u32> = (0..50_000).collect();
        let evens = reduce(
            a.len(),
            GRANULARITY,
            |r| a[r].iter().filter(|&&x| x % 2 == 0).count(),
            |x, y| x + y,
        );
        assert_eq!(evens, 25_000);
    }

    #[test]
    fn max_index_matches_reference() {
        let a: Vec<f64> = (0..80_000)
            .map(|i| ((i as f64) * 1.618).sin() * 1000.0)
            .collect();
        let got = max_index_by(&a, |&x| x).unwrap();
        let want = a
            .iter()
            .enumerate()
            .max_by(|(i, x), (j, y)| x.partial_cmp(y).unwrap().then(j.cmp(i)))
            .unwrap()
            .0;
        assert_eq!(got, want);
    }

    #[test]
    fn max_index_ties_break_low() {
        let a = vec![1.0f64; 10_000];
        assert_eq!(max_index_by(&a, |&x| x), Some(0));
    }

    #[test]
    fn empty_returns_none() {
        let a: Vec<f64> = vec![];
        assert_eq!(max_index_by(&a, |&x| x), None);
    }
}

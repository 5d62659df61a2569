//! Parallel selection (`nth_element`) — the object-median kd-tree split.
//!
//! Parallel quickselect: sample a pivot, three-way split the slice in
//! parallel (less / equal / greater), write the groups back contiguously, and
//! recurse into the single group containing the target rank. Expected work
//! `O(n)`, depth `O(log^2 n)`.

use crate::pack::pack_eq;
use crate::{map, GRANULARITY};
use std::cmp::Ordering;

/// Reorders `a` so that `a[nth]` holds the element of rank `nth` and every
/// element before it compares `<=` (under `cmp`) and every element after
/// compares `>=`. Same contract as `slice::select_nth_unstable_by`.
pub fn select_nth_unstable_by<T, F>(a: &mut [T], nth: usize, cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    assert!(nth < a.len(), "select: nth out of bounds");
    select_rec(a, nth, &cmp);
}

fn select_rec<T, F>(a: &mut [T], nth: usize, cmp: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = a.len();
    if n <= GRANULARITY.max(32) {
        a.select_nth_unstable_by(nth, |x, y| cmp(x, y));
        return;
    }
    let pivot = sample_pivot(a, cmp);
    let side = map(a, GRANULARITY, |x| cmp(x, &pivot));
    let less = pack_eq(a, &side, Ordering::Less);
    let equal = pack_eq(a, &side, Ordering::Equal);
    let greater = pack_eq(a, &side, Ordering::Greater);
    let (nl, ne) = (less.len(), equal.len());
    // Write the three groups back contiguously.
    a[..nl].copy_from_slice(&less);
    a[nl..nl + ne].copy_from_slice(&equal);
    a[nl + ne..].copy_from_slice(&greater);
    if nth < nl {
        select_rec(&mut a[..nl], nth, cmp);
    } else if nth >= nl + ne {
        let off = nl + ne;
        select_rec(&mut a[off..], nth - off, cmp);
    }
    // Otherwise the pivot block covers the target rank.
}

/// Median of 25 evenly spaced samples — good enough to keep the expected
/// recursion geometric on adversarial-ish inputs without a full BFPRT.
fn sample_pivot<T, F>(a: &[T], cmp: &F) -> T
where
    T: Copy,
    F: Fn(&T, &T) -> Ordering,
{
    const S: usize = 25;
    let n = a.len();
    let mut samples: Vec<T> = (0..S).map(|i| a[i * (n - 1) / (S - 1)]).collect();
    samples.sort_by(|x, y| cmp(x, y));
    samples[S / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &[u64], nth: usize) {
        let mut b = a.to_vec();
        select_nth_unstable_by(&mut b, nth, |x, y| x.cmp(y));
        let mut sorted = a.to_vec();
        sorted.sort();
        assert_eq!(b[nth], sorted[nth]);
        assert!(b[..nth].iter().all(|x| x <= &b[nth]));
        assert!(b[nth + 1..].iter().all(|x| x >= &b[nth]));
        let mut b2 = b.clone();
        b2.sort();
        assert_eq!(b2, sorted, "selection must preserve the multiset");
    }

    #[test]
    fn select_small() {
        let a: Vec<u64> = vec![5, 3, 9, 1, 7];
        for nth in 0..a.len() {
            check(&a, nth);
        }
    }

    #[test]
    fn select_large_median() {
        let a: Vec<u64> = (0..100_000)
            .map(|i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000)
            .collect();
        check(&a, a.len() / 2);
        check(&a, 0);
        check(&a, a.len() - 1);
        check(&a, a.len() / 4);
    }

    #[test]
    fn select_with_many_duplicates() {
        let a: Vec<u64> = (0..50_000).map(|i| i % 3).collect();
        check(&a, 25_000);
    }

    #[test]
    fn select_all_equal() {
        let a: Vec<u64> = vec![42; 30_000];
        check(&a, 15_000);
    }
}

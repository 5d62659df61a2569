//! Parallel packing, filtering and flattening.
//!
//! `ParallelPack` (paper Figure 5, line 17) keeps the elements whose flag is
//! set, preserving relative order, in `O(n)` work. The implementation counts
//! survivors per block, scans the counts for destination offsets, and
//! scatters each block independently.

use crate::scan::scan_inplace_exclusive;
use crate::{block, for_each_mut, map, parallel_for, tabulate, SharedMut, Sink, GRANULARITY};

/// Packs `items[i]` for every `i` with `flags[i] == true`, preserving order.
///
/// ```
/// let kept = pargeo_parlay::pack(&[10, 20, 30, 40], &[true, false, true, false]);
/// assert_eq!(kept, vec![10, 30]);
/// ```
pub fn pack<T: Copy + Send + Sync>(items: &[T], flags: &[bool]) -> Vec<T> {
    pack_eq(items, flags, true)
}

/// Packs `items[i]` for every `i` with `keys[i] == want`, preserving order
/// — [`pack`] over any small key, so a three-way split needs one
/// classification pass, not three flag vectors: count the matches per
/// block, scan the counts for destination offsets, scatter each block
/// independently.
pub(crate) fn pack_eq<T: Copy + Send + Sync, K: PartialEq + Sync>(
    items: &[T],
    keys: &[K],
    want: K,
) -> Vec<T> {
    assert_eq!(items.len(), keys.len(), "pack: length mismatch");
    let n = keys.len();
    let nblocks = n.div_ceil(GRANULARITY);
    let mut offsets = tabulate(nblocks, 1, |b| {
        let block = &keys[block(b, GRANULARITY, n)];
        block.iter().filter(|&k| *k == want).count()
    });
    let total = scan_inplace_exclusive(&mut offsets);
    let mut out: Vec<T> = Vec::with_capacity(total);
    let slots = SharedMut(out.as_mut_ptr());
    parallel_for(nblocks, 1, |b| {
        let end = offsets.get(b + 1).copied().unwrap_or(total);
        // SAFETY: the exclusive scan makes the runs `offsets[b]..offsets[b+1]`
        // tile `0..total = capacity`, one per block.
        let mut sink = unsafe { Sink::new(slots, offsets[b]..end) };
        let range = block(b, GRANULARITY, n);
        for (v, k) in items[range.clone()].iter().zip(&keys[range]) {
            if *k == want {
                // SAFETY: the run is as long as the count of matches in
                // this block of the (immutable) keys, taken above.
                unsafe { sink.push(*v) };
            }
        }
        sink.finish();
    });
    // SAFETY: every block's sink finished full, and the runs tile
    // `0..total`. (`T: Copy`: had a task panicked, nothing needed a drop.)
    unsafe { out.set_len(total) };
    out
}

/// Stable two-way split: `(matching, non_matching)` in one parallel pass each.
pub fn split_two<T, F>(items: &[T], pred: F) -> (Vec<T>, Vec<T>)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    let flags: Vec<bool> = map(items, GRANULARITY, &pred);
    (pack_eq(items, &flags, true), pack_eq(items, &flags, false))
}

/// The concatenation of `f(0), f(1), …, f(n-1)` in index order: one task
/// per `grain` indices gathers its block's items, then every block moves
/// them to its place in the pre-sized output. `f` may yield any number of
/// items — an `Option` makes this a `filter_map`.
pub fn flatten<R: Send, I: IntoIterator<Item = R>>(
    n: usize,
    grain: usize,
    f: impl Fn(usize) -> I + Sync,
) -> Vec<R> {
    let grain = grain.max(1);
    let mut parts: Vec<Vec<R>> = tabulate(n.div_ceil(grain), 1, |b| {
        block(b, grain, n).flat_map(&f).collect()
    });
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut offsets: Vec<usize> = parts.iter().map(Vec::len).collect();
    let total = scan_inplace_exclusive(&mut offsets);
    let mut out: Vec<R> = Vec::with_capacity(total);
    let slots = SharedMut(out.as_mut_ptr());
    for_each_mut(&mut parts, 1, |b, part| {
        for (k, x) in part.drain(..).enumerate() {
            // SAFETY: part `b` owns `offsets[b]..offsets[b] + part.len()`,
            // and the scan over the part lengths makes those runs tile
            // `0..total ≤ capacity`.
            unsafe { slots.write(offsets[b] + k, x) };
        }
    });
    // SAFETY: every part was drained into its run, so all `total` slots
    // hold a value (a panic cannot happen in between: moving is all the
    // loop above does).
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_matches_reference() {
        for n in [0usize, 1, 5, GRANULARITY, GRANULARITY * 3 + 17, 100_000] {
            let items: Vec<u32> = (0..n as u32).collect();
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let got = pack(&items, &flags);
            let want: Vec<u32> = items
                .iter()
                .zip(&flags)
                .filter(|(_, &f)| f)
                .map(|(&x, _)| x)
                .collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    /// Filtering is [`flatten`] with an `Option` per index.
    #[test]
    fn filter_matches_reference() {
        let items: Vec<i64> = (0..60_000).map(|i| (i * 31) % 997 - 500).collect();
        let got = flatten(items.len(), GRANULARITY, |i| {
            (items[i] > 0).then_some(items[i])
        });
        let want: Vec<i64> = items.iter().copied().filter(|&x| x > 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn split_two_partitions_everything() {
        let items: Vec<u32> = (0..30_000).collect();
        let (yes, no) = split_two(&items, |&x| x % 2 == 0);
        assert_eq!(yes.len() + no.len(), items.len());
        assert!(yes.iter().all(|&x| x % 2 == 0));
        assert!(no.iter().all(|&x| x % 2 == 1));
        // Stability.
        assert!(yes.windows(2).all(|w| w[0] < w[1]));
        assert!(no.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn flatten_concatenates_in_index_order() {
        for (n, grain) in [(0usize, 1usize), (1, 1), (10, 3), (5_000, 64), (5_000, 0)] {
            let got = flatten(n, grain, |i| (0..i % 4).map(move |j| (i, j)));
            let want: Vec<_> = (0..n)
                .flat_map(|i| (0..i % 4).map(move |j| (i, j)))
                .collect();
            assert_eq!(got, want, "n={n} grain={grain}");
        }
        // An `Option` per index is a filter_map.
        let odd_squares = flatten(1_000, 16, |i| (i % 2 == 1).then_some(i * i));
        assert_eq!(odd_squares.len(), 500);
        assert_eq!(odd_squares[..3], [1, 9, 25]);
    }

    #[test]
    fn all_false_and_all_true() {
        let items: Vec<u8> = vec![7; 10_000];
        assert!(pack(&items, &vec![false; 10_000]).is_empty());
        assert_eq!(pack(&items, &vec![true; 10_000]).len(), 10_000);
    }
}

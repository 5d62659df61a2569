//! The count / scan / scatter pass shared by the radix sort, the sample
//! sort and the group-by: one stable counting-sort step over blocks.
//!
//! [`count`] tallies, per block of the input, how many items fall in each
//! bucket; [`scatter`] turns those tallies into destinations with one
//! bucket-major scan (all of bucket 0 in block order, then bucket 1, …) and
//! moves every block independently. Both passes walk the same blocks, so
//! an item's destination depends on the input alone.

use crate::scan::scan_inplace_exclusive;
use crate::{block, for_each_block_mut, SharedMut};

/// Per-block bucket tallies of `src`, block-major: entry
/// `b * nbuckets + k` counts the items of block `b` that `bucket_of` sends
/// to `k` (`< nbuckets`, which is non-zero).
pub(crate) fn count<T: Sync>(
    src: &[T],
    block_len: usize,
    nbuckets: usize,
    bucket_of: &(impl Fn(&T) -> usize + Sync),
) -> Vec<usize> {
    let n = src.len();
    let mut tallies = vec![0usize; n.div_ceil(block_len) * nbuckets];
    for_each_block_mut(&mut tallies, nbuckets, |b, row| {
        for x in &src[block(b, block_len, n)] {
            row[bucket_of(x)] += 1;
        }
    });
    tallies
}

/// Stably moves `src` into `dst` (overwritten, its allocation reused)
/// grouped by bucket, given the `tallies` that [`count`] returned for the
/// same `src`, `block_len`, `nbuckets` and `bucket_of`. Returns the
/// `nbuckets + 1` group boundaries in `dst`.
pub(crate) fn scatter<T: Copy + Send + Sync>(
    src: &[T],
    dst: &mut Vec<T>,
    block_len: usize,
    nbuckets: usize,
    mut tallies: Vec<usize>,
    bucket_of: &(impl Fn(&T) -> usize + Sync),
) -> Vec<usize> {
    let n = src.len();
    let nblocks = n.div_ceil(block_len);
    // Bucket-major exclusive scan: each (block, bucket) cell becomes the
    // first destination of that block's items for that bucket.
    let mut col: Vec<usize> = Vec::with_capacity(tallies.len());
    for k in 0..nbuckets {
        for b in 0..nblocks {
            col.push(tallies[b * nbuckets + k]);
        }
    }
    let total = scan_inplace_exclusive(&mut col);
    assert_eq!(total, n, "scatter: tallies do not describe src");
    let mut starts = Vec::with_capacity(nbuckets + 1);
    for k in 0..nbuckets {
        starts.push(if nblocks == 0 { 0 } else { col[k * nblocks] });
        for b in 0..nblocks {
            tallies[b * nbuckets + k] = col[k * nblocks + b];
        }
    }
    starts.push(n);
    dst.clear();
    dst.reserve(n);
    let out = SharedMut(dst.as_mut_ptr());
    for_each_block_mut(&mut tallies, nbuckets, |b, cursor| {
        for x in &src[block(b, block_len, n)] {
            let k = bucket_of(x);
            // SAFETY: the scan gave every (block, bucket) cell its own run
            // of `0..n`, exactly as long as that cell's tally (checked to
            // sum to `n ≤ capacity` above); this task owns row `b` and
            // advances a cell's cursor once per item it tallied, so no slot
            // is written twice or by two tasks.
            unsafe { out.write(cursor[k], *x) };
            cursor[k] += 1;
        }
    });
    // SAFETY: the runs tile `0..n` and every one was filled above.
    unsafe { dst.set_len(n) };
    starts
}

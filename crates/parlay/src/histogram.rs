//! Parallel histogram and group-by-key utilities.

use crate::{counting, reduce, GRANULARITY};

/// Counts occurrences of each key in `0..num_keys`.
pub fn histogram(keys: &[usize], num_keys: usize) -> Vec<usize> {
    reduce(
        keys.len(),
        GRANULARITY,
        |r| {
            let mut h = vec![0usize; num_keys];
            for &k in &keys[r] {
                h[k] += 1;
            }
            h
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    )
}

/// Stable group-by: returns `(grouped_items, group_offsets)` where group
/// `k` occupies `grouped[offsets[k]..offsets[k+1]]`, preserving input
/// order within a group.
pub fn group_by_key<T: Copy + Send + Sync>(
    items: &[T],
    num_keys: usize,
    key: impl Fn(&T) -> usize + Sync,
) -> (Vec<T>, Vec<usize>) {
    if num_keys == 0 {
        assert!(items.is_empty(), "group_by_key: an item but no key");
        return (Vec::new(), vec![0]);
    }
    let tallies = counting::count(items, GRANULARITY, num_keys, &key);
    let mut out = Vec::new();
    let offsets = counting::scatter(items, &mut out, GRANULARITY, num_keys, tallies, &key);
    (out, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_matches_reference() {
        let keys: Vec<usize> = (0..100_000).map(|i| (i * 31) % 17).collect();
        let got = histogram(&keys, 17);
        let mut want = vec![0usize; 17];
        for &k in &keys {
            want[k] += 1;
        }
        assert_eq!(got, want);
        assert_eq!(got.iter().sum::<usize>(), keys.len());
    }

    #[test]
    fn histogram_empty_and_small() {
        assert_eq!(histogram(&[], 4), vec![0; 4]);
        assert_eq!(histogram(&[2, 2, 0], 3), vec![1, 0, 2]);
    }

    #[test]
    fn group_by_is_stable_partition() {
        let items: Vec<(usize, u32)> = (0..80_000).map(|i| ((i * 7) % 5, i as u32)).collect();
        let (grouped, offsets) = group_by_key(&items, 5, |x| x.0);
        assert_eq!(offsets.len(), 6);
        assert_eq!(offsets[5], items.len());
        for k in 0..5 {
            let grp = &grouped[offsets[k]..offsets[k + 1]];
            assert!(grp.iter().all(|x| x.0 == k));
            // Stability: second components increasing within the group.
            assert!(grp.windows(2).all(|w| w[0].1 < w[1].1));
        }
    }

    #[test]
    fn group_by_with_empty_groups() {
        let items: Vec<usize> = vec![3; 10_000];
        let (grouped, offsets) = group_by_key(&items, 6, |&x| x);
        assert_eq!(grouped.len(), 10_000);
        assert_eq!(offsets[3], 0);
        assert_eq!(offsets[4], 10_000);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[6], 10_000);
    }
}

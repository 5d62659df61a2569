//! Deterministic random permutations.
//!
//! Both the randomized incremental convex hull and Welzl's algorithm begin by
//! randomly permuting the input. For reproducible experiments we derive all
//! randomness from an explicit seed (ChaCha8).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::sort::radix_sort_u64_by_key;
use crate::{for_each_mut, tabulate, GRANULARITY};

/// Returns a uniformly random permutation of `0..n`, deterministic in `seed`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "permutation index overflow");
    let mut perm: Vec<u32> = (0..n as u32).collect();
    fisher_yates(&mut perm, seed);
    perm
}

/// Shuffles `items` in place, deterministic in `seed`.
///
/// Large inputs use the parallel "sort by random keys" shuffle (the keys are
/// derived per-element from a counter-mode hash, so the result is independent
/// of thread schedule); small inputs use sequential Fisher–Yates.
pub fn shuffle_seeded<T: Copy + Send + Sync>(items: &mut [T], seed: u64) {
    let n = items.len();
    if n <= GRANULARITY {
        fisher_yates(items, seed);
        return;
    }
    // Tag each element with a pseudorandom 64-bit key and sort by it.
    // Collisions are broken by index (stable sort), which biases the result
    // negligibly for 64-bit keys.
    let mut tagged: Vec<(u64, T)> = tabulate(n, GRANULARITY, |i| {
        (
            splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            items[i],
        )
    });
    radix_sort_u64_by_key(&mut tagged, |t| t.0);
    for_each_mut(items, GRANULARITY, |i, o| *o = tagged[i].1);
}

fn fisher_yates<T>(items: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// SplitMix64 finalizer — a fast, high-quality 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `v` into the running hash `h` with the [`splitmix64`] avalanche
/// rounds — the order-sensitive digest step shared by the engine's and the
/// store's workload drivers (equal digests across backends must mean equal
/// answers, so there is exactly one definition of this fold).
#[inline]
pub fn mix64(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation() {
        let n = 10_000;
        let p = random_permutation(n, 42);
        let mut seen = vec![false; n];
        for &i in &p {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(random_permutation(1000, 7), random_permutation(1000, 7));
        assert_ne!(random_permutation(1000, 7), random_permutation(1000, 8));
    }

    /// Every randomized hull and Welzl run consumes this exact permutation,
    /// so a change to any of its RNG calls must show here.
    #[test]
    fn permutation_digest_is_pinned() {
        let digest = |seed| {
            random_permutation(10_000, seed)
                .iter()
                .fold(0, |h, &i| mix64(h, i as u64))
        };
        assert_eq!(digest(42), 8_868_115_843_970_672_967);
        assert_eq!(digest(0x5EED), 15_321_833_016_886_169_789);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut a: Vec<u32> = (0..50_000).collect();
        shuffle_seeded(&mut a, 3);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50_000).collect::<Vec<u32>>());
        // And actually permutes something.
        assert!(a.iter().enumerate().any(|(i, &x)| i as u32 != x));
    }

    #[test]
    fn large_shuffle_deterministic() {
        let mut a: Vec<u32> = (0..20_000).collect();
        let mut b = a.clone();
        shuffle_seeded(&mut a, 99);
        shuffle_seeded(&mut b, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_looks_uniform_chi2_smoke() {
        // First element should land roughly uniformly across 10 deciles over
        // repeated seeds. Loose bound; just a sanity check, not a statistics
        // suite.
        let n = 1000u32;
        let mut counts = [0usize; 10];
        for seed in 0..500 {
            let mut a: Vec<u32> = (0..n).collect();
            shuffle_seeded(&mut a, seed);
            counts[(a[0] * 10 / n) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 20), "{counts:?}");
    }
}

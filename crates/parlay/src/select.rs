//! Parallel selection (`nth_element`) — the object-median kd-tree split.
//!
//! Floyd–Rivest selection with every row moved once per round. A round
//! draws `n^⅔` sample rows and takes two of them, `lo ≤ hi`, that bracket
//! the target rank with high probability; every block of `grain` rows is
//! then split three ways (`< lo`, the band `lo..=hi`, `> hi`) into its own
//! block of one scratch buffer, a scan over the block counts places the
//! three groups, and the blocks copy back. The band almost always holds
//! the target and is finished by the slice's own select; otherwise the
//! round repeats on the side that does. Expected work `O(n)` — about `2n`
//! comparisons — and depth `O(grain + log n)` a round, plus the
//! sequential `O(n^⅔ √log n)` band.
//!
//! That is twice the slice select's work, which two workers only just win
//! back: inputs under `SEQ_SELECT_CUTOFF` rows go to the slice's select.

use crate::scan::scan_inplace_exclusive;
use crate::{block, for_each_block_mut, mix64, parallel_for, SharedMut, GRANULARITY};
use std::cmp::Ordering;
use std::hint::select_unpredictable;

/// Fewer rows than this go to the slice's own select, which moves a row
/// only when it must; a round here compares every row twice and moves it
/// twice. Measured on the recording box (2 cores; EXPERIMENTS.md has the
/// table) at the median rank: on one worker the rounds take 1.5–2.4× the
/// slice's time at every size from 4k to 700k rows; on two they still
/// take 1.3–1.8× from 65k to 200k rows, and from 262 144 rows on draw
/// level on 24- to 48-byte rows (0.9–1.2×; 1.2–1.5× on 16-byte rows). A
/// 394k-point tree build takes the same 25–27 ms on two workers with this
/// anywhere from 2^16 to 2^20, against 30 with every select of 4 096 rows
/// or more forking, and 45 against 58 ms on one: by the depth a node
/// holds fewer rows than this, its siblings keep the other workers busy.
const SEQ_SELECT_CUTOFF: usize = 1 << 18;

/// Reorders `a` so that `a[nth]` holds the element of rank `nth` and every
/// element before it compares `<=` (under `cmp`) and every element after
/// compares `>=`. Same contract as `slice::select_nth_unstable_by`, which
/// it is below 2^18 rows (`SEQ_SELECT_CUTOFF`).
///
/// The permutation left behind is a function of the input and `nth` alone,
/// never of the worker count. If `cmp` panics, `a` is left holding
/// unspecified rows of the input.
pub fn select_nth_unstable_by<T, F>(a: &mut [T], nth: usize, cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    assert!(nth < a.len(), "select: nth out of bounds");
    if a.len() < SEQ_SELECT_CUTOFF {
        a.select_nth_unstable_by(nth, cmp);
    } else {
        select_at_grain(a, nth, GRANULARITY, &cmp);
    }
}

/// [`select_nth_unstable_by`] over blocks of `grain` rows: it forks iff
/// `a.len() > grain`.
fn select_at_grain<T, F>(mut a: &mut [T], mut nth: usize, grain: usize, cmp: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    // The one scratch of every round, sized by the first: a row slot per
    // row, three counts per block, the sample.
    let (mut rows, mut counts, mut sample) = (Vec::<T>::new(), Vec::new(), Vec::new());
    while a.len() > grain {
        let n = a.len();
        let (lo, hi) = bracket(a, nth, &mut sample, cmp);
        let nb = n.div_ceil(grain);
        rows.reserve(n);
        // `counts` is laid out group by group — the blocks' `< lo` counts,
        // then their band counts, then their `> hi` counts — so that one
        // exclusive scan turns it into every run's place in `a`.
        counts.resize(3 * nb, 0usize);
        let out = SharedMut(rows.as_mut_ptr());
        let tally = SharedMut(counts.as_mut_ptr());
        for_each_block_mut(a, grain, |b, rows_in| {
            // SAFETY: block `b` covers rows `b * grain..` of `a`, and takes
            // the same slots of the scratch (capacity ≥ `n`, the first
            // round's reservation) for its own; likewise entries `b`, `nb + b` and
            // `2 * nb + b` of the `3 * nb` counts.
            unsafe {
                let (below, band) = split_block(rows_in, out.slot(b * grain), &lo, &hi, cmp);
                tally.write(b, below);
                tally.write(nb + b, band);
                tally.write(2 * nb + b, rows_in.len() - below - band);
            }
        });
        let total = scan_inplace_exclusive(&mut counts);
        debug_assert_eq!(total, n);
        let (below, band) = (counts[nb], counts[2 * nb] - counts[nb]);
        let back = SharedMut(a.as_mut_ptr());
        parallel_for(nb, 1, |b| {
            let run = block(b, grain, n);
            let (n_below, n_band) = (
                counts[b + 1] - counts[b],
                counts[nb + b + 1] - counts[nb + b],
            );
            // SAFETY: `split_block` initialised all `run.len()` scratch
            // slots of block `b` — its `< lo` rows, then its band, then its
            // `> hi` rows — and the scan over the counts makes the three
            // destination runs of every block tile `0..n`. Scratch and `a`
            // are different allocations.
            unsafe {
                let src = out.slot(run.start);
                src.copy_to_nonoverlapping(back.slot(counts[b]), n_below);
                src.add(n_below)
                    .copy_to_nonoverlapping(back.slot(counts[nb + b]), n_band);
                src.add(n_below + n_band).copy_to_nonoverlapping(
                    back.slot(counts[2 * nb + b]),
                    run.len() - n_below - n_band,
                );
            }
        });
        let whole = a;
        if band == 0 {
            // `lo` is a row of `a` and belongs to the band under any total
            // order; only an inconsistent `cmp` gets here. Let the slice's
            // select deal with it as it does.
            whole.select_nth_unstable_by(nth, cmp);
            return;
        } else if nth < below {
            a = &mut whole[..below];
        } else if nth >= below + band {
            a = &mut whole[below + band..];
            nth -= below + band;
        } else {
            if cmp(&lo, &hi) != Ordering::Equal {
                whole[below..below + band].select_nth_unstable_by(nth - below, cmp);
            }
            return;
        }
    }
    a.select_nth_unstable_by(nth, cmp);
}

/// Two sample rows `lo ≤ hi` whose ranks in `a` bracket `nth` with high
/// probability: of `n^⅔` rows drawn at hashed positions, the ones
/// `½ √(s ln n)` sample ranks — some 3 standard deviations — either side
/// of rank `nth · s / n`.
fn bracket<T: Copy, F>(a: &[T], nth: usize, sample: &mut Vec<T>, cmp: &F) -> (T, T)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = a.len();
    let s = ((n as f64).powf(2.0 / 3.0) as usize).clamp(1, n);
    sample.clear();
    // Row `⌊hash · n / 2^64⌋` for the `i`-th hash: uniform over `0..n`.
    let draw = |i| a[((mix64(n as u64, i) as u128 * n as u128) >> 64) as usize];
    sample.extend((0..s as u64).map(draw));
    let k = (nth as u128 * s as u128 / n as u128) as usize;
    let gap = (0.5 * ((n as f64).ln() * s as f64).sqrt()) as usize;
    let (lo_k, hi_k) = (k.saturating_sub(gap), (k + gap).min(s - 1));
    sample.select_nth_unstable_by(hi_k, cmp);
    sample[..=hi_k].select_nth_unstable_by(lo_k, cmp);
    (sample[lo_k], sample[hi_k])
}

/// Splits `rows` into the `rows.len()` slots at `out`: the rows `< lo` from
/// the front, the rows `> hi` from the back, the band between them.
/// Returns the first two counts. Branch-free: a row's slot in `out` is
/// selected, not branched to, and every row is also stored to the band,
/// which gathers at the front of `rows` itself — behind the read position
/// — and moves over at the end; only the group a row belongs to advances.
///
/// # Safety
/// `out` points to `rows.len()` writable slots that do not overlap `rows`.
unsafe fn split_block<T: Copy, F>(
    rows: &mut [T],
    out: *mut T,
    lo: &T,
    hi: &T,
    cmp: &F,
) -> (usize, usize)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = rows.len();
    let rows = rows.as_mut_ptr();
    let (mut below, mut band, mut above) = (0, 0, 0);
    for i in 0..n {
        // SAFETY: `i < n`, inside `rows`.
        let row = unsafe { rows.add(i).read() };
        let is_below = cmp(&row, lo) == Ordering::Less;
        // Exactly one group per row whatever `cmp` answers, so the three
        // counts add up to `i`.
        let is_above = !is_below & (cmp(&row, hi) == Ordering::Greater);
        // SAFETY: `below + band + above == i < n`. Both slots of `out` are
        // among its `n` (this function's contract), and the runs from its
        // two ends have not met, so a band row — stored where the next
        // `> hi` row will go — overwrites nothing. `band ≤ i`: the slot in
        // `rows` is the row just read or one before it.
        unsafe {
            select_unpredictable(is_below, out.add(below), out.add(n - 1 - above)).write(row);
            rows.add(band).write(row);
        }
        below += is_below as usize;
        above += is_above as usize;
        band += !(is_below | is_above) as usize;
    }
    // SAFETY: `below + band + above == n`: the gap between the two runs in
    // `out` is `band` slots wide, and the band is the first `band` rows.
    unsafe { rows.copy_to_nonoverlapping(out.add(below), band) };
    (below, band)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// The public entry and, whatever the size, the rounds under it.
    fn check(a: &[u64], nth: usize) {
        let mut sorted = a.to_vec();
        sorted.sort();
        for rounds in [false, true] {
            let mut b = a.to_vec();
            if rounds {
                select_at_grain(&mut b, nth, GRANULARITY, &u64::cmp);
            } else {
                select_nth_unstable_by(&mut b, nth, u64::cmp);
            }
            assert_eq!(b[nth], sorted[nth]);
            assert!(b[..nth].iter().all(|x| x <= &b[nth]));
            assert!(b[nth + 1..].iter().all(|x| x >= &b[nth]));
            b.sort();
            assert_eq!(b, sorted, "selection must preserve the multiset");
        }
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

    /// A key and where the row stood in the input: rows with equal keys
    /// stay distinguishable, so a lost or doubled row shows.
    type Row = (u64, u32);

    fn by_key(x: &Row, y: &Row) -> Ordering {
        x.0.cmp(&y.0)
    }

    const SHAPES: [&str; 6] = [
        "all-equal",
        "two-valued",
        "sorted",
        "reversed",
        "organ-pipe",
        "random",
    ];

    fn rows(shape: &str, n: usize) -> Vec<Row> {
        let key = |i: usize| match shape {
            "all-equal" => 42,
            "two-valued" => mix64(1, i as u64) % 2,
            "sorted" => i as u64,
            "reversed" => (n - i) as u64,
            "organ-pipe" => i.min(n - i) as u64,
            _ => mix64(2, i as u64) % 1_000_003,
        };
        (0..n).map(|i| (key(i), i as u32)).collect()
    }

    /// The slice contract, on rows: rank `nth` in place, nothing greater
    /// before it, nothing less after it, the same rows as the input.
    fn check_rows(input: &[Row], out: &[Row], nth: usize, cell: &str) {
        let mut sorted = input.to_vec();
        sorted.sort();
        assert_eq!(out[nth].0, sorted[nth].0, "rank {cell}");
        assert!(out[..nth].iter().all(|x| x.0 <= out[nth].0), "left {cell}");
        assert!(out[nth..].iter().all(|x| x.0 >= out[nth].0), "right {cell}");
        let mut back = out.to_vec();
        back.sort();
        assert_eq!(back, sorted, "rows {cell}");
    }

    /// Both sides of the first three block boundaries, and a long input.
    fn sizes(grain: usize) -> Vec<usize> {
        let mut sizes = vec![1, 40 * grain.max(64) + 3];
        for blocks in 1..=3 {
            sizes.extend([blocks * grain - 1, blocks * grain, blocks * grain + 1]);
        }
        sizes.retain(|&n| n > 0);
        sizes
    }

    #[test]
    fn select_meets_the_slice_contract_and_ignores_the_worker_count() {
        for grain in [1, 7, GRANULARITY] {
            for n in sizes(grain) {
                for shape in SHAPES {
                    let input = rows(shape, n);
                    for nth in [0, n / 2, n - 1] {
                        let run = |workers| {
                            let mut a = input.clone();
                            with_threads(workers, || select_at_grain(&mut a, nth, grain, &by_key));
                            a
                        };
                        let one = run(1);
                        check_rows(
                            &input,
                            &one,
                            nth,
                            &format!("{shape} n={n} nth={nth} g={grain}"),
                        );
                        for workers in [2, 4] {
                            assert!(
                                run(workers) == one,
                                "{shape} n={n} nth={nth} g={grain}: {workers} workers permute differently"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One round classifies every row against two pivots — `2n` calls —
    /// and the sample and the band add a few percent. A select that took
    /// several full rounds, or compared once to classify and again to
    /// move, would not fit under `4n`.
    #[test]
    fn select_compares_at_most_four_times_per_row_on_random_input() {
        for n in [4_096, 50_000, 400_000] {
            let input = rows("random", n);
            for nth in [0, n / 3, n / 2, n - 1] {
                let calls = AtomicUsize::new(0);
                let mut a = input.clone();
                let counted = |x: &Row, y: &Row| {
                    calls.fetch_add(1, Relaxed);
                    by_key(x, y)
                };
                select_at_grain(&mut a, nth, GRANULARITY, &counted);
                check_rows(&input, &a, nth, &format!("n={n} nth={nth}"));
                let calls = calls.into_inner();
                assert!(calls <= 4 * n, "n={n} nth={nth}: {calls} comparisons");
            }
        }
    }

    /// A comparator that is no order at all must not hang the rounds or
    /// lose a row.
    #[test]
    fn an_inconsistent_comparator_still_returns_a_permutation() {
        let mut input = rows("random", 10_000);
        input.sort();
        for answer in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
            let mut a = input.clone();
            select_at_grain(&mut a, 5_000, 7, &|_: &Row, _: &Row| answer);
            a.sort();
            assert_eq!(a, input);
        }
    }

    /// The public entry hands fewer than `SEQ_SELECT_CUTOFF` rows to the
    /// slice's select and runs the rounds from there on: the permutations
    /// say which ran.
    #[test]
    fn the_cutoff_routes_between_the_slice_select_and_the_rounds() {
        for n in [SEQ_SELECT_CUTOFF - 1, SEQ_SELECT_CUTOFF] {
            let input = rows("random", n);
            let (mut public, mut slice, mut rounds) = (input.clone(), input.clone(), input);
            select_nth_unstable_by(&mut public, n / 2, by_key);
            slice.select_nth_unstable_by(n / 2, by_key);
            select_at_grain(&mut rounds, n / 2, GRANULARITY, &by_key);
            assert!(slice != rounds);
            assert!(public == if n < SEQ_SELECT_CUTOFF { slice } else { rounds });
        }
    }

    #[test]
    #[should_panic(expected = "nth out of bounds")]
    fn select_rejects_a_rank_past_the_end() {
        select_nth_unstable_by(&mut [1, 2, 3], 3, |x: &i32, y| x.cmp(y));
    }
}

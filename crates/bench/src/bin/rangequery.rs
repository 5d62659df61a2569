//! Rangequery figure (after Sun & Blelloch, Figures 7–9 in spirit):
//! build-batch and query-batch runtimes with self-relative speedups for the
//! range tree, interval tree, and rectangle counter, with the kd-tree as a
//! swappable `BatchQuery` backend and O(n·q) brute force as the baseline.
//! Scale with `PARGEO_N`; the query batch is `n / 10`.

use pargeo::prelude::*;
use pargeo_bench::{env_n, header, max_threads, t1_tp};

fn row(name: &str, f: impl Fn() + Sync + Send) {
    let (t1, tp, speedup) = t1_tp(f);
    println!("| {name} | {t1:.3} | {tp:.3} | {speedup:.2}x |");
}

fn main() {
    let n = env_n(100_000);
    let q = (n / 10).max(1);
    let p = max_threads();
    println!("# Range/segment/rectangle queries — n = {n}, batch = {q}, Tp at {p} threads\n");

    let pts = pargeo::datagen::uniform_cube::<2>(n, 1);
    let intervals = pargeo::datagen::uniform_intervals(n, 2, 0.01);
    let rects = pargeo::datagen::uniform_rects::<2>(n, 3, 0.01);
    let boxes = pargeo::datagen::uniform_rects::<2>(q, 4, 0.02);
    let box_counts: Vec<Count<Bbox<2>>> = boxes.iter().map(|&b| Count(b)).collect();
    let box_reports: Vec<Report<Bbox<2>>> = boxes.iter().map(|&b| Report(b)).collect();
    let side = pargeo::datagen::cube_side(n);
    let stabs: Vec<Count<f64>> = (0..q).map(|i| Count(side * i as f64 / q as f64)).collect();
    let stab_reports: Vec<Report<f64>> = stabs.iter().map(|c| Report(c.0)).collect();
    let segs: Vec<Count<(f64, f64)>> = pargeo::datagen::uniform_intervals(q, 5, 0.02)
        .into_iter()
        .map(Count)
        .collect();

    // Literal "Tp": on a 1-thread recorder `format!("T{p} (s)")` would
    // collide with the T1 column and the JSON baseline would lose it.
    header(&["Operation", "T1 (s)", "Tp (s)", "Speedup"]);

    // Build batch.
    row("range-tree build", || {
        let _ = RangeTree2d::build(&pts);
    });
    row("interval-tree build", || {
        let _ = IntervalTree::build(&intervals);
    });
    row("rectangle-set build", || {
        let _ = RectangleSet::build(&rects);
    });
    row("kd-tree build (backend)", || {
        let _ = KdTree::build(&pts, SplitRule::ObjectMedian);
    });

    // Query batch, data-parallel over queries through BatchQuery.
    let range_tree = RangeTree2d::build(&pts);
    let kd_tree = KdTree::build(&pts, SplitRule::ObjectMedian);
    let interval_tree = IntervalTree::build(&intervals);
    let rect_set = RectangleSet::build(&rects);

    row("range count batch (range tree)", || {
        let _ = range_tree.answer_batch(&box_counts);
    });
    row("range count batch (kd-tree)", || {
        let _ = kd_tree.answer_batch(&box_counts);
    });
    row("range report batch (range tree)", || {
        let _ = range_tree.answer_batch(&box_reports);
    });
    row("range report batch (kd-tree)", || {
        let _ = kd_tree.answer_batch(&box_reports);
    });
    row("stab count batch (interval tree)", || {
        let _ = interval_tree.answer_batch(&stabs);
    });
    row("stab report batch (interval tree)", || {
        let _ = interval_tree.answer_batch(&stab_reports);
    });
    row("segment intersect count batch", || {
        let _ = interval_tree.answer_batch(&segs);
    });
    row("rect intersect count batch", || {
        let _ = rect_set.answer_batch(&box_counts);
    });

    // Brute-force baseline on a 1/20 query subsample (O(n·q) full scale
    // would dwarf everything else); still data-parallel over queries.
    let sub = &box_counts[..(q / 20).max(1)];
    row("brute count batch (q/20 subsample)", || {
        // Grain 1: an item is a scan of all n points.
        let _: Vec<usize> =
            pargeo::parlay::map(sub, 1, |c| pts.iter().filter(|p| c.0.contains(p)).count());
    });

    // Correctness anchor (commentary; the JSON recorder keeps table rows).
    let want: Vec<usize> = sub
        .iter()
        .map(|c| pts.iter().filter(|p| c.0.contains(p)).count())
        .collect();
    let got = range_tree.answer_batch(sub);
    let kd_got = kd_tree.answer_batch(sub);
    assert_eq!(got, want, "range tree disagrees with brute force");
    assert_eq!(kd_got, want, "kd-tree disagrees with brute force");
    println!(
        "\nanchor: {} subsampled counts match brute force on both backends",
        sub.len()
    );
}

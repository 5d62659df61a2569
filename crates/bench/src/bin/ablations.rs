//! Ablation studies for the design choices DESIGN.md §6 calls out:
//!
//! 1. pseudohull facet-threshold cutoff (stack-overflow guard vs pruning
//!    quality),
//! 2. SEB sampling segment size `c` (Figure 6's constant),
//! 3. BDL buffer size `X`, with the k-NN distance tests per query,
//! 4. the static tree build through its two entry points (`KdTree` and
//!    `LevelTree`) on the four shapes that separate a build's weak cases,
//! 5. Delaunay removal against a build over the survivors, the
//!    measurement behind the store giving delete epochs no rebuild
//!    threshold (at 90% the row shows the engine's own switch to a build),
//! 6. reservation boundary ring on/off is structural (cannot be toggled
//!    without forfeiting disjointness), so its cost shows in
//!    `fig12_reservation` instead.

use pargeo::datagen;
use pargeo::prelude::*;
use pargeo_bench::{env_n, header, ms, time, time_best};

fn main() {
    let n = env_n(100_000);
    println!("# Ablations (n = {n})\n");

    // 1. Pseudohull threshold.
    println!("## Pseudohull stop threshold (3D-IS)\n");
    let pts3 = datagen::in_sphere::<3>(n, 1);
    header(&["threshold", "time (ms)"]);
    for th in [1usize, 8, 32, 128, 1024, 16_384] {
        let t = time_best(2, || {
            pargeo::hull::hull3d::hull3d_pseudo_with_threshold(&pts3, th)
        });
        println!("| {th} | {} |", ms(t));
    }

    // 2. SEB sampling batch size.
    println!("\n## SEB sampling segment size c (3D-U)\n");
    let ptsu = datagen::uniform_cube::<3>(n, 2);
    header(&["c", "time (ms)"]);
    for c in [256usize, 1_024, 4_096, 10_000, 40_000] {
        let t = time_best(3, || pargeo::seb::seb_sampling_with_batch(&ptsu, c));
        println!("| {c} | {} |", ms(t));
    }
    let t_scan = time_best(3, || seb_orthant_scan(&ptsu));
    println!("| (no sampling: Scan) | {} |", ms(t_scan));

    // 3. BDL buffer size X, with the k-NN distance tests a query costs.
    println!("\n## BDL buffer size X\n");
    header(&[
        "shape",
        "X",
        "write time (ms)",
        "k-NN time (ms)",
        "points tested / query",
    ]);
    let pts5 = datagen::uniform_cube::<5>(n, 3);
    let build = |x| {
        let mut t = BdlTree::<5>::with_buffer_size(x);
        for chunk in pts5.chunks(n / 10) {
            t.insert(chunk);
        }
        t
    };
    for x in [64usize, 256, 1_024, 4_096, 16_384] {
        let ins = time_best(1, || build(x));
        let tree = build(x);
        let queries = &pts5[..n / 10];
        let knn = time_best(1, || tree.knn_batch(queries, 5));
        let tested = points_tested(&tree, queries, 5);
        println!(
            "| 5D-U, 10x10% inserts, k = 5 | {x} | {} | {} | {tested:.1} |",
            ms(ins),
            ms(knn)
        );
    }
    serve_shape(4 * n);

    // 4. The static build, on one worker: many rows, fat rows, many nodes,
    // and a tree that fits in cache.
    println!("\n## Static tree build (T1, best of 7)\n");
    header(&["shape", "KdTree (ms)", "LevelTree (ms)"]);
    pargeo::parlay::with_threads(1, || {
        static_build::<2>(2 * n, 16);
        static_build::<5>(2 * n, 16);
        static_build::<2>(3 * n / 10, 1);
        static_build::<2>(3 * n / 10, 16);
    });

    // 5. Delaunay removal against a rebuild.
    let m = 3 * n / 10;
    println!("\n## Delaunay: remove b of {m} points in place, or rebuild (best of 5)\n");
    header(&[
        "b / n",
        "try_remove_batch (ms)",
        "try_build over survivors (ms)",
    ]);
    let pts = datagen::uniform_cube::<2>(m, 7);
    for percent in [1, 10, 50, 90] {
        remove_or_rebuild(&pts, m * percent / 100, percent);
    }
}

/// One row of the removal table: the oldest `b` of `pts` (positions
/// `0..b`, as a store's sliding window deletes them) removed from a built
/// engine, against a build over the other points. Exits non-zero unless
/// both hold the same edges.
fn remove_or_rebuild(pts: &[Point2], b: usize, percent: usize) {
    let gone: Vec<u32> = (0..b as u32).collect();
    let mut remove = f64::INFINITY;
    let mut removed = None;
    for _ in 0..5 {
        let mut engine = DelaunayIncremental::try_build(pts).expect("uniform points triangulate");
        remove = remove.min(time(|| engine.try_remove_batch(&gone)).1);
        removed = Some(engine);
    }
    let rebuild = time_best(5, || DelaunayIncremental::try_build(&pts[b..]));
    let fresh = DelaunayIncremental::try_build(&pts[b..]).expect("survivors triangulate");
    let edges = |e: &DelaunayIncremental| e.edges().expect("a usable engine");
    assert_eq!(
        edges(&removed.expect("five runs")),
        edges(&fresh),
        "b = {b}"
    );
    println!("| {percent}% ({b}) | {} | {} |", ms(remove), ms(rebuild));
}

/// Mean k-NN distance tests per query over `queries` (`BdlTree::knn_work`).
fn points_tested<const D: usize>(tree: &BdlTree<D>, queries: &[Point<D>], k: usize) -> f64 {
    let total: u64 = queries
        .iter()
        .map(|q| tree.knn_work(q, k).1.points_tested)
        .sum();
    total as f64 / queries.len() as f64
}

/// The X table's row in `store-serve`'s shape, at the default X: `live`
/// 2-D points, then 16 windows that each insert 1 000 new points, delete
/// the 1 000 oldest and answer 250 k-NN queries with k = 8 — so the insert
/// buffer holds a different number of rows in every window. Times are
/// summed over the windows, points tested averaged.
fn serve_shape(live: usize) {
    const WINDOWS: usize = 16;
    const STEP: usize = 1_000;
    let pts = datagen::uniform_cube::<2>(live + WINDOWS * STEP, 5);
    let queries = &datagen::uniform_cube::<2>(pts.len(), 6)[..250];
    let mut tree = BdlTree::<2>::new();
    tree.insert(&pts[..live]);
    let (mut write, mut knn, mut tested) = (0.0, 0.0, 0.0);
    for w in 0..WINDOWS {
        write += time(|| {
            tree.insert(&pts[live + w * STEP..][..STEP]);
            tree.delete(&pts[w * STEP..][..STEP]);
        })
        .1;
        knn += time(|| tree.knn_batch(queries, 8)).1;
        tested += points_tested(&tree, queries, 8) / WINDOWS as f64;
    }
    println!(
        "| 2D-U, {live} + {WINDOWS} windows of {STEP} insert+delete, k = 8 | {} | {} | {} | {tested:.1} |",
        tree.buffer_size(),
        ms(write),
        ms(knn)
    );
}

/// One row of the static-build table: `n` uniform points, object-median
/// splits, through `KdTree::build_with_leaf_size` and `LevelTree::build_with`.
fn static_build<const D: usize>(n: usize, leaf_size: usize) {
    let pts = datagen::uniform_cube::<D>(n, 4);
    let rows: Vec<_> = pts.iter().copied().zip(0u32..).collect();
    let rule = SplitRule::ObjectMedian;
    let kd = time_best(7, || KdTree::build_with_leaf_size(&pts, rule, leaf_size));
    let level = time_best(7, || LevelTree::build_with(rows.clone(), leaf_size, rule));
    println!(
        "| {n} x {D}-D, leaf {leaf_size} | {} | {} |",
        ms(kd),
        ms(level)
    );
}

//! Golden answers of the BDL-tree through an insert/delete replay, at one
//! and two threads: FNV-1a digests of the `knn_batch` rows (k = 1 and 8)
//! and of the `range_box_batch` rows, the `knn_work` counters summed over
//! the queries, and the write path's `write_work()`. A level's node slots
//! are the layout's business alone — none of these may move when only the
//! order of a level's node array changes.

use pargeo_bdltree::BdlTree;
use pargeo_datagen::{cube_side, uniform_cube};
use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::KnnWork;
use pargeo_parlay::with_threads;

/// `"<count> <FNV-1a 64 of the words>"`.
fn digest(words: impl IntoIterator<Item = u64>) -> String {
    let (mut count, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
        count += 1;
    }
    format!("{count} {h:016x}")
}

/// `n` points of the uniform stream snapped to a `side`-wide integer grid:
/// many copies of every position, so deletes kill several rows and k-NN
/// rows tie on distance.
fn lattice<const D: usize>(n: usize, seed: u64, side: f64) -> Vec<Point<D>> {
    let scale = side / cube_side(n);
    uniform_cube::<D>(n, seed)
        .iter()
        .map(|p| Point::new(std::array::from_fn(|i| (p[i] * scale).floor())))
        .collect()
}

/// The rows one state of the tree answers with.
fn answers<const D: usize>(
    name: &str,
    t: &BdlTree<D>,
    queries: &[Point<D>],
    boxes: &[Bbox<D>],
    out: &mut Vec<String>,
) {
    for k in [1, 8] {
        let rows = t.knn_batch(queries, k);
        let words = rows
            .iter()
            .flat_map(|row| row.iter().flat_map(|n| [n.dist_sq.to_bits(), n.id as u64]));
        out.push(format!("{name} knn k={k} {}", digest(words)));
        let mut sum = KnnWork::default();
        for q in queries {
            let (_, w) = t.knn_work(q, k);
            sum.nodes += w.nodes;
            sum.leaves += w.leaves;
            sum.points_tested += w.points_tested;
            sum.trees_skipped += w.trees_skipped;
        }
        out.push(format!("{name} knn_work k={k} {sum:?}"));
    }
    let rows = t.range_box_batch(boxes);
    let words = rows
        .iter()
        .flat_map(|row| std::iter::once(row.len() as u64).chain(row.iter().map(|&id| id as u64)));
    out.push(format!("{name} range {}", digest(words)));
}

/// Inserts that spill into and take from the insert buffer, deletes that
/// drain one level or several, then the answers after every third step
/// and the write work at the end — the same rows at one and two threads.
fn replay<const D: usize>(name: &str, pts: &[Point<D>], half: f64, out: &mut Vec<String>) {
    let n = pts.len();
    let queries = &uniform_cube::<D>(n, 7)[..300];
    let boxes: Vec<Bbox<D>> = queries
        .iter()
        .map(|q| Bbox {
            min: Point::new(std::array::from_fn(|i| q[i] - half)),
            max: Point::new(std::array::from_fn(|i| q[i] + half)),
        })
        .collect();
    let at = |f: f64| (f * n as f64) as usize;
    let script: [(bool, std::ops::Range<usize>); 9] = [
        (true, 0..at(0.40)),
        (true, at(0.40)..at(0.40) + 77),
        (false, at(0.05)..at(0.15)),
        (true, at(0.40) + 77..at(0.70)),
        (false, at(0.15)..at(0.45)),
        (true, at(0.70)..at(0.70) + 300),
        (false, at(0.50)..at(0.60)),
        (true, at(0.70) + 300..n),
        (false, at(0.60)..at(0.95)),
    ];
    let [t1, t2] = [1, 2].map(|t| {
        with_threads(t, || {
            let mut rows = Vec::new();
            let mut tree = BdlTree::<D>::with_buffer_size(256);
            for (step, (insert, range)) in script.iter().cloned().enumerate() {
                if insert {
                    tree.insert(&pts[range]);
                } else {
                    tree.delete(&pts[range]);
                }
                if step % 3 == 2 {
                    let label = format!("{name} step {step} {:?}", tree.tree_sizes());
                    answers(&label, &tree, queries, &boxes, &mut rows);
                }
            }
            rows.push(format!("{name} {:?}", tree.write_work()));
            rows
        })
    });
    assert_eq!(t1, t2, "{name}: one and two threads disagree");
    out.extend(t1);
}

#[test]
fn bdl_answers_and_work_are_unchanged() {
    let mut got = Vec::new();
    let (uniform2, lattice2) = (
        uniform_cube::<2>(40_000, 61),
        lattice::<2>(30_000, 62, 90.0),
    );
    let uniform5 = uniform_cube::<5>(20_000, 63);
    replay("2D uniform 40k", &uniform2, 4.0, &mut got);
    replay("2D lattice 30k", &lattice2, 3.0, &mut got);
    replay("5D uniform 20k", &uniform5, 28.0, &mut got);
    let want = [
        "2D uniform 40k step 2 [256, 512, 1024, 2048, 0, 8192] knn k=1 600 973c7632c138c71b",
        "2D uniform 40k step 2 [256, 512, 1024, 2048, 0, 8192] knn_work k=1 KnnWork { nodes: 10524, leaves: 1446, points_tested: 23097, trees_skipped: 366 }",
        "2D uniform 40k step 2 [256, 512, 1024, 2048, 0, 8192] knn k=8 4800 0aa488cc69f3078c",
        "2D uniform 40k step 2 [256, 512, 1024, 2048, 0, 8192] knn_work k=8 KnnWork { nodes: 12583, leaves: 2194, points_tested: 35061, trees_skipped: 364 }",
        "2D uniform 40k step 2 [256, 512, 1024, 2048, 0, 8192] range 6033 a07ebeecb71dc789",
        "2D uniform 40k step 5 [256, 512, 1024, 0, 2173, 0, 8192] knn k=1 600 9b80f986bec60c0d",
        "2D uniform 40k step 5 [256, 512, 1024, 0, 2173, 0, 8192] knn_work k=1 KnnWork { nodes: 13419, leaves: 1896, points_tested: 28873, trees_skipped: 10 }",
        "2D uniform 40k step 5 [256, 512, 1024, 0, 2173, 0, 8192] knn k=8 4800 999264657f6db289",
        "2D uniform 40k step 5 [256, 512, 1024, 0, 2173, 0, 8192] knn_work k=8 KnnWork { nodes: 16553, leaves: 3115, points_tested: 48115, trees_skipped: 0 }",
        "2D uniform 40k step 5 [256, 512, 1024, 0, 2173, 0, 8192] range 6022 71f96e2fb046e904",
        "2D uniform 40k step 8 [256, 512, 1024, 0, 4096, 0, 0] knn k=1 600 2f95a7b7fd3c98c5",
        "2D uniform 40k step 8 [256, 512, 1024, 0, 4096, 0, 0] knn_work k=1 KnnWork { nodes: 5447, leaves: 881, points_tested: 13580, trees_skipped: 750 }",
        "2D uniform 40k step 8 [256, 512, 1024, 0, 4096, 0, 0] knn k=8 4800 576f122b17b6e8bd",
        "2D uniform 40k step 8 [256, 512, 1024, 0, 4096, 0, 0] knn_work k=8 KnnWork { nodes: 7169, leaves: 1554, points_tested: 24292, trees_skipped: 729 }",
        "2D uniform 40k step 8 [256, 512, 1024, 0, 4096, 0, 0] range 3103 536b98ab2657a081",
        "2D uniform 40k BdlWriteWork { rows_moved: 146944, rows_built: 73472, trees_built: 20, erase_query_levels: 1225334, erase_compares: 1727681, rows_indexed: 1064 }",
        "2D lattice 30k step 2 [192, 332, 679, 0, 0, 5040] knn k=1 600 49d4b6dc9dbfe9cc",
        "2D lattice 30k step 2 [192, 332, 679, 0, 0, 5040] knn_work k=1 KnnWork { nodes: 8765, leaves: 1131, points_tested: 17816, trees_skipped: 238 }",
        "2D lattice 30k step 2 [192, 332, 679, 0, 0, 5040] knn k=8 4800 b66db92d85f72d47",
        "2D lattice 30k step 2 [192, 332, 679, 0, 0, 5040] knn_work k=8 KnnWork { nodes: 11845, leaves: 2383, points_tested: 37792, trees_skipped: 238 }",
        "2D lattice 30k step 2 [192, 332, 679, 0, 0, 5040] range 2340 11e80588e2495945",
        "2D lattice 30k step 5 [0, 0, 1024, 2048, 0, 0, 0] knn k=1 600 bca65c958b471dae",
        "2D lattice 30k step 5 [0, 0, 1024, 2048, 0, 0, 0] knn_work k=1 KnnWork { nodes: 6047, leaves: 970, points_tested: 15502, trees_skipped: 0 }",
        "2D lattice 30k step 5 [0, 0, 1024, 2048, 0, 0, 0] knn k=8 4800 70b7f711dff6e5e2",
        "2D lattice 30k step 5 [0, 0, 1024, 2048, 0, 0, 0] knn_work k=8 KnnWork { nodes: 7582, leaves: 1604, points_tested: 25643, trees_skipped: 0 }",
        "2D lattice 30k step 5 [0, 0, 1024, 2048, 0, 0, 0] range 1223 dc1b2b6a40e72375",
        "2D lattice 30k step 8 [0, 512, 0, 0, 0, 0, 0] knn k=1 600 f0c9a1b1d3808611",
        "2D lattice 30k step 8 [0, 512, 0, 0, 0, 0, 0] knn_work k=1 KnnWork { nodes: 2191, leaves: 551, points_tested: 8465, trees_skipped: 183 }",
        "2D lattice 30k step 8 [0, 512, 0, 0, 0, 0, 0] knn k=8 4800 66624bca22bb4cc7",
        "2D lattice 30k step 8 [0, 512, 0, 0, 0, 0, 0] knn_work k=8 KnnWork { nodes: 3094, leaves: 923, points_tested: 14345, trees_skipped: 159 }",
        "2D lattice 30k step 8 [0, 512, 0, 0, 0, 0, 0] range 489 a3cdce612638a039",
        "2D lattice 30k BdlWriteWork { rows_moved: 83352, rows_built: 41676, trees_built: 16, erase_query_levels: 653694, erase_compares: 781273, rows_indexed: 1109 }",
        "5D uniform 20k step 2 [256, 512, 1024, 0, 4096] knn k=1 600 8f46d4d3ab06cdeb",
        "5D uniform 20k step 2 [256, 512, 1024, 0, 4096] knn_work k=1 KnnWork { nodes: 19455, leaves: 4620, points_tested: 71792, trees_skipped: 0 }",
        "5D uniform 20k step 2 [256, 512, 1024, 0, 4096] knn k=8 4800 f4b8c401e153ebfb",
        "5D uniform 20k step 2 [256, 512, 1024, 0, 4096] knn_work k=8 KnnWork { nodes: 31950, leaves: 9538, points_tested: 149029, trees_skipped: 0 }",
        "5D uniform 20k step 2 [256, 512, 1024, 0, 4096] range 11075 25139fbe981ed3f4",
        "5D uniform 20k step 5 [0, 0, 1024, 1125, 0, 4096] knn k=1 600 70b3d9e861e2118b",
        "5D uniform 20k step 5 [0, 0, 1024, 1125, 0, 4096] knn_work k=1 KnnWork { nodes: 21834, leaves: 5336, points_tested: 84473, trees_skipped: 0 }",
        "5D uniform 20k step 5 [0, 0, 1024, 1125, 0, 4096] knn k=8 4800 b55ecdfdfef6517c",
        "5D uniform 20k step 5 [0, 0, 1024, 1125, 0, 4096] knn_work k=8 KnnWork { nodes: 40607, leaves: 12457, points_tested: 198146, trees_skipped: 0 }",
        "5D uniform 20k step 5 [0, 0, 1024, 1125, 0, 4096] range 11510 1ea0b9699cac7c69",
        "5D uniform 20k step 8 [256, 512, 0, 2048, 0, 0] knn k=1 600 3d30f71c14ee887b",
        "5D uniform 20k step 8 [256, 512, 0, 2048, 0, 0] knn_work k=1 KnnWork { nodes: 11695, leaves: 2879, points_tested: 43968, trees_skipped: 339 }",
        "5D uniform 20k step 8 [256, 512, 0, 2048, 0, 0] knn k=8 4800 02ff7cf06aa0fcbb",
        "5D uniform 20k step 8 [256, 512, 0, 2048, 0, 0] knn_work k=8 KnnWork { nodes: 20370, leaves: 6473, points_tested: 99716, trees_skipped: 262 }",
        "5D uniform 20k step 8 [256, 512, 0, 2048, 0, 0] range 5738 d097fbe33e257615",
        "5D uniform 20k BdlWriteWork { rows_moved: 74752, rows_built: 37376, trees_built: 18, erase_query_levels: 498672, erase_compares: 734213, rows_indexed: 1088 }",
    ];
    assert_eq!(got, want, "{got:#?}");
}

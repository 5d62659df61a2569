//! Golden answers of the §6.3 baselines through an insert/delete replay,
//! under both split rules, at one and two threads: after every step the
//! live count, the number a delete removed, and FNV-1a digests of the
//! `knn_batch` rows (k = 1 and 8). Rows are ordered by `(dist², id)`, so
//! none of these may move when only the layout of a tree changes.

use pargeo_datagen::{cube_side, uniform_cube};
use pargeo_geometry::Point;
use pargeo_kdtree::{B1Tree, B2Tree, Neighbor, SplitRule};
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

/// The operations both baselines share.
trait Baseline<const D: usize> {
    fn make(rule: SplitRule) -> Self;
    fn insert(&mut self, batch: &[Point<D>]);
    fn delete(&mut self, batch: &[Point<D>]) -> usize;
    fn len(&self) -> usize;
    fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>>;
}

macro_rules! baseline {
    ($tree:ident) => {
        impl<const D: usize> Baseline<D> for $tree<D> {
            fn make(rule: SplitRule) -> Self {
                $tree::new(rule)
            }
            fn insert(&mut self, batch: &[Point<D>]) {
                $tree::insert(self, batch)
            }
            fn delete(&mut self, batch: &[Point<D>]) -> usize {
                $tree::delete(self, batch)
            }
            fn len(&self) -> usize {
                $tree::len(self)
            }
            fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
                $tree::knn_batch(self, queries, k)
            }
        }
    };
}
baseline!(B1Tree);
baseline!(B2Tree);

/// A first batch that fixes B2's splits, later inserts routed into its
/// leaves, deletes of live and of already-deleted points, then the rows
/// after every step — the same at one and two threads.
fn replay<const D: usize, T: Baseline<D>>(
    name: &str,
    pts: &[Point<D>],
    out: &mut Vec<String>,
    rule: SplitRule,
) {
    let n = pts.len();
    let queries = &uniform_cube::<D>(n, 7)[..300];
    let at = |f: f64| (f * n as f64) as usize;
    let script: [(bool, std::ops::Range<usize>); 7] = [
        (true, 0..at(0.30)),
        (true, at(0.30)..at(0.30) + 77),
        (false, at(0.05)..at(0.15)),
        (true, at(0.30) + 77..at(0.75)),
        (false, at(0.10)..at(0.40)),
        (true, at(0.75)..n),
        (false, at(0.50)..at(0.90)),
    ];
    let [t1, t2] = [1, 2].map(|t| {
        with_threads(t, || {
            let mut rows = Vec::new();
            let mut tree = T::make(rule);
            for (step, (insert, range)) in script.iter().cloned().enumerate() {
                let removed = if insert {
                    tree.insert(&pts[range]);
                    0
                } else {
                    tree.delete(&pts[range])
                };
                let label = format!("{name} step {step} len {} -{removed}", tree.len());
                for k in [1, 8] {
                    let words = tree.knn_batch(queries, k).into_iter().flat_map(|row| {
                        row.into_iter()
                            .flat_map(|n| [n.dist_sq.to_bits(), n.id as u64])
                    });
                    rows.push(format!("{label} k={k} {}", digest(words)));
                }
            }
            rows
        })
    });
    assert_eq!(t1, t2, "{name}: one and two threads disagree");
    out.extend(t1);
}

/// The rows of `T2`/`T5` over the three inputs under `rule`.
fn run<T2: Baseline<2>, T5: Baseline<5>>(rule: SplitRule) -> Vec<String> {
    let mut got = Vec::new();
    replay::<2, T2>("2D uniform", &uniform_cube::<2>(12_000, 71), &mut got, rule);
    replay::<2, T2>(
        "2D lattice",
        &lattice::<2>(10_000, 72, 40.0),
        &mut got,
        rule,
    );
    replay::<5, T5>("5D uniform", &uniform_cube::<5>(6_000, 73), &mut got, rule);
    got
}

/// Both baselines under both split rules answer with the same rows, the
/// ones recorded here.
#[test]
fn baseline_answers_are_unchanged() {
    let want = [
        "2D uniform step 0 len 3600 -0 k=1 600 c182a36563dc63ad",
        "2D uniform step 0 len 3600 -0 k=8 4800 96b8f0a6af33c4aa",
        "2D uniform step 1 len 3677 -0 k=1 600 09a58b9a7a10cf38",
        "2D uniform step 1 len 3677 -0 k=8 4800 062d4463a562bf82",
        "2D uniform step 2 len 2477 -1200 k=1 600 7c5a93354cb5322f",
        "2D uniform step 2 len 2477 -1200 k=8 4800 d63c42118659c563",
        "2D uniform step 3 len 7800 -0 k=1 600 d0b282ac51355eee",
        "2D uniform step 3 len 7800 -0 k=8 4800 664c641cd473e425",
        "2D uniform step 4 len 4800 -3000 k=1 600 7d875831993662b5",
        "2D uniform step 4 len 4800 -3000 k=8 4800 ac8c5cac21758c4b",
        "2D uniform step 5 len 7800 -0 k=1 600 f73cfb1db655c8da",
        "2D uniform step 5 len 7800 -0 k=8 4800 c8bdc89c372f16e0",
        "2D uniform step 6 len 3000 -4800 k=1 600 34db94378196a315",
        "2D uniform step 6 len 3000 -4800 k=8 4800 fe8d8baf957abaaf",
        "2D lattice step 0 len 3000 -0 k=1 600 c9c4426d230a67de",
        "2D lattice step 0 len 3000 -0 k=8 4800 242ad46135508b0e",
        "2D lattice step 1 len 3077 -0 k=1 600 c9c4426d230a67de",
        "2D lattice step 1 len 3077 -0 k=8 4800 787065bc13a9f1cd",
        "2D lattice step 2 len 1140 -1937 k=1 600 38762690f7457930",
        "2D lattice step 2 len 1140 -1937 k=8 4800 c94e83c2058c4246",
        "2D lattice step 3 len 5563 -0 k=1 600 7b30fe6f5eb31e23",
        "2D lattice step 3 len 5563 -0 k=8 4800 bbeb39a2e2c4aa48",
        "2D lattice step 4 len 569 -4994 k=1 600 118578d4dbae2c93",
        "2D lattice step 4 len 569 -4994 k=8 4800 d5935fa57b0d0a12",
        "2D lattice step 5 len 3069 -0 k=1 600 1db391bb09067815",
        "2D lattice step 5 len 3069 -0 k=8 4800 bd64b51b619f097c",
        "2D lattice step 6 len 122 -2947 k=1 600 10e823c9c911c67c",
        "2D lattice step 6 len 122 -2947 k=8 4800 16b43c88d116175a",
        "5D uniform step 0 len 1800 -0 k=1 600 164c2379a60e6c73",
        "5D uniform step 0 len 1800 -0 k=8 4800 bfe06a247e644ac4",
        "5D uniform step 1 len 1877 -0 k=1 600 22961447e40a041f",
        "5D uniform step 1 len 1877 -0 k=8 4800 6358be55c9bc5870",
        "5D uniform step 2 len 1277 -600 k=1 600 b72488400c53753c",
        "5D uniform step 2 len 1277 -600 k=8 4800 39e2af6a271d302c",
        "5D uniform step 3 len 3900 -0 k=1 600 89661678c04522ab",
        "5D uniform step 3 len 3900 -0 k=8 4800 07a77687d7bd7111",
        "5D uniform step 4 len 2400 -1500 k=1 600 d90a6e483d029dd1",
        "5D uniform step 4 len 2400 -1500 k=8 4800 6cf639dcc8c28bc4",
        "5D uniform step 5 len 3900 -0 k=1 600 a5d484466d3bdbca",
        "5D uniform step 5 len 3900 -0 k=8 4800 d608b7cc10de049b",
        "5D uniform step 6 len 1500 -2400 k=1 600 191a90728e6fd4be",
        "5D uniform step 6 len 1500 -2400 k=8 4800 0360a8d814f0d108",
    ];
    for rule in [SplitRule::ObjectMedian, SplitRule::SpatialMedian] {
        let got = run::<B1Tree<2>, B1Tree<5>>(rule);
        assert_eq!(got, want, "B1 {rule:?}: {got:#?}");
        let got = run::<B2Tree<2>, B2Tree<5>>(rule);
        assert_eq!(got, want, "B2 {rule:?}: {got:#?}");
    }
}

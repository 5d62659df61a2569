//! Cross-crate integration: the four spatial indexes (static kd-tree, B1,
//! B2, BDL, Zd) answer identically under identical update streams.

use pargeo::datagen::uniform_cube;
use pargeo::kdtree::knn_brute_force;
use pargeo::prelude::*;

#[test]
fn all_indexes_agree_after_update_stream() {
    let n = 4_000;
    let pts = uniform_cube::<3>(n, 1);
    let batch = n / 10;

    let mut bdl = BdlTree::<3>::with_buffer_size(128);
    let mut b1 = B1Tree::<3>::new(SplitRule::ObjectMedian);
    let mut b2 = B2Tree::<3>::new(SplitRule::ObjectMedian);
    let mut zd = ZdTree::from_points(&pts[..batch]);
    b1.insert(&pts[..batch]);
    b2.insert(&pts[..batch]);
    bdl.insert(&pts[..batch]);
    for chunk in pts[batch..].chunks(batch) {
        bdl.insert(chunk);
        b1.insert(chunk);
        b2.insert(chunk);
        zd.insert(chunk);
    }
    // Delete 30%.
    for chunk in pts.chunks(batch).take(3) {
        assert_eq!(bdl.delete(chunk), batch);
        assert_eq!(b1.delete(chunk), batch);
        assert_eq!(b2.delete(chunk), batch);
        assert_eq!(zd.delete(chunk), batch);
    }
    let live = &pts[3 * batch..];
    assert_eq!(bdl.len(), live.len());
    assert_eq!(b1.len(), live.len());
    assert_eq!(b2.len(), live.len());
    assert_eq!(zd.len(), live.len());

    for q in live.iter().step_by(97) {
        let want = knn_brute_force(live, q, 5);
        for (name, got) in [
            ("bdl", bdl.knn(q, 5)),
            ("b1", b1.knn(q, 5)),
            ("b2", b2.knn(q, 5)),
            ("zd", zd.knn(q, 5)),
        ] {
            assert_eq!(got.len(), want.len(), "{name}");
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.dist_sq - w.dist_sq).abs() <= 1e-9 * (1.0 + g.dist_sq),
                    "{name}: {g:?} vs {w:?}"
                );
            }
        }
    }
}

#[test]
fn static_tree_and_veb_tree_answer_identically() {
    let pts = uniform_cube::<2>(3_000, 2);
    let kd = KdTree::build(&pts, SplitRule::ObjectMedian);
    let items: Vec<(Point2, u32)> = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();
    let level = LevelTree::build(&items);
    for q in pts.iter().step_by(131) {
        let a = kd.knn(q, 7);
        let b = level.knn(q, 7);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.dist_sq - y.dist_sq).abs() < 1e-9);
        }
    }
}

#[test]
fn range_and_knn_are_consistent() {
    // The k-th NN distance defines a ball whose range query returns at
    // least k points.
    let pts = uniform_cube::<2>(5_000, 3);
    let tree = KdTree::build(&pts, SplitRule::SpatialMedian);
    for q in pts.iter().step_by(211) {
        let nn = tree.knn(q, 10);
        // sqrt then squaring can round below the k-th distance; inflate by
        // one ulp-scale factor so the boundary neighbor stays inside.
        let r = nn.last().unwrap().dist_sq.sqrt() * (1.0 + 1e-12);
        let hits = tree.range_ball(q, r);
        assert!(hits.len() >= 10, "only {} hits", hits.len());
    }
}

#[test]
fn bdl_knn_spans_buffer_and_static_trees() {
    // Force a state where the answer straddles the buffer and two static
    // trees: nearest neighbors must still be exact.
    let pts = uniform_cube::<2>(2_100, 4);
    let mut bdl = BdlTree::<2>::with_buffer_size(1_000);
    bdl.insert(&pts[..1_000]); // tree 0
    bdl.insert(&pts[1_000..2_000]); // cascades
    bdl.insert(&pts[2_000..]); // 100 in buffer
    assert!(bdl.tree_sizes().iter().sum::<usize>() < 2_100);
    for q in pts.iter().step_by(173) {
        let want = knn_brute_force(&pts, q, 4);
        let got = bdl.knn(q, 4);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-9 * (1.0 + g.dist_sq));
        }
    }
}

#[test]
fn seven_dimensional_trees() {
    // The paper's BDL evaluation runs in 7D; make sure nothing is
    // hard-wired to low dimensions.
    let pts = uniform_cube::<7>(2_000, 5);
    let mut bdl = BdlTree::<7>::with_buffer_size(64);
    for chunk in pts.chunks(200) {
        bdl.insert(chunk);
    }
    for q in pts.iter().step_by(401) {
        let want = knn_brute_force(&pts, q, 5);
        let got = bdl.knn(q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-9 * (1.0 + g.dist_sq));
        }
    }
}

/// `knn_batch` evaluates a batch in Z-order of its queries and scatters the
/// rows back: every row must equal the per-query `knn` and the brute-force
/// oracle bit for bit, whatever the tree holds (tombstones, drained levels,
/// a part-full insert buffer, lattice ties, one oversize leaf of coincident
/// points) and whatever the batch holds (duplicate, far-away, infinite and
/// NaN queries — none may panic the ordering or move a row).
fn knn_batch_matches_knn_and_the_oracle<const D: usize>(seed: u64) {
    use pargeo::parlay::mix64;
    let lattice: Vec<Point<D>> = (0..1_500u64)
        .map(|i| {
            Point::new(std::array::from_fn(|a| {
                (mix64(seed + i, a as u64) % 8) as f64
            }))
        })
        .collect();
    let uniform = uniform_cube::<D>(1_500, seed);
    let copies = vec![Point::new([3.0; D]); 1_100];

    let mut bdl = BdlTree::<D>::with_buffer_size(64);
    let mut oracle = VecIndex::<D>::new();
    let mut both = |insert: bool, batch: &[Point<D>]| {
        if insert {
            bdl.insert(batch);
            SpatialIndex::insert(&mut oracle, batch);
        } else {
            assert_eq!(bdl.delete(batch), SpatialIndex::delete(&mut oracle, batch));
        }
    };
    both(true, &lattice);
    both(true, &uniform);
    both(true, &copies);
    both(false, &uniform[..150]); // tombstones, no level falls below half
    both(false, &uniform[150..1_300]); // drains
    both(false, &lattice[..40]); // by value: kills every copy on those cells
    both(true, &uniform[..37]); // leaves the insert buffer part full
    let in_trees: usize = bdl.tree_sizes().iter().sum();
    assert!(in_trees < bdl.len(), "the insert buffer holds points");
    assert!(bdl.rebuilds() > 3, "levels were drained and rebuilt");

    let mut queries: Vec<Point<D>> = lattice.iter().step_by(13).copied().collect();
    queries.extend(uniform.iter().step_by(29));
    queries.extend([copies[0]; 4]);
    queries.push(Point::new([1e12; D]));
    queries.push(Point::new([-1e12; D]));
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut q = lattice[0];
        q.coords[D - 1] = bad;
        queries.push(q);
    }
    assert!(queries.len() >= 64, "large enough to be reordered");

    let live: Vec<Point<D>> = oracle.items().iter().map(|&(p, _)| p).collect();
    let kd = KdTree::build(&live, SplitRule::ObjectMedian);
    for k in [1, 5, 40] {
        let rows = bdl.knn_batch(&queries, k);
        let one_by_one: Vec<_> = queries.iter().map(|q| bdl.knn(q, k)).collect();
        assert_eq!(rows, one_by_one, "D={D} k={k}: batch vs per-query");
        assert_eq!(
            rows,
            SpatialIndex::knn_batch(&oracle, &queries, k),
            "D={D} k={k}: batch vs oracle"
        );
        let kd_one_by_one: Vec<_> = queries.iter().map(|q| kd.knn(q, k)).collect();
        assert_eq!(kd.knn_batch(&queries, k), kd_one_by_one, "D={D} k={k}: kd");
    }
    assert!(bdl.knn_batch(&queries, 0).iter().all(Vec::is_empty));
}

#[test]
fn knn_batch_is_order_blind_2d() {
    knn_batch_matches_knn_and_the_oracle::<2>(31);
}

#[test]
fn knn_batch_is_order_blind_5d() {
    knn_batch_matches_knn_and_the_oracle::<5>(32);
}

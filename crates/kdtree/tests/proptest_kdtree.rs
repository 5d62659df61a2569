//! Property-based tests for the spatial indexes: exactness of k-NN and
//! range queries against brute force on adversarial (duplicate-heavy,
//! axis-aligned) inputs, and consistency of the dynamic structures.

use pargeo_geometry::{Bbox, Point, Point2};
use pargeo_kdtree::knn::knn_brute_force;
use pargeo_kdtree::{
    canonical_order, B1Tree, B2Tree, KdTree, KnnBuffer, Neighbor, SplitRule, VebTree, ZdTree,
};
use proptest::prelude::*;

fn lattice_points() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..32, 0i32..32).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn knn_exact_both_split_rules(pts in lattice_points(), k in 1usize..10, qi in 0usize..250) {
        let q = pts[qi % pts.len()];
        let want = knn_brute_force(&pts, &q, k);
        for rule in [SplitRule::ObjectMedian, SplitRule::SpatialMedian] {
            let tree = KdTree::build(&pts, rule);
            let got = tree.knn(&q, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn range_box_exact(pts in lattice_points(),
                       x0 in 0i32..32, y0 in 0i32..32, w in 0i32..32, h in 0i32..32) {
        let tree = KdTree::build(&pts, SplitRule::ObjectMedian);
        let q = Bbox {
            min: Point2::new([x0 as f64, y0 as f64]),
            max: Point2::new([(x0 + w) as f64, (y0 + h) as f64]),
        };
        // No sort: reporting output is sorted ascending by contract.
        let got = tree.range_box(&q);
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(p))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(tree.count_box(&q), want.len());
    }

    #[test]
    fn range_ball_exact(pts in lattice_points(), ci in 0usize..250, r in 0f64..20.0) {
        let c = pts[ci % pts.len()];
        let tree = KdTree::build(&pts, SplitRule::SpatialMedian);
        let got = tree.range_ball(&c, r);
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| c.dist_sq(p) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(tree.count_ball(&c, r), want.len());
    }

    /// Insert+delete through B1, B2, and the vEB tree leave exactly the
    /// expected survivors answering k-NN exactly.
    #[test]
    fn dynamic_trees_agree_after_churn(pts in lattice_points(), cut in 0usize..200) {
        prop_assume!(pts.len() >= 4);
        let cut = cut % (pts.len() / 2).max(1);
        let (victims, keep): (Vec<Point2>, Vec<Point2>) = {
            let v: Vec<Point2> = pts[..cut].to_vec();
            // Survivors: points whose *coordinates* don't appear among the
            // victims (deletion is by value).
            let vict: std::collections::HashSet<[u64; 2]> =
                v.iter().map(|p| p.coords.map(f64::to_bits)).collect();
            let k: Vec<Point2> = pts
                .iter()
                .filter(|p| !vict.contains(&p.coords.map(f64::to_bits)))
                .copied()
                .collect();
            (v, k)
        };
        prop_assume!(!keep.is_empty());
        let mut b1 = B1Tree::from_points(&pts, SplitRule::ObjectMedian);
        let mut b2 = B2Tree::from_points(&pts, SplitRule::ObjectMedian);
        let items: Vec<(Point2, u32)> =
            pts.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
        let mut veb = VebTree::build(&items);
        b1.delete(&victims);
        b2.delete(&victims);
        veb.erase(&victims);
        prop_assert_eq!(b1.len(), keep.len());
        prop_assert_eq!(b2.len(), keep.len());
        prop_assert_eq!(veb.len(), keep.len());
        let q = keep[0];
        let want = knn_brute_force(&keep, &q, 3);
        for got in [b1.knn(&q, 3), b2.knn(&q, 3), veb.knn(&q, 3)] {
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
            }
        }
    }

    /// Higher-dimensional smoke: 4D lattice k-NN stays exact.
    #[test]
    fn knn_4d_exact(raw in prop::collection::vec((0i32..8, 0i32..8, 0i32..8, 0i32..8), 5..120),
                    k in 1usize..6) {
        let pts: Vec<Point<4>> = raw
            .iter()
            .map(|&(a, b, c, d)| Point::new([a as f64, b as f64, c as f64, d as f64]))
            .collect();
        let tree = KdTree::build(&pts, SplitRule::ObjectMedian);
        let q = pts[0];
        let got = tree.knn(&q, k);
        let want = knn_brute_force(&pts, &q, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
        }
    }

    /// The k-NN buffer against its specification: after every offer the
    /// bound is the k-th smallest `(dist², id)` offered so far (∞ before k
    /// were offered), and the result is sort-and-truncate — under heavy
    /// distance ties, for k = 0, small and large k, and k beyond the stream.
    #[test]
    fn knn_buffer_is_sort_and_truncate_with_an_exact_bound(
        dists in prop::collection::vec(0u32..6, 0..200),
        k_sel in 0usize..5,
        id_seed in 0u32..1009,
    ) {
        let k = [0, 1, 5, 11, 64][k_sel];
        let mut buf = KnnBuffer::new(k);
        let mut offered: Vec<Neighbor> = Vec::new();
        for (i, &d) in dists.iter().enumerate() {
            // Distinct ids in scrambled order: 856 generates Z/1009.
            let id = (i as u32 * 856 + id_seed) % 1009;
            buf.insert(d as f64, id);
            offered.push(Neighbor { dist_sq: d as f64, id });
            offered.sort_by(canonical_order);
            let want = match k {
                0 => f64::NEG_INFINITY,
                _ if offered.len() < k => f64::INFINITY,
                _ => offered[k - 1].dist_sq,
            };
            prop_assert_eq!(buf.bound(), want);
            prop_assert_eq!(buf.len(), offered.len().min(k));
        }
        offered.truncate(k);
        prop_assert_eq!(buf.finish(), offered);
    }

    /// `VebTree::erase` against a `Vec`: a lattice makes most queries
    /// equal a split value and most points duplicates; the batches repeat
    /// queries, name absent points and points outside the root box; and a
    /// clone pinned between two batches keeps the epoch it was taken in.
    #[test]
    fn erase_matches_a_vec_oracle(
        pts in lattice_points(),
        leaf_sel in 0usize..3,
        picks in prop::collection::vec((0usize..250, -4i32..36, -4i32..36, 0usize..3), 0..120),
        pin_at in 0usize..3,
    ) {
        let items: Vec<(Point2, u32)> =
            pts.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
        let mut tree = VebTree::build_with_leaf_size(&items, [1, 3, 16][leaf_sel]);
        let mut live = items.clone();
        let mut pinned: Option<(VebTree<2>, Vec<(Point2, u32)>)> = None;
        // Three batches: a stored point, a lattice point that may be
        // absent or outside the root box, or both — twice.
        for round in 0..3 {
            if round == pin_at {
                pinned = Some((tree.clone(), live.clone()));
            }
            let mut batch = Vec::new();
            for &(i, x, y, kind) in picks.iter().skip(round).step_by(3) {
                let stored = pts[i % pts.len()];
                let free = Point2::new([x as f64, y as f64]);
                match kind {
                    0 => batch.push(stored),
                    1 => batch.push(free),
                    _ => batch.extend([stored, free, stored, free]),
                }
            }
            let named: std::collections::HashSet<[u64; 2]> =
                batch.iter().map(Point::bits_key).collect();
            let (mut want, kept): (Vec<_>, Vec<_>) =
                live.iter().partition(|(p, _)| named.contains(&p.bits_key()));
            live = kept;
            let mut got = tree.erase(&batch);
            got.sort_by_key(|&(_, id)| id);
            want.sort_by_key(|&(_, id)| id);
            prop_assert_eq!(got, want);
            for (t, rows) in [(&tree, &live)].into_iter().chain(pinned.as_ref().map(|(t, r)| (t, r))) {
                prop_assert_eq!(t.len(), rows.len());
                let mut seen: Vec<_> = t.live_rows().collect();
                seen.sort_by_key(|&(_, id)| id);
                prop_assert_eq!(&seen, rows);
                // No live point hides under a dead-subtree flag, and the
                // nearest neighbour is a live one.
                let everywhere = Bbox::from_points(&pts);
                let mut reached = Vec::new();
                t.range_into(&everywhere, &mut reached);
                reached.sort_unstable();
                let ids: Vec<u32> = rows.iter().map(|&(_, id)| id).collect();
                prop_assert_eq!(reached, ids);
                let survivors: Vec<Point2> = rows.iter().map(|r| r.0).collect();
                let got: Vec<f64> = t.knn(&pts[0], 3).iter().map(|n| n.dist_sq).collect();
                let want: Vec<f64> =
                    knn_brute_force(&survivors, &pts[0], 3).iter().map(|n| n.dist_sq).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// One static tree behind two entry points: over the same rows a
    /// `KdTree` and a `VebTree` give identical k-NN rows, range rows and
    /// counts — uniform rows, a lattice of duplicates, one repeated point;
    /// `n` on both sides of the leaf size and of the build's fork cutoff;
    /// both split rules — and after a batch erase the `VebTree` answers as
    /// a `KdTree` rebuilt over the survivors does.
    #[test]
    fn veb_tree_answers_as_the_kd_tree_over_the_same_rows(
        shape in 0usize..3,
        size_sel in 0usize..8,
        leaf_sel in 0usize..3,
        spatial in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let cutoff = pargeo_kdtree::tree::SEQ_BUILD_CUTOFF;
        let leaf_size = [1, 3, 16][leaf_sel];
        let n = [1, leaf_size, leaf_size + 1, 150, cutoff - 1, cutoff, cutoff + 1, 2 * cutoff + 37]
            [size_sel];
        let rule = [SplitRule::ObjectMedian, SplitRule::SpatialMedian][spatial];
        let pts: Vec<Point2> = match shape {
            0 => pargeo_datagen::uniform_cube::<2>(n, seed),
            1 => (0..n as u64)
                .map(|i| (i + seed) * 2_654_435_761 % 1_000_003)
                .map(|h| Point2::new([(h % 29) as f64, (h / 29 % 31) as f64]))
                .collect(),
            _ => vec![Point2::new([seed as f64, 1.0]); n],
        };
        let rows: Vec<(Point2, u32)> = pts.iter().copied().zip(0u32..).collect();
        let kd = KdTree::build_with_leaf_size(&pts, rule, leaf_size);
        let mut veb = VebTree::build_with(rows.clone(), leaf_size, rule);
        prop_assert_eq!(veb.node_count(), kd.node_count());
        prop_assert_eq!(veb.arena_bytes(), kd.arena_bytes() + n);

        // `ids[i]` is the id the `VebTree` knows row `i` of `kd` by.
        let agree = |kd: &KdTree<2>, ids: &[u32], veb: &VebTree<2>| -> Result<(), TestCaseError> {
            let step = (ids.len() / 7).max(1);
            for (j, i) in (0..ids.len()).step_by(step).enumerate() {
                let q = kd.point_at(i);
                let want: Vec<Neighbor> = kd
                    .knn(&q, 1 + j)
                    .into_iter()
                    .map(|nb| Neighbor { id: ids[nb.id as usize], ..nb })
                    .collect();
                prop_assert_eq!(veb.knn(&q, 1 + j), want);
                let query = Bbox::from_points(&[q, kd.point_at(ids.len() - 1 - i)]);
                let want: Vec<u32> = kd.range_box(&query).iter().map(|&i| ids[i as usize]).collect();
                let mut got = Vec::new();
                veb.range_into(&query, &mut got);
                got.sort_unstable();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(veb.count_box(&query), kd.count_box(&query));
                prop_assert_eq!(veb.count_box(&query), want.len());
            }
            Ok(())
        };
        let ids: Vec<u32> = (0..n as u32).collect();
        agree(&kd, &ids, &veb)?;

        // Erase by value: every third row, and with it each of its copies.
        let batch: Vec<Point2> = pts.iter().copied().step_by(3).collect();
        let named: std::collections::HashSet<[u64; 2]> = batch.iter().map(Point::bits_key).collect();
        let (gone, kept): (Vec<_>, Vec<_>) =
            rows.iter().partition(|(p, _)| named.contains(&p.bits_key()));
        let mut erased = veb.erase(&batch);
        erased.sort_by_key(|&(_, id)| id);
        prop_assert_eq!(erased, gone);
        let survivors: Vec<Point2> = kept.iter().map(|r| r.0).collect();
        let ids: Vec<u32> = kept.iter().map(|r| r.1).collect();
        let rebuilt = KdTree::build_with_leaf_size(&survivors, rule, leaf_size);
        prop_assert_eq!(veb.len(), rebuilt.len());
        agree(&rebuilt, &ids, &veb)?;
    }

    /// The Zd-tree is the kd-tree over Morton-sorted rows: after random
    /// insert and delete batches — uniform points, a lattice of duplicates,
    /// or points outside the universe its first batch fixed — its k-NN rows
    /// and range rows equal those of a `KdTree` built over the same live
    /// rows and of the brute force; `n` on both sides of the leaf size and
    /// of the build's fork cutoff.
    #[test]
    fn zd_tree_answers_as_the_kd_tree_over_its_live_rows(
        shape in 0usize..3,
        size_sel in 0usize..8,
        ops in prop::collection::vec((0usize..2, 1usize..6), 1..5),
        seed in 0u64..1_000,
    ) {
        let cutoff = pargeo_kdtree::tree::SEQ_BUILD_CUTOFF;
        let leaf = pargeo_kdtree::tree::LEAF_SIZE;
        let n = [1, leaf, leaf + 1, 150, cutoff - 1, cutoff, cutoff + 1, 2 * cutoff + 37][size_sel];
        let points = |m: usize, salt: u64| -> Vec<Point2> {
            match shape {
                1 => (0..m as u64)
                    .map(|i| (i + salt) * 2_654_435_761 % 1_000_003)
                    .map(|h| Point2::new([(h % 29) as f64, (h / 29 % 31) as f64]))
                    .collect(),
                _ => pargeo_datagen::uniform_cube::<2>(m, salt),
            }
        };
        let mut zd = ZdTree::new();
        // The live rows, ascending by id (ids count inserts from 0).
        let mut live: Vec<(Point2, u32)> = Vec::new();
        let first = points(n, seed);
        zd.insert(&first);
        live.extend(first.iter().copied().zip(0u32..));
        let mut next = n as u32;
        for (round, &(insert, stride)) in ops.iter().enumerate() {
            if insert == 1 {
                let mut batch = points(n / stride + 1, seed + 1 + round as u64);
                if shape == 2 {
                    // Far outside the universe `first` fixed, on both sides.
                    for (i, p) in batch.iter_mut().enumerate() {
                        let s = if i % 2 == 0 { 1e3 } else { -1e3 };
                        *p = Point2::new([p[0] * s + s, p[1] - s]);
                    }
                }
                zd.insert(&batch);
                live.extend(batch.iter().copied().zip(next..));
                next += batch.len() as u32;
            } else {
                // Every `stride`-th live row by value (all its copies go),
                // and a point nothing holds.
                let mut batch: Vec<Point2> = live.iter().map(|r| r.0).step_by(stride).collect();
                batch.push(Point2::new([-7.5, 1e9]));
                let named: std::collections::HashSet<[u64; 2]> =
                    batch.iter().map(Point::bits_key).collect();
                let (mut gone, kept): (Vec<_>, Vec<_>) =
                    live.iter().partition(|(p, _)| named.contains(&p.bits_key()));
                let mut removed = zd.remove(&batch);
                removed.sort_by_key(|&(_, id)| id);
                gone.sort_by_key(|&(_, id)| id);
                prop_assert_eq!(removed, gone);
                live = kept;
            }
        }
        prop_assert_eq!(zd.len(), live.len());
        let mut stored = zd.collect_live();
        stored.sort_by_key(|&(_, id)| id);
        prop_assert_eq!(&stored, &live);

        // Row `i` of `kd` and of the brute force is live row `i`; ids ascend
        // with `i`, so mapping them keeps every row's `(distance², id)` order.
        let pts: Vec<Point2> = live.iter().map(|r| r.0).collect();
        let kd = KdTree::build(&pts, SplitRule::ObjectMedian);
        let ids = |row: Vec<Neighbor>| -> Vec<Neighbor> {
            row.into_iter().map(|nb| Neighbor { id: live[nb.id as usize].1, ..nb }).collect()
        };
        let mut queries: Vec<Point2> = pts.iter().copied().step_by((pts.len() / 64).max(1)).collect();
        queries.extend([Point2::new([-5e3, 5e3]), Point2::new([0.5, 0.25])]);
        for k in [1, 7] {
            let rows = zd.knn_batch(&queries, k);
            for (q, row) in queries.iter().zip(&rows) {
                prop_assert_eq!(row, &ids(kd.knn(q, k)));
                prop_assert_eq!(row, &ids(knn_brute_force(&pts, q, k)));
            }
        }
        let boxes: Vec<Bbox<2>> = queries
            .windows(2)
            .map(|w| Bbox::from_points(&[w[0], w[1]]))
            .collect();
        for (b, row) in boxes.iter().zip(zd.range_box_batch(&boxes)) {
            let want: Vec<u32> = kd.range_box(b).iter().map(|&i| live[i as usize].1).collect();
            prop_assert_eq!(row, want);
        }
    }
}

//! Metamorphic tests of the Delaunay kernel. On lattices, points on one
//! circle, heavy duplicates and a flat arc — inputs where cocircular ties
//! and near-collinear hulls are the rule — every way of building gives one
//! edge list: `delaunay()` (Morton order), `DelaunayIncremental` in index
//! order, every three-way batch split of it, and both builders on
//! permutations of the input with the ids mapped back. Duplicates collapse
//! onto their lowest index. Removing points, in batches of every size and
//! hull vertices and every copy of a location included, leaves the engine
//! holding what a fresh build over the survivors holds.

use pargeo_datagen::uniform_cube;
use pargeo_delaunay::{
    delaunay, delaunay_edges, try_delaunay, validate_delaunay, DelaunayBatchOutcome,
    DelaunayIncremental,
};
use pargeo_geometry::Point2;
use pargeo_parlay::random_permutation;
use std::collections::{HashMap, HashSet};

fn shuffled_lattice(w: usize, seed: u64) -> Vec<Point2> {
    let cell = |i: u32| Point2::new([(i as usize % w) as f64, (i as usize / w) as f64]);
    random_permutation(w * w, seed)
        .into_iter()
        .map(cell)
        .collect()
}

/// Every id mapped to the lowest index at its location.
fn lowest_copy(pts: &[Point2]) -> Vec<u32> {
    let mut first = HashMap::new();
    (0..pts.len() as u32)
        .map(|i| *first.entry(pts[i as usize].bits_key()).or_insert(i))
        .collect()
}

/// `edges` with both ends renamed by `id`, as sorted `(min, max)` pairs.
fn renamed(edges: Vec<(u32, u32)>, id: impl Fn(u32) -> u32) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(u, v)| (id(u).min(id(v)), id(u).max(id(v))))
        .collect();
    out.sort_unstable();
    out
}

fn applied(eng: &mut DelaunayIncremental, batch: &[Point2]) {
    let outcome = eng.try_insert_batch(batch, f64::INFINITY).unwrap();
    assert!(
        matches!(outcome, DelaunayBatchOutcome::Applied { .. }),
        "{outcome:?}"
    );
}

/// Asserts that every builder gives `pts` one edge list, a Delaunay one
/// over the lowest copy of each location, and returns it.
fn one_edge_list(name: &str, pts: &[Point2]) -> Vec<(u32, u32)> {
    let n = pts.len();
    let eng = DelaunayIncremental::try_build(pts).unwrap();
    let want = eng.edges().unwrap();
    validate_delaunay(pts, &eng.triangulation().unwrap().triangles).unwrap();
    let lowest = lowest_copy(pts);
    assert!(
        want.iter()
            .all(|&(u, v)| lowest[u as usize] == u && lowest[v as usize] == v),
        "{name}: a duplicate outlived its lowest copy"
    );
    assert_eq!(delaunay_edges(&delaunay(pts)), want, "{name}: delaunay()");

    // Build on `..i`, then batches `i..j` and `j..`. A flat prefix has no
    // triangulation to build on, so its splits are skipped.
    let cuts: Vec<usize> = if n <= 40 {
        (1..n).collect()
    } else {
        (1..6).map(|k| k * n / 6).collect()
    };
    for (x, &i) in cuts.iter().enumerate() {
        if DelaunayIncremental::try_build(&pts[..i]).is_err() {
            continue;
        }
        for &j in &cuts[x..] {
            let mut split = DelaunayIncremental::try_build(&pts[..i]).unwrap();
            applied(&mut split, &pts[i..j]);
            applied(&mut split, &pts[j..]);
            assert_eq!(split.edges().unwrap(), want, "{name}: split at {i}, {j}");
        }
    }

    for seed in 0..3 {
        let perm = random_permutation(n, seed);
        let shuffled: Vec<Point2> = perm.iter().map(|&k| pts[k as usize]).collect();
        let back = |u: u32| lowest[perm[u as usize] as usize];
        let index_order = DelaunayIncremental::try_build(&shuffled).unwrap();
        assert_eq!(
            renamed(index_order.edges().unwrap(), back),
            want,
            "{name}: permutation {seed}, index order"
        );
        let morton = delaunay_edges(&delaunay(&shuffled));
        assert_eq!(
            renamed(morton, back),
            want,
            "{name}: permutation {seed}, delaunay()"
        );
    }
    want
}

#[test]
fn shuffled_lattices_have_one_triangulation() {
    // Any triangulation of a w×w lattice has 3w² − 3 − 4(w − 1) edges.
    assert_eq!(one_edge_list("6x6", &shuffled_lattice(6, 1)).len(), 85);
    assert_eq!(
        one_edge_list("50x50", &shuffled_lattice(50, 2)).len(),
        7_301
    );
}

#[test]
fn points_on_one_circle_have_one_triangulation() {
    let mut pts = vec![Point2::new([0.0, 0.0])];
    for (x, y) in [(3.0, 4.0), (4.0, 3.0)] {
        for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)] {
            pts.push(Point2::new([sx * x, sy * y]));
        }
    }
    // The centre joins all eight circle points, which close the hull.
    let edges = one_edge_list("circle", &pts);
    assert_eq!(edges.len(), 16);
    assert_eq!(edges.iter().filter(|e| e.0 == 0).count(), 8);
}

#[test]
fn copies_collapse_onto_the_lowest_index() {
    // A cocircular rectangle and one point inside, 200 copies of each.
    let base = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0), (2.0, 1.0)];
    let pts: Vec<Point2> = random_permutation(1_000, 7)
        .into_iter()
        .map(|i| Point2::new([base[i as usize % 5].0, base[i as usize % 5].1]))
        .collect();
    assert_eq!(one_edge_list("copies", &pts).len(), 8);
}

#[test]
fn the_flat_arc_is_accepted_with_every_point_on_the_hull() {
    let arc: Vec<Point2> = (-200..=200)
        .map(|x| Point2::new([x as f64, 1e-10 * (x * x) as f64]))
        .collect();
    one_edge_list("arc", &arc);
    assert_eq!(try_delaunay(&arc).unwrap().len(), 399);
}

/// The engine has no bbox: a batch anywhere in the plane is applied, and
/// the engine then holds what a fresh build of the longer prefix holds.
#[test]
fn a_batch_outside_the_bbox_is_applied_and_equals_a_fresh_build() {
    let mut pts = uniform_cube::<2>(200, 3);
    let mut eng = DelaunayIncremental::try_build(&pts).unwrap();
    let batches = [
        vec![Point2::new([2.0, 2.0])],
        vec![Point2::new([0.5, 0.5]), Point2::new([1e9, 1e9])],
        vec![Point2::new([-3.0, 0.5]), Point2::new([0.5, -1e-3])],
        uniform_cube::<2>(50, 4)
            .iter()
            .map(|p| Point2::new([p[0] * 8.0 - 4.0, p[1] - 1.5]))
            .collect(),
    ];
    for batch in batches {
        applied(&mut eng, &batch);
        pts.extend(&batch);
        assert_eq!(eng.consumed(), pts.len());
        let fresh = DelaunayIncremental::try_build(&pts).unwrap();
        assert_eq!(eng.edges().unwrap(), fresh.edges().unwrap());
        assert_eq!(eng.edges().unwrap(), delaunay_edges(&delaunay(&pts)));
    }
    validate_delaunay(&pts, &eng.triangulation().unwrap().triangles).unwrap();
}

/// Removes points from an engine built over all of `pts`, in the order
/// `order` (original indices), in batches of `sizes` (cycled), and after
/// every batch checks that the engine holds a fresh build's edges over the
/// survivors. The batch that leaves no triangulation gets the fresh
/// build's typed error and changes nothing; that ends the run. Returns
/// the batches applied.
fn removals_equal_fresh_builds(
    name: &str,
    pts: &[Point2],
    order: &[u32],
    sizes: &[usize],
) -> usize {
    let mut eng = DelaunayIncremental::try_build(pts).unwrap();
    let mut alive: Vec<u32> = (0..pts.len() as u32).collect();
    let mut at = 0;
    for (round, &size) in sizes.iter().cycle().enumerate() {
        let batch: HashSet<u32> = order[at..(at + size).min(order.len())]
            .iter()
            .copied()
            .collect();
        at += batch.len();
        let positions: Vec<u32> = (0..alive.len() as u32)
            .filter(|&q| batch.contains(&alive[q as usize]))
            .collect();
        alive.retain(|id| !batch.contains(id));
        let survivors: Vec<Point2> = alive.iter().map(|&i| pts[i as usize]).collect();
        let before = eng.edges().unwrap();
        match DelaunayIncremental::try_build(&survivors) {
            Ok(fresh) => {
                eng.try_remove_batch(&positions).unwrap();
                assert_eq!(eng.consumed(), survivors.len(), "{name}: batch {round}");
                assert_eq!(
                    eng.edges().unwrap(),
                    fresh.edges().unwrap(),
                    "{name}: batch {round} of {} leaves {}",
                    positions.len(),
                    survivors.len()
                );
            }
            Err(refused) => {
                assert_eq!(eng.try_remove_batch(&positions), Err(refused), "{name}");
                assert_eq!(
                    eng.edges().unwrap(),
                    before,
                    "{name}: a refused batch changes nothing"
                );
                return round;
            }
        }
    }
    unreachable!("removing every point leaves no triangulation")
}

/// Hull vertices first (ends of edges that border one triangle), then the
/// rest in a seeded order.
fn hull_first(pts: &[Point2], seed: u64) -> Vec<u32> {
    let tris = DelaunayIncremental::try_build(pts)
        .unwrap()
        .triangulation()
        .unwrap()
        .triangles;
    let mut sides = HashMap::new();
    for t in &tris {
        for i in 0..3 {
            let (a, b) = (t[i], t[(i + 1) % 3]);
            *sides.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    }
    let hull: HashSet<u32> = sides
        .into_iter()
        .filter(|&(_, n)| n == 1)
        .flat_map(|((a, b), _)| [a, b])
        .collect();
    let rest = random_permutation(pts.len(), seed)
        .into_iter()
        .filter(|i| !hull.contains(i));
    let mut order: Vec<u32> = hull.iter().copied().collect();
    order.sort_unstable();
    order.extend(rest);
    order
}

/// Every removal order and batch split of `pts` equals fresh builds.
fn removals_hold(name: &str, pts: &[Point2]) {
    let n = pts.len();
    let splits: [&[usize]; 3] = [&[1, 2, 5], &[1, 3, 10, n / 8 + 1], &[n / 3 + 1]];
    for (s, sizes) in splits.iter().enumerate() {
        let shuffled = random_permutation(n, 10 + s as u64);
        removals_equal_fresh_builds(&format!("{name} split {s}"), pts, &shuffled, sizes);
        let hull = hull_first(pts, 20 + s as u64);
        removals_equal_fresh_builds(&format!("{name} hull first, split {s}"), pts, &hull, sizes);
    }
}

#[test]
fn removals_from_lattices_equal_fresh_builds() {
    removals_hold("6x6", &shuffled_lattice(6, 3));
    removals_hold("20x20", &shuffled_lattice(20, 4));
}

#[test]
fn removals_from_a_regular_polygon_equal_fresh_builds() {
    // Cocircular corners and the centre, then a 64-gon around its centre:
    // removing that centre refills a star of 64 corners.
    let mut pts = vec![Point2::new([0.0, 0.0])];
    for (x, y) in [(3.0, 4.0), (4.0, 3.0)] {
        for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)] {
            pts.push(Point2::new([sx * x, sy * y]));
        }
    }
    removals_hold("circle", &pts);
    let mut gon = vec![Point2::new([0.0, 0.0])];
    gon.extend((0..64).map(|i| {
        let a = i as f64 * std::f64::consts::TAU / 64.0;
        Point2::new([a.cos(), a.sin()])
    }));
    removals_hold("64-gon", &gon);
    let centre_first: Vec<u32> = (0..gon.len() as u32).collect();
    assert!(removals_equal_fresh_builds("64-gon centre", &gon, &centre_first, &[1]) > 60);
}

#[test]
fn removing_copies_equals_fresh_builds() {
    // 40 copies of each of five locations, one of them inside the
    // cocircular rectangle of the other four.
    let base = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0), (2.0, 1.0)];
    let pts: Vec<Point2> = random_permutation(200, 8)
        .into_iter()
        .map(|i| Point2::new([base[i as usize % 5].0, base[i as usize % 5].1]))
        .collect();
    removals_hold("copies", &pts);
    // Every copy of one location goes, lowest index first, before the next
    // location's: each removal of the inserted copy hands its triangles to
    // the next, until the last copy's star is refilled.
    let mut by_location: Vec<u32> = (0..pts.len() as u32).collect();
    by_location.sort_by(|&a, &b| {
        let key = |i: u32| (pts[i as usize].bits_key(), i);
        key(a).cmp(&key(b))
    });
    for sizes in [&[1][..], &[7], &[40]] {
        removals_equal_fresh_builds("copies by location", &pts, &by_location, sizes);
    }
}

#[test]
fn removals_from_the_flat_arc_and_uniform_points_equal_fresh_builds() {
    let arc: Vec<Point2> = (-60..=60)
        .map(|x| Point2::new([x as f64, 1e-10 * (x * x) as f64]))
        .collect();
    removals_hold("arc", &arc);
    removals_hold("uniform", &uniform_cube::<2>(600, 6));
}

/// Removals and insert batches interleave: the engine renumbers, then
/// appends after the survivors.
#[test]
fn removals_then_inserts_equal_fresh_builds() {
    let pts = uniform_cube::<2>(400, 12);
    let mut eng = DelaunayIncremental::try_build(&pts[..100]).unwrap();
    let mut live: Vec<Point2> = pts[..100].to_vec();
    let mut next = 100;
    for round in 0..6u32 {
        let positions: Vec<u32> = (0..live.len() as u32)
            .filter(|q| (q + round) % 4 == 0)
            .collect();
        eng.try_remove_batch(&positions).unwrap();
        let gone: HashSet<u32> = positions.into_iter().collect();
        live = (0..live.len() as u32)
            .filter(|q| !gone.contains(q))
            .map(|q| live[q as usize])
            .collect();
        applied(&mut eng, &pts[next..next + 50]);
        live.extend(&pts[next..next + 50]);
        next += 50;
        let fresh = DelaunayIncremental::try_build(&live).unwrap();
        assert_eq!(
            eng.edges().unwrap(),
            fresh.edges().unwrap(),
            "round {round}"
        );
    }
    validate_delaunay(&live, &eng.triangulation().unwrap().triangles).unwrap();
}

//! The EMST's answer, pinned three ways: golden edge-list digests recorded
//! from the heap-and-refill `emst` this crate had before the windowed
//! filter-Kruskal and then the MemoGFK rounds replaced it (each rewrite
//! must return the same edges in the same order and orientation), a
//! property suite against Prim on the families that force exact ties, and
//! invariance of the answer and the work under the pool size.

use pargeo_datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};
use pargeo_geometry::Point;
use pargeo_parlay::{mix64, random_permutation, shuffle::splitmix64, with_threads};
use pargeo_wspd::emst::{emst_prim_brute, emst_work};
use pargeo_wspd::{emst, EmstEdge, UnionFind};
use proptest::prelude::*;

/// `fold (u << 32 | v)` over the edges in the order `emst` returns them.
fn digest(edges: &[EmstEdge]) -> u64 {
    edges
        .iter()
        .fold(0, |h, e| mix64(h, (e.u as u64) << 32 | e.v as u64))
}

/// [`digest`] with what coincident points leave open taken out: every
/// endpoint is the first input point at its coordinates, every edge runs
/// from the smaller endpoint to the larger, and the edges are in
/// `(weight, endpoints)` order. Which of two coincident points an edge
/// names, which way a zero-length edge points and where it stands among
/// its equals follow the order the kd-tree's median selection leaves rows
/// of equal coordinate in — the selection's business, not the EMST's.
fn digest_up_to_coincidence<const D: usize>(pts: &[Point<D>], edges: &[EmstEdge]) -> u64 {
    let mut first = std::collections::HashMap::new();
    let at: Vec<u32> = (0..pts.len() as u32)
        .map(|i| *first.entry(pts[i as usize].bits_key()).or_insert(i))
        .collect();
    let mut rows: Vec<(u64, u32, u32)> = edges
        .iter()
        .map(|e| {
            let (a, b) = (at[e.u as usize], at[e.v as usize]);
            (e.weight.to_bits(), a.min(b), a.max(b))
        })
        .collect();
    rows.sort_unstable();
    rows.iter().fold(0, |h, &(w, a, b)| {
        mix64(mix64(h, w), (a as u64) << 32 | b as u64)
    })
}

/// `n` uniform points followed by `dups` copies of earlier ones.
fn with_duplicates(n: usize, dups: usize, seed: u64) -> Vec<Point<2>> {
    let mut pts = uniform_cube::<2>(n, seed);
    for i in 0..dups {
        pts.push(pts[splitmix64(seed ^ i as u64) as usize % n]);
    }
    pts
}

/// Recorded at `d7152c1` (the parent of the rewrite) with
/// `cargo test --release -p pargeo-wspd --test proptest_emst -- --nocapture`.
/// The last one — the only input with coincident points — was
/// `0x61f3_5b66_79e5_485f` there and is re-recorded at the commit that
/// replaced `parlay`'s select: where rows of equal coordinate land around
/// a median is the selection's choice, the kd-tree's root (5 200 ≥ 4 096
/// points) went through the old parallel select and now goes through the
/// slice's, and with the rows the 200 zero-length edges change which twin
/// they name, which way they point and where they stand among their
/// equals. Nothing else may:
/// [`digest_up_to_coincidence`] of that list is what `d7152c1` and
/// `e87b182` (the parent of the new select) both give.
#[test]
fn edge_lists_equal_the_goldens_of_the_heap_and_refill_emst() {
    let spread = SeedSpreaderParams::default();
    let twins = with_duplicates(5_000, 200, 42);
    let twin_edges = emst(&twins);
    let got = [
        (
            "uniform 2D 30k seed 42",
            digest(&emst(&uniform_cube::<2>(30_000, 42))),
        ),
        (
            "uniform 2D 30k seed 7",
            digest(&emst(&uniform_cube::<2>(30_000, 7))),
        ),
        (
            "seed-spreader 2D 30k",
            digest(&emst(&seed_spreader::<2>(30_000, 42, spread))),
        ),
        (
            "uniform 3D 20k",
            digest(&emst(&uniform_cube::<3>(20_000, 42))),
        ),
        (
            "uniform 5D 5k",
            digest(&emst(&uniform_cube::<5>(5_000, 42))),
        ),
        ("5k + 200 duplicates", digest(&twin_edges)),
        (
            "5k + 200 duplicates, up to coincidence",
            digest_up_to_coincidence(&twins, &twin_edges),
        ),
    ];
    let want: [u64; 7] = [
        0x7091_bb55_09c2_554f,
        0x7ec3_c594_16f9_605e,
        0x4b2c_4f8c_60ca_d57d,
        0xc193_88d8_a1a6_ceab,
        0x732e_00d4_87fd_64e4,
        0x0b49_cfec_aee4_f434,
        0xc866_d2da_51f4_50a9,
    ];
    for (name, got) in got {
        println!("{name}: {got:#018x}");
    }
    assert_eq!(got.map(|(_, d)| d), want);
}

/// `n` points of family `which`, in an order fixed by `seed`.
fn family<const D: usize>(which: u8, n: usize, seed: u64) -> Vec<Point<D>> {
    let pick = |i: usize, len: usize| splitmix64(seed ^ i as u64) as usize % len;
    match which {
        0 => uniform_cube::<D>(n, seed),
        1 => seed_spreader::<D>(n, seed, SeedSpreaderParams::default()),
        // Integer lattice, shuffled: every edge length ties with many others.
        2 => {
            let w = (n as f64).powf(1.0 / D as f64).ceil() as u32;
            let cell =
                |i: u32| Point::new(std::array::from_fn(|d| (i / w.pow(d as u32) % w) as f64));
            random_permutation(n, seed).into_iter().map(cell).collect()
        }
        // Heavy duplicates: n draws from n/8 + 3 distinct locations.
        3 => {
            let base = uniform_cube::<D>(n / 8 + 3, seed);
            (0..n).map(|i| base[pick(i, base.len())]).collect()
        }
        // A collinear run of unit steps, shuffled, with a few repeats.
        _ => random_permutation(n, seed)
            .into_iter()
            .map(|i| Point::new([(i - i % 7 / 6) as f64; D]))
            .collect(),
    }
}

/// `n − 1` edges that span, in non-decreasing length, as heavy as Prim's.
fn check_emst<const D: usize>(pts: &[Point<D>]) -> Result<(), TestCaseError> {
    let edges = emst(pts);
    prop_assert_eq!(edges.len(), pts.len() - 1);
    let mut uf = UnionFind::new(pts.len());
    for e in &edges {
        prop_assert!(uf.union(e.u, e.v), "edge ({}, {}) closes a cycle", e.u, e.v);
        prop_assert_eq!(e.weight, pts[e.u as usize].dist(&pts[e.v as usize]));
    }
    prop_assert!(edges.windows(2).all(|w| w[0].weight <= w[1].weight));
    let (total, want) = (
        edges.iter().map(|e| e.weight).sum::<f64>(),
        emst_prim_brute(pts),
    );
    prop_assert!(
        (total - want).abs() <= 1e-7 * want,
        "weighs {total}, Prim's {want}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spans_in_order_at_prims_weight(
        which in 0u8..5,
        n in 2usize..600,
        seed in 0u64..1_000_000,
    ) {
        check_emst(&family::<2>(which, n, seed))?;
        check_emst(&family::<3>(which, n, seed))?;
    }
}

/// The edge list and the work counters. The rounds' caps are exact minima
/// over the plan's tasks, so a counter that moves with the pool means a
/// walk depends on the schedule. The seed-spreader input takes the most
/// rounds (10).
#[test]
fn edge_list_does_not_depend_on_the_pool_size() {
    let two = with_duplicates(20_000, 500, 9);
    let three = uniform_cube::<3>(6_000, 9);
    let spread = seed_spreader::<2>(30_000, 42, SeedSpreaderParams::default());
    let at = |t| {
        with_threads(t, || {
            (emst_work(&two), emst_work(&three), emst_work(&spread))
        })
    };
    let one = at(1);
    assert_eq!(one, at(2));
    assert_eq!(one, at(4));
}

//! Golden outputs of the reservation hulls and of the hulls built on them,
//! at one and two threads: the 2D vertex vectors of RandInc and
//! divide-and-conquer, the 3D facet lists in output order, and the 3D
//! Figure 12 counters. Each row is a 64-bit FNV-1a digest of the output's
//! words plus their count. They were recorded before the 2D RandInc moved
//! onto the reservation driver the 3D hulls run, and must not move.

use pargeo_datagen::{on_sphere, uniform_cube};
use pargeo_geometry::{Point, Point2, Point3};
use pargeo_hull::hull3d::{hull3d_quickhull_parallel_with_stats, hull3d_randinc_with_stats};
use pargeo_hull::*;
use pargeo_parlay::with_threads;

/// `"<count> <FNV-1a 64 of the words>"`.
fn digest(words: impl IntoIterator<Item = u32>) -> String {
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
/// many copies of every position.
fn lattice<const D: usize>(n: usize, seed: u64, side: f64) -> Vec<Point<D>> {
    let scale = side / pargeo_datagen::cube_side(n);
    uniform_cube::<D>(n, seed)
        .iter()
        .map(|p| Point::new(std::array::from_fn(|i| (p[i] * scale).floor())))
        .collect()
}

fn rows2d(name: &str, pts: &[Point2], out: &mut Vec<String>) {
    for t in [1, 2] {
        let (randinc, dnc) = with_threads(t, || (hull2d_randinc(pts), hull2d_divide_conquer(pts)));
        out.push(format!("{name} T{t} randinc {}", digest(randinc)));
        out.push(format!("{name} T{t} dnc {}", digest(dnc)));
    }
}

fn rows3d(name: &str, pts: &[Point3], out: &mut Vec<String>) {
    type Algo = fn(&[Point3]) -> Hull3d;
    let algos: [(&str, Algo); 4] = [
        ("randinc", hull3d_randinc),
        ("quickhull", hull3d_quickhull_parallel),
        ("pseudo", hull3d_pseudo),
        ("dnc", hull3d_divide_conquer),
    ];
    for t in [1, 2] {
        for (algo, f) in algos {
            let h = with_threads(t, || f(pts));
            out.push(format!("{name} T{t} {algo} {}", digest(h.facets.concat())));
        }
        for (algo, f) in [
            ("randinc", hull3d_randinc_with_stats as fn(&[Point3]) -> _),
            ("quickhull", hull3d_quickhull_parallel_with_stats),
        ] {
            let (_, s) = with_threads(t, || f(pts));
            let triple = (s.points_touched, s.facets_touched, s.rounds);
            out.push(format!("{name} T{t} {algo} stats {triple:?}"));
        }
    }
}

#[test]
fn reservation_hull_outputs_are_unchanged() {
    let mut got = Vec::new();
    rows2d("2D uniform 50k", &uniform_cube::<2>(50_000, 101), &mut got);
    rows2d("2D on-sphere 5k", &on_sphere::<2>(5_000, 102), &mut got);
    rows2d("2D lattice 20k", &lattice::<2>(20_000, 103, 24.0), &mut got);
    rows3d("3D uniform 20k", &uniform_cube::<3>(20_000, 104), &mut got);
    rows3d("3D on-sphere 3k", &on_sphere::<3>(3_000, 105), &mut got);
    rows3d("3D lattice 10k", &lattice::<3>(10_000, 106, 8.0), &mut got);
    let want = [
        "2D uniform 50k T1 randinc 26 a1307720a6dc508c",
        "2D uniform 50k T1 dnc 26 a1307720a6dc508c",
        "2D uniform 50k T2 randinc 26 a1307720a6dc508c",
        "2D uniform 50k T2 dnc 26 a1307720a6dc508c",
        "2D on-sphere 5k T1 randinc 81 7cf523a1647a528c",
        "2D on-sphere 5k T1 dnc 81 7cf523a1647a528c",
        "2D on-sphere 5k T2 randinc 81 7cf523a1647a528c",
        "2D on-sphere 5k T2 dnc 81 7cf523a1647a528c",
        "2D lattice 20k T1 randinc 4 30c0e6c2b90d74b3",
        "2D lattice 20k T1 dnc 4 30c0e6c2b90d74b3",
        "2D lattice 20k T2 randinc 4 30c0e6c2b90d74b3",
        "2D lattice 20k T2 dnc 4 30c0e6c2b90d74b3",
        "3D uniform 20k T1 randinc 762 b743aa03bdba79cd",
        "3D uniform 20k T1 quickhull 762 3217c2c87a3a15bd",
        "3D uniform 20k T1 pseudo 762 7be841f7df6853a9",
        "3D uniform 20k T1 dnc 762 855c074e42dc8bb1",
        "3D uniform 20k T1 randinc stats (414, 4147, 273)",
        "3D uniform 20k T1 quickhull stats (319, 2916, 176)",
        "3D uniform 20k T2 randinc 762 b743aa03bdba79cd",
        "3D uniform 20k T2 quickhull 762 3217c2c87a3a15bd",
        "3D uniform 20k T2 pseudo 762 7be841f7df6853a9",
        "3D uniform 20k T2 dnc 762 1b8dbe35ad85bdf1",
        "3D uniform 20k T2 randinc stats (414, 4147, 273)",
        "3D uniform 20k T2 quickhull stats (319, 2916, 176)",
        "3D on-sphere 3k T1 randinc 1818 f091f6befb5f3798",
        "3D on-sphere 3k T1 quickhull 1818 407ad2a39afe2674",
        "3D on-sphere 3k T1 pseudo 1818 bd986aac0cf62844",
        "3D on-sphere 3k T1 dnc 1818 1b7f23b914f9105c",
        "3D on-sphere 3k T1 randinc stats (704, 7451, 239)",
        "3D on-sphere 3k T1 quickhull stats (879, 9001, 254)",
        "3D on-sphere 3k T2 randinc 1818 d884a1be475f7934",
        "3D on-sphere 3k T2 quickhull 1818 6d28cd18a3747d28",
        "3D on-sphere 3k T2 pseudo 1818 b29eac76d2232a8c",
        "3D on-sphere 3k T2 dnc 1818 7cc24e9a01afd500",
        "3D on-sphere 3k T2 randinc stats (703, 7436, 238)",
        "3D on-sphere 3k T2 quickhull stats (878, 8933, 253)",
        "3D lattice 10k T1 randinc 306 756ab11fe5a99046",
        "3D lattice 10k T1 quickhull 48 885ed626d9d94b9a",
        "3D lattice 10k T1 pseudo 42 de577a3e1942f739",
        "3D lattice 10k T1 dnc 48 885ed626d9d94b9a",
        "3D lattice 10k T1 randinc stats (50, 278, 50)",
        "3D lattice 10k T1 quickhull stats (6, 26, 6)",
        "3D lattice 10k T2 randinc 306 756ab11fe5a99046",
        "3D lattice 10k T2 quickhull 48 885ed626d9d94b9a",
        "3D lattice 10k T2 pseudo 42 de577a3e1942f739",
        "3D lattice 10k T2 dnc 48 885ed626d9d94b9a",
        "3D lattice 10k T2 randinc stats (50, 278, 50)",
        "3D lattice 10k T2 quickhull stats (6, 26, 6)",
    ];
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
    assert_eq!(got.len(), want.len(), "{got:#?}");
}

//! Golden bits of `try_seb`: the radius and every center coordinate of the
//! ball, as `f64::to_bits`, on fixed inputs. They were recorded before the
//! final phase began scanning a shell of near-boundary points instead of
//! the whole input, and that change must not move a single bit.

use pargeo_datagen::{in_sphere, on_cube, on_sphere, uniform_cube};
use pargeo_geometry::Point;
use pargeo_seb::try_seb;

/// `"radius center_0 center_1 …"`, each as 16 hex digits.
fn bits<const D: usize>(pts: &[Point<D>]) -> String {
    let ball = try_seb(pts).unwrap();
    let mut words = vec![ball.radius.to_bits()];
    words.extend((0..D).map(|i| ball.center[i].to_bits()));
    words
        .iter()
        .map(|w| format!("{w:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A duplicate-heavy lattice: `n` points on the 8³ grid.
fn lattice(n: usize, seed: u64) -> Vec<Point<3>> {
    let side = pargeo_datagen::cube_side(n);
    uniform_cube::<3>(n, seed)
        .iter()
        .map(|p| Point::new([0, 1, 2].map(|i| (p[i] / side * 8.0).floor())))
        .collect()
}

#[test]
fn try_seb_bits_are_unchanged() {
    let got = [
        ("on-sphere 2-D 200k", bits(&on_sphere::<2>(200_000, 7))),
        ("on-sphere 3-D 200k", bits(&on_sphere::<3>(200_000, 8))),
        ("uniform 5-D 200k", bits(&uniform_cube::<5>(200_000, 9))),
        ("in-sphere 3-D 50k", bits(&in_sphere::<3>(50_000, 10))),
        ("on-cube 3-D 50k", bits(&on_cube::<3>(50_000, 11))),
        ("lattice 3-D 30k", bits(&lattice(30_000, 12))),
        ("n = 1", bits(&[Point::new([3.0, -4.0])])),
        (
            "n = 2",
            bits(&[Point::new([1.0, 2.0]), Point::new([4.0, 6.0])]),
        ),
        ("identical", bits(&[Point::new([0.5, 1.5, -2.5]); 1_000])),
    ];
    let want = [
        "406bf3670abe01a5 bef24a1d91600000 bf23806a09600000",
        "406bf35fd70896eb 3f53231166cc0000 3f519498eb3a4000 bf4e61426c0bd800",
        "407d7ce150fde4a9 406ce01cfcc5511c 406c08ced66d8f4e 406bcd2e37e09830 406b903cd7d72000 406bb51aff50938a",
        "405bf35f6b31c888 bf5782b8e79fc400 bf816ad603a92130 bf69712a92797040",
        "4067ec0dd145ec0c 405b8409c93bfda9 405c50a62e7fe75e 405b88bae92df194",
        "40183fab8b4d4315 400c000000000000 400c000000000000 400c000000000000",
        "0000000000000000 4008000000000000 c010000000000000",
        "4004000000000000 4004000000000000 4010000000000000",
        "0000000000000000 3fe0000000000000 3ff8000000000000 c004000000000000",
    ];
    for ((name, got), want) in got.iter().zip(want) {
        assert_eq!(got, want, "{name}");
    }
}

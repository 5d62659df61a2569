//! Seeded inputs. Data points come from `pargeo::datagen` (a measured
//! layer, timed as set-up); query points, boxes and every seed derivation
//! come from the small generator here, so the inputs are a pure function of
//! `(seed, sizes)` and of nothing the program under test decides.

use pargeo::parlay::mix64;
use pargeo::prelude::{Bbox, Point};

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ 0x6c65_6467_6572, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seed of one named input of one workload.
pub fn sub_seed(seed: u64, workload: &str, input: u64) -> u64 {
    let tag = workload.bytes().fold(0u64, |h, b| mix64(h, b as u64));
    mix64(mix64(seed, tag), input)
}

/// `count` query points uniform in `[0, side]^D`.
pub fn query_points<const D: usize>(rng: &mut Rng, count: usize, side: f64) -> Vec<Point<D>> {
    (0..count)
        .map(|_| {
            let mut c = [0.0; D];
            for x in c.iter_mut() {
                *x = rng.next_f64() * side;
            }
            Point::new(c)
        })
        .collect()
}

/// `count` boxes with centers uniform in `[0, side]^D` and each side length
/// uniform in `(0, max_frac × side]`.
pub fn query_boxes<const D: usize>(
    rng: &mut Rng,
    count: usize,
    side: f64,
    max_frac: f64,
) -> Vec<Bbox<D>> {
    (0..count)
        .map(|_| {
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for d in 0..D {
                let center = rng.next_f64() * side;
                let half = (1.0 - rng.next_f64()) * max_frac * side / 2.0;
                lo[d] = center - half;
                hi[d] = center + half;
            }
            Bbox {
                min: Point::new(lo),
                max: Point::new(hi),
            }
        })
        .collect()
}

/// Folds a point's coordinate bits into a digest.
pub fn fold_point<const D: usize>(h: u64, p: &Point<D>) -> u64 {
    p.coords.iter().fold(h, |h, c| mix64(h, c.to_bits()))
}

pub fn fold_points<const D: usize>(h: u64, pts: &[Point<D>]) -> u64 {
    pts.iter().fold(mix64(h, pts.len() as u64), fold_point)
}

pub fn fold_boxes<const D: usize>(h: u64, boxes: &[Bbox<D>]) -> u64 {
    boxes.iter().fold(mix64(h, boxes.len() as u64), |h, b| {
        fold_point(fold_point(h, &b.min), &b.max)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded() {
        let a: Vec<Point<2>> = query_points(&mut Rng::new(1, 0), 8, 10.0);
        let b: Vec<Point<2>> = query_points(&mut Rng::new(1, 0), 8, 10.0);
        let c: Vec<Point<2>> = query_points(&mut Rng::new(2, 0), 8, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|p| p.coords.iter().all(|x| (0.0..10.0).contains(x))));
        assert_ne!(sub_seed(1, "a", 0), sub_seed(1, "b", 0));
    }

    #[test]
    fn boxes_are_well_formed() {
        let boxes: Vec<Bbox<2>> = query_boxes(&mut Rng::new(3, 1), 100, 50.0, 0.01);
        for b in &boxes {
            assert!(!b.is_empty());
            assert!(b.side(0) > 0.0 && b.side(0) <= 0.5);
        }
    }
}

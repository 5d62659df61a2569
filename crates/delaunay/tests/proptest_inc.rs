//! Property tests of the incremental Delaunay engine through its public
//! interface: on point families from benign to maximally degenerate and
//! under a random batch schedule, the engine's edge list equals that of a
//! fresh build on every prefix, and what it holds at the end
//! is a Delaunay triangulation; under churn — insert batches and remove
//! batches interleaved — it equals a fresh build over the live points
//! after every batch. (The two white-box properties — the slab
//! has no dead slot, the locate hint cannot change the answer — sit with
//! the engine's unit tests in `src/inc.rs`, where the slab is visible.)

use pargeo_datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};
use pargeo_delaunay::{validate_delaunay, DelaunayBatchOutcome, DelaunayIncremental};
use pargeo_geometry::Point2;
use pargeo_parlay::{random_permutation, shuffle::splitmix64};
use proptest::prelude::*;

/// `n` points of family `which`, in an order fixed by `seed`.
fn family(which: u8, n: usize, seed: u64) -> Vec<Point2> {
    let pick = |i: usize, len: usize| splitmix64(seed ^ i as u64) as usize % len;
    match which {
        0 => uniform_cube::<2>(n, seed),
        1 => seed_spreader::<2>(n, seed, SeedSpreaderParams::default()),
        // Integer lattice, shuffled: every unit square is cocircular.
        2 => {
            let w = (n as f64).sqrt().ceil() as u32;
            let cell = |i: u32| Point2::new([(i % w) as f64, (i / w) as f64]);
            random_permutation(n, seed).into_iter().map(cell).collect()
        }
        // Heavy duplicates: n draws from n/8 + 3 distinct locations.
        3 => {
            let base = uniform_cube::<2>(n / 8 + 3, seed);
            (0..n).map(|i| base[pick(i, base.len())]).collect()
        }
        // All collinear but one, the odd one somewhere in the middle.
        _ => {
            let mut pts: Vec<Point2> = (0..n).map(|i| Point2::new([i as f64, i as f64])).collect();
            pts[pick(0, n)] = Point2::new([(n - 1) as f64, 0.0]);
            pts
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batches_equal_fresh_builds_on_every_prefix(
        which in 0u8..5,
        n in 12usize..400,
        seed in 0u64..1_000_000,
        schedule in prop::collection::vec(1usize..120, 1..8),
    ) {
        let pts = family(which, n, seed);
        // Shortest buildable prefix (a prefix can be collinear or all
        // duplicates; the whole family never is). Later batches may land
        // anywhere, outside its bbox too.
        let mut at = 4;
        let mut eng = loop {
            match DelaunayIncremental::try_build(&pts[..at]) {
                Ok(eng) => break eng,
                Err(_) => {
                    prop_assume!(at < n);
                    at += 1;
                }
            }
        };
        for step in schedule {
            let to = (at + step).min(n);
            let outcome = eng.try_insert_batch(&pts[at..to], f64::INFINITY).unwrap();
            prop_assert!(
                matches!(outcome, DelaunayBatchOutcome::Applied { .. }),
                "family {which} @{to}: {outcome:?}"
            );
            at = to;
            prop_assert_eq!(eng.consumed(), at);
            let fresh = DelaunayIncremental::try_build(&pts[..at]).unwrap();
            prop_assert_eq!(eng.edges().unwrap(), fresh.edges().unwrap(), "family {} @{}", which, at);
        }
        let tris = eng.triangulation().unwrap().triangles;
        prop_assert_eq!(validate_delaunay(&pts[..at], &tris), Ok(()));
    }

    #[test]
    fn churn_equals_fresh_builds_after_every_batch(
        which in 0u8..5,
        n in 12usize..300,
        seed in 0u64..1_000_000,
        schedule in prop::collection::vec((0u8..2, 1usize..60), 1..10),
    ) {
        let pts = family(which, n, seed);
        let mut at = n / 2;
        let mut live: Vec<Point2> = pts[..at].to_vec();
        let Ok(mut eng) = DelaunayIncremental::try_build(&live) else {
            return Ok(());
        };
        for (step, (remove, size)) in schedule.into_iter().enumerate() {
            if remove == 1 {
                // `size` positions spread over the live points.
                let stride = (live.len() / size).max(1);
                let positions: Vec<u32> = (0..live.len())
                    .skip(step % stride)
                    .step_by(stride)
                    .take(size)
                    .map(|q| q as u32)
                    .collect();
                let kept: Vec<Point2> = (0..live.len() as u32)
                    .filter(|q| positions.binary_search(q).is_err())
                    .map(|q| live[q as usize])
                    .collect();
                match DelaunayIncremental::try_build(&kept) {
                    Ok(fresh) => {
                        prop_assert_eq!(eng.try_remove_batch(&positions), Ok(()));
                        live = kept;
                        prop_assert_eq!(eng.edges().unwrap(), fresh.edges().unwrap(), "family {} step {}", which, step);
                    }
                    Err(refused) => {
                        prop_assert_eq!(eng.try_remove_batch(&positions), Err(refused));
                    }
                }
            } else {
                let to = (at + size).min(n);
                let outcome = eng.try_insert_batch(&pts[at..to], f64::INFINITY).unwrap();
                prop_assert!(
                    matches!(outcome, DelaunayBatchOutcome::Applied { .. }),
                    "family {} step {}: {:?}",
                    which,
                    step,
                    outcome
                );
                live.extend_from_slice(&pts[at..to]);
                at = to;
                let fresh = DelaunayIncremental::try_build(&live).unwrap();
                prop_assert_eq!(eng.edges().unwrap(), fresh.edges().unwrap(), "family {} step {}", which, step);
            }
            prop_assert_eq!(eng.consumed(), live.len());
        }
        let tris = eng.triangulation().unwrap().triangles;
        prop_assert_eq!(validate_delaunay(&live, &tris), Ok(()));
    }
}

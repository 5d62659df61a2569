//! Batch maintenance of a 2D Delaunay triangulation of a point slice.
//!
//! [`DelaunayIncremental`] keeps the Bowyer–Watson mesh of the points it
//! has consumed alive across insert batches, which append points after
//! them, and remove batches, which take any of them out and renumber the
//! rest in order. Its edge list after any schedule of both is
//! bit-identical to a fresh build over the same points, and to
//! [`delaunay`](crate::delaunay)'s: the kernel's perturbed `incircle`
//! gives every point set one triangulation, whatever the insertion order
//! (duplicates collapse onto their lowest index), its ghost vertex accepts
//! a point anywhere in the plane, and a removal refills the star it leaves
//! with that one triangulation's triangles. For the same reason nothing
//! the kernel does to be fast can show in an answer: which triangle a
//! location walk starts from, and which slab slots new triangles land in,
//! choose among representations of the same set.
//!
//! A build *is* a batch: `try_build` seeds the mesh with the first
//! non-collinear triple and runs the same insertion loop over `0..n` that
//! a batch runs over its own ids, so a 500-point advance costs 500
//! insertions — appending points rewrites no triangle and the slab holds
//! no dead slot to skip. A removal of `b` points costs `b` star refills
//! plus one `O(n)` renumbering pass, or a build over the survivors when
//! more points go than stay.

use crate::bw::{check_finite, check_input, Delaunay};
use crate::tri::TriMesh;
use pargeo_geometry::{GeoError, GeoResult, Point2};

/// What a batch insert did to the maintained triangulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelaunayBatchOutcome {
    /// The batch was applied; the engine now covers the longer prefix.
    Applied {
        /// Non-duplicate points actually inserted.
        inserted: usize,
        /// Triangles killed by cavity retriangulation.
        killed: usize,
    },
    /// The batch killed more than `max_damage` of the structure; the
    /// engine is poisoned and must be discarded (rebuild from scratch).
    DamageExceeded {
        /// Triangles killed before the budget ran out.
        killed: usize,
    },
}

/// Incrementally maintained Delaunay triangulation of a point slice:
/// insert batches append in index order, remove batches drop positions.
#[derive(Debug)]
pub struct DelaunayIncremental {
    mesh: TriMesh,
    /// Set when a batch aborted mid-flight; the mesh is incomplete.
    poisoned: bool,
}

impl DelaunayIncremental {
    /// Builds the engine by inserting `points` in index order, with the
    /// same typed errors as [`try_delaunay`](crate::try_delaunay).
    pub fn try_build(points: &[Point2]) -> GeoResult<Self> {
        let mut mesh = TriMesh::new(points, check_input(points)?);
        mesh.insert_all(0..points.len() as u32, f64::INFINITY);
        Ok(DelaunayIncremental {
            mesh,
            poisoned: false,
        })
    }

    /// Number of points consumed: built, appended and not removed.
    pub fn consumed(&self) -> usize {
        self.mesh.points.len()
    }

    /// Appends `new_pts` (the points after the consumed prefix, in index
    /// order, anywhere in the plane) to the triangulation.
    ///
    /// Non-finite coordinates are an error, decided before anything is
    /// applied; the engine stays as it was. Returns
    /// [`DelaunayBatchOutcome::DamageExceeded`] — poisoning the engine —
    /// once more than `max_damage · (triangles at batch start + 3 · batch
    /// size)` triangles have been killed.
    pub fn try_insert_batch(
        &mut self,
        new_pts: &[Point2],
        max_damage: f64,
    ) -> GeoResult<DelaunayBatchOutcome> {
        self.usable("delaunay_insert_batch")?;
        check_finite(new_pts)?;
        let budget = max_damage * (self.mesh.v.len() + 3 * new_pts.len()) as f64;
        let first = self.consumed() as u32;
        self.mesh.append_points(new_pts);
        let (inserted, killed, done) = self.mesh.insert_all(first..self.consumed() as u32, budget);
        if !done {
            self.poisoned = true;
            return Ok(DelaunayBatchOutcome::DamageExceeded { killed });
        }
        Ok(DelaunayBatchOutcome::Applied { inserted, killed })
    }

    /// Removes the points at `positions` — strictly ascending, each below
    /// [`consumed`](Self::consumed) — and renumbers the survivors in
    /// order: the engine then holds what [`try_build`](Self::try_build)
    /// over the survivors holds, edge for edge.
    ///
    /// Each removed point's star is refilled in place, unless more points
    /// go than stay: then the survivors are built afresh, which touches
    /// fewer points for the same answer (at 30 000 points the two cost
    /// about the same at a half, and refilling 90% in place costs eight
    /// to ten times the build: EXPERIMENTS "Delete epochs advance the
    /// engine").
    ///
    /// Survivors no build accepts (fewer than three, or all collinear or
    /// coincident) get that build's typed error, and positions out of
    /// order or range a `BadParameter`; either way the engine stays as it
    /// was.
    pub fn try_remove_batch(&mut self, positions: &[u32]) -> GeoResult<()> {
        let mesh = self.usable("delaunay_remove_batch")?;
        let n = mesh.points.len() as u32;
        if positions.windows(2).any(|w| w[0] >= w[1]) || positions.last() >= Some(&n) {
            return Err(GeoError::BadParameter {
                op: "delaunay_remove_batch",
                what: "positions must ascend strictly within the consumed prefix",
            });
        }
        if positions.is_empty() {
            return Ok(());
        }
        let mut gone = positions.iter().peekable();
        let kept: Vec<Point2> = (0..n)
            .zip(&mesh.points)
            .filter(|&(q, _)| gone.next_if_eq(&&q).is_none())
            .map(|(_, p)| *p)
            .collect();
        check_input(&kept)?;
        if 2 * positions.len() > mesh.points.len() {
            *self = Self::try_build(&kept)?;
        } else {
            self.mesh.remove_all(positions, kept);
        }
        Ok(())
    }

    fn usable(&self, op: &'static str) -> GeoResult<&TriMesh> {
        if self.poisoned {
            return Err(GeoError::BadParameter {
                op,
                what: "engine poisoned by an aborted batch; rebuild required",
            });
        }
        Ok(&self.mesh)
    }

    /// The triangulation over the consumed prefix (real triangles only).
    pub fn triangulation(&self) -> GeoResult<Delaunay> {
        let triangles = self.usable("delaunay_extract")?.extract();
        Ok(Delaunay { triangles })
    }

    /// Sorted, deduplicated `(min, max)` edge list — the canonical output
    /// the store compares across incremental and full recomputes.
    pub fn edges(&self) -> GeoResult<Vec<(u32, u32)>> {
        Ok(self.usable("delaunay_extract")?.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tri::{validate_delaunay, NONE};
    use crate::try_delaunay;
    use pargeo_datagen::uniform_cube;
    use proptest::prelude::*;

    fn lattice(w: usize) -> Vec<Point2> {
        let mut pts = Vec::new();
        for i in 0..w {
            for j in 0..w {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        pts
    }

    /// Batched insertion must stay edge-identical to a fresh build on
    /// every prefix — including a maximally cocircular lattice, where only
    /// the perturbed `incircle` pins the answer, and batches that land
    /// outside the bbox of the prefix built first.
    #[test]
    fn batches_match_full_build_bit_identically() {
        for (name, mut pts) in [
            ("uniform", uniform_cube::<2>(500, 5)),
            ("lattice", lattice(14)),
        ] {
            // Duplicate-heavy tail.
            let dups: Vec<Point2> = pts.iter().step_by(3).copied().collect();
            pts.extend(dups);
            let mut eng = DelaunayIncremental::try_build(&pts[..64]).unwrap();
            let mut at = 64;
            for step in [1usize, 5, 23, 64, 150] {
                let to = (at + step).min(pts.len());
                // No damage budget: a lattice growing column by column
                // outward tears down more than its own size.
                match eng.try_insert_batch(&pts[at..to], f64::INFINITY).unwrap() {
                    DelaunayBatchOutcome::Applied { .. } => {}
                    other => panic!("{name}: unexpected outcome {other:?}"),
                }
                at = to;
                let fresh = DelaunayIncremental::try_build(&pts[..to]).unwrap();
                assert_eq!(eng.edges().unwrap(), fresh.edges().unwrap(), "{name}@{to}");
            }
            validate_delaunay(&pts[..at], &eng.triangulation().unwrap().triangles).unwrap();
        }
    }

    /// The index-order build is a valid Delaunay triangulation and agrees
    /// with the Morton-order build on the edge set for inputs in general
    /// position (where the triangulation is unique).
    #[test]
    fn index_order_build_matches_randomized_in_general_position() {
        let pts = uniform_cube::<2>(400, 9);
        let eng = DelaunayIncremental::try_build(&pts).unwrap();
        validate_delaunay(&pts, &eng.triangulation().unwrap().triangles).unwrap();
        let morton = try_delaunay(&pts).unwrap();
        assert_eq!(eng.edges().unwrap(), crate::delaunay_edges(&morton));
    }

    /// Same typed errors as `try_delaunay` on degenerate inputs.
    #[test]
    fn degenerate_inputs_error_like_try_delaunay() {
        assert_eq!(
            DelaunayIncremental::try_build(&[]).err(),
            Some(GeoError::EmptyInput { op: "delaunay" })
        );
        let two = [Point2::new([0.0, 0.0]), Point2::new([1.0, 0.0])];
        assert_eq!(
            DelaunayIncremental::try_build(&two).err(),
            Some(GeoError::TooFewPoints {
                op: "delaunay",
                needed: 3,
                got: 2
            })
        );
        let line: Vec<Point2> = (0..30).map(|i| Point2::new([i as f64, i as f64])).collect();
        assert_eq!(
            DelaunayIncremental::try_build(&line).err(),
            Some(GeoError::Degenerate {
                op: "delaunay",
                what: "collinear"
            })
        );
        let dup = [Point2::new([1.0, 1.0]); 7];
        assert_eq!(
            DelaunayIncremental::try_build(&dup).err(),
            Some(GeoError::Degenerate {
                op: "delaunay",
                what: "collinear"
            })
        );
    }

    /// NaN and infinite coordinates are refused up front by every
    /// fallible entry point; a refused batch leaves the engine as it was.
    #[test]
    fn non_finite_coordinates_are_rejected() {
        let refused = GeoError::BadParameter {
            op: "delaunay",
            what: "non-finite coordinate",
        };
        let good = uniform_cube::<2>(200, 3);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 17, 199] {
                let mut pts = good.clone();
                pts[at] = Point2::new([pts[at][0], bad]);
                assert_eq!(DelaunayIncremental::try_build(&pts).err(), Some(refused));
                assert_eq!(try_delaunay(&pts).err(), Some(refused));
                assert!(crate::delaunay(&pts).is_empty());
            }
            let mut eng = DelaunayIncremental::try_build(&good).unwrap();
            let edges_before = eng.edges().unwrap();
            let batch = [good[5], Point2::new([bad, 0.5]), good[6]];
            assert_eq!(eng.try_insert_batch(&batch, 1.0).err(), Some(refused));
            assert_eq!(eng.edges().unwrap(), edges_before);
            assert_eq!(eng.consumed(), 200);
            assert!(matches!(
                eng.try_insert_batch(&good[..9], 1.0).unwrap(),
                DelaunayBatchOutcome::Applied { inserted: 0, .. }
            ));
        }
    }

    /// Positions out of order or beyond the consumed prefix are refused
    /// before anything changes, as are survivors no build accepts.
    #[test]
    fn bad_removals_are_refused_and_change_nothing() {
        let pts = uniform_cube::<2>(50, 2);
        let mut eng = DelaunayIncremental::try_build(&pts).unwrap();
        let edges = eng.edges().unwrap();
        let refused = Err(GeoError::BadParameter {
            op: "delaunay_remove_batch",
            what: "positions must ascend strictly within the consumed prefix",
        });
        for bad in [&[3, 3][..], &[4, 2], &[50], &[0, 49, 50]] {
            assert_eq!(eng.try_remove_batch(bad), refused, "{bad:?}");
        }
        let all_but_two: Vec<u32> = (2..50).collect();
        let too_few = Err(GeoError::TooFewPoints {
            op: "delaunay",
            needed: 3,
            got: 2,
        });
        assert_eq!(eng.try_remove_batch(&all_but_two), too_few);
        assert_eq!(eng.try_remove_batch(&[]), Ok(()));
        assert_eq!((eng.consumed(), eng.edges().unwrap()), (50, edges));
        // Three survivors on one line: no triangulation.
        let mut line: Vec<Point2> = (0..3).map(|i| Point2::new([i as f64, 0.0])).collect();
        line.push(Point2::new([1.0, 1.0]));
        let mut eng = DelaunayIncremental::try_build(&line).unwrap();
        let flat = Err(GeoError::Degenerate {
            op: "delaunay",
            what: "collinear",
        });
        assert_eq!(eng.try_remove_batch(&[3]), flat);
        assert_eq!(eng.edges().unwrap().len(), 5);
    }

    /// A zero damage budget aborts on the first cavity and poisons the
    /// engine.
    #[test]
    fn damage_threshold_aborts_and_poisons() {
        let pts = uniform_cube::<2>(300, 7);
        let mut eng = DelaunayIncremental::try_build(&pts[..200]).unwrap();
        match eng.try_insert_batch(&pts[200..], 0.0).unwrap() {
            DelaunayBatchOutcome::DamageExceeded { killed } => assert!(killed > 0),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(eng.try_insert_batch(&pts[200..], 1.0).is_err());
        assert!(eng.edges().is_err());
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// White-box twins of `tests/proptest_inc.rs`, on uniform points
        /// and on a duplicate-heavy lattice (cocircular quadruples and
        /// collinear runs everywhere): after every batch the slab holds
        /// exactly the live mesh — `2m − 2` triangles, ghosts included,
        /// over `m` distinct points, no dead slot — and an engine whose
        /// every walk starts at slot 0 instead of the hinted triangle holds
        /// the same one.
        #[test]
        fn slab_has_no_dead_slot_and_the_hint_is_answer_neutral(
            cells in prop::collection::vec((0i32..12, 0i32..12), 8..200),
            seed in 0u64..1_000_000,
            on_lattice in 0u8..2,
            schedule in prop::collection::vec(1usize..60, 1..8),
        ) {
            let pts: Vec<Point2> = if on_lattice == 1 {
                cells.iter().map(|&(x, y)| Point2::new([x as f64, y as f64])).collect()
            } else {
                uniform_cube::<2>(cells.len(), seed)
            };
            // Shortest buildable prefix (a prefix can be collinear).
            let mut at = 3;
            while check_input(&pts[..at]).is_err() {
                prop_assume!(at < pts.len());
                at += 1;
            }
            let mut hinted = DelaunayIncremental::try_build(&pts[..at]).unwrap();
            let mut blind = DelaunayIncremental {
                mesh: TriMesh::new(&pts[..at], check_input(&pts[..at]).unwrap()),
                poisoned: false,
            };
            blind.mesh.no_hint = true;
            blind.mesh.insert_all(0..at as u32, f64::INFINITY);
            prop_assert_eq!(hinted.edges().unwrap(), blind.edges().unwrap());
            for step in schedule {
                let to = (at + step).min(pts.len());
                let a = hinted.try_insert_batch(&pts[at..to], f64::INFINITY).unwrap();
                let b = blind.try_insert_batch(&pts[at..to], f64::INFINITY).unwrap();
                prop_assert_eq!(a, b);
                at = to;
                prop_assert_eq!(hinted.edges().unwrap(), blind.edges().unwrap());
                let distinct: std::collections::HashSet<[u64; 2]> =
                    pts[..at].iter().map(|p| p.bits_key()).collect();
                prop_assert_eq!(hinted.mesh.v.len(), 2 * distinct.len() - 2);
                prop_assert_eq!(blind.mesh.v.len(), 2 * distinct.len() - 2);
            }
        }

        /// After every remove batch the slab is still exactly the live
        /// mesh: `2m − 2` triangles over `m` distinct survivors, adjacency
        /// symmetric, each vertex's hint triangle holding it, and only
        /// the lowest copy of a location a vertex.
        #[test]
        fn removals_keep_the_slab_exact(
            cells in prop::collection::vec((0i32..10, 0i32..10), 12..160),
            seed in 0u64..1_000_000,
            on_lattice in 0u8..2,
            cuts in prop::collection::vec(1u32..7, 1..8),
        ) {
            let mut pts: Vec<Point2> = if on_lattice == 1 {
                cells.iter().map(|&(x, y)| Point2::new([x as f64, y as f64])).collect()
            } else {
                uniform_cube::<2>(cells.len(), seed)
            };
            let Ok(mut eng) = DelaunayIncremental::try_build(&pts) else {
                return Ok(());
            };
            for (round, every) in cuts.into_iter().enumerate() {
                let positions: Vec<u32> = (0..pts.len() as u32)
                    .filter(|q| (q + round as u32).is_multiple_of(every + 1))
                    .collect();
                let kept: Vec<Point2> = (0..pts.len() as u32)
                    .filter(|q| positions.binary_search(q).is_err())
                    .map(|q| pts[q as usize])
                    .collect();
                if check_input(&kept).is_err() {
                    break;
                }
                eng.try_remove_batch(&positions).unwrap();
                pts = kept;
                let mesh = &eng.mesh;
                let mut first = std::collections::HashMap::new();
                for (q, p) in pts.iter().enumerate() {
                    let lowest = *first.entry(p.bits_key()).or_insert(q);
                    prop_assert_eq!(mesh.vtri[q] != NONE, lowest == q, "vertex {}", q);
                    if mesh.vtri[q] != NONE {
                        prop_assert!(mesh.v[mesh.vtri[q] as usize].contains(&(q as u32)));
                    }
                }
                prop_assert_eq!(mesh.v.len(), 2 * first.len() - 2);
                for (t, nbr) in mesh.nbr.iter().enumerate() {
                    for &g in nbr {
                        prop_assert!(mesh.nbr[g as usize].contains(&(t as u32)));
                    }
                }
                let fresh = DelaunayIncremental::try_build(&pts).unwrap();
                prop_assert_eq!(eng.edges().unwrap(), fresh.edges().unwrap());
            }
        }
    }
}

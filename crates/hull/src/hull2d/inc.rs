//! Resumable batch-insert maintenance of a 2D convex hull.
//!
//! [`Hull2dIncremental`] keeps the hull of a growing *prefix* of a point
//! slice alive across insert batches: each batch walks the new points in
//! index order, finds the contiguous visible chain of the current cycle
//! (the sequential core of the paper's randomized incremental algorithm,
//! without the reservation machinery — batches arriving from a store
//! planner are small relative to the structure), and splices the new
//! vertex in place of the chain. Extraction via [`Hull2dIncremental::hull`]
//! is **bit-identical** to [`try_hull2d`](crate::try_hull2d) on the same
//! prefix:
//!
//! - quickhull's furthest-point selection breaks exact ties toward the
//!   smaller index (`max_index_by` is first-wins), so duplicate-coordinate
//!   corners resolve to the *minimal* index holding that coordinate;
//! - index-order insertion picks the same minimal index: a later duplicate
//!   of a coordinate already in the structure is never strictly outside
//!   and is skipped;
//! - the strictly-convex corner sequence of a full-dimensional point set
//!   is unique once rotated to start at the lexicographically smallest
//!   coordinate, which extraction does (after stripping weak vertices,
//!   exactly like the randomized incremental path).
//!
//! The damage threshold bounds how much of the structure one batch may
//! tear down before the caller is told to rebuild from scratch instead
//! (`destroyed edges / (cycle edges at batch start + batch size)`).

use super::{rotate_to_lex_min, sees, strip_collinear, try_hull2d};
use pargeo_geometry::{GeoError, GeoResult, Point2};

/// What a batch insert did to the maintained hull.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HullBatchOutcome {
    /// The batch was applied; the engine now covers the longer prefix.
    Applied {
        /// Hull edges destroyed while splicing the batch in.
        destroyed: usize,
    },
    /// The batch tore down more than `max_damage` of the structure; the
    /// engine is poisoned and must be discarded (rebuild from scratch).
    DamageExceeded {
        /// Edges destroyed before the budget ran out.
        destroyed: usize,
    },
}

/// Incrementally maintained strict 2D hull over a growing point prefix.
///
/// The engine never stores coordinates — callers pass the (append-only)
/// point slice to every method, and the engine tracks how long a prefix it
/// has consumed. Deletions are out of scope by design: removing a point
/// can only be answered by a rebuild.
#[derive(Debug, Clone)]
pub struct Hull2dIncremental {
    /// CCW vertex cycle. May contain *weak* (collinear) vertices that a
    /// later insert flattened onto an edge; extraction strips them.
    cycle: Vec<u32>,
    /// `points[..consumed]` is the prefix this cycle is the hull of.
    consumed: usize,
    /// Set when a batch aborted mid-flight; the cycle is no longer a hull.
    poisoned: bool,
}

impl Hull2dIncremental {
    /// Builds the engine from a full hull computation over `points`
    /// (rejecting degenerate inputs exactly like [`try_hull2d`]).
    pub fn try_build(points: &[Point2]) -> GeoResult<Self> {
        let cycle = try_hull2d(points)?;
        Ok(Self {
            cycle,
            consumed: points.len(),
            poisoned: false,
        })
    }

    /// Length of the consumed prefix.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Applies `points[consumed..]` in index order. `points[..consumed]`
    /// must be unchanged since the last call (append-only contract).
    ///
    /// Returns [`HullBatchOutcome::DamageExceeded`] — poisoning the engine
    /// — once more than `max_damage · (cycle edges + batch size)` edges
    /// have been destroyed, or if the cycle is found inconsistent.
    pub fn try_insert_batch(
        &mut self,
        points: &[Point2],
        max_damage: f64,
    ) -> GeoResult<HullBatchOutcome> {
        if self.poisoned {
            return Err(GeoError::BadParameter {
                op: "hull2d_insert_batch",
                what: "engine poisoned by an aborted batch; rebuild required",
            });
        }
        if points.len() < self.consumed {
            return Err(GeoError::BadParameter {
                op: "hull2d_insert_batch",
                what: "point slice shrank below the consumed prefix",
            });
        }
        let budget = max_damage * (self.cycle.len() + (points.len() - self.consumed)) as f64;
        let mut destroyed = 0usize;
        let mut vis = Vec::new();
        for q in self.consumed..points.len() {
            match self.insert_one(points, q as u32, &mut vis) {
                Some(k) => destroyed += k,
                None => {
                    self.poisoned = true;
                    return Ok(HullBatchOutcome::DamageExceeded { destroyed });
                }
            }
            if destroyed as f64 > budget {
                self.poisoned = true;
                return Ok(HullBatchOutcome::DamageExceeded { destroyed });
            }
        }
        self.consumed = points.len();
        Ok(HullBatchOutcome::Applied { destroyed })
    }

    /// Inserts one point, returning the number of edges destroyed (0 when
    /// the point is inside the current hull), or `None` when the cycle is
    /// inconsistent (every edge visible — impossible for a convex cycle).
    fn insert_one(&mut self, points: &[Point2], q: u32, vis: &mut Vec<bool>) -> Option<usize> {
        let m = self.cycle.len();
        vis.clear();
        vis.extend((0..m).map(|i| sees(points, self.cycle[i], self.cycle[(i + 1) % m], q)));
        if !vis.iter().any(|&v| v) {
            return Some(0); // inside or on the boundary: not a strict corner
        }
        // First edge of the (contiguous) visible arc.
        let first = (0..m).find(|&i| vis[i] && !vis[(i + m - 1) % m])?;
        let mut k = 1;
        while vis[(first + k) % m] {
            k += 1;
        }
        // Replace the k-edge chain with the two edges through q: keep the
        // chain's endpoints, drop the k - 1 vertices strictly inside it.
        let mut next = Vec::with_capacity(m + 2 - k);
        next.push(q);
        let mut i = (first + k) % m;
        loop {
            next.push(self.cycle[i]);
            if i == first {
                break;
            }
            i = (i + 1) % m;
        }
        self.cycle = next;
        Some(k)
    }

    /// Extracts the strict hull of `points[..consumed]`: weak vertices
    /// stripped, rotated to start at the lexicographically smallest
    /// coordinate — bit-identical to [`try_hull2d`] on the same prefix.
    pub fn hull(&self, points: &[Point2]) -> GeoResult<Vec<u32>> {
        if self.poisoned {
            return Err(GeoError::BadParameter {
                op: "hull2d_extract",
                what: "engine poisoned by an aborted batch; rebuild required",
            });
        }
        let mut out = strip_collinear(points, self.cycle.clone());
        rotate_to_lex_min(points, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::{on_sphere, uniform_cube};
    use pargeo_geometry::Point2;

    /// Incremental batches must stay bit-identical to a full recompute on
    /// every prefix, including duplicate-heavy lattice data where the
    /// index choice is ambiguous.
    #[test]
    fn batches_match_full_recompute_bit_identically() {
        let mut pts: Vec<Point2> = uniform_cube::<2>(600, 7);
        // Duplicate-heavy tail: every third point repeated, plus a coarse
        // lattice (many exactly-collinear and coincident configurations).
        let dups: Vec<Point2> = pts.iter().step_by(3).copied().collect();
        pts.extend(dups);
        for i in 0..12 {
            for j in 0..12 {
                pts.push(Point2::new([i as f64 / 11.0, j as f64 / 11.0]));
            }
        }
        let mut eng = Hull2dIncremental::try_build(&pts[..64]).unwrap();
        let mut at = 64usize;
        for step in [1usize, 3, 17, 64, 200, 400, usize::MAX] {
            let to = at.saturating_add(step).min(pts.len());
            match eng.try_insert_batch(&pts[..to], 1.0).unwrap() {
                HullBatchOutcome::Applied { .. } => {}
                other => panic!("unexpected outcome: {other:?}"),
            }
            at = to;
            assert_eq!(
                eng.hull(&pts[..to]).unwrap(),
                crate::try_hull2d(&pts[..to]).unwrap(),
                "prefix {to}"
            );
        }
        assert_eq!(at, pts.len());
        assert_eq!(eng.consumed(), pts.len());
    }

    /// On-circle data destroys edges aggressively; a tight damage budget
    /// must abort and poison the engine, and a loose one must not.
    #[test]
    fn damage_threshold_aborts_and_poisons() {
        let pts = on_sphere::<2>(2_000, 11);
        let mut eng = Hull2dIncremental::try_build(&pts[..100]).unwrap();
        match eng.try_insert_batch(&pts, 0.05).unwrap() {
            HullBatchOutcome::DamageExceeded { destroyed } => assert!(destroyed > 0),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(eng.try_insert_batch(&pts, 0.05).is_err());
        assert!(eng.hull(&pts).is_err());

        let mut loose = Hull2dIncremental::try_build(&pts[..100]).unwrap();
        match loose.try_insert_batch(&pts, 1.0).unwrap() {
            HullBatchOutcome::Applied { destroyed } => assert!(destroyed > 0),
            other => panic!("expected apply, got {other:?}"),
        }
        assert_eq!(loose.hull(&pts).unwrap(), crate::try_hull2d(&pts).unwrap());
    }

    /// A batch that is entirely interior destroys nothing and leaves the
    /// extracted hull unchanged.
    #[test]
    fn interior_batch_is_a_cheap_no_op() {
        let mut pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([10.0, 0.0]),
            Point2::new([10.0, 10.0]),
            Point2::new([0.0, 10.0]),
        ];
        let before = pts.clone();
        for i in 1..8 {
            for j in 1..8 {
                pts.push(Point2::new([i as f64, j as f64]));
            }
        }
        let mut eng = Hull2dIncremental::try_build(&before).unwrap();
        let h0 = eng.hull(&before).unwrap();
        match eng.try_insert_batch(&pts, 0.0).unwrap() {
            HullBatchOutcome::Applied { destroyed } => assert_eq!(destroyed, 0),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(eng.hull(&pts).unwrap(), h0);
    }

    /// Shrinking the slice below the consumed prefix is a typed error.
    #[test]
    fn shrunken_prefix_is_rejected() {
        let pts = uniform_cube::<2>(50, 3);
        let mut eng = Hull2dIncremental::try_build(&pts).unwrap();
        assert!(matches!(
            eng.try_insert_batch(&pts[..10], 1.0),
            Err(GeoError::BadParameter { .. })
        ));
    }

    /// Points exactly on existing hull edges (weak vertices) must never
    /// surface as corners, matching quickhull's strict semantics.
    #[test]
    fn on_edge_points_stay_stripped() {
        let mut pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([4.0, 0.0]),
            Point2::new([4.0, 4.0]),
            Point2::new([0.0, 4.0]),
        ];
        let mut eng = Hull2dIncremental::try_build(&pts).unwrap();
        // On-boundary points, then a corner-extending point that flattens
        // an old corner onto an edge.
        pts.push(Point2::new([2.0, 0.0]));
        pts.push(Point2::new([4.0, 2.0]));
        pts.push(Point2::new([8.0, 0.0]));
        match eng.try_insert_batch(&pts, 1.0).unwrap() {
            HullBatchOutcome::Applied { .. } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(eng.hull(&pts).unwrap(), crate::try_hull2d(&pts).unwrap());
    }
}

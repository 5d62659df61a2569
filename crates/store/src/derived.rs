//! Derived-structure computation over the live point set.
//!
//! Each [`DerivedKind`] maps to one algorithm-crate call through its
//! non-panicking `try_*` entry point, run on the *compacted* live view
//! (positions `0..live`) and remapped to store ids in the [`Response`]
//! the memo caches. The dimension-specific algorithms (hull, Delaunay)
//! dispatch on the const-generic `D` at runtime; unsupported dimensions
//! come back as [`GeoError::DimensionUnsupported`], never a panic.
//!
//! The 2D Delaunay graph is the one *maintained* kind, and this module is
//! where that is decided: the store keeps one [`DelaunaySlot`], whose
//! [`DelaunayIncremental`] engine later epochs advance in place over
//! insert-only batches, producing values bit-identical to a fresh compute
//! on the same live view — the kernel gives a point set one triangulation
//! whatever the insertion order. Every other kind, the hull included,
//! recomputes through [`compute`].

use crate::request::{DerivedKind, MemoPath, Response};
use pargeo_closestpair::{try_closest_pair, ClosestPair};
use pargeo_delaunay::{DelaunayBatchOutcome, DelaunayIncremental};
use pargeo_geometry::{GeoError, GeoResult, Point};
use pargeo_wspd::EmstEdge;

/// Reinterprets a point slice as a different compile-time dimension.
/// Returns `None` unless `D == E`, in which case `Point<D>` and `Point<E>`
/// are the *same* concrete type and the cast is the identity.
fn cast_slice<const D: usize, const E: usize>(pts: &[Point<D>]) -> Option<&[Point<E>]> {
    if D == E {
        // SAFETY: D == E, so Point<D> and Point<E> are the same type; this
        // is an identity cast the type system cannot express directly.
        Some(unsafe { std::slice::from_raw_parts(pts.as_ptr().cast::<Point<E>>(), pts.len()) })
    } else {
        None
    }
}

/// Computes `kind` over the live view: `pts[i]` is the live point with
/// store id `ids[i]` (`ids` strictly ascending).
pub(crate) fn compute<const D: usize>(
    kind: DerivedKind,
    ids: &[u32],
    pts: &[Point<D>],
) -> GeoResult<Response<D>> {
    injected_fault();
    Ok(match kind {
        DerivedKind::Hull => {
            if let Some(p2) = cast_slice::<D, 2>(pts) {
                Response::Hull(remap_ids(&pargeo_hull::try_hull2d(p2)?, ids))
            } else if let Some(p3) = cast_slice::<D, 3>(pts) {
                let hull = pargeo_hull::try_hull3d(p3)?;
                Response::Hull(remap_ids(&hull.vertices, ids))
            } else {
                return Err(GeoError::DimensionUnsupported { op: "hull", dim: D });
            }
        }
        DerivedKind::Seb => Response::Seb(pargeo_seb::try_seb(pts)?),
        DerivedKind::ClosestPair => {
            let cp = try_closest_pair(pts)?;
            let (a, b) = (ids[cp.a as usize], ids[cp.b as usize]);
            Response::ClosestPair(ClosestPair {
                a: a.min(b),
                b: a.max(b),
                dist: cp.dist,
            })
        }
        DerivedKind::Emst => {
            if pts.len() < 2 {
                return Err(GeoError::TooFewPoints {
                    op: "emst",
                    needed: 2,
                    got: pts.len(),
                });
            }
            let edges = pargeo_wspd::emst(pts)
                .into_iter()
                .map(|e| EmstEdge {
                    u: ids[e.u as usize],
                    v: ids[e.v as usize],
                    weight: e.weight,
                })
                .collect();
            Response::Emst(edges)
        }
        DerivedKind::KnnGraph(k) => {
            if pts.is_empty() {
                return Err(GeoError::EmptyInput { op: "knn_graph" });
            }
            if k == 0 {
                return Err(GeoError::BadParameter {
                    op: "knn_graph",
                    what: "k must be positive",
                });
            }
            // Each vertex excludes itself, so a k-NN graph needs k < n;
            // reject instead of silently truncating rows (the same typed
            // policy as the Knn request path).
            if k >= pts.len() {
                return Err(GeoError::KTooLarge {
                    op: "knn_graph",
                    k,
                    n: pts.len(),
                });
            }
            let edges = pargeo_graphgen::knn_graph(pts, k);
            Response::KnnGraph(remap_edges(&edges, ids))
        }
        DerivedKind::DelaunayGraph => Response::DelaunayGraph(delaunay(ids, pts)?.0),
    })
}

/// The Delaunay graph of the live view over store ids, and the engine its
/// edges were read off: the engine-extracted value IS the canonical value,
/// both being the same algorithm on the same input.
fn delaunay<const D: usize>(
    ids: &[u32],
    pts: &[Point<D>],
) -> GeoResult<(Vec<(u32, u32)>, DelaunayIncremental)> {
    let Some(p2) = cast_slice::<D, 2>(pts) else {
        return Err(GeoError::DimensionUnsupported {
            op: "delaunay",
            dim: D,
        });
    };
    let engine = DelaunayIncremental::try_build(p2)?;
    Ok((remap_edges(&engine.edges()?, ids), engine))
}

/// Why a maintained structure was rebuilt wholesale instead of advanced —
/// the `cause` label of `geostore_memo_fallback_total` and of the
/// `derived_memo` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fallback {
    /// A delete epoch dropped the engine (deletes shuffle positions).
    Delete,
    /// The engine's consumed prefix is no longer a prefix of the view.
    AnchorLost,
    /// The engine answered with an error — poisoned by an aborted batch,
    /// or handed a batch no build would accept either — or a panic
    /// unwound out of its advance or the compute that replaced it.
    Poisoned,
}

impl Fallback {
    /// Every cause, in metric-label order.
    pub(crate) const ALL: [Fallback; 3] =
        [Fallback::Delete, Fallback::AnchorLost, Fallback::Poisoned];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Fallback::Delete => "delete",
            Fallback::AnchorLost => "anchor_lost",
            Fallback::Poisoned => "poisoned",
        }
    }
}

/// The `(consumed, last_id)` anchor of a live view an engine has consumed
/// whole: live ids ascend and inserts append, so one id pins the prefix.
fn anchor(ids: &[u32]) -> Option<(usize, u32)> {
    ids.last().map(|&last| (ids.len(), last))
}

/// The maintained kind's state between requests: the 2D Delaunay graph's
/// delta engine, or why the next request must rebuild it.
#[derive(Default)]
pub(crate) struct DelaunaySlot {
    /// The engine the last Delaunay value was read off, and the
    /// `(consumed, last_id)` anchor of the live-view prefix it consumed:
    /// an O(1) append-only check guarding it against any planner bug that
    /// would reorder the prefix.
    engine: Option<(DelaunayIncremental, (usize, u32))>,
    /// Why the prior structure is gone — a delete, or a panic in its
    /// advance or rebuild: the next compute is a rebuild, not a fresh
    /// start.
    pending: Option<Fallback>,
}

impl DelaunaySlot {
    /// A write epoch: deletes shuffle compacted positions, so a delete
    /// drops the engine and leaves a rebuild pending; an insert-only epoch
    /// keeps it, to absorb the batch on the next request.
    pub(crate) fn bump(&mut self, deleting: bool) {
        if deleting && self.engine.take().is_some() {
            self.pending = Some(Fallback::Delete);
        }
    }

    /// The Delaunay graph of the live view `pts` (store ids `ids`), the
    /// path that produced it, and why it was a rebuild if it was one.
    ///
    /// An engine whose anchor holds advances by every point past its
    /// consumed prefix: an advance of `b` points is `b` insertions, which
    /// no rebuild of the whole view undercuts, so the engine is given no
    /// damage budget. Otherwise the graph is built over the whole view — a
    /// rebuild when a structure existed, fresh when none did — and the
    /// build's engine is kept for the next epoch.
    pub(crate) fn ensure<const D: usize>(
        &mut self,
        ids: &[u32],
        pts: &[Point<D>],
    ) -> (GeoResult<Response<D>>, MemoPath, Option<Fallback>) {
        let prior = self.engine.take();
        let existed = prior.is_some() || self.pending.is_some();
        // Until this returns, a structure that existed stays pending a
        // rebuild: a panic below costs the next request a counted
        // `Rebuilt`, and a half-advanced engine is never reused.
        let pending = if existed {
            self.pending.replace(Fallback::Poisoned)
        } else {
            None
        };
        injected_fault();
        let cause = match prior {
            None => pending,
            Some((_, (consumed, last_id)))
                if consumed.checked_sub(1).and_then(|at| ids.get(at)) != Some(&last_id) =>
            {
                Some(Fallback::AnchorLost)
            }
            Some((mut engine, _)) => {
                let fresh = cast_slice::<D, 2>(pts).and_then(|p2| p2.get(engine.consumed()..));
                match fresh.map(|batch| engine.try_insert_batch(batch, f64::INFINITY)) {
                    None => Some(Fallback::AnchorLost),
                    Some(Ok(DelaunayBatchOutcome::Applied { .. })) => match engine.edges() {
                        Ok(edges) => {
                            self.engine = anchor(ids).map(|at| (engine, at));
                            self.pending = None;
                            let graph = Response::DelaunayGraph(remap_edges(&edges, ids));
                            return (Ok(graph), MemoPath::Incremental, None);
                        }
                        Err(_) => Some(Fallback::Poisoned),
                    },
                    Some(Ok(DelaunayBatchOutcome::DamageExceeded { .. }) | Err(_)) => {
                        Some(Fallback::Poisoned)
                    }
                }
            }
        };
        let value = delaunay(ids, pts).map(|(edges, engine)| {
            self.engine = anchor(ids).map(|at| (engine, at));
            Response::DelaunayGraph(edges)
        });
        self.pending = None;
        let path = if existed {
            MemoPath::Rebuilt
        } else {
            MemoPath::Fresh
        };
        (value, path, cause)
    }
}

fn remap_ids(positions: &[u32], ids: &[u32]) -> Vec<u32> {
    positions.iter().map(|&p| ids[p as usize]).collect()
}

fn remap_edges(edges: &[(u32, u32)], ids: &[u32]) -> Vec<(u32, u32)> {
    edges
        .iter()
        .map(|&(u, v)| (ids[u as usize], ids[v as usize]))
        .collect()
}

/// Where the store's tests make a compute, an engine advance or a rebuild
/// panic; a no-op in every other build.
#[cfg(not(test))]
fn injected_fault() {}

#[cfg(test)]
thread_local! {
    /// Set by a test: the next compute, engine advance or rebuild on this
    /// thread panics, and clears it.
    pub(crate) static PANIC_NEXT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn injected_fault() {
    if PANIC_NEXT.with(|armed| armed.replace(false)) {
        panic!("injected derived fault");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    #[test]
    fn cast_slice_is_identity_only_for_matching_dims() {
        let pts = uniform_cube::<2>(10, 1);
        assert!(cast_slice::<2, 3>(&pts).is_none());
        match cast_slice::<2, 2>(&pts) {
            Some(p2) => {
                assert_eq!(p2.len(), pts.len());
                assert_eq!(p2[3].coords, pts[3].coords);
            }
            None => panic!("identity cast must succeed"),
        }
    }

    #[test]
    fn hull_rejects_unsupported_dimension() {
        let pts = uniform_cube::<5>(50, 2);
        let ids: Vec<u32> = (0..50).collect();
        assert_eq!(
            compute(DerivedKind::Hull, &ids, &pts).err(),
            Some(GeoError::DimensionUnsupported { op: "hull", dim: 5 })
        );
        assert_eq!(
            compute(DerivedKind::DelaunayGraph, &ids, &pts).err(),
            Some(GeoError::DimensionUnsupported {
                op: "delaunay",
                dim: 5
            })
        );
        // Dimension-agnostic structures still work in 5D.
        assert!(compute(DerivedKind::Seb, &ids, &pts).is_ok());
        assert!(compute(DerivedKind::Emst, &ids, &pts).is_ok());
    }

    #[test]
    fn remapping_translates_compacted_positions_to_store_ids() {
        // Live ids with gaps: position i ↔ id 2i+1.
        let pts = uniform_cube::<2>(40, 3);
        let ids: Vec<u32> = (0..40u32).map(|i| 2 * i + 1).collect();
        let direct = pargeo_hull::try_hull2d(&pts).unwrap();
        match compute(DerivedKind::Hull, &ids, &pts).unwrap() {
            Response::Hull(h) => {
                assert_eq!(h.len(), direct.len());
                for (got, want) in h.iter().zip(&direct) {
                    assert_eq!(*got, 2 * want + 1);
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
    /// The store refuses a non-finite coordinate at the boundary, so no
    /// request can bring one here; the kernel's own check stays for direct
    /// callers, as a typed error from the wholesale build and as the
    /// `poisoned` fallback from a delta engine.
    #[test]
    fn non_finite_points_fail_the_delaunay_request_with_a_typed_error() {
        use crate::{GeoStore, Request};
        let mut pts = uniform_cube::<2>(200, 4);
        pts[77] = Point::new([pts[77][0], f64::INFINITY]);
        let mut store = GeoStore::<2>::builder().build();
        let responses = store.execute(&[Request::Insert(pts.clone()), Request::DelaunayGraph]);
        assert_eq!(
            responses[0],
            Err(GeoError::BadParameter {
                op: "insert",
                what: "non-finite coordinate"
            })
        );
        assert!(store.is_empty());

        let ids: Vec<u32> = (0..200).collect();
        assert_eq!(
            compute(DerivedKind::DelaunayGraph, &ids, &pts).map(|_| ()),
            Err(GeoError::BadParameter {
                op: "delaunay",
                what: "non-finite coordinate"
            })
        );
        let mut slot = DelaunaySlot::default();
        let (built, path, _) = slot.ensure(&ids[..77], &pts[..77]);
        assert!(
            built.is_ok() && path == MemoPath::Fresh,
            "the finite prefix builds"
        );
        let (advanced, path, cause) = slot.ensure(&ids, &pts);
        assert_eq!(
            (advanced.map(|_| ()), path, cause),
            (
                Err(GeoError::BadParameter {
                    op: "delaunay",
                    what: "non-finite coordinate"
                }),
                MemoPath::Rebuilt,
                Some(Fallback::Poisoned)
            )
        );
    }
}

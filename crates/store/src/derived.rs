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
//! [`DelaunayIncremental`] engine later epochs advance in place — deletes
//! removed, inserts appended — producing values bit-identical to a fresh
//! compute on the same live view: the kernel gives a point set one
//! triangulation whatever the order of insertions and removals. Every
//! other kind, the hull included, recomputes through [`compute`].

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
    /// The live view holds an id inside the engine's consumed range that
    /// the engine never consumed: the view is no longer its consumed ids
    /// minus deletes plus appends.
    AnchorLost,
    /// The engine answered with an error — poisoned by an aborted batch,
    /// or handed a batch no build would accept either — or a panic
    /// unwound out of its advance or the compute that replaced it.
    Poisoned,
}

impl Fallback {
    /// Every cause, in metric-label order.
    pub(crate) const ALL: [Fallback; 2] = [Fallback::AnchorLost, Fallback::Poisoned];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Fallback::AnchorLost => "anchor_lost",
            Fallback::Poisoned => "poisoned",
        }
    }
}

/// The maintained kind's state between requests: the 2D Delaunay graph's
/// delta engine, or the mark that the next request must rebuild it.
#[derive(Default)]
pub(crate) struct DelaunaySlot {
    /// The engine the last Delaunay value was read off, and the store ids
    /// of the live view it consumed (ascending; engine position `i` is
    /// id `ids[i]`), bounded by the live count.
    engine: Option<(DelaunayIncremental, Vec<u32>)>,
    /// A panic in the last advance or rebuild took the engine: the next
    /// compute is a rebuild (cause `poisoned`), not a fresh start.
    poisoned: bool,
}

/// The consumed ids `seen` against the live view's `ids`, both ascending,
/// in one merge: the engine positions whose ids left, and where the ids
/// past the last consumed one start in `ids` — or `None` when `ids` holds
/// an id below that one the engine never consumed.
fn diff(seen: &[u32], ids: &[u32]) -> Option<(Vec<u32>, usize)> {
    let (mut gone, mut j) = (Vec::new(), 0);
    for (i, &id) in seen.iter().enumerate() {
        match ids.get(j) {
            Some(&live) if live == id => j += 1,
            Some(&live) if live < id => return None,
            _ => gone.push(i as u32),
        }
    }
    Some((gone, j))
}

impl DelaunaySlot {
    /// The Delaunay graph of the live view `pts` (store ids `ids`), the
    /// path that produced it, and why it was a rebuild if it was one.
    ///
    /// An engine whose consumed ids merge with the view advances: it
    /// removes the positions whose ids left and inserts every point past
    /// its last consumed id. The store gives neither a budget: an advance
    /// of `b` points is `b` insertions or star refills (the engine builds
    /// afresh itself when a removal takes more points than it keeps), which
    /// no rebuild of the whole view undercuts (EXPERIMENTS "Delete epochs
    /// advance the engine"). Otherwise the graph is built over the whole
    /// view — a rebuild when a structure existed, fresh when none did —
    /// and the build's engine is kept for the next epoch.
    pub(crate) fn ensure<const D: usize>(
        &mut self,
        ids: &[u32],
        pts: &[Point<D>],
    ) -> (GeoResult<Response<D>>, MemoPath, Option<Fallback>) {
        let prior = self.engine.take();
        let existed = prior.is_some() || self.poisoned;
        // Until this returns, a structure that existed stays poisoned: a
        // panic below costs the next request a counted `Rebuilt`, and a
        // half-advanced engine is never reused.
        self.poisoned = existed;
        injected_fault();
        let cause = match prior {
            None => existed.then_some(Fallback::Poisoned),
            Some((mut engine, mut seen)) => match advance(&mut engine, &seen, ids, pts) {
                Ok(edges) => {
                    seen.clear();
                    seen.extend_from_slice(ids);
                    self.engine = Some((engine, seen));
                    self.poisoned = false;
                    let graph = Response::DelaunayGraph(remap_edges(&edges, ids));
                    return (Ok(graph), MemoPath::Incremental, None);
                }
                Err(cause) => Some(cause),
            },
        };
        let value = delaunay(ids, pts).map(|(edges, engine)| {
            self.engine = Some((engine, ids.to_vec()));
            Response::DelaunayGraph(edges)
        });
        self.poisoned = false;
        let path = if existed {
            MemoPath::Rebuilt
        } else {
            MemoPath::Fresh
        };
        (value, path, cause)
    }
}

/// Brings `engine`, which consumed the store ids `seen`, to the live view
/// `(ids, pts)` and reads its edges off (engine positions).
fn advance<const D: usize>(
    engine: &mut DelaunayIncremental,
    seen: &[u32],
    ids: &[u32],
    pts: &[Point<D>],
) -> Result<Vec<(u32, u32)>, Fallback> {
    let (gone, fresh) = diff(seen, ids).ok_or(Fallback::AnchorLost)?;
    let p2 = cast_slice::<D, 2>(pts).ok_or(Fallback::AnchorLost)?;
    engine
        .try_remove_batch(&gone)
        .map_err(|_| Fallback::Poisoned)?;
    if fresh < p2.len() {
        match engine.try_insert_batch(&p2[fresh..], f64::INFINITY) {
            Ok(DelaunayBatchOutcome::Applied { .. }) => {}
            Ok(DelaunayBatchOutcome::DamageExceeded { .. }) | Err(_) => {
                return Err(Fallback::Poisoned)
            }
        }
    }
    engine.edges().map_err(|_| Fallback::Poisoned)
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
    /// The merge names the engine positions whose ids left and where the
    /// appended ids start, and refuses a view with an id the engine never
    /// consumed below its last one; that view is rebuilt, `anchor_lost`.
    #[test]
    fn consumed_ids_merge_with_the_view_or_lose_the_anchor() {
        assert_eq!(diff(&[1, 3, 5, 8], &[3, 8, 9, 12]), Some((vec![0, 2], 2)));
        assert_eq!(diff(&[1, 3], &[]), Some((vec![0, 1], 0)));
        assert_eq!(diff(&[], &[4, 6]), Some((vec![], 0)));
        assert_eq!(diff(&[1, 3, 5], &[1, 2, 3, 5, 7]), None);

        let pts = uniform_cube::<2>(300, 5);
        let ids: Vec<u32> = (0..300).map(|i| 2 * i).collect();
        let mut slot = DelaunaySlot::default();
        let (_, path, _) = slot.ensure(&ids[..200], &pts[..200]);
        assert_eq!(path, MemoPath::Fresh);
        // Every other point leaves, then the rest arrive: an advance.
        let (odd_ids, odd_pts): (Vec<u32>, Vec<Point<2>>) =
            (1..300).step_by(2).map(|i| (ids[i], pts[i])).unzip();
        let (value, path, cause) = slot.ensure(&odd_ids, &odd_pts);
        assert_eq!((path, cause), (MemoPath::Incremental, None));
        let want = compute(DerivedKind::DelaunayGraph, &odd_ids, &odd_pts).unwrap();
        assert_eq!(value.unwrap(), want);
        // An id below the last consumed one that was never consumed.
        let mut lost_ids = odd_ids.clone();
        lost_ids[10] += 1;
        let (value, path, cause) = slot.ensure(&lost_ids, &odd_pts);
        assert_eq!(
            (path, cause),
            (MemoPath::Rebuilt, Some(Fallback::AnchorLost))
        );
        let want = compute(DerivedKind::DelaunayGraph, &lost_ids, &odd_pts).unwrap();
        assert_eq!(value.unwrap(), want);
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

//! Derived-structure computation over the live point set.
//!
//! Each [`DerivedKind`] maps to one algorithm-crate call through its
//! non-panicking `try_*` entry point, run on the *compacted* live view
//! (positions `0..live`) and remapped to store ids before caching. The
//! dimension-specific algorithms (hull, Delaunay) dispatch on the
//! const-generic `D` at runtime; unsupported dimensions come back as
//! [`GeoError::DimensionUnsupported`], never a panic.
//!
//! The 2D Delaunay graph is the one *maintained* kind: a full compute
//! also hands back the [`DelaunayIncremental`] engine it read the edges
//! off, which later epochs advance in place over insert-only batches
//! ([`advance_engine`]), producing values bit-identical to a fresh compute
//! on the same live view — the kernel gives a point set one triangulation
//! whatever the insertion order. Every other kind, the hull included,
//! recomputes.

use crate::request::{DerivedKind, Response};
use pargeo_closestpair::{try_closest_pair, ClosestPair};
use pargeo_delaunay::{DelaunayBatchOutcome, DelaunayIncremental};
use pargeo_geometry::{Ball, GeoError, GeoResult, Point};
use pargeo_wspd::EmstEdge;

/// A computed derived structure, id-remapped, ready to cache.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DerivedVal<const D: usize> {
    /// Hull vertex ids (CCW in 2D, sorted ascending in 3D).
    Hull(Vec<u32>),
    /// Smallest enclosing ball.
    Seb(Ball<D>),
    /// Closest pair over store ids.
    ClosestPair(ClosestPair),
    /// EMST edges over store ids.
    Emst(Vec<EmstEdge>),
    /// Graph edges over store ids (k-NN or Delaunay).
    Graph(Vec<(u32, u32)>),
}

impl<const D: usize> DerivedVal<D> {
    /// The response that carries a copy of this value to a request for
    /// `kind` (which tells the two graph kinds apart).
    pub(crate) fn to_response(&self, kind: DerivedKind) -> Response<D> {
        match self {
            DerivedVal::Hull(h) => Response::Hull(h.clone()),
            DerivedVal::Seb(b) => Response::Seb(*b),
            DerivedVal::ClosestPair(cp) => Response::ClosestPair(*cp),
            DerivedVal::Emst(e) => Response::Emst(e.clone()),
            DerivedVal::Graph(g) => match kind {
                DerivedKind::KnnGraph(_) => Response::KnnGraph(g.clone()),
                _ => Response::DelaunayGraph(g.clone()),
            },
        }
    }
}

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
/// store id `ids[i]` (`ids` strictly ascending). The Delaunay graph also
/// returns the engine its edges were read off: the engine-extracted value
/// IS the canonical value, both being the same algorithm on the same
/// input. A caller with no use for it drops it.
pub(crate) fn compute<const D: usize>(
    kind: DerivedKind,
    ids: &[u32],
    pts: &[Point<D>],
) -> GeoResult<(DerivedVal<D>, Option<DelaunayIncremental>)> {
    injected_fault();
    let value = match kind {
        DerivedKind::Hull => {
            if let Some(p2) = cast_slice::<D, 2>(pts) {
                DerivedVal::Hull(remap_ids(&pargeo_hull::try_hull2d(p2)?, ids))
            } else if let Some(p3) = cast_slice::<D, 3>(pts) {
                let hull = pargeo_hull::try_hull3d(p3)?;
                DerivedVal::Hull(remap_ids(&hull.vertices, ids))
            } else {
                return Err(GeoError::DimensionUnsupported { op: "hull", dim: D });
            }
        }
        DerivedKind::Seb => DerivedVal::Seb(pargeo_seb::try_seb(pts)?),
        DerivedKind::ClosestPair => {
            let cp = try_closest_pair(pts)?;
            let (a, b) = (ids[cp.a as usize], ids[cp.b as usize]);
            DerivedVal::ClosestPair(ClosestPair {
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
            DerivedVal::Emst(edges)
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
            DerivedVal::Graph(remap_edges(&edges, ids))
        }
        DerivedKind::DelaunayGraph => {
            let Some(p2) = cast_slice::<D, 2>(pts) else {
                return Err(GeoError::DimensionUnsupported {
                    op: "delaunay",
                    dim: D,
                });
            };
            let eng = DelaunayIncremental::try_build(p2)?;
            let graph = DerivedVal::Graph(remap_edges(&eng.edges()?, ids));
            return Ok((graph, Some(eng)));
        }
    };
    Ok((value, None))
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

/// Advances the Delaunay engine over the current live view (whose
/// consumed prefix must be unchanged — the store checks the id anchor
/// before calling) by every point past that prefix: an advance of `b`
/// points is `b` insertions, which no rebuild of the whole view undercuts,
/// so the engine is given no damage budget. Returns the new canonical
/// value, or why the engine could not advance — the caller must then drop
/// it and recompute wholesale.
pub(crate) fn advance_engine<const D: usize>(
    engine: &mut DelaunayIncremental,
    ids: &[u32],
    pts: &[Point<D>],
) -> Result<DerivedVal<D>, Fallback> {
    injected_fault();
    let p2 = cast_slice::<D, 2>(pts).ok_or(Fallback::AnchorLost)?;
    let fresh = p2.get(engine.consumed()..).ok_or(Fallback::AnchorLost)?;
    match engine.try_insert_batch(fresh, f64::INFINITY) {
        Ok(DelaunayBatchOutcome::Applied { .. }) => {
            let edges = engine.edges().map_err(|_| Fallback::Poisoned)?;
            Ok(DerivedVal::Graph(remap_edges(&edges, ids)))
        }
        Ok(DelaunayBatchOutcome::DamageExceeded { .. }) | Err(_) => Err(Fallback::Poisoned),
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

/// Where the store's tests make a compute or an engine advance panic; a
/// no-op in every other build.
#[cfg(not(test))]
fn injected_fault() {}

#[cfg(test)]
thread_local! {
    /// Set by a test: the next compute or engine advance on this thread
    /// panics, and clears it.
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
        match compute(DerivedKind::Hull, &ids, &pts).unwrap().0 {
            DerivedVal::Hull(h) => {
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
        let built = compute(DerivedKind::DelaunayGraph, &ids[..77], &pts[..77]);
        let (_, engine) = built.expect("the finite prefix builds");
        let mut engine = engine.expect("a 2D Delaunay build leaves its engine");
        assert_eq!(
            advance_engine(&mut engine, &ids, &pts).map(|_| ()),
            Err(Fallback::Poisoned)
        );
    }
}

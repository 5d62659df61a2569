//! Property tests for the GeoStore façade: random mixed workloads
//! (interleaved writes, spatial queries, and derived-structure requests
//! with duplicate-heavy lattice points) replayed on the default store and
//! on one whose BDL buffer is small enough to cascade at these sizes, with
//! every `Response` cross-validated against a fresh recomputation from an
//! independent mirror and against the `VecIndex`-oracle store — at two
//! thread counts.

use pargeo_geometry::{Bbox, GeoError, Point2};
use pargeo_store::{digest_responses, Backend, GeoStore, Request, Response};
use proptest::prelude::*;

/// One raw op descriptor; interpreted against the evolving store state.
#[derive(Debug, Clone)]
enum OpSpec {
    /// Insert `len` fresh pool points.
    Insert {
        len: usize,
    },
    /// Delete (by value) a window of previously inserted pool points.
    Delete {
        start: usize,
        len: usize,
    },
    Knn {
        k: usize,
    },
    Range {
        x: i32,
        y: i32,
        w: i32,
        h: i32,
    },
    /// 0 = hull, 1 = seb, 2 = closest pair, 3 = emst, 4 = knn graph,
    /// 5 = delaunay graph.
    Derived {
        which: u8,
        k: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    // The shim's `prop_oneof!` is unweighted; repeating the insert and
    // derived arms biases the mix toward them.
    prop_oneof![
        (1usize..24).prop_map(|len| OpSpec::Insert { len }),
        (1usize..24).prop_map(|len| OpSpec::Insert { len }),
        (0usize..200, 1usize..16).prop_map(|(start, len)| OpSpec::Delete { start, len }),
        (0usize..6).prop_map(|k| OpSpec::Knn { k }),
        (0i32..16, 0i32..16, 0i32..16, 0i32..16).prop_map(|(x, y, w, h)| OpSpec::Range {
            x,
            y,
            w,
            h
        }),
        (0u8..6, 0usize..4).prop_map(|(which, k)| OpSpec::Derived { which, k }),
        (0u8..6, 0usize..4).prop_map(|(which, k)| OpSpec::Derived { which, k }),
    ]
}

/// Duplicate-heavy lattice pool: collisions exercise multi-kill deletes,
/// collinear/coincident live sets exercise the typed degenerate paths.
fn pool() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..16, 0i32..16).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        24..200,
    )
}

/// The independent mirror: `(store id, point)` pairs, live only.
struct Mirror {
    live: Vec<(u32, Point2)>,
    next_id: u32,
}

impl Mirror {
    fn insert(&mut self, batch: &[Point2]) {
        for &p in batch {
            self.live.push((self.next_id, p));
            self.next_id += 1;
        }
    }

    fn delete(&mut self, batch: &[Point2]) -> usize {
        let victims: std::collections::HashSet<[u64; 2]> =
            batch.iter().map(|p| p.bits_key()).collect();
        let before = self.live.len();
        self.live.retain(|(_, p)| !victims.contains(&p.bits_key()));
        before - self.live.len()
    }

    fn ids(&self) -> Vec<u32> {
        self.live.iter().map(|&(id, _)| id).collect()
    }

    fn pts(&self) -> Vec<Point2> {
        self.live.iter().map(|&(_, p)| p).collect()
    }
}

/// Interprets `ops` into concrete requests, stepping the mirror alongside.
/// Returns the request stream plus, per request, the mirror's live
/// snapshot (ids, points) *at that request* for fresh recomputation.
type Snapshots = Vec<Option<(Vec<u32>, Vec<Point2>)>>;
fn interpret(pts: &[Point2], ops: &[OpSpec]) -> (Vec<Request<2>>, Snapshots) {
    let mut mirror = Mirror {
        live: Vec::new(),
        next_id: 0,
    };
    let mut cursor = 0usize;
    let mut inserted: Vec<Point2> = Vec::new();
    let mut reqs = Vec::new();
    let mut snaps: Snapshots = Vec::new();
    for op in ops {
        match op {
            OpSpec::Insert { len } => {
                let got = (*len).min(pts.len() - cursor.min(pts.len()));
                let batch = pts[cursor..cursor + got].to_vec();
                cursor += got;
                inserted.extend_from_slice(&batch);
                mirror.insert(&batch);
                reqs.push(Request::Insert(batch));
                snaps.push(None);
            }
            OpSpec::Delete { start, len } => {
                if inserted.is_empty() {
                    continue;
                }
                let s = start % inserted.len();
                let e = (s + len).min(inserted.len());
                let batch = inserted[s..e].to_vec();
                mirror.delete(&batch);
                reqs.push(Request::Delete(batch));
                snaps.push(None);
            }
            OpSpec::Knn { k } => {
                let queries: Vec<Point2> = pts.iter().step_by(5).take(8).copied().collect();
                reqs.push(Request::Knn { queries, k: *k });
                snaps.push(Some((mirror.ids(), mirror.pts())));
            }
            OpSpec::Range { x, y, w, h } => {
                let q = Bbox {
                    min: Point2::new([*x as f64, *y as f64]),
                    max: Point2::new([(*x + *w) as f64, (*y + *h) as f64]),
                };
                reqs.push(Request::Range(vec![q]));
                snaps.push(Some((mirror.ids(), mirror.pts())));
            }
            OpSpec::Derived { which, k } => {
                reqs.push(match which {
                    0 => Request::Hull,
                    1 => Request::Seb,
                    2 => Request::ClosestPair,
                    3 => Request::Emst,
                    4 => Request::KnnGraph { k: *k },
                    _ => Request::DelaunayGraph,
                });
                snaps.push(Some((mirror.ids(), mirror.pts())));
            }
        }
    }
    (reqs, snaps)
}

fn remap(ids: &[u32], positions: &[u32]) -> Vec<u32> {
    positions.iter().map(|&p| ids[p as usize]).collect()
}

/// Validates one response against a fresh recomputation on the live
/// snapshot `(ids, pts)` the mirror recorded for that request.
fn check_response(
    backend: &str,
    i: usize,
    req: &Request<2>,
    resp: &Result<Response<2>, GeoError>,
    ids: &[u32],
    live: &[Point2],
) -> Result<(), TestCaseError> {
    let ctx = format!("{backend} request {i}");
    match req {
        Request::Knn { k: 0, .. } => {
            prop_assert_eq!(
                resp,
                &Err(GeoError::BadParameter {
                    op: "knn",
                    what: "k must be positive"
                }),
                "{}",
                ctx
            );
        }
        Request::Knn { k, .. } if *k > live.len() => {
            prop_assert_eq!(
                resp,
                &Err(GeoError::KTooLarge {
                    op: "knn",
                    k: *k,
                    n: live.len()
                }),
                "{}",
                ctx
            );
        }
        Request::Knn { .. } | Request::Range(_) => {
            // Spatial queries are validated against the oracle store by
            // the caller (exact equality); nothing to recompute here.
            prop_assert!(resp.is_ok(), "{}: {:?}", ctx, resp);
        }
        Request::Hull => {
            let want = pargeo_hull::try_hull2d(live).map(|h| remap(ids, &h));
            prop_assert_eq!(
                resp,
                &want.map(Response::Hull),
                "{}: memoized hull != fresh recompute",
                ctx
            );
        }
        Request::Seb => match (resp, pargeo_seb::try_seb(live)) {
            (Ok(Response::Seb(got)), Ok(want)) => {
                // Floats may wiggle across thread counts; radius parity
                // within tolerance, containment exactly.
                prop_assert!(
                    (got.radius - want.radius).abs() <= 1e-9 * (1.0 + want.radius),
                    "{}: seb radius {} vs fresh {}",
                    ctx,
                    got.radius,
                    want.radius
                );
            }
            (Err(e), Err(w)) => prop_assert_eq!(*e, w, "{}", ctx),
            (got, want) => prop_assert!(false, "{}: {:?} vs {:?}", ctx, got, want),
        },
        Request::ClosestPair => {
            let want = pargeo_closestpair::try_closest_pair(live).map(|cp| {
                let (a, b) = (ids[cp.a as usize], ids[cp.b as usize]);
                (a.min(b), a.max(b), cp.dist)
            });
            let got = resp.clone().map(|r| match r {
                Response::ClosestPair(cp) => (cp.a, cp.b, cp.dist),
                other => panic!("wrong variant {other:?}"),
            });
            // Equal-distance pairs are genuinely ambiguous on a lattice;
            // distances must match exactly, ids only when unique. Compare
            // distances, and endpoints' actual distance.
            match (got, want) {
                (Ok((a, b, d)), Ok((_, _, wd))) => {
                    prop_assert_eq!(d, wd, "{}: closest-pair distance", ctx);
                    let pa = live[ids.iter().position(|&x| x == a).unwrap()];
                    let pb = live[ids.iter().position(|&x| x == b).unwrap()];
                    prop_assert_eq!(pa.dist(&pb), d, "{}: pair endpoints", ctx);
                }
                (Err(e), Err(w)) => prop_assert_eq!(e, w, "{}", ctx),
                (got, want) => prop_assert!(false, "{}: {:?} vs {:?}", ctx, got, want),
            }
        }
        Request::Emst => {
            let want = if live.len() < 2 {
                Err(GeoError::TooFewPoints {
                    op: "emst",
                    needed: 2,
                    got: live.len(),
                })
            } else {
                Ok(pargeo_wspd::emst(live))
            };
            match (resp, want) {
                (Ok(Response::Emst(got)), Ok(want)) => {
                    prop_assert_eq!(got.len(), want.len(), "{}: emst edge count", ctx);
                    // MSTs with tied weights are ambiguous; total weight is
                    // not (same WSPD code both sides ⇒ exact equality).
                    let gw: f64 = got.iter().map(|e| e.weight).sum();
                    let ww: f64 = want.iter().map(|e| e.weight).sum();
                    prop_assert_eq!(gw, ww, "{}: emst total weight", ctx);
                }
                (Err(e), Err(w)) => prop_assert_eq!(*e, w, "{}", ctx),
                (got, want) => prop_assert!(false, "{}: {:?} vs {:?}", ctx, got, want),
            }
        }
        Request::KnnGraph { k } => {
            let want = if live.is_empty() {
                Err(GeoError::EmptyInput { op: "knn_graph" })
            } else if *k == 0 {
                Err(GeoError::BadParameter {
                    op: "knn_graph",
                    what: "k must be positive",
                })
            } else if *k >= live.len() {
                Err(GeoError::KTooLarge {
                    op: "knn_graph",
                    k: *k,
                    n: live.len(),
                })
            } else {
                Ok(pargeo_graphgen::knn_graph(live, *k)
                    .into_iter()
                    .map(|(u, v)| (ids[u as usize], ids[v as usize]))
                    .collect::<Vec<_>>())
            };
            prop_assert_eq!(
                resp,
                &want.map(Response::KnnGraph),
                "{}: memoized knn graph != fresh recompute",
                ctx
            );
        }
        Request::DelaunayGraph => {
            // The library's Morton-order build: the store's index-order
            // engine must give the same edges, cocircular lattices included
            // (a point set has one perturbed triangulation).
            let want = pargeo_delaunay::try_delaunay(live)
                .map(|d| pargeo_delaunay::delaunay_edges(&d))
                .map(|edges| {
                    edges
                        .into_iter()
                        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
                        .collect::<Vec<_>>()
                });
            prop_assert_eq!(
                resp,
                &want.map(Response::DelaunayGraph),
                "{}: memoized delaunay != fresh recompute",
                ctx
            );
        }
        _ => {}
    }
    Ok(())
}

fn run_case(pts: &[Point2], ops: &[OpSpec], threads: usize) -> Result<(), TestCaseError> {
    let (reqs, snaps) = interpret(pts, ops);

    let mut oracle = GeoStore::<2>::builder()
        .backend(Backend::Oracle)
        .threads(threads)
        .build();
    let oracle_responses = oracle.execute(&reqs);

    // The pools hold under 200 points, which the default 1024-point BDL
    // buffer absorbs whole; the 4-point buffer puts the same stream
    // through static trees, cascades and tree-side deletes.
    let default = GeoStore::<2>::builder();
    for (name, builder) in [("bdl", default.clone()), ("bdl-x4", default.buffer_size(4))] {
        let mut store = builder.threads(threads).build();
        prop_assert_eq!(store.backend(), Backend::Bdl);
        let responses = store.execute(&reqs);
        prop_assert_eq!(responses.len(), reqs.len(), "{}", name);

        prop_assert_eq!(
            digest_responses(&responses),
            digest_responses(&oracle_responses),
            "{} digest != oracle digest",
            name
        );

        for (i, ((req, resp), snap)) in reqs.iter().zip(&responses).zip(&snaps).enumerate() {
            // Exact equality with the oracle store on every answer: the
            // deterministic (distance², id) / sorted-ids contracts for
            // spatial queries, the shared live view for derived ones.
            prop_assert_eq!(
                resp,
                &oracle_responses[i],
                "{} request {} != oracle",
                name,
                i
            );
            if let Some((ids, live)) = snap {
                check_response(name, i, req, resp, ids, live)?;
            }
        }
    }
    Ok(())
}

/// Deterministic anchor: a scripted case must flow through every code
/// path the property relies on (writes, cache hits, invalidation,
/// degenerate errors), so a silently-empty generator can't pass.
#[test]
fn scripted_case_exercises_the_property_paths() {
    let pts: Vec<Point2> = (0..64)
        .map(|i| Point2::new([(i % 8) as f64, (i / 8) as f64]))
        .collect();
    let ops = vec![
        OpSpec::Insert { len: 20 },
        OpSpec::Derived { which: 0, k: 2 }, // hull (miss)
        OpSpec::Derived { which: 0, k: 2 }, // hull (hit)
        OpSpec::Delete { start: 0, len: 8 },
        OpSpec::Derived { which: 3, k: 2 }, // emst after a write (miss)
        OpSpec::Knn { k: 3 },
        OpSpec::Range {
            x: 0,
            y: 0,
            w: 8,
            h: 8,
        },
        OpSpec::Derived { which: 5, k: 2 }, // delaunay
    ];
    let (reqs, snaps) = interpret(&pts, &ops);
    assert_eq!(reqs.len(), 8);
    assert_eq!(snaps.iter().filter(|s| s.is_some()).count(), 6);
    run_case(&pts, &ops, 1).unwrap();

    // The same stream on one store: the repeated hull must be a hit.
    let mut store = GeoStore::<2>::builder().build();
    let responses = store.execute(&reqs);
    assert!(responses.iter().all(|r| r.is_ok()));
    let stats = store.stats();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 3);
    assert_eq!(stats.write_epoch, 2);
}

/// A coalesced delete run reads its per-request counts off one index
/// report; applying the same requests one at a time to the mirror must give
/// the same counts — a value repeated inside a request and again by a later
/// request of the run is counted once, for the first request naming it.
#[test]
fn coalesced_delete_counts_match_the_mirror_on_both_backends() {
    let p = |x: i32, y: i32| Point2::new([x as f64, y as f64]);
    let initial = vec![
        p(0, 0),
        p(1, 1),
        p(0, 0),
        p(2, 2),
        p(1, 1),
        p(0, 0),
        p(3, 3),
    ];
    let run = [
        vec![p(0, 0), p(9, 9), p(0, 0)], // three copies, named twice
        vec![],
        vec![p(1, 1), p(0, 0)], // (0, 0) is already claimed
        vec![p(2, 2), p(1, 1), p(2, 2)],
    ];
    let mut mirror = Mirror {
        live: Vec::new(),
        next_id: 0,
    };
    mirror.insert(&initial);
    let want: Vec<_> = run
        .iter()
        .map(|batch| {
            Ok(Response::Deleted {
                count: mirror.delete(batch),
            })
        })
        .collect();
    assert_eq!(mirror.ids(), [6]);

    let mut reqs = vec![Request::Insert(initial)];
    reqs.extend(run.iter().cloned().map(Request::Delete));
    reqs.push(Request::Range(vec![Bbox {
        min: p(0, 0),
        max: p(9, 9),
    }]));
    let builder = GeoStore::<2>::builder();
    for (name, builder) in [
        ("bdl", builder.clone()),
        ("bdl-x4", builder.clone().buffer_size(4)),
        ("oracle", builder.backend(Backend::Oracle)),
    ] {
        let got = builder.build().execute(&reqs);
        assert_eq!(got[1..=run.len()], want[..], "{name}");
        assert_eq!(got[run.len() + 1], Ok(Response::Range(vec![mirror.ids()])));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed workloads: every response — including memoized
    /// hull/EMST served after interleaved writes — must match a fresh
    /// recomputation on an independent mirror and the oracle store, at
    /// two thread counts.
    #[test]
    fn store_matches_mirror_and_oracle_under_mixed_traffic(
        pts in pool(),
        ops in prop::collection::vec(op_strategy(), 4..28),
    ) {
        for threads in [1usize, 2] {
            run_case(&pts, &ops, threads)?;
        }
    }
}

//! Integration: the GeoStore façade serves every `Request` variant from
//! the BDL-tree with the answers of the brute-force oracle store — and of
//! direct per-crate calls on the same live set.

use pargeo::prelude::*;
use pargeo::store::digest_responses;

fn points(n: usize, seed: u64) -> Vec<Point2> {
    pargeo::datagen::uniform_cube::<2>(n, seed)
}

/// A scripted mixed stream covering every request variant, with writes
/// interleaved so memoized derived structures must invalidate.
fn script(pts: &[Point2]) -> Vec<Request<2>> {
    let n = pts.len();
    let boxes = pargeo::datagen::uniform_rects::<2>(20, 9, 0.3);
    vec![
        Request::Insert(pts[..n / 2].to_vec()),
        Request::Knn {
            queries: pts.iter().step_by(97).copied().collect(),
            k: 5,
        },
        Request::Range(boxes.clone()),
        Request::Hull,
        Request::Seb,
        Request::ClosestPair,
        Request::Emst,
        Request::KnnGraph { k: 3 },
        Request::DelaunayGraph,
        Request::Delete(pts[..n / 4].to_vec()),
        Request::Hull,
        Request::Hull, // repeat: must be a cache hit with the same answer
        Request::Emst,
        Request::Insert(pts[n / 2..].to_vec()),
        Request::Knn {
            queries: pts.iter().step_by(61).copied().collect(),
            k: 4,
        },
        Request::Range(boxes),
        Request::DelaunayGraph,
        Request::KnnGraph { k: 3 },
        Request::Stats,
    ]
}

fn oracle_store() -> GeoStore<2> {
    GeoStore::builder().backend(Backend::Oracle).build()
}

/// The serving configurations the oracle is compared with: the default
/// store, and the default with a BDL buffer small enough that these
/// streams run through many cascade levels rather than one or two.
fn serving() -> [(&'static str, GeoStoreBuilder<2>); 2] {
    let default = GeoStore::builder();
    [
        ("bdl", default.clone()),
        ("bdl-x32", default.buffer_size(32)),
    ]
}

#[test]
fn all_backends_serve_identical_digests() {
    let pts = points(2_000, 31);
    let reqs = script(&pts);
    let want = oracle_store().execute(&reqs);
    for (name, builder) in serving() {
        let mut store = builder.build();
        assert_eq!(store.backend(), Backend::Bdl);
        let got = store.execute(&reqs);
        assert_eq!(
            digest_responses(&got),
            digest_responses(&want),
            "{name} digest diverged from the oracle"
        );
        // Spatial answers follow the deterministic (distance², id) and
        // sorted-ids contracts and derived structures are computed from
        // the store's live view, so every response must be *exactly* equal.
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            match (a, b) {
                (Ok(Response::Stats(a)), Ok(Response::Stats(b))) => {
                    // Arena sizes are the index's own; the rest is shared.
                    assert_eq!(a.write_epoch, b.write_epoch, "{name} response {i}");
                    assert_eq!(a.cache, b.cache, "{name} response {i}");
                    assert_eq!(a.snapshot.live, b.snapshot.live, "{name} response {i}");
                }
                _ => assert_eq!(a, b, "{name} response {i} diverged"),
            }
        }
    }
}

#[test]
fn default_store_is_the_bdl_store() {
    // `builder().build()` and `.backend(Backend::Bdl)` are one
    // configuration: same backend, same answers, same statistics.
    let spec = WorkloadSpec::store_presets(2_000)
        .into_iter()
        .find(|s| s.name == "mixed-serving")
        .expect("mixed-serving preset");
    let w: Workload<2> = spec.generate();
    let mut default: GeoStore<2> = GeoStore::builder().build();
    let mut named: GeoStore<2> = GeoStore::builder().backend(Backend::Bdl).build();
    assert_eq!(default.backend(), Backend::Bdl);
    let (a, b) = (
        run_store_workload(&mut default, &w),
        run_store_workload(&mut named, &w),
    );
    assert_eq!(a.backend, "bdl");
    assert_eq!(a.digest, b.digest);
    assert_eq!(
        (a.final_live, a.errors, a.ops),
        (b.final_live, b.errors, b.ops)
    );
    assert_eq!(default.stats(), named.stats());
    assert!(default.stats().snapshot.nodes > 0, "the stream built trees");
}

#[test]
fn responses_match_direct_per_crate_calls() {
    let pts = points(1_500, 32);
    let mut store: GeoStore<2> = GeoStore::builder().backend(Backend::Bdl).build();
    store.insert(&pts);
    store.delete(&pts[100..400]);

    // The live mirror: ids 0..100 and 400..1500 (delete is by value;
    // uniform points are distinct).
    let ids: Vec<u32> = (0..100u32).chain(400..1_500).collect();
    let live: Vec<Point2> = ids.iter().map(|&i| pts[i as usize]).collect();

    let hull = store.hull().unwrap();
    let want: Vec<u32> = try_hull2d(&live)
        .unwrap()
        .into_iter()
        .map(|p| ids[p as usize])
        .collect();
    assert_eq!(hull, want, "hull != direct hull2d call");

    let ball = store.seb().unwrap();
    assert_eq!(ball, try_seb(&live).unwrap(), "seb != direct call");

    let cp = store.closest_pair().unwrap();
    let direct = try_closest_pair(&live).unwrap();
    let (a, b) = (ids[direct.a as usize], ids[direct.b as usize]);
    assert_eq!((cp.a, cp.b), (a.min(b), a.max(b)));
    assert_eq!(cp.dist, direct.dist);

    let mst = store.emst().unwrap();
    let direct = emst(&live);
    assert_eq!(mst.len(), direct.len());
    for (got, want) in mst.iter().zip(&direct) {
        assert_eq!((got.u, got.v), (ids[want.u as usize], ids[want.v as usize]));
        assert_eq!(got.weight, want.weight);
    }

    let graph = store.knn_graph(4).unwrap();
    let direct: Vec<(u32, u32)> = knn_graph(&live, 4)
        .into_iter()
        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
        .collect();
    assert_eq!(graph, direct, "knn graph != direct call");

    let del = store.delaunay_graph().unwrap();
    let direct: Vec<(u32, u32)> = delaunay_edges(&try_delaunay(&live).unwrap())
        .into_iter()
        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
        .collect();
    assert_eq!(del, direct, "delaunay graph != direct call");

    // Spatial queries agree with the brute-force oracle store.
    let mut oracle: GeoStore<2> = GeoStore::builder().backend(Backend::Oracle).build();
    oracle.insert(&pts);
    oracle.delete(&pts[100..400]);
    let queries: Vec<Point2> = pts.iter().step_by(83).copied().collect();
    assert_eq!(
        store.knn(&queries, 6).unwrap(),
        oracle.knn(&queries, 6).unwrap()
    );
    let boxes = pargeo::datagen::uniform_rects::<2>(25, 5, 0.25);
    assert_eq!(store.range(&boxes).unwrap(), oracle.range(&boxes).unwrap());
}

#[test]
fn memoization_hits_between_writes_and_invalidates_on_them() {
    let pts = points(1_200, 33);
    let mut store: GeoStore<2> = GeoStore::builder().build();
    store.insert(&pts);

    let h1 = store.hull().unwrap();
    let stats = store.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (0, 1));

    let h2 = store.hull().unwrap();
    let stats = store.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
    assert_eq!(h1, h2);

    // A write invalidates; the recomputed hull reflects the new live set.
    store.delete(&pts[..600]);
    let h3 = store.hull().unwrap();
    let stats = store.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 2));
    assert!(h3.iter().all(|&id| id >= 600));
    let live: Vec<Point2> = pts[600..].to_vec();
    let want: Vec<u32> = try_hull2d(&live)
        .unwrap()
        .into_iter()
        .map(|p| p + 600)
        .collect();
    assert_eq!(h3, want);

    // An *empty* write batch is a no-op and must not invalidate.
    store.insert(&[]);
    let _ = store.hull().unwrap();
    let stats = store.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (2, 2));
}

#[test]
fn typed_errors_are_identical_across_backends() {
    for backend in [Backend::Bdl, Backend::Oracle] {
        let mut store: GeoStore<2> = GeoStore::builder().backend(backend).build();
        let name = backend.label();
        assert_eq!(
            store.hull(),
            Err(GeoError::EmptyInput { op: "hull2d" }),
            "{name}"
        );
        assert_eq!(
            store.seb(),
            Err(GeoError::EmptyInput { op: "seb" }),
            "{name}"
        );
        assert_eq!(
            store.closest_pair(),
            Err(GeoError::TooFewPoints {
                op: "closest_pair",
                needed: 2,
                got: 0
            }),
            "{name}"
        );
        assert_eq!(
            store.emst(),
            Err(GeoError::TooFewPoints {
                op: "emst",
                needed: 2,
                got: 0
            }),
            "{name}"
        );
        assert_eq!(
            store.knn_graph(2),
            Err(GeoError::EmptyInput { op: "knn_graph" }),
            "{name}"
        );
        assert_eq!(
            store.delaunay_graph(),
            Err(GeoError::EmptyInput { op: "delaunay" }),
            "{name}"
        );

        // k > n is a typed error, not a short row.
        let pts = points(10, 34);
        store.insert(&pts);
        assert_eq!(
            store.knn(&pts[..2], 11),
            Err(GeoError::KTooLarge {
                op: "knn",
                k: 11,
                n: 10
            }),
            "{name}"
        );
        assert_eq!(store.knn(&pts[..2], 10).unwrap()[0].len(), 10, "{name}");
        assert_eq!(
            store.knn(&pts[..2], 0),
            Err(GeoError::BadParameter {
                op: "knn",
                what: "k must be positive"
            }),
            "{name}"
        );

        // k-NN graphs exclude self, so k must stay below the live count —
        // a typed error, not silently truncated rows.
        assert_eq!(
            store.knn_graph(10),
            Err(GeoError::KTooLarge {
                op: "knn_graph",
                k: 10,
                n: 10
            }),
            "{name}"
        );
        assert_eq!(store.knn_graph(9).unwrap().len(), 90, "{name}");

        // Collinear live sets: degenerate, typed, and the store survives.
        let mut flat: GeoStore<2> = GeoStore::builder().backend(backend).build();
        let line: Vec<Point2> = (0..50).map(|i| Point2::new([i as f64, i as f64])).collect();
        flat.insert(&line);
        assert_eq!(
            flat.hull(),
            Err(GeoError::Degenerate {
                op: "hull2d",
                what: "collinear"
            }),
            "{name}"
        );
        assert_eq!(
            flat.delaunay_graph(),
            Err(GeoError::Degenerate {
                op: "delaunay",
                what: "collinear"
            }),
            "{name}"
        );
        // … and keeps serving after the error.
        assert_eq!(flat.knn(&line[..1], 2).unwrap()[0].len(), 2, "{name}");
    }

    // Dimension dispatch: hull/Delaunay are typed errors outside 2D/3D.
    let mut store5: GeoStore<5> = GeoStore::builder().build();
    store5.insert(&pargeo::datagen::uniform_cube::<5>(100, 35));
    assert_eq!(
        store5.hull(),
        Err(GeoError::DimensionUnsupported { op: "hull", dim: 5 })
    );
    assert_eq!(
        store5.delaunay_graph(),
        Err(GeoError::DimensionUnsupported {
            op: "delaunay",
            dim: 5
        })
    );
    // Dimension-agnostic requests still work in 5D.
    assert!(store5.seb().is_ok());
    assert_eq!(store5.emst().unwrap().len(), 99);
}

#[test]
fn hull3d_served_in_three_dimensions() {
    let pts = pargeo::datagen::uniform_cube::<3>(800, 36);
    let mut store: GeoStore<3> = GeoStore::builder().build();
    store.insert(&pts);
    let hull = store.hull().unwrap();
    let want = try_hull3d(&pts).unwrap();
    assert_eq!(hull, want.vertices);
    // The 3D index itself answers like the oracle's.
    let mut oracle: GeoStore<3> = GeoStore::builder().backend(Backend::Oracle).build();
    oracle.insert(&pts);
    assert_eq!(store.knn(&pts[..20], 4), oracle.knn(&pts[..20], 4));

    // Coplanar 3D input: typed degenerate error through the store path.
    let mut flat: GeoStore<3> = GeoStore::builder().build();
    let plane: Vec<Point3> = (0..40)
        .map(|i| Point3::new([(i % 8) as f64, (i / 8) as f64, 1.0]))
        .collect();
    flat.insert(&plane);
    assert_eq!(
        flat.hull(),
        Err(GeoError::Degenerate {
            op: "hull3d",
            what: "coplanar"
        })
    );
}

#[test]
fn sharded_stores_are_digest_identical_for_every_backend_and_preset() {
    // The acceptance sweep: for every store preset, GeoStore with
    // S ∈ {1, 2, 8} shards produces bit-identical workload digests to the
    // unsharded store and to the oracle store.
    for mut spec in WorkloadSpec::store_presets(1_600) {
        spec.batch_size = spec.batch_size.min(100);
        let w: Workload<2> = spec.generate();
        let want = run_store_workload(&mut oracle_store(), &w);
        for (name, builder) in serving() {
            let b = run_store_workload(&mut builder.clone().build(), &w);
            assert_eq!(b.shards, 1);
            assert_eq!(
                b.digest, want.digest,
                "{name} unsharded vs oracle on {}",
                spec.name
            );
            assert_eq!(b.errors, want.errors, "{name} on {}", spec.name);
            for s in [1usize, 2, 8] {
                let r = run_store_workload(&mut builder.clone().shards(s).build(), &w);
                assert_eq!(r.shards, s, "1/2/8 are powers of two already");
                assert_eq!(
                    r.digest, want.digest,
                    "{name} S={s} digest diverged on {}",
                    spec.name
                );
                assert_eq!(r.errors, want.errors, "{} S={s}", spec.name);
                assert_eq!(r.final_live, want.final_live, "{} S={s}", spec.name);
                assert_eq!(r.ops, want.ops, "{} S={s}", spec.name);
            }
        }
    }
}

#[test]
fn sharded_execute_matches_the_scripted_stream_exactly() {
    // The scripted mixed stream (every Request variant) through sharded
    // stores: responses must be exactly those of the unsharded oracle
    // store.
    let pts = points(2_000, 38);
    let reqs = script(&pts);
    let want = oracle_store().execute(&reqs);
    for (name, builder) in serving() {
        for s in [2usize, 8] {
            let mut store = builder.clone().shards(s).build();
            let responses = store.execute(&reqs);
            assert_eq!(store.shard_count(), s);
            assert_eq!(
                digest_responses(&responses),
                digest_responses(&want),
                "{name} S={s} digest"
            );
            for (i, (a, b)) in want.iter().zip(&responses).enumerate() {
                match (a, b) {
                    (Ok(Response::Stats(_)), Ok(Response::Stats(_))) => {} // index-internal
                    _ => assert_eq!(a, b, "{name} S={s} response {i}"),
                }
            }
        }
    }
}

#[test]
fn noop_writes_spare_the_memo_cache() {
    let pts = points(400, 37);
    let mut store: GeoStore<2> = GeoStore::builder().build();
    store.insert(&pts[..300]);
    let h1 = store.hull().unwrap();
    assert_eq!(store.stats().cache.misses, 1);
    let epoch = store.stats().write_epoch;

    // A delete matching nothing live removes zero points: the write epoch
    // must not advance and the memoized hull must survive.
    assert_eq!(store.delete(&pts[300..]), 0);
    let stats = store.stats();
    assert_eq!(stats.write_epoch, epoch, "no-op delete bumped the epoch");
    assert_eq!(stats.cache.spared, 1);
    let h2 = store.hull().unwrap();
    assert_eq!(h1, h2);
    let stats = store.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));

    // Empty insert and empty delete runs are spared too.
    store.insert(&[]);
    assert_eq!(store.delete(&[]), 0);
    assert_eq!(store.stats().cache.spared, 3);
    assert_eq!(store.hull().unwrap(), h1);
    assert_eq!(store.stats().cache.hits, 2);
    assert_eq!(store.stats().write_epoch, epoch);

    // A delete that actually removes points invalidates as before.
    assert_eq!(store.delete(&pts[..100]), 100);
    let h3 = store.hull().unwrap();
    assert!(h3.iter().all(|&id| id >= 100));
    let stats = store.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (2, 2));
    assert_eq!(stats.write_epoch, epoch + 1);
    assert_eq!(stats.cache.spared, 3);
}

#[test]
fn incremental_maintenance_is_bit_identical_across_backends_and_shards() {
    // The delta-maintaining store must answer the scripted mixed stream —
    // fresh computes, insert epochs, delete epochs the engine removes —
    // bit-identically to the oracle store at every shard count, and its
    // maintained kinds as the canonical kernels recompute them wholesale.
    let pts = points(2_000, 39);
    let reqs = script(&pts);
    let want = oracle_store().execute(&reqs);
    // The wholesale reference: the script's deletes take a prefix of what
    // was inserted and its inserts append, so the live set is always
    // `pts[lo..hi]` under ids `lo..hi`.
    let (mut lo, mut hi) = (0, 0);
    for (i, (req, resp)) in reqs.iter().zip(&want).enumerate() {
        let (live, base) = (&pts[lo..hi], lo as u32);
        let wholesale = match req {
            Request::Insert(batch) => {
                hi += batch.len();
                continue;
            }
            Request::Delete(batch) => {
                lo += batch.len();
                continue;
            }
            Request::Hull => {
                try_hull2d(live).map(|h| Response::Hull(h.into_iter().map(|p| p + base).collect()))
            }
            Request::DelaunayGraph => DelaunayIncremental::try_build(live)
                .and_then(|d| d.edges())
                .map(|edges| {
                    let ids = edges.into_iter().map(|(u, v)| (u + base, v + base));
                    Response::DelaunayGraph(ids.collect())
                }),
            _ => continue,
        };
        assert_eq!(resp, &wholesale, "response {i} != wholesale recompute");
    }
    for (name, builder) in serving() {
        for shards in [1usize, 4] {
            let mut store = builder.clone().shards(shards).build();
            let responses = store.execute(&reqs);
            assert_eq!(
                digest_responses(&responses),
                digest_responses(&want),
                "{name} S={shards}: digest != oracle digest"
            );
            for (i, (a, b)) in want.iter().zip(&responses).enumerate() {
                match (a, b) {
                    // Arena sizes are the index's own; everything else is
                    // bit-for-bit.
                    (Ok(Response::Stats(_)), Ok(Response::Stats(_))) => {}
                    _ => assert_eq!(a, b, "{name} S={shards} response {i}"),
                }
            }
        }
    }
}

#[test]
fn degenerate_live_views_after_deletes_stay_typed_for_every_kind() {
    // Deletes can leave the live set degenerate in ways inserts never
    // exhibit (the delta engines are torn down, the rebuild hits the
    // degenerate case directly). Every derived kind must come back as a
    // typed error or a well-defined result — never a panic — and the
    // store must keep serving afterwards.
    let k_kinds = |s: &mut GeoStore<2>| {
        (
            s.hull(),
            s.seb(),
            s.closest_pair(),
            s.emst(),
            s.knn_graph(1),
            s.delaunay_graph(),
        )
    };
    for backend in [Backend::Bdl, Backend::Oracle] {
        let name = backend.label();
        let grid: Vec<Point2> = (0..36)
            .map(|i| Point2::new([(i % 6) as f64, (i / 6) as f64]))
            .collect();

        // Warm the memo (engines alive), then delete down to two points.
        let mut store: GeoStore<2> = GeoStore::builder().backend(backend).build();
        store.insert(&grid);
        store.hull().unwrap();
        store.delaunay_graph().unwrap();
        store.delete(&grid[..34]);
        let (hull, seb, cp, mst, kg, del) = k_kinds(&mut store);
        assert_eq!(
            hull,
            Err(GeoError::TooFewPoints {
                op: "hull2d",
                needed: 3,
                got: 2
            }),
            "{name}"
        );
        assert!(seb.is_ok(), "{name}: {seb:?}");
        assert!(cp.is_ok(), "{name}: {cp:?}");
        assert_eq!(mst.map(|m| m.len()), Ok(1), "{name}");
        assert_eq!(kg.map(|g| g.len()), Ok(2), "{name}");
        assert_eq!(
            del,
            Err(GeoError::TooFewPoints {
                op: "delaunay",
                needed: 3,
                got: 2
            }),
            "{name}"
        );

        // … and down to zero.
        store.delete(&grid[34..]);
        assert_eq!(
            store.hull(),
            Err(GeoError::EmptyInput { op: "hull2d" }),
            "{name}"
        );
        assert_eq!(
            store.delaunay_graph(),
            Err(GeoError::EmptyInput { op: "delaunay" }),
            "{name}"
        );
        assert_eq!(
            store.seb(),
            Err(GeoError::EmptyInput { op: "seb" }),
            "{name}"
        );

        // Collinear remainder: delete every row but one.
        let mut flat: GeoStore<2> = GeoStore::builder().backend(backend).build();
        flat.insert(&grid);
        flat.hull().unwrap();
        flat.delaunay_graph().unwrap();
        let not_row_2: Vec<Point2> = grid
            .iter()
            .filter(|p| p.coords[1] != 2.0)
            .copied()
            .collect();
        flat.delete(&not_row_2);
        assert_eq!(flat.len(), 6, "{name}");
        let (hull, seb, cp, mst, kg, del) = k_kinds(&mut flat);
        assert_eq!(
            hull,
            Err(GeoError::Degenerate {
                op: "hull2d",
                what: "collinear"
            }),
            "{name}"
        );
        assert_eq!(
            del,
            Err(GeoError::Degenerate {
                op: "delaunay",
                what: "collinear"
            }),
            "{name}"
        );
        assert!(seb.is_ok() && cp.is_ok(), "{name}");
        assert_eq!(mst.map(|m| m.len()), Ok(5), "{name}");
        assert_eq!(kg.map(|g| g.len()), Ok(6), "{name}");

        // All-duplicate remainder: several live copies of one coordinate.
        let mut dup: GeoStore<2> = GeoStore::builder().backend(backend).build();
        // Off-lattice coordinate: deleting the grid (by value) must not
        // also take the copies down.
        let copies: Vec<Point2> = (0..5).map(|_| Point2::new([2.5, 3.5])).collect();
        dup.insert(&grid);
        dup.insert(&copies);
        dup.hull().unwrap();
        dup.delaunay_graph().unwrap();
        dup.delete(&grid);
        assert_eq!(dup.len(), 5, "{name}");
        let (hull, seb, cp, mst, kg, del) = k_kinds(&mut dup);
        assert_eq!(
            hull,
            Err(GeoError::Degenerate {
                op: "hull2d",
                what: "coincident"
            }),
            "{name}"
        );
        assert_eq!(
            del,
            Err(GeoError::Degenerate {
                op: "delaunay",
                what: "collinear"
            }),
            "{name}"
        );
        let ball = seb.unwrap();
        assert_eq!(ball.radius, 0.0, "{name}: coincident ball has radius 0");
        assert_eq!(cp.unwrap().dist, 0.0, "{name}");
        let mst = mst.unwrap();
        assert_eq!(mst.len(), 4, "{name}");
        assert!(mst.iter().all(|e| e.weight == 0.0), "{name}");
        assert_eq!(kg.map(|g| g.len()), Ok(5), "{name}");

        // The store survives every degenerate answer above.
        assert_eq!(dup.knn(&copies[..1], 3).unwrap()[0].len(), 3, "{name}");
    }
}

#[test]
fn malformed_request_streams_yield_typed_errors_never_panics() {
    // The serve path has no panicking branch left: pool construction,
    // single-request dispatch, and the read fan-out all answer impossible
    // input with typed errors.
    let built = GeoStore::<2>::builder().threads(2).try_build();
    let mut store = built.expect("thread pool construction succeeds here");

    let reqs: Vec<Request<2>> = vec![
        Request::Knn {
            queries: vec![Point2::new([0.0, 0.0])],
            k: 0,
        },
        Request::Knn {
            queries: vec![Point2::new([0.0, 0.0])],
            k: 5,
        },
        Request::KnnGraph { k: 0 },
        Request::Hull,
        Request::DelaunayGraph,
        Request::Insert(vec![]),
        Request::Delete(vec![Point2::new([9.0, 9.0])]),
        Request::Emst,
        Request::Stats,
    ];
    let responses = store.execute(&reqs);
    assert_eq!(responses.len(), reqs.len());
    assert_eq!(
        responses[0],
        Err(GeoError::BadParameter {
            op: "knn",
            what: "k must be positive"
        })
    );
    assert_eq!(
        responses[1],
        Err(GeoError::KTooLarge {
            op: "knn",
            k: 5,
            n: 0
        })
    );
    // The emptiness check precedes the k check, matching `knn_graph`'s
    // own argument-validation order.
    assert_eq!(responses[2], Err(GeoError::EmptyInput { op: "knn_graph" }));
    assert_eq!(responses[3], Err(GeoError::EmptyInput { op: "hull2d" }));
    assert_eq!(responses[4], Err(GeoError::EmptyInput { op: "delaunay" }));
    assert_eq!(
        responses[5],
        Ok(Response::Inserted {
            count: 0,
            first_id: None
        })
    );
    assert_eq!(responses[6], Ok(Response::Deleted { count: 0 }));
    assert_eq!(
        responses[7],
        Err(GeoError::TooFewPoints {
            op: "emst",
            needed: 2,
            got: 0
        })
    );
    assert!(matches!(responses[8], Ok(Response::Stats(_))));

    // After the error barrage the store still serves normal traffic.
    let pts = points(64, 40);
    store.insert(&pts);
    assert!(store.hull().is_ok());
    assert_eq!(store.knn(&pts[..2], 3).unwrap().len(), 2);
}

#[test]
fn workload_replay_digests_agree_across_backends() {
    let mut spec = WorkloadSpec::store_presets(2_000)
        .into_iter()
        .next()
        .unwrap();
    spec.seed = 77;
    let w: Workload<2> = spec.generate();
    assert!(w.derived_count() > 0, "preset generated no analytics ops");

    let want = run_store_workload(&mut oracle_store(), &w);
    for (name, builder) in serving() {
        let r = run_store_workload(&mut builder.build(), &w);
        assert_eq!(r.digest, want.digest, "{name} digest");
        assert_eq!(r.final_live, want.final_live, "{name}");
        assert_eq!(r.errors, want.errors, "{name}");
        assert_eq!(r.ops, want.ops, "{name}");
    }
}

#[test]
fn duplicate_victims_within_and_across_delete_runs_count_once() {
    // A coalesced delete run reads its per-request counts off the index's
    // one report, which relies on every removed point being claimed exactly
    // once: a value named twice in one request, again by a later request of
    // the same coalesced run, and again by a later run must be counted by
    // the first claimant only — on the oracle and the BDL-tree, sharded or
    // not.
    let pts = points(600, 37);
    let (a, b, c) = (pts[0], pts[1], pts[2]);
    let mut initial = pts.clone();
    initial.extend([a, a, b]); // three live copies of a, two of b
    let reqs = vec![
        Request::Insert(initial),
        Request::Delete(vec![a, a, b]),       // 3 + 2
        Request::Delete(vec![a, c, b, c]),    // same run: only c is left to claim
        Request::Delete(pts[3..40].to_vec()), // same run: dying ids now 0,600,601,1,602,2,3..
        Request::Hull,
        Request::Delete(vec![a, b, c, pts[3]]), // next run: nothing left
        Request::Delete(pts[590..].iter().rev().copied().collect()),
        Request::Range(vec![Bbox::from_points(&pts)]),
    ];
    let deleted = |r: &GeoResult<Response<2>>| match r {
        Ok(Response::Deleted { count }) => *count,
        other => panic!("not a delete response: {other:?}"),
    };
    let mut want: Option<Vec<GeoResult<Response<2>>>> = None;
    for backend in [Backend::Oracle, Backend::Bdl] {
        for shards in [1usize, 4] {
            let mut store = GeoStore::<2>::builder()
                .backend(backend)
                .shards(shards)
                .build();
            let got = store.execute(&reqs);
            let counts: Vec<usize> = [1, 2, 3, 5, 6].iter().map(|&i| deleted(&got[i])).collect();
            assert_eq!(counts, [5, 1, 37, 0, 10], "{} S={shards}", backend.label());
            assert_eq!(store.len(), 603 - 5 - 1 - 37 - 10);
            let Ok(Response::Range(rows)) = &got[7] else {
                panic!("range response")
            };
            assert_eq!(rows[0], (40u32..590).collect::<Vec<_>>());
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(w, &got, "{} S={shards}", backend.label()),
            }
        }
    }
}

#[test]
fn emst_requests_on_adversarial_input_are_exact() {
    // The EMST's tie-heavy inputs at scale through `Request::Emst`: a
    // million copies of one point, a shuffled collinear run of unit steps
    // and a shuffled regular polygon. Every length ties with many others,
    // so each answer is checked against its closed form, and the default
    // store must return the oracle store's edge list.
    let n = 200_000;
    let order = pargeo::parlay::random_permutation(n, 11);
    let line: Vec<Point2> = order
        .iter()
        .map(|&i| Point2::new([i as f64, 0.0]))
        .collect();
    let step = std::f64::consts::TAU / n as f64;
    let polygon: Vec<Point2> = order
        .iter()
        .map(|&i| {
            let (sin, cos) = (i as f64 * step).sin_cos();
            Point2::new([cos, sin])
        })
        .collect();
    let chord = 2.0 * (step / 2.0).sin();
    let cases: [(&str, Vec<Point2>, f64, f64); 3] = [
        (
            "1e6 copies",
            vec![Point2::new([0.25, 0.5]); 1_000_000],
            0.0,
            0.0,
        ),
        ("collinear", line, (n - 1) as f64, 0.0),
        ("polygon", polygon, (n - 1) as f64 * chord, 1e-9),
    ];
    for (name, pts, weight, tol) in cases {
        let mut want = None;
        for builder in [
            GeoStore::<2>::builder(),
            GeoStore::builder().backend(Backend::Oracle),
        ] {
            let mut store = builder.build();
            let got = store.execute(&[Request::Insert(pts.clone()), Request::Emst]);
            let Ok(Response::Emst(edges)) = &got[1] else {
                panic!("{name}: {:?}", got[1]);
            };
            assert_eq!(edges.len(), pts.len() - 1, "{name}");
            let mut uf = pargeo::wspd::UnionFind::new(pts.len());
            assert!(edges.iter().all(|e| uf.union(e.u, e.v)), "{name}: a cycle");
            let total: f64 = edges.iter().map(|e| e.weight).sum();
            assert!(
                (total - weight).abs() <= tol * weight,
                "{name}: weighs {total}, want {weight}"
            );
            match &want {
                None => want = Some(edges.clone()),
                Some(w) => assert_eq!(w, edges, "{name}: the oracle store differs"),
            }
        }
    }
}

#[test]
fn delaunay_requests_on_adversarial_input_are_exact() {
    // Delaunay's adversarial inputs through `try_delaunay`,
    // `graphgen::delaunay_graph` and `Request::DelaunayGraph` on the
    // default and the oracle store. Copies of one point and a shuffled
    // collinear run have no 2-D extent, and every entry point refuses them.
    let flat = GeoError::Degenerate {
        op: "delaunay",
        what: "collinear",
    };
    let stores = || {
        [
            GeoStore::<2>::builder().build(),
            GeoStore::builder().backend(Backend::Oracle).build(),
        ]
    };
    let line: Vec<Point2> = pargeo::parlay::random_permutation(200_000, 11)
        .iter()
        .map(|&i| Point2::new([i as f64, 0.0]))
        .collect();
    for (name, pts) in [
        ("1e6 copies", vec![Point2::new([0.25, 0.5]); 1_000_000]),
        ("collinear", line),
    ] {
        assert_eq!(try_delaunay(&pts), Err(flat), "{name}");
        assert!(pargeo::graphgen::delaunay_graph(&pts).is_empty(), "{name}");
        for mut store in stores() {
            let got = store.execute(&[Request::Insert(pts.clone()), Request::DelaunayGraph]);
            assert_eq!(got[1], Err(flat), "{name}");
        }
    }

    // A shuffled regular polygon (every point on the hull, every quadruple
    // all but cocircular), a row-major lattice (cocircular everywhere,
    // collinear hull sides) and x-sorted uniform points. Each must
    // triangulate its whole hull: 3n − 3 − h edges for h input points on
    // the hull boundary, and both stores give one edge list.
    let cases = |n: usize| {
        let step = std::f64::consts::TAU / n as f64;
        let polygon: Vec<Point2> = pargeo::parlay::random_permutation(n, 12)
            .iter()
            .map(|&i| {
                let (sin, cos) = (i as f64 * step).sin_cos();
                Point2::new([cos, sin])
            })
            .collect();
        let w = (n as f64).sqrt() as usize;
        let lattice: Vec<Point2> = (0..w * w)
            .map(|i| Point2::new([(i % w) as f64, (i / w) as f64]))
            .collect();
        let mut sorted = points(n, 13);
        sorted.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let h = try_hull2d(&sorted).unwrap().len();
        [
            ("polygon", polygon, n),
            ("lattice", lattice, 4 * (w - 1)),
            ("x-sorted", sorted, h),
        ]
    };
    for (name, pts, h) in cases(10_000) {
        let want = 3 * pts.len() - 3 - h;
        let d = try_delaunay(&pts).unwrap();
        assert_eq!(delaunay_edges(&d).len(), want, "{name}");
        assert_eq!(
            pargeo::graphgen::delaunay_graph(&pts),
            delaunay_edges(&d),
            "{name}"
        );
        let [default, oracle] = stores().map(|mut store| {
            let got = store.execute(&[Request::Insert(pts.clone()), Request::DelaunayGraph]);
            match &got[1] {
                Ok(Response::DelaunayGraph(edges)) => edges.clone(),
                other => panic!("{name}: {other:?}"),
            }
        });
        assert_eq!(default.len(), want, "{name}");
        assert_eq!(default, oracle, "{name}: the oracle store differs");
    }
    // The empty-circumcircle check is quadratic, and exact on the
    // polygon's near-cocircular quadruples: a small instance of each.
    for (name, pts, _) in cases(200) {
        let d = try_delaunay(&pts).unwrap();
        pargeo::delaunay::validate_delaunay(&pts, &d.triangles)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

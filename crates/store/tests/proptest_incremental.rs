//! Property tests for delta maintenance under churn: random streams of
//! interleaved inserts, deletes, and derived-structure requests replayed
//! on the delta-maintaining store and cross-validated three ways —
//! against the oracle-backend store, against an independent per-request
//! wholesale recompute from a live-set mirror, and across shard count ×
//! thread count. Bit-identical answers everywhere is the correctness
//! anchor of delta maintenance.

use pargeo_geometry::{GeoError, Point2};
use pargeo_store::{digest_responses, Backend, DerivedKind, GeoStore, MemoPath, Request, Response};
use proptest::prelude::*;

/// One raw op; interpreted against the evolving stream state.
#[derive(Debug, Clone)]
enum OpSpec {
    /// Insert `len` fresh pool points.
    Insert { len: usize },
    /// Delete (by value) a window of previously inserted pool points.
    Delete { start: usize, len: usize },
    /// 0 = hull, 1 = delaunay graph, 2 = emst, 3 = closest pair.
    Derived { which: u8 },
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    // Insert- and derived-heavy mix: the incremental path only fires on
    // insert-only epochs, so the stream must produce long insert runs
    // punctuated by occasional deletes (which force the rebuild path).
    prop_oneof![
        (1usize..24).prop_map(|len| OpSpec::Insert { len }),
        (1usize..24).prop_map(|len| OpSpec::Insert { len }),
        (1usize..24).prop_map(|len| OpSpec::Insert { len }),
        (0usize..200, 1usize..10).prop_map(|(start, len)| OpSpec::Delete { start, len }),
        (0u8..4).prop_map(|which| OpSpec::Derived { which }),
        (0u8..4).prop_map(|which| OpSpec::Derived { which }),
        (0u8..4).prop_map(|which| OpSpec::Derived { which }),
        (0u8..4).prop_map(|which| OpSpec::Derived { which }),
    ]
}

/// Duplicate-heavy lattice pool: cocircular quadruples everywhere (the
/// worst case for Delaunay uniqueness), duplicates and collinear runs for
/// the degenerate hull paths.
fn pool() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..16, 0i32..16).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        24..200,
    )
}

/// Interprets `ops` into a request stream, tracking the live set so each
/// derived request gets an independent `(ids, points)` snapshot.
type Snapshots = Vec<Option<(Vec<u32>, Vec<Point2>)>>;
fn interpret(pts: &[Point2], ops: &[OpSpec]) -> (Vec<Request<2>>, Snapshots) {
    let mut live: Vec<(u32, Point2)> = Vec::new();
    let mut next_id = 0u32;
    let mut cursor = 0usize;
    let mut inserted: Vec<Point2> = Vec::new();
    let mut reqs = Vec::new();
    let mut snaps: Snapshots = Vec::new();
    for op in ops {
        match op {
            OpSpec::Insert { len } => {
                let got = (*len).min(pts.len().saturating_sub(cursor));
                let batch = pts[cursor..cursor + got].to_vec();
                cursor += got;
                inserted.extend_from_slice(&batch);
                for &p in &batch {
                    live.push((next_id, p));
                    next_id += 1;
                }
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
                let victims: std::collections::HashSet<[u64; 2]> =
                    batch.iter().map(|p| p.bits_key()).collect();
                live.retain(|(_, p)| !victims.contains(&p.bits_key()));
                reqs.push(Request::Delete(batch));
                snaps.push(None);
            }
            OpSpec::Derived { which } => {
                reqs.push(match which {
                    0 => Request::Hull,
                    1 => Request::DelaunayGraph,
                    2 => Request::Emst,
                    _ => Request::ClosestPair,
                });
                snaps.push(Some((
                    live.iter().map(|&(id, _)| id).collect(),
                    live.iter().map(|&(_, p)| p).collect(),
                )));
            }
        }
    }
    (reqs, snaps)
}

fn remap(ids: &[u32], positions: &[u32]) -> Vec<u32> {
    positions.iter().map(|&p| ids[p as usize]).collect()
}

/// The independent full-recompute check for the hull and the maintained
/// Delaunay graph: whatever path the store took (hit, incremental apply,
/// rebuild, fresh),
/// the answer must be bit-identical to the canonical algorithm run from
/// scratch on the live snapshot.
fn check_maintained(
    ctx: &str,
    req: &Request<2>,
    resp: &Result<Response<2>, GeoError>,
    ids: &[u32],
    live: &[Point2],
) -> Result<(), TestCaseError> {
    match req {
        Request::Hull => {
            let want = pargeo_hull::try_hull2d(live).map(|h| remap(ids, &h));
            prop_assert_eq!(
                resp,
                &want.map(Response::Hull),
                "{}: hull != independent recompute",
                ctx
            );
        }
        Request::DelaunayGraph => {
            let want = pargeo_delaunay::DelaunayIncremental::try_build(live)
                .and_then(|d| d.edges())
                .map(|edges| {
                    edges
                        .into_iter()
                        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
                        .collect::<Vec<_>>()
                });
            prop_assert_eq!(
                resp,
                &want.map(Response::DelaunayGraph),
                "{}: delaunay != independent recompute",
                ctx
            );
        }
        _ => {}
    }
    Ok(())
}

fn run_case(pts: &[Point2], ops: &[OpSpec], threads: usize) -> Result<(), TestCaseError> {
    let (reqs, snaps) = interpret(pts, ops);

    // The oracle-backend baseline, unsharded; `check_maintained` below is
    // the wholesale recompute.
    let mut baseline = GeoStore::<2>::builder()
        .backend(Backend::Oracle)
        .threads(threads)
        .build();
    let want = baseline.execute(&reqs);
    let want_digest = digest_responses(&want);

    for shards in [1usize, 4] {
        let mut store = GeoStore::<2>::builder()
            .shards(shards)
            .threads(threads)
            .build();
        let responses = store.execute(&reqs);
        let name = format!("S={shards} T={threads}");
        prop_assert_eq!(responses.len(), want.len(), "{}", &name);
        prop_assert_eq!(
            digest_responses(&responses),
            want_digest,
            "{}: digest != oracle-store digest",
            &name
        );
        for (i, ((req, resp), snap)) in reqs.iter().zip(&responses).zip(&snaps).enumerate() {
            // Bit-identical per response, not just digest-equal.
            prop_assert_eq!(
                resp,
                &want[i],
                "{} request {}: store != oracle store",
                &name,
                i
            );
            if let Some((ids, live)) = snap {
                check_maintained(&format!("{} request {i}", &name), req, resp, ids, live)?;
            }
        }
    }
    Ok(())
}

/// Deterministic anchor: a scripted churn case must drive the memo state
/// machine through every path — Fresh on first compute, Incremental across
/// an insert-only epoch, Rebuilt after a delete — with the counters and
/// `derived_path` to prove it, so a generator drifting away from the
/// incremental path can't silently pass the property. The Delaunay graph
/// walks the three paths; the hull, never maintained, is `Fresh` after
/// every write.
#[test]
fn scripted_churn_walks_every_memo_path() {
    let corners = [
        Point2::new([0.0, 0.0]),
        Point2::new([15.0, 0.0]),
        Point2::new([0.0, 15.0]),
        Point2::new([15.0, 15.0]),
    ];
    let interior: Vec<Point2> = (0..48)
        .map(|i| Point2::new([(1 + i % 7) as f64 * 2.0, (1 + i / 7) as f64 * 2.0]))
        .collect();

    // The insert-only epoch adds 16 points to a 24-point mesh: however much
    // of the mesh a batch tears down, it is advanced, not rebuilt.
    let writes = [
        Request::Insert(corners.to_vec()),
        Request::Insert(interior[..20].to_vec()),
        Request::Insert(interior[20..36].to_vec()),
        Request::Delete(interior[..4].to_vec()),
    ];
    let mut store: GeoStore<2> = GeoStore::builder().build();
    store.execute(&writes[..2]);

    // Fresh computes.
    let h1 = store.hull().unwrap();
    let d1 = store.delaunay_graph().unwrap();
    assert_eq!(store.derived_path(DerivedKind::Hull), Some(MemoPath::Fresh));
    assert_eq!(
        store.derived_path(DerivedKind::DelaunayGraph),
        Some(MemoPath::Fresh)
    );

    // Repeat without a write: hits, path unchanged.
    assert_eq!(store.delaunay_graph().unwrap(), d1);
    assert_eq!(
        store.derived_path(DerivedKind::DelaunayGraph),
        Some(MemoPath::Fresh)
    );

    // Insert-only epoch: the Delaunay engine absorbs the batch in place.
    store.execute(&writes[2..3]);
    let h2 = store.hull().unwrap();
    let d2 = store.delaunay_graph().unwrap();
    assert_eq!(store.derived_path(DerivedKind::Hull), Some(MemoPath::Fresh));
    assert_eq!(
        store.derived_path(DerivedKind::DelaunayGraph),
        Some(MemoPath::Incremental)
    );

    // Delete epoch: the engine dies, the next compute is a rebuild.
    store.execute(&writes[3..]);
    let h3 = store.hull().unwrap();
    let d3 = store.delaunay_graph().unwrap();
    assert_eq!(store.derived_path(DerivedKind::Hull), Some(MemoPath::Fresh));
    assert_eq!(
        store.derived_path(DerivedKind::DelaunayGraph),
        Some(MemoPath::Rebuilt)
    );

    // Counters agree with the walk: 6 computes (4 fresh + 1 incremental +
    // 1 rebuild), 1 hit, and misses covering all three compute paths.
    let stats = store.stats();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 6);
    assert_eq!(stats.cache.incremental, 1);
    assert_eq!(stats.cache.rebuilds, 1);

    // Every answer must equal a wholesale recompute over the same live set:
    // a fresh store replayed to each epoch's writes computes both kinds
    // `Fresh`, under the same ids.
    let wholesale = |writes: &[Request<2>]| {
        let mut plain: GeoStore<2> = GeoStore::builder().build();
        plain.execute(writes);
        let both = (plain.hull().unwrap(), plain.delaunay_graph().unwrap());
        for kind in [DerivedKind::Hull, DerivedKind::DelaunayGraph] {
            assert_eq!(plain.derived_path(kind), Some(MemoPath::Fresh));
        }
        both
    };
    assert_eq!((h1, d1), wholesale(&writes[..2]), "fresh epoch diverged");
    assert_eq!(
        (h2, d2),
        wholesale(&writes[..3]),
        "incremental epoch diverged"
    );
    assert_eq!((h3, d3), wholesale(&writes), "rebuild epoch diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random churn: every response from the delta-maintaining store —
    /// across all backends, shard counts {1, 4}, and two thread counts —
    /// must be bit-identical to the wholesale-recompute baseline and to an
    /// independent per-request recompute on a live-set mirror.
    #[test]
    fn incremental_store_is_bit_identical_under_churn(
        pts in pool(),
        ops in prop::collection::vec(op_strategy(), 4..24),
    ) {
        for threads in [1usize, 2] {
            run_case(&pts, &ops, threads)?;
        }
    }
}

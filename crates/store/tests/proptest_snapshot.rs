//! Property tests for snapshot isolation: random interleavings of write
//! epochs, snapshot pins, live derived requests (memo churn and rebuild
//! epochs), and out-of-order snapshot drops. Every snapshot pinned at
//! epoch E must keep answering the full read battery — k-NN, range, all
//! derived structures, statistics — **bit-identically to a brute-force
//! frozen copy of the store at E** (an oracle-backed store replayed to
//! the same write prefix), no matter how many insert, delete, and
//! memo-rebuild epochs the live store applies afterwards.

use pargeo_geometry::{Bbox, Point2};
use pargeo_store::{Backend, GeoStore, GeoStoreBuilder, Request, StoreSnapshot};
use proptest::prelude::*;

/// One raw op descriptor; interpreted against the evolving store state.
#[derive(Debug, Clone)]
enum OpSpec {
    /// Open a write epoch inserting `len` fresh pool points.
    Insert { len: usize },
    /// Open a write epoch deleting a window of inserted points (lattice
    /// collisions make these multi-kill, and the Delaunay engine removes
    /// them in place).
    Delete { start: usize, len: usize },
    /// A derived request on the *live* store: churns the memo cache so
    /// pins capture hit/miss/rebuild states, not just fresh ones.
    /// 0 = hull, 1 = emst, 2 = delaunay graph.
    LiveDerived { which: u8 },
    /// Pin a snapshot of the current epoch.
    Pin,
    /// Retire one pinned snapshot, selected anywhere in the pin list —
    /// drops happen out of pin order by construction.
    DropPin { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    // The shim's `prop_oneof!` is unweighted; repeating arms biases the
    // mix toward writes and pins.
    prop_oneof![
        (1usize..20).prop_map(|len| OpSpec::Insert { len }),
        (1usize..20).prop_map(|len| OpSpec::Insert { len }),
        (0usize..160, 1usize..14).prop_map(|(start, len)| OpSpec::Delete { start, len }),
        (0u8..3).prop_map(|which| OpSpec::LiveDerived { which }),
        (0u8..1).prop_map(|_| OpSpec::Pin),
        (0u8..1).prop_map(|_| OpSpec::Pin),
        (0usize..8).prop_map(|sel| OpSpec::DropPin { sel }),
    ]
}

/// Duplicate-heavy lattice pool: collisions exercise multi-kill deletes
/// and the typed degenerate derived paths inside pinned snapshots.
fn pool() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0i32..16, 0i32..16).prop_map(|(x, y)| Point2::new([x as f64, y as f64])),
        24..160,
    )
}

/// A live pin plus the write prefix that produced its epoch — enough to
/// reconstruct the brute-force frozen copy it must match.
struct Pin {
    snap: StoreSnapshot<2>,
    prefix: Vec<Request<2>>,
}

/// The read battery: every request class a snapshot serves.
fn battery(queries: &[Point2], qbox: Bbox<2>) -> Vec<Request<2>> {
    vec![
        Request::Knn {
            queries: queries.to_vec(),
            k: 3,
        },
        Request::Knn {
            queries: queries.to_vec(),
            k: 1,
        },
        Request::Range(vec![qbox]),
        Request::Hull,
        Request::Seb,
        Request::ClosestPair,
        Request::Emst,
        Request::KnnGraph { k: 2 },
        Request::DelaunayGraph,
    ]
}

/// Asserts `pin` answers the battery bit-identically to a frozen copy at
/// its epoch: a fresh oracle-backed store replayed with the same write
/// prefix. Ids, distances, typed errors — everything must be exact.
fn check_pin(pin: &Pin, queries: &[Point2], qbox: Bbox<2>, ctx: &str) -> Result<(), TestCaseError> {
    let mut frozen = GeoStore::<2>::builder().backend(Backend::Oracle).build();
    // Replay one request per call: the live store applied each write as
    // its own epoch, so the frozen copy must too (a batched `execute`
    // would coalesce adjacent writes into fewer epochs).
    for req in &pin.prefix {
        let _ = frozen.run(req.clone());
    }

    prop_assert_eq!(pin.snap.len(), frozen.len(), "{}: pinned live count", ctx);
    prop_assert_eq!(
        pin.snap.stats().write_epoch,
        frozen.stats().write_epoch,
        "{}: pinned epoch",
        ctx
    );
    let pinned_live: usize = pin.snap.shard_snapshots().iter().map(|s| s.live).sum();
    prop_assert_eq!(pinned_live, pin.snap.len(), "{}: shard partition", ctx);

    let reqs = battery(queries, qbox);
    let got = pin.snap.execute(&reqs);
    for (i, (req, resp)) in reqs.iter().zip(&got).enumerate() {
        let want = frozen.run(req.clone());
        prop_assert_eq!(
            resp,
            &want,
            "{}: battery request {} ({:?}) != frozen copy",
            ctx,
            i,
            req
        );
    }
    Ok(())
}

/// The default store with a BDL buffer small enough that the pools (under
/// 160 points, which the default 1024-point buffer would absorb whole)
/// build static trees, cascade, and copy deletion overlays under pins.
fn cascading() -> GeoStoreBuilder<2> {
    GeoStore::builder().buffer_size(4)
}

fn run_case(
    pts: &[Point2],
    ops: &[OpSpec],
    builder: GeoStoreBuilder<2>,
    shards: usize,
) -> Result<(), TestCaseError> {
    let mut store = builder.shards(shards).build();
    let queries: Vec<Point2> = pts.iter().step_by(7).take(6).copied().collect();
    let qbox = Bbox::from_points(&pts[..pts.len() / 2]);
    let name = store.backend().label();

    let mut prefix: Vec<Request<2>> = Vec::new();
    let mut inserted: Vec<Point2> = Vec::new();
    let mut cursor = 0usize;
    let mut pins: Vec<Pin> = Vec::new();

    for (step, op) in ops.iter().enumerate() {
        match op {
            OpSpec::Insert { len } => {
                let got = (*len).min(pts.len() - cursor.min(pts.len()));
                let batch = pts[cursor..cursor + got].to_vec();
                cursor += got;
                inserted.extend_from_slice(&batch);
                let req = Request::Insert(batch);
                let _ = store.run(req.clone());
                prefix.push(req);
            }
            OpSpec::Delete { start, len } => {
                if inserted.is_empty() {
                    continue;
                }
                let s = start % inserted.len();
                let e = (s + len).min(inserted.len());
                let req = Request::Delete(inserted[s..e].to_vec());
                let _ = store.run(req.clone());
                prefix.push(req);
            }
            OpSpec::LiveDerived { which } => {
                // Memo churn only; correctness of live answers is covered
                // by proptest_store. A derived request after a delete
                // epoch drives the rebuild path the pins must survive.
                let _ = store.run(match which {
                    0 => Request::Hull,
                    1 => Request::Emst,
                    _ => Request::DelaunayGraph,
                });
            }
            OpSpec::Pin => {
                pins.push(Pin {
                    snap: store.pin(),
                    prefix: prefix.clone(),
                });
            }
            OpSpec::DropPin { sel } => {
                if pins.is_empty() {
                    continue;
                }
                let victim = sel % pins.len();
                // `swap_remove` retires pins out of pin order on purpose.
                drop(pins.swap_remove(victim));
                // A surviving pin must be unaffected by the retirement.
                if let Some(pin) = pins.first() {
                    let ctx = format!("{name} S={shards} step {step} after drop");
                    check_pin(pin, &queries, qbox, &ctx)?;
                }
            }
        }
    }

    // Every surviving pin answers its own epoch after ALL later epochs —
    // including whatever rebuilds and memo churn the tail applied.
    for (i, pin) in pins.iter().enumerate() {
        let ctx = format!("{name} S={shards} final pin {i}");
        check_pin(pin, &queries, qbox, &ctx)?;
    }
    Ok(())
}

/// Deterministic anchor: a scripted interleaving must flow through every
/// path the property relies on (pins across delete + rebuild epochs,
/// memo churn, out-of-order drops), so a silently-degenerate generator
/// can't pass.
#[test]
fn scripted_interleaving_exercises_the_property_paths() {
    let pts: Vec<Point2> = (0..120)
        .map(|i| Point2::new([(i % 12) as f64, (i / 12) as f64]))
        .collect();
    let ops = vec![
        OpSpec::Insert { len: 19 },
        OpSpec::LiveDerived { which: 0 },
        OpSpec::Pin,
        OpSpec::Insert { len: 19 },
        OpSpec::Pin,
        OpSpec::Delete { start: 3, len: 13 },
        OpSpec::LiveDerived { which: 2 },
        OpSpec::Pin,
        OpSpec::DropPin { sel: 1 },
        OpSpec::Insert { len: 19 },
        OpSpec::Delete { start: 20, len: 9 },
        OpSpec::LiveDerived { which: 1 },
    ];
    for shards in [1usize, 4] {
        run_case(&pts, &ops, cascading(), shards).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random pin/write/read/drop interleavings: a snapshot pinned at
    /// epoch E equals the brute-force frozen copy at E regardless of
    /// later insert, delete, and memo-rebuild epochs — buffer-only,
    /// cascading, sharded, and on the oracle's own full-copy pins.
    #[test]
    fn pinned_snapshots_equal_frozen_copies(
        pts in pool(),
        ops in prop::collection::vec(op_strategy(), 4..22),
    ) {
        run_case(&pts, &ops, GeoStore::builder(), 1)?;
        run_case(&pts, &ops, cascading(), 1)?;
        // The sharded executor pins per-shard roots; same property.
        run_case(&pts, &ops, cascading(), 4)?;
        run_case(&pts, &ops, GeoStore::builder().backend(Backend::Oracle), 1)?;
    }
}

//! Property tests for structure-sharing clones of the BDL-tree: random
//! interleavings of inserts (cascades that destroy and rebuild levels),
//! deletes by value (tombstones in levels a clone still shares, drains of
//! levels that fall below half capacity), clones, and out-of-order clone
//! drops. Every clone must keep answering `knn_batch`, `range_box_batch`
//! and `collect_live` exactly like a reference tree **replayed from
//! scratch to the clone's write prefix** — never like another `clone()`,
//! which shares state with the tree under test.

use pargeo_bdltree::BdlTree;
use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::Neighbor;
use proptest::prelude::*;

/// One raw op; interpreted against the evolving tree.
#[derive(Debug, Clone)]
enum OpSpec {
    /// Insert the next `len` pool points.
    Insert {
        len: usize,
    },
    /// Delete (by value) a window of the points inserted so far — lattice
    /// collisions make these multi-kill.
    Delete {
        start: usize,
        len: usize,
    },
    Clone,
    /// Drop one clone, selected anywhere in the list.
    DropClone {
        sel: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    // The shim's `prop_oneof!` is unweighted; repeated arms bias the mix.
    prop_oneof![
        (1usize..40).prop_map(|len| OpSpec::Insert { len }),
        (1usize..40).prop_map(|len| OpSpec::Insert { len }),
        (0usize..400, 1usize..30).prop_map(|(start, len)| OpSpec::Delete { start, len }),
        (0usize..400, 1usize..30).prop_map(|(start, len)| OpSpec::Delete { start, len }),
        (0u8..1).prop_map(|_| OpSpec::Clone),
        (0usize..8).prop_map(|sel| OpSpec::DropClone { sel }),
    ]
}

/// Duplicate-heavy lattice pool, five coordinates per point (a `D`-dim
/// run uses the first `D`).
fn pool() -> impl Strategy<Value = Vec<[i32; 5]>> {
    prop::collection::vec(
        (0i32..6, 0i32..6, 0i32..6, 0i32..3, 0i32..3).prop_map(|(a, b, c, d, e)| [a, b, c, d, e]),
        40..400,
    )
}

#[derive(Debug, Clone)]
enum Write<const D: usize> {
    Insert(Vec<Point<D>>),
    Delete(Vec<Point<D>>),
}

fn apply<const D: usize>(t: &mut BdlTree<D>, w: &Write<D>) {
    match w {
        Write::Insert(batch) => t.insert(batch),
        Write::Delete(batch) => {
            t.delete(batch);
        }
    }
}

/// A fresh tree fed `log` — shares nothing with any tree under test. The
/// tiny buffer makes a few dozen points cascade through several levels
/// and drain them again.
fn replay<const D: usize>(log: &[Write<D>]) -> BdlTree<D> {
    let mut t = BdlTree::<D>::with_buffer_size(4);
    log.iter().for_each(|w| apply(&mut t, w));
    t
}

type Answers<const D: usize> = (Vec<Vec<Neighbor>>, Vec<Vec<u32>>, Vec<(Point<D>, u32)>);

fn answers<const D: usize>(t: &BdlTree<D>, probes: &[Point<D>]) -> Answers<D> {
    let boxes: Vec<Bbox<D>> = probes.windows(2).map(Bbox::from_points).collect();
    let mut live = t.collect_live();
    live.sort_by_key(|&(_, id)| id);
    (t.knn_batch(probes, 3), t.range_box_batch(&boxes), live)
}

fn run<const D: usize>(pool: &[[i32; 5]], ops: &[OpSpec]) -> Result<(), TestCaseError> {
    let pts: Vec<Point<D>> = pool
        .iter()
        .map(|c| Point::new(std::array::from_fn(|i| c[i] as f64)))
        .collect();
    let probes: Vec<Point<D>> = pts.iter().step_by(pts.len() / 8 + 1).copied().collect();
    let mut live = replay::<D>(&[]);
    let mut log: Vec<Write<D>> = Vec::new();
    let mut inserted = 0usize;
    // Each clone with the independent replay of its prefix.
    let mut clones: Vec<(BdlTree<D>, BdlTree<D>)> = Vec::new();
    for op in ops {
        let write = match op {
            OpSpec::Insert { len } => {
                let hi = (inserted + len).min(pts.len());
                let batch = pts[inserted..hi].to_vec();
                inserted = hi;
                Write::Insert(batch)
            }
            OpSpec::Delete { start, len } => {
                if inserted == 0 {
                    continue;
                }
                let lo = start % inserted;
                Write::Delete(pts[lo..(lo + len).min(inserted)].to_vec())
            }
            OpSpec::Clone => {
                clones.push((live.clone(), replay(&log)));
                continue;
            }
            OpSpec::DropClone { sel } => {
                if !clones.is_empty() {
                    clones.swap_remove(sel % clones.len());
                }
                continue;
            }
        };
        apply(&mut live, &write);
        log.push(write);
        for (clone, reference) in &clones {
            prop_assert_eq!(clone.len(), reference.len());
            prop_assert_eq!(answers(clone, &probes), answers(reference, &probes));
        }
    }
    // The tree that was cloned from and written to all along is itself
    // still exactly the replay of the whole log.
    prop_assert_eq!(answers(&live, &probes), answers(&replay(&log), &probes));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clones_equal_replayed_prefixes_2d(pool in pool(), ops in prop::collection::vec(op_strategy(), 1..40)) {
        run::<2>(&pool, &ops)?;
    }

    #[test]
    fn clones_equal_replayed_prefixes_5d(pool in pool(), ops in prop::collection::vec(op_strategy(), 1..40)) {
        run::<5>(&pool, &ops)?;
    }
}

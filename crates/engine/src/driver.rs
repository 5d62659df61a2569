//! The mixed-workload driver.
//!
//! [`run_workload`] replays a generated [`Workload`] against any
//! [`SpatialIndex`] backend, folding every answer into order-sensitive
//! checksums. Because all backends follow the same determinism contract
//! (sorted range ids, `(distance², id)`-ordered k-NN), two backends that
//! served the same workload correctly produce **identical** checksums —
//! the equality the differential suites assert.

use crate::{Snapshot, SpatialIndex};
use pargeo_datagen::{Workload, WorkloadOp};
use pargeo_parlay::mix64 as mix;

/// What happened when a workload was replayed against one backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadReport {
    /// Backend that served the workload.
    pub backend: &'static str,
    /// Batches per operation class: (insert, delete, knn, range).
    pub ops: (usize, usize, usize, usize),
    /// Points inserted (including the initial load).
    pub inserted: usize,
    /// Points actually deleted.
    pub deleted: usize,
    /// Total neighbors reported across all k-NN batches.
    pub knn_results: u64,
    /// Order-sensitive digest of every reported neighbor id.
    pub knn_checksum: u64,
    /// Total ids reported across all range batches.
    pub range_results: u64,
    /// Order-sensitive digest of every reported range id.
    pub range_checksum: u64,
    /// Live points after the final operation.
    pub final_live: usize,
    /// The backend's closing epoch statistics.
    pub snapshot: Snapshot,
}

impl WorkloadReport {
    /// The answer digest: equal digests across backends ⇔ identical
    /// answers to every query batch of the workload.
    pub fn digest(&self) -> (u64, u64) {
        (self.knn_checksum, self.range_checksum)
    }
}

/// Replays `workload` against `index`, returning counts and answer
/// digests. The index is mutated in place (callers pass a fresh one per
/// run).
pub fn run_workload<const D: usize, I: SpatialIndex<D> + ?Sized>(
    index: &mut I,
    workload: &Workload<D>,
) -> WorkloadReport {
    let mut r = WorkloadReport {
        backend: index.backend_name(),
        ..WorkloadReport::default()
    };
    index.insert(&workload.initial);
    r.inserted += workload.initial.len();

    for op in &workload.ops {
        match op {
            WorkloadOp::Insert(batch) => {
                index.insert(batch);
                r.inserted += batch.len();
                r.ops.0 += 1;
            }
            WorkloadOp::Delete(batch) => {
                r.deleted += index.delete(batch);
                r.ops.1 += 1;
            }
            WorkloadOp::Knn(queries, k) => {
                for row in &index.knn_batch(queries, *k) {
                    r.knn_results += row.len() as u64;
                    for n in row {
                        r.knn_checksum = mix(r.knn_checksum, n.id as u64);
                    }
                }
                r.ops.2 += 1;
            }
            WorkloadOp::Range(boxes) => {
                for row in &index.range_batch(boxes) {
                    r.range_results += row.len() as u64;
                    for id in row {
                        r.range_checksum = mix(r.range_checksum, *id as u64);
                    }
                }
                r.ops.3 += 1;
            }
            // Derived-structure ops are the store façade's job
            // (`pargeo-store::run_store_workload`); a bare index has no
            // whole-dataset algorithms to serve them with.
            WorkloadOp::Derived(_) => {}
        }
    }
    r.final_live = index.len();
    r.snapshot = index.snapshot();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecIndex;
    use pargeo_bdltree::BdlTree;
    use pargeo_datagen::{Distribution, WorkloadSpec};
    use pargeo_kdtree::ZdTree;

    #[test]
    fn all_backends_produce_identical_digests() {
        let mut spec = WorkloadSpec::new("drv", Distribution::UniformCube, 2_000, 24);
        spec.seed = 11;
        let w: Workload<2> = spec.generate();
        let mut oracle = VecIndex::<2>::new();
        let want = run_workload(&mut oracle, &w);
        assert!(want.knn_results > 0, "workload generated no knn work");
        assert!(want.range_results > 0, "workload generated no range work");

        let mut bdl = BdlTree::<2>::with_buffer_size(128);
        let mut zd = ZdTree::<2>::new();
        for got in [run_workload(&mut bdl, &w), run_workload(&mut zd, &w)] {
            assert_eq!(got.digest(), want.digest(), "{} digest", got.backend);
            assert_eq!(got.final_live, want.final_live, "{}", got.backend);
            assert_eq!(got.inserted, want.inserted, "{}", got.backend);
            assert_eq!(got.deleted, want.deleted, "{}", got.backend);
            assert_eq!(got.knn_results, want.knn_results, "{}", got.backend);
            assert_eq!(got.range_results, want.range_results, "{}", got.backend);
        }
    }

    #[test]
    fn report_accounts_for_every_batch() {
        let spec = WorkloadSpec::new("acct", Distribution::OnCube, 500, 16);
        let w: Workload<3> = spec.generate();
        let (i, d, k, g) = {
            let mut v = VecIndex::<3>::new();
            let r = run_workload(&mut v, &w);
            r.ops
        };
        assert_eq!(i + d + k + g, w.ops.len());
        let counts = w.op_counts();
        assert_eq!((i, d, k, g), counts);
    }
}

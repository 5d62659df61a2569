//! The brute-force `Vec` oracle.
//!
//! [`VecIndex`] keeps the live points in a flat insertion-ordered vector
//! and answers every query by scanning it. O(n) per query and O(n·batch)
//! per delete — hopeless at scale, trivially correct at any scale, which is
//! exactly what the cross-validation suites and the bench's correctness
//! anchor need.

use crate::{LivePoints, Snapshot, SpatialIndex};
use pargeo_geometry::{Bbox, Point};
use pargeo_kdtree::Neighbor;

/// Brute-force reference implementation of [`SpatialIndex`].
#[derive(Debug, Clone, Default)]
pub struct VecIndex<const D: usize> {
    items: Vec<(Point<D>, u32)>,
    next_id: u32,
    epoch: u64,
}

impl<const D: usize> VecIndex<D> {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            next_id: 0,
            epoch: 0,
        }
    }

    /// Builds over an initial point set (one batch insert).
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut v = Self::new();
        SpatialIndex::insert(&mut v, points);
        v
    }

    /// All live `(point, id)` pairs in insertion order (ids ascend).
    pub fn items(&self) -> &[(Point<D>, u32)] {
        &self.items
    }

    /// The k nearest live neighbors of one query, ascending by
    /// `(distance², id)` — through the canonical [`KnnBuffer`], so the
    /// oracle's tie-breaking is the library's by construction.
    ///
    /// [`KnnBuffer`]: pargeo_kdtree::KnnBuffer
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<Neighbor> {
        let mut buf = pargeo_kdtree::KnnBuffer::new(k);
        for (p, id) in &self.items {
            buf.insert(q.dist_sq(p), *id);
        }
        buf.finish()
    }

    /// Sorted ids of the live points inside one query box.
    pub fn range_box(&self, query: &Bbox<D>) -> Vec<u32> {
        // Items stay insertion-ordered, so the filter output is already
        // ascending by id.
        self.items
            .iter()
            .filter(|(p, _)| query.contains(p))
            .map(|&(_, id)| id)
            .collect()
    }
}

impl<const D: usize> SpatialIndex<D> for VecIndex<D> {
    fn backend_name(&self) -> &'static str {
        "vec-oracle"
    }

    fn insert(&mut self, batch: &[Point<D>]) {
        self.epoch += 1;
        self.items.extend(
            batch
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, self.next_id + i as u32)),
        );
        self.next_id += batch.len() as u32;
    }

    fn remove(&mut self, batch: &[Point<D>]) -> Vec<(Point<D>, u32)> {
        self.epoch += 1;
        let victims: std::collections::HashSet<[u64; D]> =
            batch.iter().map(Point::bits_key).collect();
        self.items
            .extract_if(.., |(p, _)| victims.contains(&p.bits_key()))
            .collect()
    }

    fn knn_batch(&self, queries: &[Point<D>], k: usize) -> Vec<Vec<Neighbor>> {
        pargeo_parlay::map(queries, 64, |q| self.knn(q, k))
    }

    fn range_batch(&self, queries: &[Bbox<D>]) -> Vec<Vec<u32>> {
        pargeo_parlay::map(queries, 16, |q| self.range_box(q))
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            epoch: self.epoch,
            live: self.items.len(),
            inserted: self.next_id as u64,
            deleted: self.next_id as u64 - self.items.len() as u64,
            rebuilds: 0,
            arena_bytes: self.items.len() * std::mem::size_of::<(Point<D>, u32)>(),
            nodes: 0,
            cow_bytes: 0,
        }
    }

    fn pin(&self) -> Box<dyn SpatialIndex<D> + Send + Sync> {
        // The oracle is the reference implementation of pinning: an O(n)
        // copy is the semantic every cheaper pin must match bit-for-bit.
        Box::new(self.clone())
    }

    fn live_points(&self) -> LivePoints<D> {
        // Items stay insertion-ordered, so ids already ascend.
        self.items.iter().map(|&(p, id)| (id, p)).unzip()
    }

    fn live_bbox(&self) -> Bbox<D> {
        let mut b = Bbox::empty();
        for (p, _) in &self.items {
            b.extend(p);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargeo_datagen::uniform_cube;

    #[test]
    fn oracle_semantics_match_the_contract() {
        let pts = uniform_cube::<2>(500, 1);
        let mut v = VecIndex::from_points(&pts);
        assert_eq!(SpatialIndex::delete(&mut v, &pts[..100]), 100);
        assert_eq!(v.len(), 400);
        // knn of a live point includes itself at distance zero, id intact.
        let got = v.knn(&pts[100], 1);
        assert_eq!(got[0].id, 100);
        assert_eq!(got[0].dist_sq, 0.0);
        // Range output ascends by id.
        let all = v.range_box(&Bbox::from_points(&pts));
        assert_eq!(all, (100u32..500).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_values_all_die() {
        let p = Point::new([1.0, 1.0]);
        let mut v = VecIndex::<2>::new();
        SpatialIndex::insert(&mut v, &[p, p, Point::new([2.0, 2.0])]);
        assert_eq!(SpatialIndex::delete(&mut v, &[p]), 2);
        assert_eq!(v.len(), 1);
    }
}

//! Columnar (structure-of-arrays) point storage.
//!
//! The tree backends' hot loops — k-NN leaf scans, range filters, kd
//! splits — touch one axis at a time. Array-of-structs `[(x, y), …]`
//! layouts drag every axis through cache on each scan; [`SoaPoints`]
//! stores one `Vec<f64>` per axis plus an id column, so an axis scan is a
//! dense sequential read and the point count per cache line doubles in 2D
//! (quadruples for the 1-axis scans of a kd split). `Point<D>` values are
//! materialized only at API boundaries ([`SoaPoints::get`]).
//!
//! The container is deliberately dumb: no parallelism (this crate sits
//! below the scheduler), no geometry beyond per-row distance. Tree crates
//! build it with their own parallel scatter into
//! [`SoaPoints::columns_mut`].

use crate::point::Point;

/// Points in structure-of-arrays layout: one coordinate column per axis
/// plus an id column, all of equal length.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaPoints<const D: usize> {
    coords: [Vec<f64>; D],
    ids: Vec<u32>,
}

impl<const D: usize> std::default::Default for SoaPoints<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> SoaPoints<D> {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            coords: std::array::from_fn(|_| Vec::new()),
            ids: Vec::new(),
        }
    }

    /// A zero-filled store of `n` rows, ready for scatter via
    /// [`columns_mut`](Self::columns_mut).
    pub fn with_len(n: usize) -> Self {
        Self {
            coords: std::array::from_fn(|_| vec![0.0; n]),
            ids: vec![0; n],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one row.
    pub fn push(&mut self, p: Point<D>, id: u32) {
        for d in 0..D {
            self.coords[d].push(p.coords[d]);
        }
        self.ids.push(id);
    }

    /// Row `i` as a `Point` (the API-boundary conversion).
    #[inline]
    pub fn get(&self, i: usize) -> Point<D> {
        Point::new(std::array::from_fn(|d| self.coords[d][i]))
    }

    /// Id of row `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// Coordinate of row `i` on `axis`.
    #[inline]
    pub fn coord(&self, i: usize, axis: usize) -> f64 {
        self.coords[axis][i]
    }

    /// The full column of `axis`.
    #[inline]
    pub fn axis(&self, axis: usize) -> &[f64] {
        &self.coords[axis]
    }

    /// The id column.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Every coordinate column and the id column, mutable at once (the
    /// scatter target of bulk builds: disjoint borrows, so parallel tasks
    /// can each fill their own windows of all of them).
    pub fn columns_mut(&mut self) -> ([&mut [f64]; D], &mut [u32]) {
        (self.coords.each_mut().map(Vec::as_mut_slice), &mut self.ids)
    }

    /// Overwrites row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, p: Point<D>, id: u32) {
        for d in 0..D {
            self.coords[d][i] = p.coords[d];
        }
        self.ids[i] = id;
    }

    /// Squared Euclidean distance from row `i` to `q`, column-wise — no
    /// `Point` materialization.
    #[inline]
    pub fn dist_sq(&self, i: usize, q: &Point<D>) -> f64 {
        let mut s = 0.0;
        for d in 0..D {
            let diff = self.coords[d][i] - q.coords[d];
            s += diff * diff;
        }
        s
    }

    /// Iterates rows as `(Point, id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Point<D>, u32)> + '_ {
        (0..self.len()).map(|i| (self.get(i), self.id(i)))
    }

    /// Heap bytes held by the columns (capacity, not length) — the arena
    /// accounting surfaced as `index_arena_bytes`.
    pub fn bytes(&self) -> usize {
        // Lengths, not capacities: the figure must be a deterministic
        // function of the stored points so clone-based snapshot pins
        // report identically to a reference structure with a different
        // allocation history.
        let coord: usize = self
            .coords
            .iter()
            .map(|c| c.len() * std::mem::size_of::<f64>())
            .sum();
        coord + self.ids.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_items() {
        let items: Vec<(Point<3>, u32)> = (0..100)
            .map(|i| (Point::new([i as f64, -(i as f64), 0.5 * i as f64]), i))
            .collect();
        let mut s = SoaPoints::new();
        for &(p, id) in &items {
            s.push(p, id);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.bytes(), 100 * (3 * 8 + 4));
        for (i, &(p, id)) in items.iter().enumerate() {
            assert_eq!(s.get(i), p);
            assert_eq!(s.id(i), id);
            assert_eq!(s.coord(i, 1), p.coords[1]);
            assert_eq!(s.dist_sq(i, &p), 0.0);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), items);
        let q = Point::new([0.0, 0.0, 0.0]);
        assert_eq!(s.dist_sq(2, &q), items[2].0.dist_sq(&q));
    }

    #[test]
    fn scatter_via_columns() {
        let mut s = SoaPoints::<2>::with_len(4);
        let ([xs, ys], ids) = s.columns_mut();
        xs.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ys.copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        ids.copy_from_slice(&[10, 11, 12, 13]);
        assert_eq!(s.get(2), Point::new([3.0, 7.0]));
        assert_eq!(s.id(3), 13);
        s.set(0, Point::new([9.0, 9.0]), 99);
        assert_eq!(s.get(0), Point::new([9.0, 9.0]));
        assert_eq!(s.id(0), 99);
        let mut t = SoaPoints::<2>::new();
        assert!(t.is_empty());
        t.push(Point::new([1.0, 2.0]), 7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0), Point::new([1.0, 2.0]));
    }
}

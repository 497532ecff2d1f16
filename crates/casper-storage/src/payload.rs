//! Secondary (payload) columns that mirror key-column movements.
//!
//! The HAP tables of the paper (§7.1) pair an 8-byte key column `a0` with
//! `p` 4-byte payload columns `a1..ap`. Range partitioning is driven by the
//! key column; whenever a ripple moves a key between slots, the same move
//! must be applied to every payload column so rows stay aligned.
//!
//! [`PayloadSet`] stores the payload columns slot-for-slot parallel to the
//! key column's physical slots and exposes the minimal move/set/read API
//! the chunk needs.

/// A set of fixed-width (`u32`) payload columns, slot-aligned with a key
/// column's physical storage.
#[derive(Debug, Clone, Default)]
pub struct PayloadSet {
    cols: Vec<Vec<u32>>,
}

impl PayloadSet {
    /// An empty payload set (key-only chunk).
    pub fn empty() -> Self {
        Self { cols: Vec::new() }
    }

    /// Build from already slot-aligned columns, padded to `physical` slots.
    ///
    /// # Panics
    /// Panics if any column is longer than `physical`.
    pub fn from_columns(mut cols: Vec<Vec<u32>>, physical: usize) -> Self {
        for c in &mut cols {
            assert!(c.len() <= physical, "payload column longer than chunk");
            c.resize(physical, 0);
        }
        Self { cols }
    }

    /// Number of payload columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Whether this set stores any columns at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Copy the row at slot `from` over the row at slot `to` (the ripple
    /// move primitive). The source slot's contents become stale, exactly
    /// like the key column's ghost slots.
    #[inline]
    pub fn move_row(&mut self, from: usize, to: usize) {
        for c in &mut self.cols {
            c[to] = c[from];
        }
    }

    /// Write a full row at slot `pos`.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the column count.
    #[inline]
    pub fn set_row(&mut self, pos: usize, row: &[u32]) {
        assert_eq!(row.len(), self.cols.len(), "payload arity mismatch");
        for (c, &v) in self.cols.iter_mut().zip(row) {
            c[pos] = v;
        }
    }

    /// Read one attribute.
    #[inline]
    pub fn get(&self, col: usize, pos: usize) -> u32 {
        self.cols[col][pos]
    }

    /// Gather a row into a fresh vector (used by point queries with
    /// projectivity `k`, HAP Q1).
    pub fn gather_row(&self, pos: usize, cols: &[usize]) -> Vec<u32> {
        cols.iter().map(|&c| self.cols[c][pos]).collect()
    }

    /// Sum the given columns over a contiguous slot range (the blind middle
    /// partitions of a range query, HAP Q3).
    pub fn sum_range(&self, cols: &[usize], range: std::ops::Range<usize>) -> u64 {
        cols.iter()
            .map(|&c| crate::simd::sum_u32(&self.cols[c][range.clone()]))
            .sum()
    }

    /// Contiguous slice of one payload column (Q3's masked sums read it
    /// under the key lane's slot bitmap).
    #[inline]
    pub fn column_slice(&self, col: usize, range: std::ops::Range<usize>) -> &[u32] {
        &self.cols[col][range]
    }

    /// Sum the given columns at scattered slot positions (filtered first /
    /// last partitions of a range query).
    pub fn sum_positions(&self, cols: &[usize], positions: &[usize]) -> u64 {
        let mut acc = 0u64;
        for &c in cols {
            let col = &self.cols[c];
            acc += positions.iter().map(|&p| u64::from(col[p])).sum::<u64>();
        }
        acc
    }

    /// The raw slot-aligned columns (snapshot serialization).
    #[inline]
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.cols
    }

    /// Heap bytes resident for the payload columns (allocated capacity,
    /// not just live length — the tail slack is real memory too).
    pub fn resident_bytes(&self) -> usize {
        self.cols
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<u32>())
            .sum()
    }

    /// Grow the physical slot count (used when a chunk expands its tail),
    /// reserving exactly the new slots: an amortized `resize` would double
    /// each column's allocation for a small grow.
    pub fn grow_to(&mut self, physical: usize) {
        for c in &mut self.cols {
            if c.len() < physical {
                c.reserve_exact(physical - c.len());
                c.resize(physical, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PayloadSet {
        PayloadSet::from_columns(vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]], 6)
    }

    #[test]
    fn from_columns_pads_to_physical() {
        let p = sample();
        assert_eq!(p.width(), 2);
        assert_eq!(p.get(0, 4), 0);
        assert_eq!(p.get(1, 5), 0);
    }

    #[test]
    fn move_row_copies_all_columns() {
        let mut p = sample();
        p.move_row(1, 3);
        assert_eq!(p.get(0, 3), 2);
        assert_eq!(p.get(1, 3), 20);
        // Source slot is stale but untouched.
        assert_eq!(p.get(0, 1), 2);
    }

    #[test]
    fn set_and_gather_row() {
        let mut p = sample();
        p.set_row(5, &[7, 70]);
        assert_eq!(p.gather_row(5, &[0, 1]), vec![7, 70]);
        assert_eq!(p.gather_row(5, &[1]), vec![70]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn set_row_checks_arity() {
        let mut p = sample();
        p.set_row(0, &[1]);
    }

    #[test]
    fn sums() {
        let p = sample();
        assert_eq!(p.sum_range(&[0], 0..4), 10);
        assert_eq!(p.sum_range(&[0, 1], 1..3), 2 + 3 + 20 + 30);
        assert_eq!(p.sum_positions(&[1], &[0, 3]), 50);
    }

    #[test]
    fn empty_set_is_noop() {
        let mut p = PayloadSet::empty();
        p.move_row(0, 1); // must not panic
        assert!(p.is_empty());
        assert_eq!(p.sum_range(&[], 0..0), 0);
    }
}

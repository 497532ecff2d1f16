//! Per-partition metadata (§6.3 "Locating Partitions").
//!
//! For every partition Casper stores the value range it covers and its
//! positional extent within the chunk, which is exactly the Zonemap-style
//! metadata the paper describes. The covering range is the partition's
//! only range: the chunk binary-searches it to locate a value's partition,
//! and the read paths prune on it. Partitions are physically contiguous:
//! partition `i` occupies slots `[start, start + len + ghosts)` where the
//! first `len` slots hold live values (unordered) and the trailing `ghosts`
//! slots are empty buffer space (Fig. 5).

use crate::value::ColumnValue;

/// Metadata for one range partition inside a [`crate::PartitionedChunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMeta<K: ColumnValue> {
    /// First physical slot of the partition.
    pub start: usize,
    /// Number of live values.
    pub len: usize,
    /// Number of ghost (empty) slots trailing the live values.
    pub ghosts: usize,
    /// Lower bound (inclusive) of the values this partition may contain.
    ///
    /// Bounds are maintained conservatively: they widen on inserts but are
    /// not re-tightened on deletes, so they remain *covering* at all times.
    pub min: K,
    /// Upper bound (inclusive) of the values this partition may contain.
    pub max: K,
}

impl<K: ColumnValue> PartitionMeta<K> {
    /// One-past-the-end of the live value region.
    #[inline]
    pub fn live_end(&self) -> usize {
        self.start + self.len
    }

    /// One-past-the-end of the partition's physical extent (live + ghosts).
    #[inline]
    pub fn extent_end(&self) -> usize {
        self.start + self.len + self.ghosts
    }

    /// Whether the partition currently buffers at least one ghost slot.
    #[inline]
    pub fn has_ghosts(&self) -> bool {
        self.ghosts > 0
    }

    /// Whether `v` falls inside this partition's covering range.
    #[inline]
    pub fn covers(&self, v: K) -> bool {
        self.min <= v && v <= self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> PartitionMeta<u64> {
        PartitionMeta {
            start: 10,
            len: 5,
            ghosts: 2,
            min: 100,
            max: 200,
        }
    }

    #[test]
    fn extents() {
        let m = meta();
        assert_eq!(m.live_end(), 15);
        assert_eq!(m.extent_end(), 17);
        assert!(m.has_ghosts());
    }

    #[test]
    fn covering_range_is_inclusive() {
        let m = meta();
        assert!(m.covers(100));
        assert!(m.covers(200));
        assert!(m.covers(150));
        assert!(!m.covers(99));
        assert!(!m.covers(201));
    }

    #[test]
    fn no_ghosts_extent_equals_live_end() {
        let m = PartitionMeta::<u64> {
            start: 0,
            len: 3,
            ghosts: 0,
            min: 0,
            max: 10,
        };
        assert_eq!(m.live_end(), m.extent_end());
        assert!(!m.has_ghosts());
    }
}

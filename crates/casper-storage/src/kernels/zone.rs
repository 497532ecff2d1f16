//! Per-partition zone maps: tight min/max bounds over *live* values.
//!
//! [`crate::PartitionMeta`] already carries the partition's *covering*
//! range (`min`/`max`), but those bounds only widen — they are routing
//! metadata for the shallow index and never re-tighten on deletes. The zone
//! map is the scan-side complement: it tracks the exact min/max of the
//! values currently live in the partition, so read paths can prune a
//! partition *before touching any of its blocks*:
//!
//! * a point query for `v` skips the scan entirely when
//!   `v ∉ [zone.min, zone.max]`;
//! * a range query skips partitions whose zone does not intersect
//!   `[lo, hi)`, and blindly consumes partitions whose zone lies fully
//!   inside — even the first/last partitions, which the covering bounds
//!   alone would force through the filtered path.
//!
//! Maintenance is incremental and piggybacks on work the write paths do
//! anyway: inserts widen, and deletes/updates only recompute (via
//! [`crate::kernels::min_max`]) when they remove a boundary value — in
//! which case they have already scanned the partition.

use crate::value::ColumnValue;

/// Tight `[min, max]` bounds over a partition's live values.
///
/// The empty zone is represented as `min > max` (specifically
/// `[K::MAX_VALUE, K::MIN_VALUE]`), which makes `contains` naturally false
/// and `include` naturally correct without a separate emptiness flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap<K: ColumnValue> {
    /// Smallest live value (meaningless when the zone is empty).
    pub min: K,
    /// Largest live value (meaningless when the zone is empty).
    pub max: K,
}

impl<K: ColumnValue> Default for ZoneMap<K> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<K: ColumnValue> ZoneMap<K> {
    /// The zone of a partition with no live values.
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: K::MAX_VALUE,
            max: K::MIN_VALUE,
        }
    }

    /// Exact zone of a slice of live values.
    pub fn from_values(values: &[K]) -> Self {
        match crate::kernels::min_max(values) {
            Some((min, max)) => Self { min, max },
            None => Self::empty(),
        }
    }

    /// Whether no live value is tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Whether `v` may be present.
    #[inline]
    pub fn contains(&self, v: K) -> bool {
        self.min <= v && v <= self.max
    }

    /// Whether any live value may fall in the half-open `[lo, hi)`.
    #[inline]
    pub fn intersects(&self, lo: K, hi: K) -> bool {
        self.min < hi && lo <= self.max
    }

    /// Whether *every* live value is guaranteed to fall in `[lo, hi)` — the
    /// blind-consumption test of the range-scan path. An empty zone is
    /// vacuously inside.
    #[inline]
    pub fn inside(&self, lo: K, hi: K) -> bool {
        self.is_empty() || (lo <= self.min && self.max < hi)
    }

    /// Widen to cover `v` (insert path).
    #[inline]
    pub fn include(&mut self, v: K) {
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Whether removing one occurrence of `v` can invalidate the bounds
    /// (delete/update path): true iff `v` sits on a boundary.
    #[inline]
    pub fn on_boundary(&self, v: K) -> bool {
        v == self.min || v == self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_zone_matches_nothing() {
        let z = ZoneMap::<u64>::empty();
        assert!(z.is_empty());
        assert!(!z.contains(0));
        assert!(!z.contains(u64::MAX));
        assert!(!z.intersects(0, u64::MAX));
        assert!(z.inside(5, 6), "empty zone is vacuously inside any range");
    }

    #[test]
    fn include_builds_tight_bounds() {
        let mut z = ZoneMap::empty();
        for v in [50u64, 10, 30, 90] {
            z.include(v);
        }
        assert_eq!((z.min, z.max), (10, 90));
        assert!(z.contains(10) && z.contains(90) && z.contains(42));
        assert!(!z.contains(9) && !z.contains(91));
    }

    #[test]
    fn from_values_matches_iterator_bounds() {
        let vals = [7u64, 3, 9, 3, 8];
        let z = ZoneMap::from_values(&vals);
        assert_eq!((z.min, z.max), (3, 9));
        assert!(ZoneMap::<u64>::from_values(&[]).is_empty());
    }

    #[test]
    fn intersects_is_half_open() {
        let z = ZoneMap {
            min: 10u64,
            max: 20,
        };
        assert!(z.intersects(0, 11));
        assert!(z.intersects(20, 25));
        assert!(!z.intersects(0, 10), "hi is exclusive");
        assert!(!z.intersects(21, 100));
    }

    #[test]
    fn inside_requires_full_containment() {
        let z = ZoneMap {
            min: 10u64,
            max: 20,
        };
        assert!(z.inside(10, 21));
        assert!(
            !z.inside(10, 20),
            "max == hi is outside the half-open range"
        );
        assert!(!z.inside(11, 30));
    }

    #[test]
    fn boundary_detection() {
        let z = ZoneMap {
            min: 10u64,
            max: 20,
        };
        assert!(z.on_boundary(10));
        assert!(z.on_boundary(20));
        assert!(!z.on_boundary(15));
    }
}

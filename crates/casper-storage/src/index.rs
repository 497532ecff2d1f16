//! Partition lookup (§6.3 "Locating Partitions").
//!
//! A chunk's partitions are range partitions with monotone upper bounds
//! ([`crate::PartitionedChunk::validate_invariants`]), so the partition
//! metadata itself is the index: a binary search of the bounds finds the
//! partition responsible for a value. Widening a bound is a plain store
//! into [`PartitionMeta::max`]; there is no separate structure to rebuild.

use crate::partition::PartitionMeta;
use crate::value::ColumnValue;

/// The first partition whose upper bound is `>= v`, clamped to the last
/// one (a value above every bound goes to the final partition, which then
/// widens its bound). `parts` must be non-empty.
#[inline]
pub(crate) fn locate<K: ColumnValue>(parts: &[PartitionMeta<K>], v: K) -> usize {
    parts.partition_point(|p| p.max < v).min(parts.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(bounds: &[u64]) -> Vec<PartitionMeta<u64>> {
        let mut lo = 0;
        bounds
            .iter()
            .enumerate()
            .map(|(i, &max)| {
                let p = PartitionMeta {
                    start: i,
                    len: 1,
                    ghosts: 0,
                    min: lo,
                    max,
                };
                lo = max + 1;
                p
            })
            .collect()
    }

    fn ref_lower_bound(keys: &[u64], v: u64) -> usize {
        keys.iter().position(|&k| k >= v).unwrap_or(keys.len())
    }

    #[test]
    fn index_locates_covering_partition() {
        // Partitions with upper bounds 10, 20, 30.
        let p = parts(&[10, 20, 30]);
        assert_eq!(locate(&p, 0), 0);
        assert_eq!(locate(&p, 10), 0);
        assert_eq!(locate(&p, 11), 1);
        assert_eq!(locate(&p, 20), 1);
        assert_eq!(locate(&p, 30), 2);
        // Above every bound → last partition.
        assert_eq!(locate(&p, 99), 2);
    }

    /// Many partitions (well past where a search tree would pay off over a
    /// linear scan): the binary search still returns the reference lower
    /// bound, clamped to the last partition.
    #[test]
    fn index_switches_to_tree_and_stays_correct() {
        let bounds: Vec<u64> = (1..=200).map(|i| i * 5).collect();
        let p = parts(&bounds);
        for v in (0..1100).step_by(7) {
            let expected = ref_lower_bound(&bounds, v).min(bounds.len() - 1);
            assert_eq!(locate(&p, v), expected, "v={v}");
        }
    }

    /// Widening a bound rebuilds nothing: the next lookup sees it.
    #[test]
    fn index_bound_update_is_visible_after_lazy_rebuild() {
        let mut p = parts(&(1..=100u64).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(locate(&p, 1005), 99);
        p[99].max = 2000;
        assert_eq!(locate(&p, 1500), 99);
        assert_eq!(locate(&p, 2000), 99);
        // The widened bound does not capture values below its neighbour's.
        assert_eq!(locate(&p, 990), 98);
    }
}

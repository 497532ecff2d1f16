//! Block-access predictors for the scan kernels (§4.5's model
//! verification, extended to the zone-map fast paths).
//!
//! The §4 model prices a point query as `RR + SR·(blocks − 1)` (Eq. 7):
//! one random jump into the target partition, then a sequential scan of
//! its remaining blocks. The scan kernels add two fast paths the closed
//! form cannot express. A point probe whose value falls outside the target
//! partition's zone touches *zero* blocks (a pruned miss). A range scan
//! classifies every overlapping partition as pruned / blind / filtered:
//! blind partitions stream sequentially behind a single leading random
//! jump, while each filtered partition pays its own random jump.
//!
//! [`predicted_point_access`] and [`predicted_range_access`] return the
//! exact [`OpCost`](casper_storage::OpCost) block counts the engine
//! measures on those paths, as a [`ScanAccess`]; the tests here assert the
//! equality. The root package's `tests/paper_claims.rs` checks the same
//! prediction against the cost model's own charge (Fig. 9b), and checks
//! the insert side (Fig. 9a) directly against `BlockTerms`.

use super::constants::CostConstants;
use casper_storage::OpCost;

/// Predicted block-level access pattern of one kernel-path scan — the
/// read-side projection of an [`OpCost`] (writes and probes are separate
/// cost classes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanAccess {
    /// Random block reads (partition jumps).
    pub random_reads: u64,
    /// Sequential block reads (streamed continuation blocks).
    pub seq_reads: u64,
}

impl ScanAccess {
    /// Evaluate the access pattern under the cost constants (Eq. 17's RR/SR
    /// classes).
    pub fn nanos(&self, c: &CostConstants) -> f64 {
        self.random_reads as f64 * c.rr + self.seq_reads as f64 * c.sr
    }

    /// Whether a measured [`OpCost`] performed exactly this read pattern.
    pub fn matches(&self, cost: &OpCost) -> bool {
        self.random_reads == cost.random_reads && self.seq_reads == cost.seq_reads
    }
}

/// How the scan kernels treat one partition overlapping a range predicate,
/// after consulting its zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePartKind {
    /// Zone disjoint from the predicate (or no live values): no block of
    /// the partition is read.
    Pruned,
    /// Zone fully inside the predicate: every live value qualifies and the
    /// partition streams blindly — including first/last partitions, which
    /// the covering bounds alone could not prove.
    Blind {
        /// Logical blocks the partition's live region spans.
        blocks: u64,
    },
    /// Zone partially overlapping: the partition is scanned through the
    /// filtering kernel and pays its own random jump.
    Filtered {
        /// Logical blocks the partition's live region spans.
        blocks: u64,
    },
}

/// Predicted access pattern of a point query against a partition spanning
/// `blocks` live blocks. A zone-pruned miss (`in_zone == false`) resolves
/// from metadata alone: zero blocks touched — the fast path the plain
/// Eq. 7 closed form cannot express.
pub fn predicted_point_access(in_zone: bool, blocks: u64) -> ScanAccess {
    if !in_zone {
        return ScanAccess::default();
    }
    ScanAccess {
        random_reads: 1,
        seq_reads: blocks.saturating_sub(1),
    }
}

/// Predicted access pattern of a range scan over the partitions spanned by
/// the predicate, classified per [`RangePartKind`]. Mirrors the engine's
/// scan driver exactly: pruned partitions are free; the first partition
/// actually read pays the random jump and every *blind* partition after it
/// streams sequentially; each *filtered* partition pays its own random jump
/// (the filtering kernel re-seeks into its live region).
pub fn predicted_range_access(parts: &[RangePartKind]) -> ScanAccess {
    let mut acc = ScanAccess::default();
    let mut first_touch = true;
    for part in parts {
        match *part {
            RangePartKind::Pruned => {}
            RangePartKind::Blind { blocks } => {
                if first_touch {
                    acc.random_reads += 1;
                    acc.seq_reads += blocks.saturating_sub(1);
                } else {
                    acc.seq_reads += blocks;
                }
                first_touch = false;
            }
            RangePartKind::Filtered { blocks } => {
                acc.random_reads += 1;
                acc.seq_reads += blocks.saturating_sub(1);
                first_touch = false;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_storage::ghost::GhostPlan;
    use casper_storage::{BlockLayout, ChunkConfig, PartitionSpec, PartitionedChunk};

    /// Even keys 2..=32 over 4 two-block partitions (2 values per block):
    /// zones [2,8], [10,16], [18,24], [26,32] with gaps in between.
    fn even_chunk() -> PartitionedChunk<u64> {
        PartitionedChunk::build(
            (1..=16u64).map(|x| x * 2).collect(),
            &PartitionSpec::from_block_sizes(&[2, 2, 2, 2]),
            BlockLayout {
                block_bytes: 16,
                value_width: 8,
            },
            &GhostPlan::none(4),
            ChunkConfig::default(),
        )
        .expect("build")
    }

    #[test]
    fn pruned_point_miss_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        // 9 falls between partition 0's zone [2,8] and partition 1's zone
        // [10,16]: the probe routes to partition 1, the zone prunes it.
        let r = chunk.point_query(9);
        assert!(r.positions.is_empty());
        assert!(predicted_point_access(false, 2).matches(&r.cost));
        assert_eq!(r.cost.values_scanned, 0, "pruned miss touches no values");
    }

    #[test]
    fn in_zone_point_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        for v in [2u64, 11, 16, 32] {
            let r = chunk.point_query(v);
            assert!(
                predicted_point_access(true, 2).matches(&r.cost),
                "point({v}): predicted != measured {:?}",
                r.cost
            );
        }
    }

    #[test]
    fn blind_first_last_range_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        // [2, 33) covers every zone entirely: all four partitions stream
        // blindly behind one random jump.
        let (n, cost) = chunk.range_count(2, 33);
        assert_eq!(n, 16);
        let pred = predicted_range_access(&[RangePartKind::Blind { blocks: 2 }; 4]);
        assert!(
            pred.matches(&cost),
            "predicted {pred:?} != measured {cost:?}"
        );
    }

    #[test]
    fn clipped_range_with_pruned_partition_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        // [4, 16) clips partition 0 and partition 1 (filtered); partitions
        // 2 and 3 are past the range and never visited.
        let (n, cost) = chunk.range_count(4, 16);
        assert_eq!(n, 6); // 4,6,8,10,12,14
        let pred = predicted_range_access(&[
            RangePartKind::Filtered { blocks: 2 },
            RangePartKind::Filtered { blocks: 2 },
        ]);
        assert!(
            pred.matches(&cost),
            "predicted {pred:?} != measured {cost:?}"
        );
        // [9, 10): routes into partition 1's covering range but misses its
        // zone — the whole scan is pruned, zero blocks.
        let (n, cost) = chunk.range_count(9, 10);
        assert_eq!(n, 0);
        let pred = predicted_range_access(&[RangePartKind::Pruned]);
        assert!(
            pred.matches(&cost),
            "predicted {pred:?} != measured {cost:?}"
        );
        assert_eq!(cost.values_scanned, 0);
    }

    #[test]
    fn mixed_blind_and_filtered_range_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        // [4, 25): partition 0 filtered (zone [2,8] straddles lo), 1 blind,
        // 2 blind (zone [18,24] fully inside since 24 < 25), 3 pruned
        // (zone [26,32] disjoint).
        let (n, cost) = chunk.range_count(4, 25);
        assert_eq!(n, 11); // 4..=24 even
        let pred = predicted_range_access(&[
            RangePartKind::Filtered { blocks: 2 },
            RangePartKind::Blind { blocks: 2 },
            RangePartKind::Blind { blocks: 2 },
            RangePartKind::Pruned,
        ]);
        assert!(
            pred.matches(&cost),
            "predicted {pred:?} != measured {cost:?}"
        );
    }

    #[test]
    fn scan_access_nanos_uses_rr_sr_classes() {
        let c = CostConstants::new(100.0, 50.0, 10.0, 5.0);
        let a = ScanAccess {
            random_reads: 2,
            seq_reads: 3,
        };
        assert!((a.nanos(&c) - 230.0).abs() < 1e-9);
        assert_eq!(ScanAccess::default().nanos(&c), 0.0);
    }
}

//! Block-access predictors for the scan kernels (§4.5's model
//! verification, extended to the fast paths of the partition bounds).
//!
//! The §4 model prices a point query as `RR + SR·(blocks − 1)` (Eq. 7):
//! one random jump into the target partition, then a sequential scan of
//! its remaining blocks. The scan kernels consult each partition's
//! covering bounds first (the paper's Zonemaps, §6.3), which adds two fast
//! paths the closed form cannot express. A point probe of an empty
//! partition, or of a value outside the target partition's bounds,
//! touches *zero* blocks (a pruned miss). A range scan classifies every
//! overlapping partition as pruned / blind / filtered:
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
use casper_storage::{OpCost, PayloadOrientation};

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
/// after consulting its covering bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePartKind {
    /// Bounds disjoint from the predicate (or no live values): no block of
    /// the partition is read.
    Pruned,
    /// Bounds fully inside the predicate: every live value qualifies and
    /// the partition streams blindly — the first and last partitions too,
    /// when their bounds prove it.
    Blind {
        /// Logical blocks the partition's live region spans.
        blocks: u64,
    },
    /// Bounds partially overlapping: the partition is scanned through the
    /// filtering kernel and pays its own random jump.
    Filtered {
        /// Logical blocks the partition's live region spans.
        blocks: u64,
    },
}

/// Predicted access pattern of a point query against a partition spanning
/// `blocks` live blocks. A probe the partition's bounds prune
/// (`in_bounds == false`: no live values, or the value outside its
/// covering range) resolves from metadata alone: zero blocks touched — the
/// fast path the plain Eq. 7 closed form cannot express.
pub fn predicted_point_access(in_bounds: bool, blocks: u64) -> ScanAccess {
    if !in_bounds {
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

/// Sequential blocks a range sum's payload pass streams for `rows`
/// qualifying rows projecting `k` of `width` 4-byte attributes, in blocks
/// of `block_bytes`. Column-major, one scan of the rows' words per
/// projected attribute (`k · ⌈rows / (block_bytes / 4)⌉`); row-major, the
/// rows' own bytes (`⌈rows · 4·width / block_bytes⌉`), and nothing when no
/// attribute is projected.
pub fn predicted_payload_blocks(
    orientation: PayloadOrientation,
    k: usize,
    width: usize,
    rows: usize,
    block_bytes: usize,
) -> u64 {
    match orientation {
        PayloadOrientation::Columns => (k * rows.div_ceil(block_bytes / 4)) as u64,
        PayloadOrientation::Rows if k == 0 => 0,
        PayloadOrientation::Rows => (rows * width * 4).div_ceil(block_bytes) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_storage::{BlockLayout, ChunkConfig, ChunkLayout, PartitionSpec, PartitionedChunk};

    /// Even keys 2..=32 over 4 two-block partitions (2 values per block):
    /// bounds [2,8], [10,16], [18,24], [26,32] with gaps in between.
    fn even_chunk() -> PartitionedChunk<u64> {
        PartitionedChunk::build(
            (1..=16u64).map(|x| x * 2).collect(),
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(&[2, 2, 2, 2])),
            BlockLayout {
                block_bytes: 16,
                value_width: 8,
            },
            ChunkConfig::default(),
        )
        .expect("build")
    }

    #[test]
    fn pruned_point_miss_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        // 9 falls between partition 0's bounds [2,8] and partition 1's
        // [10,16]: the probe routes to partition 1, its bounds prune it.
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

    /// Bounds only widen, so deleting a partition's minimum leaves it
    /// covering the deleted key: a probe for that key scans the partition
    /// and finds nothing, and a range starting between the old and the new
    /// minimum filters the partition instead of streaming it blindly. Both
    /// costs are the predicted ones.
    #[test]
    fn deleted_minimum_stays_inside_the_bounds() {
        let mut chunk = even_chunk();
        assert_eq!(chunk.delete(10).affected, 1);
        assert_eq!(chunk.partitions()[1].min, 10);
        let r = chunk.point_query(10);
        assert!(r.positions.is_empty());
        assert_eq!(r.partition, 1);
        assert!(
            predicted_point_access(true, 2).matches(&r.cost),
            "predicted != measured {:?}",
            r.cost
        );
        assert_eq!(r.cost.values_scanned, 3);
        // [11, 17): partition 1 now holds 12, 14, 16, all inside, but its
        // bounds [10, 16] straddle lo.
        let (n, cost) = chunk.range_count(11, 17);
        assert_eq!(n, 3);
        let pred = predicted_range_access(&[RangePartKind::Filtered { blocks: 2 }]);
        assert!(
            pred.matches(&cost),
            "predicted {pred:?} != measured {cost:?}"
        );
    }

    #[test]
    fn blind_first_last_range_matches_measured_cost_exactly() {
        let chunk = even_chunk();
        // [2, 33) covers every partition entirely: all four stream
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
        // [9, 10): routes to partition 1 but lies below its bounds — the
        // whole scan is pruned, zero blocks.
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
        // [4, 25): partition 0 filtered (bounds [2,8] straddle lo), 1
        // blind, 2 blind ([18,24] fully inside since 24 < 25), 3 pruned
        // ([26,32] disjoint).
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

    /// Q3's measured cost is the key scan of [`predicted_range_access`]
    /// plus the payload blocks its orientation streams
    /// ([`predicted_payload_blocks`]), exactly, in both orientations.
    #[test]
    fn range_sum_matches_measured_cost_exactly_per_orientation() {
        let keys: Vec<u64> = (1..=64u64).map(|x| x * 2).collect();
        let width = 15usize;
        let cols: Vec<Vec<u32>> = (0..width)
            .map(|c| keys.iter().map(|&k| k as u32 ^ c as u32).collect())
            .collect();
        // 64-byte blocks: 8 keys per block, a 60-byte row per slot.
        let layout = BlockLayout::new::<u64>(64);
        let chunk = PartitionedChunk::build_with_payloads(
            &keys,
            &cols,
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(&[2, 2, 2, 2])),
            layout,
            ChunkConfig::default(),
        )
        .expect("build");
        // [10, 101) over bounds [2,32], [34,64], [66,96], [98,128]: the
        // first and last straddle the bounds (filtered), the middle two lie
        // inside (blind).
        let (rows, _) = chunk.range_count(10, 101);
        assert_eq!(rows, 46); // 10..=100 even
        let parts = [
            RangePartKind::Filtered { blocks: 2 },
            RangePartKind::Blind { blocks: 2 },
            RangePartKind::Blind { blocks: 2 },
            RangePartKind::Filtered { blocks: 2 },
        ];
        for o in [PayloadOrientation::Columns, PayloadOrientation::Rows] {
            let c = chunk.clone().into_orientation(o);
            for k in [0usize, 1, 4, 15] {
                let proj: Vec<usize> = (0..k).collect();
                let (_, cost) = c.range_sum_payload(10, 101, &proj);
                let mut pred = predicted_range_access(&parts);
                pred.seq_reads += predicted_payload_blocks(o, k, width, 46, 64);
                assert!(
                    pred.matches(&cost),
                    "{o:?} k={k}: predicted {pred:?} != measured {cost:?}"
                );
            }
        }
        // 46 rows of 60 bytes = 2760 bytes = 44 blocks row-major, against
        // 3 blocks of 16 words per projected attribute column-major.
        assert_eq!(
            predicted_payload_blocks(PayloadOrientation::Rows, 4, 15, 46, 64),
            44
        );
        assert_eq!(
            predicted_payload_blocks(PayloadOrientation::Columns, 4, 15, 46, 64),
            12
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

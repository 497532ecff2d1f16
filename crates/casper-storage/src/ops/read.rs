//! Read operations: point and range queries over a partitioned chunk (§3,
//! Fig. 3), executed through the branchless batch kernels of
//! [`crate::kernels`], pruned on the partitions' covering bounds.
//!
//! A partition's `min`/`max` ([`crate::PartitionMeta`]) are the only copy
//! of its range. They route a value to its partition, and the paper treats
//! them as Zonemaps (§6.3): a scan consults them *before* any block is
//! touched.
//!
//! * A **point query** binary-searches the bounds for the one partition
//!   whose range may contain the value. An empty partition, or a value
//!   outside its bounds, resolves from metadata alone. Otherwise the
//!   partition is scanned with the branchless
//!   [`crate::kernels::select_eq_into`] kernel (values are unordered
//!   within a partition, so the whole live region is examined — §4.4).
//! * A **range query** binary-searches the bounds for the first and last
//!   overlapping partitions. Empty partitions and partitions whose bounds
//!   do not intersect `[lo, hi)` are pruned; partitions whose bounds lie
//!   fully inside are *blindly consumed* as whole runs (the first and last
//!   too, when their bounds prove it); the rest are *filtered* through the
//!   bitmap kernel [`crate::kernels::select_range_bitmap`].
//! * A **range sum** (HAP Q3) filters the same way, once per partition,
//!   then sums the projected payload attributes under that one bitmap
//!   ([`crate::PayloadSet::sum_masked`]: one
//!   [`crate::kernels::sum_payload_masked`] per attribute column-major,
//!   one read per selected row row-major).
//!
//! The pure-scalar reference paths live in [`crate::ops::scalar`]; property
//! tests assert result equivalence and the `scan_ops` bench tracks the
//! speedup.

use crate::chunk::PartitionedChunk;
use crate::kernels;
use crate::lane::KeyLane;
use crate::ops::OpCost;
use crate::value::ColumnValue;
use casper_obs::CounterDef;
use std::ops::Range;

// Scan telemetry: how many partitions were scanned, and how many their
// bounds pruned away entirely.
// Range scans touch hundreds of partitions per chunk, so the scan driver
// accumulates locally and flushes each counter once per chunk — a
// per-partition `inc()` costs microseconds on a full-table scan and blows
// the ≤2% telemetry budget. Point queries touch one partition and inc
// directly.
static OBS_PLAIN_SCANS: CounterDef =
    CounterDef::new("casper_scan_partitions_total{path=\"plain\"}");
static OBS_ZONE_PRUNED: CounterDef = CounterDef::new("casper_zone_partitions_pruned_total");

/// Result of a point query.
#[derive(Debug, Clone, Default)]
pub struct PointQueryResult {
    /// Physical slot positions of the matching values.
    pub positions: Vec<usize>,
    /// Access pattern performed.
    pub cost: OpCost,
    /// Partition that was scanned.
    pub partition: usize,
}

/// Result of a range query.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeQueryResult {
    /// Access pattern performed.
    pub cost: OpCost,
    /// Number of qualifying values passed to the consumer.
    pub matched: u64,
}

/// Visitor receiving the qualifying rows of a range query.
///
/// The split between [`RangeConsumer::value`] and [`RangeConsumer::run`]
/// mirrors the paper's select-operator discussion: filtered partitions
/// produce individual positions, while the blindly-consumed middle
/// partitions "can simply be copied to the next query operator".
pub trait RangeConsumer<K: ColumnValue> {
    /// One qualifying value from a filtered (first/last) partition.
    fn value(&mut self, pos: usize, v: K);
    /// A contiguous run of qualifying slots from a middle partition.
    fn run(&mut self, range: std::ops::Range<usize>);
    /// Called once when the query finishes, so buffering consumers (e.g.
    /// position coalescers) can emit pending state. Default: no-op.
    fn flush(&mut self) {}
}

/// Counts qualifying rows (HAP Q2).
#[derive(Debug, Default)]
pub struct CountConsumer {
    /// Number of qualifying rows seen.
    pub count: u64,
}

impl<K: ColumnValue> RangeConsumer<K> for CountConsumer {
    #[inline]
    fn value(&mut self, _pos: usize, _v: K) {
        self.count += 1;
    }
    #[inline]
    fn run(&mut self, range: std::ops::Range<usize>) {
        self.count += range.len() as u64;
    }
}

/// Collects qualifying slot positions and runs (select returning positions).
///
/// Adjacent positions arriving from filtered partitions are coalesced into
/// runs, so a filtered partition whose qualifying rows happen to be
/// physically contiguous costs O(1) output instead of one entry per row.
/// Isolated positions still land in [`PositionsConsumer::positions`].
#[derive(Debug, Default)]
pub struct PositionsConsumer {
    /// Individual (non-adjacent) qualifying positions.
    pub positions: Vec<usize>,
    /// Qualifying runs: blind middle partitions plus coalesced adjacent
    /// positions from filtered partitions.
    pub runs: Vec<std::ops::Range<usize>>,
    pending: Option<std::ops::Range<usize>>,
}

impl PositionsConsumer {
    /// Total qualifying slots collected (positions plus run lengths).
    pub fn total(&self) -> usize {
        self.positions.len() + self.runs.iter().map(|r| r.len()).sum::<usize>()
    }

    fn flush_pending(&mut self) {
        if let Some(r) = self.pending.take() {
            if r.len() == 1 {
                self.positions.push(r.start);
            } else {
                self.runs.push(r);
            }
        }
    }
}

impl<K: ColumnValue> RangeConsumer<K> for PositionsConsumer {
    #[inline]
    fn value(&mut self, pos: usize, _v: K) {
        match &mut self.pending {
            Some(r) if r.end == pos => r.end = pos + 1,
            _ => {
                self.flush_pending();
                self.pending = Some(pos..pos + 1);
            }
        }
    }
    #[inline]
    fn run(&mut self, range: std::ops::Range<usize>) {
        self.flush_pending();
        self.runs.push(range);
    }
    fn flush(&mut self) {
        self.flush_pending();
    }
}

/// One partition surviving pruning in a range scan, as presented to the
/// visitor of `scan_range_partitions`.
enum RangePart<'a, K: ColumnValue> {
    /// Bounds fully inside `[lo, hi)`: every live value qualifies.
    Blind(&'a crate::partition::PartitionMeta<K>),
    /// Bounds partially overlapping: the live slots must be filtered.
    Filtered(&'a crate::partition::PartitionMeta<K>),
}

/// Evaluate `[lo, hi)` over a filtered partition's `slots` into `mask`
/// (cleared first; bit `i` ⇔ slot `start + i`) with the branchless bitmap
/// kernel over the key lane. Returns the match count.
fn slot_bitmap<K: ColumnValue>(
    lane: &KeyLane<K>,
    slots: Range<usize>,
    lo: K,
    hi: K,
    mask: &mut Vec<u64>,
) -> u64 {
    mask.clear();
    // The kernels push one word at a time; size the buffer once.
    mask.reserve(slots.len().div_ceil(kernels::LANE_WIDTH));
    lane.select_range_bitmap(slots, lo, hi, mask)
}

impl<K: ColumnValue> PartitionedChunk<K> {
    /// Point query: return the positions of all live values equal to `v`
    /// (Fig. 3b).
    ///
    /// Cost: a probe of an empty partition, or outside its bounds, is
    /// answered from metadata alone (one bounds probe, no block access).
    /// A probe inside the bounds pays the full partition scan — one random
    /// read for the first block, sequential reads for the rest — because
    /// there is "no further navigation structure within a block" (§4.4).
    pub fn point_query(&self, v: K) -> PointQueryResult {
        let mut cost = OpCost::default();
        let p = self.locate(v, &mut cost);
        let part = self.parts[p];
        let mut positions = Vec::new();
        if part.len > 0 && part.covers(v) {
            self.data
                .select_eq_into(part.start..part.live_end(), v, &mut positions);
            OBS_PLAIN_SCANS.inc();
            self.charge_partition_scan(p, &mut cost);
        } else {
            // Answered from the partition's bounds alone.
            OBS_ZONE_PRUNED.inc();
        }
        PointQueryResult {
            positions,
            cost,
            partition: p,
        }
    }

    /// Range query over the half-open interval `[lo, hi)` (Fig. 3c),
    /// streaming qualifying rows into `consumer`.
    pub fn range_query<C: RangeConsumer<K>>(
        &self,
        lo: K,
        hi: K,
        consumer: &mut C,
    ) -> RangeQueryResult {
        let mut cost = OpCost::default();
        let mut matched = 0u64;
        if hi <= lo {
            return RangeQueryResult { cost, matched };
        }
        let mut mask: Vec<u64> = Vec::new();
        self.scan_range_partitions(lo, hi, &mut cost, |part| match part {
            RangePart::Blind(meta) => {
                // Every live value qualifies: hand the whole run over.
                consumer.run(meta.start..meta.live_end());
                matched += meta.len as u64;
            }
            RangePart::Filtered(meta) => {
                let slots = meta.start..meta.live_end();
                matched += slot_bitmap(&self.data, slots.clone(), lo, hi, &mut mask);
                self.data.for_each_match(slots, &mask, |pos, val| {
                    consumer.value(pos, val);
                });
            }
        });
        consumer.flush();
        RangeQueryResult { cost, matched }
    }

    /// Convenience wrapper: count rows in `[lo, hi)` (HAP Q2).
    pub fn range_count(&self, lo: K, hi: K) -> (u64, OpCost) {
        let mut cost = OpCost::default();
        let mut count = 0u64;
        if hi <= lo {
            return (count, cost);
        }
        self.scan_range_partitions(lo, hi, &mut cost, |part| match part {
            RangePart::Blind(meta) => count += meta.len as u64,
            // Pure count: no positions materialized at all.
            RangePart::Filtered(meta) => {
                count += self.data.count_range(meta.start..meta.live_end(), lo, hi);
            }
        });
        (count, cost)
    }

    /// Convenience wrapper: sum the given payload attributes over all rows
    /// in `[lo, hi)` (HAP Q3). A filtered partition evaluates the key
    /// predicate once, into the same slot bitmap [`Self::range_query`]
    /// builds, and then sums the projected attributes under it
    /// (`PayloadSet::sum_masked`) — the paper's "retrieve the
    /// qualifying positions to evaluate the subsequent" columns (§6.4).
    /// Blind partitions sum their contiguous run of rows.
    pub fn range_sum_payload(&self, lo: K, hi: K, cols: &[usize]) -> (u64, OpCost) {
        let mut cost = OpCost::default();
        if hi <= lo {
            return (0, cost);
        }
        let mut sum = 0u64;
        let mut qualifying = 0usize;
        let mut mask: Vec<u64> = Vec::new();
        self.scan_range_partitions(lo, hi, &mut cost, |part| match part {
            RangePart::Blind(meta) => {
                sum += self.payloads.sum_range(cols, meta.start..meta.live_end());
                qualifying += meta.len;
            }
            RangePart::Filtered(meta) => {
                let slots = meta.start..meta.live_end();
                let m = slot_bitmap(&self.data, slots, lo, hi, &mut mask);
                qualifying += m as usize;
                if m > 0 {
                    sum += self
                        .payloads
                        .sum_masked(cols, meta.start..meta.live_end(), &mask);
                }
            }
        });
        // Payload reads stream the qualifying rows' blocks: one scan per
        // projected attribute column-major, the whole rows row-major.
        cost.seq_reads +=
            self.payloads
                .scan_blocks(cols.len(), qualifying, self.layout.block_bytes);
        (sum, cost)
    }

    /// Shared driver for the range read paths: computes the partition span,
    /// prunes on the bounds, classifies each surviving partition blind vs
    /// filtered, and performs all block-cost accounting. The first
    /// partition actually read pays the random jump; everything after
    /// streams sequentially.
    fn scan_range_partitions(
        &self,
        lo: K,
        hi: K,
        cost: &mut OpCost,
        mut visit: impl FnMut(RangePart<'_, K>),
    ) {
        let (first, last) = self.range_partition_span(lo, hi, cost);
        let mut first_touch = true;
        // Telemetry accumulates in locals and flushes once per chunk scan:
        // a shared-counter add per partition is measurable on a full scan.
        let (mut scanned, mut pruned) = (0u64, 0u64);
        for p in first..=last {
            let part = &self.parts[p];
            if part.len == 0 || !(part.min < hi && lo <= part.max) {
                pruned += 1;
                continue; // pruned on its bounds: no block of `p` is read
            }
            if lo <= part.min && part.max < hi {
                visit(RangePart::Blind(part));
                let blocks = self.live_blocks(p) as u64;
                if first_touch {
                    cost.random_reads += 1;
                    cost.seq_reads += blocks.saturating_sub(1);
                } else {
                    cost.seq_reads += blocks;
                }
                cost.values_scanned += part.len as u64;
            } else {
                visit(RangePart::Filtered(part));
                self.charge_partition_scan(p, cost);
            }
            scanned += 1;
            first_touch = false;
        }
        if scanned > 0 {
            OBS_PLAIN_SCANS.add(scanned);
        }
        if pruned > 0 {
            OBS_ZONE_PRUNED.add(pruned);
        }
    }

    /// First and last partition indices overlapping `[lo, hi)`. Charges the
    /// two bounds probes on `cost`.
    pub(crate) fn range_partition_span(&self, lo: K, hi: K, cost: &mut OpCost) -> (usize, usize) {
        let first = self.locate(lo, cost);
        // Last partition overlapping [lo, hi): the last whose covering min
        // is below `hi`. Covering mins are monotone (a partition's range
        // only ever widens, and never past its neighbours' bounds), so a
        // binary search finds it.
        cost.index_probes += 1;
        let below = self.parts.partition_point(|p| p.min < hi);
        (first, below.saturating_sub(1).max(first))
    }

    /// Charge the cost of fully scanning partition `p`'s live region: one
    /// random read to reach it, sequential reads for its remaining blocks.
    pub(crate) fn charge_partition_scan(&self, p: usize, cost: &mut OpCost) {
        let blocks = self.live_blocks(p) as u64;
        if blocks > 0 {
            cost.random_reads += 1;
            cost.seq_reads += blocks - 1;
        } else {
            // Empty partition: the probe alone suffices, but charge the
            // random read the model predicts for the ideal case.
            cost.random_reads += 1;
        }
        cost.values_scanned += self.parts[p].len as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkConfig;
    use crate::layout::{BlockLayout, ChunkLayout, PartitionSpec};

    fn tiny_layout() -> BlockLayout {
        BlockLayout {
            block_bytes: 16,
            value_width: 8,
        } // 2 values per block
    }

    fn chunk_1_to_16(sizes: &[usize]) -> PartitionedChunk<u64> {
        PartitionedChunk::build(
            (1..=16).collect(),
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(sizes)),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap()
    }

    /// Even keys 2..=32 so the domain has gaps inside every partition's
    /// bounds.
    fn chunk_even_2_to_32(sizes: &[usize]) -> PartitionedChunk<u64> {
        PartitionedChunk::build(
            (1..=16).map(|x| x * 2).collect(),
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(sizes)),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn point_query_finds_value() {
        let c = chunk_1_to_16(&[2, 2, 2, 2]);
        let r = c.point_query(7);
        assert_eq!(r.positions.len(), 1);
        assert_eq!(c.data.get(r.positions[0]), 7);
        assert_eq!(r.partition, 1); // values 5..8
    }

    #[test]
    fn point_query_out_of_zone_is_pruned() {
        let c = chunk_1_to_16(&[2, 2, 2, 2]);
        let r = c.point_query(100); // beyond every partition's bounds
        assert!(r.positions.is_empty());
        // The bounds resolved the miss from metadata: no blocks touched.
        assert_eq!(r.cost.values_scanned, 0);
        assert_eq!(r.cost.random_reads + r.cost.seq_reads, 0);
        assert_eq!(r.cost.index_probes, 1);
    }

    #[test]
    fn point_query_in_zone_miss_still_scans() {
        let c = chunk_even_2_to_32(&[2, 2, 2, 2]);
        // Bounds are [2,8], [10,16], [18,24], [26,32]. 11 is a gap value
        // inside partition 1's bounds.
        let r = c.point_query(11);
        assert!(r.positions.is_empty());
        // Empty point queries inside the bounds cost the same as hits (§4.4).
        assert!(r.cost.values_scanned > 0);
        assert!(r.cost.random_reads >= 1);
    }

    #[test]
    fn point_query_cost_scales_with_partition_size() {
        // One partition of 8 blocks vs eight partitions of 1 block.
        let big = chunk_1_to_16(&[8]);
        let small = chunk_1_to_16(&[1; 8]);
        let rb = big.point_query(3);
        let rs = small.point_query(3);
        assert_eq!(rb.cost.random_reads, 1);
        assert_eq!(rb.cost.seq_reads, 7);
        assert_eq!(rs.cost.random_reads, 1);
        assert_eq!(rs.cost.seq_reads, 0);
    }

    #[test]
    fn point_query_duplicates_all_found() {
        let c = PartitionedChunk::build(
            vec![5u64, 5, 5, 1, 2, 3, 9, 9],
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(&[2, 2])),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        let r = c.point_query(5);
        assert_eq!(r.positions.len(), 3);
    }

    #[test]
    fn range_count_exact() {
        let c = chunk_1_to_16(&[2, 2, 2, 2]);
        let (n, _) = c.range_count(3, 11);
        assert_eq!(n, 8); // 3..=10
        let (n, _) = c.range_count(1, 17);
        assert_eq!(n, 16);
        let (n, _) = c.range_count(8, 8);
        assert_eq!(n, 0);
        let (n, _) = c.range_count(16, 16000);
        assert_eq!(n, 1);
    }

    #[test]
    fn range_query_blind_middles_are_runs() {
        let c = chunk_1_to_16(&[1, 1, 1, 1, 1, 1, 1, 1]);
        let mut pc = PositionsConsumer::default();
        let r = c.range_query(2, 15, &mut pc);
        assert_eq!(r.matched, 13); // 2..=14
        assert!(!pc.runs.is_empty(), "middle partitions must arrive as runs");
        assert_eq!(pc.total(), 13);
    }

    #[test]
    fn range_query_single_partition_coalesces_adjacent_matches() {
        let c = chunk_1_to_16(&[8]);
        let mut pc = PositionsConsumer::default();
        let r = c.range_query(5, 9, &mut pc);
        assert_eq!(r.matched, 4);
        assert_eq!(pc.total(), 4);
        // The filtered partition's four adjacent matches coalesce into one
        // run instead of four scattered positions.
        assert_eq!(pc.runs.len(), 1);
        assert!(pc.positions.is_empty());
    }

    #[test]
    fn positions_consumer_keeps_isolated_positions() {
        let mut pc = PositionsConsumer::default();
        <PositionsConsumer as RangeConsumer<u64>>::value(&mut pc, 3, 0);
        <PositionsConsumer as RangeConsumer<u64>>::value(&mut pc, 7, 0);
        <PositionsConsumer as RangeConsumer<u64>>::value(&mut pc, 8, 0);
        <PositionsConsumer as RangeConsumer<u64>>::value(&mut pc, 9, 0);
        <PositionsConsumer as RangeConsumer<u64>>::flush(&mut pc);
        assert_eq!(pc.positions, vec![3]);
        assert_eq!(pc.runs, vec![7..10]);
        assert_eq!(pc.total(), 4);
    }

    #[test]
    fn range_cost_zone_blind_boundaries() {
        let c = chunk_1_to_16(&[2, 2, 2, 2]);
        // Covers all four partitions exactly. The bounds prove even the
        // first and last partitions are fully inside, so all 8 blocks are
        // consumed blindly: one random jump, then sequential streaming.
        let (_, cost) = c.range_count(1, 17);
        assert_eq!(cost.random_reads, 1);
        assert_eq!(cost.seq_reads, 7);
        // A range that clips the boundary partitions must filter them:
        // partitions 0 and 3 pay a random read each, middles stay blind.
        let (n, cost) = c.range_count(2, 16);
        assert_eq!(n, 14);
        assert_eq!(cost.random_reads, 2);
        assert_eq!(cost.seq_reads, 6);
    }

    #[test]
    fn range_query_prunes_disjoint_zones() {
        // Partition bounds: [2,8], [10,16], [18,24], [26,32].
        let c = chunk_even_2_to_32(&[2, 2, 2, 2]);
        // [9, 10): routes to partition 1 but lies below its bounds —
        // pruned without scanning.
        let (n, cost) = c.range_count(9, 10);
        assert_eq!(n, 0);
        assert_eq!(cost.values_scanned, 0);
        assert_eq!(cost.random_reads + cost.seq_reads, 0);
    }

    #[test]
    fn range_sum_payload_sums_only_qualifying() {
        let keys: Vec<u64> = (1..=8).collect();
        let pay: Vec<u32> = keys.iter().map(|&k| (k * 10) as u32).collect();
        let c = PartitionedChunk::build_with_payloads(
            &keys,
            &[pay],
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(&[1, 1, 1, 1])),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        let (sum, _) = c.range_sum_payload(2, 6, &[0]);
        assert_eq!(sum, (20 + 30 + 40 + 50) as u64);
    }

    #[test]
    fn empty_range_is_free_of_matches() {
        let c = chunk_1_to_16(&[4, 4]);
        let (n, _) = c.range_count(10, 5);
        assert_eq!(n, 0);
    }

    /// The binary-searched span equals the linear definition (`first` the
    /// first partition whose max is at least `lo`, else the last; `last`
    /// the last partition whose covering min is below `hi`, never before
    /// `first`) with emptied partitions, and with `hi` below, inside and
    /// above the chunk.
    #[test]
    fn range_partition_span_matches_linear_definition() {
        let linear = |c: &PartitionedChunk<u64>, lo: u64, hi: u64| {
            let k = c.parts.len();
            let first = c.parts.iter().position(|p| p.max >= lo).unwrap_or(k - 1);
            let last = c
                .parts
                .iter()
                .enumerate()
                .take_while(|(_, p)| p.min < hi)
                .map(|(i, _)| i)
                .last()
                .unwrap_or(first)
                .max(first);
            (first, last)
        };
        let mut c = chunk_even_2_to_32(&[1, 1, 2, 1, 1, 1, 1]);
        // Empty partitions 1 and 4 (keys 6, 8 and 22, 24) out.
        for v in [6, 8, 22, 24] {
            assert_eq!(c.delete(v).affected, 1);
        }
        assert_eq!(c.parts[1].len, 0);
        assert_eq!(c.parts[4].len, 0);
        for lo in 0..40u64 {
            for hi in 0..45u64 {
                let mut cost = OpCost::default();
                assert_eq!(
                    c.range_partition_span(lo, hi, &mut cost),
                    linear(&c, lo, hi),
                    "[{lo}, {hi})"
                );
                assert_eq!(cost.index_probes, 2);
            }
        }
    }

    #[test]
    fn kernel_paths_agree_with_scalar_reference() {
        let c = chunk_even_2_to_32(&[2, 1, 3, 2]);
        for v in 0..40u64 {
            assert_eq!(
                c.point_query(v).positions,
                c.point_query_scalar(v).positions,
                "point({v})"
            );
        }
        for lo in 0..36u64 {
            for hi in lo..38 {
                assert_eq!(
                    c.range_count(lo, hi).0,
                    c.range_count_scalar(lo, hi).0,
                    "count[{lo},{hi})"
                );
            }
        }
    }
}

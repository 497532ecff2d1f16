//! Scalar reference implementations of the read paths.
//!
//! These are the original branchy, one-value-at-a-time loops, retained
//! verbatim (no pruning on partition bounds, no batch kernels) for two
//! purposes:
//!
//! * **equivalence testing** — property tests assert the kernel paths in
//!   `ops::read` return bit-identical results;
//! * **benchmarking** — `casper-bench`'s `scan_ops` bench measures the
//!   kernel speedup against these baselines on the same data.
//!
//! They are not wired into the engine; production reads always take the
//! kernel paths. They read the key lane one decoded slot at a time, so they
//! also check the narrow lane's rebased predicates rather than share them.

use crate::chunk::PartitionedChunk;
use crate::ops::read::{PointQueryResult, PositionsConsumer, RangeConsumer, RangeQueryResult};
use crate::ops::OpCost;
use crate::value::ColumnValue;

impl<K: ColumnValue> PartitionedChunk<K> {
    /// Scalar twin of [`PartitionedChunk::point_query`]: branchy per-value
    /// loop that always pays the partition scan, also when the bounds
    /// exclude `v`.
    pub fn point_query_scalar(&self, v: K) -> PointQueryResult {
        let mut cost = OpCost::default();
        let p = self.locate(v, &mut cost);
        let part = self.parts[p];
        let mut positions = Vec::new();
        if part.len > 0 && part.covers(v) {
            for pos in part.start..part.live_end() {
                if self.data.get(pos) == v {
                    positions.push(pos);
                }
            }
        }
        self.charge_partition_scan(p, &mut cost);
        PointQueryResult {
            positions,
            cost,
            partition: p,
        }
    }

    /// Scalar twin of [`PartitionedChunk::range_query`]: blind consumption
    /// only for strict middle partitions, per-value filtering elsewhere.
    pub fn range_query_scalar<C: RangeConsumer<K>>(
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
        let (first, last) = self.range_partition_span(lo, hi, &mut cost);
        for p in first..=last {
            let part = self.parts[p];
            if part.len == 0 {
                continue;
            }
            let fully_inside = lo <= part.min && part.max < hi;
            if fully_inside && p != first && p != last {
                consumer.run(part.start..part.live_end());
                matched += part.len as u64;
                cost.seq_reads += self.live_blocks(p) as u64;
                cost.values_scanned += part.len as u64;
            } else {
                for pos in part.start..part.live_end() {
                    let x = self.data.get(pos);
                    if lo <= x && x < hi {
                        consumer.value(pos, x);
                        matched += 1;
                    }
                }
                self.charge_partition_scan(p, &mut cost);
            }
        }
        consumer.flush();
        RangeQueryResult { cost, matched }
    }

    /// Scalar twin of [`PartitionedChunk::range_count`].
    pub fn range_count_scalar(&self, lo: K, hi: K) -> (u64, OpCost) {
        let mut c = crate::ops::read::CountConsumer::default();
        let r = self.range_query_scalar(lo, hi, &mut c);
        (c.count, r.cost)
    }

    /// Scalar twin of [`PartitionedChunk::range_sum_payload`]: positions
    /// are materialized through a consumer and summed one slot at a time.
    pub fn range_sum_payload_scalar(&self, lo: K, hi: K, cols: &[usize]) -> (u64, OpCost) {
        let mut pc = PositionsConsumer::default();
        let r = self.range_query_scalar(lo, hi, &mut pc);
        let mut cost = r.cost;
        let mut sum = self.payloads.sum_positions(cols, &pc.positions);
        for run in &pc.runs {
            sum += self.payloads.sum_range(cols, run.clone());
        }
        cost.seq_reads +=
            self.payloads
                .scan_blocks(cols.len(), pc.total(), self.layout.block_bytes);
        (sum, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkConfig;
    use crate::layout::{BlockLayout, ChunkLayout, PartitionSpec};

    fn chunk() -> PartitionedChunk<u64> {
        PartitionedChunk::build_with_payloads(
            &(1..=32).map(|x| x * 3).collect::<Vec<_>>(),
            &[(0..32u32).map(|i| i + 100).collect::<Vec<u32>>()],
            &ChunkLayout::with_ghosts(
                PartitionSpec::from_block_sizes(&[2, 3, 2, 1]),
                vec![1, 0, 2, 0],
            ),
            BlockLayout {
                block_bytes: 32,
                value_width: 8,
            },
            ChunkConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn scalar_point_query_behaves_like_original() {
        let c = chunk();
        assert_eq!(c.point_query_scalar(9).positions.len(), 1);
        let miss = c.point_query_scalar(1000);
        assert!(miss.positions.is_empty());
        // The scalar path keeps the original semantics: misses pay the
        // full partition scan.
        assert!(miss.cost.values_scanned > 0);
    }

    #[test]
    fn scalar_and_kernel_results_agree_on_sums() {
        let c = chunk();
        for (lo, hi) in [(0u64, 200), (10, 50), (33, 34), (95, 97), (5, 5)] {
            assert_eq!(
                c.range_sum_payload(lo, hi, &[0]).0,
                c.range_sum_payload_scalar(lo, hi, &[0]).0,
                "sum[{lo},{hi})"
            );
            assert_eq!(
                c.range_count(lo, hi).0,
                c.range_count_scalar(lo, hi).0,
                "count[{lo},{hi})"
            );
        }
    }
}

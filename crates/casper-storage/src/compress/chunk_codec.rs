//! Per-partition compression of a partitioned chunk (§6.2 integration).
//!
//! "When delta encoding is used, a synergy between the partitioning and
//! the compression effort is created. In fact, Casper tends to finely
//! partition areas that attract more queries, thus enabling better delta
//! compression since the value range of small partitions is also small.
//! ... The more we read a partition the more compressed it is, leading to
//! less overall data movement."
//!
//! [`CompressedChunk`] snapshots a [`PartitionedChunk`]'s live data with
//! one frame-of-reference fragment per partition and answers range counts
//! directly on the encoded representation. It is the read-optimized
//! "frozen" form a chunk can be flipped into between update bursts.

use super::for_delta::ForBlock;
use super::Codec;
use crate::chunk::PartitionedChunk;
use crate::value::ColumnValue;

/// A frame-of-reference compressed snapshot of a partitioned chunk.
#[derive(Debug, Clone)]
pub struct CompressedChunk<K: ColumnValue> {
    /// One FoR fragment per partition (live values, sorted).
    fragments: Vec<ForBlock<K>>,
    /// Inclusive upper bound per partition for routing.
    bounds: Vec<K>,
    live: usize,
}

impl<K: ColumnValue> CompressedChunk<K> {
    /// Snapshot a chunk: each partition's live values become one sorted
    /// FoR fragment.
    pub fn from_chunk(chunk: &PartitionedChunk<K>) -> Self {
        let mut fragments = Vec::with_capacity(chunk.partition_count());
        let mut bounds = Vec::with_capacity(chunk.partition_count());
        for (p, meta) in chunk.partitions().iter().enumerate() {
            let mut vals = chunk.partition_values(p).to_vec();
            vals.sort_unstable();
            fragments.push(ForBlock::encode(&vals));
            bounds.push(meta.max);
        }
        Self {
            fragments,
            bounds,
            live: chunk.live_len(),
        }
    }

    /// Total live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the snapshot holds no values.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Encoded payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.fragments.iter().map(Codec::encoded_bytes).sum()
    }

    /// Compression ratio against the plain fixed-width representation.
    pub fn compression_ratio(&self) -> f64 {
        super::compression_ratio(self.live * K::WIDTH, self.encoded_bytes())
    }

    /// Count live values in `[lo, hi)` without decompressing: partitions
    /// fully inside the range contribute their cardinality, boundary
    /// partitions scan their encoded offsets.
    pub fn range_count(&self, lo: K, hi: K) -> u64 {
        if hi <= lo {
            return 0;
        }
        let mut total = 0u64;
        let mut prev_bound: Option<K> = None;
        for (frag, &bound) in self.fragments.iter().zip(&self.bounds) {
            let below = prev_bound.is_some_and(|p| p >= hi);
            prev_bound = Some(bound);
            if below {
                break;
            }
            // Partition fully inside: all values qualify.
            let part_min_above_lo = match prev_bound {
                _ if frag.is_empty() => {
                    continue;
                }
                _ => K::from_ordered_u64(frag.base()),
            };
            if lo <= part_min_above_lo && bound < hi {
                total += frag.len() as u64;
            } else {
                total += frag.count_in_range(lo, hi);
            }
        }
        total
    }

    /// Decode everything back (snapshot restore).
    pub fn decode_all(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.live);
        for f in &self.fragments {
            out.extend(f.decode());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghost::GhostPlan;
    use crate::layout::{BlockLayout, PartitionSpec};
    use crate::ChunkConfig;

    fn layout() -> BlockLayout {
        BlockLayout {
            block_bytes: 64,
            value_width: 8,
        } // 8 values per block
    }

    fn chunk(values: Vec<u64>, sizes: &[usize]) -> PartitionedChunk<u64> {
        PartitionedChunk::build(
            values,
            &PartitionSpec::from_block_sizes(sizes),
            layout(),
            &GhostPlan::none(sizes.len()),
            ChunkConfig::default(),
        )
        .expect("build")
    }

    #[test]
    fn snapshot_round_trips() {
        let values: Vec<u64> = (0..64u64).map(|i| i * 7).collect();
        let c = chunk(values.clone(), &[4, 4]);
        let z = CompressedChunk::from_chunk(&c);
        assert_eq!(z.len(), 64);
        let mut decoded = z.decode_all();
        decoded.sort_unstable();
        assert_eq!(decoded, values);
    }

    #[test]
    fn range_count_matches_chunk() {
        let values: Vec<u64> = (0..128u64).map(|i| i * 3).collect();
        let c = chunk(values, &[4, 4, 4, 4]);
        let z = CompressedChunk::from_chunk(&c);
        for (lo, hi) in [(0u64, 1000), (10, 50), (100, 101), (383, 385), (50, 10)] {
            let (want, _) = c.range_count(lo, hi);
            assert_eq!(z.range_count(lo, hi), want, "range [{lo},{hi})");
        }
    }

    #[test]
    fn finer_partitions_compress_better() {
        // Wide-domain data: whole-chunk offsets need 4 bytes, per-partition
        // offsets fit in 2.
        let values: Vec<u64> = (0..512u64).map(|i| i * 300).collect();
        let coarse = CompressedChunk::from_chunk(&chunk(values.clone(), &[64]));
        let fine = CompressedChunk::from_chunk(&chunk(values, &[8; 8]));
        assert!(
            fine.encoded_bytes() < coarse.encoded_bytes(),
            "fine {} vs coarse {}",
            fine.encoded_bytes(),
            coarse.encoded_bytes()
        );
        assert!(fine.compression_ratio() > coarse.compression_ratio());
    }

    #[test]
    fn survives_updates_before_snapshot() {
        let values: Vec<u64> = (0..64u64).map(|i| i * 2).collect();
        let mut c = chunk(values, &[4, 4]);
        c.insert(33, &[]).expect("insert");
        c.delete(10);
        c.update(20, 21).expect("update");
        let z = CompressedChunk::from_chunk(&c);
        assert_eq!(z.len(), c.live_len());
        assert_eq!(z.range_count(0, 1000), c.live_len() as u64);
        assert_eq!(z.range_count(33, 34), 1);
        assert_eq!(z.range_count(10, 11), 0);
    }
}

//! Applying the §6.2 storage-mode policy to rebuilt chunks.
//!
//! `casper-core::cost` decides *which* partitions are cold enough to
//! compress (from the Frequency Model); this module decides *how* — it
//! inspects each advised partition's actual data and picks the codec with
//! the smallest estimated encoded footprint (frame-of-reference for narrow
//! value spans, dictionary for low cardinality, RLE for heavy duplication),
//! staying plain when no codec wins. Write traffic reverts compressed
//! partitions transparently via the chunk's decode-on-write escape hatch,
//! so a mis-predicted partition costs one decode, never correctness.

use casper_core::cost::CompressionAdvice;
use casper_core::{FrequencyModel, Segmentation};
use casper_storage::compress::dictionary::CodeWidth;
use casper_storage::compress::for_delta::OffsetWidth;
use casper_storage::{ColumnValue, PartitionedChunk, StorageMode};

/// Outcome of one chunk's compression pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressionReport {
    /// Partitions that received an encoded fragment.
    pub compressed_partitions: usize,
    /// Plain bytes of the live values in those partitions.
    pub plain_bytes: usize,
    /// Their total encoded bytes.
    pub encoded_bytes: usize,
}

impl CompressionReport {
    /// Compression ratio achieved over the compressed partitions (1.0 when
    /// nothing compressed).
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.plain_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

/// Estimated encoded bytes per codec for `values`; used to pick the
/// best-fitting mode without encoding three times.
fn estimate_modes<K: ColumnValue>(values: &[K]) -> [(StorageMode, usize); 3] {
    let n = values.len();
    let mut sorted: Vec<u64> = values.iter().map(|v| v.to_ordered_u64()).collect();
    sorted.sort_unstable();
    let span = sorted.last().map_or(0, |hi| hi - sorted[0]);
    let for_bytes = 8 + n * OffsetWidth::for_span(span).bytes();
    let mut distinct = 0usize;
    let mut runs = 0usize;
    let mut prev = None;
    for &v in &sorted {
        if prev != Some(v) {
            distinct += 1;
            runs += 1;
        }
        prev = Some(v);
    }
    let dict_bytes = distinct * K::WIDTH + n * CodeWidth::for_cardinality(distinct).bytes();
    let rle_bytes = runs * (K::WIDTH + 4);
    [
        (StorageMode::For, for_bytes),
        (StorageMode::Dict, dict_bytes),
        (StorageMode::Rle, rle_bytes),
    ]
}

/// Pick the storage mode with the smallest estimated footprint, or `Plain`
/// when no codec beats the fixed-width slots.
pub fn choose_mode<K: ColumnValue>(values: &[K]) -> StorageMode {
    if values.is_empty() {
        return StorageMode::Plain;
    }
    let plain = values.len() * K::WIDTH;
    estimate_modes(values)
        .into_iter()
        .filter(|&(_, bytes)| bytes < plain)
        .min_by_key(|&(_, bytes)| bytes)
        .map_or(StorageMode::Plain, |(mode, _)| mode)
}

/// Apply the cost layer's per-partition advice to a freshly rebuilt chunk:
/// advised-cold partitions are encoded under their best-fitting codec.
pub fn apply_compression_policy<K: ColumnValue>(
    chunk: &mut PartitionedChunk<K>,
    fm: &FrequencyModel,
    seg: &Segmentation,
    write_threshold: f64,
) -> CompressionReport {
    let advice = casper_core::cost::advise_compression(fm, seg, write_threshold);
    debug_assert_eq!(advice.len(), chunk.partition_count());
    let mut report = CompressionReport::default();
    for (p, advice) in advice.iter().enumerate().take(chunk.partition_count()) {
        if *advice != CompressionAdvice::Compress {
            continue;
        }
        let mode = choose_mode(&chunk.partition_values(p));
        if mode == StorageMode::Plain {
            continue;
        }
        chunk.compress_partition(p, mode);
        if let Some(frag) = chunk.partition_fragment(p) {
            report.compressed_partitions += 1;
            report.plain_bytes += frag.len() * K::WIDTH;
            report.encoded_bytes += frag.encoded_bytes();
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_storage::ghost::GhostPlan;
    use casper_storage::{BlockLayout, ChunkConfig, PartitionSpec};

    #[test]
    fn choose_mode_matches_data_shape() {
        // Narrow span → FoR wins (u8 offsets beat a dictionary that must
        // store the distinct values at full width).
        let narrow: Vec<u64> = (0..1000u64).map(|i| 5_000_000 + i % 200).collect();
        assert_eq!(choose_mode(&narrow), StorageMode::For);
        // Few distinct values scattered over a huge span, few runs → RLE
        // estimate (runs ≈ distinct) is smallest.
        let dup: Vec<u64> = (0..1000u64).map(|i| (i % 3) * (1 << 40)).collect();
        assert_eq!(choose_mode(&dup), StorageMode::Rle);
        // Moderate cardinality over a huge span with many runs: dictionary.
        let dict: Vec<u64> = (0..1000u64).map(|i| (i % 100) * (1 << 40)).collect();
        assert!(matches!(
            choose_mode(&dict),
            StorageMode::Dict | StorageMode::Rle
        ));
        // Incompressible: full-width span, all distinct.
        let wide: Vec<u64> = (0..1000u64).map(|i| i * (u64::MAX / 1001)).collect();
        assert_eq!(choose_mode(&wide), StorageMode::Plain);
        assert_eq!(choose_mode(&[] as &[u64]), StorageMode::Plain);
    }

    #[test]
    fn policy_compresses_cold_partitions_only() {
        let layout = BlockLayout {
            block_bytes: 16,
            value_width: 8,
        }; // 2 values per block
        let mut chunk = PartitionedChunk::build(
            (0..32u64).map(|i| 1000 + i).collect(),
            &PartitionSpec::from_block_sizes(&[4, 4, 4, 4]),
            layout,
            &GhostPlan::none(4),
            ChunkConfig::default(),
        )
        .expect("build");
        let seg = Segmentation::equi(16, 4);
        let mut fm = FrequencyModel::new(16);
        for b in 0..16 {
            fm.pq[b] = 10.0; // reads everywhere
        }
        fm.ins[2] = 100.0; // hot writes in partition 0
        let report = apply_compression_policy(&mut chunk, &fm, &seg, 0.05);
        assert_eq!(report.compressed_partitions, 3);
        assert_eq!(chunk.partition_mode(0), StorageMode::Plain);
        for p in 1..4 {
            assert_ne!(chunk.partition_mode(p), StorageMode::Plain, "partition {p}");
        }
        assert!(report.ratio() > 1.0);
        chunk.validate_invariants().expect("fragments consistent");
        // Reads stay bit-exact over the mixed-mode chunk.
        assert_eq!(chunk.range_count(1000, 1032).0, 32);
        assert_eq!(chunk.point_query(1010).positions.len(), 1);
    }
}

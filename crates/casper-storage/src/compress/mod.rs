//! Columnar compression codecs (§6.2).
//!
//! Casper natively supports the two schemes most common in modern
//! column stores — **dictionary** and **frame-of-reference** (delta)
//! compression — and we also implement **RLE** to reproduce the paper's
//! discussion of why it is usually *not* preferred for updatable columns
//! (it requires sorted data and a decode/re-encode cycle on every update).
//!
//! The §6.2 synergy is exercised by [`for_delta::ForBlock`]: finer
//! partitions span narrower value ranges, so their frame-of-reference
//! deltas need fewer bits — "the more we read a partition the more
//! compressed it is".
//!
//! Scans over encoded fragments never decode: the codec-aware kernels live
//! in [`crate::kernels::compressed`] and a per-thread [`telemetry`] counter
//! lets tests *prove* the no-decode property. Chunks opt partitions into a
//! [`StorageMode`] via [`crate::PartitionedChunk::compress_partition`].

pub mod dictionary;
pub mod for_delta;
pub mod rle;

pub use dictionary::Dictionary;
pub use for_delta::ForBlock;
pub use rle::Rle;

/// A self-describing encoded column fragment.
pub trait Codec<K> {
    /// Decode back to plain values.
    fn decode(&self) -> Vec<K>;
    /// Size of the encoded representation in bytes (payload only, excluding
    /// Rust struct overhead — the quantity compression ratios are computed
    /// from).
    fn encoded_bytes(&self) -> usize;
    /// Number of encoded values.
    fn len(&self) -> usize;
    /// Whether the fragment is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Count encoded values in `[lo, hi)` *without* decompressing — the
    /// predicate-pushdown scan analytical engines rely on.
    ///
    /// Contract: a degenerate range (`lo >= hi`) returns 0 for **every**
    /// codec (pinned by `degenerate_range_contract` below).
    fn count_in_range(&self, lo: K, hi: K) -> u64;
}

/// Physical storage mode of one chunk partition: plain slots, or one of the
/// three §6.2 codecs. Chosen per partition by the engine's optimizer —
/// cold, read-heavy partitions compress; hot write targets stay plain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// Uncompressed fixed-width slots (the write-friendly default).
    #[default]
    Plain,
    /// Frame-of-reference packed offsets (the §6.2 synergy codec).
    For,
    /// Order-preserving dictionary codes.
    Dict,
    /// Run-length encoded (sorted) — read-only until a decode-on-write.
    Rle,
}

impl StorageMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StorageMode::Plain => "plain",
            StorageMode::For => "for",
            StorageMode::Dict => "dict",
            StorageMode::Rle => "rle",
        }
    }
}

/// Per-thread decode/encode instrumentation.
///
/// Every [`Codec::decode`] call bumps a thread-local counter, which lets
/// tests assert that a compressed read path ran end-to-end *without*
/// decompression (the acceptance criterion of the compressed-scan kernels).
/// Every codec *encode* bumps a second counter, which lets the durability
/// tests assert that restoring a snapshot re-materializes fragments from
/// their serialized bytes with **zero re-encodes** (the recovery-path
/// acceptance criterion). Thread-local (not global) so parallel test
/// threads cannot pollute each other's measurements.
pub mod telemetry {
    use std::cell::Cell;

    thread_local! {
        static DECODES: Cell<u64> = const { Cell::new(0) };
        static ENCODES: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one decode (called by the codecs).
    pub(crate) fn note_decode() {
        DECODES.with(|c| c.set(c.get() + 1));
    }

    /// Number of codec decodes performed by the current thread.
    pub fn decode_count() -> u64 {
        DECODES.with(Cell::get)
    }

    /// Record one encode (called by the codecs; raw-parts reconstruction
    /// deliberately does *not* count).
    pub(crate) fn note_encode() {
        ENCODES.with(|c| c.set(c.get() + 1));
    }

    /// Number of codec encodes performed by the current thread.
    pub fn encode_count() -> u64 {
        ENCODES.with(Cell::get)
    }
}

/// Compression ratio of `plain_bytes` against an encoded size.
pub fn compression_ratio(plain_bytes: usize, encoded_bytes: usize) -> f64 {
    if encoded_bytes == 0 {
        return f64::INFINITY;
    }
    plain_bytes as f64 / encoded_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        assert!((compression_ratio(100, 25) - 4.0).abs() < 1e-12);
        assert!(compression_ratio(8, 0).is_infinite());
    }

    /// Satellite contract: `lo >= hi` returns 0 for all three codecs, on
    /// equal, inverted, and extreme bounds alike.
    #[test]
    fn degenerate_range_contract() {
        let vals: Vec<u64> = vec![5, 5, 7, 9, 9, 9, 12];
        let codecs: Vec<Box<dyn Codec<u64>>> = vec![
            Box::new(ForBlock::encode(&vals)),
            Box::new(Dictionary::encode(&vals)),
            Box::new(Rle::encode(&vals)),
        ];
        for c in &codecs {
            for (lo, hi) in [
                (7u64, 7u64),         // equal, value present
                (6, 6),               // equal, value absent
                (9, 5),               // inverted inside the domain
                (u64::MAX, 0),        // inverted across the full domain
                (u64::MAX, u64::MAX), // equal at the top
                (0, 0),               // equal at the bottom
                (12, 5),              // inverted touching the max value
            ] {
                assert_eq!(c.count_in_range(lo, hi), 0, "[{lo},{hi})");
            }
            // Sanity: non-degenerate ranges still count.
            assert_eq!(c.count_in_range(5, 10), 6);
            assert_eq!(c.count_in_range(0, u64::MAX), 7);
        }
    }

    #[test]
    fn degenerate_range_contract_signed() {
        let vals: Vec<i64> = vec![-9, -9, -2, 0, 4];
        let for_b = ForBlock::encode(&vals);
        let dict = Dictionary::encode(&vals);
        let rle = Rle::encode(&vals);
        for (lo, hi) in [(0i64, 0i64), (4, -9), (i64::MAX, i64::MIN), (-2, -2)] {
            assert_eq!(for_b.count_in_range(lo, hi), 0);
            assert_eq!(dict.count_in_range(lo, hi), 0);
            assert_eq!(rle.count_in_range(lo, hi), 0);
        }
        assert_eq!(for_b.count_in_range(-9, 1), 4);
        assert_eq!(dict.count_in_range(-9, 1), 4);
        assert_eq!(rle.count_in_range(-9, 1), 4);
    }

    #[test]
    fn telemetry_counts_decodes() {
        let before = telemetry::decode_count();
        let b = ForBlock::encode(&[1u64, 2, 3]);
        let _ = b.count_in_range(0, 10); // scans never decode
        assert_eq!(telemetry::decode_count(), before);
        let _ = b.decode();
        assert_eq!(telemetry::decode_count(), before + 1);
    }
}

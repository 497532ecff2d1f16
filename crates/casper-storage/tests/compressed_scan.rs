//! Compressed-execution equivalence suite.
//!
//! * Property tests: every codec-aware kernel (`count_eq`, `count_range`,
//!   `select_range_bitmap`, and the masked payload sum its bitmap drives)
//!   is bit-exact against `decode()` + the scalar baseline over arbitrary
//!   data, partitionings and `[lo, hi)` bounds — including empty, inverted
//!   and full-domain ranges.
//! * Chunk-level equivalence: a mixed-mode chunk (every partition under a
//!   different [`StorageMode`]) answers point/count/sum/select queries
//!   identically to its all-plain twin, Q3 over one and several payload
//!   columns.
//! * Mode-transition regressions: encode → write (decode-on-write) →
//!   re-encode round-trips preserve values, zone maps and ghost-value
//!   accounting; partitions emptied by deletes keep working.
//! * The no-decode guarantee: `count_range` over a FoR-compressed 1M-value
//!   chunk never calls `decode()` (asserted on the per-thread decode
//!   counter).

use casper_storage::compress::telemetry;
use casper_storage::ghost::GhostPlan;
use casper_storage::kernels::{self, Fragment};
use casper_storage::ops::PositionsConsumer;
use casper_storage::{
    BlockLayout, ChunkConfig, PartitionSpec, PartitionedChunk, StorageMode, ZoneMap,
};
use proptest::prelude::*;

const MODES: [StorageMode; 3] = [StorageMode::For, StorageMode::Dict, StorageMode::Rle];

fn tiny_layout() -> BlockLayout {
    BlockLayout {
        block_bytes: 16,
        value_width: 8,
    } // 2 values per block
}

/// Carve `n_blocks` into partition sizes driven by an arbitrary byte seed.
fn sizes_from_seed(n_blocks: usize, seed: &[u8]) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = n_blocks;
    let mut i = 0usize;
    while left > 0 {
        let s = (seed.get(i).copied().unwrap_or(1) as usize % 3 + 1).min(left);
        sizes.push(s);
        left -= s;
        i += 1;
    }
    sizes
}

/// Q3 projections: one column, all four, and a reordered subset.
const COL_SETS: [&[usize]; 3] = [&[0], &[0, 1, 2, 3], &[3, 1]];

/// Four payload lanes with distinct contents, so summing the wrong column
/// changes the result.
fn payload_lanes(n: usize) -> Vec<Vec<u32>> {
    (0..4u32)
        .map(|c| {
            (0..n as u32)
                .map(|i| i.wrapping_mul(2 * c + 3) ^ (c << 20))
                .collect()
        })
        .collect()
}

/// Build an uncompressed chunk plus a twin whose partitions cycle through
/// the three codecs.
fn plain_and_mixed(
    values: &[u64],
    payloads: Vec<Vec<u32>>,
    seed: &[u8],
) -> (PartitionedChunk<u64>, PartitionedChunk<u64>) {
    let layout = tiny_layout();
    let n_blocks = layout.num_blocks(values.len());
    let sizes = sizes_from_seed(n_blocks, seed);
    let spec = PartitionSpec::from_block_sizes(&sizes);
    let ghosts: Vec<usize> = (0..sizes.len()).map(|p| p % 2).collect();
    let plain = PartitionedChunk::build_with_payloads(
        values.to_vec(),
        payloads,
        &spec,
        layout,
        &GhostPlan::from_counts(ghosts),
        ChunkConfig::default(),
    )
    .expect("build");
    let mut mixed = plain.clone();
    for p in 0..mixed.partition_count() {
        let mode = MODES[p % MODES.len()];
        mixed.compress_partition(p, mode);
    }
    mixed.validate_invariants().expect("fragments consistent");
    (plain, mixed)
}

// ---------------------------------------------------------------------
// Fragment-level property tests: kernels vs decode() + scalar baseline
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_fragment_kernels_match_decode_then_scalar(
        vals in proptest::collection::vec(0u64..2000, 0..250),
        payload in proptest::collection::vec(any::<u32>(), 0..250),
        lo in 0u64..2200,
        hi in 0u64..2200,
    ) {
        let payload: Vec<u32> = (0..vals.len())
            .map(|i| payload.get(i).copied().unwrap_or(7))
            .collect();
        for mode in MODES {
            let frag = Fragment::encode(mode, &vals).expect("compressed mode");
            // The baseline: decode, then scan the decoded values with the
            // plain scalar predicate.
            let decoded = frag.decode();
            let want_count = decoded.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
            prop_assert_eq!(frag.count_range(lo, hi), want_count, "{:?} count", mode);

            let mut mask = Vec::new();
            let matched = frag.select_range_bitmap(lo, hi, &mut mask);
            prop_assert_eq!(matched, want_count, "{:?} bitmap count", mode);
            prop_assert_eq!(mask.len(), vals.len().div_ceil(64), "{:?} bitmap width", mode);
            for (i, &x) in decoded.iter().enumerate() {
                let bit = (mask[i / 64] >> (i % 64)) & 1;
                prop_assert_eq!(bit == 1, lo <= x && x < hi, "{:?} bit {}", mode, i);
            }

            // Payload aligned to the encoded order.
            let enc_payload: Vec<u32> = if frag.preserves_slot_order() {
                payload.clone()
            } else {
                let mut perm: Vec<u32> = (0..vals.len() as u32).collect();
                perm.sort_by_key(|&i| vals[i as usize]);
                perm.iter().map(|&i| payload[i as usize]).collect()
            };
            // The encoded bitmap drives the masked payload sum (Q3).
            let s = kernels::sum_payload_masked(&enc_payload, &mask);
            let want_sum: u64 = decoded
                .iter()
                .zip(&enc_payload)
                .filter(|(&k, _)| lo <= k && k < hi)
                .map(|(_, &p)| u64::from(p))
                .sum();
            prop_assert_eq!(s, want_sum, "{:?} masked sum", mode);
        }
    }

    #[test]
    fn prop_fragment_count_eq_matches_decode(
        vals in proptest::collection::vec(0u64..300, 0..200),
        probe in 0u64..350,
    ) {
        for mode in MODES {
            let frag = Fragment::encode(mode, &vals).expect("compressed mode");
            let want = frag.decode().iter().filter(|&&x| x == probe).count() as u64;
            prop_assert_eq!(frag.count_eq(probe), want, "{:?}", mode);
        }
    }

    #[test]
    fn prop_degenerate_and_full_ranges(
        vals in proptest::collection::vec(any::<u64>(), 1..100),
        bound in any::<u64>(),
    ) {
        for mode in MODES {
            let frag = Fragment::encode(mode, &vals).expect("compressed mode");
            // lo >= hi is empty for every codec.
            prop_assert_eq!(frag.count_range(bound, bound), 0, "{:?} equal", mode);
            prop_assert_eq!(
                frag.count_range(bound, bound.wrapping_sub(1).min(bound)), 0,
                "{:?} inverted", mode
            );
            // The full domain counts everything except u64::MAX values.
            let below_max = vals.iter().filter(|&&v| v < u64::MAX).count() as u64;
            prop_assert_eq!(frag.count_range(0, u64::MAX), below_max, "{:?} full", mode);
        }
    }

    // -----------------------------------------------------------------
    // Chunk-level equivalence over arbitrary data and partitionings
    // -----------------------------------------------------------------

    #[test]
    fn prop_mixed_mode_chunk_matches_plain_twin(
        vals in proptest::collection::vec(0u64..500, 1..200),
        seed in proptest::collection::vec(any::<u8>(), 1..32),
        lo in 0u64..550,
        hi in 0u64..550,
        probe in 0u64..550,
    ) {
        let (plain, mixed) = plain_and_mixed(&vals, payload_lanes(vals.len()), &seed);

        let a = plain.point_query(probe);
        let b = mixed.point_query(probe);
        prop_assert_eq!(&a.positions, &b.positions, "point({})", probe);

        prop_assert_eq!(
            plain.range_count(lo, hi).0,
            mixed.range_count(lo, hi).0,
            "count [{},{})", lo, hi
        );
        // FoR and Dict partitions build the Q3 bitmap from the encoded
        // lane; RLE ones fall back to the slots.
        for cols in COL_SETS {
            let want = plain.range_sum_payload_scalar(lo, hi, cols).0;
            prop_assert_eq!(plain.range_sum_payload(lo, hi, cols).0, want,
                "plain sum {:?} [{},{})", cols, lo, hi);
            prop_assert_eq!(mixed.range_sum_payload(lo, hi, cols).0, want,
                "mixed sum {:?} [{},{})", cols, lo, hi);
        }

        let mut pa = PositionsConsumer::default();
        let mut pb = PositionsConsumer::default();
        let ra = plain.range_query(lo, hi, &mut pa);
        let rb = mixed.range_query(lo, hi, &mut pb);
        prop_assert_eq!(ra.matched, rb.matched);
        prop_assert_eq!(pa.positions, pb.positions, "positions [{},{})", lo, hi);
        prop_assert_eq!(pa.runs, pb.runs, "runs [{},{})", lo, hi);
    }
}

// ---------------------------------------------------------------------
// Mode-transition regressions (decode-on-write round trips)
// ---------------------------------------------------------------------

fn build_chunk(values: Vec<u64>, sizes: &[usize], ghosts: &[usize]) -> PartitionedChunk<u64> {
    PartitionedChunk::build(
        values,
        &PartitionSpec::from_block_sizes(sizes),
        tiny_layout(),
        &GhostPlan::from_counts(ghosts.to_vec()),
        ChunkConfig::default(),
    )
    .expect("build")
}

fn live_multiset(c: &PartitionedChunk<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = (0..c.partition_count())
        .flat_map(|p| c.partition_values(p).to_vec())
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn encode_write_reencode_round_trip() {
    for mode in MODES {
        let mut c = build_chunk(
            (1..=32).map(|x| x * 10).collect(),
            &[4, 4, 4, 4],
            &[1, 1, 1, 1],
        );
        let before_values = live_multiset(&c);
        let before_zones: Vec<ZoneMap<u64>> = c.zones().to_vec();
        let before_ghosts = c.ghost_total();
        for p in 0..c.partition_count() {
            c.compress_partition(p, mode);
        }
        c.validate_invariants().expect("compressed invariants");
        assert_eq!(live_multiset(&c), before_values, "{mode:?} encode");
        assert_eq!(c.zones(), &before_zones[..], "{mode:?} zones after encode");
        assert_eq!(
            c.ghost_total(),
            before_ghosts,
            "{mode:?} ghosts after encode"
        );

        // Writes hit compressed partitions: decode-on-write must revert
        // them and keep every invariant.
        c.insert(85, &[]).expect("insert");
        assert_eq!(
            c.partition_mode(c.point_query(85).partition),
            StorageMode::Plain
        );
        let deleted = c.delete(100).affected;
        assert_eq!(deleted, 1, "{mode:?}");
        let updated = c.update(310, 15).expect("update").affected;
        assert_eq!(updated, 1, "{mode:?}");
        c.validate_invariants().expect("after writes");

        let mut expect = before_values.clone();
        expect.push(85);
        expect.retain(|&v| v != 100); // one 100 deleted (values unique)
        let idx = expect.iter().position(|&v| v == 310).expect("310 exists");
        expect[idx] = 15;
        expect.sort_unstable();
        assert_eq!(live_multiset(&c), expect, "{mode:?} after writes");

        // Re-encode everything: values, zones and ghost accounting must
        // round-trip through the plain interlude.
        let zones_plain: Vec<ZoneMap<u64>> = c.zones().to_vec();
        let ghosts_plain = c.ghost_total();
        for p in 0..c.partition_count() {
            c.compress_partition(p, mode);
        }
        c.validate_invariants().expect("re-encoded invariants");
        assert_eq!(live_multiset(&c), expect, "{mode:?} re-encode values");
        assert_eq!(c.zones(), &zones_plain[..], "{mode:?} re-encode zones");
        assert_eq!(c.ghost_total(), ghosts_plain, "{mode:?} re-encode ghosts");
    }
}

#[test]
fn ripple_through_compressed_partitions_invalidates_them() {
    // No local ghosts: an insert into partition 0 must pull the slot from
    // the far donor, rippling through the compressed middle partitions.
    let mut c = build_chunk((1..=16).collect(), &[2, 2, 2, 2], &[0, 0, 0, 3]);
    for p in 0..4 {
        c.compress_partition(p, StorageMode::For);
    }
    c.insert(2, &[]).expect("insert");
    c.validate_invariants().expect("after ripple");
    // Every partition the ripple crossed dropped its fragment.
    assert!(c.storage_modes().iter().all(|m| *m == StorageMode::Plain));
    assert_eq!(c.point_query(2).positions.len(), 2);
}

#[test]
fn partition_emptied_by_deletes_stays_consistent() {
    let mut c = build_chunk((1..=16).collect(), &[4, 4], &[0, 0]);
    c.compress_partition(0, StorageMode::Dict);
    c.compress_partition(1, StorageMode::For);
    // Empty partition 0 (values 1..=8) entirely.
    for v in 1..=8u64 {
        assert_eq!(c.delete(v).affected, 1);
    }
    assert_eq!(c.partitions()[0].len, 0);
    assert!(c.zones()[0].is_empty());
    c.validate_invariants().expect("emptied partition");
    // The emptied partition re-compresses as an empty fragment and keeps
    // answering queries.
    c.compress_partition(0, StorageMode::Rle);
    c.validate_invariants().expect("empty fragment");
    assert_eq!(c.range_count(0, 100).0, 8);
    assert!(c.point_query(3).positions.is_empty());
    // And accepts new values again via decode-on-write.
    c.insert(4, &[]).expect("insert into emptied partition");
    assert_eq!(c.point_query(4).positions.len(), 1);
    c.validate_invariants().expect("refilled partition");
}

// ---------------------------------------------------------------------
// The no-decode guarantee and compressed cost accounting
// ---------------------------------------------------------------------

#[test]
fn count_range_over_for_compressed_1m_chunk_never_decodes() {
    let n = 1_000_000usize;
    // Narrow per-partition spans: the §6.2 setting where FoR pays off.
    let values: Vec<u64> = (0..n as u64)
        .map(|i| 5_000_000 + (i.wrapping_mul(2_654_435_761)) % 60_000)
        .collect();
    let layout = BlockLayout::new::<u64>(4096);
    let spec = PartitionSpec::equi_width(layout.num_blocks(n), 64);
    let mut chunk = PartitionedChunk::build(
        values,
        &spec,
        layout,
        &GhostPlan::none(spec.partition_count()),
        ChunkConfig::default(),
    )
    .expect("build");
    for p in 0..chunk.partition_count() {
        chunk.compress_partition(p, StorageMode::For);
    }
    assert!(chunk.storage_modes().iter().all(|m| *m == StorageMode::For));

    let before = telemetry::decode_count();
    let (count, _) = chunk.range_count(5_010_000, 5_040_000);
    assert_eq!(
        telemetry::decode_count(),
        before,
        "compressed count_range must not decode"
    );
    // Bit-exact against the scalar baseline (which scans the plain slots).
    let (want, _) = chunk.range_count_scalar(5_010_000, 5_040_000);
    assert_eq!(count, want);
    assert!(count > 0, "probe range should match something");
}

#[test]
fn compressed_scan_cost_reflects_encoded_bytes() {
    // 256 values over a 256-wide domain: u8 offsets → 8x fewer bytes.
    let values: Vec<u64> = (0..256u64).map(|i| 1000 + i).collect();
    let layout = BlockLayout::new::<u64>(128); // 16 values per block
    let spec = PartitionSpec::equi_width(layout.num_blocks(values.len()), 2);
    let mut chunk = PartitionedChunk::build(
        values,
        &spec,
        layout,
        &GhostPlan::none(2),
        ChunkConfig::default(),
    )
    .expect("build");
    // A range clipping both partitions forces the filtered path everywhere.
    let (_, plain_cost) = chunk.range_count(1001, 1255);
    chunk.compress_partition(0, StorageMode::For);
    chunk.compress_partition(1, StorageMode::For);
    let (n, compressed_cost) = chunk.range_count(1001, 1255);
    assert_eq!(n, 254);
    assert!(
        compressed_cost.seq_reads < plain_cost.seq_reads,
        "compressed scan should stream fewer blocks: {compressed_cost:?} vs {plain_cost:?}"
    );
}

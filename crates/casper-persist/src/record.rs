//! The chunk-record codec: the byte form of one [`ChunkStore`].
//!
//! A segment record serializes one chunk — partition boundaries, ghost
//! accounting, payload rows in the chunk's own orientation
//! (tagged: [`ROWS_TAG`], or tag 0 column-major) — so that
//! [`decode_chain`]
//! restores the exact optimized layout with **no re-solve**: partitioned
//! chunks come back through `PartitionedChunk::from_state` (bit-exact raw
//! state). The solver-invocation telemetry counter therefore stays flat
//! across a restore — the durability tests assert exactly that.
//!
//! A **patch record** ([`encode_patch`]) carries only what changed in a
//! partitioned chunk since its chain's newest record: the slot granules
//! written since (keys and payload rows), and the partition metadata whole.
//!
//! [`decode_chain`] decodes a chunk from its base record and its patches
//! in order — the one decoder every hydration path uses.
//!
//! A record carries no framing of its own: its length and CRC live in the
//! manifest's [`crate::incremental::ChunkEntry`], and `Record::verified`
//! is the only way record bytes reach this decoder. Any structural
//! violation inside a record surfaces as [`StorageError::Corrupt`] — never
//! a panic. [`encode_config`] / [`decode_config`] are the engine-config
//! block the manifest embeds. See `docs/persist-format.md` for the
//! field-by-field layout.

use crate::codec::{ByteReader, ByteWriter};
use casper_engine::column::ChunkStore;
use casper_engine::{EngineConfig, LayoutMode};
use casper_storage::chunk::GRANULE_SLOTS;
use casper_storage::{
    BlockLayout, ChunkConfig, ChunkState, PartitionMeta, PartitionedChunk, PayloadOrientation,
    PayloadSet, SortedColumn, SortedDelta, StorageError, UpdatePolicy,
};

/// Leading byte of a patch record of a column-major chunk (full records
/// lead with their store kind: 0 partitioned with column-major payload,
/// 1 sorted, 2 delta, [`ROWS_TAG`] partitioned with row-major payload).
const PATCH_TAG: u8 = 3;

/// Leading byte of a full record of a partitioned chunk whose payload is
/// row-major.
const ROWS_TAG: u8 = 4;

/// Leading byte of a patch record of a row-major chunk.
const ROWS_PATCH_TAG: u8 = 5;

/// The full-record and patch tags of a partitioned chunk in `orientation`.
fn partitioned_tags(orientation: PayloadOrientation) -> (u8, u8) {
    match orientation {
        PayloadOrientation::Columns => (0, PATCH_TAG),
        PayloadOrientation::Rows => (ROWS_TAG, ROWS_PATCH_TAG),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

pub(crate) fn encode_config(w: &mut ByteWriter, c: &EngineConfig) {
    w.u8(mode_tag(c.mode));
    w.u64(c.block_bytes as u64);
    w.u64(c.chunk_values as u64);
    w.u64(c.equi_partitions as u64);
    w.f64(c.ghost_budget_frac);
    w.f64(c.delta_frac);
    w.f64(c.capacity_slack);
    w.u64(c.threads as u64);
    w.u64(c.ghost_fetch_block as u64);
}

pub(crate) fn encode_store(w: &mut ByteWriter, store: &ChunkStore) {
    match store {
        ChunkStore::Partitioned(chunk) => {
            w.u8(partitioned_tags(chunk.payload_orientation()).0);
            encode_chunk(w, chunk);
        }
        ChunkStore::Sorted(s) => {
            w.u8(1);
            let (keys, cols) = s.to_parts();
            w.vec_u64(&keys);
            w.u64(cols.len() as u64);
            for col in &cols {
                w.vec_u32(col);
            }
        }
        ChunkStore::Delta(d) => {
            // Checkpointing flushes the delta buffer into the main column,
            // exactly as real delta stores merge their write-optimized
            // buffer at checkpoint time; the store reopens with an empty
            // delta of the same capacity. The O(chunk) merge clone is only
            // paid when the buffer actually holds entries.
            w.u8(2);
            let (keys, cols) = if d.delta_len() == 0 {
                d.main().to_parts()
            } else {
                let mut merged = d.clone();
                merged.force_merge();
                merged.main().to_parts()
            };
            w.vec_u64(&keys);
            w.u64(cols.len() as u64);
            for col in &cols {
                w.vec_u32(col);
            }
            w.u64(d.capacity() as u64);
        }
    }
}

fn encode_chunk(w: &mut ByteWriter, chunk: &PartitionedChunk<u64>) {
    // Streams straight from the chunk's borrowed state (accessors mirror
    // the `ChunkState` capture field for field) — no intermediate deep
    // copy of slots or payload columns per checkpoint.
    let layout = chunk.layout();
    let config = chunk.chunk_config();
    w.u64(layout.block_bytes as u64);
    w.u64(layout.value_width as u64);
    w.u8(match config.policy {
        UpdatePolicy::Dense => 0,
        UpdatePolicy::Ghost => 1,
    });
    w.f64(config.capacity_slack);
    w.u64(config.ghost_fetch_block as u64);
    w.u64(chunk.live_len() as u64);
    // Keys stay u64 on disk whatever the key lane's width: the slots are
    // widened straight into the writer.
    w.u64(chunk.slot_count() as u64);
    chunk.read_slots(0..chunk.slot_count(), |run| w.u64s(run));
    encode_partition_meta(w, chunk);
    // The payload in its own order: one vector per word group (per
    // attribute column-major, of whole rows row-major).
    let payloads = chunk.payloads();
    w.u64(payloads.width() as u64);
    for g in 0..payloads.word_groups() {
        w.vec_u32(payloads.stored_words(g, 0..chunk.slot_count()));
    }
}

/// Partition count and partition metadata — the part of a chunk both
/// record kinds carry whole.
fn encode_partition_meta(w: &mut ByteWriter, chunk: &PartitionedChunk<u64>) {
    w.u64(chunk.partition_count() as u64);
    for p in chunk.partitions() {
        w.u64(p.start as u64);
        w.u64(p.len as u64);
        w.u64(p.ghosts as u64);
        w.u64(p.min);
        w.u64(p.max);
    }
}

/// The patch record of `chunk` against a chain whose newest record
/// captured the chunk at write mark `since`: the granules written after
/// `since` (their keys, then the payload's words in its own order —
/// each attribute's values column-major, whole rows row-major — in granule
/// order), plus the metadata the write path may change anywhere.
pub(crate) fn encode_patch(w: &mut ByteWriter, chunk: &PartitionedChunk<u64>, since: u64) {
    w.u8(partitioned_tags(chunk.payload_orientation()).1);
    w.u64(chunk.slot_count() as u64);
    w.u64(chunk.live_len() as u64);
    encode_partition_meta(w, chunk);
    let granules: Vec<usize> = chunk.granules_written_since(since).collect();
    let slots: usize = granules.iter().map(|&g| chunk.granule_slots(g).len()).sum();
    w.u64(GRANULE_SLOTS as u64);
    w.u64(granules.len() as u64);
    for &g in &granules {
        w.u64(g as u64);
    }
    w.u64(slots as u64);
    for &g in &granules {
        chunk.read_slots(chunk.granule_slots(g), |run| w.u64s(run));
    }
    let payloads = chunk.payloads();
    w.u64(payloads.width() as u64);
    for group in 0..payloads.word_groups() {
        w.u64((slots * payloads.words_per_slot(group)) as u64);
        for &g in &granules {
            w.u32s(payloads.stored_words(group, chunk.granule_slots(g)));
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

pub(crate) fn decode_config(r: &mut ByteReader<'_>) -> Result<EngineConfig, StorageError> {
    let mode = mode_from_tag(r.u8()?)?;
    Ok(EngineConfig {
        mode,
        block_bytes: r.len_u64()?,
        chunk_values: r.len_u64()?,
        equi_partitions: r.len_u64()?,
        ghost_budget_frac: r.f64()?,
        delta_frac: r.f64()?,
        capacity_slack: r.f64()?,
        threads: r.len_u64()?.max(1),
        ghost_fetch_block: r.len_u64()?,
    })
}

/// Decode one chunk from its record chain — a full record, then its patch
/// records in order — resuming at write mark `mark` (the mark its newest
/// record was captured at). Only a partitioned record takes patches.
pub(crate) fn decode_chain(
    records: &[&[u8]],
    mark: u64,
    config: &EngineConfig,
    payload_width: usize,
) -> Result<ChunkStore, StorageError> {
    let (base, patches) = records
        .split_first()
        .ok_or_else(|| StorageError::corrupt("a chunk entry with no record"))?;
    let vpb = BlockLayout::new::<u64>(config.block_bytes).values_per_block();
    // Every store must carry exactly the table's payload arity — a
    // CRC-valid but inconsistent snapshot must fail typedly here, not
    // panic on the first payload projection.
    let check_width = |got: usize| -> Result<(), StorageError> {
        if got != payload_width {
            return Err(StorageError::corrupt(format!(
                "store holds {got} payload columns but the table declares {payload_width}"
            )));
        }
        Ok(())
    };
    let mut r = ByteReader::new(base);
    let tag = r.u8()?;
    if tag != 0 && tag != ROWS_TAG && !patches.is_empty() {
        return Err(StorageError::corrupt(format!(
            "a record of store kind {tag} carries {} patches",
            patches.len()
        )));
    }
    let store = match tag {
        0 | ROWS_TAG => {
            let orientation = match tag {
                0 => PayloadOrientation::Columns,
                _ => PayloadOrientation::Rows,
            };
            let mut state = decode_chunk_state(&mut r, orientation)?;
            r.finish()?;
            for patch in patches {
                apply_patch(&mut state, orientation, patch)?;
            }
            state.write_mark = mark;
            check_width(state.payloads.width())?;
            ChunkStore::Partitioned(PartitionedChunk::from_state(state)?)
        }
        1 => {
            let (keys, cols) = decode_sorted_parts(&mut r)?;
            check_width(cols.len())?;
            ChunkStore::Sorted(SortedColumn::build(keys, cols, vpb))
        }
        2 => {
            let (keys, cols) = decode_sorted_parts(&mut r)?;
            check_width(cols.len())?;
            let capacity = r.len_u64()?;
            ChunkStore::Delta(SortedDelta::build(keys, cols, vpb, capacity))
        }
        t => return Err(StorageError::corrupt(format!("bad chunk store tag {t}"))),
    };
    r.finish()?;
    Ok(store)
}

/// Apply one patch record (see [`encode_patch`]) to a decoded chunk state
/// whose chain's full record was written in `orientation`. Structural checks here catch a patch that cannot belong to this chain;
/// `PartitionedChunk::from_state` checks the result as a whole.
fn apply_patch(
    state: &mut ChunkState<u64>,
    orientation: PayloadOrientation,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let mut r = ByteReader::new(bytes);
    let tag = r.u8()?;
    if tag != partitioned_tags(orientation).1 {
        return Err(StorageError::corrupt(format!(
            "a patch position of a {orientation:?} chain holds a record of kind {tag}"
        )));
    }
    let physical = r.len_u64()?;
    let old = state.data.len();
    if physical < old {
        return Err(StorageError::corrupt(format!(
            "a patch shrinks the chunk from {old} to {physical} slots"
        )));
    }
    let live = r.len_u64()?;
    let parts = decode_partition_meta(&mut r)?;
    if parts.len() != state.parts.len() {
        return Err(StorageError::corrupt(format!(
            "a patch of {} partitions on a chunk of {}",
            parts.len(),
            state.parts.len()
        )));
    }
    let granule = r.len_u64()?;
    let n_granules = r.len_u64()?;
    let mut ranges = Vec::with_capacity(n_granules.min(1 << 20));
    for _ in 0..n_granules {
        let start = r
            .len_u64()?
            .checked_mul(granule)
            .filter(|&start| start < physical && granule > 0)
            .filter(|&start| {
                ranges
                    .last()
                    .is_none_or(|prev: &std::ops::Range<usize>| start >= prev.end)
            })
            .ok_or_else(|| {
                StorageError::corrupt("patch granules out of order or past the chunk's end")
            })?;
        ranges.push(start..start.saturating_add(granule).min(physical));
    }
    let slots: usize = ranges.iter().map(|g| g.len()).sum();
    // Grown slots are always written (`grow` stamps them), so a patch
    // carries at least as many slots as it adds: that bounds the growth
    // below by the record's own size.
    if physical - old > slots {
        return Err(StorageError::corrupt(format!(
            "a patch grows the chunk by {} slots but carries {slots}",
            physical - old
        )));
    }
    let keys = r.vec_u64()?;
    let n_cols = r.len_u64()?;
    if n_cols != state.payloads.width() {
        return Err(StorageError::corrupt(format!(
            "a patch of {n_cols} payload columns on a chunk of {}",
            state.payloads.width()
        )));
    }
    let mut groups = Vec::with_capacity(state.payloads.word_groups());
    for g in 0..state.payloads.word_groups() {
        groups.push((state.payloads.words_per_slot(g), r.vec_u32()?));
    }
    r.finish()?;
    if keys.len() != slots
        || groups
            .iter()
            .any(|(per_slot, g)| g.len() != slots * per_slot)
    {
        return Err(StorageError::corrupt(format!(
            "a patch of {slots} granule slots carries {} keys",
            keys.len()
        )));
    }
    state.data.reserve_exact(physical - old);
    state.data.resize(physical, 0);
    state.payloads.grow_to(physical);
    let mut at = 0;
    for range in ranges {
        let next = at + range.len();
        state.data[range.clone()].copy_from_slice(&keys[at..next]);
        for (g, (per_slot, src)) in groups.iter().enumerate() {
            state
                .payloads
                .stored_words_mut(g, range.clone())
                .copy_from_slice(&src[at * per_slot..next * per_slot]);
        }
        at = next;
    }
    state.parts = parts;
    state.live = live;
    Ok(())
}

fn decode_sorted_parts(r: &mut ByteReader<'_>) -> Result<(Vec<u64>, Vec<Vec<u32>>), StorageError> {
    let keys = r.vec_u64()?;
    let n_cols = r.len_u64()?;
    let mut cols = Vec::with_capacity(n_cols.min(1 << 16));
    for c in 0..n_cols {
        let col = r.vec_u32()?;
        if col.len() != keys.len() {
            return Err(StorageError::corrupt(format!(
                "sorted payload column {c} has {} rows, keys have {}",
                col.len(),
                keys.len()
            )));
        }
        cols.push(col);
    }
    Ok((keys, cols))
}

/// Decode a partitioned chunk's full record, whose payload is stored in
/// `orientation`.
fn decode_chunk_state(
    r: &mut ByteReader<'_>,
    orientation: PayloadOrientation,
) -> Result<ChunkState<u64>, StorageError> {
    let layout = BlockLayout {
        block_bytes: r.len_u64()?,
        value_width: r.len_u64()?,
    };
    if layout.block_bytes < layout.value_width || layout.value_width == 0 {
        return Err(StorageError::corrupt(format!(
            "impossible block geometry: {} byte blocks of {} byte values",
            layout.block_bytes, layout.value_width
        )));
    }
    let policy = match r.u8()? {
        0 => UpdatePolicy::Dense,
        1 => UpdatePolicy::Ghost,
        t => return Err(StorageError::corrupt(format!("bad update policy tag {t}"))),
    };
    let config = ChunkConfig {
        policy,
        capacity_slack: r.f64()?,
        ghost_fetch_block: r.len_u64()?,
    };
    let live = r.len_u64()?;
    let data = r.vec_u64()?;
    let parts = decode_partition_meta(r)?;
    let payloads = decode_payloads(r, orientation, data.len())?;
    Ok(ChunkState {
        data,
        parts,
        payloads,
        layout,
        config,
        live,
        write_mark: 0,
    })
}

/// A full record's payload section: its width, then one vector per word
/// group the record's `orientation` implies (one per attribute
/// column-major, one of `physical` whole rows row-major), each checked
/// against `physical` slots of its group's width.
fn decode_payloads(
    r: &mut ByteReader<'_>,
    orientation: PayloadOrientation,
    physical: usize,
) -> Result<PayloadSet, StorageError> {
    let width = r.len_u64()?;
    let (n_groups, group_width) = match orientation {
        PayloadOrientation::Columns => (width, 1),
        PayloadOrientation::Rows => (1, width),
    };
    let mut groups = Vec::with_capacity(n_groups.min(1 << 16));
    for g in 0..n_groups {
        let words = r.vec_u32()?;
        if group_width == 0 || Some(words.len()) != physical.checked_mul(group_width) {
            return Err(StorageError::corrupt(match orientation {
                PayloadOrientation::Columns => format!(
                    "payload column {g} has {} slots, key column has {physical}",
                    words.len()
                ),
                PayloadOrientation::Rows => format!(
                    "{} row-major payload words for {physical} slots of {width}",
                    words.len()
                ),
            }));
        }
        groups.push((group_width, words));
    }
    Ok(PayloadSet::from_groups(groups, physical))
}

/// Undo [`encode_partition_meta`].
fn decode_partition_meta(r: &mut ByteReader<'_>) -> Result<Vec<PartitionMeta<u64>>, StorageError> {
    let n_parts = r.len_u64()?;
    let mut parts = Vec::with_capacity(n_parts.min(1 << 20));
    for _ in 0..n_parts {
        parts.push(PartitionMeta {
            start: r.len_u64()?,
            len: r.len_u64()?,
            ghosts: r.len_u64()?,
            min: r.u64()?,
            max: r.u64()?,
        });
    }
    Ok(parts)
}

fn mode_tag(mode: LayoutMode) -> u8 {
    match mode {
        LayoutMode::NoOrder => 0,
        LayoutMode::Sorted => 1,
        LayoutMode::StateOfArt => 2,
        LayoutMode::Equi => 3,
        LayoutMode::EquiGV => 4,
        LayoutMode::Casper => 5,
    }
}

fn mode_from_tag(tag: u8) -> Result<LayoutMode, StorageError> {
    Ok(match tag {
        0 => LayoutMode::NoOrder,
        1 => LayoutMode::Sorted,
        2 => LayoutMode::StateOfArt,
        3 => LayoutMode::Equi,
        4 => LayoutMode::EquiGV,
        5 => LayoutMode::Casper,
        t => return Err(StorageError::corrupt(format!("bad layout mode tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_engine::Table;
    use casper_workload::{HapSchema, KeyDist, WorkloadGenerator};

    /// One encoded record per chunk of a small table in `mode` (records
    /// of a few KB, so trying every truncation of one stays fast).
    fn records(mode: LayoutMode) -> (EngineConfig, Vec<(Vec<u8>, usize)>) {
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 150, KeyDist::Uniform);
        let mut config = EngineConfig::small(mode);
        config.chunk_values = 64;
        let table = Table::load_from_generator(&gen, config);
        let records = table
            .column()
            .chunks()
            .iter()
            .map(|slot| {
                let store = slot.get().expect("freshly loaded chunk");
                let mut w = ByteWriter::new();
                encode_store(&mut w, store);
                (w.into_bytes(), store.len())
            })
            .collect();
        (config, records)
    }

    fn decode(bytes: &[u8], config: &EngineConfig) -> Result<ChunkStore, StorageError> {
        decode_chain(&[bytes], 0, config, HapSchema::narrow().payload_cols)
    }

    #[test]
    fn round_trip_every_mode() {
        for mode in LayoutMode::all() {
            let (config, records) = records(mode);
            for (bytes, live) in &records {
                let store = decode(bytes, &config).expect("decode");
                assert_eq!(store.len(), *live, "{mode:?}");
                // Re-encoding the decoded store reproduces the record
                // byte for byte: nothing was re-solved.
                let mut w = ByteWriter::new();
                encode_store(&mut w, &store);
                assert_eq!(&w.into_bytes(), bytes, "{mode:?}");
            }
        }
    }

    #[test]
    fn every_truncated_prefix_is_corrupt_not_panic() {
        for mode in LayoutMode::all() {
            let (config, records) = records(mode);
            let (bytes, _) = &records[0];
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        decode(&bytes[..cut], &config),
                        Err(StorageError::Corrupt { .. })
                    ),
                    "{mode:?}: cut at {cut} of {}",
                    bytes.len()
                );
            }
        }
    }

    /// A patch applied to its chunk's full record decodes to the written
    /// chunk bit for bit (grown slots included), and every truncation of a
    /// patch is typed corruption, never a panic.
    #[test]
    fn patch_round_trips_and_truncations_are_corrupt() {
        let (config, _) = records(LayoutMode::Casper);
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 150, KeyDist::Uniform);
        let table = Table::load_from_generator(&gen, config);
        let Some(ChunkStore::Partitioned(mut chunk)) =
            table.column().chunks()[0].store_opt().cloned()
        else {
            panic!("a Casper table holds partitioned chunks");
        };
        let mut w = ByteWriter::new();
        encode_store(&mut w, &ChunkStore::Partitioned(chunk.clone()));
        let full = w.into_bytes();
        let since = chunk.write_mark();
        let row = vec![9u32; HapSchema::narrow().payload_cols];
        chunk.grow(70);
        for key in [3, 5, 1_000_000] {
            chunk.insert(key, &row).expect("insert");
        }
        let mut w = ByteWriter::new();
        encode_patch(&mut w, &chunk, since);
        let patch = w.into_bytes();
        let mark = chunk.write_mark();
        let width = HapSchema::narrow().payload_cols;
        let Ok(ChunkStore::Partitioned(got)) = decode_chain(&[&full, &patch], mark, &config, width)
        else {
            panic!("the chain decodes");
        };
        assert_eq!(
            got.copy_slots(0..got.slot_count()),
            chunk.copy_slots(0..chunk.slot_count())
        );
        assert_eq!(got.payloads(), chunk.payloads());
        assert_eq!(got.partitions(), chunk.partitions());
        assert_eq!(got.write_mark(), mark);
        for cut in 0..patch.len() {
            assert!(
                matches!(
                    decode_chain(&[&full, &patch[..cut]], mark, &config, width),
                    Err(StorageError::Corrupt { .. })
                ),
                "patch cut at {cut} of {}",
                patch.len()
            );
        }
        // A patch cannot follow a full record of a sorted store.
        let (sorted_config, sorted) = records(LayoutMode::Sorted);
        assert!(decode_chain(&[&sorted[0].0, &patch], 0, &sorted_config, width).is_err());
    }

    /// A partitioned chunk of `width` payload attributes in `orientation`,
    /// with ghosts and a few writes behind it.
    fn oriented_chunk(orientation: PayloadOrientation) -> PartitionedChunk<u64> {
        use casper_storage::{ChunkLayout, PartitionSpec};
        let keys: Vec<u64> = (0..200).map(|i| 10 + 3 * i).collect();
        let cols: Vec<Vec<u32>> = (0..3u32)
            .map(|c| keys.iter().map(|&k| k as u32 * 7 + c).collect())
            .collect();
        let layout =
            ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[10, 15]), vec![3, 5]);
        let mut chunk = PartitionedChunk::build_with_payloads(
            &keys,
            &cols,
            &layout.with_payload(orientation),
            BlockLayout::new::<u64>(64),
            ChunkConfig::default(),
        )
        .expect("build");
        chunk.insert(11, &[1, 2, 3]).expect("insert");
        chunk.delete(13);
        chunk
    }

    /// A row-major chunk's full record and patch carry its rows as rows
    /// under their own tags and decode back to the row-major chunk, bit
    /// for bit; a patch of the other orientation's tag is corruption.
    #[test]
    fn row_major_records_round_trip_under_their_own_tags() {
        let config = EngineConfig::small(LayoutMode::Casper);
        let mut chunk = oriented_chunk(PayloadOrientation::Rows);
        let mut w = ByteWriter::new();
        encode_store(&mut w, &ChunkStore::Partitioned(chunk.clone()));
        let full = w.into_bytes();
        assert_eq!(full[0], ROWS_TAG);
        let since = chunk.write_mark();
        chunk.grow(70);
        for key in [12, 300, 1_000] {
            chunk.insert(key, &[key as u32, 0, 9]).expect("insert");
        }
        let mut w = ByteWriter::new();
        encode_patch(&mut w, &chunk, since);
        let patch = w.into_bytes();
        assert_eq!(patch[0], ROWS_PATCH_TAG);
        let mark = chunk.write_mark();
        let Ok(ChunkStore::Partitioned(got)) = decode_chain(&[&full, &patch], mark, &config, 3)
        else {
            panic!("the row-major chain decodes");
        };
        assert_eq!(got.payload_orientation(), PayloadOrientation::Rows);
        assert_eq!(got.payloads(), chunk.payloads());
        assert_eq!(
            got.copy_slots(0..got.slot_count()),
            chunk.copy_slots(0..chunk.slot_count())
        );
        assert_eq!(got.partitions(), chunk.partitions());
        for cut in 0..patch.len() {
            assert!(decode_chain(&[&full, &patch[..cut]], mark, &config, 3).is_err());
        }
        for cut in 0..full.len() {
            assert!(decode_chain(&[&full[..cut]], mark, &config, 3).is_err());
        }
        let mut wrong = patch.clone();
        wrong[0] = PATCH_TAG;
        assert!(matches!(
            decode_chain(&[&full, &wrong], mark, &config, 3),
            Err(StorageError::Corrupt { .. })
        ));
    }

    /// The bytes of a partitioned chunk's full record and patch, written
    /// out here field by field as `docs/persist-format.md` lays them out:
    /// column-major, tag 0 with one vector per payload column and a tag-3
    /// patch of per-column runs; row-major, tag 4 with one vector of whole
    /// rows and a tag-5 patch of row runs. The writer emits exactly these
    /// bytes, and each decodes to the chunk it was written from. A width-1
    /// chain under tags 4/5 (one word per row either way) decodes to the
    /// column-major chunk.
    #[test]
    fn partitioned_records_match_their_field_by_field_bytes() {
        use casper_storage::{ChunkLayout, PartitionSpec};
        let config = EngineConfig::small(LayoutMode::Casper);
        for (orientation, tags) in [
            (PayloadOrientation::Columns, (0, 3)),
            (PayloadOrientation::Rows, (4, 5)),
        ] {
            let mut chunk = oriented_chunk(orientation);
            let width = chunk.payloads().width();
            // The payload words of `slots`, in the orientation's groups:
            // per attribute column-major, one group of rows row-major.
            let groups = |chunk: &PartitionedChunk<u64>, slots: &[std::ops::Range<usize>]| {
                let p = chunk.payloads();
                let words = |attrs: std::ops::Range<usize>| -> Vec<u32> {
                    let slots = slots.iter().flat_map(|r| r.clone());
                    slots
                        .flat_map(|s| attrs.clone().map(move |c| p.get(c, s)))
                        .collect()
                };
                match orientation {
                    PayloadOrientation::Columns => (0..width).map(|c| words(c..c + 1)).collect(),
                    PayloadOrientation::Rows => vec![words(0..width)],
                }
            };
            // Partition count, then per partition start, length, ghosts
            // and the covering bounds.
            let meta = |w: &mut ByteWriter, chunk: &PartitionedChunk<u64>| {
                w.u64(chunk.partition_count() as u64);
                for p in chunk.partitions() {
                    for field in [p.start as u64, p.len as u64, p.ghosts as u64, p.min, p.max] {
                        w.u64(field);
                    }
                }
            };
            let slots = chunk.slot_count();
            let mut w = ByteWriter::new();
            w.u8(tags.0);
            w.u64(64);
            w.u64(8);
            w.u8(1);
            w.f64(chunk.chunk_config().capacity_slack);
            w.u64(chunk.chunk_config().ghost_fetch_block as u64);
            w.u64(chunk.live_len() as u64);
            w.vec_u64(&chunk.copy_slots(0..slots));
            meta(&mut w, &chunk);
            w.u64(width as u64);
            for group in groups(&chunk, std::slice::from_ref(&(0..slots))) {
                w.vec_u32(&group);
            }
            let full = w.into_bytes();
            let mut w = ByteWriter::new();
            encode_store(&mut w, &ChunkStore::Partitioned(chunk.clone()));
            assert_eq!(w.into_bytes(), full, "{orientation:?} full record");

            let since = chunk.write_mark();
            chunk.insert(50, &[5, 6, 7]).expect("insert");
            let granules: Vec<usize> = chunk.granules_written_since(since).collect();
            let ranges: Vec<_> = granules.iter().map(|&g| chunk.granule_slots(g)).collect();
            let mut w = ByteWriter::new();
            w.u8(tags.1);
            w.u64(chunk.slot_count() as u64);
            w.u64(chunk.live_len() as u64);
            meta(&mut w, &chunk);
            w.u64(GRANULE_SLOTS as u64);
            w.u64(granules.len() as u64);
            granules.iter().for_each(|&g| w.u64(g as u64));
            let keys: Vec<u64> = ranges
                .iter()
                .flat_map(|r| chunk.copy_slots(r.clone()))
                .collect();
            w.vec_u64(&keys);
            w.u64(width as u64);
            for group in groups(&chunk, &ranges) {
                w.vec_u32(&group);
            }
            let patch = w.into_bytes();
            let mut w = ByteWriter::new();
            encode_patch(&mut w, &chunk, since);
            assert_eq!(w.into_bytes(), patch, "{orientation:?} patch");

            let mark = chunk.write_mark();
            let Ok(ChunkStore::Partitioned(got)) =
                decode_chain(&[&full, &patch], mark, &config, width)
            else {
                panic!("the {orientation:?} chain decodes");
            };
            assert_eq!(got.payload_orientation(), orientation);
            assert_eq!(got.payloads(), chunk.payloads());
            assert_eq!(
                got.copy_slots(0..got.slot_count()),
                chunk.copy_slots(0..chunk.slot_count())
            );
        }

        let keys: Vec<u64> = (0..100).map(|i| 2 * i).collect();
        let mut chunk = PartitionedChunk::build_with_payloads(
            &keys,
            &[keys.iter().map(|&k| k as u32).collect::<Vec<u32>>()],
            &ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[5, 8]), vec![2, 2]),
            BlockLayout::new::<u64>(64),
            ChunkConfig::default(),
        )
        .expect("build");
        let mut w = ByteWriter::new();
        encode_store(&mut w, &ChunkStore::Partitioned(chunk.clone()));
        let mut full = w.into_bytes();
        let since = chunk.write_mark();
        chunk.insert(51, &[9]).expect("insert");
        let mut w = ByteWriter::new();
        encode_patch(&mut w, &chunk, since);
        let mut patch = w.into_bytes();
        assert_eq!((full[0], patch[0]), (0, 3));
        (full[0], patch[0]) = (4, 5);
        let mark = chunk.write_mark();
        let Ok(ChunkStore::Partitioned(got)) = decode_chain(&[&full, &patch], mark, &config, 1)
        else {
            panic!("a width-1 row-major chain decodes");
        };
        assert_eq!(got.payload_orientation(), PayloadOrientation::Columns);
        assert_eq!(got.payloads(), chunk.payloads());
    }
}

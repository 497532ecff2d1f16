//! The chunk-record codec: the byte form of one [`ChunkStore`].
//!
//! A segment record serializes one chunk — partition boundaries, zone
//! maps, ghost accounting, payload columns — so that [`decode_chain`]
//! restores the exact optimized layout with **no re-solve**: partitioned
//! chunks come back through `PartitionedChunk::from_state` (bit-exact raw
//! state). The solver-invocation telemetry counter therefore stays flat
//! across a restore — the durability tests assert exactly that.
//!
//! A **patch record** ([`encode_patch`]) carries only what changed in a
//! partitioned chunk since its chain's newest record: the slot granules
//! written since (keys and payload rows), and the partition metadata and
//! zone maps whole.
//!
//! Older writers could store an encoded key fragment beside a partition's
//! slots, and a patch flag saying whether the chain's fragment survived.
//! The slots were always authoritative, so the reader skips those bytes
//! ([`skip_legacy_fragment`]) and writers emit `0` in both places: the
//! byte layout is unchanged.
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
use casper_storage::kernels::ZoneMap;
use casper_storage::{
    BlockLayout, ChunkConfig, ChunkState, PartitionMeta, PartitionedChunk, SortedColumn,
    SortedDelta, StorageError, UpdatePolicy,
};

/// Leading byte of a patch record (full records lead with their store
/// kind: 0 partitioned, 1 sorted, 2 delta).
const PATCH_TAG: u8 = 3;

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
            w.u8(0);
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
    // One legacy fragment tag per partition: always 0, "none".
    for _ in 0..chunk.partition_count() {
        w.u8(0);
    }
    let cols = chunk.payloads().columns();
    w.u64(cols.len() as u64);
    for col in cols {
        w.vec_u32(col);
    }
}

/// Partition count, partition metadata and zone maps — the part of a
/// chunk both record kinds carry whole.
fn encode_partition_meta(w: &mut ByteWriter, chunk: &PartitionedChunk<u64>) {
    w.u64(chunk.partition_count() as u64);
    for p in chunk.partitions() {
        w.u64(p.start as u64);
        w.u64(p.len as u64);
        w.u64(p.ghosts as u64);
        w.u64(p.min);
        w.u64(p.max);
    }
    for z in chunk.zones() {
        w.u64(z.min);
        w.u64(z.max);
    }
}

/// The patch record of `chunk` against a chain whose newest record
/// captured the chunk at write mark `since`: the granules written after
/// `since` (their keys, then each payload column's values, in granule
/// order), plus the metadata the write path may change anywhere. Each
/// partition also gets the legacy keep-fragment flag, always `0`.
pub(crate) fn encode_patch(w: &mut ByteWriter, chunk: &PartitionedChunk<u64>, since: u64) {
    w.u8(PATCH_TAG);
    w.u64(chunk.slot_count() as u64);
    w.u64(chunk.live_len() as u64);
    encode_partition_meta(w, chunk);
    for _ in 0..chunk.partition_count() {
        w.u8(0);
    }
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
    let width = chunk.payloads().width();
    w.u64(width as u64);
    for c in 0..width {
        w.u64(slots as u64);
        for &g in &granules {
            w.u32s(chunk.payloads().column_slice(c, chunk.granule_slots(g)));
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
    if tag != 0 && !patches.is_empty() {
        return Err(StorageError::corrupt(format!(
            "a record of store kind {tag} carries {} patches",
            patches.len()
        )));
    }
    let store = match tag {
        0 => {
            let (mut state, mut legacy) = decode_chunk_state(&mut r)?;
            r.finish()?;
            for patch in patches {
                apply_patch(&mut state, &mut legacy, patch)?;
            }
            state.write_mark = mark;
            check_width(state.payload_cols.len())?;
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

/// Apply one patch record (see [`encode_patch`]) to a decoded chunk state.
/// `legacy[p]` says whether the chain still holds a legacy fragment for
/// partition `p`. Structural checks here catch a patch that cannot belong
/// to this chain; `PartitionedChunk::from_state` checks the result as a
/// whole.
fn apply_patch(
    state: &mut ChunkState<u64>,
    legacy: &mut [bool],
    bytes: &[u8],
) -> Result<(), StorageError> {
    let mut r = ByteReader::new(bytes);
    let tag = r.u8()?;
    if tag != PATCH_TAG {
        return Err(StorageError::corrupt(format!(
            "a patch position holds a record of kind {tag}"
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
    let (parts, zones) = decode_partition_meta(&mut r)?;
    if parts.len() != state.parts.len() {
        return Err(StorageError::corrupt(format!(
            "a patch of {} partitions on a chunk of {}",
            parts.len(),
            state.parts.len()
        )));
    }
    for (p, has) in legacy.iter_mut().enumerate() {
        match (r.u8()?, *has) {
            (0, _) => *has = false,
            (1, true) => {}
            (flag, _) => {
                return Err(StorageError::corrupt(format!(
                    "patch fragment flag {flag} for partition {p}, which has no fragment"
                )))
            }
        }
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
    if n_cols != state.payload_cols.len() {
        return Err(StorageError::corrupt(format!(
            "a patch of {n_cols} payload columns on a chunk of {}",
            state.payload_cols.len()
        )));
    }
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        cols.push(r.vec_u32()?);
    }
    r.finish()?;
    if keys.len() != slots || cols.iter().any(|c| c.len() != slots) {
        return Err(StorageError::corrupt(format!(
            "a patch of {slots} granule slots carries {} keys",
            keys.len()
        )));
    }
    state.data.reserve_exact(physical - old);
    state.data.resize(physical, 0);
    for col in &mut state.payload_cols {
        col.reserve_exact(physical - old);
        col.resize(physical, 0);
    }
    let mut at = 0;
    for range in ranges {
        let next = at + range.len();
        state.data[range.clone()].copy_from_slice(&keys[at..next]);
        for (dst, src) in state.payload_cols.iter_mut().zip(&cols) {
            dst[range.clone()].copy_from_slice(&src[at..next]);
        }
        at = next;
    }
    state.parts = parts;
    state.zones = zones;
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

/// Decode a partitioned chunk's full record, and which of its partitions
/// carried a legacy fragment.
fn decode_chunk_state(
    r: &mut ByteReader<'_>,
) -> Result<(ChunkState<u64>, Vec<bool>), StorageError> {
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
    let (parts, zones) = decode_partition_meta(r)?;
    let legacy = (0..parts.len())
        .map(|_| skip_legacy_fragment(r))
        .collect::<Result<Vec<bool>, _>>()?;
    let n_cols = r.len_u64()?;
    let mut payload_cols = Vec::with_capacity(n_cols.min(1 << 16));
    for _ in 0..n_cols {
        payload_cols.push(r.vec_u32()?);
    }
    let state = ChunkState {
        data,
        parts,
        zones,
        payload_cols,
        layout,
        config,
        live,
        write_mark: 0,
    };
    Ok((state, legacy))
}

/// Undo [`encode_partition_meta`].
fn decode_partition_meta(
    r: &mut ByteReader<'_>,
) -> Result<(Vec<PartitionMeta<u64>>, Vec<ZoneMap<u64>>), StorageError> {
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
    let mut zones = Vec::with_capacity(n_parts.min(1 << 20));
    for _ in 0..n_parts {
        zones.push(ZoneMap {
            min: r.u64()?,
            max: r.u64()?,
        });
    }
    Ok((parts, zones))
}

/// Read past one partition's legacy fragment section: tag `0` (none), or
/// a frame-of-reference (`1`), dictionary (`2`) or run-length (`3`)
/// encoding of the partition's keys that older writers kept beside the
/// slots. Returns whether a fragment was present. Every read is bounded
/// by the record, so truncation, an unknown tag or an unknown packed width
/// is [`StorageError::Corrupt`].
fn skip_legacy_fragment(r: &mut ByteReader<'_>) -> Result<bool, StorageError> {
    match r.u8()? {
        0 => return Ok(false),
        1 => {
            r.u64()?; // frame base
            skip_packed(r, 8, "FoR offset")?;
        }
        2 => {
            r.vec_u64()?; // dictionary
            skip_packed(r, 4, "dictionary code")?;
        }
        3 => {
            for _ in 0..r.len_u64()? {
                r.u64()?; // run value
                r.u32()?; // run length
            }
        }
        t => return Err(StorageError::corrupt(format!("bad fragment tag {t}"))),
    }
    Ok(true)
}

/// Read past a width byte (1, 2, 4, or 8 up to `max_width`) and a packed
/// array of that many bytes per entry.
fn skip_packed(r: &mut ByteReader<'_>, max_width: u8, what: &str) -> Result<(), StorageError> {
    match r.u8()? {
        1 => r.bytes().map(|_| ()),
        2 => r.vec_u16().map(|_| ()),
        4 => r.vec_u32().map(|_| ()),
        8 if max_width == 8 => r.vec_u64().map(|_| ()),
        w => Err(StorageError::corrupt(format!("bad {what} width {w}"))),
    }
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
        assert_eq!(got.payloads().columns(), chunk.payloads().columns());
        assert_eq!(got.partitions(), chunk.partitions());
        assert_eq!(got.zones(), chunk.zones());
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

    /// One partition's legacy fragment section, as older writers stored
    /// it: variants 0–3 frame-of-reference at offset widths 1, 2, 4 and 8,
    /// 4–6 dictionary at code widths 1, 2 and 4, 7 run-length, 8 none.
    fn legacy_fragment(variant: usize, vals: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let mut sorted = vals.to_vec();
        sorted.sort_unstable();
        let packed = |w: &mut ByteWriter, width: u8, v: Vec<u64>| {
            w.u8(width);
            match width {
                1 => w.vec_u8(&v.iter().map(|&x| x as u8).collect::<Vec<_>>()),
                2 => w.vec_u16(&v.iter().map(|&x| x as u16).collect::<Vec<_>>()),
                4 => w.vec_u32(&v.iter().map(|&x| x as u32).collect::<Vec<_>>()),
                _ => w.vec_u64(&v),
            }
        };
        match variant {
            0..=3 => {
                let base = sorted[0];
                w.u8(1);
                w.u64(base);
                packed(
                    &mut w,
                    1 << variant,
                    vals.iter().map(|v| v - base).collect(),
                );
            }
            4..=6 => {
                let mut dict = sorted;
                dict.dedup();
                w.u8(2);
                w.vec_u64(&dict);
                let codes = vals.iter().map(|v| dict.binary_search(v).unwrap() as u64);
                packed(&mut w, 1 << (variant - 4), codes.collect());
            }
            7 => {
                let mut runs: Vec<(u64, u32)> = Vec::new();
                for v in sorted {
                    match runs.last_mut() {
                        Some((last, n)) if *last == v => *n += 1,
                        _ => runs.push((v, 1)),
                    }
                }
                w.u8(3);
                w.u64(runs.len() as u64);
                for (v, n) in runs {
                    w.u64(v);
                    w.u32(n);
                }
            }
            _ => w.u8(0),
        }
        w.into_bytes()
    }

    /// `bytes` with its one-byte-per-partition run at `at` (each byte 0, as
    /// the writer emits it) replaced by `sections`, one per partition.
    fn splice(bytes: &[u8], at: usize, sections: &[Vec<u8>]) -> Vec<u8> {
        let k = sections.len();
        assert!(bytes[at..at + k].iter().all(|&b| b == 0), "writers emit 0");
        let mut out = bytes[..at].to_vec();
        sections.iter().for_each(|s| out.extend_from_slice(s));
        out.extend_from_slice(&bytes[at + k..]);
        out
    }

    /// Records from writers that kept an encoded fragment beside a
    /// partition's slots still open: each legacy fragment and each
    /// keep-fragment patch flag is read past, and the chain decodes to
    /// exactly what the same records with tag 0 decode to. Malformed legacy
    /// bytes are typed corruption, never a panic.
    #[test]
    fn legacy_fragments_and_keep_flags_decode_to_the_plain_chain() {
        use casper_storage::ghost::GhostPlan;
        use casper_storage::PartitionSpec;

        let config = EngineConfig::small(LayoutMode::Casper);
        let keys: Vec<u64> = (0..180).map(|i| 1_000 + 3 * i).collect();
        let payloads = vec![keys.iter().map(|&k| k as u32 * 7).collect(); 2];
        let mut chunk = PartitionedChunk::build_with_payloads(
            keys,
            payloads,
            &PartitionSpec::from_block_sizes(&[5; 9]),
            BlockLayout::new::<u64>(32),
            &GhostPlan::from_counts(vec![2; 9]),
            ChunkConfig::default(),
        )
        .expect("build");
        let k = chunk.partition_count();
        assert_eq!(k, 9);
        let sections: Vec<Vec<u8>> = (0..k)
            .map(|p| legacy_fragment(p, &chunk.partition_values(p)))
            .collect();
        let encode = |chunk: &PartitionedChunk<u64>| {
            let mut w = ByteWriter::new();
            encode_store(&mut w, &ChunkStore::Partitioned(chunk.clone()));
            w.into_bytes()
        };
        let full = encode(&chunk);
        let tags_at = 58 + 8 * chunk.slot_count() + 56 * k;
        let legacy_full = splice(&full, tags_at, &sections);

        let since = chunk.write_mark();
        for key in [1_001, 1_200, 1_500] {
            chunk.insert(key, &[5, 6]).expect("insert");
        }
        let mut w = ByteWriter::new();
        encode_patch(&mut w, &chunk, since);
        let patch = w.into_bytes();
        let mark = chunk.write_mark();
        let flags_at = 25 + 56 * k;
        // Keep every legacy fragment but the last partition's (it has none).
        let keep = |p: usize, flag: u8| vec![if p + 1 < k { 1 } else { flag }];
        let legacy_patch = splice(
            &patch,
            flags_at,
            &(0..k).map(|p| keep(p, 0)).collect::<Vec<_>>(),
        );

        let decode = |records: &[&[u8]], mark| decode_chain(records, mark, &config, 2);
        let reencoded = |records: &[&[u8]], mark| match decode(records, mark) {
            Ok(ChunkStore::Partitioned(c)) => {
                assert_eq!(c.write_mark(), mark);
                encode(&c)
            }
            other => panic!("a partitioned chain decodes, got {other:?}"),
        };
        assert_eq!(reencoded(&[&legacy_full], since), full);
        assert_eq!(reencoded(&[&full], since), full);
        assert_eq!(
            reencoded(&[&legacy_full, &legacy_patch], mark),
            encode(&chunk)
        );
        assert_eq!(reencoded(&[&full, &patch], mark), encode(&chunk));
        // A patch after one that dropped every fragment must not keep any.
        assert!(decode(&[&legacy_full, &patch, &patch], mark).is_ok());
        assert!(decode(&[&legacy_full, &patch, &legacy_patch], mark).is_err());

        let corrupt = |records: &[&[u8]], what: &str| {
            assert!(
                matches!(decode(records, mark), Err(StorageError::Corrupt { .. })),
                "{what}"
            );
        };
        // Flag 1 on a partition whose chain has no fragment.
        let bad_flag = splice(
            &patch,
            flags_at,
            &(0..k).map(|p| keep(p, 1)).collect::<Vec<_>>(),
        );
        corrupt(&[&legacy_full, &bad_flag], "keep flag without a fragment");
        corrupt(&[&full, &legacy_patch], "keep flags over a tag-0 chain");
        // An unknown fragment tag, and unknown packed widths.
        let with_first = |section: Vec<u8>| {
            let mut s = sections.clone();
            s[0] = section;
            splice(&full, tags_at, &s)
        };
        corrupt(&[&with_first(vec![4])], "fragment tag 4");
        let mut for_w3 = vec![1];
        for_w3.extend_from_slice(&1_000u64.to_le_bytes());
        for_w3.push(3);
        for_w3.extend_from_slice(&0u64.to_le_bytes());
        corrupt(&[&with_first(for_w3)], "FoR width 3");
        let mut dict_w8 = vec![2];
        dict_w8.extend_from_slice(&0u64.to_le_bytes());
        dict_w8.push(8);
        dict_w8.extend_from_slice(&0u64.to_le_bytes());
        corrupt(&[&with_first(dict_w8)], "dictionary width 8");
        // Every cut inside the legacy sections (mid-vector included).
        let sections_len: usize = sections.iter().map(Vec::len).sum();
        for cut in tags_at..tags_at + sections_len {
            corrupt(&[&legacy_full[..cut]], &format!("cut at {cut}"));
        }
    }
}

//! The chunk-record codec: the byte form of one [`ChunkStore`].
//!
//! A segment record serializes one chunk — partition boundaries, zone
//! maps, per-partition storage modes *with their encoded fragment bytes*,
//! ghost accounting, payload columns — so that [`decode_store`] restores
//! the exact optimized layout with **no re-solve and no re-compress**:
//! partitioned chunks come back through `PartitionedChunk::from_state`
//! (bit-exact raw state) and fragments through the codecs' `from_raw`
//! constructors, which bypass the encode paths entirely. The
//! solver-invocation and codec-encode telemetry counters therefore stay
//! flat across a restore — the durability tests assert exactly that.
//!
//! A record carries no framing of its own: its length and CRC live in the
//! manifest's [`crate::incremental::ChunkEntry`], and
//! `ChunkEntry::verified` is the only way record bytes reach this decoder.
//! Any structural violation inside a record surfaces as
//! [`StorageError::Corrupt`] — never a panic. [`encode_config`] /
//! [`decode_config`] are the engine-config block the manifest embeds. See
//! `docs/persist-format.md` for the field-by-field layout.

use crate::codec::{ByteReader, ByteWriter};
use casper_engine::column::ChunkStore;
use casper_engine::{EngineConfig, LayoutMode};
use casper_storage::compress::dictionary::PackedCodes;
use casper_storage::compress::for_delta::PackedOffsets;
use casper_storage::compress::{Dictionary, ForBlock, Rle};
use casper_storage::kernels::ZoneMap;
use casper_storage::{
    BlockLayout, ChunkConfig, ChunkState, Fragment, PartitionMeta, PartitionedChunk, SortedColumn,
    SortedDelta, StorageError, UpdatePolicy,
};

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
    // copy of slots, payload columns or fragments per checkpoint.
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
    w.vec_u64(chunk.raw_slots());
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
    for p in 0..chunk.partition_count() {
        encode_fragment(w, chunk.partition_fragment(p));
    }
    let cols = chunk.payloads().columns();
    w.u64(cols.len() as u64);
    for col in cols {
        w.vec_u32(col);
    }
}

fn encode_fragment(w: &mut ByteWriter, frag: Option<&Fragment<u64>>) {
    match frag {
        None => w.u8(0),
        Some(Fragment::For(f)) => {
            w.u8(1);
            w.u64(f.base());
            match f.offsets() {
                PackedOffsets::U8(v) => {
                    w.u8(1);
                    w.vec_u8(v);
                }
                PackedOffsets::U16(v) => {
                    w.u8(2);
                    w.vec_u16(v);
                }
                PackedOffsets::U32(v) => {
                    w.u8(4);
                    w.vec_u32(v);
                }
                PackedOffsets::U64(v) => {
                    w.u8(8);
                    w.vec_u64(v);
                }
            }
        }
        Some(Fragment::Dict(d)) => {
            w.u8(2);
            w.vec_u64(d.dict());
            match d.codes() {
                PackedCodes::U8(v) => {
                    w.u8(1);
                    w.vec_u8(v);
                }
                PackedCodes::U16(v) => {
                    w.u8(2);
                    w.vec_u16(v);
                }
                PackedCodes::U32(v) => {
                    w.u8(4);
                    w.vec_u32(v);
                }
            }
        }
        Some(Fragment::Rle(r)) => {
            w.u8(3);
            w.u64(r.runs().len() as u64);
            for &(v, n) in r.runs() {
                w.u64(v);
                w.u32(n);
            }
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

pub(crate) fn decode_store(
    r: &mut ByteReader<'_>,
    config: &EngineConfig,
    payload_width: usize,
) -> Result<ChunkStore, StorageError> {
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
    match r.u8()? {
        0 => {
            let state = decode_chunk_state(r)?;
            check_width(state.payload_cols.len())?;
            Ok(ChunkStore::Partitioned(PartitionedChunk::from_state(
                state,
            )?))
        }
        1 => {
            let (keys, cols) = decode_sorted_parts(r)?;
            check_width(cols.len())?;
            Ok(ChunkStore::Sorted(SortedColumn::build(keys, cols, vpb)))
        }
        2 => {
            let (keys, cols) = decode_sorted_parts(r)?;
            check_width(cols.len())?;
            let capacity = r.len_u64()?;
            Ok(ChunkStore::Delta(SortedDelta::build(
                keys, cols, vpb, capacity,
            )))
        }
        t => Err(StorageError::corrupt(format!("bad chunk store tag {t}"))),
    }
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

fn decode_chunk_state(r: &mut ByteReader<'_>) -> Result<ChunkState<u64>, StorageError> {
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
    let mut frags = Vec::with_capacity(n_parts.min(1 << 20));
    for _ in 0..n_parts {
        frags.push(decode_fragment(r)?);
    }
    let n_cols = r.len_u64()?;
    let mut payload_cols = Vec::with_capacity(n_cols.min(1 << 16));
    for _ in 0..n_cols {
        payload_cols.push(r.vec_u32()?);
    }
    Ok(ChunkState {
        data,
        parts,
        zones,
        frags,
        payload_cols,
        layout,
        config,
        live,
    })
}

fn decode_fragment(r: &mut ByteReader<'_>) -> Result<Option<Fragment<u64>>, StorageError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let base = r.u64()?;
            let offsets = match r.u8()? {
                1 => PackedOffsets::U8(r.vec_u8()?),
                2 => PackedOffsets::U16(r.vec_u16()?),
                4 => PackedOffsets::U32(r.vec_u32()?),
                8 => PackedOffsets::U64(r.vec_u64()?),
                w => return Err(StorageError::corrupt(format!("bad FoR offset width {w}"))),
            };
            Ok(Some(Fragment::For(ForBlock::from_raw(base, offsets))))
        }
        2 => {
            let dict = r.vec_u64()?;
            let codes = match r.u8()? {
                1 => PackedCodes::U8(r.vec_u8()?),
                2 => PackedCodes::U16(r.vec_u16()?),
                4 => PackedCodes::U32(r.vec_u32()?),
                w => {
                    return Err(StorageError::corrupt(format!(
                        "bad dictionary code width {w}"
                    )))
                }
            };
            Ok(Some(Fragment::Dict(
                Dictionary::from_raw(dict, codes)
                    .map_err(|e| StorageError::corrupt(format!("dictionary fragment: {e}")))?,
            )))
        }
        3 => {
            let n_runs = r.len_u64()?;
            let mut runs = Vec::with_capacity(n_runs.min(1 << 20));
            for _ in 0..n_runs {
                runs.push((r.u64()?, r.u32()?));
            }
            Ok(Some(Fragment::Rle(Rle::from_runs(runs).map_err(|e| {
                StorageError::corrupt(format!("RLE fragment: {e}"))
            })?)))
        }
        t => Err(StorageError::corrupt(format!("bad fragment tag {t}"))),
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
        let mut r = ByteReader::new(bytes);
        let store = decode_store(&mut r, config, HapSchema::narrow().payload_cols)?;
        r.finish()?;
        Ok(store)
    }

    #[test]
    fn round_trip_every_mode() {
        for mode in LayoutMode::all() {
            let (config, records) = records(mode);
            for (bytes, live) in &records {
                let store = decode(bytes, &config).expect("decode");
                assert_eq!(store.len(), *live, "{mode:?}");
                // Re-encoding the decoded store reproduces the record
                // byte for byte: nothing was re-solved or re-compressed.
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
}

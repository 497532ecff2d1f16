//! The on-disk checkpoint format: incremental, segment-based.
//!
//! A checkpoint is split into two pieces so it writes only what changed:
//!
//! * **Segments** (`seg-<seq>.casper`) are append-once files holding one
//!   encoded chunk record per dirty chunk (the per-store byte layout of
//!   `record::encode_store`). A segment is written, fsynced and never
//!   touched again; older segments are retained while any live manifest
//!   entry still points into them.
//! * **Manifests** (`manifest-<gen>.casper`) are small CRC-checksummed
//!   files mapping every chunk id to `(segment, offset, len, crc, live)`
//!   plus the table-level metadata (engine config, fences, FM state, WAL
//!   watermark). A checkpoint re-encodes *only dirty chunks* into a new
//!   segment and re-points the clean ones at their existing records.
//!
//! Those two and the WAL links (`wal-<seq>.log`) are the three kinds of
//! numbered file a table directory holds; [`FileKind`] is the only place
//! their names are formatted or parsed, and `list_dir` the one directory
//! walk over them.
//!
//! `CURRENT` swings atomically and holds a bare generation number naming
//! the live manifest. Every reader of a table directory — open, scrub,
//! backup verification — resolves it through [`read_current`], and no
//! record byte is believed before [`ChunkEntry::verified`] has checked it
//! against the manifest's CRC.
//!
//! **Compaction**: once a manifest references more than a configured
//! number of segments, the next checkpoint rewrites every live record into
//! one fresh segment (clean records are *byte-copied*, CRC-verified, never
//! re-encoded) and the chain collapses.
//!
//! **Restore** maps segments ([`crate::mmap::Mmap`]) and hands each chunk
//! to the engine as a lazy slot: `DurableTable::open` does metadata work
//! only, and a chunk verifies its record CRC and decodes on the first
//! query that routes to it.

use crate::codec::{frame, unframe, ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::mmap::Mmap;
use crate::record::{decode_config, decode_store, encode_config, encode_store};
use crate::vfs::{Vfs, VfsHandle};
use casper_core::FrequencyModel;
use casper_engine::column::{ChunkSlot, ChunkStore};
use casper_engine::{ChunkedColumn, EngineConfig, Table};
use casper_obs::CounterDef;
use casper_storage::StorageError;
use casper_workload::HapSchema;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"CSPM";
/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CSPS";
/// Manifest (and segment) format version.
pub const MANIFEST_VERSION: u32 = 2;
/// Byte length of a segment file header (`magic | version | seq`).
pub const SEGMENT_HEADER_LEN: u64 = 16;

/// Record bytes written into fresh segments (headers excluded); retried
/// jobs count every attempt — the counter tracks bytes actually written.
static OBS_SEGMENT_BYTES: CounterDef = CounterDef::new("casper_checkpoint_segment_bytes_total");
/// Subset of segment bytes that were byte-copied from older segments
/// (compaction traffic, as opposed to re-encoded dirty chunks).
static OBS_COMPACTION_BYTES: CounterDef = CounterDef::new("casper_compaction_copy_bytes_total");

/// Where one chunk's persisted record lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Segment sequence number the record lives in.
    pub seg: u64,
    /// Byte offset of the record inside the segment file.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u64,
    /// CRC32 of the record bytes, verified at first touch (the manifest's
    /// own checksum protects this value, so per-record integrity holds
    /// end-to-end without reading the segment at open).
    pub crc: u32,
    /// Live rows in the chunk (serves `len()` before hydration).
    pub live: u64,
    /// Checkpoint generation that wrote the record (compaction telemetry).
    pub written_gen: u64,
}

impl ChunkEntry {
    /// The one record check: slice this entry's record out of its
    /// segment's bytes — bounds-checked — and compare its CRC32 with the
    /// one the manifest stored. Every consumer of record bytes (lazy
    /// hydration, compaction copy, scrub, backup copy, backup
    /// verification) gets them from here, so nothing decodes or copies a
    /// record the manifest does not vouch for.
    pub(crate) fn verified<'a>(&self, segment: &'a [u8]) -> Result<&'a [u8], StorageError> {
        let record = usize::try_from(self.offset)
            .ok()
            .zip(usize::try_from(self.len).ok())
            .and_then(|(start, len)| segment.get(start..start.checked_add(len)?))
            .ok_or_else(|| {
                StorageError::corrupt(format!(
                    "segment {} is {} bytes but a record claims {} bytes at offset {}",
                    self.seg,
                    segment.len(),
                    self.len,
                    self.offset
                ))
            })?;
        let got = crc32(record);
        if got != self.crc {
            return Err(StorageError::corrupt(format!(
                "chunk record at offset {} of segment {} fails its checksum \
                 (stored {:#010x}, computed {got:#010x})",
                self.offset, self.seg, self.crc
            )));
        }
        Ok(record)
    }
}

/// A decoded manifest: everything `DurableTable::open` needs before any
/// segment byte is read.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Checkpoint generation this manifest commits.
    pub generation: u64,
    /// Highest WAL LSN folded into the chunk records.
    pub durable_lsn: u64,
    /// Table schema (payload arity).
    pub schema: HapSchema,
    /// Engine configuration of the persisted table.
    pub config: EngineConfig,
    /// Per-chunk routing fences (`None` for `NoOrder`).
    pub fences: Option<Vec<u64>>,
    /// One entry per chunk, in chunk order.
    pub entries: Vec<ChunkEntry>,
    /// Captured per-chunk frequency models.
    pub fms: Vec<FrequencyModel>,
}

impl Manifest {
    /// Distinct segments referenced by the live entries.
    pub fn referenced_segments(&self) -> Vec<u64> {
        let mut segs: Vec<u64> = self.entries.iter().map(|e| e.seg).collect();
        segs.sort_unstable();
        segs.dedup();
        segs
    }
}

// ---------------------------------------------------------------------
// Manifest encode/decode
// ---------------------------------------------------------------------

/// Serialize a manifest (header + CRC-guarded body).
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.u64(m.generation);
    body.u64(m.durable_lsn);
    body.u64(m.schema.payload_cols as u64);
    encode_config(&mut body, &m.config);
    match &m.fences {
        Some(f) => {
            body.u8(1);
            body.vec_u64(f);
        }
        None => body.u8(0),
    }
    body.u64(m.entries.len() as u64);
    for e in &m.entries {
        body.u64(e.seg);
        body.u64(e.offset);
        body.u64(e.len);
        body.u32(e.crc);
        body.u64(e.live);
        body.u64(e.written_gen);
    }
    body.u64(m.fms.len() as u64);
    for fm in &m.fms {
        for (_, hist) in fm.histograms() {
            body.vec_f64(hist);
        }
    }
    frame(MANIFEST_MAGIC, MANIFEST_VERSION, &body.into_bytes())
}

/// Decode a manifest, verifying magic, version and checksum.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StorageError> {
    let body = unframe(bytes, MANIFEST_MAGIC, MANIFEST_VERSION, "manifest")?;
    let mut r = ByteReader::new(body);
    let generation = r.u64()?;
    let durable_lsn = r.u64()?;
    let payload_cols = r.len_u64()?;
    let config = decode_config(&mut r)?;
    let fences = match r.u8()? {
        0 => None,
        1 => Some(r.vec_u64()?),
        t => return Err(StorageError::corrupt(format!("bad fence tag {t}"))),
    };
    let n_chunks = r.len_u64()?;
    if n_chunks == 0 {
        return Err(StorageError::corrupt("manifest holds zero chunks"));
    }
    let mut entries = Vec::with_capacity(n_chunks.min(1 << 20));
    for _ in 0..n_chunks {
        entries.push(ChunkEntry {
            seg: r.u64()?,
            offset: r.u64()?,
            len: r.u64()?,
            crc: r.u32()?,
            live: r.u64()?,
            written_gen: r.u64()?,
        });
    }
    if let Some(f) = &fences {
        if f.len() != entries.len() {
            return Err(StorageError::corrupt(format!(
                "{} fences for {} chunks",
                f.len(),
                entries.len()
            )));
        }
    }
    let n_fms = r.len_u64()?;
    let mut fms = Vec::with_capacity(n_fms.min(1 << 20));
    for _ in 0..n_fms {
        let hists: [Vec<f64>; 10] = [
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
            r.vec_f64()?,
        ];
        fms.push(
            FrequencyModel::from_histograms(hists)
                .map_err(|e| StorageError::corrupt(format!("frequency model: {e}")))?,
        );
    }
    r.finish()?;
    Ok(Manifest {
        generation,
        durable_lsn,
        schema: HapSchema { payload_cols },
        config,
        fences,
        entries,
        fms,
    })
}

// ---------------------------------------------------------------------
// File kinds: the one namer, parser and lister
// ---------------------------------------------------------------------

/// The three kinds of numbered file a table directory, its `archive/` and
/// a backup hold. The name patterns live here and nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileKind {
    /// `manifest-<generation>.casper`.
    Manifest,
    /// `seg-<seq>.casper`, numbered by a counter of its own.
    Segment,
    /// `wal-<seq>.log`, numbered by the generation whose capture created it.
    Wal,
}

impl FileKind {
    /// Every kind, in the order the archive index stores them.
    pub(crate) const ALL: [FileKind; 3] = [FileKind::Manifest, FileKind::Segment, FileKind::Wal];

    fn affixes(self) -> (&'static str, &'static str) {
        match self {
            FileKind::Manifest => ("manifest-", ".casper"),
            FileKind::Segment => ("seg-", ".casper"),
            FileKind::Wal => ("wal-", ".log"),
        }
    }

    /// File name of number `seq` of this kind.
    pub fn name(self, seq: u64) -> String {
        let (prefix, suffix) = self.affixes();
        format!("{prefix}{seq:06}{suffix}")
    }

    /// [`FileKind::name`] under `dir`.
    pub fn path(self, dir: &Path, seq: u64) -> PathBuf {
        dir.join(self.name(seq))
    }

    /// The kind and number a file name spells, if it is one of ours.
    pub fn parse(file_name: &str) -> Option<(FileKind, u64)> {
        Self::ALL.into_iter().find_map(|kind| {
            let (prefix, suffix) = kind.affixes();
            let seq = file_name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            Some((kind, seq.parse().ok()?))
        })
    }
}

/// What is directly under a directory (sub-directories skipped): the
/// numbered files, ascending by `(kind, number)`, and the files no reader
/// will ever want — `.tmp` leftovers of interrupted atomic writes.
pub(crate) struct DirListing {
    pub files: Vec<(FileKind, u64, PathBuf)>,
    pub garbage: Vec<PathBuf>,
}

/// The one directory walk.
pub(crate) fn list_dir(dir: &Path) -> std::io::Result<DirListing> {
    let mut listing = DirListing {
        files: Vec::new(),
        garbage: Vec::new(),
    };
    for entry in fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        if path.is_dir() {
            continue; // the archive directory
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some((kind, seq)) = FileKind::parse(&name) {
            listing.files.push((kind, seq, path));
        } else if name.ends_with(".tmp") {
            listing.garbage.push(path);
        }
    }
    listing.files.sort_unstable();
    Ok(listing)
}

// ---------------------------------------------------------------------
// Resolving a directory: CURRENT -> manifest
// ---------------------------------------------------------------------

/// Parse `CURRENT` (the only place that does).
fn current_generation(vfs: &VfsHandle, dir: &Path) -> Result<u64, StorageError> {
    let bytes = vfs.read(&crate::durable::current_path(dir))?;
    let text = String::from_utf8_lossy(&bytes);
    text.trim()
        .parse()
        .map_err(|_| StorageError::corrupt(format!("CURRENT holds {text:?}, not a generation")))
}

/// Read and decode `manifest-<generation>`, returning it with its raw
/// bytes (backups copy them verbatim). A missing file is damage — the
/// caller was told this generation exists — so it is a typed `Corrupt`
/// naming the file, as is a manifest that claims another generation.
pub(crate) fn read_manifest(
    vfs: &VfsHandle,
    dir: &Path,
    generation: u64,
) -> Result<(Manifest, Vec<u8>), StorageError> {
    let path = FileKind::Manifest.path(dir, generation);
    let bytes = vfs.read(&path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => StorageError::corrupt(format!(
            "the manifest of generation {generation} is missing: no {}",
            path.display()
        )),
        _ => e.into(),
    })?;
    let manifest = decode_manifest(&bytes)?;
    if manifest.generation != generation {
        return Err(StorageError::corrupt(format!(
            "{} says it is generation {}",
            path.display(),
            manifest.generation
        )));
    }
    Ok((manifest, bytes))
}

/// The one way into a table directory: `CURRENT` names a generation, and
/// `manifest-<gen>` must exist, pass its checksum and agree about the
/// generation. Returns `(generation, manifest, manifest bytes)`.
///
/// A reader that shares the directory with a live checkpointer (the
/// scrubber) can lose the manifest between the two reads — a checkpoint
/// committed and pruned it. That is the only benign cause, and it shows
/// as `CURRENT` having moved on: follow it, once. A failure under an
/// unchanged `CURRENT` is returned as is.
pub(crate) fn read_current(
    vfs: &VfsHandle,
    dir: &Path,
) -> Result<(u64, Manifest, Vec<u8>), StorageError> {
    let mut generation = current_generation(vfs, dir)?;
    let mut read = read_manifest(vfs, dir, generation);
    if read.is_err() {
        let now = current_generation(vfs, dir)?;
        if now != generation {
            generation = now;
            read = read_manifest(vfs, dir, generation);
        }
    }
    read.map(|(manifest, bytes)| (generation, manifest, bytes))
}

// ---------------------------------------------------------------------
// The checkpoint job: what the (possibly background) writer executes
// ---------------------------------------------------------------------

/// One chunk record heading into a new segment.
#[derive(Debug)]
pub(crate) enum RecordSource {
    /// Serialize this (hydrated, dirty) chunk. The slot is shared with the
    /// live column via `Arc` — capture is a refcount bump, and the engine
    /// copy-on-writes before its next mutation of the chunk, so the store
    /// serialized here is frozen at capture time.
    Encode(Arc<ChunkSlot>),
    /// Byte-copy an existing record (compaction of a clean chunk — the
    /// bytes are CRC-verified in flight but never decoded).
    Copy(ChunkEntry),
}

/// Everything a checkpoint writes, captured under the foreground's short
/// pause: dirty chunk clones, reused manifest entries, and the table-level
/// metadata. Serialization + fsync happen wherever the job runs (inline or
/// on the checkpointer thread).
#[derive(Debug)]
pub(crate) struct CheckpointJob {
    /// The VFS every byte of the job goes through (cloned from the owning
    /// table so fault schedules reach the background thread too).
    pub vfs: VfsHandle,
    pub dir: PathBuf,
    pub new_gen: u64,
    /// Sequence number of the segment this job may create.
    pub seg_seq: u64,
    pub durable_lsn: u64,
    pub schema: HapSchema,
    pub config: EngineConfig,
    pub fences: Option<Vec<u64>>,
    pub fms: Vec<FrequencyModel>,
    /// `(chunk index, source)` for records landing in the new segment.
    pub fresh: Vec<(usize, RecordSource)>,
    /// `(chunk index, entry)` reused from older segments untouched.
    pub reused: Vec<(usize, ChunkEntry)>,
    /// Total chunk count (`fresh.len() + reused.len()`).
    pub n_chunks: usize,
    /// Archive policy: `Some` retires stale files instead of deleting them.
    pub archive: Option<crate::archive::ArchiveConfig>,
    /// Backup pins shared with the owning table — pinned files survive
    /// both pruning and retiring while a backup copies them.
    pub pins: crate::archive::SharedPins,
}

/// Run a checkpoint job to completion: write the segment (if any records
/// are fresh), write the manifest, swing `CURRENT`, prune stale files.
/// Returns the manifest that is now durable. Crash-safe at every step:
/// until the `CURRENT` rename lands, recovery still sees the previous
/// generation plus the intact WAL chain.
///
/// Retry-safe as a whole: every attempt re-creates (truncates) the segment
/// file with a fresh descriptor and rewrites it end to end, so after a
/// failed fsync no retried sync ever runs against the old descriptor's
/// possibly-dropped dirty pages.
pub(crate) fn run_checkpoint(job: &CheckpointJob) -> Result<Manifest, StorageError> {
    let mut entries: Vec<Option<ChunkEntry>> = vec![None; job.n_chunks];
    for (idx, entry) in &job.reused {
        entries[*idx] = Some(entry.clone());
    }

    if !job.fresh.is_empty() {
        let path = FileKind::Segment.path(&job.dir, job.seg_seq);
        let mut file = job.vfs.create(&path)?;
        let mut header = ByteWriter::new();
        for b in SEGMENT_MAGIC {
            header.u8(b);
        }
        header.u32(MANIFEST_VERSION);
        header.u64(job.seg_seq);
        let header = header.into_bytes();
        debug_assert_eq!(header.len() as u64, SEGMENT_HEADER_LEN);
        file.write_all(&header)?;
        // Records are independent: encode (or byte-copy) and write one at
        // a time, so a full checkpoint never holds a second serialized
        // copy of the whole table in memory on top of the captured
        // clones — peak extra memory is one chunk record. After each
        // record, writeback of the bytes just written is *initiated*
        // (non-blocking, no journal commit): a concurrent group-commit
        // WAL fsync on the foreground would otherwise have to flush the
        // whole accumulated segment inside its own journal transaction,
        // stalling the commit path.
        let mut offset = SEGMENT_HEADER_LEN;
        let mut copied_bytes = 0u64;
        for (idx, source) in &job.fresh {
            let (bytes, live) = match source {
                RecordSource::Encode(slot) => {
                    // A quarantined (scrub-damaged, never hydrated) chunk
                    // must not reach capture; if one does, fail with a
                    // typed error instead of panicking inside the encoder.
                    let Some(store) = slot.store_opt() else {
                        return Err(StorageError::corrupt(format!(
                            "chunk {idx} reached the checkpoint writer unhydrated \
                             (quarantined or damaged record)"
                        )));
                    };
                    let mut w = ByteWriter::new();
                    encode_store(&mut w, store);
                    (w.into_bytes(), store.len() as u64)
                }
                RecordSource::Copy(entry) => {
                    let bytes = read_record(&job.vfs, &job.dir, entry)?;
                    copied_bytes += bytes.len() as u64;
                    (bytes, entry.live)
                }
            };
            file.write_all(&bytes)?;
            crate::mmap::initiate_writeback(file.std_file(), offset, bytes.len() as u64);
            entries[*idx] = Some(ChunkEntry {
                seg: job.seg_seq,
                offset,
                len: bytes.len() as u64,
                crc: crc32(&bytes),
                live,
                written_gen: job.new_gen,
            });
            offset += bytes.len() as u64;
        }
        file.sync_all()?;
        OBS_SEGMENT_BYTES.add(offset - SEGMENT_HEADER_LEN);
        OBS_COMPACTION_BYTES.add(copied_bytes);
    }

    let entries: Vec<ChunkEntry> = entries
        .into_iter()
        .map(|e| e.expect("every chunk is fresh or reused"))
        .collect();
    let manifest = Manifest {
        generation: job.new_gen,
        durable_lsn: job.durable_lsn,
        schema: job.schema,
        config: job.config,
        fences: job.fences.clone(),
        entries,
        fms: job.fms.clone(),
    };
    crate::durable::write_atomic(
        &job.vfs,
        &FileKind::Manifest.path(&job.dir, job.new_gen),
        &encode_manifest(&manifest),
    )?;
    // The commit point: readers now resolve to the new generation.
    crate::durable::write_atomic(
        &job.vfs,
        &crate::durable::current_path(&job.dir),
        format!("{}\n", job.new_gen).as_bytes(),
    )?;
    crate::archive::retire_stale(
        &job.vfs,
        &job.dir,
        &manifest,
        job.archive.as_ref(),
        &job.pins,
    );
    Ok(manifest)
}

/// Read and verify one persisted record (compaction byte-copy path and
/// the scrubber's verification pass). The segment is mapped, not read:
/// only the record's pages are touched.
pub(crate) fn read_record(
    vfs: &VfsHandle,
    dir: &Path,
    entry: &ChunkEntry,
) -> Result<Vec<u8>, StorageError> {
    let map = vfs.mmap(&FileKind::Segment.path(dir, entry.seg))?;
    Ok(entry.verified(&map)?.to_vec())
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

/// Build a table from a manifest: map every referenced segment, verify
/// the segment headers, and hand each chunk to the engine as a lazy slot
/// that verifies and decodes its record on first touch
/// (`Table::hydrate_all` forces them all). Each segment is taken from the
/// first of `dirs` that holds it (point-in-time restores mix live and
/// archived segments — a shared segment may still be live while the base
/// manifest is archived). A segment found nowhere resolves to the primary
/// directory so the mmap produces the usual typed error.
pub(crate) fn restore_table(
    vfs: &VfsHandle,
    dirs: &[&Path],
    manifest: &Manifest,
) -> Result<Table, StorageError> {
    let mut maps: BTreeMap<u64, Arc<Mmap>> = BTreeMap::new();
    for seg in manifest.referenced_segments() {
        let path = dirs
            .iter()
            .map(|d| FileKind::Segment.path(d, seg))
            .find(|p| p.exists())
            .unwrap_or_else(|| FileKind::Segment.path(dirs[0], seg));
        let map = Arc::new(vfs.mmap(&path)?);
        verify_segment_header(&map, seg)?;
        maps.insert(seg, map);
    }
    let payload_width = manifest.schema.payload_cols;
    let config = manifest.config;
    let mut chunks = Vec::with_capacity(manifest.entries.len());
    for entry in &manifest.entries {
        let map = Arc::clone(maps.get(&entry.seg).expect("segment mapped above"));
        let live = usize::try_from(entry.live)
            .map_err(|_| StorageError::corrupt("live count overflows usize"))?;
        let entry = entry.clone();
        let loader = move || decode_record(&map, &entry, &config, payload_width);
        chunks.push(ChunkSlot::new_lazy(live, Box::new(loader)));
    }
    let column = ChunkedColumn::from_restored(
        chunks,
        manifest.fences.clone(),
        manifest.config,
        payload_width,
    );
    Ok(Table::from_restored(manifest.schema, column))
}

/// Build a lazy loader re-pointing an **evicted** chunk at its persisted
/// record: the segment is mapped on first touch (not held open — an
/// evicted chunk should cost nothing until someone reads it), its header
/// and the record CRC are verified, and the store decodes through the
/// shared decoder — the same integrity path restore-time laziness uses,
/// so rehydration is bit-exact by construction.
pub(crate) fn record_loader(
    vfs: VfsHandle,
    dir: PathBuf,
    entry: ChunkEntry,
    config: EngineConfig,
    payload_width: usize,
) -> casper_engine::column::ChunkLoader {
    Box::new(move || {
        let path = FileKind::Segment.path(&dir, entry.seg);
        let map = vfs.mmap(&path).map_err(|e| {
            StorageError::corrupt(format!(
                "evicted chunk cannot re-map segment {}: {e}",
                entry.seg
            ))
        })?;
        verify_segment_header(&map, entry.seg)?;
        decode_record(&map, &entry, &config, payload_width)
    })
}

/// Check a segment's header (magic, version, recorded sequence).
pub(crate) fn verify_segment_header(bytes: &[u8], seq: u64) -> Result<(), StorageError> {
    let mut r = ByteReader::new(bytes);
    let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
    if magic != SEGMENT_MAGIC {
        return Err(StorageError::corrupt(format!(
            "segment {seq}: bad magic {magic:02x?}"
        )));
    }
    let version = r.u32()?;
    if version != MANIFEST_VERSION {
        return Err(StorageError::corrupt(format!(
            "segment {seq}: bad version {version}"
        )));
    }
    let recorded = r.u64()?;
    if recorded != seq {
        return Err(StorageError::corrupt(format!(
            "segment file {seq} says it is segment {recorded}"
        )));
    }
    Ok(())
}

/// Decode one chunk record out of its mapped segment — verified at first
/// touch, then the shared store decoder.
fn decode_record(
    map: &Mmap,
    entry: &ChunkEntry,
    config: &EngineConfig,
    payload_width: usize,
) -> Result<ChunkStore, StorageError> {
    let mut r = ByteReader::new(entry.verified(map)?);
    let store = decode_store(&mut r, config, payload_width)?;
    r.finish()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            generation: 7,
            durable_lsn: 123,
            schema: HapSchema { payload_cols: 3 },
            config: EngineConfig::small(casper_engine::LayoutMode::Casper),
            fences: Some(vec![10, 20]),
            entries: vec![
                ChunkEntry {
                    seg: 2,
                    offset: 16,
                    len: 100,
                    crc: 0xDEAD_BEEF,
                    live: 64,
                    written_gen: 3,
                },
                ChunkEntry {
                    seg: 5,
                    offset: 16,
                    len: 80,
                    crc: 0x1234_5678,
                    live: 32,
                    written_gen: 7,
                },
            ],
            fms: vec![fm()],
        }
    }

    fn fm() -> FrequencyModel {
        let mut fm = FrequencyModel::new(4);
        fm.pq = vec![1.0, 2.5, 0.0, 4.0];
        fm.rs[1] = 3.0;
        fm
    }

    #[test]
    fn manifest_round_trips() {
        let m = manifest();
        let bytes = encode_manifest(&m);
        let d = decode_manifest(&bytes).expect("decode");
        assert_eq!(d.generation, 7);
        assert_eq!(d.durable_lsn, 123);
        assert_eq!(d.entries, m.entries);
        assert_eq!(d.fences, m.fences);
        assert_eq!(d.fms, vec![fm()]);
        assert_eq!(d.referenced_segments(), vec![2, 5]);
    }

    #[test]
    fn verified_believes_a_record_only_after_its_crc() {
        let mut segment = vec![0u8; SEGMENT_HEADER_LEN as usize];
        let record = b"a chunk record's bytes";
        segment.extend_from_slice(record);
        let entry = ChunkEntry {
            seg: 1,
            offset: SEGMENT_HEADER_LEN,
            len: record.len() as u64,
            crc: crc32(record),
            live: 0,
            written_gen: 1,
        };
        assert_eq!(entry.verified(&segment).expect("intact"), record);
        // Any flipped bit inside the record is caught.
        for i in SEGMENT_HEADER_LEN as usize..segment.len() {
            let mut damaged = segment.clone();
            damaged[i] ^= 0x10;
            assert!(
                matches!(entry.verified(&damaged), Err(StorageError::Corrupt { .. })),
                "flip at {i}"
            );
        }
        // A segment too short for the claim, or a claim that overflows, is
        // typed damage too — never a slice panic.
        assert!(entry.verified(&segment[..segment.len() - 1]).is_err());
        let wild = ChunkEntry {
            offset: u64::MAX - 3,
            ..entry
        };
        assert!(matches!(
            wild.verified(&segment),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_flipped_bit_is_corrupt() {
        let mut bytes = encode_manifest(&manifest());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        assert!(matches!(
            decode_manifest(&bytes),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_truncation_is_typed() {
        let bytes = encode_manifest(&manifest());
        for cut in [0, 3, 11, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_manifest(&bytes[..cut]),
                    Err(StorageError::Corrupt { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn numbered_file_parses() {
        for kind in FileKind::ALL {
            for seq in [0, 3, 12, 999_999, 1_234_567] {
                assert_eq!(FileKind::parse(&kind.name(seq)), Some((kind, seq)));
            }
        }
        assert_eq!(FileKind::Segment.name(12), "seg-000012.casper");
        assert_eq!(FileKind::Wal.name(3), "wal-000003.log");
        assert_eq!(FileKind::Manifest.name(7), "manifest-000007.casper");
        for alien in [
            "CURRENT",
            "seg-xx.casper",
            "seg-000001.log",
            "manifest-000002.tmp",
            "archive-index.casper",
        ] {
            assert_eq!(FileKind::parse(alien), None, "{alien}");
        }
    }
}

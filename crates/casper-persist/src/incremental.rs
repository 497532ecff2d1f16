//! The on-disk checkpoint format: incremental, segment-based.
//!
//! A checkpoint is split into two pieces so it writes only what changed:
//!
//! * **Segments** (`seg-<seq>.casper`) are append-once files of chunk
//!   records. A segment is written, fsynced and never touched again; older
//!   segments are retained while any live manifest entry still points into
//!   them.
//! * **Manifests** (`manifest-<gen>.casper`) are small CRC-checksummed
//!   files mapping every chunk to its **record chain** plus the
//!   table-level metadata (engine config, fences, FM state, WAL
//!   watermark). A chain is one full record (`record::encode_store`) and
//!   an ordered list of patch records (`record::encode_patch`), each with
//!   its own `(segment, offset, len, crc)`.
//!
//! A checkpoint writes a *patch* for a dirty partitioned chunk that has a
//! chain — the slot granules written since the chain's newest record, plus
//! the partition metadata — and a *full record* for any other dirty chunk;
//! clean chunks keep their chains. The **fold rule** bounds a chain: once a
//! chunk's patch bytes plus the new patch would reach its full record's
//! size, the chunk is written whole instead, so checkpoint bytes stay
//! within 2x of what changed and a chunk decodes from at most 2x one full
//! record.
//!
//! Those two and the WAL links (`wal-<seq>.log`) are the three kinds of
//! numbered file a table directory holds; [`FileKind`] is the only place
//! their names are formatted or parsed, and `list_dir` the one directory
//! walk over them.
//!
//! `CURRENT` swings atomically and holds a bare generation number naming
//! the live manifest. Every reader of a table directory — open, scrub,
//! backup verification — resolves it through [`read_current`], and no
//! record byte is believed before [`Record::read`] or [`Record::verified`]
//! has checked it against the manifest's CRC.
//!
//! **Compaction**: once a manifest references more than a configured
//! number of segments, the next checkpoint empties the segments holding
//! the fewest live bytes: the records chains keep there are *byte-copied*
//! into the fresh segment (CRC-verified, never decoded or re-encoded).
//! A forced compaction empties them all.
//!
//! **Restore** opens each referenced segment once ([`VfsReader`]), checks
//! its header, and hands each chunk to the engine as a lazy slot:
//! `DurableTable::open` does metadata work only, and a chunk reads and
//! verifies each record of its chain, then decodes it, on the first query
//! that routes to it.

use crate::codec::{frame, unframe, ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::record::{decode_chain, decode_config, encode_config, encode_patch, encode_store};
use crate::vfs::{Vfs, VfsHandle, VfsReader};
use casper_core::FrequencyModel;
use casper_engine::column::{ChunkSlot, ChunkStore};
use casper_engine::{ChunkedColumn, EngineConfig, Table};
use casper_obs::CounterDef;
use casper_storage::StorageError;
use casper_workload::HapSchema;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"CSPM";
/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CSPS";
/// Manifest (and segment) format version, the only one this build writes
/// or reads: a directory written under another version is refused at open,
/// before anything in it is modified.
pub const MANIFEST_VERSION: u32 = 4;
/// Byte length of a segment file header (`magic | version | seq`).
pub const SEGMENT_HEADER_LEN: u64 = 16;

/// Record bytes written into fresh segments (headers excluded) — full
/// records, patch records and compaction copies; retried jobs count every
/// attempt — the counter tracks bytes actually written.
static OBS_SEGMENT_BYTES: CounterDef = CounterDef::new("casper_checkpoint_segment_bytes_total");
/// Subset of segment bytes that were byte-copied from older segments
/// (compaction traffic, as opposed to freshly written records).
static OBS_COMPACTION_BYTES: CounterDef = CounterDef::new("casper_compaction_copy_bytes_total");
/// Fresh records written, by kind (compaction copies excluded).
static OBS_FULL_RECORDS: CounterDef =
    CounterDef::new("casper_checkpoint_records_total{kind=\"full\"}");
static OBS_PATCH_RECORDS: CounterDef =
    CounterDef::new("casper_checkpoint_records_total{kind=\"patch\"}");
/// Captures where the fold rule wrote a patchable chunk whole.
static OBS_FOLDS: CounterDef = CounterDef::new("casper_checkpoint_folds_total");

/// Where one record lives: a byte range of a segment and its CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Segment sequence number the record lives in.
    pub seg: u64,
    /// Byte offset of the record inside the segment file.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u64,
    /// CRC32 of the record bytes, verified at first touch (the manifest's
    /// own checksum protects this value, so per-record integrity holds
    /// end-to-end without reading the records at open).
    pub crc: u32,
}

impl Record {
    /// The one record check on a segment held whole in memory (backup):
    /// slice this record out — bounds-checked — and compare its CRC32 with
    /// the one the manifest stored. [`Record::read`] is the same check on
    /// an open segment. Every consumer of record bytes (lazy hydration,
    /// compaction copy, scrub, backup copy, backup verification) gets them
    /// from one of the two, so nothing decodes or copies a record the
    /// manifest does not vouch for.
    pub(crate) fn verified<'a>(&self, segment: &'a [u8]) -> Result<&'a [u8], StorageError> {
        let range = self.range(segment.len() as u64)?;
        let record = &segment[range];
        self.check_crc(record)?;
        Ok(record)
    }

    /// Read this record out of its open segment and verify it: a claim
    /// past the segment's end is `Corrupt`, a failed read `Io`, a CRC
    /// mismatch `Corrupt`.
    pub(crate) fn read(&self, segment: &VfsReader) -> Result<Vec<u8>, StorageError> {
        let range = self.range(segment.size())?;
        let mut record = vec![0; range.len()];
        segment.read_exact_at(self.offset, &mut record)?;
        self.check_crc(&record)?;
        Ok(record)
    }

    /// The record's byte range, if it lies inside a segment of
    /// `segment_len` bytes.
    fn range(&self, segment_len: u64) -> Result<std::ops::Range<usize>, StorageError> {
        match self.offset.checked_add(self.len) {
            // `end` is within the segment, so both ends fit in usize on
            // the 64-bit targets this crate builds for.
            Some(end) if end <= segment_len => Ok(self.offset as usize..end as usize),
            _ => Err(StorageError::corrupt(format!(
                "segment {} is {segment_len} bytes but a record claims {} bytes at offset {}",
                self.seg, self.len, self.offset
            ))),
        }
    }

    fn check_crc(&self, record: &[u8]) -> Result<(), StorageError> {
        let got = crc32(record);
        if got != self.crc {
            return Err(StorageError::corrupt(format!(
                "chunk record at offset {} of segment {} fails its checksum \
                 (stored {:#010x}, computed {got:#010x})",
                self.offset, self.seg, self.crc
            )));
        }
        Ok(())
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.seg);
        w.u64(self.offset);
        w.u64(self.len);
        w.u32(self.crc);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StorageError> {
        Ok(Self {
            seg: r.u64()?,
            offset: r.u64()?,
            len: r.u64()?,
            crc: r.u32()?,
        })
    }
}

/// One chunk's persisted record chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// The full record.
    pub base: Record,
    /// Patch records on top of `base`, oldest first.
    pub patches: Vec<Record>,
    /// Live rows in the chunk (serves `len()` before hydration).
    pub live: u64,
    /// Checkpoint generation that wrote the chain's newest record
    /// (compaction telemetry).
    pub written_gen: u64,
    /// The chunk's write mark when the newest record was captured: a
    /// decoded chunk resumes at it, and the next patch carries the
    /// granules stamped above it.
    pub mark: u64,
}

impl ChunkEntry {
    /// A chain of one full record.
    pub(crate) fn full(base: Record, live: u64, written_gen: u64, mark: u64) -> Self {
        Self {
            base,
            patches: Vec::new(),
            live,
            written_gen,
            mark,
        }
    }

    /// The chain's records in decode order: the full record, then the
    /// patches.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        std::iter::once(&self.base).chain(&self.patches)
    }

    /// Bytes the chain's patches take (the fold rule's left-hand side).
    pub(crate) fn patch_bytes(&self) -> u64 {
        self.patches.iter().map(|p| p.len).sum()
    }

    /// Whether this chain is `prev` with zero or more patches appended —
    /// every record `prev` decodes from is still part of it.
    pub(crate) fn extends(&self, prev: &ChunkEntry) -> bool {
        self.base == prev.base && self.patches.starts_with(&prev.patches)
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
    /// Distinct segments the live entries' chains reference.
    pub fn referenced_segments(&self) -> Vec<u64> {
        let records = self.entries.iter().flat_map(ChunkEntry::records);
        let mut segs: Vec<u64> = records.map(|r| r.seg).collect();
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
        e.base.encode(&mut body);
        body.u64(e.live);
        body.u64(e.written_gen);
        body.u64(e.mark);
        body.u64(e.patches.len() as u64);
        for patch in &e.patches {
            patch.encode(&mut body);
        }
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
        let mut entry = ChunkEntry::full(Record::decode(&mut r)?, r.u64()?, r.u64()?, r.u64()?);
        for _ in 0..r.len_u64()? {
            entry.patches.push(Record::decode(&mut r)?);
        }
        entries.push(entry);
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

/// What a checkpoint writes for one chunk into the new segment.
#[derive(Debug)]
pub(crate) enum RecordSource {
    /// Serialize this (hydrated, dirty) chunk whole: a chain of one full
    /// record. The slot is shared with the live column via `Arc` — capture
    /// is a refcount bump, and the engine copy-on-writes before its next
    /// mutation of the chunk, so the store serialized here is frozen at
    /// capture time.
    Encode(Arc<ChunkSlot>),
    /// Append a patch record — already encoded at capture, so the live
    /// chunk is not pinned — to `base`'s chain.
    Patch {
        base: ChunkEntry,
        bytes: Vec<u8>,
        live: u64,
        mark: u64,
    },
    /// Move a clean chunk's chain out of the segments compaction empties
    /// (its records there are byte-copied, CRC-verified in flight but
    /// never decoded).
    Copy(ChunkEntry),
}

/// Everything a checkpoint writes, captured under the foreground's short
/// pause: patches and pinned chunks, reused manifest entries, and the
/// table-level metadata. Serialization + fsync happen wherever the job
/// runs (inline or on the checkpointer thread).
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
    /// Segments this job empties (compaction): every record of a chain it
    /// writes that lives in one of them is byte-copied into the new
    /// segment, so the new manifest references none of them.
    pub evacuate: BTreeSet<u64>,
    /// Archive policy: `Some` retires stale files instead of deleting them.
    pub archive: Option<crate::archive::ArchiveConfig>,
    /// Backup pins shared with the owning table — pinned files survive
    /// both pruning and retiring while a backup copies them.
    pub pins: crate::archive::SharedPins,
}

/// The segment a checkpoint job is writing: records are appended one at a
/// time, so a full checkpoint never holds a second serialized copy of the
/// whole table in memory on top of the captured clones — peak extra memory
/// is one chunk record. After each record, writeback of the bytes just
/// written is *initiated* (non-blocking, no journal commit): a concurrent
/// group-commit WAL fsync on the foreground would otherwise have to flush
/// the whole accumulated segment inside its own journal transaction,
/// stalling the commit path.
struct SegmentWriter<'j> {
    job: &'j CheckpointJob,
    file: crate::vfs::VfsFile,
    offset: u64,
    copied: u64,
}

impl<'j> SegmentWriter<'j> {
    fn create(job: &'j CheckpointJob) -> Result<Self, StorageError> {
        let mut file = job
            .vfs
            .create(&FileKind::Segment.path(&job.dir, job.seg_seq))?;
        let mut header = ByteWriter::new();
        for b in SEGMENT_MAGIC {
            header.u8(b);
        }
        header.u32(MANIFEST_VERSION);
        header.u64(job.seg_seq);
        let header = header.into_bytes();
        debug_assert_eq!(header.len() as u64, SEGMENT_HEADER_LEN);
        file.write_all(&header)?;
        Ok(Self {
            job,
            file,
            offset: SEGMENT_HEADER_LEN,
            copied: 0,
        })
    }

    /// Append one record's bytes; returns where they landed.
    fn append(&mut self, bytes: &[u8]) -> Result<Record, StorageError> {
        self.file.write_all(bytes)?;
        let len = bytes.len() as u64;
        self.file.start_writeback(self.offset, len);
        let record = Record {
            seg: self.job.seg_seq,
            offset: self.offset,
            len,
            crc: crc32(bytes),
        };
        self.offset += len;
        Ok(record)
    }

    /// `entry` with every record that lives in an evacuated segment
    /// byte-copied (CRC-verified on the way) into this one.
    fn relocate(&mut self, entry: &ChunkEntry) -> Result<ChunkEntry, StorageError> {
        let mut moved = entry.clone();
        for record in std::iter::once(&mut moved.base).chain(&mut moved.patches) {
            if self.job.evacuate.contains(&record.seg) {
                let bytes = read_record(&self.job.vfs, &self.job.dir, record)?;
                self.copied += bytes.len() as u64;
                *record = self.append(&bytes)?;
            }
        }
        Ok(moved)
    }

    /// The chain chunk `idx` has once `source` is written.
    fn write(&mut self, idx: usize, source: &RecordSource) -> Result<ChunkEntry, StorageError> {
        let new_gen = self.job.new_gen;
        match source {
            RecordSource::Encode(slot) => {
                // A quarantined (scrub-damaged, never hydrated) chunk must
                // not reach capture; if one does, fail with a typed error
                // instead of panicking inside the encoder.
                let Some(store) = slot.store_opt() else {
                    return Err(StorageError::corrupt(format!(
                        "chunk {idx} reached the checkpoint writer unhydrated \
                         (quarantined or damaged record)"
                    )));
                };
                let mut w = ByteWriter::new();
                encode_store(&mut w, store);
                let base = self.append(&w.into_bytes())?;
                OBS_FULL_RECORDS.inc();
                let mark = match store {
                    ChunkStore::Partitioned(chunk) => chunk.write_mark(),
                    _ => 0,
                };
                Ok(ChunkEntry::full(base, store.len() as u64, new_gen, mark))
            }
            RecordSource::Patch {
                base,
                bytes,
                live,
                mark,
            } => {
                let mut entry = self.relocate(base)?;
                entry.patches.push(self.append(bytes)?);
                OBS_PATCH_RECORDS.inc();
                entry.live = *live;
                entry.mark = *mark;
                entry.written_gen = new_gen;
                Ok(entry)
            }
            RecordSource::Copy(entry) => {
                let mut moved = self.relocate(entry)?;
                moved.written_gen = new_gen;
                Ok(moved)
            }
        }
    }

    fn finish(mut self) -> Result<(), StorageError> {
        self.file.sync_all()?;
        OBS_SEGMENT_BYTES.add(self.offset - SEGMENT_HEADER_LEN);
        OBS_COMPACTION_BYTES.add(self.copied);
        Ok(())
    }
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
        let mut segment = SegmentWriter::create(job)?;
        for (idx, source) in &job.fresh {
            entries[*idx] = Some(segment.write(*idx, source)?);
        }
        segment.finish()?;
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

/// Encode chunk `store`'s patch against `base`, the chain a clean copy of
/// it decodes from — or `None` when the chunk must be written whole: it is
/// not a partitioned chunk, or the **fold rule** applies (the chain's
/// patch bytes plus this patch would reach its full record's size).
pub(crate) fn capture_patch(store: &ChunkStore, base: &ChunkEntry) -> Option<RecordSource> {
    let ChunkStore::Partitioned(chunk) = store else {
        return None;
    };
    let mut w = ByteWriter::new();
    encode_patch(&mut w, chunk, base.mark);
    let bytes = w.into_bytes();
    if base.patch_bytes() + bytes.len() as u64 >= base.base.len {
        OBS_FOLDS.inc();
        return None;
    }
    Some(RecordSource::Patch {
        base: base.clone(),
        bytes,
        live: chunk.live_len() as u64,
        mark: chunk.write_mark(),
    })
}

/// Which segments a checkpoint empties. `live` maps every segment the new
/// manifest would reference (the fresh one aside) to the record bytes it
/// holds for it. A forced compaction empties them all. Otherwise, once
/// they and the fresh segment would exceed `max_segments`, the ones
/// holding the fewest live bytes are emptied — the `max_segments - 1`
/// fullest stay, the fresh segment takes the rest — so steady-state
/// compaction moves the small patch segments, not the full records.
pub(crate) fn segments_to_evacuate(
    live: &BTreeMap<u64, u64>,
    fresh: bool,
    max_segments: usize,
    force: bool,
) -> BTreeSet<u64> {
    if force {
        return live.keys().copied().collect();
    }
    if live.len() + usize::from(fresh) <= max_segments {
        return BTreeSet::new();
    }
    let mut fullest: Vec<(u64, u64)> = live.iter().map(|(&seg, &bytes)| (bytes, seg)).collect();
    fullest.sort_unstable_by(|a, b| b.cmp(a));
    let emptied = fullest.into_iter().skip(max_segments.saturating_sub(1));
    emptied.map(|(_, seg)| seg).collect()
}

/// Read and verify one persisted record (compaction byte-copy path and
/// the scrubber's verification pass): only the record's bytes are read.
pub(crate) fn read_record(
    vfs: &VfsHandle,
    dir: &Path,
    record: &Record,
) -> Result<Vec<u8>, StorageError> {
    record.read(&vfs.open_read(&FileKind::Segment.path(dir, record.seg))?)
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

/// Build a table from a manifest: open every referenced segment once,
/// verify its header, and hand each chunk to the engine as a lazy slot
/// that reads, verifies and decodes its record chain on first touch
/// (`Table::hydrate_all` forces them all). The loaders share the open
/// handles, so a segment a later compaction unlinks stays readable until
/// the last chunk reading it has hydrated. Each segment is taken from the
/// first of `dirs` that holds it (point-in-time restores mix live and
/// archived segments — a shared segment may still be live while the base
/// manifest is archived). A segment found nowhere resolves to the primary
/// directory so the open produces the usual typed error.
pub(crate) fn restore_table(
    vfs: &VfsHandle,
    dirs: &[&Path],
    manifest: &Manifest,
) -> Result<Table, StorageError> {
    let mut open: BTreeMap<u64, Arc<VfsReader>> = BTreeMap::new();
    for seg in manifest.referenced_segments() {
        let path = dirs
            .iter()
            .map(|d| FileKind::Segment.path(d, seg))
            .find(|p| p.exists())
            .unwrap_or_else(|| FileKind::Segment.path(dirs[0], seg));
        open.insert(seg, Arc::new(open_segment(vfs, &path, seg)?));
    }
    let payload_width = manifest.schema.payload_cols;
    let config = manifest.config;
    let mut chunks = Vec::with_capacity(manifest.entries.len());
    for entry in &manifest.entries {
        let live = usize::try_from(entry.live)
            .map_err(|_| StorageError::corrupt("live count overflows usize"))?;
        let segments: BTreeMap<u64, Arc<VfsReader>> = entry
            .records()
            .map(|r| (r.seg, Arc::clone(&open[&r.seg])))
            .collect();
        let entry = entry.clone();
        let loader = move || decode_entry(&segments, &entry, &config, payload_width);
        chunks.push(ChunkSlot::new_lazy(live, Box::new(loader)));
    }
    let column = ChunkedColumn::from_restored(
        chunks,
        manifest.fences.clone(),
        manifest.config,
        payload_width,
        &manifest.fms,
    );
    Ok(Table::from_restored(manifest.schema, column))
}

/// Build a lazy loader re-pointing an **evicted** chunk at its persisted
/// chain: the segments are opened on first touch (not held open — an
/// evicted chunk should cost nothing until someone reads it), their
/// headers and every record CRC are verified, and the store decodes
/// through the shared chain decoder — the same integrity path
/// restore-time laziness uses, so rehydration is bit-exact by
/// construction. A failed open or read is `Io`, and the next touch tries
/// again.
pub(crate) fn record_loader(
    vfs: VfsHandle,
    dir: PathBuf,
    entry: ChunkEntry,
    config: EngineConfig,
    payload_width: usize,
) -> casper_engine::column::ChunkLoader {
    Box::new(move || {
        let mut segments = BTreeMap::new();
        for seg in entry.records().map(|r| r.seg) {
            if let Entry::Vacant(slot) = segments.entry(seg) {
                let path = FileKind::Segment.path(&dir, seg);
                slot.insert(Arc::new(open_segment(&vfs, &path, seg)?));
            }
        }
        decode_entry(&segments, &entry, &config, payload_width)
    })
}

/// Open segment `seq` at `path` and verify its header.
fn open_segment(vfs: &VfsHandle, path: &Path, seq: u64) -> Result<VfsReader, StorageError> {
    let segment = vfs.open_read(path)?;
    let mut header = vec![0; SEGMENT_HEADER_LEN.min(segment.size()) as usize];
    segment.read_exact_at(0, &mut header)?;
    verify_segment_header(&header, seq)?;
    Ok(segment)
}

/// Check a segment's header (magic, this build's version, recorded
/// sequence).
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
            "segment {seq}: unsupported version {version} (this build reads {MANIFEST_VERSION})"
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

/// Decode one chunk out of its open segments: every record of its chain
/// read and verified at first touch, then the shared chain decoder.
fn decode_entry(
    segments: &BTreeMap<u64, Arc<VfsReader>>,
    entry: &ChunkEntry,
    config: &EngineConfig,
    payload_width: usize,
) -> Result<ChunkStore, StorageError> {
    let records = entry
        .records()
        .map(|r| {
            let segment = segments.get(&r.seg).ok_or_else(|| {
                StorageError::corrupt(format!("segment {} of a chunk chain is not open", r.seg))
            })?;
            r.read(segment)
        })
        .collect::<Result<Vec<Vec<u8>>, StorageError>>()?;
    let records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
    decode_chain(&records, entry.mark, config, payload_width)
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
                ChunkEntry::full(record(2, 16, 100, 0xDEAD_BEEF), 64, 3, 0),
                ChunkEntry {
                    patches: vec![record(5, 96, 20, 0xAB), record(6, 16, 24, 0xCD)],
                    ..ChunkEntry::full(record(5, 16, 80, 0x1234_5678), 32, 7, 41)
                },
            ],
            fms: vec![fm()],
        }
    }

    fn record(seg: u64, offset: u64, len: u64, crc: u32) -> Record {
        Record {
            seg,
            offset,
            len,
            crc,
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
        assert_eq!(d.referenced_segments(), vec![2, 5, 6]);
    }

    #[test]
    fn chain_extension_is_a_prefix_relation() {
        let m = manifest();
        let chain = &m.entries[1];
        let mut longer = chain.clone();
        longer.patches.push(record(7, 16, 8, 1));
        assert!(longer.extends(chain) && chain.extends(chain));
        assert!(!chain.extends(&longer));
        assert!(!m.entries[0].extends(chain), "another base");
        assert_eq!(chain.patch_bytes(), 44);
        let segs: Vec<u64> = chain.records().map(|r| r.seg).collect();
        assert_eq!(segs, [5, 5, 6]);
    }

    /// Automatic compaction empties the emptiest segments until the
    /// manifest fits; a forced one empties them all.
    #[test]
    fn compaction_evacuates_the_emptiest_segments() {
        let live: BTreeMap<u64, u64> = [(1, 70_000), (2, 900), (3, 4_000), (4, 800), (5, 700)]
            .into_iter()
            .collect();
        let set = |segs: &[u64]| segs.iter().copied().collect::<BTreeSet<u64>>();
        assert_eq!(segments_to_evacuate(&live, true, 6, false), set(&[]));
        assert_eq!(segments_to_evacuate(&live, false, 5, false), set(&[]));
        assert_eq!(segments_to_evacuate(&live, true, 5, false), set(&[5]));
        assert_eq!(segments_to_evacuate(&live, true, 3, false), set(&[2, 4, 5]));
        assert_eq!(
            segments_to_evacuate(&live, false, 1, false),
            set(&[1, 2, 3, 4, 5])
        );
        assert_eq!(
            segments_to_evacuate(&live, false, 6, true),
            set(&[1, 2, 3, 4, 5])
        );
    }

    #[test]
    fn verified_believes_a_record_only_after_its_crc() {
        let mut segment = vec![0u8; SEGMENT_HEADER_LEN as usize];
        let record = b"a chunk record's bytes";
        segment.extend_from_slice(record);
        let entry = Record {
            seg: 1,
            offset: SEGMENT_HEADER_LEN,
            len: record.len() as u64,
            crc: crc32(record),
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
        let wild = Record {
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

//! LSN-indexed archive, point-in-time restore, and online hot backup.
//!
//! Checkpoint pruning normally *deletes* superseded files: older manifests,
//! segments no live entry references, WAL links below the durable
//! generation. With an [`ArchiveConfig`] on
//! [`crate::DurableOptions::archive`], pruning instead *retires* them into
//! `<dir>/archive/`, indexed by a CRC-guarded `archive-index.casper` that
//! maps every retired file to its LSN coordinates. Because segments are
//! append-once and manifests are layout-preserving, an archived
//! `(manifest, segments)` pair plus the archived WAL chain restores any
//! historical LSN with **zero layout solves and zero codec re-encodes** —
//! the same restore guarantee the live path has ([`open_at`]).
//!
//! ## Crash safety of retire
//!
//! Retire is two-phase and runs entirely through the [`Vfs`]:
//!
//! 1. each stale file is `rename`d into `archive/` (atomic; the bytes are
//!    read first so the index entry carries a whole-file CRC),
//! 2. `fsync_dir(archive/)` then `fsync_dir(dir)` commit the dirents,
//! 3. the index is rewritten via the temp-file + rename + checked
//!    directory-fsync path ([`crate::durable::write_atomic`]).
//!
//! A crash anywhere in between leaves either the live copy (rename not
//! yet durable — the next retire redoes it) or an archived-but-unindexed
//! file (the next retire's *reconcile* step reads it back and re-indexes
//! it). The index is therefore a rebuildable cache of the archive
//! directory, never the source of truth for what exists.
//!
//! ## Hot backup
//!
//! [`crate::DurableTable::begin_backup`] pins the current generation
//! (manifest + segments + WAL chain) against pruning *and* retiring, then
//! hands back a [`BackupJob`] that can run on any thread while the
//! foreground keeps serving: it copies the pinned manifest, every
//! referenced segment, and the sealed WAL prefix — CRC-verifying every
//! record on the way out — and writes the backup's `CURRENT` last, as the
//! commit point. The result is itself a valid durable-table directory
//! ([`verify_backup`] checks it end to end).

use crate::codec::{frame, unframe, ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::incremental::{
    decode_manifest, numbered_file, prune_stale, read_current, read_manifest, restore_table,
    segment_path, verify_segment_header, Manifest,
};
use crate::vfs::{Vfs, VfsHandle};
use crate::wal::{replay_upto, scan, walk_chain};
use crate::PersistError;
use casper_engine::Table;
use casper_obs::{CounterDef, GaugeDef, HistogramDef};
use casper_storage::StorageError;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Magic bytes opening the archive index file.
pub const ARCHIVE_INDEX_MAGIC: [u8; 4] = *b"CSPA";
/// Archive index format version.
pub const ARCHIVE_INDEX_VERSION: u32 = 1;
/// File name of the index inside the archive directory.
pub const ARCHIVE_INDEX_NAME: &str = "archive-index.casper";

// Archive + PITR telemetry. Gauges reflect the indexed archive after every
// retire; counters accumulate across retires/backups/restores.
static OBS_ARCHIVE_BYTES: GaugeDef = GaugeDef::new("casper_archive_bytes");
static OBS_ARCHIVE_FILES: GaugeDef = GaugeDef::new("casper_archive_files");
static OBS_RETIRED_FILES: CounterDef = CounterDef::new("casper_archive_retired_files_total");
static OBS_RETENTION_PRUNED: CounterDef = CounterDef::new("casper_archive_retention_pruned_total");
static OBS_RETIRE_ERRORS: CounterDef = CounterDef::new("casper_archive_retire_errors_total");
static OBS_BACKUPS: CounterDef = CounterDef::new("casper_backups_total");
static OBS_BACKUP_BYTES: CounterDef = CounterDef::new("casper_backup_bytes_total");
static OBS_BACKUP_NS: HistogramDef = HistogramDef::new("casper_backup_duration_ns");
static OBS_RESTORES: CounterDef = CounterDef::new("casper_pitr_restores_total");
static OBS_RESTORE_NS: HistogramDef = HistogramDef::new("casper_pitr_restore_duration_ns");

fn corrupt(reason: impl Into<String>) -> PersistError {
    PersistError::Storage(StorageError::Corrupt {
        reason: reason.into(),
    })
}

/// Retention policy for the archive. Every limit is a horizon; `0` means
/// "unbounded on this axis". The default keeps everything.
///
/// Retention drops whole *generations* oldest-first: an archived manifest
/// leaves together with the segments only it references and the WAL links
/// below the oldest surviving generation, so whatever remains is always a
/// complete restore point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// Drop oldest generations once the indexed archive exceeds this many
    /// bytes (0 = unbounded).
    pub max_bytes: u64,
    /// Drop generations whose durable LSN trails the live durable LSN by
    /// more than this many LSNs (0 = unbounded).
    pub max_lsns: u64,
    /// Drop generations retired more than this many seconds ago
    /// (0 = unbounded).
    pub max_age_secs: u64,
}

/// One archived manifest: a restorable base generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivedManifest {
    /// Checkpoint generation of the archived manifest.
    pub generation: u64,
    /// Highest WAL LSN the manifest folded in — the restore base for any
    /// target at or after it.
    pub durable_lsn: u64,
    /// Segments the manifest's entries reference (they may live in the
    /// archive or still be live, shared with newer generations).
    pub segments: Vec<u64>,
    /// Whole-file byte length at retire time.
    pub bytes: u64,
    /// Whole-file CRC32 at retire time (the scrubber re-verifies it).
    pub crc: u32,
    /// Unix seconds when the file was retired (age-based retention).
    pub retired_unix: u64,
}

/// One archived segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivedSegment {
    /// Segment sequence number.
    pub seq: u64,
    /// Whole-file byte length at retire time.
    pub bytes: u64,
    /// Whole-file CRC32 at retire time.
    pub crc: u32,
    /// Unix seconds when the file was retired.
    pub retired_unix: u64,
}

/// One archived WAL link, with the LSN range its sealed batches cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivedWal {
    /// WAL sequence number (equals the generation whose capture created
    /// the file).
    pub seq: u64,
    /// First LSN of the first sealed batch (0 when the link is empty).
    pub first_lsn: u64,
    /// Commit LSN of the last sealed batch (0 when the link is empty).
    pub last_lsn: u64,
    /// Whole-file byte length at retire time.
    pub bytes: u64,
    /// Whole-file CRC32 at retire time.
    pub crc: u32,
    /// Unix seconds when the file was retired.
    pub retired_unix: u64,
}

/// The LSN index over `<dir>/archive/`: which retired files exist and what
/// LSN coordinates they cover. Persisted as a CRC-guarded
/// `archive-index.casper`; rebuildable from the archived files themselves
/// (retire reconciles the two on every pass), so index loss or corruption
/// never loses history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchiveIndex {
    /// Archived manifests, ascending by generation.
    pub manifests: Vec<ArchivedManifest>,
    /// Archived segments, ascending by sequence.
    pub segments: Vec<ArchivedSegment>,
    /// Archived WAL links, ascending by sequence.
    pub wals: Vec<ArchivedWal>,
}

/// `<dir>/archive`.
pub fn archive_dir(dir: &Path) -> PathBuf {
    dir.join("archive")
}

fn index_path(dir: &Path) -> PathBuf {
    archive_dir(dir).join(ARCHIVE_INDEX_NAME)
}

fn manifest_name(generation: u64) -> String {
    format!("manifest-{generation:06}.casper")
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:06}.casper")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

impl ArchiveIndex {
    /// Serialize (header + CRC-guarded body, same shape as manifests).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        body.u64(self.manifests.len() as u64);
        for m in &self.manifests {
            body.u64(m.generation);
            body.u64(m.durable_lsn);
            body.vec_u64(&m.segments);
            body.u64(m.bytes);
            body.u32(m.crc);
            body.u64(m.retired_unix);
        }
        body.u64(self.segments.len() as u64);
        for s in &self.segments {
            body.u64(s.seq);
            body.u64(s.bytes);
            body.u32(s.crc);
            body.u64(s.retired_unix);
        }
        body.u64(self.wals.len() as u64);
        for w in &self.wals {
            body.u64(w.seq);
            body.u64(w.first_lsn);
            body.u64(w.last_lsn);
            body.u64(w.bytes);
            body.u32(w.crc);
            body.u64(w.retired_unix);
        }
        frame(
            ARCHIVE_INDEX_MAGIC,
            ARCHIVE_INDEX_VERSION,
            &body.into_bytes(),
        )
    }

    /// Decode, verifying magic, version and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, StorageError> {
        let body = unframe(
            bytes,
            ARCHIVE_INDEX_MAGIC,
            ARCHIVE_INDEX_VERSION,
            "archive index",
        )?;
        let mut r = ByteReader::new(body);
        let mut index = ArchiveIndex::default();
        let n = r.len_u64()?;
        for _ in 0..n {
            index.manifests.push(ArchivedManifest {
                generation: r.u64()?,
                durable_lsn: r.u64()?,
                segments: r.vec_u64()?,
                bytes: r.u64()?,
                crc: r.u32()?,
                retired_unix: r.u64()?,
            });
        }
        let n = r.len_u64()?;
        for _ in 0..n {
            index.segments.push(ArchivedSegment {
                seq: r.u64()?,
                bytes: r.u64()?,
                crc: r.u32()?,
                retired_unix: r.u64()?,
            });
        }
        let n = r.len_u64()?;
        for _ in 0..n {
            index.wals.push(ArchivedWal {
                seq: r.u64()?,
                first_lsn: r.u64()?,
                last_lsn: r.u64()?,
                bytes: r.u64()?,
                crc: r.u32()?,
                retired_unix: r.u64()?,
            });
        }
        r.finish()?;
        Ok(index)
    }

    /// Load the index of `dir`'s archive (`dir` is the *table* directory).
    /// A missing index file is an empty archive; a damaged one is a typed
    /// error (retire tolerates it by rebuilding — see the module docs).
    pub fn load(vfs: &VfsHandle, dir: &Path) -> Result<Self, PersistError> {
        let bytes = match vfs.read(&index_path(dir)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(e.into()),
        };
        Ok(Self::decode(&bytes)?)
    }

    /// Persist the index atomically (temp file + rename + checked
    /// directory fsync).
    pub(crate) fn store(&self, vfs: &VfsHandle, dir: &Path) -> Result<(), PersistError> {
        crate::durable::write_atomic(vfs, &index_path(dir), &self.encode())
    }

    /// Total bytes of the indexed files (the retention measure; the index
    /// file itself is not counted).
    pub fn total_bytes(&self) -> u64 {
        self.manifests.iter().map(|m| m.bytes).sum::<u64>()
            + self.segments.iter().map(|s| s.bytes).sum::<u64>()
            + self.wals.iter().map(|w| w.bytes).sum::<u64>()
    }

    /// Number of indexed files.
    pub fn file_count(&self) -> u64 {
        (self.manifests.len() + self.segments.len() + self.wals.len()) as u64
    }

    fn has_segment(&self, seq: u64) -> bool {
        self.segments.iter().any(|s| s.seq == seq)
    }

    fn has_wal(&self, seq: u64) -> bool {
        self.wals.iter().any(|w| w.seq == seq)
    }

    fn normalize(&mut self) {
        self.manifests.sort_by_key(|m| m.generation);
        self.segments.sort_by_key(|s| s.seq);
        self.wals.sort_by_key(|w| w.seq);
    }

    fn publish_gauges(&self) {
        if casper_obs::enabled() {
            OBS_ARCHIVE_BYTES.set(self.total_bytes() as f64);
            OBS_ARCHIVE_FILES.set(self.file_count() as f64);
        }
    }
}

// ---------------------------------------------------------------------
// Backup pins
// ---------------------------------------------------------------------

/// One in-progress backup's claim on the files it is copying.
#[derive(Debug, Clone)]
pub(crate) struct BackupPin {
    pub generation: u64,
    pub segments: BTreeSet<u64>,
    pub min_wal: u64,
}

/// Pins shared between the table, its checkpoint jobs (pruning runs on the
/// checkpointer thread) and outstanding [`BackupJob`]s. A pinned file is
/// neither deleted nor renamed into the archive until the pin drops.
#[derive(Debug, Clone, Default)]
pub(crate) struct SharedPins {
    inner: Arc<Mutex<Vec<(u64, BackupPin)>>>,
    next_id: Arc<Mutex<u64>>,
}

impl SharedPins {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(u64, BackupPin)>> {
        // A panic while holding the lock cannot leave the pin list torn
        // (every op is a push/retain); recover the data instead of
        // propagating the poison into the prune path.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn pin(&self, pin: BackupPin) -> PinGuard {
        let id = {
            let mut next = self.next_id.lock().unwrap_or_else(|e| e.into_inner());
            *next += 1;
            *next
        };
        self.lock().push((id, pin));
        PinGuard {
            pins: self.clone(),
            id,
        }
    }

    pub fn keep_manifest(&self, generation: u64) -> bool {
        self.lock().iter().any(|(_, p)| p.generation == generation)
    }

    pub fn keep_segment(&self, seq: u64) -> bool {
        self.lock().iter().any(|(_, p)| p.segments.contains(&seq))
    }

    pub fn keep_wal(&self, seq: u64) -> bool {
        self.lock().iter().any(|(_, p)| seq >= p.min_wal)
    }
}

/// Releases its pin on drop.
#[derive(Debug)]
pub(crate) struct PinGuard {
    pins: SharedPins,
    id: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.pins.lock().retain(|(id, _)| *id != self.id);
    }
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

/// What `run_checkpoint` (and reopen) calls where plain pruning used to
/// be: with archiving off, prune — skipping pinned files; with archiving
/// on, retire stale files into the archive. Best-effort either way: the
/// checkpoint is already committed (`CURRENT` swung), so a retire failure
/// only leaves stale files in place for the next checkpoint to move, and
/// is reported through the obs counter + rate-limited log, never as an
/// error to the committing caller.
pub(crate) fn retire_stale(
    vfs: &VfsHandle,
    dir: &Path,
    manifest: &Manifest,
    cfg: Option<&ArchiveConfig>,
    pins: &SharedPins,
) {
    match cfg {
        None => prune_stale(vfs, dir, manifest, pins),
        Some(cfg) => {
            if let Err(e) = archive_retire(vfs, dir, manifest, cfg, pins) {
                OBS_RETIRE_ERRORS.inc();
                crate::durable::warn_rate_limited(&format!(
                    "archive retire failed (stale files stay for the next checkpoint): {e}"
                ));
            }
        }
    }
}

/// Read `path` and build its archived-WAL entry (LSN range from a scan of
/// the sealed batches).
fn wal_entry(seq: u64, bytes: &[u8], now: u64) -> ArchivedWal {
    let s = scan(bytes);
    let first_lsn = s
        .batches
        .first()
        .map_or(0, |b| b.commit_lsn - b.ops.len() as u64);
    ArchivedWal {
        seq,
        first_lsn,
        last_lsn: s.last_lsn,
        bytes: bytes.len() as u64,
        crc: crc32(bytes),
        retired_unix: now,
    }
}

/// One retire pass: reconcile the index with the archive directory,
/// rename every stale live file in, commit the dirents, apply retention,
/// rewrite the index. Per-file I/O errors skip that file (it stays live
/// and is retried by the next checkpoint's retire); the first such error
/// is returned at the end so the failure is observable.
fn archive_retire(
    vfs: &VfsHandle,
    dir: &Path,
    manifest: &Manifest,
    cfg: &ArchiveConfig,
    pins: &SharedPins,
) -> Result<(), PersistError> {
    let adir = archive_dir(dir);
    fs::create_dir_all(&adir)?;
    // A damaged index must not block retirement: rebuild from the files.
    let mut index = ArchiveIndex::load(vfs, dir).unwrap_or_default();
    reconcile(vfs, dir, &mut index);

    let referenced: BTreeSet<u64> = manifest.referenced_segments().into_iter().collect();
    let now = unix_now();
    let mut stale_manifests: Vec<(u64, PathBuf)> = Vec::new();
    let mut stale_segments: Vec<(u64, PathBuf)> = Vec::new();
    let mut stale_wals: Vec<(u64, PathBuf)> = Vec::new();
    let mut garbage: Vec<PathBuf> = Vec::new();
    let entries = fs::read_dir(dir)?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            continue; // the archive directory itself
        }
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(g) = numbered_file(&name, "manifest-", ".casper") {
            if g == manifest.generation || pins.keep_manifest(g) {
                continue;
            }
            if g > manifest.generation {
                // A checkpoint that died after its manifest write but
                // before the CURRENT swing: never referenced, not history.
                garbage.push(path);
            } else {
                stale_manifests.push((g, path));
            }
        } else if let Some(s) = numbered_file(&name, "seg-", ".casper") {
            if !referenced.contains(&s) && !pins.keep_segment(s) {
                stale_segments.push((s, path));
            }
        } else if let Some(w) = numbered_file(&name, "wal-", ".log") {
            if w < manifest.generation && !pins.keep_wal(w) {
                stale_wals.push((w, path));
            }
        } else if name.ends_with(".tmp") {
            garbage.push(path);
        }
    }
    stale_manifests.sort_unstable_by_key(|(g, _)| *g);
    stale_segments.sort_unstable_by_key(|(s, _)| *s);
    stale_wals.sort_unstable_by_key(|(w, _)| *w);

    let mut first_err: Option<PersistError> = None;
    let note = |e: PersistError, err_slot: &mut Option<PersistError>| {
        if err_slot.is_none() {
            *err_slot = Some(e);
        }
    };
    let mut retired = 0u64;
    // Manifests first: they decide which superseded segments are history
    // (still referenced by some archived generation) vs garbage.
    for (g, path) in stale_manifests {
        if index.manifests.iter().any(|m| m.generation == g) {
            // Duplicate of an already-archived generation (a crash-restored
            // live copy): the archive copy wins.
            garbage.push(path);
            continue;
        }
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) => {
                note(e.into(), &mut first_err);
                continue;
            }
        };
        let Ok(m) = decode_manifest(&bytes) else {
            // Undecodable: not usable history, treat as prune would.
            garbage.push(path);
            continue;
        };
        if let Err(e) = vfs.rename(&path, &adir.join(manifest_name(g))) {
            note(e.into(), &mut first_err);
            continue;
        }
        retired += 1;
        index.manifests.push(ArchivedManifest {
            generation: g,
            durable_lsn: m.durable_lsn,
            segments: m.referenced_segments(),
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
            retired_unix: now,
        });
    }
    for (w, path) in stale_wals {
        if index.has_wal(w) {
            garbage.push(path);
            continue;
        }
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) => {
                note(e.into(), &mut first_err);
                continue;
            }
        };
        if let Err(e) = vfs.rename(&path, &adir.join(wal_name(w))) {
            note(e.into(), &mut first_err);
            continue;
        }
        retired += 1;
        index.wals.push(wal_entry(w, &bytes, now));
    }
    // A superseded segment is history iff some archived generation still
    // references it; otherwise it is garbage exactly as under pruning.
    let archive_refs: BTreeSet<u64> = index
        .manifests
        .iter()
        .flat_map(|m| m.segments.iter().copied())
        .collect();
    for (s, path) in stale_segments {
        if index.has_segment(s) {
            garbage.push(path);
            continue;
        }
        if !archive_refs.contains(&s) {
            garbage.push(path);
            continue;
        }
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) => {
                note(e.into(), &mut first_err);
                continue;
            }
        };
        if let Err(e) = vfs.rename(&path, &adir.join(segment_name(s))) {
            note(e.into(), &mut first_err);
            continue;
        }
        retired += 1;
        index.segments.push(ArchivedSegment {
            seq: s,
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
            retired_unix: now,
        });
    }
    for path in garbage {
        let _ = vfs.remove(&path);
    }
    // Commit the renames (archive side) and the removals + departures
    // (live side) before the index claims any of it.
    vfs.fsync_dir(&adir)?;
    vfs.fsync_dir(dir)?;
    OBS_RETIRED_FILES.add(retired);

    let pruned = apply_retention(vfs, &adir, &mut index, cfg, manifest.durable_lsn, now);
    OBS_RETENTION_PRUNED.add(pruned);
    index.normalize();
    index.store(vfs, dir)?;
    index.publish_gauges();
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Bring the index in line with what is actually on disk: drop entries
/// whose file vanished (crash between retention removals and the index
/// write) and absorb archived-but-unindexed files (crash between the
/// retire renames and the index write). Per-file read errors leave the
/// file unindexed for a later pass. This is what makes the index
/// rebuildable — even from nothing.
fn reconcile(vfs: &VfsHandle, dir: &Path, index: &mut ArchiveIndex) {
    let adir = archive_dir(dir);
    index
        .manifests
        .retain(|m| adir.join(manifest_name(m.generation)).exists());
    index
        .segments
        .retain(|s| adir.join(segment_name(s.seq)).exists());
    index.wals.retain(|w| adir.join(wal_name(w.seq)).exists());

    let Ok(entries) = fs::read_dir(&adir) else {
        return;
    };
    let now = unix_now();
    let mut orphan_segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name == ARCHIVE_INDEX_NAME {
            continue;
        }
        if name.ends_with(".tmp") {
            let _ = vfs.remove(&path);
            continue;
        }
        if let Some(g) = numbered_file(&name, "manifest-", ".casper") {
            if index.manifests.iter().any(|m| m.generation == g) {
                continue;
            }
            let Ok(bytes) = vfs.read(&path) else { continue };
            match decode_manifest(&bytes) {
                Ok(m) => index.manifests.push(ArchivedManifest {
                    generation: g,
                    durable_lsn: m.durable_lsn,
                    segments: m.referenced_segments(),
                    bytes: bytes.len() as u64,
                    crc: crc32(&bytes),
                    retired_unix: now,
                }),
                // An undecodable archived manifest is not history.
                Err(_) => {
                    let _ = vfs.remove(&path);
                }
            }
        } else if let Some(s) = numbered_file(&name, "seg-", ".casper") {
            if !index.has_segment(s) {
                orphan_segments.push((s, path));
            }
        } else if let Some(w) = numbered_file(&name, "wal-", ".log") {
            if index.has_wal(w) {
                continue;
            }
            let Ok(bytes) = vfs.read(&path) else { continue };
            index.wals.push(wal_entry(w, &bytes, now));
        }
    }
    // Orphan segments are kept iff some (possibly just-reconciled)
    // archived generation references them.
    let refs: BTreeSet<u64> = index
        .manifests
        .iter()
        .flat_map(|m| m.segments.iter().copied())
        .collect();
    for (s, path) in orphan_segments {
        if !refs.contains(&s) {
            let _ = vfs.remove(&path);
            continue;
        }
        let Ok(bytes) = vfs.read(&path) else { continue };
        index.segments.push(ArchivedSegment {
            seq: s,
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
            retired_unix: now,
        });
    }
}

/// Which files survive if `drop_gens` is dropped: remaining manifests,
/// segments any of them references, WAL links at or above the oldest
/// remaining generation (none remaining → no WAL links either).
fn retained_after(
    index: &ArchiveIndex,
    drop_gens: &BTreeSet<u64>,
) -> (BTreeSet<u64>, BTreeSet<u64>, BTreeSet<u64>) {
    let keep_manifests: BTreeSet<u64> = index
        .manifests
        .iter()
        .map(|m| m.generation)
        .filter(|g| !drop_gens.contains(g))
        .collect();
    let keep_segments: BTreeSet<u64> = index
        .manifests
        .iter()
        .filter(|m| keep_manifests.contains(&m.generation))
        .flat_map(|m| m.segments.iter().copied())
        .collect();
    let keep_wals: BTreeSet<u64> = match keep_manifests.iter().next() {
        Some(&min_gen) => index
            .wals
            .iter()
            .map(|w| w.seq)
            .filter(|&s| s >= min_gen)
            .collect(),
        None => BTreeSet::new(),
    };
    (keep_manifests, keep_segments, keep_wals)
}

fn retained_bytes(index: &ArchiveIndex, drop_gens: &BTreeSet<u64>) -> u64 {
    let (km, ks, kw) = retained_after(index, drop_gens);
    index
        .manifests
        .iter()
        .filter(|m| km.contains(&m.generation))
        .map(|m| m.bytes)
        .sum::<u64>()
        + index
            .segments
            .iter()
            .filter(|s| ks.contains(&s.seq))
            .map(|s| s.bytes)
            .sum::<u64>()
        + index
            .wals
            .iter()
            .filter(|w| kw.contains(&w.seq))
            .map(|w| w.bytes)
            .sum::<u64>()
}

/// Apply the retention policy: pick the generations to drop (age, LSN
/// horizon, then oldest-first until the byte budget holds), remove their
/// files, and shrink the index. An entry leaves the index only once its
/// file is actually gone, so a failed remove is retried next pass.
/// Returns the number of files removed.
fn apply_retention(
    vfs: &VfsHandle,
    adir: &Path,
    index: &mut ArchiveIndex,
    cfg: &ArchiveConfig,
    live_lsn: u64,
    now: u64,
) -> u64 {
    let mut drop_gens: BTreeSet<u64> = BTreeSet::new();
    for m in &index.manifests {
        if cfg.max_age_secs > 0 && now.saturating_sub(m.retired_unix) > cfg.max_age_secs {
            drop_gens.insert(m.generation);
        }
        if cfg.max_lsns > 0 && m.durable_lsn.saturating_add(cfg.max_lsns) < live_lsn {
            drop_gens.insert(m.generation);
        }
    }
    if cfg.max_bytes > 0 {
        let mut gens: Vec<u64> = index.manifests.iter().map(|m| m.generation).collect();
        gens.sort_unstable();
        let mut oldest = gens.into_iter();
        while retained_bytes(index, &drop_gens) > cfg.max_bytes {
            match oldest.find(|g| !drop_gens.contains(g)) {
                Some(g) => {
                    drop_gens.insert(g);
                }
                None => break,
            }
        }
    }
    if drop_gens.is_empty() {
        return 0;
    }
    let (keep_manifests, keep_segments, keep_wals) = retained_after(index, &drop_gens);
    let mut removed = 0u64;
    let mut try_remove = |path: PathBuf| -> bool {
        match vfs.remove(&path) {
            Ok(()) => {
                removed += 1;
                true
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(_) => false, // keep the entry; retried next pass
        }
    };
    index.manifests.retain(|m| {
        keep_manifests.contains(&m.generation)
            || !try_remove(adir.join(manifest_name(m.generation)))
    });
    index
        .segments
        .retain(|s| keep_segments.contains(&s.seq) || !try_remove(adir.join(segment_name(s.seq))));
    index
        .wals
        .retain(|w| keep_wals.contains(&w.seq) || !try_remove(adir.join(wal_name(w.seq))));
    removed
}

// ---------------------------------------------------------------------
// Restore to LSN
// ---------------------------------------------------------------------

/// A table restored to a historical LSN by [`crate::DurableTable::open_at`].
/// Read-only by construction: it is not wired to a WAL or a checkpoint
/// directory — export what you need, or copy it into a fresh
/// [`crate::DurableTable::create_from_table`] to serve writes from it.
#[derive(Debug)]
pub struct PointInTime {
    /// The restored table, bit-exact at [`PointInTime::restored_lsn`].
    pub table: Table,
    /// Generation of the (archived or live) base manifest used.
    pub generation: u64,
    /// The base manifest's durable LSN (replay started after it).
    pub base_lsn: u64,
    /// Commit LSN of the last batch applied: the largest committed LSN at
    /// or below the requested target (a mid-batch target rounds down to
    /// its batch boundary — group commit means nothing between boundaries
    /// was ever acknowledged).
    pub restored_lsn: u64,
    /// WAL operations replayed on top of the base manifest.
    pub ops_replayed: u64,
}

/// Restore the newest state at or before `lsn`. See
/// [`crate::DurableTable::open_at`] for the full contract.
pub(crate) fn open_at(vfs: &VfsHandle, dir: &Path, lsn: u64) -> Result<PointInTime, PersistError> {
    let start = Instant::now();
    let adir = archive_dir(dir);
    // Candidate bases: every decodable manifest, archived or live. The
    // directories — not the index — are the source of truth, so a crash
    // that left an archived manifest unindexed still restores. Newest
    // durable_lsn at or below the target wins; on a tie the *older*
    // generation wins, so a target at a re-layout boundary (the re-layout
    // checkpoint re-bases the same durable LSN under a new layout) comes
    // back under the layout that was live when the LSN committed.
    let mut best: Option<Manifest> = None;
    for d in [dir, adir.as_path()] {
        let Ok(entries) = fs::read_dir(d) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if numbered_file(&name, "manifest-", ".casper").is_none() {
                continue;
            }
            let Ok(bytes) = vfs.read(&entry.path()) else {
                continue;
            };
            let Ok(m) = decode_manifest(&bytes) else {
                continue;
            };
            if m.durable_lsn > lsn {
                continue;
            }
            let better = best.as_ref().is_none_or(|b| {
                m.durable_lsn > b.durable_lsn
                    || (m.durable_lsn == b.durable_lsn && m.generation < b.generation)
            });
            if better {
                best = Some(m);
            }
        }
    }
    let Some(manifest) = best else {
        return Err(corrupt(format!(
            "no manifest at or before LSN {lsn}: the retention horizon has \
             passed it (or the directory holds no checkpoint)"
        )));
    };
    let mut table = restore_table(vfs, &[dir, &adir], &manifest)?;

    // Replay the archived + live WAL chain from the base generation up to
    // the target. Chain links live wherever retire left them.
    let resolve = |seq: u64| {
        [dir, adir.as_path()]
            .into_iter()
            .map(|d| d.join(wal_name(seq)))
            .find(|p| p.exists())
    };
    let mut ops_replayed = 0u64;
    let mut restored_lsn = manifest.durable_lsn;
    walk_chain(vfs, manifest.generation, resolve, |link| {
        let (n, _) = replay_upto(&link.scan, &mut table, manifest.durable_lsn, lsn)?;
        ops_replayed += n;
        let reached = link.scan.batches.iter().map(|b| b.commit_lsn);
        if let Some(last) = reached.filter(|&l| l <= lsn).max() {
            restored_lsn = restored_lsn.max(last);
        }
        Ok(link.scan.last_lsn < lsn)
    })?;
    OBS_RESTORES.inc();
    OBS_RESTORE_NS.record(start.elapsed().as_nanos() as u64);
    Ok(PointInTime {
        table,
        generation: manifest.generation,
        base_lsn: manifest.durable_lsn,
        restored_lsn,
        ops_replayed,
    })
}

// ---------------------------------------------------------------------
// Hot backup
// ---------------------------------------------------------------------

/// Outcome of a completed backup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupReport {
    /// Generation the backup is based on.
    pub generation: u64,
    /// Last committed LSN the backup contains (everything acknowledged
    /// before [`crate::DurableTable::begin_backup`] returned).
    pub backup_lsn: u64,
    /// Files written into the destination (`CURRENT` included).
    pub files: u64,
    /// Total bytes written.
    pub bytes: u64,
    /// Segment files copied.
    pub segments: u64,
    /// WAL links copied.
    pub wal_links: u64,
}

/// A pinned, ready-to-run backup. Created under the foreground's brief
/// fence ([`crate::DurableTable::begin_backup`]); [`BackupJob::run`] does
/// all the copying and may run on any thread — the pin keeps every source
/// file in place (not pruned, not retired) until the job is dropped, while
/// the table keeps serving reads and writes.
#[derive(Debug)]
pub struct BackupJob {
    pub(crate) vfs: VfsHandle,
    pub(crate) src: PathBuf,
    pub(crate) dest: PathBuf,
    pub(crate) generation: u64,
    /// The chain to copy is `wal-<generation> ..= wal-<last_wal>`. Every
    /// link before the last is sealed and copied whole; the last is the
    /// live one, which keeps growing underneath —
    pub(crate) last_wal: u64,
    /// — so it is cut at its durable length at fence time: everything
    /// past it was not acknowledged when the backup began.
    pub(crate) fence_bytes: u64,
    pub(crate) backup_lsn: u64,
    /// Held, never read: dropping the job releases the source files.
    pub(crate) _pin: PinGuard,
}

fn write_file(vfs: &VfsHandle, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut f = vfs.create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

impl BackupJob {
    /// Generation the backup will be based on.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Last committed LSN the finished backup will contain.
    pub fn backup_lsn(&self) -> u64 {
        self.backup_lsn
    }

    /// Copy everything, CRC-verifying every byte on the way out (manifest
    /// checksum, every chunk record against its manifest CRC, every WAL
    /// link scanned back to sealed batches). The destination's `CURRENT`
    /// is written last, atomically — until it lands, the destination is
    /// not a table; once it lands, the backup is complete and
    /// self-contained.
    pub fn run(self) -> Result<BackupReport, PersistError> {
        let start = Instant::now();
        fs::create_dir_all(&self.dest)?;
        if crate::durable::current_path(&self.dest).exists() {
            return Err(corrupt(format!(
                "backup destination {} already holds a durable table",
                self.dest.display()
            )));
        }
        let mut files = 0u64;
        let mut bytes_total = 0u64;
        let mut copy = |name: String, bytes: &[u8]| -> Result<(), PersistError> {
            write_file(&self.vfs, &self.dest.join(name), bytes)?;
            files += 1;
            bytes_total += bytes.len() as u64;
            Ok(())
        };

        let (manifest, mbytes) = read_manifest(&self.vfs, &self.src, self.generation)?;
        copy(manifest_name(self.generation), &mbytes)?;

        // Segments: read whole files, verify the header and every record
        // the manifest points at against the bytes about to be written
        // (not the source file — a fault between read and write must be
        // caught here).
        let segments = manifest.referenced_segments();
        for &seg in &segments {
            let sbytes = self.vfs.read(&segment_path(&self.src, seg))?;
            verify_segment_header(&sbytes, seg)?;
            for e in manifest.entries.iter().filter(|e| e.seg == seg) {
                e.verified(&sbytes)?;
            }
            copy(segment_name(seg), &sbytes)?;
        }

        // The fenced chain: every link but the last is copied whole (the
        // walk proves it sealed); the last is cut at the fence, which must
        // itself fall on a sealed-batch boundary.
        let wal_links = self.last_wal + 1 - self.generation;
        let resolve = |seq| (seq <= self.last_wal).then(|| self.src.join(wal_name(seq)));
        walk_chain(&self.vfs, self.generation, resolve, |link| {
            let slice = if link.seq < self.last_wal {
                &link.bytes[..]
            } else {
                usize::try_from(self.fence_bytes)
                    .ok()
                    .and_then(|fence| link.bytes.get(..fence))
                    .filter(|fenced| scan(fenced).valid_len == fenced.len())
                    .ok_or_else(|| {
                        corrupt(format!(
                            "live WAL link {} no longer holds the {} sealed bytes \
                             the backup fenced ({} bytes on disk)",
                            link.seq,
                            self.fence_bytes,
                            link.bytes.len()
                        ))
                    })?
            };
            copy(wal_name(link.seq), slice)?;
            Ok(true)
        })?;

        // Make the data dirents durable, then commit with CURRENT.
        self.vfs.fsync_dir(&self.dest)?;
        crate::durable::write_atomic(
            &self.vfs,
            &crate::durable::current_path(&self.dest),
            format!("{}\n", self.generation).as_bytes(),
        )?;
        files += 1;
        OBS_BACKUPS.inc();
        OBS_BACKUP_BYTES.add(bytes_total);
        OBS_BACKUP_NS.record(start.elapsed().as_nanos() as u64);
        Ok(BackupReport {
            generation: self.generation,
            backup_lsn: self.backup_lsn,
            files,
            bytes: bytes_total,
            segments: segments.len() as u64,
            wal_links,
        })
    }
}

// ---------------------------------------------------------------------
// Backup verification
// ---------------------------------------------------------------------

/// Outcome of a successful [`crate::DurableTable::verify_backup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupVerifyReport {
    /// Generation the backup is based on.
    pub generation: u64,
    /// The manifest's durable LSN.
    pub durable_lsn: u64,
    /// Last committed LSN across the backup's WAL chain.
    pub last_lsn: u64,
    /// Chunk records CRC-verified.
    pub records: u64,
    /// Segment files verified.
    pub segments: u64,
    /// WAL links verified.
    pub wal_links: u64,
    /// Committed batches across the chain.
    pub batches: u64,
    /// Total bytes read and verified.
    pub bytes: u64,
}

/// Verify a backup (or any self-contained table directory) end to end:
/// `CURRENT` → manifest checksum → every chunk record CRC → every WAL
/// link fully sealed with gapless LSN continuity across links. Read-only;
/// `pause` throttles between records (the scrubber reuses this) and
/// `stop` aborts early with a typed error.
pub(crate) fn verify_backup(
    vfs: &VfsHandle,
    dir: &Path,
    pause: Duration,
    stop: Option<&AtomicBool>,
) -> Result<BackupVerifyReport, PersistError> {
    let stopped = || stop.is_some_and(|s| s.load(Ordering::Relaxed));
    let (generation, manifest, mbytes) = read_current(vfs, dir)?;
    let mut bytes_total = mbytes.len() as u64;
    let mut records = 0u64;
    let segments = manifest.referenced_segments();
    for &seg in &segments {
        let sbytes = vfs.read(&segment_path(dir, seg))?;
        verify_segment_header(&sbytes, seg)?;
        bytes_total += sbytes.len() as u64;
        for e in manifest.entries.iter().filter(|e| e.seg == seg) {
            if stopped() {
                return Err(corrupt("backup verification interrupted"));
            }
            e.verified(&sbytes)?;
            records += 1;
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }

    let mut wal_links = 0u64;
    let mut batches = 0u64;
    let mut last_lsn = manifest.durable_lsn;
    let mut expected_first = manifest.durable_lsn + 1;
    let resolve = |seq| Some(dir.join(wal_name(seq))).filter(|p| p.exists());
    walk_chain(vfs, generation, resolve, |link| {
        if stopped() {
            return Err(corrupt("backup verification interrupted"));
        }
        let (seq, s) = (link.seq, &link.scan);
        // A backup's last link was cut at the fence: it is sealed too.
        if s.valid_len != link.bytes.len() {
            return Err(corrupt(format!(
                "backup WAL link {seq} is torn: only {} of {} bytes form \
                 sealed batches",
                s.valid_len,
                link.bytes.len()
            )));
        }
        if let Some(first) = s.batches.first() {
            let first_lsn = first.commit_lsn - first.ops.len() as u64;
            if first_lsn != expected_first {
                return Err(corrupt(format!(
                    "backup WAL link {seq} starts at LSN {first_lsn}, expected \
                     {expected_first}: the chain has a gap"
                )));
            }
            expected_first = s.last_lsn + 1;
            last_lsn = s.last_lsn;
        }
        batches += s.batches.len() as u64;
        bytes_total += link.bytes.len() as u64;
        wal_links += 1;
        Ok(true)
    })?;
    if wal_links == 0 {
        return Err(corrupt(format!(
            "backup holds no WAL link for generation {generation}"
        )));
    }
    Ok(BackupVerifyReport {
        generation,
        durable_lsn: manifest.durable_lsn,
        last_lsn,
        records,
        segments: segments.len() as u64,
        wal_links,
        batches,
        bytes: bytes_total,
    })
}

// ---------------------------------------------------------------------
// Archive scrub (called from scrub::scrub_pass)
// ---------------------------------------------------------------------

/// Walk the archive index behind the live chain, whole-file-CRC-verifying
/// every indexed file. Returns `(files checked, findings)`; a missing
/// archive (no index file) checks nothing. Never fails the pass: archive
/// damage is a finding, and a finding must not block live serving.
pub(crate) fn scrub_archive(
    vfs: &VfsHandle,
    dir: &Path,
    pause: Duration,
    stop: Option<&AtomicBool>,
) -> (u64, Vec<String>) {
    let index = match ArchiveIndex::load(vfs, dir) {
        Ok(i) => i,
        Err(e) => {
            return (0, vec![format!("archive index unreadable: {e}")]);
        }
    };
    let adir = archive_dir(dir);
    let mut checked = 0u64;
    let mut findings = Vec::new();
    let mut check = |name: String, want_bytes: u64, want_crc: u32| {
        match vfs.read(&adir.join(&name)) {
            Ok(bytes) => {
                if bytes.len() as u64 != want_bytes {
                    findings.push(format!(
                        "archived {name}: {} bytes on disk, index says {want_bytes}",
                        bytes.len()
                    ));
                } else {
                    let got = crc32(&bytes);
                    if got != want_crc {
                        findings.push(format!(
                            "archived {name} fails its checksum \
                             (index {want_crc:#010x}, computed {got:#010x})"
                        ));
                    }
                }
            }
            Err(e) => findings.push(format!("archived {name} unreadable: {e}")),
        }
        checked += 1;
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    };
    for m in &index.manifests {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            return (checked, findings);
        }
        check(manifest_name(m.generation), m.bytes, m.crc);
    }
    for s in &index.segments {
        if stop.is_some_and(|st| st.load(Ordering::Relaxed)) {
            return (checked, findings);
        }
        check(segment_name(s.seq), s.bytes, s.crc);
    }
    for w in &index.wals {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            return (checked, findings);
        }
        check(wal_name(w.seq), w.bytes, w.crc);
    }
    (checked, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> ArchiveIndex {
        ArchiveIndex {
            manifests: vec![ArchivedManifest {
                generation: 3,
                durable_lsn: 120,
                segments: vec![2, 3],
                bytes: 512,
                crc: 0xAB12_CD34,
                retired_unix: 1_700_000_000,
            }],
            segments: vec![ArchivedSegment {
                seq: 2,
                bytes: 4096,
                crc: 0x1111_2222,
                retired_unix: 1_700_000_000,
            }],
            wals: vec![ArchivedWal {
                seq: 3,
                first_lsn: 121,
                last_lsn: 200,
                bytes: 8192,
                crc: 0x3333_4444,
                retired_unix: 1_700_000_001,
            }],
        }
    }

    #[test]
    fn index_round_trips() {
        let i = index();
        let bytes = i.encode();
        let d = ArchiveIndex::decode(&bytes).expect("decode");
        assert_eq!(d, i);
        assert_eq!(d.total_bytes(), 512 + 4096 + 8192);
        assert_eq!(d.file_count(), 3);
    }

    #[test]
    fn index_flipped_bit_is_corrupt() {
        let mut bytes = index().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(ArchiveIndex::decode(&bytes).is_err());
    }

    #[test]
    fn index_truncation_is_typed() {
        let bytes = index().encode();
        for cut in [0, 3, 11, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(ArchiveIndex::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn retention_drops_oldest_generation_first() {
        let mut idx = ArchiveIndex {
            manifests: vec![
                ArchivedManifest {
                    generation: 2,
                    durable_lsn: 10,
                    segments: vec![1],
                    bytes: 100,
                    crc: 0,
                    retired_unix: 0,
                },
                ArchivedManifest {
                    generation: 5,
                    durable_lsn: 50,
                    segments: vec![4],
                    bytes: 100,
                    crc: 0,
                    retired_unix: 0,
                },
            ],
            segments: vec![
                ArchivedSegment {
                    seq: 1,
                    bytes: 1000,
                    crc: 0,
                    retired_unix: 0,
                },
                ArchivedSegment {
                    seq: 4,
                    bytes: 1000,
                    crc: 0,
                    retired_unix: 0,
                },
            ],
            wals: vec![
                ArchivedWal {
                    seq: 2,
                    first_lsn: 11,
                    last_lsn: 50,
                    bytes: 10,
                    crc: 0,
                    retired_unix: 0,
                },
                ArchivedWal {
                    seq: 5,
                    first_lsn: 51,
                    last_lsn: 90,
                    bytes: 10,
                    crc: 0,
                    retired_unix: 0,
                },
            ],
        };
        // Dropping generation 2 must also drop segment 1 (only gen 2
        // references it) and WAL link 2 (below the oldest survivor).
        let drop: BTreeSet<u64> = [2].into_iter().collect();
        let (km, ks, kw) = retained_after(&idx, &drop);
        assert!(km.contains(&5) && !km.contains(&2));
        assert!(ks.contains(&4) && !ks.contains(&1));
        assert!(kw.contains(&5) && !kw.contains(&2));
        assert_eq!(retained_bytes(&idx, &drop), 100 + 1000 + 10);
        // And with nothing dropped, everything is retained.
        idx.normalize();
        assert_eq!(retained_bytes(&idx, &BTreeSet::new()), idx.total_bytes());
    }
}

//! LSN-indexed archive, point-in-time restore, and online hot backup.
//!
//! Once a checkpoint commits, one rule (`stale_files`) says which live
//! files the new generation no longer needs: older manifests, segments no
//! live entry references, WAL links below the durable generation — minus
//! whatever a backup has pinned. Normally they are *deleted*. With an
//! [`ArchiveConfig`] on [`crate::DurableOptions::archive`] they are
//! *retired* into `<dir>/archive/` instead, indexed by a CRC-guarded
//! `archive-index.casper` — one list of one entry shape
//! ([`ArchivedFile`], keyed by [`FileKind`]) that maps every retired file
//! to its LSN coordinates. Because segments are append-once and manifests
//! are layout-preserving, an archived `(manifest, segments)` pair plus
//! the archived WAL chain restores any historical LSN with **zero layout
//! solves and zero codec re-encodes** — the same restore guarantee the
//! live path has ([`crate::DurableTable::open_at`]).
//!
//! ## Crash safety of retire
//!
//! Retire is two-phase. Directory listings, `create_dir_all` and
//! existence checks use `std::fs`; every read, rename, remove and fsync
//! goes through the [`Vfs`], which is what fault schedules inject into:
//!
//! 1. each stale file is `rename`d into `archive/` (atomic; the bytes are
//!    read first so the index entry carries a whole-file CRC),
//! 2. `fsync_dir(archive/)` then `fsync_dir(dir)` commit the dirents,
//! 3. the index is rewritten via the temp-file + rename + checked
//!    directory-fsync path (`durable::write_atomic`).
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
//! ([`crate::DurableTable::verify_backup`] checks it end to end).

use crate::codec::{frame, unframe, ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::incremental::{
    decode_manifest, list_dir, read_current, read_manifest, restore_table, verify_segment_header,
    DirListing, FileKind, Manifest,
};
use crate::vfs::{Vfs, VfsHandle};
use crate::wal::{replay_upto, scan, walk_chain};
use casper_engine::Table;
use casper_obs::{CounterDef, GaugeDef, HistogramDef};
use casper_storage::StorageError;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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

/// One retired file in `<dir>/archive/`, whatever its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivedFile {
    /// Manifest, segment or WAL link.
    pub kind: FileKind,
    /// The number in the file's name: checkpoint generation, segment
    /// sequence, or WAL sequence.
    pub seq: u64,
    /// Whole-file byte length at retire time.
    pub bytes: u64,
    /// Whole-file CRC32 at retire time (the scrubber re-verifies it).
    pub crc: u32,
    /// Unix seconds when the file was retired (age-based retention).
    pub retired_unix: u64,
    /// First LSN the file covers: for a WAL link the first LSN of its
    /// first sealed batch (0 when the link is empty); 0 for a manifest,
    /// which folds in everything up to `last_lsn`, and for a segment.
    pub first_lsn: u64,
    /// Last LSN the file covers: a manifest's durable LSN — the restore
    /// base for any target at or after it — or the commit LSN of a WAL
    /// link's last sealed batch (0 when empty); 0 for a segment.
    pub last_lsn: u64,
    /// Manifests only: the segments its entries reference (they may live
    /// in the archive or still be live, shared with newer generations).
    pub segments: Vec<u64>,
}

impl ArchivedFile {
    /// Describe file number `seq` of `kind` from its bytes. The only error
    /// is a manifest that does not decode — not usable history.
    fn describe(kind: FileKind, seq: u64, bytes: &[u8], now: u64) -> Result<Self, StorageError> {
        let (first_lsn, last_lsn, segments) = match kind {
            FileKind::Manifest => {
                let m = decode_manifest(bytes)?;
                (0, m.durable_lsn, m.referenced_segments())
            }
            FileKind::Segment => (0, 0, Vec::new()),
            FileKind::Wal => {
                let s = scan(bytes);
                (s.first_lsn(), s.last_lsn, Vec::new())
            }
        };
        Ok(Self {
            kind,
            seq,
            bytes: bytes.len() as u64,
            crc: crc32(bytes),
            retired_unix: now,
            first_lsn,
            last_lsn,
            segments,
        })
    }

    fn path(&self, adir: &Path) -> PathBuf {
        self.kind.path(adir, self.seq)
    }
}

/// The LSN index over `<dir>/archive/`: which retired files exist and what
/// LSN coordinates they cover. Persisted as a CRC-guarded
/// `archive-index.casper`; rebuildable from the archived files themselves
/// (retire reconciles the two on every pass), so index loss or corruption
/// never loses history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchiveIndex {
    /// Every archived file, ascending by `(kind, seq)`.
    pub files: Vec<ArchivedFile>,
}

/// `<dir>/archive`.
pub fn archive_dir(dir: &Path) -> PathBuf {
    dir.join("archive")
}

fn index_path(dir: &Path) -> PathBuf {
    archive_dir(dir).join(ARCHIVE_INDEX_NAME)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

impl ArchiveIndex {
    /// Serialize (header + CRC-guarded body, same shape as manifests): one
    /// counted section per kind, each entry its number, the LSN fields its
    /// kind has, then length, CRC and retire time.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        for kind in FileKind::ALL {
            body.u64(self.of_kind(kind).count() as u64);
            for f in self.of_kind(kind) {
                body.u64(f.seq);
                match kind {
                    FileKind::Manifest => {
                        body.u64(f.last_lsn);
                        body.vec_u64(&f.segments);
                    }
                    FileKind::Segment => {}
                    FileKind::Wal => {
                        body.u64(f.first_lsn);
                        body.u64(f.last_lsn);
                    }
                }
                body.u64(f.bytes);
                body.u32(f.crc);
                body.u64(f.retired_unix);
            }
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
        for kind in FileKind::ALL {
            for _ in 0..r.len_u64()? {
                let seq = r.u64()?;
                let (first_lsn, last_lsn, segments) = match kind {
                    FileKind::Manifest => (0, r.u64()?, r.vec_u64()?),
                    FileKind::Segment => (0, 0, Vec::new()),
                    FileKind::Wal => (r.u64()?, r.u64()?, Vec::new()),
                };
                index.files.push(ArchivedFile {
                    kind,
                    seq,
                    bytes: r.u64()?,
                    crc: r.u32()?,
                    retired_unix: r.u64()?,
                    first_lsn,
                    last_lsn,
                    segments,
                });
            }
        }
        r.finish()?;
        Ok(index)
    }

    /// Load the index of `dir`'s archive (`dir` is the *table* directory).
    /// A missing index file is an empty archive; a damaged one is a typed
    /// error (retire tolerates it by rebuilding — see the module docs).
    pub fn load(vfs: &VfsHandle, dir: &Path) -> Result<Self, StorageError> {
        let bytes = match vfs.read(&index_path(dir)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(e.into()),
        };
        Self::decode(&bytes)
    }

    /// Persist the index atomically (temp file + rename + checked
    /// directory fsync).
    pub(crate) fn store(&self, vfs: &VfsHandle, dir: &Path) -> Result<(), StorageError> {
        crate::durable::write_atomic(vfs, &index_path(dir), &self.encode())
    }

    /// Total bytes of the indexed files (the retention measure; the index
    /// file itself is not counted).
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Number of indexed files.
    pub fn file_count(&self) -> u64 {
        self.files.len() as u64
    }

    fn of_kind(&self, kind: FileKind) -> impl Iterator<Item = &ArchivedFile> {
        self.files.iter().filter(move |f| f.kind == kind)
    }

    fn has(&self, kind: FileKind, seq: u64) -> bool {
        self.of_kind(kind).any(|f| f.seq == seq)
    }

    /// Does some archived generation reference segment `seg`?
    fn references(&self, seg: u64) -> bool {
        self.of_kind(FileKind::Manifest)
            .any(|m| m.segments.contains(&seg))
    }

    fn normalize(&mut self) {
        self.files.sort_by_key(|f| (f.kind, f.seq));
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

    /// Is file number `seq` of `kind` claimed by a backup in progress?
    pub fn keeps(&self, kind: FileKind, seq: u64) -> bool {
        self.lock().iter().any(|(_, p)| match kind {
            FileKind::Manifest => p.generation == seq,
            FileKind::Segment => p.segments.contains(&seq),
            FileKind::Wal => seq >= p.min_wal,
        })
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

/// The one stale-file rule. After `manifest` committed, a live file is
/// still needed iff it is that manifest, a segment it references, or a WAL
/// link at or above its generation; everything else that no backup pins
/// is stale. A manifest *above* the committed generation is the leftover
/// of a checkpoint that died between its manifest write and the `CURRENT`
/// swing — never referenced, not history — and joins the `.tmp` garbage.
fn stale_files(dir: &Path, manifest: &Manifest, pins: &SharedPins) -> std::io::Result<DirListing> {
    let DirListing { files, mut garbage } = list_dir(dir)?;
    let referenced = manifest.referenced_segments();
    let mut stale = Vec::new();
    for (kind, seq, path) in files {
        let needed = match kind {
            FileKind::Manifest => seq == manifest.generation,
            FileKind::Segment => referenced.contains(&seq),
            FileKind::Wal => seq >= manifest.generation,
        };
        if needed || pins.keeps(kind, seq) {
            continue;
        }
        if kind == FileKind::Manifest && seq > manifest.generation {
            garbage.push(path);
        } else {
            stale.push((kind, seq, path));
        }
    }
    Ok(DirListing {
        files: stale,
        garbage,
    })
}

/// What `run_checkpoint` (and reopen) calls once a generation is
/// committed: classify the directory with [`stale_files`], then — with
/// archiving off — remove everything it names, or — with archiving on —
/// retire the stale files into the archive. Best-effort either way: the
/// checkpoint is already committed (`CURRENT` and its targets were made
/// durable by checked directory fsyncs *before* this runs, so no schedule
/// can take a file the committed generation needs), and a failure only
/// leaves stale files in place for the next checkpoint. A retire failure
/// is reported through the obs counter + rate-limited log, never as an
/// error to the committing caller.
pub(crate) fn retire_stale(
    vfs: &VfsHandle,
    dir: &Path,
    manifest: &Manifest,
    cfg: Option<&ArchiveConfig>,
    pins: &SharedPins,
) {
    let Some(cfg) = cfg else {
        if let Ok(stale) = stale_files(dir, manifest, pins) {
            let files = stale.files.into_iter().map(|(_, _, path)| path);
            for path in files.chain(stale.garbage) {
                let _ = vfs.remove(&path);
            }
            // Bounds how long removed dirents linger, so a crash-reopen
            // does not re-surface files a prior incarnation pruned.
            crate::durable::sync_dir(vfs, dir);
        }
        return;
    };
    if let Err(e) = archive_retire(vfs, dir, manifest, cfg, pins) {
        OBS_RETIRE_ERRORS.inc();
        crate::durable::warn_rate_limited(&format!(
            "archive retire failed (stale files stay for the next checkpoint): {e}"
        ));
    }
}

/// Index each of `files`: manifests first (they decide which segments are
/// history), then WAL links, then segments. Retire passes `move_into` and
/// each file is renamed into the archive before the index claims it;
/// reconcile absorbs files already there. Returns the files that are not
/// history — already indexed (a crash-restored live copy: the archive
/// copy wins), an undecodable manifest, a segment no archived generation
/// references — and the first per-file I/O error; a file that hit one is
/// skipped and stays where it is for the next pass.
fn absorb(
    vfs: &VfsHandle,
    index: &mut ArchiveIndex,
    files: &[(FileKind, u64, PathBuf)],
    move_into: Option<&Path>,
    now: u64,
) -> (Vec<PathBuf>, Option<StorageError>) {
    let mut rejected = Vec::new();
    let mut first_err: Option<StorageError> = None;
    for kind in [FileKind::Manifest, FileKind::Wal, FileKind::Segment] {
        for (_, seq, path) in files.iter().filter(|(k, ..)| *k == kind) {
            if index.has(kind, *seq) || (kind == FileKind::Segment && !index.references(*seq)) {
                rejected.push(path.clone());
                continue;
            }
            let described = match vfs.read(path) {
                Ok(bytes) => ArchivedFile::describe(kind, *seq, &bytes, now),
                Err(e) => {
                    first_err.get_or_insert(e.into());
                    continue;
                }
            };
            let Ok(file) = described else {
                rejected.push(path.clone());
                continue;
            };
            if let Some(adir) = move_into {
                if let Err(e) = vfs.rename(path, &file.path(adir)) {
                    first_err.get_or_insert(e.into());
                    continue;
                }
            }
            index.files.push(file);
        }
    }
    (rejected, first_err)
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
) -> Result<(), StorageError> {
    let adir = archive_dir(dir);
    fs::create_dir_all(&adir)?;
    // A damaged index must not block retirement: rebuild from the files.
    let mut index = ArchiveIndex::load(vfs, dir).unwrap_or_default();
    reconcile(vfs, &adir, &mut index);

    let stale = stale_files(dir, manifest, pins)?;
    let now = unix_now();
    let indexed = index.files.len();
    let (rejected, first_err) = absorb(vfs, &mut index, &stale.files, Some(&adir), now);
    for path in rejected.into_iter().chain(stale.garbage) {
        let _ = vfs.remove(&path);
    }
    // Commit the renames (archive side) and the removals + departures
    // (live side) before the index claims any of it.
    vfs.fsync_dir(&adir)?;
    vfs.fsync_dir(dir)?;
    OBS_RETIRED_FILES.add((index.files.len() - indexed) as u64);

    index.normalize();
    let pruned = apply_retention(vfs, &adir, &mut index, cfg, manifest.durable_lsn, now);
    OBS_RETENTION_PRUNED.add(pruned);
    index.store(vfs, dir)?;
    index.publish_gauges();
    first_err.map_or(Ok(()), Err)
}

/// Bring the index in line with what is actually in `adir`: drop entries
/// whose file vanished (crash between retention removals and the index
/// write) and absorb archived-but-unindexed files (crash between the
/// retire renames and the index write). Per-file read errors leave the
/// file unindexed for a later pass. This is what makes the index
/// rebuildable — even from nothing.
fn reconcile(vfs: &VfsHandle, adir: &Path, index: &mut ArchiveIndex) {
    index.files.retain(|f| f.path(adir).exists());
    let Ok(DirListing { mut files, garbage }) = list_dir(adir) else {
        return;
    };
    files.retain(|(kind, seq, _)| !index.has(*kind, *seq));
    let (not_history, _) = absorb(vfs, index, &files, None, unix_now());
    for path in garbage.into_iter().chain(not_history) {
        let _ = vfs.remove(&path);
    }
}

/// Which indexed files survive if the generations `drop_gens` are dropped:
/// the remaining manifests, the segments any of them references, and the
/// WAL links at or above the oldest remaining generation (none remaining
/// → no WAL links either).
fn retained_after(index: &ArchiveIndex, drop_gens: &BTreeSet<u64>) -> BTreeSet<(FileKind, u64)> {
    let kept = || {
        index
            .of_kind(FileKind::Manifest)
            .filter(|m| !drop_gens.contains(&m.seq))
    };
    let oldest = kept().map(|m| m.seq).min();
    let referenced: BTreeSet<u64> = kept().flat_map(|m| m.segments.iter().copied()).collect();
    index
        .files
        .iter()
        .filter(|f| match f.kind {
            FileKind::Manifest => !drop_gens.contains(&f.seq),
            FileKind::Segment => referenced.contains(&f.seq),
            FileKind::Wal => oldest.is_some_and(|g| f.seq >= g),
        })
        .map(|f| (f.kind, f.seq))
        .collect()
}

fn retained_bytes(index: &ArchiveIndex, drop_gens: &BTreeSet<u64>) -> u64 {
    let keep = retained_after(index, drop_gens);
    let kept = index
        .files
        .iter()
        .filter(|f| keep.contains(&(f.kind, f.seq)));
    kept.map(|f| f.bytes).sum()
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
    for m in index.of_kind(FileKind::Manifest) {
        if cfg.max_age_secs > 0 && now.saturating_sub(m.retired_unix) > cfg.max_age_secs {
            drop_gens.insert(m.seq);
        }
        if cfg.max_lsns > 0 && m.last_lsn.saturating_add(cfg.max_lsns) < live_lsn {
            drop_gens.insert(m.seq);
        }
    }
    if cfg.max_bytes > 0 {
        let mut gens: Vec<u64> = index.of_kind(FileKind::Manifest).map(|m| m.seq).collect();
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
    let keep = retained_after(index, &drop_gens);
    let mut removed = 0u64;
    index.files.retain(|f| {
        keep.contains(&(f.kind, f.seq))
            || match vfs.remove(&f.path(adir)) {
                Ok(()) => {
                    removed += 1;
                    false
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                Err(_) => true, // keep the entry; retried next pass
            }
    });
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
pub(crate) fn open_at(vfs: &VfsHandle, dir: &Path, lsn: u64) -> Result<PointInTime, StorageError> {
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
    let mut oldest: Option<u64> = None;
    for d in [dir, adir.as_path()] {
        let Ok(listing) = list_dir(d) else {
            continue;
        };
        for (kind, _, path) in listing.files {
            if kind != FileKind::Manifest {
                continue;
            }
            let Ok(bytes) = vfs.read(&path) else {
                continue;
            };
            let Ok(m) = decode_manifest(&bytes) else {
                continue;
            };
            oldest = Some(oldest.map_or(m.durable_lsn, |o| o.min(m.durable_lsn)));
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
        return Err(StorageError::corrupt(match oldest {
            Some(oldest) => format!(
                "no manifest at or before LSN {lsn}: the retention horizon has \
                 passed it; the oldest restorable LSN is {oldest}"
            ),
            None => {
                format!("no manifest at or before LSN {lsn}: the directory holds no checkpoint")
            }
        }));
    };
    let mut table = restore_table(vfs, &[dir, &adir], &manifest)?;

    // Replay the archived + live WAL chain from the base generation up to
    // the target. Chain links live wherever retire left them.
    let resolve = |seq: u64| {
        [dir, adir.as_path()]
            .into_iter()
            .map(|d| FileKind::Wal.path(d, seq))
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

/// The one segment-verification walk, shared by the backup copy and
/// [`verify_backup`]: read every segment `manifest` references under
/// `dir`, check its header and every record of every chain that points
/// into it, then hand the verified bytes to `visit`. `pause` throttles
/// between records and `stop` aborts with a typed error. Returns the
/// records verified.
fn verify_segments(
    vfs: &VfsHandle,
    dir: &Path,
    manifest: &Manifest,
    stop: Option<&AtomicBool>,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), StorageError>,
) -> Result<u64, StorageError> {
    let mut records = 0u64;
    for seg in manifest.referenced_segments() {
        let sbytes = vfs.read(&FileKind::Segment.path(dir, seg))?;
        verify_segment_header(&sbytes, seg)?;
        let chains = manifest.entries.iter().flat_map(|e| e.records());
        for record in chains.filter(|r| r.seg == seg) {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return Err(StorageError::corrupt("backup verification interrupted"));
            }
            record.verified(&sbytes)?;
            records += 1;
        }
        visit(seg, &sbytes)?;
    }
    Ok(records)
}

fn write_file(vfs: &VfsHandle, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
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
    pub fn run(self) -> Result<BackupReport, StorageError> {
        let start = Instant::now();
        fs::create_dir_all(&self.dest)?;
        if crate::durable::current_path(&self.dest).exists() {
            return Err(StorageError::corrupt(format!(
                "backup destination {} already holds a durable table",
                self.dest.display()
            )));
        }
        let mut files = 0u64;
        let mut bytes_total = 0u64;
        let mut copy = |name: String, bytes: &[u8]| -> Result<(), StorageError> {
            write_file(&self.vfs, &self.dest.join(name), bytes)?;
            files += 1;
            bytes_total += bytes.len() as u64;
            Ok(())
        };

        let (manifest, mbytes) = read_manifest(&self.vfs, &self.src, self.generation)?;
        copy(FileKind::Manifest.name(self.generation), &mbytes)?;

        // Segments: what is verified is the bytes about to be written (not
        // the source file — a fault between read and write must be caught
        // here).
        let mut segments = 0u64;
        let each = |seg, sbytes: &[u8]| {
            segments += 1;
            copy(FileKind::Segment.name(seg), sbytes)
        };
        verify_segments(&self.vfs, &self.src, &manifest, None, each)?;

        // The fenced chain: every link but the last is copied whole (the
        // walk proves it sealed); the last is cut at the fence, which must
        // itself fall on a sealed-batch boundary.
        let wal_links = self.last_wal + 1 - self.generation;
        let resolve = |seq| (seq <= self.last_wal).then(|| FileKind::Wal.path(&self.src, seq));
        walk_chain(&self.vfs, self.generation, resolve, |link| {
            let slice = if link.seq < self.last_wal {
                &link.bytes[..]
            } else {
                usize::try_from(self.fence_bytes)
                    .ok()
                    .and_then(|fence| link.bytes.get(..fence))
                    .filter(|fenced| scan(fenced).valid_len == fenced.len())
                    .ok_or_else(|| {
                        StorageError::corrupt(format!(
                            "live WAL link {} no longer holds the {} sealed bytes \
                             the backup fenced ({} bytes on disk)",
                            link.seq,
                            self.fence_bytes,
                            link.bytes.len()
                        ))
                    })?
            };
            copy(FileKind::Wal.name(link.seq), slice)?;
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
            segments,
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
/// `stop` aborts early with a typed error (the scrubber reuses this).
pub(crate) fn verify_backup(
    vfs: &VfsHandle,
    dir: &Path,
    stop: Option<&AtomicBool>,
) -> Result<BackupVerifyReport, StorageError> {
    let (generation, manifest, mbytes) = read_current(vfs, dir)?;
    let mut bytes_total = mbytes.len() as u64;
    let mut segments = 0u64;
    let records = verify_segments(vfs, dir, &manifest, stop, |_, sbytes| {
        segments += 1;
        bytes_total += sbytes.len() as u64;
        Ok(())
    })?;

    let mut wal_links = 0u64;
    let mut batches = 0u64;
    let mut last_lsn = manifest.durable_lsn;
    let mut expected_first = manifest.durable_lsn + 1;
    let resolve = |seq| Some(FileKind::Wal.path(dir, seq)).filter(|p| p.exists());
    walk_chain(vfs, generation, resolve, |link| {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            return Err(StorageError::corrupt("backup verification interrupted"));
        }
        let (seq, s) = (link.seq, &link.scan);
        // A backup's last link was cut at the fence: it is sealed too.
        if s.valid_len != link.bytes.len() {
            return Err(StorageError::corrupt(format!(
                "backup WAL link {seq} is torn: only {} of {} bytes form \
                 sealed batches",
                s.valid_len,
                link.bytes.len()
            )));
        }
        if !s.batches.is_empty() {
            let first_lsn = s.first_lsn();
            if first_lsn != expected_first {
                return Err(StorageError::corrupt(format!(
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
        return Err(StorageError::corrupt(format!(
            "backup holds no WAL link for generation {generation}"
        )));
    }
    Ok(BackupVerifyReport {
        generation,
        durable_lsn: manifest.durable_lsn,
        last_lsn,
        records,
        segments,
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
    for f in &index.files {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        let name = f.kind.name(f.seq);
        match vfs.read(&adir.join(&name)) {
            Ok(bytes) if bytes.len() as u64 != f.bytes => findings.push(format!(
                "archived {name}: {} bytes on disk, index says {}",
                bytes.len(),
                f.bytes
            )),
            Ok(bytes) => {
                let got = crc32(&bytes);
                if got != f.crc {
                    findings.push(format!(
                        "archived {name} fails its checksum \
                         (index {:#010x}, computed {got:#010x})",
                        f.crc
                    ));
                }
            }
            Err(e) => findings.push(format!("archived {name} unreadable: {e}")),
        }
        checked += 1;
    }
    (checked, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(kind: FileKind, seq: u64, bytes: u64) -> ArchivedFile {
        ArchivedFile {
            kind,
            seq,
            bytes,
            crc: 0,
            retired_unix: 0,
            first_lsn: 0,
            last_lsn: 0,
            segments: Vec::new(),
        }
    }

    fn index() -> ArchiveIndex {
        ArchiveIndex {
            files: vec![
                ArchivedFile {
                    last_lsn: 120,
                    segments: vec![2, 3],
                    crc: 0xAB12_CD34,
                    retired_unix: 1_700_000_000,
                    ..file(FileKind::Manifest, 3, 512)
                },
                ArchivedFile {
                    crc: 0x1111_2222,
                    retired_unix: 1_700_000_000,
                    ..file(FileKind::Segment, 2, 4096)
                },
                ArchivedFile {
                    first_lsn: 121,
                    last_lsn: 200,
                    crc: 0x3333_4444,
                    retired_unix: 1_700_000_001,
                    ..file(FileKind::Wal, 3, 8192)
                },
            ],
        }
    }

    /// `index().encode()` as the build before the one-entry index wrote it
    /// (three per-kind structs, three encode loops).
    const GOLDEN_V1: &str = "\
        43535041010000009c00000000000000a94aa5c7\
        0100000000000000\
        030000000000000078000000000000000200000000000000\
        02000000000000000300000000000000\
        000200000000000034cd12ab00f1536500000000\
        0100000000000000\
        0200000000000000\
        00100000000000002222111100f1536500000000\
        0100000000000000\
        03000000000000007900000000000000c800000000000000\
        00200000000000004444333301f1536500000000";

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
    fn index_v1_bytes_are_golden() {
        let golden: Vec<u8> = (0..GOLDEN_V1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_V1[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(golden.len(), 176);
        let decoded = ArchiveIndex::decode(&golden).expect("an older build's index decodes");
        assert_eq!(decoded, index());
        assert_eq!(decoded.encode(), golden, "re-encode is byte-identical");
        // Entry order in memory does not leak into the bytes' section order.
        let mut shuffled = index();
        shuffled.files.reverse();
        assert_eq!(shuffled.encode(), golden);
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
        let manifest = |generation, durable_lsn, seg| ArchivedFile {
            last_lsn: durable_lsn,
            segments: vec![seg],
            ..file(FileKind::Manifest, generation, 100)
        };
        let mut idx = ArchiveIndex {
            files: vec![
                manifest(2, 10, 1),
                manifest(5, 50, 4),
                file(FileKind::Segment, 1, 1000),
                file(FileKind::Segment, 4, 1000),
                file(FileKind::Wal, 2, 10),
                file(FileKind::Wal, 5, 10),
            ],
        };
        // Dropping generation 2 must also drop segment 1 (only gen 2
        // references it) and WAL link 2 (below the oldest survivor).
        let drop: BTreeSet<u64> = [2].into_iter().collect();
        let keep = retained_after(&idx, &drop);
        let want = [
            (FileKind::Manifest, 5),
            (FileKind::Segment, 4),
            (FileKind::Wal, 5),
        ];
        assert_eq!(keep, want.into_iter().collect());
        assert_eq!(retained_bytes(&idx, &drop), 100 + 1000 + 10);
        // And with nothing dropped, everything is retained.
        idx.normalize();
        assert_eq!(retained_bytes(&idx, &BTreeSet::new()), idx.total_bytes());
    }
}

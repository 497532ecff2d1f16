//! Background scrubber: proactive, throttled verification of at-rest
//! checkpoint data.
//!
//! Checksums in this crate are otherwise verified *reactively* — a chunk
//! record's CRC at first hydration, a manifest's CRC at open. Latent disk
//! corruption in a cold record would therefore only surface at the worst
//! possible moment (restore after a crash, or the first query that routes
//! to the chunk). The scrubber walks the current manifest's records on a
//! schedule, re-reads every record's bytes and verifies them against the
//! manifest CRCs, so bit rot is found while the in-memory copy still
//! exists and can rewrite the damaged record (see
//! `DurableTable::absorb_scrub_findings` — a damaged-but-hydrated chunk is
//! simply marked dirty, and the next checkpoint heals it).
//!
//! A pass is read-only and throttled (an optional pause between records)
//! so it never competes with the commit path for I/O bandwidth.

use crate::incremental::{read_current, read_record};
use crate::vfs::VfsHandle;
use casper_obs::CounterDef;
use casper_storage::StorageError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// Scrub progress counters. They live in `scrub_pass` itself so both the
// background thread and manual `DurableTable::scrub_now` calls feed them.
static OBS_SCRUB_PASSES: CounterDef = CounterDef::new("casper_scrub_passes_total");
static OBS_SCRUB_RECORDS: CounterDef = CounterDef::new("casper_scrub_records_checked_total");
static OBS_SCRUB_CORRUPT: CounterDef = CounterDef::new("casper_scrub_corrupt_records_total");
static OBS_SCRUB_FAILED: CounterDef = CounterDef::new("casper_scrub_failed_passes_total");
static OBS_SCRUB_ARCHIVE_FILES: CounterDef =
    CounterDef::new("casper_scrub_archive_files_checked_total");
static OBS_SCRUB_ARCHIVE_CORRUPT: CounterDef =
    CounterDef::new("casper_scrub_archive_corrupt_total");
static OBS_SCRUB_BACKUPS_OK: CounterDef =
    CounterDef::new("casper_scrub_backup_verifications_total{result=\"ok\"}");
static OBS_SCRUB_BACKUPS_ERR: CounterDef =
    CounterDef::new("casper_scrub_backup_verifications_total{result=\"err\"}");

/// One damaged record discovered by a scrub pass (the first damaged
/// record of a chunk's chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Manifest generation the damaged record belongs to.
    pub generation: u64,
    /// Chunk index whose record chain is damaged.
    pub chunk: usize,
    /// Segment the record lives in.
    pub segment: u64,
    /// Byte offset of the record inside the segment.
    pub offset: u64,
    /// What failed (checksum mismatch, read error…).
    pub reason: String,
}

/// Outcome of one complete scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Manifest generation that was scrubbed.
    pub generation: u64,
    /// Chunk record chains whose bytes were read and CRC-verified (a
    /// chain is one full record plus its patches).
    pub records_checked: u64,
    /// Damaged chains, in chunk order — one finding per chunk.
    pub findings: Vec<ScrubFinding>,
    /// Archived files re-verified against the archive index (whole-file
    /// length + CRC). Zero when archiving is off or nothing is retired.
    pub archive_files_checked: u64,
    /// Archived files that failed verification, rendered. Archive damage
    /// is reported, never escalated: it does not block live serving.
    pub archive_findings: Vec<String>,
}

/// Cumulative scrubber counters, surfaced through `DurableTable::stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Completed passes.
    pub passes: u64,
    /// Records verified across all passes.
    pub records_checked: u64,
    /// Damaged records found across all passes (pre-dedup).
    pub corrupt_records: u64,
    /// Passes that aborted before completing: an I/O error, or a
    /// `CURRENT` / manifest that is missing or damaged.
    pub failed_passes: u64,
    /// Archived files re-verified against the archive index.
    pub archive_files_checked: u64,
    /// Archived files that failed verification (pre-dedup).
    pub archive_corrupt_files: u64,
    /// Watched backup directories verified end to end.
    pub backups_checked: u64,
    /// Watched backup verifications that failed.
    pub backup_failures: u64,
}

impl ScrubStats {
    /// What one completed pass contributes to the counters.
    pub(crate) fn of_pass(report: &ScrubReport) -> Self {
        Self {
            passes: 1,
            records_checked: report.records_checked,
            corrupt_records: report.findings.len() as u64,
            archive_files_checked: report.archive_files_checked,
            archive_corrupt_files: report.archive_findings.len() as u64,
            ..Self::default()
        }
    }

    /// Add `other`'s counters to `self`.
    pub(crate) fn absorb(&mut self, other: ScrubStats) {
        self.passes += other.passes;
        self.records_checked += other.records_checked;
        self.corrupt_records += other.corrupt_records;
        self.failed_passes += other.failed_passes;
        self.archive_files_checked += other.archive_files_checked;
        self.archive_corrupt_files += other.archive_corrupt_files;
        self.backups_checked += other.backups_checked;
        self.backup_failures += other.backup_failures;
    }
}

/// Re-verify every watched backup directory end to end and return what the
/// walk adds to the counters. Failures are counted and logged — a backup
/// rotting on a shelf must be discovered before the day it is needed, but
/// it must never block (or degrade) live serving.
pub(crate) fn verify_watched(
    vfs: &VfsHandle,
    watched: &Mutex<Vec<PathBuf>>,
    pause_per_record: Duration,
    stop: Option<&AtomicBool>,
) -> ScrubStats {
    let dirs: Vec<PathBuf> = watched.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut stats = ScrubStats::default();
    for backup in dirs {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        stats.backups_checked += 1;
        match crate::archive::verify_backup(vfs, &backup, pause_per_record, stop) {
            Ok(_) => OBS_SCRUB_BACKUPS_OK.inc(),
            Err(e) => {
                OBS_SCRUB_BACKUPS_ERR.inc();
                stats.backup_failures += 1;
                crate::durable::warn_rate_limited(&format!(
                    "watched backup {} failed verification: {e}",
                    backup.display()
                ));
            }
        }
    }
    stats
}

/// Run one synchronous scrub pass over `dir`'s current manifest.
///
/// Resolves `CURRENT` to its manifest (a missing or damaged manifest fails
/// the pass — it is not a clean directory), then re-reads and CRC-verifies
/// every record of every chunk's chain, sleeping `pause_per_record`
/// between chunks (the throttle) and stopping early when `stop` flips. A
/// chunk's first damaged record is *reported*, never touched: healing is
/// the owner's job, where the in-memory table still has the data — and
/// since a chain decodes only whole, one damaged record damages the chunk.
pub fn scrub_pass(
    vfs: &VfsHandle,
    dir: &Path,
    pause_per_record: Duration,
    stop: Option<&AtomicBool>,
) -> Result<ScrubReport, StorageError> {
    let (generation, manifest, _) = read_current(vfs, dir)?;
    let mut report = ScrubReport {
        generation,
        ..Default::default()
    };
    for (chunk, entry) in manifest.entries.iter().enumerate() {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        let damaged = entry
            .records()
            .find_map(|record| Some((record, read_record(vfs, dir, record).err()?)));
        if let Some((record, e)) = damaged {
            report.findings.push(ScrubFinding {
                generation,
                chunk,
                segment: record.seg,
                offset: record.offset,
                reason: e.to_string(),
            });
        }
        report.records_checked += 1;
        if !pause_per_record.is_zero() {
            std::thread::sleep(pause_per_record);
        }
    }
    // Walk the archive index behind the live chain at the same throttle.
    // Archive damage never fails the pass: history rot is a finding (and
    // a counter), not an obstacle to serving the live table.
    let (archive_checked, archive_findings) =
        crate::archive::scrub_archive(vfs, dir, pause_per_record, stop);
    report.archive_files_checked = archive_checked;
    report.archive_findings = archive_findings;
    OBS_SCRUB_PASSES.inc();
    OBS_SCRUB_RECORDS.add(report.records_checked);
    OBS_SCRUB_CORRUPT.add(report.findings.len() as u64);
    OBS_SCRUB_ARCHIVE_FILES.add(report.archive_files_checked);
    OBS_SCRUB_ARCHIVE_CORRUPT.add(report.archive_findings.len() as u64);
    Ok(report)
}

/// Findings cap: dedup keeps one finding per (generation, chunk), and the
/// retained list never grows past this (damage beyond it still counts in
/// the stats).
const MAX_RETAINED_FINDINGS: usize = 64;

/// State shared between the scrubber thread and the owning table.
#[derive(Debug, Default)]
pub(crate) struct ScrubShared {
    stats: Mutex<ScrubStats>,
    findings: Mutex<Vec<ScrubFinding>>,
}

impl ScrubShared {
    // Lock recovery: the guarded data is a plain stats struct / findings
    // vec that no panic can leave torn, so a poisoned mutex (a panicking
    // scrubber thread) must not cascade panics into the owning table.
    pub fn stats(&self) -> ScrubStats {
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drain the findings accumulated since the last call (deduped by
    /// (generation, chunk), capped).
    pub fn take_findings(&self) -> Vec<ScrubFinding> {
        std::mem::take(&mut *self.findings.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn absorb_stats(&self, stats: ScrubStats) {
        let mut total = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        total.absorb(stats);
    }

    fn absorb(&self, report: &ScrubReport) {
        self.absorb_stats(ScrubStats::of_pass(report));
        if report.findings.is_empty() {
            return;
        }
        let mut findings = self.findings.lock().unwrap_or_else(|e| e.into_inner());
        for f in &report.findings {
            if findings.len() >= MAX_RETAINED_FINDINGS {
                break;
            }
            if !findings
                .iter()
                .any(|g| g.generation == f.generation && g.chunk == f.chunk)
            {
                findings.push(f.clone());
            }
        }
    }

    fn note_failed_pass(&self) {
        OBS_SCRUB_FAILED.inc();
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .failed_passes += 1;
    }
}

/// The background scrubber thread: runs a pass every `interval`, absorbing
/// results into the shared state the owning table polls.
#[derive(Debug)]
pub(crate) struct Scrubber {
    pub shared: Arc<ScrubShared>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Spawn the thread. Fails (typed) if the OS refuses the thread.
    /// `watched` holds backup directories (shared with the owning table's
    /// `watch_backup`) that each pass re-verifies end to end after the
    /// live walk, at the same throttle.
    pub fn spawn(
        vfs: VfsHandle,
        dir: PathBuf,
        interval: Duration,
        pause_per_record: Duration,
        watched: Arc<Mutex<Vec<PathBuf>>>,
    ) -> Result<Self, StorageError> {
        let shared = Arc::new(ScrubShared::default());
        let stop = Arc::new(AtomicBool::new(false));
        let thread_shared = Arc::clone(&shared);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("casper-scrubber".into())
            .spawn(move || loop {
                // Sleep in short slices so drop doesn't stall on a long
                // interval.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if thread_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let slice = Duration::from_millis(10).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if thread_stop.load(Ordering::Relaxed) {
                    return;
                }
                match scrub_pass(&vfs, &dir, pause_per_record, Some(&thread_stop)) {
                    Ok(report) => thread_shared.absorb(&report),
                    // A pass racing a checkpoint can lose files mid-walk;
                    // the next pass sees a consistent view. Count it, move
                    // on.
                    Err(_) => thread_shared.note_failed_pass(),
                }
                // Re-verify watched backups at the pass cadence.
                let stop = Some(&*thread_stop);
                thread_shared.absorb_stats(verify_watched(&vfs, &watched, pause_per_record, stop));
            })?;
        Ok(Self {
            shared,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

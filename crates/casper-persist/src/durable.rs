//! [`DurableTable`]: a [`Table`] whose layout and writes survive restarts.
//!
//! The on-disk directory holds exactly one *current generation*:
//!
//! ```text
//! CURRENT              – ASCII generation number, replaced atomically
//! manifest-<gen>.casper – chunk id → (segment, offset, len, crc) map
//! seg-<seq>.casper     – append-once segments of encoded chunk records
//! wal-<seq>.log        – append-only redo log(s) since the manifest
//! ```
//!
//! Writes flow WAL-first in the group-commit sense: an executed write is
//! staged into the open WAL batch and becomes durable (write + fsync) when
//! the batch seals. Recovery loads the manifest (metadata only — segments
//! are opened, and each record is read and verified at first touch),
//! truncates the WAL chain's torn tail, and replays the committed batches.
//!
//! A **checkpoint** is *incremental*: the engine's per-chunk modification
//! counters identify exactly the chunks dirtied since the last checkpoint,
//! and only those are written — into a fresh segment — while clean chunks
//! keep their existing record chains. A dirty partitioned chunk that
//! already has a chain gets a *patch record*: the slot granules its write
//! stamps say changed since the chain's newest record. Any other dirty
//! chunk, and one whose patches would outgrow its full record (the fold
//! rule), is re-serialized whole. With the **background checkpointer**
//! enabled (default), the foreground only seals + rotates the WAL, copies
//! the patches out and pins the chunks written whole; serialization and
//! fsyncs run on a dedicated thread, so the commit path keeps nothing but
//! its group-commit fsync. Once a manifest references more than
//! [`DurableOptions::max_segments`] segments, the next checkpoint compacts
//! the chains (clean records are byte-copied, never re-encoded).
//! [`DurableTable::optimize`] still checkpoints synchronously after every
//! re-layout, so adaptive re-partitioning remains durable at return.
//!
//! Per-chunk durable state — each chunk's record, the column version that
//! record is clean at, its quarantine reason — lives in one
//! [`crate::ledger::Ledger`], which owns the only definitions of *dirty*,
//! *encodable*, *repointable* (evictable / healable) and
//! *checkpoint-freezing*. Nothing here compares version counters itself,
//! and a re-layout is not a special case: the engine moves every rebuilt
//! chunk's counter forward, so the next checkpoint finds them all dirty.
//!
//! ## Failure model
//!
//! All I/O flows through a [`VfsHandle`], so every failure path below is
//! exercised deterministically by the fault-injection harness
//! ([`crate::fault::FaultVfs`]).
//!
//! * A failed WAL **write** (e.g. ENOSPC before the fsync) leaves the
//!   batch staged; the seal retries on the next commit, writing the batch
//!   again from the durable boundary. The retry is never shorter than the
//!   failed attempt, so it overwrites whatever bytes that attempt landed.
//! * A failed WAL **fsync** *poisons* the log (fsyncgate: a retried fsync
//!   can falsely succeed after the kernel dropped the dirty pages). The
//!   table immediately rotates to a fresh WAL and takes a synchronous
//!   *recovery checkpoint* whose watermark covers the ghost batch; only
//!   when that checkpoint commits is the write acknowledged. If it fails
//!   too, the table **degrades** instead of acknowledging a commit of
//!   unknown durability.
//! * Background checkpoint failures are retried with bounded backoff on
//!   the checkpointer thread; persistent failure (see
//!   [`DurableOptions::degrade_after`]) escalates to degraded mode.
//! * **Degraded** mode is explicit read-only: reads keep serving from
//!   memory, writes return [`StorageError::Degraded`], and
//!   [`DurableTable::reactivate`] re-proves the storage with a synchronous
//!   checkpoint before lifting the mode.
//! * The optional background **scrubber** re-reads checkpoint records at a
//!   throttled rate and verifies their CRCs; a damaged record whose chunk
//!   is resident in memory is marked damaged in the ledger (dirty until
//!   the next checkpoint replaces the record), and a damaged record whose
//!   chunk was never hydrated is *quarantined* — surfaced as a typed error
//!   instead of a surprise CRC panic at first touch.

use crate::archive::{BackupJob, BackupReport, BackupVerifyReport, PointInTime};
use crate::checkpointer::{run_with_retry, Checkpointer, Completion, RetryPolicy};
use crate::incremental::{
    capture_patch, list_dir, read_current, record_loader, restore_table, segments_to_evacuate,
    CheckpointJob, ChunkEntry, FileKind, Manifest, RecordSource,
};
use crate::ledger::Ledger;
use crate::scrub::{ScrubFinding, ScrubReport, ScrubStats, Scrubber};
use crate::vfs::{Vfs, VfsHandle};
use crate::wal::{replay, walk_chain, Wal};
use casper_core::{FrequencyModel, Op};
use casper_engine::adapt::{AdaptDecision, AdaptiveController};
use casper_engine::optimize::{optimize_table, OptimizeOptions, OptimizeReport};
use casper_engine::{
    ChunkedColumn, Governor, GovernorConfig, GovernorStats, QueryCtx, QueryOutput, Table,
    TableReader, Transaction, TxnManager,
};
use casper_obs::{CounterDef, GaugeDef};
use casper_storage::StorageError;
use casper_workload::HapQuery;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// Checkpoint health metrics. The counters and gauges are written from the
// exact code paths that maintain `CheckpointStats` / `TableMode`, so a
// metrics dump and the `checkpoint_stats()` / `take_checkpoint_error` API
// can never disagree about what happened.
static OBS_CHECKPOINTS_OK: CounterDef = CounterDef::new("casper_checkpoints_total{result=\"ok\"}");
static OBS_CHECKPOINTS_ERR: CounterDef =
    CounterDef::new("casper_checkpoints_total{result=\"err\"}");
static OBS_CP_RETRIES: CounterDef = CounterDef::new("casper_checkpoint_retries_total");
static OBS_CP_CONSECUTIVE: GaugeDef = GaugeDef::new("casper_checkpoint_consecutive_failures");
static OBS_CP_DIRTY_RATIO: GaugeDef = GaugeDef::new("casper_checkpoint_dirty_chunk_ratio");
static OBS_FULL_CHECKPOINTS: CounterDef = CounterDef::new("casper_full_checkpoints_total");
static OBS_SEGMENT_CHAIN: GaugeDef = GaugeDef::new("casper_segment_chain_length");
static OBS_QUARANTINED: GaugeDef = GaugeDef::new("casper_quarantined_chunks");
static OBS_DEGRADED_MODE: GaugeDef = GaugeDef::new("casper_degraded_mode");
static OBS_DRIFT_MAX_RATIO: GaugeDef = GaugeDef::new("casper_fm_drift_max_ratio");
static OBS_DEGRADED_ENTER: CounterDef =
    CounterDef::new("casper_degraded_transitions_total{edge=\"enter\"}");
static OBS_DEGRADED_EXIT: CounterDef =
    CounterDef::new("casper_degraded_transitions_total{edge=\"exit\"}");

/// Print `msg` to stderr, at most once per five seconds process-wide.
/// Degraded-mode churn (a flapping disk triggers enter/exit per write
/// attempt) must not flood an operator's console.
pub(crate) fn warn_rate_limited(msg: &str) {
    use std::time::Instant;
    static LAST: Mutex<Option<Instant>> = Mutex::new(None);
    const MIN_GAP: Duration = Duration::from_secs(5);
    let mut last = LAST.lock().unwrap_or_else(|e| e.into_inner());
    if last.is_none_or(|t| t.elapsed() >= MIN_GAP) {
        *last = Some(Instant::now());
        eprintln!("casper-persist: {msg}");
    }
}

/// Tunables of the durability layer.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Writes staged before the WAL batch auto-seals (1 = fsync every
    /// write; larger values trade a bounded unacknowledged window for
    /// amortized fsyncs — classic group commit).
    pub group_commit: usize,
    /// Auto-checkpoint once the sealed WAL grows past this many bytes
    /// (0 disables; checkpoints still happen on [`DurableTable::optimize`]
    /// and explicit [`DurableTable::checkpoint`] calls).
    pub wal_checkpoint_bytes: u64,
    /// Run watermark-triggered checkpoints on a dedicated thread: the
    /// foreground only rotates the WAL and clones dirty chunk state;
    /// serialization and fsyncs happen off the commit path. Explicit
    /// [`DurableTable::checkpoint`] / [`DurableTable::optimize`] calls
    /// still wait for completion (their durability guarantee is
    /// synchronous either way).
    pub background_checkpointer: bool,
    /// Compact once a manifest references more than this many segments:
    /// the next checkpoint empties the segments holding the fewest live
    /// record bytes, byte-copying (not re-encoding) the records chains keep
    /// there into its fresh segment.
    pub max_segments: usize,
    /// Total attempts per checkpoint job (1 = no retry). Transient I/O
    /// failures are retried with doubling backoff (10 ms before the first
    /// retry, capped at 1 s); whole-job retry is safe
    /// because every attempt re-creates the segment with a fresh
    /// descriptor and rewrites it end to end.
    pub checkpoint_retries: u32,
    /// Enter degraded read-only mode after this many *consecutive* failed
    /// (post-retry) checkpoints (0 disables escalation — the WAL chain
    /// then grows without bound under persistent failure).
    pub degrade_after: u32,
    /// Run a background scrub pass over the current manifest's records
    /// every this many milliseconds (0 disables the scrubber;
    /// [`DurableTable::scrub_now`] always works).
    pub scrub_interval_ms: u64,
    /// Resource-governor configuration. `Some` governs every query on the
    /// table and on the readers it hands out: admission through the slot
    /// gate, panic isolation with heal-or-quarantine, and the memory
    /// budget. `None` = ungoverned: none of that runs (no gate, no
    /// `catch_unwind` on the query path); deadlines and cancellation are
    /// honored either way, they come from the query's own context. See
    /// `docs/resource-governance.md`.
    pub governor: Option<GovernorConfig>,
    /// Archive policy (`None` = archiving off: checkpoint pruning deletes
    /// superseded files exactly as before). `Some` makes pruning *retire*
    /// them into the LSN-indexed `archive/` directory instead, enabling
    /// [`DurableTable::open_at`] point-in-time restores. See
    /// `docs/persist-format.md` ("Archive format & PITR protocol").
    pub archive: Option<crate::archive::ArchiveConfig>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            group_commit: 1,
            wal_checkpoint_bytes: 0,
            background_checkpointer: true,
            max_segments: 6,
            checkpoint_retries: 3,
            degrade_after: 8,
            scrub_interval_ms: 0,
            governor: None,
            archive: None,
        }
    }
}

/// Observable durability state (tests, monitoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableStats {
    /// Current durable checkpoint generation.
    pub generation: u64,
    /// Highest LSN folded into the current manifest.
    pub durable_lsn: u64,
    /// LSN the next staged record will receive.
    pub next_lsn: u64,
    /// Sealed bytes in the live WAL file.
    pub wal_bytes: u64,
    /// Records staged but not yet sealed (not yet durable).
    pub staged_records: u64,
    /// Chunks dirtied since the last captured checkpoint — what the next
    /// incremental checkpoint would serialize.
    pub dirty_chunks: u64,
    /// Distinct segment files the current manifest references.
    pub segments: u64,
    /// Whether a background checkpoint is currently in flight.
    pub checkpoint_in_flight: bool,
    /// Whether a background checkpoint has failed since the last
    /// successful one (details via [`DurableTable::take_checkpoint_error`]
    /// and [`DurableTable::checkpoint_stats`]).
    pub checkpoint_failed: bool,
    /// Whether the table is in degraded read-only mode.
    pub degraded: bool,
    /// Consecutive failed (post-retry) checkpoints; resets on success.
    pub consecutive_checkpoint_failures: u64,
    /// Damaged records found by scrub passes (background + manual),
    /// cumulative, pre-dedup.
    pub scrub_corrupt_records: u64,
    /// Chunks quarantined by the scrubber (damaged on disk, never
    /// hydrated — their data exists nowhere in memory to heal from).
    pub quarantined_chunks: u64,
}

/// One failed checkpoint, retained in [`CheckpointStats::recent_failures`].
#[derive(Debug, Clone)]
pub struct CheckpointFailure {
    /// WAL watermark the failed checkpoint tried to fold in (the "when"
    /// in log coordinates — wall-clock timestamps would not survive a
    /// restart meaningfully, LSNs do).
    pub durable_lsn: u64,
    /// Generation the failed checkpoint tried to commit.
    pub generation: u64,
    /// Attempts made (retries included).
    pub attempts: u32,
    /// The final error, rendered.
    pub error: String,
}

/// Checkpoint health counters + a ring of recent failures.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStats {
    /// Consecutive failed (post-retry) checkpoints; resets on success.
    pub consecutive_failures: u64,
    /// Total failed (post-retry) checkpoints over the table's lifetime.
    pub total_failures: u64,
    /// Total retry attempts (beyond each job's first attempt).
    pub total_retries: u64,
    /// The most recent failures, oldest first (bounded ring).
    pub recent_failures: Vec<CheckpointFailure>,
}

/// Recent-failure ring capacity.
const FAILURE_RING: usize = 8;

/// Whether the table accepts writes.
#[derive(Debug, Clone)]
enum TableMode {
    Active,
    /// Read-only: persistent durability failure. Holds the reason chain.
    Degraded(String),
}

/// Capture-time bookkeeping for a submitted checkpoint: committed into
/// the ledger only when the job completes.
#[derive(Debug)]
struct Inflight {
    /// Column version counters at capture.
    versions: Vec<u64>,
    /// Watermark the job is folding in (failure reporting).
    durable_lsn: u64,
    /// Generation the job would commit (failure reporting).
    new_gen: u64,
}

/// A table wired to a manifest + segments + WAL persistence directory.
#[derive(Debug)]
pub struct DurableTable {
    table: Table,
    dir: PathBuf,
    vfs: VfsHandle,
    wal: Wal,
    /// Durable manifest generation (what `CURRENT` names).
    generation: u64,
    /// Live WAL file number (`>= generation`: capture rotates the WAL
    /// before its manifest commits, so an in-flight or failed checkpoint
    /// leaves a replayable chain `wal-<gen> .. wal-<wal_seq>`).
    wal_seq: u64,
    durable_lsn: u64,
    fms: Vec<FrequencyModel>,
    opts: DurableOptions,
    /// Per chunk: the current manifest's record, the column version it is
    /// clean at, and any quarantine.
    ledger: Ledger,
    /// Next segment sequence number to allocate.
    next_seg: u64,
    worker: Option<Checkpointer>,
    inflight: Option<Inflight>,
    /// A background (watermark) checkpoint failure, held for out-of-band
    /// reporting: the write that happened to observe it committed durably
    /// and must not be failed retroactively. Cleared by
    /// [`DurableTable::take_checkpoint_error`] or by the next successful
    /// checkpoint; until then the chunks simply stay dirty and the WAL
    /// chain keeps growing (recovery replays it — nothing is lost).
    background_error: Option<StorageError>,
    mode: TableMode,
    cp_stats: CheckpointStats,
    scrubber: Option<Scrubber>,
    /// Scrub counters from manual [`DurableTable::scrub_now`] passes
    /// (background passes accumulate in the scrubber's shared state).
    manual_scrub: ScrubStats,
    /// Resource governor (admission gate, memory budget, interrupt
    /// counters), shared with every [`TableReader`] this table hands out.
    governor: Option<Arc<Governor>>,
    /// Backup pins, shared with checkpoint jobs (pruning/retiring runs on
    /// the checkpointer thread) and outstanding [`BackupJob`]s: a pinned
    /// file is neither deleted nor retired until its backup finishes.
    pins: crate::archive::SharedPins,
    /// Backup directories registered via [`DurableTable::watch_backup`];
    /// the background scrubber re-verifies them after each pass.
    watched_backups: Arc<Mutex<Vec<PathBuf>>>,
    /// How many chunks' drift gauges the last [`Self::sync_obs_gauges`]
    /// wrote, so a re-layout to fewer chunks zeroes the indices it left.
    drift_series: AtomicUsize,
}

/// The chunk a panicking query was operating on, when attributable:
/// point-shaped operations route to exactly one chunk; range scans and
/// broadcast columns report `None` (no single suspect).
fn implicated_chunk(column: &ChunkedColumn, q: &HapQuery) -> Option<usize> {
    match q.key_op() {
        Op::Point(v) | Op::Insert(v) | Op::Delete(v) | Op::Update(v, _) => column.route_for(v),
        Op::Range(..) => None,
    }
}

pub(crate) fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// Best-effort directory fsync, for dirents whose loss costs nothing
/// acknowledged (a freshly created empty WAL, prune garbage).
pub(crate) fn sync_dir(vfs: &VfsHandle, dir: &Path) {
    let _ = vfs.fsync_dir(dir);
}

/// Write `bytes` to `path` via a temp file + atomic rename, fsyncing the
/// file and then the directory so the rename is the commit point. The
/// directory fsync is *checked*: `CURRENT` and manifest swings acknowledge
/// durability to their callers, and a lost dirent would silently roll the
/// commit back at the next crash.
pub(crate) fn write_atomic(vfs: &VfsHandle, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    vfs.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        vfs.fsync_dir(dir)?;
    }
    Ok(())
}

fn retry_policy(opts: &DurableOptions) -> RetryPolicy {
    /// Backoff before the first checkpoint retry (doubles per retry,
    /// capped at 1 s).
    const CHECKPOINT_BACKOFF: Duration = Duration::from_millis(10);
    RetryPolicy {
        attempts: opts.checkpoint_retries.max(1),
        backoff: CHECKPOINT_BACKOFF,
    }
}

fn spawn_worker(opts: &DurableOptions) -> Result<Option<Checkpointer>, StorageError> {
    if opts.background_checkpointer {
        Ok(Some(Checkpointer::spawn(retry_policy(opts))?))
    } else {
        Ok(None)
    }
}

fn spawn_scrubber(
    opts: &DurableOptions,
    vfs: &VfsHandle,
    dir: &Path,
    watched: Arc<Mutex<Vec<PathBuf>>>,
) -> Result<Option<Scrubber>, StorageError> {
    if opts.scrub_interval_ms > 0 {
        Ok(Some(Scrubber::spawn(
            vfs.clone(),
            dir.to_path_buf(),
            Duration::from_millis(opts.scrub_interval_ms),
            watched,
        )?))
    } else {
        Ok(None)
    }
}

impl DurableTable {
    /// Create a fresh durable table at `dir` (which must not already hold
    /// one): writes the generation-1 segment + manifest, an empty WAL and
    /// `CURRENT`.
    pub fn create(
        dir: &Path,
        schema: casper_workload::HapSchema,
        keys: Vec<u64>,
        payload_cols: Vec<Vec<u32>>,
        config: casper_engine::EngineConfig,
        opts: DurableOptions,
    ) -> Result<Self, StorageError> {
        Self::create_from_table(dir, Table::load(schema, keys, payload_cols, config), opts)
    }

    /// As [`DurableTable::create`], adopting an already-built table (e.g.
    /// one that was optimized before first persisting it).
    pub fn create_from_table(
        dir: &Path,
        table: Table,
        opts: DurableOptions,
    ) -> Result<Self, StorageError> {
        Self::create_from_table_with_vfs(VfsHandle::default(), dir, table, opts)
    }

    /// As [`DurableTable::create_from_table`], routing all I/O through
    /// `vfs` (the fault-injection entry point; production callers use the
    /// plain constructors, which pass the real filesystem).
    pub fn create_from_table_with_vfs(
        vfs: VfsHandle,
        dir: &Path,
        table: Table,
        opts: DurableOptions,
    ) -> Result<Self, StorageError> {
        casper_obs::enable_from_env();
        fs::create_dir_all(dir)?;
        if current_path(dir).exists() {
            return Err(StorageError::corrupt(format!(
                "directory {} already holds a durable table",
                dir.display()
            )));
        }
        table.hydrate_all()?;
        let generation = 1u64;
        // A crash of a previous create between WAL creation and the
        // CURRENT write leaves a stale WAL behind (CURRENT absent, so the
        // directory never became a live table); clear it for the retry.
        let wp = FileKind::Wal.path(dir, generation);
        if wp.exists() {
            vfs.remove(&wp)?;
        }
        let wal = Wal::create(&vfs, &wp, 1)?;
        let chunks = table.column().chunks();
        let fresh: Vec<(usize, RecordSource)> = chunks
            .iter()
            .enumerate()
            .map(|(i, store)| (i, RecordSource::Encode(store.clone())))
            .collect();
        let job = CheckpointJob {
            vfs: vfs.clone(),
            dir: dir.to_path_buf(),
            new_gen: generation,
            seg_seq: 1,
            durable_lsn: 0,
            schema: table.schema(),
            config: *table.column().config(),
            fences: table.column().fences().map(<[u64]>::to_vec),
            fms: Vec::new(),
            n_chunks: chunks.len(),
            fresh,
            reused: Vec::new(),
            evacuate: BTreeSet::new(),
            archive: opts.archive,
            // No backup can pin a table that does not exist yet.
            pins: crate::archive::SharedPins::default(),
        };
        let manifest = crate::incremental::run_checkpoint(&job)?;
        let versions = table.column().versions().to_vec();
        Self::assemble(vfs, dir, opts, table, &versions, manifest, wal, generation)
    }

    /// The one place a `DurableTable` is put together: `table` holds
    /// exactly `manifest` plus the replayed chain up to and including
    /// `wal` (link `wal_seq`), and `versions` are the column's version
    /// counters as of `manifest`.
    fn assemble(
        vfs: VfsHandle,
        dir: &Path,
        opts: DurableOptions,
        table: Table,
        versions: &[u64],
        manifest: Manifest,
        wal: Wal,
        wal_seq: u64,
    ) -> Result<Self, StorageError> {
        // Fresh segments must never collide with leftovers of a checkpoint
        // that died before its manifest committed.
        let next_seg = Self::max_segment_on_disk(dir)
            .max(manifest.referenced_segments().last().copied().unwrap_or(0))
            + 1;
        let watched = Arc::new(Mutex::new(Vec::new()));
        let mut ledger = Ledger::default();
        ledger.commit(manifest.entries, versions);
        Ok(Self {
            table,
            dir: dir.to_path_buf(),
            wal,
            generation: manifest.generation,
            wal_seq,
            durable_lsn: manifest.durable_lsn,
            fms: manifest.fms,
            ledger,
            next_seg,
            worker: spawn_worker(&opts)?,
            inflight: None,
            background_error: None,
            mode: TableMode::Active,
            cp_stats: CheckpointStats::default(),
            scrubber: spawn_scrubber(&opts, &vfs, dir, Arc::clone(&watched))?,
            manual_scrub: ScrubStats::default(),
            governor: opts.governor.map(|cfg| Arc::new(Governor::new(cfg))),
            pins: crate::archive::SharedPins::default(),
            watched_backups: watched,
            drift_series: AtomicUsize::new(0),
            vfs,
            opts,
        })
    }

    /// Reopen a durable table: resolve `CURRENT` to its manifest, open its
    /// segments — metadata-only work; each chunk reads and verifies its
    /// records on first touch, or all at once with
    /// [`DurableTable::hydrate_all`] — then recover the WAL chain
    /// (torn-tail truncation on the last link) and replay its committed
    /// batches.
    pub fn open(dir: &Path, opts: DurableOptions) -> Result<Self, StorageError> {
        Self::open_with_vfs(VfsHandle::default(), dir, opts)
    }

    /// As [`DurableTable::open`], routing all I/O through `vfs`.
    pub fn open_with_vfs(
        vfs: VfsHandle,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<Self, StorageError> {
        casper_obs::enable_from_env();
        let (generation, manifest, _) = read_current(&vfs, dir)?;
        let mut table = restore_table(&vfs, &[dir], &manifest)?;
        // Snapshotting the restored column's versions *before* replay is
        // what marks replayed-into chunks dirty for the next incremental
        // checkpoint.
        let versions = table.column().versions().to_vec();

        // Replay the WAL chain wal-<gen> .. wal-<highest>. Only the last
        // link can be torn (rotation seals its predecessor first); it is
        // the one the writer resumes on.
        let first = FileKind::Wal.path(dir, generation);
        if !first.exists() {
            Wal::create(&vfs, &first, manifest.durable_lsn + 1)?;
            sync_dir(&vfs, dir);
        }
        let resolve = |seq| Some(FileKind::Wal.path(dir, seq)).filter(|p| p.exists());
        let mut chain_last = manifest.durable_lsn;
        let last = walk_chain(&vfs, generation, resolve, |link| {
            replay(&link.scan, &mut table, manifest.durable_lsn)?;
            chain_last = chain_last.max(link.scan.last_lsn);
            Ok(true)
        })?
        .expect("the chain's first link exists");
        let mut wal = Wal::resume(&vfs, &last)?;
        // An empty last link continues numbering after the LSNs the
        // manifest and the earlier links already hold; otherwise fresh
        // records would replay as already-applied.
        wal.ensure_lsn_at_least(chain_last + 1);

        // Clear leftovers of interrupted checkpoints (unreferenced
        // segments, orphaned manifests) — but never the WAL chain at or
        // above the durable generation. With archiving on this also
        // completes any retire a crash interrupted (the reconcile pass).
        // Nothing can be pinned: backups pin through a live table.
        crate::archive::retire_stale(
            &vfs,
            dir,
            &manifest,
            opts.archive.as_ref(),
            &crate::archive::SharedPins::default(),
        );
        Self::assemble(vfs, dir, opts, table, &versions, manifest, wal, last.seq)
    }

    /// Highest segment number present in the directory (0 if none).
    fn max_segment_on_disk(dir: &Path) -> u64 {
        let files = list_dir(dir)
            .map(|listing| listing.files)
            .unwrap_or_default();
        let segments = files.iter().filter(|(kind, ..)| *kind == FileKind::Segment);
        segments.map(|(_, seq, _)| *seq).max().unwrap_or(0)
    }

    /// The wrapped table (read-only; mutations must flow through
    /// [`DurableTable::execute`] so they are logged). After an `open`
    /// some chunks may still be unhydrated — call
    /// [`DurableTable::hydrate_all`] first if you need direct column
    /// access.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Decode every chunk still awaiting lazy hydration. Fails with a
    /// typed [`StorageError::Quarantined`] if the scrubber found a chunk
    /// whose on-disk record is damaged and which has no in-memory copy.
    pub fn hydrate_all(&mut self) -> Result<(), StorageError> {
        self.ensure_no_quarantine()?;
        self.table.hydrate_all()
    }

    fn ensure_no_quarantine(&self) -> Result<(), StorageError> {
        match self.ledger.quarantined().next() {
            Some((chunk, reason)) => Err(StorageError::Quarantined {
                chunk: chunk as u64,
                reason: reason.to_string(),
            }),
            None => Ok(()),
        }
    }

    /// The quarantined chunk holding un-checkpointed writes, if any: while
    /// one exists checkpoint progress is frozen ([`Ledger::freezing`]).
    fn frozen_by(&self) -> Option<(usize, &str)> {
        self.ledger.freezing(self.table.column().versions())
    }

    fn ensure_active(&self) -> Result<(), StorageError> {
        match &self.mode {
            TableMode::Active => Ok(()),
            TableMode::Degraded(reason) => Err(StorageError::Degraded {
                reason: reason.clone(),
            }),
        }
    }

    /// Whether the table is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        matches!(self.mode, TableMode::Degraded(_))
    }

    /// Why the table degraded, if it did.
    pub fn degraded_reason(&self) -> Option<&str> {
        match &self.mode {
            TableMode::Active => None,
            TableMode::Degraded(reason) => Some(reason),
        }
    }

    /// Attempt to leave degraded mode: run a synchronous checkpoint as the
    /// health proof (it exercises segment write, fsync, manifest + CURRENT
    /// swing and the directory fsync). On success the table accepts writes
    /// again; on failure it stays degraded with the fresh reason.
    pub fn reactivate(&mut self) -> Result<u64, StorageError> {
        if !self.is_degraded() {
            return Ok(self.generation);
        }
        self.mode = TableMode::Active;
        self.cp_stats.consecutive_failures = 0;
        match self.checkpoint_sync(false) {
            Ok(gen) => {
                OBS_DEGRADED_EXIT.inc();
                self.sync_obs_gauges();
                warn_rate_limited(&format!(
                    "left degraded mode (reactivate proved storage, generation {gen})"
                ));
                Ok(gen)
            }
            Err(e) => {
                self.mode = TableMode::Degraded(format!("reactivate failed: {e}"));
                self.sync_obs_gauges();
                Err(e)
            }
        }
    }

    fn enter_degraded(&mut self, reason: String) {
        if !self.is_degraded() {
            OBS_DEGRADED_ENTER.inc();
            warn_rate_limited(&format!("entering degraded read-only mode: {reason}"));
            self.mode = TableMode::Degraded(reason);
            self.sync_obs_gauges();
        }
    }

    /// Mirror the health state the accessors report into the registry
    /// gauges. Called wherever that state changes, so a metrics dump and
    /// [`DurableTable::stats`] / [`DurableTable::checkpoint_stats`] always
    /// tell the same story. The FM drift gauges are read off each chunk's
    /// access record: observed and predicted accesses per chunk, and
    /// their [`max_drift_ratio`].
    fn sync_obs_gauges(&self) {
        let Some(reg) = casper_obs::registry() else {
            return;
        };
        OBS_CP_CONSECUTIVE.set(self.cp_stats.consecutive_failures as f64);
        OBS_SEGMENT_CHAIN.set(self.ledger.segments().len() as f64);
        OBS_QUARANTINED.set(self.ledger.quarantined().count() as f64);
        OBS_DEGRADED_MODE.set(if self.is_degraded() { 1.0 } else { 0.0 });
        if let Some(g) = &self.governor {
            // Refresh the resident gauge so a metrics dump between budget
            // checks still reports current residency.
            g.set_resident_bytes(self.table.column().resident_bytes() as u64);
        }
        let chunks = self.table.column().chunks().iter();
        let drift: Vec<(f64, f64)> = chunks
            .map(|slot| (slot.accesses() as f64, slot.predicted_accesses()))
            .collect();
        // Indices this table wrote last time and no longer has read 0.
        let written = self.drift_series.swap(drift.len(), Ordering::Relaxed);
        for i in 0..drift.len().max(written) {
            let (observed, predicted) = drift.get(i).copied().unwrap_or_default();
            let series = |family: &str| format!("casper_fm_{family}_accesses{{chunk=\"{i}\"}}");
            reg.gauge(&series("observed")).set(observed);
            reg.gauge(&series("predicted")).set(predicted);
        }
        OBS_DRIFT_MAX_RATIO.set(max_drift_ratio(&drift));
    }

    /// Render the process-wide telemetry registry as Prometheus text
    /// exposition. Empty when telemetry was never engaged (`CASPER_OBS`
    /// unset and [`casper_obs::enable`] never called).
    pub fn metrics_text(&self) -> String {
        self.sync_obs_gauges();
        casper_obs::snapshot().map_or_else(String::new, |s| s.to_prometheus_text())
    }

    /// As [`DurableTable::metrics_text`], rendered as a JSON object.
    pub fn metrics_json(&self) -> String {
        self.sync_obs_gauges();
        casper_obs::snapshot().map_or_else(|| "{}".to_string(), |s| s.to_json())
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Captured frequency-model state from the last durable optimize pass
    /// (restored from the manifest on open).
    pub fn frequency_models(&self) -> &[FrequencyModel] {
        &self.fms
    }

    /// Current durability counters.
    pub fn stats(&self) -> DurableStats {
        let versions = self.table.column().versions();
        let scrub = self.scrub_stats();
        DurableStats {
            generation: self.generation,
            durable_lsn: self.durable_lsn,
            next_lsn: self.wal.next_lsn(),
            wal_bytes: self.wal.durable_bytes(),
            staged_records: self.wal.staged_records(),
            dirty_chunks: self.ledger.dirty_count(versions) as u64,
            segments: self.ledger.segments().len() as u64,
            checkpoint_in_flight: self.inflight.is_some(),
            checkpoint_failed: self.background_error.is_some(),
            degraded: self.is_degraded(),
            consecutive_checkpoint_failures: self.cp_stats.consecutive_failures,
            scrub_corrupt_records: scrub.corrupt_records,
            quarantined_chunks: self.ledger.quarantined().count() as u64,
        }
    }

    /// Checkpoint health: failure counters and the recent-failure ring.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.cp_stats.clone()
    }

    /// Cumulative scrub counters (background passes + manual
    /// [`DurableTable::scrub_now`] calls).
    pub fn scrub_stats(&self) -> ScrubStats {
        let mut s = self.manual_scrub;
        if let Some(scrubber) = &self.scrubber {
            s.absorb(scrubber.shared.stats());
        }
        s
    }

    /// Chunk indexes currently quarantined (damaged on disk, no in-memory
    /// copy to heal from).
    pub fn quarantined_chunks(&self) -> Vec<usize> {
        self.ledger.quarantined().map(|(i, _)| i).collect()
    }

    /// Run one synchronous scrub pass over the current manifest and apply
    /// its findings (mark damaged-but-resident chunks dirty so the next
    /// checkpoint rewrites them; quarantine damaged never-hydrated ones).
    /// The pass also re-verifies the archive behind the live chain and any
    /// backups registered via [`DurableTable::watch_backup`]; their
    /// damage is counted and reported, never escalated — archive or backup
    /// rot must not block live serving.
    pub fn scrub_now(&mut self) -> Result<ScrubReport, StorageError> {
        let report = crate::scrub::scrub_pass(&self.vfs, &self.dir, None)?;
        self.manual_scrub.absorb(ScrubStats::of_pass(&report));
        self.apply_scrub_findings(&report.findings);
        let backups = crate::scrub::verify_watched(&self.vfs, &self.watched_backups, None);
        self.manual_scrub.absorb(backups);
        Ok(report)
    }

    /// Drain background scrub findings (if the scrubber runs) and apply
    /// them. Called from the seal path so healing needs no extra locking:
    /// the foreground owns the table.
    fn absorb_scrub_findings(&mut self) {
        let findings = match &self.scrubber {
            Some(s) => s.shared.take_findings(),
            None => return,
        };
        if !findings.is_empty() {
            self.apply_scrub_findings(&findings);
        }
    }

    /// A damaged record whose chunk is resident is marked damaged in the
    /// ledger, so the next checkpoint re-encodes the chunk from memory into
    /// a fresh segment (the heal) — including when a checkpoint in flight
    /// right now re-points at the damaged record because the chunk looked
    /// clean at capture. A damaged record whose chunk was never hydrated
    /// has no copy to heal from — quarantine it so hydration fails typed
    /// instead of tripping over the CRC mid-query.
    fn apply_scrub_findings(&mut self, findings: &[ScrubFinding]) {
        let chunks = self.table.column().chunks();
        for f in findings {
            // Findings describe the *durable* generation's records. A
            // finding raced past a checkpoint that already superseded its
            // record is stale — the damaged bytes are unreferenced (or
            // about to be pruned).
            if f.generation != self.generation || self.ledger.record(f.chunk).is_none() {
                continue;
            }
            if chunks.get(f.chunk).is_none_or(|slot| slot.is_hydrated()) {
                self.ledger.mark_damaged(f.chunk);
            } else {
                self.ledger.quarantine(f.chunk, f.reason.clone());
            }
        }
        self.sync_obs_gauges();
    }

    /// Execute one query with a context that never interrupts; see
    /// [`DurableTable::execute_with`].
    pub fn execute(&mut self, q: &HapQuery) -> Result<QueryOutput, StorageError> {
        self.execute_with(q, &QueryCtx::default())
    }

    /// Execute one query. Writes are staged into the WAL's open batch
    /// after they apply; the batch seals (one write + fsync) every
    /// `group_commit` records. Reads pass straight through (hydrating any
    /// lazily-restored chunk they route to). On a degraded table reads
    /// keep working; writes fail with [`StorageError::Degraded`]. `ctx`
    /// deadline/cancel checks happen at chunk boundaries for reads and
    /// before dispatch only for writes (a started point write is cheaper
    /// to finish than to abort half-applied); an interrupted write stages
    /// nothing.
    ///
    /// A table opened with `DurableOptions.governor` additionally admits
    /// every query through the governor's slot gate and isolates panics.
    /// Panic containment: a panic attributed to a *clean, persisted*
    /// chunk **heals** — the suspect in-memory state is dropped and the
    /// chunk re-points at its last durable record, from which the next
    /// read rehydrates bit-exact (the record was byte-identical to the
    /// pre-panic memory). A panic in a *dirty* chunk **quarantines** it:
    /// its durable record plus the WAL still reconstruct a consistent
    /// table on reopen, and checkpoints never re-encode the suspect
    /// memory. Either way the serving loop — and the query slot — stay
    /// alive.
    pub fn execute_with(
        &mut self,
        q: &HapQuery,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, StorageError> {
        let out = self.apply_logged(q, ctx, self.opts.group_commit as u64)?;
        self.govern_memory();
        Ok(out)
    }

    /// The one write-ahead step every entry point shares: reject a write
    /// on a degraded table, apply the query (governed iff a governor is
    /// attached), stage a write's WAL image, and seal once `seal_at`
    /// records are staged.
    fn apply_logged(
        &mut self,
        q: &HapQuery,
        ctx: &QueryCtx,
        seal_at: u64,
    ) -> Result<QueryOutput, StorageError> {
        let write = !q.is_read();
        if write {
            self.ensure_active()?;
        }
        let result = match &self.governor {
            None => self.table.execute_with(q, ctx),
            Some(gov) => {
                let suspect = implicated_chunk(self.table.column(), q);
                let table = &mut self.table;
                gov.run(write, suspect, || table.execute_with(q, ctx))
            }
        };
        if let Err(StorageError::Panicked {
            chunk: Some(i),
            detail,
        }) = &result
        {
            self.contain_panic(*i, detail);
        }
        let out = result?;
        if self.wal.stage_query(q) && self.wal.staged_records() >= seal_at {
            self.seal_and_maybe_checkpoint()?;
        }
        Ok(out)
    }

    /// Contain a query panic attributed to chunk `i` (see
    /// [`DurableTable::execute_with`] for the heal-vs-quarantine
    /// contract).
    fn contain_panic(&mut self, i: usize, detail: &str) {
        let Some(&version) = self.table.column().versions().get(i) else {
            return;
        };
        if let Some(entry) = self.ledger.repointable(i, version).cloned() {
            let live = entry.live as usize;
            let loader = self.governed_loader(entry);
            self.table.column_mut().repoint_chunk(i, live, loader);
            self.table.column().publish();
            warn_rate_limited(&format!(
                "query panicked in clean chunk {i} ({detail}); \
                 chunk re-pointed at its durable record"
            ));
        } else {
            self.ledger
                .quarantine(i, format!("query panicked in this chunk: {detail}"));
            warn_rate_limited(&format!(
                "query panicked in dirty chunk {i} ({detail}); chunk quarantined \
                 (durable record + WAL reconstruct it on reopen)"
            ));
            self.sync_obs_gauges();
        }
    }

    /// Build the rehydration loader for an evicted or healed chunk: opens
    /// the record's segments on first touch and decodes through the same
    /// CRC-verified path restore-time laziness uses, counting the
    /// rehydration in the governor (when one is configured).
    fn governed_loader(&self, entry: ChunkEntry) -> casper_engine::column::ChunkLoader {
        let inner = record_loader(
            self.vfs.clone(),
            self.dir.clone(),
            entry,
            *self.table.column().config(),
            self.table.column().payload_width(),
        );
        match &self.governor {
            Some(gov) => {
                let gov = Arc::clone(gov);
                Box::new(move || {
                    let store = inner()?;
                    gov.note_rehydration();
                    Ok(store)
                })
            }
            None => inner,
        }
    }

    /// Run the memory governor's budget step if its amortization clock is
    /// due: account resident bytes, evict cold clean chunks past the
    /// budget, optionally checkpoint to make dirty chunks evictable, and
    /// escalate to degraded read-only mode after
    /// `over_budget_degrade_after` consecutive failed passes. A
    /// checkpoint failure here is stashed like any background checkpoint
    /// failure — it must not fail the (possibly read-only) query that
    /// happened to trigger the pass.
    fn govern_memory(&mut self) {
        let Some(gov) = self.governor.clone() else {
            return;
        };
        let budget = gov.config().memory_budget_bytes;
        if budget == 0 || !gov.budget_check_due() {
            return;
        }
        // Each budget check starts a new recency interval on every chunk.
        let chunks = self.table.column().chunks().iter();
        let recent: Vec<u64> = chunks.map(|slot| slot.take_recent_accesses()).collect();
        let mut resident = self.evict_pass(&gov, budget, &recent);
        if resident > budget
            && gov.config().governor_checkpoint
            && !self.is_degraded()
            && self.frozen_by().is_none()
        {
            // Dirty chunks are ineligible for eviction (their records are
            // stale); a checkpoint refreshes the records and a second
            // sweep can then demote them.
            match self.checkpoint_sync(false) {
                Ok(_) => resident = self.evict_pass(&gov, budget, &recent),
                Err(e) => self.background_error = Some(e),
            }
        }
        let still_over = resident > budget;
        if gov.over_budget_tick(still_over) && !self.is_degraded() {
            self.enter_degraded(format!(
                "memory governor: {resident} resident bytes still exceed the \
                 {budget}-byte budget after eviction and checkpointing"
            ));
        }
    }

    /// One eviction sweep: account resident bytes and demote clean,
    /// persisted, unquarantined chunks back to lazy slots, least `recent`
    /// access mass first (then by chunk index), until the budget holds
    /// (or candidates run out). A sweep's current chunk has mass since the
    /// last check and the chunks behind it none, so it is never the
    /// victim. Publishes once per sweep; in-flight snapshot pins keep the
    /// hydrated copies alive until their readers finish. Returns resident
    /// bytes after.
    fn evict_pass(&mut self, gov: &Arc<Governor>, budget: usize, recent: &[u64]) -> usize {
        let resident = self.table.column().resident_bytes();
        gov.set_resident_bytes(resident as u64);
        if resident <= budget {
            return resident;
        }
        let column = self.table.column();
        let slots = column.chunks().iter().zip(column.versions()).enumerate();
        let mut victims: Vec<(u64, usize, usize, ChunkEntry)> = slots
            .filter(|(_, (slot, _))| slot.is_hydrated())
            .filter_map(|(i, (slot, &version))| {
                let record = self.ledger.repointable(i, version)?.clone();
                Some((recent[i], i, slot.resident_bytes(), record))
            })
            .collect();
        victims.sort_unstable_by_key(|&(mass, i, ..)| (mass, i));
        let need = resident - budget;
        let mut freed = 0usize;
        let mut evicted = 0u64;
        for (_, i, bytes, record) in victims {
            if freed >= need {
                break;
            }
            let loader = self.governed_loader(record);
            if self.table.column_mut().evict_chunk(i, loader) {
                freed += bytes;
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.table.column().publish();
            gov.note_evictions(evicted);
        }
        let after = self.table.column().resident_bytes();
        gov.set_resident_bytes(after as u64);
        after
    }

    /// The table's resource governor, when one was configured.
    pub fn governor(&self) -> Option<&Arc<Governor>> {
        self.governor.as_ref()
    }

    /// Governor counters (`None` when ungoverned).
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        self.governor.as_ref().map(|g| g.stats())
    }

    /// Resident heap bytes across hydrated chunk stores (the governor's
    /// budget measure; meaningful without a governor too).
    pub fn resident_bytes(&self) -> usize {
        self.table.column().resident_bytes()
    }

    /// A cheap read-only handle over the table's published snapshot,
    /// sharing the table's governor (if any): queries on the reader go
    /// through the same slot gate and interrupt counters.
    pub fn reader(&self) -> TableReader {
        let r = self.table.reader();
        match &self.governor {
            Some(g) => r.with_governor(Arc::clone(g)),
            None => r,
        }
    }

    /// Test hook: replace chunk `i`'s slot with one that panics on next
    /// touch, simulating a latent in-memory fault for the
    /// panic-isolation tests.
    #[doc(hidden)]
    pub fn inject_chunk_panic(&mut self, i: usize) {
        let live = self.table.column().chunks()[i].len();
        self.table
            .column_mut()
            .repoint_chunk(i, live, Box::new(|| panic!("injected chunk fault")));
        self.table.column().publish();
    }

    /// Multi-column predicated sum (the TPC-H Q6 shape); read-only — and
    /// `&self`, since hydration goes through the shared `ChunkSlot` fill —
    /// so it works on degraded tables and shared borrows alike. Corrupt
    /// persisted chunks surface as a typed error, same as
    /// [`DurableTable::execute`], and a governor admits and panic-isolates
    /// it as it does every read there — a range read implicates no single
    /// chunk, so a panic here has nothing to heal or quarantine.
    pub fn multi_column_sum(
        &self,
        lo: u64,
        hi: u64,
        sum_cols: &[usize],
        pred_col: usize,
        pred_lo: u32,
        pred_hi: u32,
    ) -> Result<QueryOutput, StorageError> {
        let sum = || {
            self.table
                .multi_column_sum(lo, hi, sum_cols, pred_col, pred_lo, pred_hi)
        };
        match &self.governor {
            Some(gov) => gov.run(false, None, sum),
            None => sum(),
        }
    }

    /// Commit a transaction durably: validate + apply through the
    /// [`TxnManager`], then seal the transaction's write set as one WAL
    /// batch. A validation conflict stages nothing.
    pub fn commit_txn(&mut self, mgr: &TxnManager, txn: Transaction) -> Result<u64, StorageError> {
        self.ensure_active()?;
        // The manager applies through the column directly; hydrate the
        // chunks its write set routes to first, so a corrupt chunk fails
        // the commit before any of it applies.
        for q in txn.as_queries() {
            self.table.column().hydrate_for_query(q)?;
        }
        let ts = match mgr.commit(&txn, &mut self.table) {
            Ok(ts) => ts,
            Err(e @ StorageError::Conflict { .. }) => return Err(e),
            Err(e) => {
                // A storage failure mid-apply leaves the manager's commit
                // partially applied — a state the WAL cannot describe op
                // by op. Checkpointing snapshots the table exactly as it
                // is, so recovery cannot diverge from what readers saw.
                // If even that fails, report both faults: the caller must
                // know durable state now lags the in-memory table.
                if let Err(cp) = self.checkpoint() {
                    return Err(StorageError::corrupt(format!(
                        "transaction applied partially ({e}) and the recovery \
                         checkpoint failed ({cp}); durable state lags the \
                         in-memory table until a checkpoint succeeds"
                    )));
                }
                return Err(e);
            }
        };
        for q in txn.as_queries() {
            self.wal.stage_query(q);
        }
        self.seal_and_maybe_checkpoint()?;
        Ok(ts)
    }

    /// Seal the open WAL batch, making every staged write durable now.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if self.wal.staged_records() > 0 {
            self.ensure_active()?;
        }
        self.seal_and_maybe_checkpoint()
    }

    fn seal_and_maybe_checkpoint(&mut self) -> Result<(), StorageError> {
        if let Err(e) = self.wal.seal() {
            if !self.wal.poisoned() {
                // A failed *write* (ENOSPC before the fsync): the batch
                // stays staged and the next seal retries from the durable
                // boundary. Nothing was acknowledged, nothing is at risk.
                return Err(e);
            }
            // A failed *fsync*: the batch's durability is unknown and this
            // fd can never prove it (fsyncgate). Rotate to a fresh WAL and
            // take a synchronous recovery checkpoint whose watermark
            // covers the ghost batch; the write is acknowledged only once
            // that checkpoint commits. `checkpoint_sync` degrades the
            // table if the recovery checkpoint fails — a commit of
            // unknown durability is never acknowledged.
            self.checkpoint_sync(false)?;
            return Ok(());
        }
        self.absorb_scrub_findings();
        // Absorb a finished background checkpoint before deciding whether
        // to start another (failures are stashed, not attributed to this
        // write — see `poll_checkpoint`).
        self.poll_checkpoint();
        if self.opts.wal_checkpoint_bytes > 0
            && self.wal.durable_bytes() >= self.opts.wal_checkpoint_bytes
            && self.inflight.is_none()
            && !self.is_degraded()
            // A dirty quarantined chunk freezes checkpoint progress (the
            // WAL keeps growing); the write that crossed the watermark
            // still sealed durably, so skipping — not failing — is right.
            && self.frozen_by().is_none()
        {
            // This write sealed durably whatever the checkpoint does: one
            // that cannot start is counted and stashed exactly like a job
            // that fails inline here or on the worker (`poll_checkpoint`),
            // and recovery replays the growing WAL chain meanwhile.
            match self.capture(false) {
                Err(e) => {
                    let (lsn, gen) = (self.wal.next_lsn() - 1, self.wal_seq + 1);
                    self.background_error = Some(self.count_failure(lsn, gen, 1, e));
                }
                Ok(job) => match &self.worker {
                    Some(worker) => worker.submit(job),
                    None => {
                        let completion = run_with_retry(&job, &retry_policy(&self.opts));
                        if let Err(e) = self.apply_completion(completion) {
                            self.background_error = Some(e);
                        }
                    }
                },
            }
        }
        Ok(())
    }

    /// Incremental checkpoint, waited to completion: write exactly the
    /// chunks dirtied since the last checkpoint into a fresh segment — a
    /// patch record of the written granules where a chunk's chain allows
    /// one, the chunk whole otherwise — commit a manifest referencing old
    /// chains for the clean ones, swing `CURRENT`, prune. Returns the new
    /// generation number.
    pub fn checkpoint(&mut self) -> Result<u64, StorageError> {
        self.ensure_active()?;
        self.checkpoint_sync(false)
    }

    /// Full compaction, waited to completion: rewrite every live record
    /// chain into one fresh segment (clean chains byte-copied record by
    /// record, dirty chunks patched or written whole as usual) and collapse
    /// the segment set.
    pub fn compact(&mut self) -> Result<u64, StorageError> {
        self.ensure_active()?;
        self.checkpoint_sync(true)
    }

    /// Restore the table as it stood at `lsn`: pick the newest manifest
    /// (archived or live) whose durable LSN is at or before the target,
    /// rebuild the table from its records — **zero layout solves, zero
    /// codec re-encodes**, even when `lsn` predates an
    /// [`DurableTable::optimize`] re-layout (the archived manifest carries
    /// the old layout verbatim) — and replay the archived + live WAL chain
    /// up to the target. A target between two commit boundaries rounds
    /// *down* to the last committed batch at or below it (group commit
    /// acknowledged nothing in between); a target past the end of history
    /// clamps to everything available. A target older than the retention
    /// horizon fails with a typed error.
    ///
    /// The result is read-only and detached from the live table, which may
    /// keep serving concurrently (restore never writes to the directory).
    pub fn open_at(dir: &Path, lsn: u64) -> Result<PointInTime, StorageError> {
        Self::open_at_with_vfs(VfsHandle::default(), dir, lsn)
    }

    /// As [`DurableTable::open_at`], routing all I/O through `vfs`. The
    /// restored table is detached (no WAL, checkpointer, scrubber or
    /// governor), so it takes no [`DurableOptions`].
    pub fn open_at_with_vfs(
        vfs: VfsHandle,
        dir: &Path,
        lsn: u64,
    ) -> Result<PointInTime, StorageError> {
        casper_obs::enable_from_env();
        crate::archive::open_at(&vfs, dir, lsn)
    }

    /// Take a consistent online backup into `dest`: pin the current
    /// generation, then copy its manifest, every referenced segment, and
    /// the sealed WAL chain — CRC-verifying every byte on the way out.
    /// Equivalent to [`DurableTable::begin_backup`] followed immediately
    /// by [`BackupJob::run`] on the calling thread; use `begin_backup` to
    /// run the copy on a worker while this table keeps serving.
    pub fn backup_to(&mut self, dest: &Path) -> Result<BackupReport, StorageError> {
        self.begin_backup(dest)?.run()
    }

    /// Fence and pin a backup of the current generation. The fence is
    /// short — wait out any in-flight background checkpoint, seal the open
    /// WAL batch — and on return the backup's contents are fixed: exactly
    /// the writes acknowledged before this call. The returned job owns a
    /// pin that keeps every source file in place (not pruned, not retired)
    /// until the job is dropped; [`BackupJob::run`] may execute on any
    /// thread while this table serves reads *and writes* concurrently.
    pub fn begin_backup(&mut self, dest: &Path) -> Result<BackupJob, StorageError> {
        self.ensure_active()?;
        // The fence against the checkpointer's capture/execute split: a
        // job captured before this point has fully committed (or failed)
        // once finish_inflight returns, and any later capture happens on
        // this thread, after the pin below is registered.
        self.finish_inflight()?;
        if let Err(e) = self.wal.seal() {
            if !self.wal.poisoned() {
                return Err(e);
            }
            // Poisoned seal: the recovery checkpoint folds the ghost batch
            // into a fresh generation; the backup then copies that.
            self.checkpoint_sync(false)?;
        }
        let pin = self.pins.pin(crate::archive::BackupPin {
            generation: self.generation,
            segments: self.ledger.segments(),
            min_wal: self.generation,
        });
        Ok(BackupJob {
            vfs: self.vfs.clone(),
            src: self.dir.clone(),
            dest: dest.to_path_buf(),
            generation: self.generation,
            last_wal: self.wal_seq,
            fence_bytes: self.wal.durable_bytes(),
            backup_lsn: self.wal.next_lsn().saturating_sub(1),
            _pin: pin,
        })
    }

    /// Verify a backup directory end to end: `CURRENT` → manifest checksum
    /// → every chunk record CRC → every WAL link fully sealed with gapless
    /// LSN continuity across links. Read-only; works on any self-contained
    /// table directory.
    pub fn verify_backup(dir: &Path) -> Result<BackupVerifyReport, StorageError> {
        Self::verify_backup_with_vfs(VfsHandle::default(), dir)
    }

    /// As [`DurableTable::verify_backup`], routing all I/O through `vfs`.
    pub fn verify_backup_with_vfs(
        vfs: VfsHandle,
        dir: &Path,
    ) -> Result<BackupVerifyReport, StorageError> {
        crate::archive::verify_backup(&vfs, dir, None)
    }

    /// Register a backup directory for ongoing re-verification: the
    /// background scrubber (when enabled) and [`DurableTable::scrub_now`]
    /// walk it after each pass, counting failures in
    /// [`ScrubStats::backup_failures`] — a rotting backup is found before
    /// the day it is needed.
    pub fn watch_backup(&mut self, dir: &Path) {
        let mut watched = self
            .watched_backups
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if !watched.iter().any(|p| p == dir) {
            watched.push(dir.to_path_buf());
        }
    }

    /// The current archive index (empty when archiving is off or nothing
    /// has been retired yet).
    pub fn archive_index(&self) -> Result<crate::archive::ArchiveIndex, StorageError> {
        crate::archive::ArchiveIndex::load(&self.vfs, &self.dir)
    }

    fn checkpoint_sync(&mut self, force_full: bool) -> Result<u64, StorageError> {
        self.finish_inflight()?;
        self.absorb_scrub_findings();
        if !self.wal.poisoned() {
            if let Err(e) = self.wal.seal() {
                if !self.wal.poisoned() {
                    return Err(e);
                }
                // The seal's fsync just failed: fall through — the capture
                // below rotates the WAL and becomes the recovery
                // checkpoint covering the ghost batch.
            }
        }
        let poisoned = self.wal.poisoned();
        let job = self.capture(force_full)?;
        let new_gen = job.new_gen;
        let completion = match (&self.worker, self.opts.background_checkpointer, poisoned) {
            // Healthy path: run on the worker, wait for it.
            (Some(worker), true, false) => {
                worker.submit(job);
                worker.recv()
            }
            // Inline (no worker, or a poisoned WAL whose recovery must not
            // depend on a second thread being healthy).
            _ => run_with_retry(&job, &retry_policy(&self.opts)),
        };
        match self.apply_completion(completion) {
            Ok(()) => {
                // This checkpoint folded everything a previously failed
                // background attempt would have: the stale failure is moot.
                self.background_error = None;
                Ok(new_gen)
            }
            Err(e) => {
                if poisoned {
                    // The ghost batch is covered by neither a durable WAL
                    // nor a checkpoint: acknowledging anything now would
                    // risk acked-then-lost. Flip to read-only.
                    let reason = format!(
                        "WAL fsync failed (batch durability unknown) and the \
                         recovery checkpoint failed: {e}"
                    );
                    self.enter_degraded(reason.clone());
                    Err(StorageError::Degraded { reason })
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Capture a checkpoint under the foreground's pause: rotate the WAL
    /// (commits continue against the new file immediately), ask the ledger
    /// which chunks are dirty at the column's current version counters,
    /// copy out a patch for each dirty chunk whose chain it may extend, and
    /// pin the rest to be written whole. Everything else costly — full
    /// encodes, segment/manifest writes, fsyncs — lives in the returned
    /// job.
    ///
    /// Callers seal first (capture never fsyncs the old WAL itself): on
    /// the healthy path the batch is already durable, and on the poisoned
    /// path the watermark below folds the ghost batch in.
    fn capture(&mut self, force_full: bool) -> Result<CheckpointJob, StorageError> {
        debug_assert!(self.inflight.is_none(), "one checkpoint at a time");
        // Checked before any side effect (notably the WAL rotation): see
        // `Ledger::freezing` for why a checkpoint must not proceed.
        if let Some((chunk, reason)) = self.frozen_by() {
            return Err(StorageError::Quarantined {
                chunk: chunk as u64,
                reason: format!(
                    "{reason}; the chunk holds un-checkpointed writes, so checkpointing \
                     is frozen until a reopen replays them from the WAL"
                ),
            });
        }
        let poisoned = self.wal.poisoned();
        debug_assert!(
            poisoned || self.wal.staged_records() == 0,
            "seal before capture"
        );
        let durable_lsn = if poisoned {
            // The ghost batch's commit marker would have carried
            // `next_lsn` (a failed seal advances nothing). Its effects are
            // in the table this checkpoint snapshots, so fold its LSN into
            // the watermark: if the batch *did* reach disk, replay skips
            // it (no double-apply); if it did not, nothing references it.
            self.wal.next_lsn()
        } else {
            self.wal.next_lsn() - 1
        };
        if poisoned {
            // Best-effort: scrub the possibly-ghost tail off the abandoned
            // file so a reopen before this checkpoint commits sees the
            // file end exactly at its durable boundary.
            self.wal.truncate_tail(&self.vfs);
        }
        let new_gen = self.wal_seq + 1;
        // Rotate: the old WAL file stays for recovery until the manifest
        // commits; new writes land in wal-<new_gen> with continuous LSNs.
        let wp = FileKind::Wal.path(&self.dir, new_gen);
        if wp.exists() {
            self.vfs.remove(&wp)?; // garbage of a checkpoint that died pre-commit
        }
        let new_wal = Wal::create(&self.vfs, &wp, durable_lsn + 1)?;
        // The dirent of the rotated WAL must be durable *before* commits
        // are acknowledged into it: with the background checkpointer the
        // next directory fsync (the job's manifest rename) may be many
        // acknowledged commits away, and losing the dirent would lose all
        // of them. Checked, not best-effort — and ordered before the
        // writer swap so a failure leaves the old WAL in place.
        self.vfs.fsync_dir(&self.dir)?;
        self.wal = new_wal;
        self.wal_seq = new_gen;

        // Past the freeze check a quarantined chunk is clean, so every
        // chunk is either written from memory or keeps its record. Dirty
        // chunks are hydrated by definition (writes hydrate before
        // mutating, and the scrubber only marks resident chunks damaged),
        // so the patch copy or clone cannot hit an unloaded store.
        let column = self.table.column();
        let versions = column.versions().to_vec();
        let n = versions.len();
        let mut fresh: Vec<(usize, RecordSource)> = Vec::new();
        let mut reused: Vec<(usize, ChunkEntry)> = Vec::new();
        for (i, &version) in versions.iter().enumerate() {
            if self.ledger.encodable(i, version) {
                let slot = &column.chunks()[i];
                let base = self.ledger.patch_base(i, column.rebuilt_at()[i]);
                let patch = slot.store_opt().zip(base);
                let patch = patch.and_then(|(store, base)| capture_patch(store, base));
                fresh.push((
                    i,
                    patch.unwrap_or_else(|| RecordSource::Encode(slot.clone())),
                ));
            } else {
                let record = self.ledger.record(i).expect("a clean chunk has a record");
                reused.push((i, record.clone()));
            }
        }
        let dirty = fresh.len();
        // Compaction: forced, or the manifest would reference too many
        // segments. The segments holding the fewest live bytes are emptied:
        // each record a chain keeps there is byte-copied — no hydration, no
        // re-encode — into the fresh segment, clean chains included.
        let mut live: BTreeMap<u64, u64> = BTreeMap::new();
        let patch_bases = fresh.iter().filter_map(|(_, source)| match source {
            RecordSource::Patch { base, .. } => Some(base),
            _ => None,
        });
        let chains = reused.iter().map(|(_, e)| e).chain(patch_bases);
        for record in chains.flat_map(ChunkEntry::records) {
            *live.entry(record.seg).or_default() += record.len;
        }
        let evacuate = segments_to_evacuate(&live, dirty > 0, self.opts.max_segments, force_full);
        if !evacuate.is_empty() {
            let (moved, kept) = reused
                .into_iter()
                .partition(|(_, e)| e.records().any(|r| evacuate.contains(&r.seg)));
            reused = kept;
            fresh.extend(moved.into_iter().map(|(i, e)| (i, RecordSource::Copy(e))));
            fresh.sort_unstable_by_key(|&(i, _)| i);
        }
        let seg_seq = self.next_seg;
        if !fresh.is_empty() {
            self.next_seg += 1;
        }
        if casper_obs::enabled() {
            OBS_CP_DIRTY_RATIO.set(if n == 0 { 0.0 } else { dirty as f64 / n as f64 });
            if reused.is_empty() {
                OBS_FULL_CHECKPOINTS.inc();
            }
        }
        self.inflight = Some(Inflight {
            versions,
            durable_lsn,
            new_gen,
        });
        Ok(CheckpointJob {
            vfs: self.vfs.clone(),
            dir: self.dir.clone(),
            new_gen,
            seg_seq,
            durable_lsn,
            schema: self.table.schema(),
            config: *self.table.column().config(),
            fences: self.table.column().fences().map(<[u64]>::to_vec),
            fms: self.fms.clone(),
            n_chunks: n,
            fresh,
            reused,
            evacuate,
            archive: self.opts.archive,
            pins: self.pins.clone(),
        })
    }

    /// Absorb a finished background checkpoint if one is ready. A failed
    /// job is *stashed* (see [`DurableTable::take_checkpoint_error`]), not
    /// returned: the commit that happened to poll it succeeded and sealed
    /// durably, and failing it retroactively would make callers retry (and
    /// double-apply) a write that is already committed.
    fn poll_checkpoint(&mut self) {
        if self.inflight.is_none() {
            return;
        }
        if let Some(worker) = &self.worker {
            if let Some(completion) = worker.try_recv() {
                if let Err(e) = self.apply_completion(completion) {
                    self.background_error = Some(e);
                }
            }
        }
    }

    /// Take (and clear) the error of a failed background checkpoint, if
    /// any. Until a checkpoint succeeds, the affected chunks stay dirty
    /// and the WAL chain keeps growing — durability of acknowledged writes
    /// is never at risk, only checkpoint progress.
    pub fn take_checkpoint_error(&mut self) -> Option<StorageError> {
        self.background_error.take()
    }

    /// Block until the in-flight checkpoint (if any) finishes, and apply
    /// it.
    fn finish_inflight(&mut self) -> Result<(), StorageError> {
        if self.inflight.is_none() {
            return Ok(());
        }
        let completion = self
            .worker
            .as_ref()
            .expect("an in-flight checkpoint implies a worker")
            .recv();
        self.apply_completion(completion)
    }

    /// Commit (or discard, on error) the capture bookkeeping of a finished
    /// checkpoint, and keep the failure counters: consecutive failures
    /// escalate to degraded mode once they pass
    /// [`DurableOptions::degrade_after`]. On failure the chunks stay dirty
    /// against the ledger's last commit and the WAL chain keeps growing
    /// — recovery replays it, so no acknowledged write is ever lost.
    fn apply_completion(&mut self, completion: Completion) -> Result<(), StorageError> {
        let inflight = self.inflight.take().expect("completion without capture");
        self.cp_stats.total_retries += u64::from(completion.attempts.saturating_sub(1));
        OBS_CP_RETRIES.add(u64::from(completion.attempts.saturating_sub(1)));
        match completion.result {
            Ok(manifest) => {
                self.cp_stats.consecutive_failures = 0;
                self.generation = manifest.generation;
                self.durable_lsn = manifest.durable_lsn;
                self.ledger.commit(manifest.entries, &inflight.versions);
                OBS_CHECKPOINTS_OK.inc();
                self.sync_obs_gauges();
                Ok(())
            }
            Err(e) => Err(self.count_failure(
                inflight.durable_lsn,
                inflight.new_gen,
                completion.attempts,
                e,
            )),
        }
    }

    /// Count one failed checkpoint — the watermark it tried to fold in and
    /// the generation it would have committed go into the recent-failure
    /// ring — and degrade once [`DurableOptions::degrade_after`] failures
    /// ran consecutively. Hands `e` back for the caller to report.
    fn count_failure(
        &mut self,
        durable_lsn: u64,
        generation: u64,
        attempts: u32,
        e: StorageError,
    ) -> StorageError {
        OBS_CHECKPOINTS_ERR.inc();
        self.cp_stats.consecutive_failures += 1;
        self.cp_stats.total_failures += 1;
        let mut ring: VecDeque<CheckpointFailure> =
            std::mem::take(&mut self.cp_stats.recent_failures).into();
        if ring.len() >= FAILURE_RING {
            ring.pop_front();
        }
        ring.push_back(CheckpointFailure {
            durable_lsn,
            generation,
            attempts,
            error: e.to_string(),
        });
        self.cp_stats.recent_failures = ring.into();
        if self.opts.degrade_after > 0
            && self.cp_stats.consecutive_failures >= u64::from(self.opts.degrade_after)
        {
            self.enter_degraded(format!(
                "{} consecutive checkpoint failures (last: {e})",
                self.cp_stats.consecutive_failures
            ));
        }
        self.sync_obs_gauges();
        e
    }

    /// Optimize the layout for a workload sample (Fig. 10 A→B→C) and
    /// checkpoint synchronously — the re-layout and the per-chunk
    /// frequency models it was solved for become durable together, before
    /// this returns.
    pub fn optimize(
        &mut self,
        sample: &[HapQuery],
        opts: &OptimizeOptions,
    ) -> Result<OptimizeReport, StorageError> {
        self.relayout(|table| {
            let report = optimize_table(table, sample, opts);
            let fms = report.fms.clone();
            (report, Some(fms))
        })
    }

    /// Run one adaptive-controller check; when it re-partitions, checkpoint
    /// so the new layout and its frequency models are durable.
    pub fn maybe_reoptimize(
        &mut self,
        ctl: &mut AdaptiveController,
    ) -> Result<AdaptDecision, StorageError> {
        self.relayout(|table| {
            let decision = ctl.maybe_reoptimize(table);
            let relaid = matches!(decision, AdaptDecision::Reoptimized { .. });
            let report = ctl.last_report.as_ref().filter(|_| relaid);
            (decision, report.map(|r| r.fms.clone()))
        })
    }

    /// The one durable re-layout: hydrate (typed errors, quarantine
    /// included), let `run` re-lay-out the table, and — when it hands back
    /// the frequency models of a new layout — keep them and checkpoint. To
    /// everything else here a re-layout is an ordinary write: the engine
    /// moved every rebuilt chunk's version counter forward, so the
    /// checkpoint finds them all dirty and writes them into one fresh
    /// segment, whatever the chunk count became and whether or not an
    /// earlier checkpoint is still in flight.
    fn relayout<R>(
        &mut self,
        run: impl FnOnce(&mut Table) -> (R, Option<Vec<FrequencyModel>>),
    ) -> Result<R, StorageError> {
        self.ensure_active()?;
        self.hydrate_all()?;
        let (out, fms) = run(&mut self.table);
        if let Some(fms) = fms {
            self.fms = fms;
            self.checkpoint()?;
        }
        Ok(out)
    }
}

impl Drop for DurableTable {
    /// Best-effort graceful shutdown: seal the open WAL batch (so writes
    /// acknowledged under `group_commit > 1` survive a clean exit) and
    /// wait for an in-flight background checkpoint to commit or fail —
    /// its files are crash-safe either way; waiting just avoids tearing
    /// down the process mid-fsync. Errors are ignored because panicking in
    /// Drop aborts.
    fn drop(&mut self) {
        let _ = self.wal.seal();
        if self.inflight.is_some() {
            if let Some(worker) = &self.worker {
                let completion = worker.recv();
                let _ = self.apply_completion(completion);
            }
        }
    }
}

/// The largest per-chunk FM drift over `(observed, predicted)` access
/// counts: `max(observed, predicted) / max(min(observed, predicted), 1)`,
/// 1.0 when every chunk is on model (or there is no signal) and growing as
/// traffic leaves the prediction in either direction.
fn max_drift_ratio(chunks: &[(f64, f64)]) -> f64 {
    let ratio = |&(observed, predicted): &(f64, f64)| {
        let predicted = predicted.max(0.0);
        observed.max(predicted) / observed.min(predicted).max(1.0)
    };
    chunks.iter().map(ratio).fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::max_drift_ratio;

    #[test]
    fn max_ratio_flags_divergence() {
        assert_eq!(max_drift_ratio(&[]), 1.0);
        assert_eq!(max_drift_ratio(&[(0.0, 0.0)]), 1.0);
        assert!((max_drift_ratio(&[(100.0, 100.0)]) - 1.0).abs() < 1e-9);
        assert!((max_drift_ratio(&[(100.0, 100.0), (50.0, 10.0)]) - 5.0).abs() < 1e-9);
        // Too little traffic diverges as much as too much.
        assert!((max_drift_ratio(&[(12.0, 8.0), (2.0, 8.0)]) - 4.0).abs() < 1e-9);
    }
}

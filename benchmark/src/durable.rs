//! The durable surface: `DurableTable` in a scratch directory, the WAL on
//! its own, checkpoint and reopen timings, and the crash-durability check.

use crate::harness::{new_model, scratch_dir, Inputs, Surface};
use crate::model::hash_rows;
use crate::stats::Pool;
use casper_engine::{QueryResult, Table};
use casper_persist::{DurableOptions, DurableTable, FaultVfs, VfsHandle, Wal, WalOp};
use casper_workload::HapQuery;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Writes per WAL batch, hence per fsync. One write per fsync would make the
/// run a measurement of the host's disk: a sync costs 90 or 160 us here,
/// depending on what else the shared host is flushing, for minutes at a
/// time, and nothing in this repository can move that. At 256 the device
/// wait is under 3 % of the run, and what is timed is what persist does:
/// encoding and staging every write, sealing batches, capturing and writing
/// checkpoints. The cost of one sync is reported by the WAL-alone rung.
pub const GROUP_COMMIT: usize = 256;

/// Sealed WAL bytes that trigger a checkpoint. A Q4 record is ~100 bytes,
/// so a checkpoint cycle is due about every 10 000 writes: some ten times
/// per repetition.
const WAL_CHECKPOINT_BYTES: u64 = 1 << 20;

/// Operations the crash-durability check replays.
pub const CRASH_PREFIX_OPS: usize = 20_000;

/// Durability set-up of the `durable_hybrid` workload: group commit (one
/// fsync per [`GROUP_COMMIT`] writes; the open batch is the bounded window a
/// crash may lose), watermark-triggered checkpoints on the background
/// thread, no governor, no archive.
pub fn options() -> DurableOptions {
    DurableOptions {
        group_commit: GROUP_COMMIT,
        wal_checkpoint_bytes: WAL_CHECKPOINT_BYTES,
        background_checkpointer: true,
        governor: None,
        archive: None,
        ..DurableOptions::default()
    }
}

/// A `DurableTable` that owns, and on drop removes, its scratch directory.
pub struct DurableRun {
    table: Option<DurableTable>,
    dir: PathBuf,
}

impl DurableRun {
    /// Persist `table` into a fresh scratch directory.
    pub fn create(name: &str, table: Table) -> DurableRun {
        let dir = scratch_dir(name);
        let table = DurableTable::create_from_table(&dir, table, options())
            .expect("a fresh scratch directory accepts a durable table");
        DurableRun {
            table: Some(table),
            dir,
        }
    }

    /// The wrapped table.
    pub fn durable(&mut self) -> &mut DurableTable {
        self.table.as_mut().expect("present until drop")
    }

    /// The directory the table persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Close the table (sealing the WAL, joining an in-flight checkpoint)
    /// and reopen it from disk, timing the open.
    pub fn reopen(&mut self) -> f64 {
        drop(self.table.take());
        let t = Instant::now();
        let reopened =
            DurableTable::open(&self.dir, options()).expect("a cleanly closed table reopens");
        let open_s = t.elapsed().as_secs_f64();
        self.table = Some(reopened);
        open_s
    }
}

impl Drop for DurableRun {
    fn drop(&mut self) {
        // The table first: its Drop joins the background checkpoint, which
        // must not find its directory gone.
        drop(self.table.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Surface for DurableRun {
    #[inline]
    fn run(&mut self, q: &HapQuery) -> Option<QueryResult> {
        self.durable().run(q)
    }
    fn table(&self) -> &Table {
        self.table.as_ref().expect("present until drop").table()
    }
}

/// Bytes a user handed to the table with one write (the denominator of
/// write amplification): a full row, a key, or a key pair.
pub fn user_bytes(q: &HapQuery, row_bytes: usize) -> u64 {
    match q {
        HapQuery::Q4 { .. } => row_bytes as u64,
        HapQuery::Q5 { .. } => 8,
        HapQuery::Q6 { .. } => 16,
        _ => 0,
    }
}

/// Total size of the regular files directly under `dir` and its
/// sub-directories.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `Wal::stage` per write and `Wal::seal` (one fsync) per [`GROUP_COMMIT`]
/// writes, on their own.
pub struct WalAlone {
    pub stage_ns: Pool,
    pub seal_ns: Pool,
    /// Sealed bytes per logged write.
    pub bytes_per_write: f64,
}

/// Log the writes of `stream` into a scratch WAL, batched as the durable
/// table batches them, with nothing else around: no table, no checkpointer.
pub fn wal_alone(stream: &[HapQuery]) -> WalAlone {
    let dir = scratch_dir("wal-alone");
    let mut wal = Wal::create(&VfsHandle::default(), &dir.join("wal-alone.log"), 1)
        .expect("scratch WAL is creatable");
    let mut out = WalAlone {
        stage_ns: Pool::default(),
        seal_ns: Pool::default(),
        bytes_per_write: 0.0,
    };
    let ops: Vec<WalOp> = stream.iter().filter_map(WalOp::from_query).collect();
    for batch in ops.chunks(GROUP_COMMIT) {
        for op in batch {
            let t = Instant::now();
            wal.stage(op);
            out.stage_ns.extend([t.elapsed().as_nanos() as u64]);
        }
        let t = Instant::now();
        wal.seal().expect("scratch WAL seals");
        out.seal_ns.extend([t.elapsed().as_nanos() as u64]);
    }
    out.bytes_per_write = wal.durable_bytes() as f64 / out.stage_ns.len().max(1) as f64;
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Replay the stream's first [`CRASH_PREFIX_OPS`] through a `DurableTable` on a
/// fault-injection VFS, cut the power without flushing, reopen, and count
/// the keys whose acknowledged writes are missing.
///
/// Killing the process would leave the operating system's cache intact, so
/// the VFS itself discards everything that was not fsynced
/// (`FaultVfs::simulate_crash`). Under group commit a write is acknowledged
/// as durable when its batch seals, so the promise covers the accepted
/// writes up to the last full batch; the open batch is the window the
/// options allow a crash to take. Per key those writes touched, the reopened
/// table must hold the model's number of rows, and the model's payloads
/// unless the key was ever the target of a Q6 (whose payload the engine
/// corrupts at this commit; see README, "Known defect").
pub fn acked_writes_lost(inputs: &Inputs, table: Table) -> u64 {
    let stream = &inputs.stream[..CRASH_PREFIX_OPS.min(inputs.stream.len())];
    let dir = scratch_dir("crash");
    let fault = Arc::new(FaultVfs::new());
    let vfs = VfsHandle::fault(Arc::clone(&fault));
    // Inline checkpoints: no background thread may keep writing after the
    // simulated power cut.
    let opts = DurableOptions {
        background_checkpointer: false,
        ..options()
    };
    let mut durable = DurableTable::create_from_table_with_vfs(vfs.clone(), &dir, table, opts)
        .expect("a fresh scratch directory accepts a durable table");
    let mut lost = 0u64;
    let mut accepted = Vec::new();
    for q in stream {
        match durable.execute(q) {
            Ok(_) if !q.is_read() => accepted.push(q),
            Ok(_) => {}
            // A refused operation is a failed one; it is not applied.
            Err(_) => lost += 1,
        }
    }
    let sealed = accepted.len() - accepted.len() % GROUP_COMMIT;
    let mut model = new_model(&inputs.mix, stream);
    let mut touched = BTreeSet::new();
    let mut q6_targets = BTreeSet::new();
    for q in &accepted[..sealed] {
        model.apply(q);
        match q {
            HapQuery::Q4 { key, .. } => {
                touched.insert(*key);
            }
            HapQuery::Q5 { v } => {
                touched.insert(*v);
            }
            HapQuery::Q6 { v, vnew } => {
                touched.extend([*v, *vnew]);
                q6_targets.insert(*vnew);
            }
            _ => {}
        }
    }
    // Power cut: Drop never runs, nothing more is flushed.
    std::mem::forget(durable);
    fault
        .simulate_crash()
        .expect("crash simulation rewrites scratch files");
    let k = inputs.mix.generator().projectivity;
    match DurableTable::open_with_vfs(vfs, &dir, opts) {
        Ok(mut reopened) => {
            for &key in &touched {
                let (want_rows, want_hash) = model.point(key, k);
                let got = reopened.execute(&HapQuery::Q1 { v: key, k });
                let ok = match got.map(|o| o.result) {
                    Ok(QueryResult::Rows(rows)) => {
                        rows.len() as u64 == want_rows
                            && (q6_targets.contains(&key)
                                || hash_rows(rows.iter().map(Vec::as_slice)) == want_hash)
                    }
                    _ => false,
                };
                lost += u64::from(!ok);
            }
            lost += u64::from(reopened.len() != model.len());
        }
        // Nothing is readable: every touched key is lost.
        Err(_) => lost += touched.len() as u64,
    }
    let _ = std::fs::remove_dir_all(&dir);
    lost
}

/// What the persistence layer looks like after a replay: checkpoint cycles,
/// space, recovery, and the cost of explicit checkpoints.
pub struct Probe {
    pub checkpoints: u64,
    pub space_amp: f64,
    pub open_s: f64,
    pub first_query_us: f64,
    pub replayed_ops: u64,
    pub checkpoint_incr_s: f64,
    pub checkpoint_full_s: f64,
}

/// Probe a durable run that has just replayed the stream. Mutates the
/// table (it dirties two chunks), so the model check comes first.
pub fn probe(run: &mut DurableRun, inputs: &Inputs) -> Probe {
    let schema = inputs.mix.generator().schema();
    // Generation 1 is the create; every later one is a completed checkpoint.
    let checkpoints = run.durable().stats().generation - 1;
    let live_bytes = (run.table().len() * schema.row_bytes()) as f64;
    let space_amp = dir_bytes(run.dir()) as f64 / live_bytes;

    // Recovery as a restart sees it: open (manifest + WAL replay, chunks
    // stay lazy), then the first point read (hydrates the chunk it hits).
    let open_s = run.reopen();
    let stats = run.durable().stats();
    // A sealed batch took one LSN per write and one for its commit.
    let replayed_lsns = (stats.next_lsn - 1).saturating_sub(stats.durable_lsn);
    let replayed_ops = replayed_lsns - replayed_lsns.div_ceil(GROUP_COMMIT as u64 + 1);
    let k = inputs.mix.generator().projectivity;
    let t = Instant::now();
    let _ = run.durable().execute(&HapQuery::Q1 { v: 0, k });
    let first_query_us = t.elapsed().as_secs_f64() * 1e6;

    // An incremental checkpoint with about a tenth of the chunks dirty:
    // clean everything, then insert into two chunks at opposite ends of the
    // key domain.
    let timed_checkpoint = |t: &mut DurableTable, full: bool| {
        let start = Instant::now();
        let r = if full { t.compact() } else { t.checkpoint() };
        r.expect("explicit checkpoint on a healthy table");
        start.elapsed().as_secs_f64()
    };
    let durable = run.durable();
    timed_checkpoint(durable, false);
    for key in [1, inputs.mix.generator().domain() - 1] {
        let payload = schema.payload_row(key);
        let _ = durable.execute(&HapQuery::Q4 { key, payload });
    }
    let checkpoint_incr_s = timed_checkpoint(durable, false);
    // A full one: every live record rewritten into one fresh segment.
    let checkpoint_full_s = timed_checkpoint(durable, true);
    Probe {
        checkpoints,
        space_amp,
        open_s,
        first_query_us,
        replayed_ops,
        checkpoint_incr_s,
        checkpoint_full_s,
    }
}

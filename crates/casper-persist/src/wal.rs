//! The append-only write-ahead log.
//!
//! Q4/Q5/Q6 writes are recorded as framed, CRC-guarded records and sealed
//! into *batches* by a commit marker — the group-commit unit. A batch
//! becomes durable with a single `write + fsync` when it is sealed;
//! everything buffered but unsealed is intentionally lost on a crash
//! (it was never acknowledged). Replay applies exactly the committed
//! batches, in order, and ignores the torn tail: the first frame that is
//! short, checksum-damaged, non-monotonic or simply uncommitted ends the
//! scan, and the recovered file is truncated back to the last sealed batch
//! so the writer appends from a clean boundary.
//!
//! ## Record framing
//!
//! ```text
//! frame  := len:u32 | crc32(body):u32 | body
//! body   := lsn:u64 | kind:u8 | payload
//! kind 1 := insert  | key:u64 | payload_len:u64 | u32 * payload_len
//! kind 2 := delete  | key:u64
//! kind 3 := update  | old:u64 | new:u64
//! kind 4 := commit  | n_records:u64           (seals the preceding records)
//! ```
//!
//! LSNs are strictly increasing across the whole log. The snapshot records
//! the highest LSN it folded in (`durable_lsn`); replay skips batches at or
//! below it, which is what makes replaying the same WAL twice a no-op.
//!
//! ## Staging and sealing
//!
//! [`Wal::stage`] (from a [`WalOp`]) and [`Wal::stage_query`] (from the
//! write query itself) share one encoder: it appends each frame straight
//! into the open batch's buffer — the 8-byte header reserved, the body
//! written behind it from a borrowed view of the write, then the length
//! and the body's CRC filled in. A sealed buffer keeps its capacity, so
//! staging into it allocates nothing. [`Wal::seal`] appends the commit
//! frame to the same buffer and makes the batch durable with one write at
//! the durable boundary and one `fdatasync`.

use crate::codec::ByteReader;
use crate::crc::crc32;
use crate::vfs::{Vfs, VfsFile, VfsHandle};
use casper_engine::Table;
use casper_obs::{CounterDef, HistogramDef};
use casper_storage::{OpCost, StorageError};
use casper_workload::HapQuery;
use std::io::SeekFrom;
use std::path::{Path, PathBuf};

// Group-commit telemetry: every seal is one fsync, so occupancy (records
// per sealed batch) and fsync latency together describe the amortization.
static OBS_FSYNC_NS: HistogramDef = HistogramDef::new("casper_wal_fsync_ns");
static OBS_FSYNCS: CounterDef = CounterDef::new("casper_wal_fsyncs_total");
static OBS_FSYNC_FAILURES: CounterDef = CounterDef::new("casper_wal_fsync_failures_total");
static OBS_BATCH_RECORDS: HistogramDef = HistogramDef::new("casper_wal_group_commit_records");

/// One logged write operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// HAP Q4.
    Insert {
        /// Row key.
        key: u64,
        /// Full payload row.
        payload: Vec<u32>,
    },
    /// HAP Q5.
    Delete {
        /// Key whose rows are removed.
        key: u64,
    },
    /// HAP Q6.
    Update {
        /// Key to rewrite.
        old: u64,
        /// Replacement key.
        new: u64,
    },
}

impl WalOp {
    /// The WAL image of a write query; `None` for reads (reads are not
    /// logged).
    pub fn from_query(q: &HapQuery) -> Option<Self> {
        match q {
            HapQuery::Q4 { key, payload } => Some(WalOp::Insert {
                key: *key,
                payload: payload.clone(),
            }),
            HapQuery::Q5 { v } => Some(WalOp::Delete { key: *v }),
            HapQuery::Q6 { v, vnew } => Some(WalOp::Update {
                old: *v,
                new: *vnew,
            }),
            _ => None,
        }
    }

    /// The query that replays this record.
    pub fn to_query(&self) -> HapQuery {
        match self {
            WalOp::Insert { key, payload } => HapQuery::Q4 {
                key: *key,
                payload: payload.clone(),
            },
            WalOp::Delete { key } => HapQuery::Q5 { v: *key },
            WalOp::Update { old, new } => HapQuery::Q6 {
                v: *old,
                vnew: *new,
            },
        }
    }
}

/// A committed (sealed) batch recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// LSN of the commit marker that sealed the batch.
    pub commit_lsn: u64,
    /// The batch's operations, in log order.
    pub ops: Vec<WalOp>,
}

/// Outcome of scanning a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Committed batches, in order.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid committed prefix; everything past it is
    /// torn tail (partial frame, checksum damage, or an unsealed batch)
    /// and gets truncated on recovery.
    pub valid_len: usize,
    /// Highest LSN observed in a committed batch (0 when none).
    pub last_lsn: u64,
}

impl WalScan {
    /// First LSN of the first committed batch (0 when none) — the other
    /// end of the range `last_lsn` closes.
    pub fn first_lsn(&self) -> u64 {
        self.batches
            .first()
            .map_or(0, |b| b.commit_lsn - b.ops.len() as u64)
    }
}

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_UPDATE: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// Bytes of a frame's `len | crc` header.
const FRAME_HEADER: usize = 8;

/// One frame's body after its LSN, borrowed from the write it logs (a
/// [`HapQuery`] or a [`WalOp`]), or a batch's commit marker.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    Insert { key: u64, payload: &'a [u32] },
    Delete { key: u64 },
    Update { old: u64, new: u64 },
    Commit { n_records: u64 },
}

impl<'a> Body<'a> {
    fn of_op(op: &'a WalOp) -> Self {
        match op {
            WalOp::Insert { key, payload } => Body::Insert { key: *key, payload },
            WalOp::Delete { key } => Body::Delete { key: *key },
            WalOp::Update { old, new } => Body::Update {
                old: *old,
                new: *new,
            },
        }
    }

    /// The body logging a write query; `None` for reads.
    fn of_query(q: &'a HapQuery) -> Option<Self> {
        match q {
            HapQuery::Q4 { key, payload } => Some(Body::Insert { key: *key, payload }),
            HapQuery::Q5 { v } => Some(Body::Delete { key: *v }),
            HapQuery::Q6 { v, vnew } => Some(Body::Update {
                old: *v,
                new: *vnew,
            }),
            _ => None,
        }
    }
}

/// The one frame encoder: append the frame of `body` at `lsn` to `out`
/// in place. It reserves the header, writes the body behind it, then fills
/// in the body's length and CRC — no intermediate buffer, and no
/// allocation when `out` has the room.
fn append_frame(out: &mut Vec<u8>, lsn: u64, body: Body<'_>) {
    let start = out.len();
    let body_start = start + FRAME_HEADER;
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(&lsn.to_le_bytes());
    match body {
        Body::Insert { key, payload } => {
            out.push(KIND_INSERT);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            for &w in payload {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        Body::Delete { key } => {
            out.push(KIND_DELETE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Body::Update { old, new } => {
            out.push(KIND_UPDATE);
            out.extend_from_slice(&old.to_le_bytes());
            out.extend_from_slice(&new.to_le_bytes());
        }
        Body::Commit { n_records } => {
            out.push(KIND_COMMIT);
            out.extend_from_slice(&n_records.to_le_bytes());
        }
    }
    let body_len = (out.len() - body_start) as u32;
    let crc = crc32(&out[body_start..]);
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    out[start + 4..body_start].copy_from_slice(&crc.to_le_bytes());
}

/// Parsed frame: `(lsn, Commit(n) | Op)`.
enum Frame {
    Op(WalOp),
    Commit(u64),
}

/// Try to parse one frame at `bytes[pos..]`. Returns `None` on any damage
/// (that ends the scan — the tail is torn, not an error).
fn parse_frame(bytes: &[u8], pos: usize) -> Option<(u64, Frame, usize)> {
    let header = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().ok()?);
    let body = bytes.get(pos + 8..pos + 8 + len)?;
    if crc32(body) != want_crc {
        return None;
    }
    let mut r = ByteReader::new(body);
    let lsn = r.u64().ok()?;
    let frame = match r.u8().ok()? {
        KIND_INSERT => {
            let key = r.u64().ok()?;
            let payload = r.vec_u32().ok()?;
            Frame::Op(WalOp::Insert { key, payload })
        }
        KIND_DELETE => Frame::Op(WalOp::Delete { key: r.u64().ok()? }),
        KIND_UPDATE => Frame::Op(WalOp::Update {
            old: r.u64().ok()?,
            new: r.u64().ok()?,
        }),
        KIND_COMMIT => Frame::Commit(r.u64().ok()?),
        _ => return None,
    };
    r.finish().ok()?;
    Some((lsn, frame, pos + 8 + len))
}

/// Scan a raw log image into its committed batches (pure function — the
/// crash-window property tests drive it over every possible truncation).
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut batches = Vec::new();
    let mut pending: Vec<WalOp> = Vec::new();
    let mut pos = 0usize;
    let mut valid_len = 0usize;
    let mut last_lsn = 0u64;
    let mut expected_lsn: Option<u64> = None;
    while let Some((lsn, frame, next)) = parse_frame(bytes, pos) {
        // LSNs must advance by exactly one; anything else is damage.
        if expected_lsn.is_some_and(|e| lsn != e) {
            break;
        }
        expected_lsn = Some(lsn + 1);
        match frame {
            Frame::Op(op) => pending.push(op),
            Frame::Commit(n_records) => {
                if n_records as usize != pending.len() {
                    break; // commit marker disagrees with its batch
                }
                batches.push(WalBatch {
                    commit_lsn: lsn,
                    ops: std::mem::take(&mut pending),
                });
                valid_len = next;
                last_lsn = lsn;
            }
        }
        pos = next;
    }
    WalScan {
        batches,
        valid_len,
        last_lsn,
    }
}

/// Replay committed batches with `commit_lsn > after_lsn` into a table.
/// Returns the number of operations applied and the block-access cost —
/// replaying twice with the same watermark applies nothing the second
/// time.
pub fn replay(
    scan: &WalScan,
    table: &mut Table,
    after_lsn: u64,
) -> Result<(u64, OpCost), StorageError> {
    replay_upto(scan, table, after_lsn, u64::MAX)
}

/// [`replay`] bounded above: only batches with
/// `after_lsn < commit_lsn <= upto_lsn` are applied. Point-in-time restore
/// uses the upper bound to stop at a historical LSN; batch granularity is
/// exact because group commit never acknowledged anything between commit
/// boundaries.
pub fn replay_upto(
    scan: &WalScan,
    table: &mut Table,
    after_lsn: u64,
    upto_lsn: u64,
) -> Result<(u64, OpCost), StorageError> {
    let mut applied = 0u64;
    let mut cost = OpCost::default();
    for batch in &scan.batches {
        if batch.commit_lsn <= after_lsn || batch.commit_lsn > upto_lsn {
            continue;
        }
        for op in &batch.ops {
            let out = table.execute(&op.to_query())?;
            cost.absorb(out.cost);
            applied += 1;
        }
    }
    Ok((applied, cost))
}

/// One link of a WAL chain, read and scanned by [`walk_chain`].
#[derive(Debug)]
pub(crate) struct ChainLink {
    pub seq: u64,
    pub path: PathBuf,
    pub bytes: Vec<u8>,
    /// Only the chain's last link can end in a torn tail
    /// (`scan.valid_len < bytes.len()`).
    pub scan: WalScan,
}

/// The one WAL-chain walk. A checkpoint capture rotates the log, so the
/// writes since a manifest live in a chain `wal-<gen>, wal-<gen+1>, …`;
/// `resolve` says where link `seq` is (live directory, archive, backup)
/// or `None` past the end. Each link is read, scanned and handed to
/// `visit`, which returns `Ok(false)` to stop early. Returns the last
/// link visited (`None` when link `first` does not exist).
///
/// The rule every reader of a chain shares is enforced here: rotation
/// seals a link before creating its successor, so a link *with* a
/// successor must scan to its exact end. Anything else is damage, and
/// using only its sealed prefix while later links still apply would punch
/// a hole in the committed history.
pub(crate) fn walk_chain(
    vfs: &VfsHandle,
    first: u64,
    resolve: impl Fn(u64) -> Option<PathBuf>,
    mut visit: impl FnMut(&ChainLink) -> Result<bool, StorageError>,
) -> Result<Option<ChainLink>, StorageError> {
    let mut last = None;
    let mut next = resolve(first);
    let mut seq = first;
    while let Some(path) = next {
        let bytes = vfs.read(&path)?;
        let scanned = scan(&bytes);
        next = resolve(seq + 1);
        if next.is_some() && scanned.valid_len != bytes.len() {
            return Err(StorageError::corrupt(format!(
                "WAL chain link {} is damaged: only {} of {} bytes form \
                 sealed batches, yet a successor link exists",
                path.display(),
                scanned.valid_len,
                bytes.len()
            )));
        }
        let link = ChainLink {
            seq,
            path,
            bytes,
            scan: scanned,
        };
        let go_on = visit(&link)?;
        last = Some(link);
        if !go_on {
            break;
        }
        seq += 1;
    }
    Ok(last)
}

/// The append side of the log: buffers records in memory and makes them
/// durable batch-at-a-time (`seal`), with a single write + fsync per batch
/// — the group-commit discipline.
#[derive(Debug)]
pub struct Wal {
    file: VfsFile,
    path: PathBuf,
    next_lsn: u64,
    /// Encoded frames of the open (unsealed) batch.
    staged: Vec<u8>,
    staged_records: u64,
    bytes_on_disk: u64,
    /// Set when a seal's fsync failed: the durability of that batch (and
    /// of the file's tail) is unknown — the kernel may have dropped the
    /// dirty pages while the page cache still reads them back clean
    /// (fsyncgate). A poisoned log is never written or fsynced again;
    /// the owner must rotate to a fresh file and cover the ghost LSNs
    /// with a checkpoint.
    poisoned: bool,
}

impl Wal {
    /// Create a fresh, empty log. Fails if the file already exists.
    pub fn create(vfs: &VfsHandle, path: &Path, next_lsn: u64) -> Result<Self, StorageError> {
        let file = vfs.create_new(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            next_lsn,
            staged: Vec::new(),
            staged_records: 0,
            bytes_on_disk: 0,
            poisoned: false,
        })
    }

    /// Resume appending to the last link of a recovered chain (already
    /// read and scanned by [`walk_chain`]): truncate its torn tail and
    /// position the writer after the last committed batch.
    pub(crate) fn resume(vfs: &VfsHandle, link: &ChainLink) -> Result<Self, StorageError> {
        let valid_len = link.scan.valid_len as u64;
        let mut file = vfs.open_rw(&link.path)?;
        if link.scan.valid_len < link.bytes.len() {
            // Torn-tail truncation: drop everything past the last sealed
            // batch so new frames never interleave with damaged ones.
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self {
            file,
            path: link.path.clone(),
            next_lsn: link.scan.last_lsn + 1,
            staged: Vec::new(),
            staged_records: 0,
            bytes_on_disk: valid_len,
            poisoned: false,
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records staged in the open batch.
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// Durable (sealed) bytes on disk.
    pub fn durable_bytes(&self) -> u64 {
        self.bytes_on_disk
    }

    /// The LSN the next record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Raise the LSN floor (an empty post-checkpoint log must continue the
    /// sequence after the LSNs its snapshot already folded in).
    pub fn ensure_lsn_at_least(&mut self, lsn: u64) {
        debug_assert_eq!(self.staged_records, 0, "raise the floor before staging");
        self.next_lsn = self.next_lsn.max(lsn);
    }

    /// Stage one operation into the open batch (not yet durable).
    pub fn stage(&mut self, op: &WalOp) {
        self.append(Body::of_op(op));
    }

    /// Stage a write query into the open batch, encoded straight from the
    /// query (no [`WalOp`] copy of its payload). Returns whether `q` was a
    /// write; a read stages nothing. The frame is the one [`Wal::stage`]
    /// writes for `WalOp::from_query(q)`, byte for byte.
    pub fn stage_query(&mut self, q: &HapQuery) -> bool {
        match Body::of_query(q) {
            Some(body) => {
                self.append(body);
                true
            }
            None => false,
        }
    }

    fn append(&mut self, body: Body<'_>) {
        append_frame(&mut self.staged, self.next_lsn, body);
        self.next_lsn += 1;
        self.staged_records += 1;
    }

    /// Seal the open batch: append a commit marker and make the whole batch
    /// durable with one write + fsync. No-op when nothing is staged.
    /// Returns the commit LSN (0 when empty).
    ///
    /// The commit frame is appended to the staged batch, and the batch is
    /// written at the durable boundary with one `write_all`, then synced
    /// with one `sync_data`. Failure-retry safe: a failed write or fsync
    /// pops the commit frame again and advances no writer state, so the
    /// batch stays intact for a retry. A retry writes the same records,
    /// plus any staged since, plus a commit frame of the same size, from
    /// the same offset: it is never shorter than a failed attempt, so it
    /// overwrites every byte that attempt may have landed, and nothing
    /// needs truncating first.
    /// The retry exception: a failed **fsync** (as opposed to a failed
    /// write) poisons the log permanently — see [`Wal::poisoned`].
    pub fn seal(&mut self) -> Result<u64, StorageError> {
        if self.staged_records == 0 {
            return Ok(0);
        }
        if self.poisoned {
            return Err(StorageError::Io(std::io::Error::other(
                "WAL is poisoned by an earlier fsync failure; rotate before writing",
            )));
        }
        let commit_lsn = self.next_lsn;
        OBS_BATCH_RECORDS.record(self.staged_records);
        let records_len = self.staged.len();
        append_frame(
            &mut self.staged,
            commit_lsn,
            Body::Commit {
                n_records: self.staged_records,
            },
        );
        if let Err(e) = self.write_and_sync() {
            self.staged.truncate(records_len);
            return Err(e);
        }
        self.next_lsn = commit_lsn + 1;
        self.bytes_on_disk += self.staged.len() as u64;
        self.staged.clear();
        self.staged_records = 0;
        Ok(commit_lsn)
    }

    /// Write the staged bytes at the durable boundary and fsync them.
    fn write_and_sync(&mut self) -> Result<(), StorageError> {
        // A failed attempt may have moved the cursor past the boundary.
        self.file.seek(SeekFrom::Start(self.bytes_on_disk))?;
        self.file.write_all(&self.staged)?;
        let fsync_start = casper_obs::enabled().then(std::time::Instant::now);
        let synced = self.file.sync_data();
        if let Some(t) = fsync_start {
            OBS_FSYNC_NS.record(t.elapsed().as_nanos() as u64);
        }
        OBS_FSYNCS.inc();
        if let Err(e) = synced {
            OBS_FSYNC_FAILURES.inc();
            // fsyncgate: after a failed fsync the kernel may have dropped
            // the dirty pages while marking them clean, so a *retried*
            // fsync on this fd can succeed without making the data
            // durable. The batch's durability is now unknown — poison the
            // log so it is never written or fsynced again. The owner must
            // rotate and cover the ghost LSNs with a checkpoint before
            // acknowledging anything.
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// True when an earlier seal's fsync failed, leaving the log tail with
    /// unknown durability. A poisoned log refuses further seals; the owner
    /// rotates to a fresh file and checkpoints over the ghost LSNs.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Best-effort removal of the possibly-ghost tail of a poisoned log:
    /// truncate a *fresh* descriptor back to the last acknowledged-durable
    /// boundary and sync it, so a later reader of this (now abandoned)
    /// file cannot observe the batch whose fsync failed. Errors are
    /// ignored — the file is about to be superseded by rotation, and the
    /// recovery checkpoint's watermark already skips the ghost LSNs.
    pub(crate) fn truncate_tail(&self, vfs: &VfsHandle) {
        if let Ok(mut f) = vfs.open_rw(&self.path) {
            let _ = f.set_len(self.bytes_on_disk);
            let _ = f.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;
    use crate::fault::{FaultErr, FaultRule, FaultVfs};
    use crate::vfs::Vfs;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                key: 11,
                payload: vec![1, 2, 3],
            },
            WalOp::Delete { key: 40 },
            WalOp::Update { old: 7, new: 9 },
        ]
    }

    fn encode_batches(batches: &[Vec<WalOp>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut lsn = 1u64;
        for batch in batches {
            for op in batch {
                append_frame(&mut bytes, lsn, Body::of_op(op));
                lsn += 1;
            }
            let n_records = batch.len() as u64;
            append_frame(&mut bytes, lsn, Body::Commit { n_records });
            lsn += 1;
        }
        bytes
    }

    /// The frame encoder as it was before frames were staged in place: a
    /// body built in its own buffer, then copied behind its header. The
    /// shared encoder must match it byte for byte.
    fn reference_frame(out: &mut Vec<u8>, body: &[u8]) {
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
    }

    fn reference_op_body(lsn: u64, op: &WalOp) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(lsn);
        match op {
            WalOp::Insert { key, payload } => {
                w.u8(KIND_INSERT);
                w.u64(*key);
                w.vec_u32(payload);
            }
            WalOp::Delete { key } => {
                w.u8(KIND_DELETE);
                w.u64(*key);
            }
            WalOp::Update { old, new } => {
                w.u8(KIND_UPDATE);
                w.u64(*old);
                w.u64(*new);
            }
        }
        w.into_bytes()
    }

    fn reference_commit_body(lsn: u64, n_records: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(lsn);
        w.u8(KIND_COMMIT);
        w.u64(n_records);
        w.into_bytes()
    }

    /// A fresh log named `name` in this module's scratch directory.
    fn fresh_wal(vfs: &VfsHandle, name: &str) -> Wal {
        let dir = std::env::temp_dir().join("casper_wal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(vfs, &path, 1).unwrap();
        vfs.fsync_dir(&dir).unwrap();
        wal
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One write of each kind at LSNs 1..=5, and the frames they log
    /// (CRCs computed independently, with zlib's CRC-32).
    fn golden() -> (Vec<WalOp>, Vec<Vec<u8>>) {
        let ops = vec![
            WalOp::Insert {
                key: 11,
                payload: vec![],
            },
            WalOp::Insert {
                key: 0x0102_0304_0506_0708,
                payload: vec![0xA1B2_C3D4],
            },
            WalOp::Insert {
                key: 12,
                payload: (1..=15).collect(),
            },
            WalOp::Delete { key: 40 },
            WalOp::Update { old: 7, new: 9 },
        ];
        let frames = [
            "190000007f7e39910100000000000000010b000000000000000000000000000000",
            "1d0000002ad75a5002000000000000000108070605040302010100000000000000d4c3b2a1",
            "5500000078831ca00300000000000000010c000000000000000f00000000000000\
             0100000002000000030000000400000005000000060000000700000008000000\
             090000000a0000000b0000000c0000000d0000000e0000000f000000",
            "11000000178782be0400000000000000022800000000000000",
            "19000000a06cd50605000000000000000307000000000000000900000000000000",
            // The commit marker sealing the five (LSN 6).
            "11000000dd19d77b0600000000000000040500000000000000",
        ];
        (ops, frames.iter().map(|f| hex(f)).collect())
    }

    #[test]
    fn frames_of_each_kind_match_their_golden_bytes() {
        let (ops, frames) = golden();
        for (lsn, (op, want)) in (1u64..).zip(ops.iter().zip(&frames)) {
            let mut got = Vec::new();
            append_frame(&mut got, lsn, Body::of_op(op));
            assert_eq!(&got, want, "{op:?}");
        }
        let mut commit = Vec::new();
        append_frame(&mut commit, 6, Body::Commit { n_records: 5 });
        assert_eq!(&commit, frames.last().unwrap());

        // Both staging entry points, sealed: the log is the six frames.
        let all: Vec<u8> = frames.concat();
        let mut by_op = fresh_wal(&VfsHandle::Real, "golden-op.log");
        let mut by_query = fresh_wal(&VfsHandle::Real, "golden-query.log");
        for op in &ops {
            by_op.stage(op);
            assert!(by_query.stage_query(&op.to_query()));
        }
        assert!(!by_query.stage_query(&HapQuery::Q1 { v: 11, k: 1 }));
        assert_eq!(by_query.staged_records(), 5, "a read stages nothing");
        for wal in [&mut by_op, &mut by_query] {
            assert_eq!(wal.seal().unwrap(), 6);
            assert_eq!(std::fs::read(wal.path()).unwrap(), all);
            assert_eq!(wal.durable_bytes(), all.len() as u64);
            assert_eq!(wal.next_lsn(), 7);
        }
    }

    fn op_strategy() -> impl Strategy<Value = WalOp> {
        prop_oneof![
            (any::<u64>(), proptest::collection::vec(any::<u32>(), 0..20))
                .prop_map(|(key, payload)| WalOp::Insert { key, payload }),
            any::<u64>().prop_map(|key| WalOp::Delete { key }),
            (any::<u64>(), any::<u64>()).prop_map(|(old, new)| WalOp::Update { old, new }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Generated batches, staged through both entry points: the open
        /// batch and the sealed log equal the reference encoder's bytes,
        /// and `scan` reads the batches back.
        #[test]
        fn staged_batches_match_the_reference_encoder(
            batches in proptest::collection::vec(
                proptest::collection::vec(op_strategy(), 1..12),
                1..5,
            ),
        ) {
            let mut by_op = fresh_wal(&VfsHandle::Real, "prop-op.log");
            let mut by_query = fresh_wal(&VfsHandle::Real, "prop-query.log");
            let mut reference = Vec::new();
            let mut lsn = 1u64;
            for batch in &batches {
                let sealed = reference.len();
                for op in batch {
                    by_op.stage(op);
                    prop_assert!(by_query.stage_query(&op.to_query()));
                    reference_frame(&mut reference, &reference_op_body(lsn, op));
                    lsn += 1;
                }
                prop_assert_eq!(&by_op.staged, &reference[sealed..]);
                prop_assert_eq!(&by_query.staged, &reference[sealed..]);
                reference_frame(
                    &mut reference,
                    &reference_commit_body(lsn, batch.len() as u64),
                );
                prop_assert_eq!(by_op.seal().unwrap(), lsn);
                prop_assert_eq!(by_query.seal().unwrap(), lsn);
                lsn += 1;
            }
            for wal in [&by_op, &by_query] {
                let on_disk = std::fs::read(wal.path()).unwrap();
                prop_assert_eq!(&on_disk, &reference);
                let s = scan(&on_disk);
                prop_assert_eq!(s.valid_len, on_disk.len());
                prop_assert_eq!(s.last_lsn, lsn - 1);
                let got: Vec<Vec<WalOp>> = s.batches.into_iter().map(|b| b.ops).collect();
                prop_assert_eq!(&got, &batches);
            }
        }
    }

    /// A seal whose write lands only `short` bytes and fails, retried
    /// (with or without more records staged in between), leaves exactly
    /// the bytes of a log that never failed: no truncation is needed,
    /// because the retry is never shorter than the failed attempt.
    #[test]
    fn a_retried_seal_after_a_short_write_leaves_a_clean_seals_bytes() {
        let first = [WalOp::Delete { key: 3 }];
        let more = WalOp::Insert {
            key: 77,
            payload: vec![5, 6],
        };
        for short in [0, 5, 40, 1000] {
            for stage_more in [false, true] {
                let name = format!("short-{short}-{stage_more}.log");
                let fault = Arc::new(FaultVfs::new());
                // Write #1 seals the first batch; #2 is the torn seal.
                fault.inject(FaultRule::short_write(&name, 2, short, FaultErr::Enospc));
                let mut wal = fresh_wal(&VfsHandle::fault(Arc::clone(&fault)), &name);
                let mut clean = fresh_wal(&VfsHandle::Real, &format!("clean-{name}"));
                for w in [&mut wal, &mut clean] {
                    w.stage(&first[0]);
                    w.seal().unwrap();
                    for op in ops() {
                        w.stage(&op);
                    }
                }
                let boundary = wal.durable_bytes();
                let state = |w: &Wal| (w.next_lsn(), w.staged_records(), w.staged.clone());
                let before = state(&wal);
                let err = wal.seal().unwrap_err();
                assert!(matches!(err, StorageError::Io(_)), "{err}");
                assert_eq!(state(&wal), before, "a failed seal advances nothing");
                assert_eq!(wal.durable_bytes(), boundary);
                let torn = std::fs::read(wal.path()).unwrap().len() as u64;
                let commit_frame = FRAME_HEADER + 8 + 1 + 8; // header | lsn | kind | n
                let batch = (before.2.len() + commit_frame) as u64;
                assert_eq!(torn, boundary + (short as u64).min(batch));
                if stage_more {
                    wal.stage(&more);
                    clean.stage(&more);
                }
                let commit = wal.seal().expect("the retry seals");
                assert_eq!(clean.seal().unwrap(), commit);
                assert!(!wal.poisoned());
                assert_eq!(
                    std::fs::read(wal.path()).unwrap(),
                    std::fs::read(clean.path()).unwrap(),
                    "short {short}, more staged {stage_more}"
                );
                // And that is what a power cut leaves.
                fault.simulate_crash().unwrap();
                assert_eq!(
                    VfsHandle::fault(Arc::clone(&fault))
                        .read(wal.path())
                        .unwrap(),
                    std::fs::read(clean.path()).unwrap()
                );
            }
        }
    }

    #[test]
    fn scan_round_trips_committed_batches() {
        let batches = vec![ops(), vec![WalOp::Delete { key: 99 }]];
        let bytes = encode_batches(&batches);
        let s = scan(&bytes);
        assert_eq!(s.batches.len(), 2);
        assert_eq!(s.batches[0].ops, ops());
        assert_eq!(s.valid_len, bytes.len());
        // Batch 1 uses LSNs 1..=3 + commit 4; batch 2 uses 5 + commit 6.
        assert_eq!(s.last_lsn, 6);
    }

    #[test]
    fn uncommitted_tail_is_invisible() {
        let mut bytes = encode_batches(&[ops()]);
        let sealed = bytes.len();
        // Stage two more records without a commit marker.
        append_frame(&mut bytes, 5, Body::Delete { key: 1 });
        append_frame(&mut bytes, 6, Body::Delete { key: 2 });
        let s = scan(&bytes);
        assert_eq!(s.batches.len(), 1);
        assert_eq!(s.valid_len, sealed);
    }

    #[test]
    fn corrupt_frame_ends_scan_at_last_commit() {
        let mut bytes = encode_batches(&[ops(), ops()]);
        let s_clean = scan(&bytes);
        assert_eq!(s_clean.batches.len(), 2);
        // Damage a byte inside the second batch's first record.
        let first_commit_end = {
            let one = encode_batches(&[ops()]);
            one.len()
        };
        bytes[first_commit_end + 12] ^= 0xFF;
        let s = scan(&bytes);
        assert_eq!(s.batches.len(), 1);
        assert_eq!(s.valid_len, first_commit_end);
    }

    #[test]
    fn commit_count_mismatch_rejected() {
        let mut bytes = Vec::new();
        append_frame(&mut bytes, 1, Body::Delete { key: 5 });
        append_frame(&mut bytes, 2, Body::Commit { n_records: 7 }); // claims 7 records
        let s = scan(&bytes);
        assert!(s.batches.is_empty());
        assert_eq!(s.valid_len, 0);
    }

    #[test]
    fn op_query_round_trip() {
        for op in ops() {
            assert_eq!(WalOp::from_query(&op.to_query()).as_ref(), Some(&op));
        }
        assert_eq!(WalOp::from_query(&HapQuery::Q2 { vs: 0, ve: 9 }), None);
    }
}

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

use crate::codec::{ByteReader, ByteWriter};
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

fn encode_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

fn encode_op_body(lsn: u64, op: &WalOp) -> Vec<u8> {
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

fn encode_commit_body(lsn: u64, n_records: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(lsn);
    w.u8(KIND_COMMIT);
    w.u64(n_records);
    w.into_bytes()
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
        let body = encode_op_body(self.next_lsn, op);
        self.next_lsn += 1;
        encode_frame(&mut self.staged, &body);
        self.staged_records += 1;
    }

    /// Seal the open batch: append a commit marker and make the whole batch
    /// durable with one write + fsync. No-op when nothing is staged.
    /// Returns the commit LSN (0 when empty).
    ///
    /// Failure-retry safe: the commit frame is assembled outside `staged`
    /// and all writer state advances only after the fsync, so a failed
    /// seal (e.g. ENOSPC mid-write) leaves the batch intact for a retry;
    /// the retry first truncates back to the last durable offset, so bytes
    /// a failed attempt may have landed can never precede — and thereby
    /// corrupt — an acknowledged batch.
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
        let body = encode_commit_body(commit_lsn, self.staged_records);
        let mut commit_frame = Vec::new();
        encode_frame(&mut commit_frame, &body);
        // Discard any partial garbage from a previously failed seal and
        // re-position at the durable boundary (cheap next to the fsync).
        self.file.set_len(self.bytes_on_disk)?;
        self.file.seek(SeekFrom::Start(self.bytes_on_disk))?;
        self.file.write_all(&self.staged)?;
        self.file.write_all(&commit_frame)?;
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
        self.next_lsn = commit_lsn + 1;
        self.bytes_on_disk += (self.staged.len() + commit_frame.len()) as u64;
        self.staged.clear();
        self.staged_records = 0;
        Ok(commit_lsn)
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
            let mut n = 0u64;
            for op in batch {
                encode_frame(&mut bytes, &encode_op_body(lsn, op));
                lsn += 1;
                n += 1;
            }
            encode_frame(&mut bytes, &encode_commit_body(lsn, n));
            lsn += 1;
        }
        bytes
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
        encode_frame(&mut bytes, &encode_op_body(5, &WalOp::Delete { key: 1 }));
        encode_frame(&mut bytes, &encode_op_body(6, &WalOp::Delete { key: 2 }));
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
        encode_frame(&mut bytes, &encode_op_body(1, &WalOp::Delete { key: 5 }));
        encode_frame(&mut bytes, &encode_commit_body(2, 7)); // claims 7 records
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

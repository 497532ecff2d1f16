//! Transaction support: snapshot isolation through MVCC (§6.1).
//!
//! "Casper supports general transactions through snapshot isolation, which
//! isolates a snapshot of the database observed at the beginning of each
//! transaction. ... each transaction is allowed to work on the data by
//! assigning timestamps to every row when inserted or updated, initially
//! maintained in a local per-transaction buffer. ... the first one to
//! commit wins and the other transactions abort and roll back."
//!
//! Design: writers buffer their operations locally and only touch the table
//! at commit, after first-committer-wins validation against per-key last
//! writer timestamps. Readers evaluate against the current table state and
//! *rewind* the effect of versions committed after their snapshot using the
//! version log — giving exact snapshot semantics for point/range counts.
//!
//! Ghost-value rippling is decoupled from transactions (§6.1): buffering an
//! insert immediately prefetches ghost slots into the target partition, and
//! that prefetch persists even when the transaction aborts.

use crate::column::WriteOp;
use crate::governor::QueryCtx;
use crate::table::Table;
use casper_obs::{CounterDef, SpanDef};
use casper_storage::StorageError;
use casper_workload::HapQuery;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static OBS_COMMIT_SPAN: SpanDef = SpanDef::new("txn_commit");
static OBS_COMMITS: CounterDef = CounterDef::new("casper_txn_commits_total");
static OBS_CONFLICTS: CounterDef = CounterDef::new("casper_txn_conflicts_total");
static OBS_ABORTS: CounterDef = CounterDef::new("casper_txn_aborts_total");

/// A buffered write.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TxnWrite {
    Insert(u64, Vec<u32>),
    Delete(u64),
    Update(u64, u64),
}

impl TxnWrite {
    /// Keys whose last-writer timestamps this write must validate against.
    fn keys(&self) -> [Option<u64>; 2] {
        match self {
            TxnWrite::Insert(k, _) => [Some(*k), None],
            TxnWrite::Delete(k) => [Some(*k), None],
            TxnWrite::Update(a, b) => [Some(*a), Some(*b)],
        }
    }
}

/// A committed version-log record.
#[derive(Debug, Clone)]
struct VersionRecord {
    ts: u64,
    write: TxnWrite,
}

/// Transaction failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// First-committer-wins validation failed on this key.
    Conflict {
        /// The contended key.
        key: u64,
    },
    /// The underlying storage rejected a write (e.g. a full chunk).
    Storage(StorageError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict { key } => write!(f, "write-write conflict on key {key}"),
            TxnError::Storage(e) => write!(f, "storage error during commit: {e}"),
        }
    }
}

impl std::error::Error for TxnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Conflict { .. } => None,
            TxnError::Storage(e) => Some(e),
        }
    }
}

/// An open transaction: a snapshot timestamp plus a local write buffer.
#[derive(Debug)]
pub struct Transaction {
    /// Snapshot timestamp: the transaction sees exactly the versions with
    /// `ts <= begin_ts`.
    pub begin_ts: u64,
    writes: Vec<TxnWrite>,
}

impl Transaction {
    /// Buffer an insert. Ghost prefetching happens through
    /// [`TxnManager::buffer_insert`], which owns the table access.
    fn insert(&mut self, key: u64, payload: Vec<u32>) {
        self.writes.push(TxnWrite::Insert(key, payload));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, key: u64) {
        self.writes.push(TxnWrite::Delete(key));
    }

    /// Buffer an update.
    pub fn update(&mut self, old: u64, new: u64) {
        self.writes.push(TxnWrite::Update(old, new));
    }

    /// The buffered writes as HAP write queries, in buffer order — what a
    /// write-ahead log must record before the commit applies them.
    ///
    /// Invariant (durability depends on it): Q4/Q5/Q6 produced here map
    /// 1:1 onto the `WriteOp`s [`TxnManager::commit`] applies for the same
    /// writes, and `Table::execute` turns those queries into those same
    /// `WriteOp`s — so a log replayed through `execute` reproduces
    /// exactly the applied state. Any new `TxnWrite` kind must extend
    /// this mapping and `commit` together.
    pub fn as_queries(&self) -> Vec<HapQuery> {
        self.writes
            .iter()
            .map(|w| match w {
                TxnWrite::Insert(k, payload) => HapQuery::Q4 {
                    key: *k,
                    payload: payload.clone(),
                },
                TxnWrite::Delete(k) => HapQuery::Q5 { v: *k },
                TxnWrite::Update(a, b) => HapQuery::Q6 { v: *a, vnew: *b },
            })
            .collect()
    }

    /// Read-your-writes adjustment for a point count of `key`.
    fn own_effect_point(&self, key: u64) -> i64 {
        let mut d = 0i64;
        for w in &self.writes {
            match w {
                TxnWrite::Insert(k, _) if *k == key => d += 1,
                TxnWrite::Delete(k) if *k == key => d -= 1,
                TxnWrite::Update(a, b) => {
                    if *a == key {
                        d -= 1;
                    }
                    if *b == key {
                        d += 1;
                    }
                }
                _ => {}
            }
        }
        d
    }

    /// Read-your-writes adjustment for a range count over `[lo, hi)`.
    fn own_effect_range(&self, lo: u64, hi: u64) -> i64 {
        let in_range = |k: u64| lo <= k && k < hi;
        let mut d = 0i64;
        for w in &self.writes {
            match w {
                TxnWrite::Insert(k, _) if in_range(*k) => d += 1,
                TxnWrite::Delete(k) if in_range(*k) => d -= 1,
                TxnWrite::Update(a, b) => {
                    if in_range(*a) {
                        d -= 1;
                    }
                    if in_range(*b) {
                        d += 1;
                    }
                }
                _ => {}
            }
        }
        d
    }
}

/// The MVCC coordinator: global clock, version log, last-writer table.
#[derive(Debug, Default)]
pub struct TxnManager {
    clock: AtomicU64,
    inner: Mutex<TxnState>,
}

#[derive(Debug, Default)]
struct TxnState {
    /// Per-key commit timestamp of the last writer.
    last_writer: HashMap<u64, u64>,
    /// Committed version log, ascending by `ts`.
    log: Vec<VersionRecord>,
}

impl TxnManager {
    /// Fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a transaction at the current timestamp.
    pub fn begin(&self) -> Transaction {
        Transaction {
            begin_ts: self.clock.load(Ordering::SeqCst),
            writes: Vec::new(),
        }
    }

    /// Buffer an insert, immediately prefetching ghost slots for the target
    /// partition (§6.1's decoupled rippling — persists even if `txn`
    /// aborts).
    pub fn buffer_insert(
        &self,
        txn: &mut Transaction,
        table: &mut Table,
        key: u64,
        payload: Vec<u32>,
    ) {
        // Best effort: only the owning chunk benefits (and is dirtied),
        // and prefetching an already-buffered partition is a no-op.
        table.column_mut().prefetch_ghosts_for_key(key, 1);
        txn.insert(key, payload);
    }

    /// Snapshot-consistent point count: current state, minus versions
    /// committed after the snapshot, plus the transaction's own writes.
    /// Corrupt persisted chunks surface as [`StorageError::Corrupt`].
    pub fn point_count(
        &self,
        txn: &Transaction,
        table: &Table,
        key: u64,
    ) -> Result<u64, StorageError> {
        let q = HapQuery::Q1 { v: key, k: 0 };
        let out = table.column().read(&q, &QueryCtx::default())?;
        let mut n = out.result.scalar() as i64;
        let inner = self.inner.lock();
        for rec in inner.log.iter().rev() {
            if rec.ts <= txn.begin_ts {
                break;
            }
            // Rewind the record's effect on this key.
            match &rec.write {
                TxnWrite::Insert(k, _) if *k == key => n -= 1,
                TxnWrite::Delete(k) if *k == key => n += 1,
                TxnWrite::Update(a, b) => {
                    if *b == key {
                        n -= 1;
                    }
                    if *a == key {
                        n += 1;
                    }
                }
                _ => {}
            }
        }
        drop(inner);
        Ok((n + txn.own_effect_point(key)).max(0) as u64)
    }

    /// Snapshot-consistent range count over `[lo, hi)`.
    pub fn range_count(
        &self,
        txn: &Transaction,
        table: &Table,
        lo: u64,
        hi: u64,
    ) -> Result<u64, StorageError> {
        let q = HapQuery::Q2 { vs: lo, ve: hi };
        let out = table.column().read(&q, &QueryCtx::default())?;
        let mut n = out.result.scalar() as i64;
        let in_range = |k: u64| lo <= k && k < hi;
        let inner = self.inner.lock();
        for rec in inner.log.iter().rev() {
            if rec.ts <= txn.begin_ts {
                break;
            }
            match &rec.write {
                TxnWrite::Insert(k, _) if in_range(*k) => n -= 1,
                TxnWrite::Delete(k) if in_range(*k) => n += 1,
                TxnWrite::Update(a, b) => {
                    if in_range(*b) {
                        n -= 1;
                    }
                    if in_range(*a) {
                        n += 1;
                    }
                }
                _ => {}
            }
        }
        drop(inner);
        Ok((n + txn.own_effect_range(lo, hi)).max(0) as u64)
    }

    /// Commit: first-committer-wins validation, then apply the buffered
    /// writes to the table and publish the versions.
    pub fn commit(&self, txn: Transaction, table: &mut Table) -> Result<u64, TxnError> {
        let _span = OBS_COMMIT_SPAN.start();
        let mut inner = self.inner.lock();
        // Validation: any key written by a transaction that committed after
        // our snapshot aborts us.
        for w in &txn.writes {
            for key in w.keys().into_iter().flatten() {
                if let Some(&ts) = inner.last_writer.get(&key) {
                    if ts > txn.begin_ts {
                        OBS_CONFLICTS.inc();
                        return Err(TxnError::Conflict { key });
                    }
                }
            }
        }
        let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        // Apply while holding the coordinator lock (single-writer apply
        // phase; reads remain concurrent thanks to the version log).
        for w in &txn.writes {
            let op = match w {
                TxnWrite::Insert(key, payload) => WriteOp::Insert { key: *key, payload },
                TxnWrite::Delete(key) => WriteOp::Delete { key: *key },
                TxnWrite::Update(old, new) => WriteOp::Update {
                    old: *old,
                    new: *new,
                },
            };
            table
                .column_mut()
                .apply_write(op)
                .map_err(TxnError::Storage)?;
            for key in w.keys().into_iter().flatten() {
                inner.last_writer.insert(key, commit_ts);
            }
            inner.log.push(VersionRecord {
                ts: commit_ts,
                write: w.clone(),
            });
        }
        OBS_COMMITS.inc();
        Ok(commit_ts)
    }

    /// Abort: drop the buffer. Ghost prefetches performed while buffering
    /// persist by design (§6.1).
    pub fn abort(&self, txn: Transaction) {
        OBS_ABORTS.inc();
        drop(txn);
    }

    /// Committed version-log length (diagnostics).
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Truncate the version log below `ts` (garbage collection once no
    /// snapshot can observe older versions).
    pub fn gc_versions(&self, ts: u64) {
        let mut inner = self.inner.lock();
        inner.log.retain(|r| r.ts >= ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ChunkStore;
    use crate::modes::{EngineConfig, LayoutMode};
    use casper_workload::{HapSchema, KeyDist, WorkloadGenerator};

    fn table() -> Table {
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 2000, KeyDist::Uniform);
        Table::load_from_generator(&gen, EngineConfig::small(LayoutMode::Casper))
    }

    #[test]
    fn committed_writes_become_visible() {
        let mut t = table();
        let mgr = TxnManager::new();
        let mut txn = mgr.begin();
        mgr.buffer_insert(&mut txn, &mut t, 4001, vec![0; 15]);
        mgr.commit(txn, &mut t).unwrap();
        let fresh = mgr.begin();
        assert_eq!(mgr.point_count(&fresh, &t, 4001).unwrap(), 1);
    }

    #[test]
    fn snapshot_does_not_see_later_commits() {
        let mut t = table();
        let mgr = TxnManager::new();
        let reader = mgr.begin(); // snapshot before the write
        let mut writer = mgr.begin();
        mgr.buffer_insert(&mut writer, &mut t, 4001, vec![0; 15]);
        mgr.commit(writer, &mut t).unwrap();
        // The reader's snapshot predates the commit. Loaded keys are the
        // even values 0..3998, so [3900, 4100) holds 50 of them and must
        // not include the concurrently inserted 4001.
        assert_eq!(mgr.point_count(&reader, &t, 4001).unwrap(), 0);
        assert_eq!(mgr.range_count(&reader, &t, 3900, 4100).unwrap(), 50);
        // A fresh snapshot sees it.
        let fresh = mgr.begin();
        assert_eq!(mgr.point_count(&fresh, &t, 4001).unwrap(), 1);
    }

    #[test]
    fn snapshot_rewinds_deletes_and_updates() {
        let mut t = table();
        let mgr = TxnManager::new();
        let reader = mgr.begin();
        let mut w = mgr.begin();
        w.delete(100);
        w.update(200, 201);
        mgr.commit(w, &mut t).unwrap();
        assert_eq!(
            mgr.point_count(&reader, &t, 100).unwrap(),
            1,
            "delete rewound"
        );
        assert_eq!(
            mgr.point_count(&reader, &t, 200).unwrap(),
            1,
            "update-from rewound"
        );
        assert_eq!(
            mgr.point_count(&reader, &t, 201).unwrap(),
            0,
            "update-to rewound"
        );
    }

    #[test]
    fn read_your_own_writes() {
        let mut t = table();
        let mgr = TxnManager::new();
        let mut txn = mgr.begin();
        mgr.buffer_insert(&mut txn, &mut t, 5001, vec![0; 15]);
        txn.delete(100);
        assert_eq!(mgr.point_count(&txn, &t, 5001).unwrap(), 1);
        assert_eq!(mgr.point_count(&txn, &t, 100).unwrap(), 0);
        mgr.abort(txn);
        let fresh = mgr.begin();
        assert_eq!(
            mgr.point_count(&fresh, &t, 5001).unwrap(),
            0,
            "abort discards writes"
        );
        assert_eq!(mgr.point_count(&fresh, &t, 100).unwrap(), 1);
    }

    #[test]
    fn first_committer_wins() {
        let mut t = table();
        let mgr = TxnManager::new();
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        t1.update(300, 301);
        t2.update(300, 303);
        mgr.commit(t1, &mut t).unwrap();
        let err = mgr.commit(t2, &mut t).unwrap_err();
        assert_eq!(err, TxnError::Conflict { key: 300 });
        // The loser's write must not be applied.
        let fresh = mgr.begin();
        assert_eq!(mgr.point_count(&fresh, &t, 301).unwrap(), 1);
        assert_eq!(mgr.point_count(&fresh, &t, 303).unwrap(), 0);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let mut t = table();
        let mgr = TxnManager::new();
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        t1.update(300, 301);
        t2.update(500, 501);
        mgr.commit(t1, &mut t).unwrap();
        mgr.commit(t2, &mut t).unwrap();
        let fresh = mgr.begin();
        assert_eq!(mgr.point_count(&fresh, &t, 301).unwrap(), 1);
        assert_eq!(mgr.point_count(&fresh, &t, 501).unwrap(), 1);
    }

    #[test]
    fn ghost_prefetch_survives_abort() {
        let mut t = table();
        let mgr = TxnManager::new();
        let ghosts_for = |t: &Table, key: u64| -> usize {
            for slot in t.column().chunks() {
                if let Some(ChunkStore::Partitioned(c)) = slot.store_opt() {
                    let r = c.point_query(key);
                    return c.partitions()[r.partition].ghosts;
                }
            }
            0
        };
        // Drain any local ghosts first so the prefetch is observable.
        let before = ghosts_for(&t, 100);
        let mut txn = mgr.begin();
        mgr.buffer_insert(&mut txn, &mut t, 101, vec![0; 15]);
        let during = ghosts_for(&t, 100);
        assert!(during >= 1.max(before), "prefetch must provision a ghost");
        mgr.abort(txn);
        let after = ghosts_for(&t, 100);
        assert_eq!(after, during, "aborting must not undo the ghost fetch");
    }

    #[test]
    fn gc_trims_version_log() {
        let mut t = table();
        let mgr = TxnManager::new();
        for i in 0..5 {
            let mut txn = mgr.begin();
            txn.delete(i * 2);
            mgr.commit(txn, &mut t).unwrap();
        }
        assert_eq!(mgr.log_len(), 5);
        mgr.gc_versions(4);
        assert_eq!(mgr.log_len(), 2);
    }
}

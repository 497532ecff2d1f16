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
//! A commit is one publish. The write set runs through the column's single
//! write entry point (`ChunkedColumn::apply_writes`), which publishes once
//! after the last write lands, so a concurrent `TableReader` observes none
//! or all of a commit and its version counter ticks once per commit.
//!
//! Ghost-value rippling is decoupled from transactions (§6.1): buffering an
//! insert immediately prefetches ghost slots into the target partition, and
//! that prefetch persists even when the transaction aborts.

use crate::column::WriteOp;
use crate::governor::QueryCtx;
use crate::table::Table;
use casper_obs::{CounterDef, HistogramDef};
use casper_storage::StorageError;
use casper_workload::HapQuery;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static OBS_COMMIT_NS: HistogramDef = HistogramDef::new("casper_txn_commit_duration_ns");
static OBS_COMMITS: CounterDef = CounterDef::new("casper_txn_commits_total");
static OBS_CONFLICTS: CounterDef = CounterDef::new("casper_txn_conflicts_total");
static OBS_ABORTS: CounterDef = CounterDef::new("casper_txn_aborts_total");

/// Keys whose last-writer timestamps `write` must validate against.
fn keys(write: &HapQuery) -> [Option<u64>; 2] {
    match *write {
        HapQuery::Q4 { key, .. } => [Some(key), None],
        HapQuery::Q5 { v } => [Some(v), None],
        HapQuery::Q6 { v, vnew } => [Some(v), Some(vnew)],
        _ => [None, None],
    }
}

/// What `write` adds to the number of rows whose key satisfies `hit` — the
/// one statement of a write's effect on a point or range count. Read-your-
/// own-writes adds it; rewinding a later commit subtracts it.
fn effect(write: &HapQuery, hit: impl Fn(u64) -> bool) -> i64 {
    match *write {
        HapQuery::Q4 { key, .. } => i64::from(hit(key)),
        HapQuery::Q5 { v } => -i64::from(hit(v)),
        HapQuery::Q6 { v, vnew } => i64::from(hit(vnew)) - i64::from(hit(v)),
        _ => 0,
    }
}

/// A committed version-log record.
#[derive(Debug, Clone)]
struct VersionRecord {
    ts: u64,
    write: HapQuery,
}

/// An open transaction: a snapshot timestamp plus a local buffer of the
/// write queries (Q4/Q5/Q6) commit will replay.
#[derive(Debug)]
pub struct Transaction {
    /// Snapshot timestamp: the transaction sees exactly the versions with
    /// `ts <= begin_ts`.
    pub begin_ts: u64,
    writes: Vec<HapQuery>,
}

impl Transaction {
    /// Buffer a delete.
    pub fn delete(&mut self, key: u64) {
        self.writes.push(HapQuery::Q5 { v: key });
    }

    /// Buffer an update.
    pub fn update(&mut self, old: u64, new: u64) {
        self.writes.push(HapQuery::Q6 { v: old, vnew: new });
    }

    /// The buffered writes, in buffer order — what a write-ahead log must
    /// record before the commit applies them. [`TxnManager::commit`]
    /// applies these very queries through `WriteOp::from_query`, as
    /// `Table::execute` does on replay.
    pub fn as_queries(&self) -> &[HapQuery] {
        &self.writes
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
    /// aborts). The prefetch moves no row, so it publishes nothing: the
    /// commit's one publish covers the whole transaction.
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
        txn.writes.push(HapQuery::Q4 { key, payload });
    }

    /// Snapshot-consistent count of the rows `q` counts, `hit` being `q`'s
    /// key predicate: current state, minus versions committed after the
    /// snapshot, plus the transaction's own writes.
    fn snapshot_count(
        &self,
        txn: &Transaction,
        table: &Table,
        q: &HapQuery,
        hit: impl Fn(u64) -> bool,
    ) -> Result<u64, StorageError> {
        let out = table.column().read(q, &QueryCtx::default())?;
        let now = out.result.scalar() as i64;
        let inner = self.inner.lock();
        let committed_later = inner.log.iter().rev();
        let later: i64 = committed_later
            .take_while(|rec| rec.ts > txn.begin_ts)
            .map(|rec| effect(&rec.write, &hit))
            .sum();
        drop(inner);
        let own: i64 = txn.writes.iter().map(|w| effect(w, &hit)).sum();
        Ok((now - later + own).max(0) as u64)
    }

    /// Snapshot-consistent point count of `key`. Corrupt persisted chunks
    /// surface as [`StorageError::Corrupt`].
    pub fn point_count(
        &self,
        txn: &Transaction,
        table: &Table,
        key: u64,
    ) -> Result<u64, StorageError> {
        self.snapshot_count(txn, table, &HapQuery::Q1 { v: key, k: 0 }, |k| k == key)
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
        self.snapshot_count(txn, table, &q, |k| lo <= k && k < hi)
    }

    /// Commit: first-committer-wins validation (a lost race is
    /// [`StorageError::Conflict`]), then apply the buffered writes to the
    /// table and publish them to readers once, as a unit. A successful
    /// commit's validate-and-apply time goes into
    /// `casper_txn_commit_duration_ns`.
    pub fn commit(&self, txn: &Transaction, table: &mut Table) -> Result<u64, StorageError> {
        let started = casper_obs::enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        // Validation: any key written by a transaction that committed after
        // our snapshot aborts us.
        for w in &txn.writes {
            for key in keys(w).into_iter().flatten() {
                if let Some(&ts) = inner.last_writer.get(&key) {
                    if ts > txn.begin_ts {
                        OBS_CONFLICTS.inc();
                        return Err(StorageError::Conflict { key });
                    }
                }
            }
        }
        let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        // Apply while holding the coordinator lock (single-writer apply
        // phase; reads remain concurrent thanks to the version log). The
        // write set is one run of the column's write path, so readers see
        // it through one publish; each write is logged as it lands, so a
        // failure part-way logs exactly the writes that applied.
        let ops = txn
            .writes
            .iter()
            .map(|w| WriteOp::from_query(w).expect("a transaction buffers only writes"));
        table.column_mut().apply_writes(ops, |i, _| {
            let w = &txn.writes[i];
            for key in keys(w).into_iter().flatten() {
                inner.last_writer.insert(key, commit_ts);
            }
            inner.log.push(VersionRecord {
                ts: commit_ts,
                write: w.clone(),
            });
        })?;
        OBS_COMMITS.inc();
        if let Some(t) = started {
            OBS_COMMIT_NS.record(t.elapsed().as_nanos() as u64);
        }
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
    use crate::column::{ChunkStore, ColumnSnapshot};
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
        mgr.commit(&txn, &mut t).unwrap();
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
        mgr.commit(&writer, &mut t).unwrap();
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
        mgr.commit(&w, &mut t).unwrap();
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
        mgr.commit(&t1, &mut t).unwrap();
        let err = mgr.commit(&t2, &mut t).unwrap_err();
        assert!(matches!(err, StorageError::Conflict { key: 300 }));
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
        mgr.commit(&t1, &mut t).unwrap();
        mgr.commit(&t2, &mut t).unwrap();
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

    /// A transaction is one publish in every mode: buffering publishes
    /// nothing, an N-write commit ticks the reader's version once, and a
    /// fresh pin sees all N writes — the cross-chunk update included —
    /// while a pin taken before the transaction sees none.
    #[test]
    fn a_committed_transaction_is_one_publish() {
        for mode in LayoutMode::all() {
            let gen = WorkloadGenerator::new(HapSchema::narrow(), 2000, KeyDist::Uniform);
            let mut config = EngineConfig::small(mode);
            config.chunk_values = 512; // four chunks over keys 0..=3998
            let mut t = Table::load_from_generator(&gen, config);
            let reader = t.reader();
            let v0 = reader.version();
            let before = reader.pin();
            let mgr = TxnManager::new();
            let mut txn = mgr.begin();
            mgr.buffer_insert(&mut txn, &mut t, 101, vec![0; 15]);
            mgr.buffer_insert(&mut txn, &mut t, 4001, vec![0; 15]);
            txn.delete(100);
            txn.update(200, 3001);
            assert_eq!(
                reader.version(),
                v0,
                "{mode:?}: buffering publishes nothing"
            );
            mgr.commit(&txn, &mut t).unwrap();
            assert_eq!(reader.version(), v0 + 1, "{mode:?}: one publish per commit");
            let count = |snap: &ColumnSnapshot, q: HapQuery| {
                snap.read(&q, &QueryCtx::default()).unwrap().result.scalar()
            };
            let point = |snap: &ColumnSnapshot, v| count(snap, HapQuery::Q1 { v, k: 1 });
            let after = reader.pin();
            let whole = HapQuery::Q2 {
                vs: 0,
                ve: u64::MAX,
            };
            assert_eq!(count(&after, whole.clone()), 2001, "{mode:?}");
            for (key, want) in [(101, 1), (4001, 1), (100, 0), (200, 0), (3001, 1)] {
                assert_eq!(point(&after, key), want, "{mode:?}: key {key} after");
            }
            // The pin taken before the commit saw none of it.
            assert_eq!(count(&before, whole), 2000, "{mode:?}");
            for (key, want) in [(101, 0), (100, 1), (200, 1), (3001, 0)] {
                assert_eq!(point(&before, key), want, "{mode:?}: key {key} before");
            }
        }
    }

    /// A buffered insert prefetches ghosts in every partitioned mode, but
    /// `Equi` and `NoOrder` chunks run the dense update policy: there the
    /// prefetch must move nothing, or a later dense ripple books the stale
    /// ghost slot as live and a partition holds keys outside its range.
    #[test]
    fn buffered_inserts_then_updates_keep_dense_chunks_valid() {
        use rand::prelude::*;
        for mode in [LayoutMode::Equi, LayoutMode::NoOrder] {
            let gen = WorkloadGenerator::new(HapSchema::narrow(), 2000, KeyDist::Uniform);
            let mut config = EngineConfig::small(mode);
            config.block_bytes = 256; // 32 keys per block: 8 partitions
            let mut t = Table::load_from_generator(&gen, config);
            let mgr = TxnManager::new();
            let mut rng = StdRng::seed_from_u64(5050);
            let mut rows = 2000u64;
            for round in 0..20 {
                // An aborted transaction keeps its prefetch (§6.1), so
                // whatever it booked is still there when the updates run.
                for commit in [true, false] {
                    let mut txn = mgr.begin();
                    for _ in 0..5 {
                        let key = rng.gen_range(0..4000u64) | 1;
                        mgr.buffer_insert(&mut txn, &mut t, key, vec![0; 15]);
                    }
                    if commit {
                        mgr.commit(&txn, &mut t).unwrap();
                        rows += 5;
                    } else {
                        mgr.abort(txn);
                    }
                }
                for _ in 0..20 {
                    let v = rng.gen_range(0..2000u64) * 2;
                    let vnew = rng.gen_range(0..4000u64);
                    t.execute(&HapQuery::Q6 { v, vnew }).unwrap();
                }
                for (i, slot) in t.column().chunks().iter().enumerate() {
                    if let Some(ChunkStore::Partitioned(c)) = slot.store_opt() {
                        assert_eq!(c.ghost_total(), 0, "{mode:?} round {round} chunk {i}");
                        c.validate_invariants()
                            .unwrap_or_else(|e| panic!("{mode:?} round {round} chunk {i}: {e}"));
                    }
                }
                let all = HapQuery::Q2 {
                    vs: 0,
                    ve: u64::MAX,
                };
                let count = t.execute(&all).unwrap().result.scalar();
                assert_eq!(count, rows, "{mode:?} round {round}");
            }
        }
    }

    #[test]
    fn gc_trims_version_log() {
        let mut t = table();
        let mgr = TxnManager::new();
        for i in 0..5 {
            let mut txn = mgr.begin();
            txn.delete(i * 2);
            mgr.commit(&txn, &mut t).unwrap();
        }
        assert_eq!(mgr.log_len(), 5);
        mgr.gc_versions(4);
        assert_eq!(mgr.log_len(), 2);
    }
}

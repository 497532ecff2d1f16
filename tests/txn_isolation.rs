//! Integration tests for snapshot isolation across the facade: concurrent
//! logical transactions over a real HAP table (§6.1).

use casper::engine::{EngineConfig, LayoutMode, Table, TxnManager};
use casper::storage::StorageError;
use casper::workload::{HapSchema, KeyDist, WorkloadGenerator};

fn table() -> Table {
    let gen = WorkloadGenerator::new(HapSchema::narrow(), 4096, KeyDist::Uniform);
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = 2048;
    Table::load_from_generator(&gen, config)
}

#[test]
fn long_running_analytics_see_a_stable_snapshot() {
    // The §6.1 scenario: a long-running analytical query must not observe
    // the short transactions that commit while it runs.
    let mut t = table();
    let mgr = TxnManager::new();
    let analyst = mgr.begin();
    let before = mgr.range_count(&analyst, &t, 0, u64::MAX).unwrap();
    // A burst of short transactions commits mid-analysis.
    for i in 0..50u64 {
        let mut w = mgr.begin();
        mgr.buffer_insert(&mut w, &mut t, 100_001 + i * 2, vec![0; 15]);
        w.delete(i * 2);
        mgr.commit(&w, &mut t).expect("short txn");
    }
    // The analyst's counts are unchanged at its snapshot...
    assert_eq!(mgr.range_count(&analyst, &t, 0, u64::MAX).unwrap(), before);
    assert_eq!(mgr.point_count(&analyst, &t, 0).unwrap(), 1);
    assert_eq!(mgr.point_count(&analyst, &t, 100_001).unwrap(), 0);
    // ...while a fresh snapshot sees all fifty commits.
    let fresh = mgr.begin();
    assert_eq!(mgr.range_count(&fresh, &t, 0, u64::MAX).unwrap(), before);
    assert_eq!(mgr.point_count(&fresh, &t, 0).unwrap(), 0);
    assert_eq!(mgr.point_count(&fresh, &t, 100_001).unwrap(), 1);
}

#[test]
fn write_conflicts_keep_exactly_one_winner() {
    let mut t = table();
    let mgr = TxnManager::new();
    let mut a = mgr.begin();
    let mut b = mgr.begin();
    a.update(500, 501);
    b.update(500, 503);
    assert!(mgr.commit(&a, &mut t).is_ok());
    assert!(matches!(
        mgr.commit(&b, &mut t),
        Err(StorageError::Conflict { key: 500 })
    ));
    let fresh = mgr.begin();
    assert_eq!(mgr.point_count(&fresh, &t, 501).unwrap(), 1);
    assert_eq!(mgr.point_count(&fresh, &t, 503).unwrap(), 0);
    assert_eq!(mgr.point_count(&fresh, &t, 500).unwrap(), 0);
}

#[test]
fn serial_commit_chain_is_linearizable() {
    let mut t = table();
    let mgr = TxnManager::new();
    // Move one row through a chain of keys; each txn begins after the
    // previous commit, so all succeed.
    let mut key = 600u64;
    for step in 0..10u64 {
        let next = 700_001 + step * 2;
        let mut w = mgr.begin();
        w.update(key, next);
        mgr.commit(&w, &mut t).expect("chain txn");
        key = next;
    }
    let fresh = mgr.begin();
    assert_eq!(mgr.point_count(&fresh, &t, 600).unwrap(), 0);
    assert_eq!(mgr.point_count(&fresh, &t, key).unwrap(), 1);
    assert_eq!(mgr.log_len(), 10);
}

#[test]
fn aborted_work_leaves_only_ghost_prefetches() {
    let mut t = table();
    let mgr = TxnManager::new();
    let len_before = t.len();
    let mut w = mgr.begin();
    mgr.buffer_insert(&mut w, &mut t, 777, vec![1; 15]);
    w.delete(100);
    w.update(200, 201);
    mgr.abort(w);
    // Logical state unchanged.
    assert_eq!(t.len(), len_before);
    let fresh = mgr.begin();
    assert_eq!(mgr.point_count(&fresh, &t, 777).unwrap(), 0);
    assert_eq!(mgr.point_count(&fresh, &t, 100).unwrap(), 1);
    assert_eq!(mgr.point_count(&fresh, &t, 200).unwrap(), 1);
}

#[test]
fn commit_surfaces_the_storage_error_it_hit_typed() {
    let mut t = table();
    let mgr = TxnManager::new();
    let mut w = mgr.begin();
    // The narrow schema carries 15 payload attributes; this row has one.
    mgr.buffer_insert(&mut w, &mut t, 4001, vec![7]);
    let err = mgr.commit(&w, &mut t).expect_err("wrong payload arity");
    assert!(
        matches!(
            err,
            StorageError::PayloadArity {
                expected: 15,
                got: 1
            }
        ),
        "commit returned {err:?}"
    );
}

//! End-to-end durability: save → reopen restores the optimized layout
//! bit-exactly, with zero layout solves on the recovery path
//! (counter-instrumented), and WAL replay after a simulated
//! crash yields query results identical to an uncrashed oracle.

use casper_engine::column::ChunkStore;
use casper_engine::optimize::OptimizeOptions;
use casper_engine::{EngineConfig, LayoutMode, Table, TxnManager};
use casper_persist::{DurableOptions, DurableTable};
use casper_workload::{HapQuery, HapSchema, KeyDist, Mix, MixKind, WorkloadGenerator};
use std::fs;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = 1024; // several chunks
    config.threads = 2;
    config
}

fn seed_table(rows: u64) -> Table {
    let gen = WorkloadGenerator::new(HapSchema::narrow(), rows, KeyDist::Uniform);
    Table::load_from_generator(&gen, engine_config())
}

/// Read-only fingerprint probes spanning point, count and sum shapes.
fn probes(rows: u64) -> Vec<HapQuery> {
    let mut qs = Vec::new();
    for v in (0..rows * 2).step_by(97) {
        qs.push(HapQuery::Q1 { v, k: 3 });
        qs.push(HapQuery::Q2 { vs: v, ve: v + 333 });
        qs.push(HapQuery::Q3 {
            vs: v,
            ve: v + 999,
            k: 2,
        });
    }
    qs
}

fn fingerprint(table: &mut Table, qs: &[HapQuery]) -> Vec<u64> {
    qs.iter()
        .map(|q| table.execute(q).expect("probe").result.scalar())
        .collect()
}

/// Assert two tables implement the *same physical design*: chunk for
/// chunk, partition metadata and storage modes are bit-exact,
/// and every recovered chunk passes `validate_invariants`.
fn assert_same_layout(a: &Table, b: &Table) {
    assert_eq!(a.column().chunk_count(), b.column().chunk_count());
    assert_eq!(a.column().fences(), b.column().fences());
    for (i, (ca, cb)) in a
        .column()
        .chunks()
        .iter()
        .zip(b.column().chunks())
        .enumerate()
    {
        match (ca.store_opt(), cb.store_opt()) {
            (Some(ChunkStore::Partitioned(pa)), Some(ChunkStore::Partitioned(pb))) => {
                assert_eq!(pa.partitions(), pb.partitions(), "chunk {i} partitions");
                assert_eq!(pa.ghost_total(), pb.ghost_total(), "chunk {i} ghosts");
                assert_eq!(pa.live_len(), pb.live_len(), "chunk {i} live");
                pb.validate_invariants()
                    .unwrap_or_else(|e| panic!("chunk {i} invalid after restore: {e}"));
            }
            _ => panic!("chunk {i}: store kinds diverged"),
        }
    }
}

#[test]
fn reopen_restores_optimized_layout_with_zero_solves_and_zero_encodes() {
    let dir = test_dir("e2e_layout");
    let rows = 4096u64;
    // Read-heavy skew: the solver partitions finely around the hot keys.
    let mix = Mix::new(MixKind::ReadOnlySkewed, HapSchema::narrow(), rows);
    let qs = probes(rows);

    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(rows), DurableOptions::default())
            .expect("create");
    // Optimize for a skewed sample: the solver picks a non-trivial
    // partitioning; the optimize entry point checkpoints, making the
    // re-layout durable.
    let report = durable
        .optimize(&mix.generate(800, 5), &OptimizeOptions::default())
        .expect("optimize");
    assert!(report.total_partitions() > durable.table().column().chunk_count());
    let mut reference = seed_table(rows);
    let want = fingerprint(&mut reference, &qs);
    // Sanity: probes on the optimized table agree with an unoptimized twin.
    let mut before: Vec<u64> = Vec::new();
    for q in &qs {
        before.push(durable.execute(q).expect("probe").result.scalar());
    }
    assert_eq!(before, want, "optimization changed logical results");
    let saved_stats = durable.stats();
    assert_eq!(saved_stats.generation, 2, "optimize must checkpoint");
    drop(durable);

    // Recovery path: the solve counter must stay flat — the layout comes
    // back from disk, not from re-running the solver. Under mmap restore
    // chunks decode lazily, so hydrate everything explicitly before
    // comparing layouts: hydration is part of the recovery path and must
    // itself be solve-free.
    let solves_before = casper_core::solver::telemetry::solve_count();
    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    // The open is metadata-only: no chunk is decoded until a query routes
    // to it, and a point query decodes exactly the chunk it routes to.
    let column = reopened.table().column();
    assert!(column.chunk_count() > 2, "test premise: several chunks");
    assert!(
        column.chunks().iter().all(|slot| !slot.is_hydrated()),
        "open must not hydrate any chunk"
    );
    let key = rows; // an even key in the middle of the key space
    let owner = column.route_for(key).expect("a range-partitioned column");
    reopened
        .execute(&HapQuery::Q1 { v: key, k: 1 })
        .expect("first query");
    let hydrated: Vec<usize> = (reopened.table().column().chunks().iter())
        .enumerate()
        .filter_map(|(i, slot)| slot.is_hydrated().then_some(i))
        .collect();
    assert_eq!(hydrated, [owner], "a point query hydrates its chunk only");
    reopened.hydrate_all().expect("hydrate");
    assert_eq!(
        casper_core::solver::telemetry::solve_count(),
        solves_before,
        "recovery must not invoke the layout solver"
    );
    assert_eq!(reopened.stats().generation, saved_stats.generation);

    // Build an in-memory twin of what was saved to compare layouts: replay
    // the same construction steps on a fresh table.
    let mut twin = seed_table(rows);
    casper_engine::optimize::optimize_table(
        &mut twin,
        &mix.generate(800, 5),
        &OptimizeOptions::default(),
    );
    assert_same_layout(&twin, reopened.table());

    // FM state round-tripped.
    assert_eq!(
        reopened.frequency_models().len(),
        reopened.table().column().chunk_count(),
        "captured per-chunk FM state must be restored"
    );
    for fm in reopened.frequency_models() {
        fm.validate().expect("restored FM valid");
        assert!(fm.total_mass() > 0.0, "restored FM carries the sample");
    }

    // Logical contents identical.
    let mut after = Vec::new();
    for q in &qs {
        after.push(reopened.execute(q).expect("probe").result.scalar());
    }
    assert_eq!(after, want, "reopened table answers diverged");
}

#[test]
fn writes_survive_reopen_without_checkpoint() {
    let dir = test_dir("e2e_wal_writes");
    let rows = 2048u64;
    let schema = HapSchema::narrow();
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(rows), DurableOptions::default())
            .expect("create");
    let mut oracle = seed_table(rows);

    // A write stream: inserts of fresh odd keys, deletes, updates.
    let mut writes = Vec::new();
    for i in 0..120u64 {
        writes.push(HapQuery::Q4 {
            key: 3 + i * 34,
            payload: schema.payload_row(3 + i * 34),
        });
        if i % 3 == 0 {
            writes.push(HapQuery::Q5 { v: i * 16 });
        }
        if i % 5 == 0 {
            writes.push(HapQuery::Q6 {
                v: i * 30 + 2,
                vnew: i * 30 + 3,
            });
        }
    }
    for q in &writes {
        durable.execute(q).expect("write");
        oracle.execute(q).expect("oracle write");
    }
    let gen_before = durable.stats().generation;
    assert_eq!(gen_before, 1, "watermark off: writes never checkpoint");
    drop(durable); // no checkpoint: recovery must come from WAL replay

    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    assert_eq!(reopened.stats().generation, gen_before);
    assert_eq!(reopened.len(), oracle.len());
    let qs = probes(rows);
    let mut got = Vec::new();
    for q in &qs {
        got.push(reopened.execute(q).expect("probe").result.scalar());
    }
    assert_eq!(got, fingerprint(&mut oracle, &qs));
}

#[test]
fn crash_smoke_torn_wal_tail_recovers_to_committed_prefix() {
    // The crash smoke scenario: build a table, stream writes, "kill"
    // the process mid-stream by dropping bytes off the WAL tail, reopen,
    // and assert query equality against an in-memory oracle that only saw
    // the committed prefix.
    let dir = test_dir("e2e_crash_smoke");
    let rows = 2048u64;
    let schema = HapSchema::narrow();
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(rows), DurableOptions::default())
            .expect("create");
    let inserts: Vec<HapQuery> = (0..60u64)
        .map(|i| HapQuery::Q4 {
            key: 1_000_001 + i * 2,
            payload: schema.payload_row(1_000_001 + i * 2),
        })
        .collect();
    for q in &inserts {
        durable.execute(q).expect("write");
    }
    let wal_file = dir.join("wal-000001.log");
    drop(durable);

    // Simulated crash: tear off the last 37 bytes of the log (mid-frame).
    let mut bytes = fs::read(&wal_file).expect("read wal");
    let torn = bytes.len() - 37;
    bytes.truncate(torn);
    fs::write(&wal_file, &bytes).expect("tear wal");

    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    // The oracle applies whole committed batches; the torn tail loses at
    // least the final record.
    let applied = (0..inserts.len())
        .rev()
        .find(|&i| {
            let HapQuery::Q4 { key, .. } = &inserts[i] else {
                unreachable!()
            };
            reopened
                .execute(&HapQuery::Q1 { v: *key, k: 1 })
                .expect("probe")
                .result
                .scalar()
                == 1
        })
        .map_or(0, |i| i + 1);
    assert!(
        applied < inserts.len(),
        "torn tail must lose the last write"
    );
    let mut oracle = seed_table(rows);
    for q in &inserts[..applied] {
        oracle.execute(q).expect("oracle");
    }
    let qs = probes(rows);
    let mut got = Vec::new();
    for q in &qs {
        got.push(reopened.execute(q).expect("probe").result.scalar());
    }
    assert_eq!(
        got,
        fingerprint(&mut oracle, &qs),
        "recovered state diverged from the committed-prefix oracle"
    );
}

#[test]
fn txn_commit_is_durable_and_conflicts_stage_nothing() {
    let dir = test_dir("e2e_txn");
    let rows = 2048u64;
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(rows), DurableOptions::default())
            .expect("create");
    let mgr = TxnManager::new();

    let mut t1 = mgr.begin();
    t1.update(300, 301);
    t1.delete(500);
    let staged_before = durable.stats().next_lsn;
    durable.commit_txn(&mgr, t1).expect("commit");
    assert!(durable.stats().next_lsn > staged_before);

    // A conflicting transaction must abort AND leave no WAL trace: both
    // `loser` and `winner` snapshot before either commits, and both write
    // key 301 — first committer wins.
    let mut loser = mgr.begin();
    loser.update(301, 303);
    let mut winner = mgr.begin();
    winner.update(301, 305);
    durable.commit_txn(&mgr, winner).expect("winner commits");
    let lsn_after_winner = durable.stats().next_lsn;
    let err = durable.commit_txn(&mgr, loser).expect_err("conflict");
    assert!(matches!(
        err,
        casper_storage::StorageError::Conflict { key: 301 }
    ));
    assert_eq!(
        durable.stats().next_lsn,
        lsn_after_winner,
        "aborted transaction must stage no WAL records"
    );
    drop(durable);

    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    let count = |t: &mut DurableTable, v: u64| {
        t.execute(&HapQuery::Q1 { v, k: 1 })
            .expect("probe")
            .result
            .scalar()
    };
    assert_eq!(count(&mut reopened, 300), 0, "updated away");
    assert_eq!(count(&mut reopened, 301), 0, "updated again by winner");
    assert_eq!(count(&mut reopened, 305), 1, "winner's update visible");
    assert_eq!(count(&mut reopened, 303), 0, "loser's update absent");
    assert_eq!(count(&mut reopened, 500), 0, "delete visible");
}

#[test]
fn checkpoint_rotates_generations_and_prunes_old_files() {
    let dir = test_dir("e2e_checkpoint");
    let rows = 1024u64;
    let schema = HapSchema::narrow();
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(rows), DurableOptions::default())
            .expect("create");
    for i in 0..10u64 {
        durable
            .execute(&HapQuery::Q4 {
                key: 5_000_001 + i * 2,
                payload: schema.payload_row(5_000_001 + i * 2),
            })
            .expect("write");
    }
    let g2 = durable.checkpoint().expect("checkpoint");
    assert_eq!(g2, 2);
    assert_eq!(durable.stats().wal_bytes, 0, "fresh WAL after checkpoint");
    assert_eq!(durable.stats().dirty_chunks, 0, "checkpoint cleaned chunks");
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.contains(&"manifest-000002.casper".to_string()),
        "{names:?}"
    );
    assert!(names.contains(&"wal-000002.log".to_string()), "{names:?}");
    // The single chunk was dirtied by the inserts, so the checkpoint wrote
    // a patch of it into a fresh segment, and generation 1's manifest and
    // WAL must be pruned. Its segment stays: it holds the full record the
    // patch extends.
    assert!(
        names.contains(&"seg-000002.casper".to_string()),
        "{names:?}"
    );
    let stale = ["manifest-000001.casper", "wal-000001.log"];
    assert!(
        !names.iter().any(|n| stale.contains(&n.as_str())),
        "old generation must be pruned: {names:?}"
    );
    assert!(
        names.contains(&"seg-000001.casper".to_string()),
        "the patched chunk's full record is still referenced: {names:?}"
    );
    // Post-checkpoint writes land in the new WAL and survive.
    durable
        .execute(&HapQuery::Q4 {
            key: 6_000_001,
            payload: schema.payload_row(6_000_001),
        })
        .expect("write");
    drop(durable);
    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    assert_eq!(reopened.len(), rows as usize + 11);
    assert_eq!(
        reopened
            .execute(&HapQuery::Q1 { v: 6_000_001, k: 1 })
            .expect("probe")
            .result
            .scalar(),
        1
    );
}

#[test]
fn group_commit_defers_durability_until_seal() {
    let dir = test_dir("e2e_group_commit");
    let rows = 1024u64;
    let schema = HapSchema::narrow();
    let opts = DurableOptions {
        group_commit: 8,
        wal_checkpoint_bytes: 0,
        ..DurableOptions::default()
    };
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(rows), opts).expect("create");
    for i in 0..5u64 {
        durable
            .execute(&HapQuery::Q4 {
                key: 7_000_001 + i * 2,
                payload: schema.payload_row(7_000_001 + i * 2),
            })
            .expect("write");
    }
    let stats = durable.stats();
    assert_eq!(stats.staged_records, 5, "below the group size: unsealed");
    assert_eq!(stats.wal_bytes, 0, "nothing durable yet");
    durable.flush().expect("flush");
    let stats = durable.stats();
    assert_eq!(stats.staged_records, 0);
    assert!(stats.wal_bytes > 0, "seal made the batch durable");
    drop(durable);
    let reopened = DurableTable::open(&dir, opts).expect("open");
    assert_eq!(reopened.len(), rows as usize + 5);
}

//! End-to-end telemetry: one full engine cycle — reads, writes,
//! transactions, WAL flush, checkpoint, scrub — must leave a metrics dump
//! with non-zero signal from every instrumented subsystem, and the dump
//! must be structurally parseable Prometheus text.

use casper_engine::{EngineConfig, GovernorConfig, LayoutMode, QueryCtx, Table, TxnManager};
use casper_persist::{DurableOptions, DurableTable};
use casper_storage::StorageError;
use casper_workload::{HapQuery, HapSchema, KeyDist, WorkloadGenerator};
use std::fs;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seed_table(rows: u64) -> Table {
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = 1024; // several chunks, so routing has choices
    config.threads = 2;
    let gen = WorkloadGenerator::new(HapSchema::narrow(), rows, KeyDist::Uniform);
    Table::load_from_generator(&gen, config)
}

/// Value of the series rendered exactly as `name <value>`.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .unwrap_or_else(|| panic!("metric `{name}` missing from dump:\n{text}"))
}

fn assert_nonzero(text: &str, name: &str) {
    assert!(metric(text, name) > 0.0, "expected `{name}` > 0");
}

#[test]
fn full_cycle_dump_has_signal_from_every_subsystem() {
    casper_obs::enable();
    let rows = 4_000u64;
    let dir = test_dir("observability_e2e");
    let opts = DurableOptions {
        // A roomy governor: the slot gate and budget never bind, but
        // admission and residency accounting leave registry signal.
        governor: Some(GovernorConfig {
            memory_budget_bytes: 1 << 40,
            query_slots: 8,
            check_interval: 1,
            ..GovernorConfig::default()
        }),
        ..DurableOptions::default()
    };
    let mut dt = DurableTable::create_from_table(&dir, seed_table(rows), opts)
        .expect("create durable table");

    // Query path: point, range-count and range-sum shapes.
    for v in (0..rows * 2).step_by(101) {
        dt.execute(&HapQuery::Q1 { v, k: 3 }).expect("q1");
        dt.execute(&HapQuery::Q2 { vs: v, ve: v + 500 })
            .expect("q2");
        dt.execute(&HapQuery::Q3 {
            vs: v,
            ve: v + 999,
            k: 2,
        })
        .expect("q3");
    }

    // Engage snapshot mode so writes publish to readers (the publish
    // counter is a no-op until a reader exists), and push a few
    // queries through the sampled snapshot-read path.
    let reader = dt.table().reader();
    for v in (0..rows * 2).step_by(257) {
        reader
            .execute(&HapQuery::Q2 { vs: v, ve: v + 300 })
            .expect("snapshot q2");
    }

    // Write path: inserts through the WAL, then force them all the way
    // down (flush seals the group commit, checkpoint applies + persists).
    let payload_arity = HapSchema::narrow().payload_cols;
    for i in 0..200u64 {
        dt.execute(&HapQuery::Q4 {
            key: rows * 2 + 1 + i * 2,
            payload: vec![7u32; payload_arity],
        })
        .expect("q4 insert");
    }
    // Transactions: one commit, a second writer of the same key that
    // loses first-committer-wins, and an abort.
    let mgr = TxnManager::new();
    let (mut winner, mut loser) = (mgr.begin(), mgr.begin());
    winner.update(100, 101);
    loser.update(100, 103);
    dt.commit_txn(&mgr, winner).expect("commit");
    let lost = dt.commit_txn(&mgr, loser);
    assert!(
        matches!(lost, Err(StorageError::Conflict { key: 100 })),
        "{lost:?}"
    );
    let mut dropped = mgr.begin();
    dropped.delete(200);
    mgr.abort(dropped);
    dt.flush().expect("flush");
    dt.checkpoint().expect("checkpoint");
    dt.scrub_now().expect("scrub");

    // Governed execution: admission through the (roomy) slot gate plus
    // residency accounting on the main table; a second table under a
    // deliberately tiny budget adds eviction/rehydration churn (reads
    // only — its chunks stay clean, so every pass ends under budget and
    // never escalates).
    let ctx = QueryCtx::unbounded();
    for v in (0..rows * 2).step_by(513) {
        dt.execute_with(&HapQuery::Q2 { vs: v, ve: v + 200 }, &ctx)
            .expect("governed q2");
    }
    let tiny_dir = test_dir("observability_e2e_evict");
    let tiny_opts = DurableOptions {
        governor: Some(GovernorConfig {
            memory_budget_bytes: 1, // every hydrated chunk is over budget
            check_interval: 1,
            governor_checkpoint: false,
            ..GovernorConfig::default()
        }),
        ..DurableOptions::default()
    };
    let mut tiny =
        DurableTable::create_from_table(&tiny_dir, seed_table(1_000), tiny_opts).expect("create");
    for v in (0..2_000).step_by(401) {
        tiny.execute_with(&HapQuery::Q1 { v, k: 1 }, &ctx)
            .expect("governed q1");
    }

    let text = dt.metrics_text();

    // Query-path signal.
    assert_nonzero(&text, "casper_query_latency_ns_count{class=\"q1\"}");
    assert_nonzero(&text, "casper_query_latency_ns_count{class=\"q2\"}");
    assert_nonzero(&text, "casper_query_rows_scanned_total{class=\"q2\"}");
    assert_nonzero(&text, "casper_query_rows_scanned_total{class=\"q3\"}");
    assert_nonzero(&text, "casper_query_chunks_routed_total");
    assert_nonzero(&text, "casper_scan_partitions_total{path=\"plain\"}");

    // Write-path signal.
    assert_nonzero(&text, "casper_query_latency_ns_count{class=\"q4\"}");
    assert_nonzero(&text, "casper_wal_fsyncs_total");
    assert_nonzero(&text, "casper_snapshot_publishes_total");

    // Transaction signal.
    assert_nonzero(&text, "casper_txn_commits_total");
    assert_nonzero(&text, "casper_txn_conflicts_total");
    assert_nonzero(&text, "casper_txn_aborts_total");
    assert_nonzero(&text, "casper_txn_commit_duration_ns_count");

    // Persistence signal.
    assert_nonzero(&text, "casper_checkpoints_total{result=\"ok\"}");
    assert_nonzero(&text, "casper_checkpoint_duration_ns_count");
    assert_nonzero(&text, "casper_checkpoint_segment_bytes_total");
    // The create wrote every chunk whole; the checkpoint after the inserts
    // appended a patch to the chain of the chunk they landed in.
    assert_nonzero(&text, "casper_checkpoint_records_total{kind=\"full\"}");
    assert_nonzero(&text, "casper_checkpoint_records_total{kind=\"patch\"}");

    // Scrub signal.
    assert_nonzero(&text, "casper_scrub_passes_total");
    assert_nonzero(&text, "casper_scrub_records_checked_total");

    // Governor signal: admission waits recorded, resident bytes
    // accounted, and the tiny-budget table's eviction/rehydration churn.
    assert_nonzero(&text, "casper_governor_admit_wait_ns_count");
    assert_nonzero(&text, "casper_governor_resident_bytes");
    assert_nonzero(&text, "casper_governor_evictions_total");
    assert_nonzero(&text, "casper_governor_rehydrations_total");

    // FM drift signal: at least one chunk with observed accesses.
    let drift_signal = text.lines().any(|l| {
        l.strip_prefix("casper_fm_observed_accesses{")
            .and_then(|rest| rest.split_once("} "))
            .is_some_and(|(_, v)| v.trim().parse::<f64>().is_ok_and(|x| x > 0.0))
    });
    assert!(drift_signal, "no chunk reported observed accesses:\n{text}");

    // Structural parse: every non-comment line is `series value`.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable line: {line}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bad value in `{line}`: {e}"));
    }

    // The JSON rendering must exist and carry the same engagement.
    let json = dt.metrics_json();
    assert!(json.starts_with('{'), "metrics_json: {json}");
    assert!(json.contains("casper_checkpoints_total"));

    // An operation is timed in one histogram of its own: no span series
    // is rendered, and the JSON object holds the three metric kinds only.
    assert!(!text.contains("casper_span_"), "{text}");
    let top_level: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \""))
        .filter_map(|l| l.split_once('"').map(|(key, _)| key))
        .collect();
    assert_eq!(top_level, ["counters", "gauges", "histograms"], "{json}");
}

/// A full PITR cycle — archiving checkpoints, a hot backup, a watched
/// re-verification, a restore-to-LSN, a scrub over the archive — leaves
/// non-zero signal on every archive/backup metric.
#[test]
fn pitr_cycle_dump_has_archive_and_backup_signal() {
    casper_obs::enable();
    let dir = test_dir("observability_pitr");
    let backup_dir = test_dir("observability_pitr_backup");
    let opts = DurableOptions {
        background_checkpointer: false,
        archive: Some(casper_persist::ArchiveConfig::default()),
        ..DurableOptions::default()
    };
    let mut dt = DurableTable::create_from_table(&dir, seed_table(2_000), opts).expect("create");
    let payload_arity = HapSchema::narrow().payload_cols;
    // Three checkpointed rounds: each retires the superseded generation
    // (manifest + WAL links, eventually segments) into the archive.
    for round in 0..3u64 {
        for i in 0..40u64 {
            dt.execute(&HapQuery::Q4 {
                key: 100_001 + round * 1_000 + i * 2,
                payload: vec![5u32; payload_arity],
            })
            .expect("q4");
        }
        dt.checkpoint().expect("checkpoint");
    }
    let target = dt.stats().durable_lsn;

    dt.backup_to(&backup_dir).expect("backup");
    dt.watch_backup(&backup_dir);
    dt.scrub_now().expect("scrub"); // archive walk + backup re-verify
    let pit = DurableTable::open_at(&dir, target).expect("open_at");
    assert!(pit.restored_lsn <= target);

    let text = dt.metrics_text();
    // Archive retire signal.
    assert_nonzero(&text, "casper_archive_retired_files_total");
    assert_nonzero(&text, "casper_archive_bytes");
    assert_nonzero(&text, "casper_archive_files");
    // Hot-backup signal.
    assert_nonzero(&text, "casper_backups_total");
    assert_nonzero(&text, "casper_backup_bytes_total");
    assert_nonzero(&text, "casper_backup_duration_ns_count");
    // Restore-to-LSN signal.
    assert_nonzero(&text, "casper_pitr_restores_total");
    assert_nonzero(&text, "casper_pitr_restore_duration_ns_count");
    // Scrub coverage of the archive and the watched backup.
    assert_nonzero(&text, "casper_scrub_archive_files_checked_total");
    assert_nonzero(
        &text,
        "casper_scrub_backup_verifications_total{result=\"ok\"}",
    );
}

//! The FM drift gauges of a durable table: a reopened table knows what
//! its layout was solved for (each chunk's predicted accesses come back
//! from the frequency models the manifest keeps, so the gauges read after
//! a restart as they do on a table that never closed), and a re-layout to
//! fewer chunks leaves no stale per-chunk series behind.
//!
//! Their own binary, serialized by [`SERIES`]: the drift gauges are
//! process-wide registry series, and no other table may sync them while a
//! test reads them.

use casper_engine::optimize::OptimizeOptions;
use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_persist::{DurableOptions, DurableTable};
use casper_workload::{HapQuery, HapSchema, Mix, MixKind};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Held by every test here while it syncs or reads the drift gauges.
static SERIES: Mutex<()> = Mutex::new(());

fn series_lock() -> MutexGuard<'static, ()> {
    SERIES.lock().unwrap_or_else(|e| e.into_inner())
}

/// `casper_fm_drift_max_ratio` as `metrics_text` renders it.
fn max_ratio(dt: &DurableTable) -> f64 {
    let text = dt.metrics_text();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("casper_fm_drift_max_ratio "));
    let value = line.unwrap_or_else(|| panic!("no drift ratio in:\n{text}"));
    value.trim().parse().expect("numeric ratio")
}

fn predicted(dt: &DurableTable) -> Vec<f64> {
    let chunks = dt.table().column().chunks();
    chunks.iter().map(|s| s.predicted_accesses()).collect()
}

#[test]
fn reopen_restores_predicted_accesses_and_drift() {
    let _series = series_lock();
    casper_obs::enable();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("drift_reopen");
    let _ = std::fs::remove_dir_all(&dir);
    let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 4096);
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = 1024; // four chunks
    let table = Table::load_from_generator(mix.generator(), config);
    let opts = || DurableOptions {
        background_checkpointer: false,
        ..DurableOptions::default()
    };
    let mut dt = DurableTable::create_from_table(&dir, table, opts()).expect("create");
    // `optimize` checkpoints the new layout and its models together.
    let sample = mix.generate(400, 1);
    dt.optimize(&sample, &OptimizeOptions::default())
        .expect("optimize");
    dt.checkpoint().expect("checkpoint");
    let before = predicted(&dt);
    assert_eq!(before.len(), 4);
    assert!(before.iter().all(|&p| p > 0.0), "{before:?}");

    // A few reads, all in the first chunk, on the never-closed table.
    let reads: Vec<HapQuery> = (0..30).map(|i| HapQuery::Q1 { v: 2 * i, k: 1 }).collect();
    for q in &reads {
        dt.execute(q).expect("read");
    }
    let live = max_ratio(&dt);
    assert!(live > 1.0, "idle chunks drift from their prediction");
    drop(dt);

    let mut reopened = DurableTable::open(&dir, opts()).expect("reopen");
    assert_eq!(
        predicted(&reopened),
        before,
        "predicted accesses survive reopen"
    );
    let accesses = |dt: &DurableTable| dt.table().column().chunks()[0].accesses();
    assert_eq!(accesses(&reopened), 0, "a reopen starts a new window");
    for q in &reads {
        reopened.execute(q).expect("read");
    }
    assert_eq!(accesses(&reopened), reads.len() as u64);
    let after = max_ratio(&reopened);
    assert!(
        (after - live).abs() < 1e-9,
        "drift after reopen {after} vs never closed {live}"
    );
}

/// `casper_fm_{family}_accesses{chunk="i"}` as `metrics_text` renders it.
fn chunk_gauge(text: &str, family: &str, chunk: usize) -> Option<f64> {
    let name = format!("casper_fm_{family}_accesses{{chunk=\"{chunk}\"}} ");
    let value = text.lines().find_map(|l| l.strip_prefix(name.as_str()))?;
    Some(value.trim().parse().expect("numeric gauge"))
}

#[test]
fn relayout_to_fewer_chunks_zeroes_the_dropped_series() {
    let _series = series_lock();
    casper_obs::enable();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("drift_shrink");
    let _ = std::fs::remove_dir_all(&dir);
    let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 4096);
    let mut config = EngineConfig::small(LayoutMode::NoOrder);
    config.chunk_values = 1024; // four chunks
    let table = Table::load_from_generator(mix.generator(), config);
    let opts = DurableOptions {
        background_checkpointer: false,
        ..DurableOptions::default()
    };
    let mut dt = DurableTable::create_from_table(&dir, table, opts).expect("create");
    assert_eq!(dt.table().column().chunks().len(), 4);
    // Every chunk of an unordered table is scanned by a read, so each one
    // has observed accesses; the deletes leave 2,896 live rows.
    for i in 0..20 {
        dt.execute(&HapQuery::Q1 { v: 2 * i, k: 1 }).expect("read");
    }
    for i in 0..1200 {
        dt.execute(&HapQuery::Q5 { v: 2 * i }).expect("delete");
    }
    let text = dt.metrics_text();
    let last = chunk_gauge(&text, "observed", 3).expect("chunk 3 is synced");
    assert!(last > 0.0, "chunk 3 observed {last}");

    // `optimize` re-chunks the live rows in key order: three chunks.
    let sample = mix.generate(400, 1);
    dt.optimize(&sample, &OptimizeOptions::default())
        .expect("optimize");
    assert_eq!(dt.table().column().chunks().len(), 3);
    let text = dt.metrics_text();
    for chunk in 0..3 {
        let predicted = chunk_gauge(&text, "predicted", chunk).expect("synced");
        assert!(predicted > 0.0, "chunk {chunk} predicted {predicted}");
    }
    for family in ["observed", "predicted"] {
        assert_eq!(
            chunk_gauge(&text, family, 3),
            Some(0.0),
            "the dropped chunk's {family} series keeps a stale value:\n{text}"
        );
    }
}

//! Durability end-to-end: optimize a table, persist it, "restart", and
//! serve queries from the restored layout — no re-solve.
//!
//! ```bash
//! cargo run --release --example durable_restart
//! ```

use casper::engine::optimize::OptimizeOptions;
use casper::engine::{EngineConfig, LayoutMode, Table};
use casper::prelude::{DurableOptions, DurableTable};
use casper::workload::{HapQuery, HapSchema, KeyDist, Mix, MixKind, WorkloadGenerator};

fn main() {
    let dir = std::path::Path::new("target/durable_restart_demo");
    let _ = std::fs::remove_dir_all(dir);

    // Build + optimize a table for a skewed read-mostly workload.
    let rows = 100_000u64;
    let schema = HapSchema::narrow();
    let gen = WorkloadGenerator::new(schema, rows, KeyDist::Uniform);
    let mut config = EngineConfig::for_mode(LayoutMode::Casper);
    config.chunk_values = 32_768;
    let table = Table::load_from_generator(&gen, config);

    let mut durable =
        DurableTable::create_from_table(dir, table, DurableOptions::default()).expect("create");
    let sample = Mix::new(MixKind::ReadOnlySkewed, schema, rows).generate(2000, 42);
    let report = durable
        .optimize(&sample, &OptimizeOptions::default())
        .expect("optimize");
    println!(
        "optimized: {} partitions across {} chunks — checkpointed as generation {}",
        report.total_partitions(),
        report.chunks.len(),
        durable.stats().generation,
    );

    // Some durable writes after the checkpoint.
    for i in 0..500u64 {
        let key = 2 * rows + 1 + 2 * i;
        durable
            .execute(&HapQuery::Q4 {
                key,
                payload: schema.payload_row(key),
            })
            .expect("write");
    }
    let rows_before = durable.len();
    drop(durable); // "crash" (all sealed batches survive)

    // Restart: the optimized layout comes back from disk.
    let solves = casper::core::solver::telemetry::solve_count();
    let t = std::time::Instant::now();
    let mut restored = DurableTable::open(dir, DurableOptions::default()).expect("open");
    println!(
        "reopened {} rows in {:.1} ms — {} solver calls",
        restored.len(),
        t.elapsed().as_secs_f64() * 1e3,
        casper::core::solver::telemetry::solve_count() - solves,
    );
    assert_eq!(restored.len(), rows_before);
    let out = restored
        .execute(&HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        })
        .expect("count");
    println!("count(*) = {} (cost: {:?})", out.result.scalar(), out.cost);
}

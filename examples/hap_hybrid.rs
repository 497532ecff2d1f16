//! The paper's motivating scenario (§1): a dashboard-style hybrid workload
//! — analytical range queries and point lookups racing a steady stream of
//! ingests — executed end-to-end on all six layout modes.
//!
//! ```sh
//! cargo run --release --example hap_hybrid
//! ```

use casper::engine::calibrate::{calibrate_per_line, CalibrationConfig};
use casper::engine::optimize::{optimize_table, OptimizeOptions};
use casper::engine::{EngineConfig, LayoutMode, Table};
use casper::workload::{HapSchema, Mix, MixKind};
use std::time::Instant;

fn main() {
    let rows = 1u64 << 18;
    let ops = 3000usize;
    let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), rows);
    let queries = mix.generate(ops, 7);
    let train = mix.generate(ops, 8);

    println!(
        "hybrid dashboard workload: {} rows, {} ops ({})",
        rows,
        ops,
        mix.kind.label()
    );
    println!(
        "{:<14} {:>12} {:>14}",
        "layout", "elapsed ms", "throughput op/s"
    );

    for mode in LayoutMode::all() {
        let mut config = EngineConfig::for_mode(mode);
        config.chunk_values = 1 << 17;
        config.equi_partitions = 64;
        let mut table = Table::load_from_generator(mix.generator(), config);
        if mode == LayoutMode::Casper {
            // Casper trains on a sample before serving (Fig. 10 A→B→C),
            // with cost constants calibrated on this machine (§4.5), per
            // cache line as the solver prices them.
            let mut opts = OptimizeOptions::default();
            opts.constants = calibrate_per_line(&CalibrationConfig {
                block_bytes: config.block_bytes,
                ..CalibrationConfig::quick()
            });
            let report = optimize_table(&mut table, &train, &opts);
            println!(
                "  [casper] optimized {} chunks into {} partitions total",
                report.chunks.len(),
                report.total_partitions()
            );
        }
        let t = Instant::now();
        let mut checksum = 0u64;
        for q in &queries {
            checksum = checksum.wrapping_add(table.execute(q).expect("query").result.scalar());
        }
        let elapsed = t.elapsed();
        println!(
            "{:<14} {:>12.1} {:>14.0}   (checksum {})",
            mode.label(),
            elapsed.as_secs_f64() * 1000.0,
            ops as f64 / elapsed.as_secs_f64(),
            checksum
        );
    }
    println!("\nEvery mode returns the same checksum: six physical designs, one logical table.");
}

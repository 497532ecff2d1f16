//! The end-to-end run (`--trace 0`): what a user of the engine sees.
//!
//! The stream is replayed on fresh, identically built tables until
//! `--seconds` of set-up plus replay have been measured (at least
//! [`MIN_REPS`] tables). Throughput and `setup_s` are medians over the
//! tables; latency percentiles are taken over the pooled samples of all
//! tables. Nothing but the per-operation clock reads runs inside the timed
//! region; answers are checked against the model after each replay.

use crate::durable::DurableRun;
use crate::harness::{
    build_casper, count_failed, drive, final_state_matches, ClassPools, Inputs, Surface,
};
use crate::metrics::Metrics;
use crate::stats::{median, quartile_spread};
use casper_engine::Table;
use std::time::Instant;

/// Fresh tables per run, whatever `--seconds` says: a median needs three.
const MIN_REPS: usize = 3;

/// What one benchmark invocation reports.
pub struct Outcome {
    /// Every answer agreed with the model and every final state matched.
    pub correct: bool,
    /// Operations issued inside timed regions.
    pub attempted: u64,
    /// Operations that returned `Err` or disagreed with the model.
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts about the run that are not metrics (sizes, repetitions).
    pub notes: Vec<(String, f64)>,
}

/// Run the workload end to end for about `seconds`.
pub fn run(inputs: &Inputs, seconds: f64) -> Outcome {
    if inputs.workload.durable {
        measure(inputs, seconds, |table| {
            DurableRun::create(inputs.workload.name, table)
        })
    } else {
        measure(inputs, seconds, |table| table)
    }
}

/// Per-table values of the end-to-end metrics.
#[derive(Default)]
struct PerTable {
    setup_s: Vec<f64>,
    throughput: Vec<f64>,
    write_p50_us: Vec<f64>,
    mem_bytes_per_row: Vec<f64>,
}

fn measure<S: Surface>(inputs: &Inputs, seconds: f64, mut open: impl FnMut(Table) -> S) -> Outcome {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut tables = PerTable::default();
    let mut pools = ClassPools::default();
    let (mut measured_s, mut failed, mut attempted, mut states_ok) = (0.0, 0u64, 0u64, true);
    // Another table while more than half of one still fits.
    while tables.setup_s.len() < MIN_REPS
        || measured_s + 0.5 * measured_s / tables.setup_s.len() as f64 <= seconds
    {
        let t = Instant::now();
        let mut surface = open(build_casper(inputs).table);
        let setup_s = t.elapsed().as_secs_f64();
        let log = drive(&inputs.stream, |q| surface.run(q));
        // The clock has stopped: check, then account.
        failed += count_failed(&log.results, &inputs.expected);
        attempted += log.results.len() as u64;
        states_ok &= final_state_matches(&mut surface, inputs);
        measured_s += setup_s + log.busy_s();
        let table = surface.table();
        let mut own = ClassPools::default();
        own.absorb(inputs, &log.lat_ns);
        tables.setup_s.push(setup_s);
        tables.throughput.push(log.throughput());
        tables.write_p50_us.push(us(own.write.percentile(0.50)));
        tables
            .mem_bytes_per_row
            .push(table.column().resident_bytes() as f64 / table.len() as f64);
        pools.absorb(inputs, &log.lat_ns);
    }

    // Medians over the tables; percentiles over the pooled samples.
    let over_tables = |v: &[f64]| median(v).expect("at least one table");
    let reported = [
        ("setup_s", over_tables(&tables.setup_s), &tables.setup_s),
        (
            "throughput_ops_s",
            over_tables(&tables.throughput),
            &tables.throughput,
        ),
        (
            "write_p50_us",
            us(pools.write.percentile(0.50)),
            &tables.write_p50_us,
        ),
        (
            "mem_bytes_per_row",
            over_tables(&tables.mem_bytes_per_row),
            &tables.mem_bytes_per_row,
        ),
    ];
    let mut metrics = Metrics::default();
    let mut notes = vec![
        ("repetitions".to_string(), tables.setup_s.len() as f64),
        ("read_samples".to_string(), pools.read.len() as f64),
        ("write_samples".to_string(), pools.write.len() as f64),
        ("measured_s".to_string(), measured_s),
        // Ungated here; the traced run reports it as engine.write_p99_us.
        ("write_p99_us".to_string(), us(pools.write.percentile(0.99))),
    ];
    if pools.read.len() > 0 {
        // Ungated here; engine.read_p50_us / engine.read_p99_us when traced.
        for (name, p) in [("read_p50_us", 0.50), ("read_p99_us", 0.99)] {
            notes.push((name.to_string(), us(pools.read.percentile(p))));
        }
    }
    for (name, value, per_table) in reported {
        metrics.set(name, value);
        // What `compare` needs before it calls a difference real.
        let spread = quartile_spread(per_table).expect("at least MIN_REPS tables");
        notes.push((format!("spread.{name}"), spread));
    }
    Outcome {
        correct: failed == 0 && states_ok,
        attempted,
        failed,
        metrics,
        notes,
    }
}

//! Shared experiment runner: build a table in a given mode, train Casper on
//! a workload sample, execute a measured query stream.

use crate::metrics::LatencyRecorder;
use casper_core::solver::SolverConstraints;
use casper_core::CostConstants;
use casper_engine::calibrate::{calibrate, CalibrationConfig};
use casper_engine::optimize::{optimize_table, OptimizeOptions};
use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_workload::{HapQuery, HapSchema, Mix, MixKind};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Host-calibrated cost constants for a given block size (§4.5: "for every
/// instance of Casper deployed, we first need to establish these values
/// through micro-benchmarking"). Cached per process; the 16 KB default
/// covers every experiment, other block sizes re-run the micro-benchmark.
pub fn calibrated_constants(block_bytes: usize) -> CostConstants {
    static CACHE: OnceLock<parking_lot_free::Cache> = OnceLock::new();
    CACHE
        .get_or_init(parking_lot_free::Cache::default)
        .get(block_bytes)
}

/// A tiny lock-free-ish cache (Mutex over a Vec) avoiding a parking_lot
/// dependency in this crate.
mod parking_lot_free {
    use super::*;
    #[derive(Default)]
    pub struct Cache {
        inner: std::sync::Mutex<Vec<(usize, CostConstants)>>,
    }
    impl Cache {
        pub fn get(&self, block_bytes: usize) -> CostConstants {
            let mut inner = self.inner.lock().expect("cache poisoned");
            if let Some((_, c)) = inner.iter().find(|(b, _)| *b == block_bytes) {
                return *c;
            }
            eprintln!("[calibrate] measuring RR/RW/SR/SW for {block_bytes}B blocks…");
            let c = calibrate(&CalibrationConfig {
                block_bytes,
                buffer_bytes: 32 << 20,
                repetitions: 3,
            });
            eprintln!(
                "[calibrate] RR={:.1}ns RW={:.1}ns SR={:.1}ns/blk SW={:.1}ns/blk",
                c.rr, c.rw, c.sr, c.sw
            );
            inner.push((block_bytes, c));
            c
        }
    }
}

/// Scale and seeding of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Rows in the initial load.
    pub rows: u64,
    /// Measured operations.
    pub ops: usize,
    /// Training-sample operations (Casper mode only).
    pub train_ops: usize,
    /// RNG seed (training uses `seed + 1`).
    pub seed: u64,
    /// Apply consecutive write runs chunk-parallel through
    /// `Table::execute_batch` instead of one query at a time.
    pub batch_writes: bool,
    /// Engine configuration template (mode is overridden per run).
    pub engine: EngineConfig,
    /// Solver constraints for the Casper optimization.
    pub constraints: SolverConstraints,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            rows: 1 << 20,
            ops: 5000,
            train_ops: 5000,
            seed: 42,
            batch_writes: false,
            engine: EngineConfig::default(),
            constraints: SolverConstraints::none(),
        }
    }
}

impl RunConfig {
    /// Read `--rows/--ops/--train-ops/--seed/--threads/--chunk-values`
    /// overrides from the CLI.
    pub fn from_args(args: &crate::cli::Args) -> Self {
        let mut rc = Self::default();
        rc.rows = args.u64_or("rows", rc.rows);
        rc.ops = args.usize_or("ops", rc.ops);
        rc.train_ops = args.usize_or("train-ops", rc.train_ops);
        rc.seed = args.u64_or("seed", rc.seed);
        rc.batch_writes = args.flag("batch");
        rc.engine.threads = args.usize_or("threads", rc.engine.threads);
        rc.engine.chunk_values = args.usize_or("chunk-values", rc.engine.chunk_values);
        rc.engine.equi_partitions = args.usize_or("equi-partitions", rc.engine.equi_partitions);
        rc.engine.ghost_budget_frac = args.f64_or("ghosts", rc.engine.ghost_budget_frac);
        rc
    }
}

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-class latency samples.
    pub latencies: LatencyRecorder,
    /// Wall time of the measured phase.
    pub elapsed: Duration,
    /// Workload throughput (ops/s).
    pub throughput: f64,
    /// Sum of all result scalars (a cheap correctness checksum across
    /// modes).
    pub checksum: u64,
}

/// Build a table for `mix` in `mode`; Casper mode additionally trains on a
/// fresh sample from the same mix and optimizes the layout.
pub fn build_table(mix: &Mix, mode: LayoutMode, rc: &RunConfig) -> Table {
    let mut engine = rc.engine;
    engine.mode = mode;
    let mut table = Table::load_from_generator(mix.generator(), engine);
    if mode == LayoutMode::Casper {
        let sample = mix.generate(rc.train_ops, rc.seed + 1);
        let opts = OptimizeOptions {
            constants: calibrated_constants(engine.block_bytes),
            constraints: rc.constraints,
            ghost_budget_frac: engine.ghost_budget_frac,
            fairness_cap: true,
            threads: engine.threads,
            ..OptimizeOptions::default()
        };
        optimize_table(&mut table, &sample, &opts);
    }
    table
}

/// Execute a query stream with per-query timing.
pub fn run_queries(table: &mut Table, queries: &[HapQuery]) -> RunOutcome {
    let mut latencies = LatencyRecorder::new();
    let mut checksum = 0u64;
    let start = Instant::now();
    for q in queries {
        let t = Instant::now();
        let out = table.execute(q).expect("query execution");
        latencies.record(q.index(), t.elapsed().as_nanos() as u64);
        checksum = checksum.wrapping_add(out.result.scalar());
    }
    let elapsed = start.elapsed();
    let throughput = latencies.throughput_ops_per_sec(elapsed);
    RunOutcome {
        latencies,
        elapsed,
        throughput,
        checksum,
    }
}

/// Execute a query stream with chunk-parallel write batching: maximal
/// consecutive runs of Q4/Q5/Q6 go through `Table::execute_batch` (grouped
/// by target chunk, applied under the engine's worker pool), reads execute
/// in stream position. Latency for a batched run is attributed evenly to
/// its member queries, so per-class summaries stay comparable with
/// [`run_queries`].
pub fn run_queries_batched(table: &mut Table, queries: &[HapQuery]) -> RunOutcome {
    let is_write = |q: &HapQuery| matches!(q.index(), 3..=5);
    let mut latencies = LatencyRecorder::new();
    let mut checksum = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while i < queries.len() {
        if is_write(&queries[i]) {
            let mut j = i + 1;
            while j < queries.len() && is_write(&queries[j]) {
                j += 1;
            }
            let t = Instant::now();
            let outs = table
                .execute_batch(&queries[i..j])
                .expect("batched query execution");
            let per = t.elapsed().as_nanos() as u64 / (j - i) as u64;
            for (q, out) in queries[i..j].iter().zip(outs) {
                latencies.record(q.index(), per);
                checksum = checksum.wrapping_add(out.result.scalar());
            }
            i = j;
        } else {
            let t = Instant::now();
            let out = table.execute(&queries[i]).expect("query execution");
            latencies.record(queries[i].index(), t.elapsed().as_nanos() as u64);
            checksum = checksum.wrapping_add(out.result.scalar());
            i += 1;
        }
    }
    let elapsed = start.elapsed();
    let throughput = latencies.throughput_ops_per_sec(elapsed);
    RunOutcome {
        latencies,
        elapsed,
        throughput,
        checksum,
    }
}

/// End-to-end: build, generate, run.
pub fn run_mix(kind: MixKind, mode: LayoutMode, rc: &RunConfig) -> RunOutcome {
    let mix = Mix::new(kind, HapSchema::narrow(), rc.rows);
    let mut table = build_table(&mix, mode, rc);
    let queries = mix.generate(rc.ops, rc.seed);
    if rc.batch_writes {
        run_queries_batched(&mut table, &queries)
    } else {
        run_queries(&mut table, &queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rc() -> RunConfig {
        let mut rc = RunConfig::default();
        rc.rows = 4096;
        rc.ops = 200;
        rc.train_ops = 200;
        rc.engine = EngineConfig::small(LayoutMode::Casper);
        rc.engine.chunk_values = 2048;
        rc
    }

    #[test]
    fn run_mix_produces_latencies_for_used_classes() {
        let rc = tiny_rc();
        let out = run_mix(MixKind::HybridPointSkewed, LayoutMode::Casper, &rc);
        assert!(out.throughput > 0.0);
        assert!(out.latencies.summary(0).is_some(), "Q1 samples");
        assert!(out.latencies.summary(3).is_some(), "Q4 samples");
        assert!(out.latencies.summary(1).is_none(), "no Q2 in this mix");
    }

    #[test]
    fn batched_writes_preserve_the_checksum() {
        let mut rc = tiny_rc();
        let serial = run_mix(MixKind::UpdateOnlyUniform, LayoutMode::Casper, &rc);
        rc.batch_writes = true;
        let batched = run_mix(MixKind::UpdateOnlyUniform, LayoutMode::Casper, &rc);
        assert_eq!(serial.checksum, batched.checksum);
        assert!(
            batched.latencies.summary(3).is_some(),
            "Q4 samples recorded"
        );
    }

    #[test]
    fn checksums_agree_across_modes() {
        let rc = tiny_rc();
        let reference = run_mix(MixKind::HybridPointSkewed, LayoutMode::Sorted, &rc).checksum;
        for mode in [
            LayoutMode::Casper,
            LayoutMode::EquiGV,
            LayoutMode::Equi,
            LayoutMode::StateOfArt,
            LayoutMode::NoOrder,
        ] {
            let out = run_mix(MixKind::HybridPointSkewed, mode, &rc);
            assert_eq!(out.checksum, reference, "{mode:?} diverged");
        }
    }
}

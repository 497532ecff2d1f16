//! Shared machinery of both run modes: generate the inputs, build a table,
//! drive a stream through one surface with a span per operation, and check
//! the answers against the reference model once the clock has stopped.

use crate::model::{hash_rows, max_key, Expected, Model};
use crate::stats::Pool;
use crate::workloads::{q6_payload_probe, Workload, TRAIN_OPS};
use casper_core::CostConstants;
use casper_engine::optimize::{optimize_table, OptimizeOptions, OptimizeReport};
use casper_engine::{LayoutMode, QueryResult, Table};
use casper_persist::DurableTable;
use casper_workload::{HapQuery, Mix};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything a run derives from `(workload, seed)` before any engine code
/// executes.
pub struct Inputs {
    pub workload: Workload,
    pub mix: Mix,
    /// The measured stream (`seed`).
    pub stream: Vec<HapQuery>,
    /// The Casper training sample (`seed + 1`).
    pub sample: Vec<HapQuery>,
    /// The model's answer to every operation of `stream`.
    pub expected: Vec<Expected>,
    /// Model state after the whole stream: live rows.
    pub final_rows: usize,
    /// Seconds spent generating `stream` and `sample`.
    pub generate_s: f64,
}

impl Inputs {
    /// Generate the stream and the training sample and replay the stream on
    /// the reference model.
    pub fn prepare(workload: Workload, seed: u64) -> Inputs {
        let mix = workload.mix();
        let t = Instant::now();
        let stream = workload.stream(&mix, workload.ops, seed);
        let sample = workload.stream(&mix, TRAIN_OPS, seed + 1);
        let generate_s = t.elapsed().as_secs_f64();
        Inputs::from_streams(workload, mix, stream, sample, generate_s)
    }

    /// Inputs for an explicit stream: replay it on the reference model.
    pub fn from_streams(
        workload: Workload,
        mix: Mix,
        stream: Vec<HapQuery>,
        sample: Vec<HapQuery>,
        generate_s: f64,
    ) -> Inputs {
        let mut model = new_model(&mix, &stream);
        let expected = stream.iter().map(|q| model.apply(q)).collect();
        Inputs {
            workload,
            mix,
            final_rows: model.len(),
            stream,
            sample,
            expected,
            generate_s,
        }
    }

    /// Read / write split of the stream's operation indices.
    pub fn is_read(&self, op: usize) -> bool {
        self.stream[op].is_read()
    }
}

/// A model of `mix`'s initial load sized for `stream`.
pub fn new_model(mix: &Mix, stream: &[HapQuery]) -> Model {
    let gen = mix.generator();
    Model::load(gen, gen.projectivity, max_key(stream))
}

/// A freshly built table plus what building it cost.
pub struct Built {
    pub table: Table,
    /// `Table::load_from_generator` wall time.
    pub load_s: f64,
    /// `optimize_table` wall time (capture + solve + rebuild).
    pub optimize_s: f64,
    pub report: OptimizeReport,
}

/// Optimizer options: the paper's constants, not `calibrate()`. Calibration
/// noise would move partition boundaries from run to run; pinned constants
/// make the layout, and every count derived from it, repeat exactly.
pub fn optimize_options(w: &Workload) -> OptimizeOptions {
    let cfg = w.engine_config(LayoutMode::Casper);
    OptimizeOptions {
        constants: CostConstants::paper(),
        ghost_budget_frac: cfg.ghost_budget_frac,
        fairness_cap: true,
        threads: cfg.threads,
        ..OptimizeOptions::default()
    }
}

/// Load the initial data and lay it out with Casper for the training sample.
pub fn build_casper(inputs: &Inputs) -> Built {
    let w = &inputs.workload;
    let t = Instant::now();
    let mut table =
        Table::load_from_generator(inputs.mix.generator(), w.engine_config(LayoutMode::Casper));
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = optimize_table(&mut table, &inputs.sample, &optimize_options(w));
    let optimize_s = t.elapsed().as_secs_f64();
    Built {
        table,
        load_s,
        optimize_s,
        report,
    }
}

/// Load the initial data in one of the baseline layout modes (no solve).
pub fn build_baseline(inputs: &Inputs, mode: LayoutMode) -> Table {
    Table::load_from_generator(inputs.mix.generator(), inputs.workload.engine_config(mode))
}

/// One replay of a stream through one surface: a span per operation.
pub struct RunLog {
    /// Per-operation latency in nanoseconds, by stream position. Spans are
    /// back to back (each ends where the next begins), so they sum to the
    /// wall time of the replay.
    pub lat_ns: Vec<u64>,
    /// What the surface returned (`None` = the call returned `Err`).
    pub results: Vec<Option<QueryResult>>,
}

impl RunLog {
    /// Wall time of the replay in seconds.
    pub fn busy_s(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Operations per second over the whole replay.
    pub fn throughput(&self) -> f64 {
        self.lat_ns.len() as f64 / self.busy_s()
    }
}

/// Replay `stream` through `exec`, one closed-loop client: the next
/// operation is issued when the previous one returns. Results are kept, not
/// inspected, so checking costs nothing inside the clock.
pub fn drive(
    stream: &[HapQuery],
    mut exec: impl FnMut(&HapQuery) -> Option<QueryResult>,
) -> RunLog {
    let mut lat_ns = Vec::with_capacity(stream.len());
    let mut results = Vec::with_capacity(stream.len());
    let mut prev = Instant::now();
    for q in stream {
        results.push(exec(q));
        let now = Instant::now();
        lat_ns.push((now - prev).as_nanos() as u64);
        prev = now;
    }
    RunLog { lat_ns, results }
}

/// Whether one result agrees with the model.
fn agrees(got: &Option<QueryResult>, want: &Expected) -> bool {
    match got {
        None => false,
        Some(QueryResult::Rows(rows)) => {
            rows.len() as u64 == want.scalar
                && hash_rows(rows.iter().map(Vec::as_slice)) == want.rows_hash
        }
        Some(r) => r.scalar() == want.scalar,
    }
}

/// Operations whose result is an `Err` or disagrees with the model.
pub fn count_failed(results: &[Option<QueryResult>], expected: &[Expected]) -> u64 {
    results
        .iter()
        .zip(expected)
        .filter(|(got, want)| !agrees(got, want))
        .count() as u64
}

/// How many of the Q6 payload probe's Q3 sums the engine gets wrong in
/// `mode` (see README, "Known defect"): 0 once the defect is fixed, and 0 in
/// the layout modes that keep rows sorted. The seed only picks the training
/// sample the Casper layout is solved for.
pub fn q6_payload_probe_failed(mode: LayoutMode, seed: u64) -> u64 {
    let (w, stream) = q6_payload_probe();
    let mix = w.mix();
    let sample = w.stream(&mix, TRAIN_OPS, seed + 1);
    let inputs = Inputs::from_streams(w, mix, stream, sample, 0.0);
    let mut table = match mode {
        LayoutMode::Casper => build_casper(&inputs).table,
        mode => build_baseline(&inputs, mode),
    };
    let log = drive(&inputs.stream, |q| table.run(q));
    count_failed(&log.results, &inputs.expected)
}

/// A public surface a stream can be replayed through.
pub trait Surface {
    /// Execute one query; `None` when the surface returned an `Err`.
    fn run(&mut self, q: &HapQuery) -> Option<QueryResult>;
    /// The table behind the surface (row count, resident bytes).
    fn table(&self) -> &Table;
}

impl Surface for Table {
    #[inline]
    fn run(&mut self, q: &HapQuery) -> Option<QueryResult> {
        self.execute(q).ok().map(|o| o.result)
    }
    fn table(&self) -> &Table {
        self
    }
}

impl Surface for DurableTable {
    #[inline]
    fn run(&mut self, q: &HapQuery) -> Option<QueryResult> {
        self.execute(q).ok().map(|o| o.result)
    }
    fn table(&self) -> &Table {
        DurableTable::table(self)
    }
}

/// Whether a surface that replayed the whole stream ended in the model's
/// state: same live row count, by `len()` and by a Q2 over the whole domain.
pub fn final_state_matches(surface: &mut impl Surface, inputs: &Inputs) -> bool {
    let all = HapQuery::Q2 {
        vs: 0,
        ve: u64::MAX,
    };
    let counted = surface.run(&all).map(|r| r.scalar());
    surface.table().len() == inputs.final_rows && counted == Some(inputs.final_rows as u64)
}

/// Per-class latency pools of one or more replays.
#[derive(Default)]
pub struct ClassPools {
    pub read: Pool,
    pub write: Pool,
}

impl ClassPools {
    /// Pool one replay's spans by read / write class.
    pub fn absorb(&mut self, inputs: &Inputs, lat_ns: &[u64]) {
        let of = |read: bool| {
            lat_ns
                .iter()
                .enumerate()
                .filter(move |(i, _)| inputs.is_read(*i) == read)
                .map(|(_, &ns)| ns)
        };
        self.read.extend(of(true));
        self.write.extend(of(false));
    }
}

/// Where the benchmark writes: next to its own executable, so everything
/// stays inside the checkout it was built in.
pub fn scratch_root() -> PathBuf {
    let root = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("casper-benchmark-scratch");
    std::fs::create_dir_all(&root).expect("scratch root is creatable");
    root
}

/// A fresh, empty directory under [`scratch_root`] for this process.
pub fn scratch_dir(name: &str) -> PathBuf {
    // The counter keeps concurrent users in one process (the self-tests)
    // apart; the pid keeps concurrent processes apart.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root().join(format!("{name}-{}-{n}", std::process::id()));
    // A stale directory from a killed run with a recycled pid must not make
    // `DurableTable::create` refuse.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

//! The traced run (`--trace 1`): where an operation's nanoseconds go.
//!
//! Layers are measured from outside by a **surface ladder**. The same seeded
//! stream is replayed on twin tables at successively lower public surfaces
//! (`DurableTable::execute`, `Table::execute`, `PartitionedChunk::*`) and
//! the spans are paired by operation index. A layer's self time for
//! operation *i* is its rung's span minus the next rung's span, clamped at
//! zero. Counts come from the `OpCost` / `WriteResult` the storage calls
//! return and from a separate pass with `casper_obs` engaged.

use crate::durable::{self, DurableRun};
use crate::e2e::Outcome;
use crate::harness::{
    build_baseline, build_casper, count_failed, drive, final_state_matches, Built, ClassPools,
    Inputs, RunLog, Surface,
};
use crate::metrics::Metrics;
use crate::stats::{median, Pool};
#[cfg(test)]
use crate::workloads::Workload;
use casper_core::CostConstants;
use casper_engine::calibrate::{calibrate, CalibrationConfig};
use casper_engine::column::ChunkStore;
use casper_engine::optimize::{capture_per_chunk, OptimizeReport};
use casper_engine::{LayoutMode, QueryResult, Table};
use casper_obs::MetricsSnapshot;
use casper_storage::{OpCost, PartitionedChunk, StorageError};
use casper_workload::HapQuery;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Chunks an operation touches: `first..=last` for a range, the owning
/// chunk twice for a point operation, source and target for a Q6.
#[derive(Debug, Clone, Copy)]
struct Route {
    first: u32,
    last: u32,
}

/// Route every operation with `ChunkedColumn::route_for`, outside any timed
/// region. Routing is static over a stream: only the last chunk's fence can
/// rise, which never changes the owner of a key.
fn routes(table: &Table, stream: &[HapQuery]) -> Vec<Route> {
    let column = table.column();
    let chunk_of = |key: u64| column.route_for(key).expect("ordered column routes") as u32;
    let fences = column.fences().expect("ordered column has fences");
    stream
        .iter()
        .map(|q| match q {
            HapQuery::Q1 { v, .. } | HapQuery::Q5 { v } => Route {
                first: chunk_of(*v),
                last: chunk_of(*v),
            },
            HapQuery::Q4 { key, .. } => Route {
                first: chunk_of(*key),
                last: chunk_of(*key),
            },
            HapQuery::Q6 { v, vnew } => Route {
                first: chunk_of(*v),
                last: chunk_of(*vnew),
            },
            HapQuery::Q2 { vs, ve } | HapQuery::Q3 { vs, ve, .. } => {
                let first = chunk_of(*vs) as usize;
                let mut last = first;
                while last + 1 < fences.len() && fences[last] < *ve {
                    last += 1;
                }
                Route {
                    first: first as u32,
                    last: last as u32,
                }
            }
        })
        .collect()
}

/// The storage rung: the table's chunk stores, cloned, driven directly.
struct StorageRung {
    chunks: Vec<PartitionedChunk<u64>>,
    /// Payload columns a Q1/Q3 of projectivity `k` reads: `0..k`.
    cols: Vec<usize>,
    /// What each operation cost: block accesses and partitions touched.
    costs: Vec<(OpCost, u64)>,
}

impl StorageRung {
    /// Clone every chunk store of a Casper-mode table.
    fn clone_of(table: &Table, k: usize, ops: usize) -> StorageRung {
        let chunks = table
            .column()
            .chunks()
            .iter()
            .map(|slot| match slot.get().expect("freshly built chunk") {
                ChunkStore::Partitioned(p) => p.clone(),
                other => panic!("Casper mode stores partitioned chunks, found {other:?}"),
            })
            .collect();
        StorageRung {
            chunks,
            cols: (0..k).collect(),
            costs: Vec::with_capacity(ops),
        }
    }

    /// Insert, growing a full chunk once: what the engine does.
    fn insert(
        chunk: &mut PartitionedChunk<u64>,
        key: u64,
        payload: &[u32],
    ) -> Result<(OpCost, u64), StorageError> {
        let r = match chunk.insert(key, payload) {
            Err(StorageError::ChunkFull { capacity }) => {
                chunk.grow((capacity / 10).max(64));
                chunk.insert(key, payload)
            }
            r => r,
        }?;
        Ok((r.cost, r.partitions_touched))
    }

    /// One operation at the storage surface, mirroring the engine's
    /// dispatch: same calls, same order, no routing, no publish.
    fn exec(&mut self, q: &HapQuery, route: Route) -> Option<QueryResult> {
        let done = self.dispatch(q, route);
        let (result, cost, touched) = match done {
            Some((r, c, t)) => (Some(r), c, t),
            None => (None, OpCost::default(), 0),
        };
        self.costs.push((cost, touched));
        result
    }

    fn dispatch(&mut self, q: &HapQuery, route: Route) -> Option<(QueryResult, OpCost, u64)> {
        let (first, last) = (route.first as usize, route.last as usize);
        Some(match q {
            HapQuery::Q1 { v, .. } => {
                let chunk = &self.chunks[first];
                let r = chunk.point_query(*v);
                let rows = r
                    .positions
                    .into_iter()
                    .map(|pos| chunk.payloads().gather_row(pos, &self.cols))
                    .collect();
                (QueryResult::Rows(rows), r.cost, 0)
            }
            HapQuery::Q2 { vs, ve } => {
                let (mut n, mut cost) = (0, OpCost::default());
                for chunk in &self.chunks[first..=last] {
                    let (c, oc) = chunk.range_count(*vs, *ve);
                    n += c;
                    cost.absorb(oc);
                }
                (QueryResult::Count(n), cost, 0)
            }
            HapQuery::Q3 { vs, ve, .. } => {
                let (mut sum, mut cost) = (0, OpCost::default());
                for chunk in &self.chunks[first..=last] {
                    let (s, oc) = chunk.range_sum_payload(*vs, *ve, &self.cols);
                    sum += s;
                    cost.absorb(oc);
                }
                (QueryResult::Sum(sum), cost, 0)
            }
            HapQuery::Q4 { key, payload } => {
                let (cost, touched) = Self::insert(&mut self.chunks[first], *key, payload).ok()?;
                (QueryResult::Affected(1), cost, touched)
            }
            HapQuery::Q5 { v } => {
                let r = self.chunks[first].delete(*v);
                (
                    QueryResult::Affected(r.affected),
                    r.cost,
                    r.partitions_touched,
                )
            }
            HapQuery::Q6 { v, vnew } if first == last => {
                let r = self.chunks[first].update(*v, *vnew).ok()?;
                (
                    QueryResult::Affected(r.affected),
                    r.cost,
                    r.partitions_touched,
                )
            }
            HapQuery::Q6 { v, vnew } => {
                // Cross-chunk: take one row out, insert it under the new key.
                let (row, r) = self.chunks[first].take_one(*v);
                let (mut cost, mut touched) = (r.cost, r.partitions_touched);
                let Some(row) = row else {
                    return Some((QueryResult::Affected(0), cost, touched));
                };
                let (c2, t2) = Self::insert(&mut self.chunks[last], *vnew, &row).ok()?;
                cost.absorb(c2);
                touched += t2;
                (QueryResult::Affected(1), cost, touched)
            }
        })
    }

    /// Live rows across the chunks, by count and by a scan of the domain.
    fn live_rows(&self) -> (usize, u64) {
        (
            self.chunks.iter().map(PartitionedChunk::live_len).sum(),
            self.chunks
                .iter()
                .map(|c| c.range_count(0, u64::MAX).0)
                .sum(),
        )
    }
}

/// Replay with no per-operation clock: the harness-spans-off throughput.
fn drive_unobserved(stream: &[HapQuery], surface: &mut impl Surface) -> f64 {
    let t = Instant::now();
    for q in stream {
        black_box(surface.run(q));
    }
    stream.len() as f64 / t.elapsed().as_secs_f64()
}

/// Counter increase between two `casper_obs` snapshots.
fn counter_delta(before: &Option<MetricsSnapshot>, after: &MetricsSnapshot, name: &str) -> f64 {
    let at = |s: &MetricsSnapshot| s.counter_family(name);
    (at(after) - before.as_ref().map_or(0, at)) as f64
}

/// Results of the pass with `casper_obs` engaged.
struct ObsPass {
    throughput: f64,
    before: Option<MetricsSnapshot>,
    after: MetricsSnapshot,
}

impl ObsPass {
    /// Replay with telemetry engaged. The surface is dropped while it still
    /// is, so a background checkpoint that completes on close is counted.
    fn run(stream: &[HapQuery], mut surface: impl Surface) -> ObsPass {
        let before = casper_obs::snapshot();
        casper_obs::enable();
        let log = drive(stream, |q| surface.run(q));
        drop(surface);
        casper_obs::disable();
        ObsPass {
            throughput: log.throughput(),
            before,
            after: casper_obs::snapshot().expect("registry exists once enabled"),
        }
    }

    fn delta(&self, name: &str) -> f64 {
        counter_delta(&self.before, &self.after, name)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A baseline layout mode on the stream's prefix: throughput and failures.
fn baseline(inputs: &Inputs, mode: LayoutMode) -> (f64, u64) {
    let n = inputs.workload.side_ops();
    let mut table = build_baseline(inputs, mode);
    let log = drive(&inputs.stream[..n], |q| table.run(q));
    (
        log.throughput(),
        count_failed(&log.results, &inputs.expected[..n]),
    )
}

/// The passes that only need the top surface: spans off, and telemetry on.
fn top_surface_passes<S: Surface>(inputs: &Inputs, open: impl Fn(Table) -> S) -> (f64, ObsPass) {
    let mut surface = open(build_casper(inputs).table);
    let unobserved = drive_unobserved(&inputs.stream, &mut surface);
    drop(surface);
    let obs = ObsPass::run(&inputs.stream, open(build_casper(inputs).table));
    (unobserved, obs)
}

/// One climb of the ladder: every rung's spans for the same stream.
struct Climb {
    load_s: f64,
    capture_s: f64,
    optimize_s: f64,
    report: OptimizeReport,
    engine: RunLog,
    storage: RunLog,
    costs: Vec<(OpCost, u64)>,
    /// `DurableTable::execute` spans and the create time (durable only).
    persist: Option<(RunLog, f64)>,
    /// Kept open on the first durable climb for the checkpoint / reopen probe.
    durable: Option<DurableRun>,
    /// Top-surface throughput of a further twin with no per-operation clock.
    unobserved: f64,
    /// Top-surface replay on a further twin with `casper_obs` engaged.
    obs: ObsPass,
    failed: u64,
    states_ok: bool,
}

impl Climb {
    /// The highest rung this workload has.
    fn top(&self) -> &RunLog {
        self.persist.as_ref().map_or(&self.engine, |(log, _)| log)
    }
}

/// Climb the ladder once. The passes that compare against the top rung
/// (clock off, telemetry on) are part of every climb, so that each ratio is
/// taken between replays a few seconds apart: throughput on this box drifts
/// by more than either overhead from one minute to the next.
fn climb(inputs: &Inputs, keep_durable: bool) -> Climb {
    let w = &inputs.workload;
    let stream = &inputs.stream;
    let Built {
        table: mut twin,
        load_s,
        optimize_s,
        report,
    } = build_casper(inputs);
    // Frequency-Model capture on its own (optimize_table repeats it inside).
    let t = Instant::now();
    black_box(capture_per_chunk(&twin, &inputs.sample));
    let capture_s = t.elapsed().as_secs_f64();
    let routes = routes(&twin, stream);
    let mut rung = StorageRung::clone_of(&twin, inputs.mix.generator().projectivity, stream.len());

    let engine = drive(stream, |q| twin.run(q));
    let mut failed = count_failed(&engine.results, &inputs.expected);
    let mut states_ok = final_state_matches(&mut twin, inputs);
    drop(twin);

    let mut op = 0;
    let storage = drive(stream, |q| {
        op += 1;
        rung.exec(q, routes[op - 1])
    });
    failed += count_failed(&storage.results, &inputs.expected);
    states_ok &= rung.live_rows() == (inputs.final_rows, inputs.final_rows as u64);

    let (mut persist, mut durable) = (None, None);
    if w.durable {
        let table = build_casper(inputs).table;
        let t = Instant::now();
        let mut run = DurableRun::create(w.name, table);
        let create_s = t.elapsed().as_secs_f64();
        let log = drive(stream, |q| run.run(q));
        failed += count_failed(&log.results, &inputs.expected);
        states_ok &= final_state_matches(&mut run, inputs);
        persist = Some((log, create_s));
        durable = keep_durable.then_some(run);
    }
    let (unobserved, obs) = if w.durable {
        top_surface_passes(inputs, |t| DurableRun::create(w.name, t))
    } else {
        top_surface_passes(inputs, |t| t)
    };
    Climb {
        load_s,
        capture_s,
        optimize_s,
        report,
        engine,
        storage,
        costs: rung.costs,
        persist,
        durable,
        unobserved,
        obs,
        failed,
        states_ok,
    }
}

/// Spans of one climb as JSON lines: `{name, op, class, start_ns, end_ns,
/// parent}`. Each rung has its own clock starting at 0 (the rungs ran one
/// after another on twin tables); `parent` names the rung above, whose span
/// with the same `op` is the one this span is subtracted from.
fn write_trace(path: &Path, inputs: &Inputs, climb: &Climb) -> std::io::Result<()> {
    let mut out = String::new();
    let mut rung = |name: &str, parent: &str, log: &RunLog| {
        let mut clock = 0u64;
        for (op, &ns) in log.lat_ns.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{name}\",\"op\":{op},\"class\":\"{}\",\"start_ns\":{clock},\"end_ns\":{},\"parent\":{parent}}}",
                inputs.stream[op].name(),
                clock + ns,
            );
            clock += ns;
        }
    };
    let mut top = "null";
    if let Some((log, _)) = &climb.persist {
        rung("persist.DurableTable::execute", top, log);
        top = "\"persist.DurableTable::execute\"";
    }
    rung("engine.Table::execute", top, &climb.engine);
    rung(
        "storage.PartitionedChunk",
        "\"engine.Table::execute\"",
        &climb.storage,
    );
    std::fs::write(path, out)
}

/// Per-class pools of one quantity, indexed by `HapQuery::index()`.
#[derive(Default)]
struct ByClass([Pool; 6]);

impl ByClass {
    fn absorb(&mut self, stream: &[HapQuery], values: impl Iterator<Item = u64>) {
        for (q, v) in stream.iter().zip(values) {
            self.0[q.index()].extend([v]);
        }
    }

    fn set_p50(&mut self, m: &mut Metrics, prefix: &str, suffix: &str) {
        for (i, pool) in self.0.iter_mut().enumerate() {
            m.set(
                &format!("{prefix}q{}{suffix}", i + 1),
                pool.percentile(0.50) as f64,
            );
        }
    }
}

/// Span-wise `upper - lower`, clamped at zero: the upper rung's self time.
fn self_times<'a>(upper: &'a RunLog, lower: &'a RunLog) -> impl Iterator<Item = u64> + 'a {
    upper
        .lat_ns
        .iter()
        .zip(&lower.lat_ns)
        .map(|(u, l)| u.saturating_sub(*l))
}

/// The fixed-size experiments beside the ladder.
struct Side {
    /// `calibrate(quick())` on this host, for the model residuals.
    calibrated: CostConstants,
    soa: (f64, u64),
    equi: f64,
    equigv: f64,
}

impl Side {
    fn run(inputs: &Inputs) -> Side {
        Side {
            calibrated: calibrate(&CalibrationConfig::quick()),
            soa: baseline(inputs, LayoutMode::StateOfArt),
            equi: baseline(inputs, LayoutMode::Equi).0,
            equigv: baseline(inputs, LayoutMode::EquiGV).0,
        }
    }
}

/// The rungs of all climbs paired by operation index: per-class pools of
/// spans and self times, and their sums.
#[derive(Default)]
struct Paired {
    top: ClassPools,
    storage_ns: ByClass,
    engine_self: ByClass,
    persist_self: ClassPools,
    top_sum: u64,
    storage_sum: u64,
    engine_sum: u64,
    engine_self_sum: u64,
    persist_self_sum: u64,
}

impl Paired {
    fn of(inputs: &Inputs, climbs: &[Climb]) -> Paired {
        let mut p = Paired::default();
        let sum = |log: &RunLog| log.lat_ns.iter().sum::<u64>();
        for c in climbs {
            let top = c.top();
            p.top.absorb(inputs, &top.lat_ns);
            p.top_sum += sum(top);
            p.storage_ns
                .absorb(&inputs.stream, c.storage.lat_ns.iter().copied());
            p.storage_sum += sum(&c.storage);
            let own: Vec<u64> = self_times(&c.engine, &c.storage).collect();
            p.engine_self_sum += own.iter().sum::<u64>();
            p.engine_self.absorb(&inputs.stream, own.into_iter());
            p.engine_sum += sum(&c.engine);
            if let Some((log, _)) = &c.persist {
                let own: Vec<u64> = self_times(log, &c.engine).collect();
                p.persist_self_sum += own.iter().sum::<u64>();
                p.persist_self.absorb(inputs, &own);
            }
        }
        p
    }

    /// Self times of all rungs over the top rung's busy time: 1 when the
    /// ladder closes, above 1 by what clamping at zero adds.
    fn closure(&self) -> f64 {
        ratio(
            (self.storage_sum + self.engine_self_sum + self.persist_self_sum) as f64,
            self.top_sum as f64,
        )
    }
}

/// Median over the climbs of one per-climb quantity.
fn med(climbs: &[Climb], f: impl Fn(&Climb) -> f64) -> f64 {
    median(&climbs.iter().map(f).collect::<Vec<_>>()).expect("at least one climb")
}

fn solve_s(c: &Climb) -> f64 {
    c.report.total_solve_nanos() as f64 / 1e9
}

fn core_metrics(m: &mut Metrics, climbs: &[Climb]) {
    let chunks = &climbs[0].report.chunks;
    m.set("core.fm_capture_s", med(climbs, |c| c.capture_s));
    m.set("core.solve_s", med(climbs, solve_s));
    m.set(
        "core.partitions",
        climbs[0].report.total_partitions() as f64,
    );
    m.set(
        "core.ghost_slots",
        chunks.iter().map(|c| c.ghosts).sum::<usize>() as f64,
    );
    m.set("core.est_cost_ns", chunks.iter().map(|c| c.est_cost).sum());
    m.set(
        "core.compressed_partitions",
        chunks
            .iter()
            .map(|c| c.compressed_partitions)
            .sum::<usize>() as f64,
    );
}

/// Storage metrics, and `core.model_residual.*`, which prices the storage
/// rung's `OpCost`s. Counts come from the first climb (they repeat exactly).
fn storage_metrics(
    m: &mut Metrics,
    inputs: &Inputs,
    climbs: &[Climb],
    paired: &mut Paired,
    side: &Side,
) {
    let first = &climbs[0];
    let mut by_class = [(OpCost::default(), 0.0f64); 6];
    let (mut total, mut read_cost) = (OpCost::default(), OpCost::default());
    let (mut touched, mut writes, mut matched, mut read_ns) = (0u64, 0u64, 0u64, 0.0);
    let ops = inputs.stream.iter().zip(&inputs.expected);
    for (((q, want), (cost, t)), &ns) in ops.zip(&first.costs).zip(&first.storage.lat_ns) {
        let class = &mut by_class[q.index()];
        class.0.absorb(*cost);
        class.1 += ns as f64;
        total.absorb(*cost);
        if q.is_read() {
            read_cost.absorb(*cost);
            matched += want.matched;
            read_ns += ns as f64;
        } else {
            touched += t;
            writes += 1;
        }
    }
    for (i, (cost, ns)) in by_class.iter().enumerate() {
        m.set(
            &format!("core.model_residual.q{}", i + 1),
            ratio(*ns, side.calibrated.nanos_of(cost)),
        );
    }
    m.set("storage.busy_s", med(climbs, |c| c.storage.busy_s()));
    paired.storage_ns.set_p50(m, "storage.", "_ns_p50");
    m.set("storage.random_reads", total.random_reads as f64);
    m.set("storage.random_writes", total.random_writes as f64);
    m.set("storage.seq_reads", total.seq_reads as f64);
    m.set("storage.seq_writes", total.seq_writes as f64);
    m.set("storage.index_probes", total.index_probes as f64);
    m.set("storage.values_scanned", total.values_scanned as f64);
    m.set(
        "storage.scanned_per_result",
        ratio(read_cost.values_scanned as f64, matched as f64),
    );
    m.set(
        "storage.scan_ns_per_value",
        ratio(read_ns, read_cost.values_scanned as f64),
    );
    m.set(
        "storage.partitions_touched_per_write",
        ratio(touched as f64, writes as f64),
    );
    let scans = climbs[0].obs.delta("casper_scan_partitions_total");
    m.set(
        "storage.zone_pruned_share",
        ratio(
            climbs[0].obs.delta("casper_zone_partitions_pruned_total"),
            scans,
        ),
    );
    m.set(
        "storage.compressed_hit_share",
        ratio(
            climbs[0]
                .obs
                .delta("casper_scan_partitions_total{path=\"compressed\"}"),
            scans,
        ),
    );
}

fn engine_metrics(
    m: &mut Metrics,
    inputs: &Inputs,
    climbs: &[Climb],
    paired: &mut Paired,
    side: &Side,
) {
    let w = &inputs.workload;
    let reads = inputs.stream.iter().filter(|q| q.is_read()).count();
    m.set("engine.busy_s", med(climbs, |c| c.engine.busy_s()));
    paired.engine_self.set_p50(m, "engine.", "_self_ns_p50");
    // From the rungs' totals, not from the clamped per-op differences, whose
    // sum counts the positive half of the noise as engine time.
    m.set(
        "engine.self_share",
        ratio(
            paired.engine_sum.saturating_sub(paired.storage_sum) as f64,
            paired.engine_sum as f64,
        ),
    );
    m.set("engine.load_s", med(climbs, |c| c.load_s));
    // Chunks solve in parallel, so the solve's share of the optimize wall
    // time is its summed time over the workers that ran it.
    let workers = w
        .engine_config(LayoutMode::Casper)
        .threads
        .min(climbs[0].report.chunks.len())
        .max(1) as f64;
    m.set(
        "engine.rebuild_s",
        med(climbs, |c| {
            (c.optimize_s - c.capture_s - solve_s(c) / workers).max(0.0)
        }),
    );
    m.set(
        "engine.chunks_routed_per_read",
        ratio(
            climbs[0].obs.delta("casper_query_chunks_routed_total"),
            reads as f64,
        ),
    );
    m.set(
        "engine.cow_copies",
        climbs[0].obs.delta("casper_write_cow_chunk_copies_total"),
    );
    m.set("engine.read_samples", paired.top.read.len() as f64);
    m.set("engine.write_samples", paired.top.write.len() as f64);
    // write_p50_us is end to end.
    m.set(
        "engine.read_p50_us",
        paired.top.read.percentile(0.50) as f64 / 1e3,
    );
    for (name, p) in [("p99", 0.99), ("p999", 0.999)] {
        m.set(
            &format!("engine.read_{name}_us"),
            paired.top.read.percentile(p) as f64 / 1e3,
        );
        m.set(
            &format!("engine.write_{name}_us"),
            paired.top.write.percentile(p) as f64 / 1e3,
        );
    }
    m.set("engine.calibrate.rr_ns", side.calibrated.rr);
    m.set("engine.calibrate.rw_ns", side.calibrated.rw);
    m.set("engine.calibrate.sr_ns", side.calibrated.sr);
    m.set("engine.calibrate.sw_ns", side.calibrated.sw);
    m.set("engine.mode.soa.throughput_ops_s", side.soa.0);
    m.set("engine.mode.equi.throughput_ops_s", side.equi);
    m.set("engine.mode.equigv.throughput_ops_s", side.equigv);
    m.set("engine.mode.soa.ops_failed", side.soa.1 as f64);
    // Casper on the same prefix the baselines replayed.
    let prefix_ns: u64 = climbs[0].engine.lat_ns[..w.side_ops()].iter().sum();
    m.set(
        "engine.casper_vs_soa",
        ratio(w.side_ops() as f64 / (prefix_ns as f64 / 1e9), side.soa.0),
    );
}

/// Persist metrics of the durable workload; returns the acknowledged writes
/// the crash check found missing.
fn persist_metrics(
    m: &mut Metrics,
    inputs: &Inputs,
    climbs: &[Climb],
    paired: &mut Paired,
    mut run: DurableRun,
) -> u64 {
    let stream = &inputs.stream;
    fn persist(c: &Climb) -> &(RunLog, f64) {
        c.persist.as_ref().expect("durable climbs have the rung")
    }
    m.set("persist.busy_s", med(climbs, |c| persist(c).0.busy_s()));
    m.set("persist.create_s", med(climbs, |c| persist(c).1));
    m.set(
        "persist.write_self_us_p50",
        paired.persist_self.write.percentile(0.50) as f64 / 1e3,
    );
    m.set(
        "persist.read_self_ns_p50",
        paired.persist_self.read.percentile(0.50) as f64,
    );
    let mut wal = durable::wal_alone(stream);
    m.set(
        "persist.wal_stage_ns_p50",
        wal.stage_ns.percentile(0.50) as f64,
    );
    m.set(
        "persist.wal_seal_us_p50",
        wal.seal_ns.percentile(0.50) as f64 / 1e3,
    );
    m.set(
        "persist.wal_seal_us_p99",
        wal.seal_ns.percentile(0.99) as f64 / 1e3,
    );
    m.set(
        "persist.fsyncs",
        climbs[0].obs.delta("casper_wal_fsyncs_total"),
    );
    // From the WAL-alone rung: same encoder, same writes, same batches.
    let writes = stream.iter().filter(|q| !q.is_read()).count();
    let wal_bytes = wal.bytes_per_write * writes as f64;
    m.set("persist.wal_bytes", wal_bytes);
    let row_bytes = inputs.mix.generator().schema().row_bytes();
    let user_bytes: u64 = stream
        .iter()
        .map(|q| durable::user_bytes(q, row_bytes))
        .sum();
    m.set(
        "persist.write_amp",
        ratio(
            wal_bytes + climbs[0].obs.delta("casper_checkpoint_segment_bytes_total"),
            user_bytes as f64,
        ),
    );
    let stall_ns = climbs
        .iter()
        .flat_map(|c| persist(c).0.lat_ns.iter().enumerate())
        .filter(|(i, _)| !inputs.is_read(*i))
        .map(|(_, &ns)| ns)
        .max()
        .unwrap_or(0);
    m.set("persist.commit_stall_us_max", stall_ns as f64 / 1e3);
    let p = durable::probe(&mut run, inputs);
    drop(run);
    m.set("persist.checkpoints", p.checkpoints as f64);
    m.set("persist.checkpoint_full_s", p.checkpoint_full_s);
    m.set("persist.checkpoint_incr_s", p.checkpoint_incr_s);
    m.set("persist.space_amp", p.space_amp);
    m.set("persist.open_s", p.open_s);
    m.set("persist.first_query_us", p.first_query_us);
    m.set("persist.replayed_ops", p.replayed_ops as f64);
    let lost = durable::acked_writes_lost(inputs, build_casper(inputs).table);
    m.set("persist.acked_lost", lost as f64);
    lost
}

/// Run the traced ladder for about `seconds`. `q6_probe_failed` is the
/// caller's count of the Q6 payload probe, reported here as a metric.
pub fn run(inputs: &Inputs, q6_probe_failed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let clock = Instant::now();
    // Fixed-size side experiments first; the ladder is then climbed until
    // the time is up.
    let side = Side::run(inputs);
    let side_s = clock.elapsed().as_secs_f64();
    let mut climbs = vec![climb(inputs, true)];
    // Climb again while more than half of another climb fits.
    let another_fits = |done: usize| {
        let spent = clock.elapsed().as_secs_f64();
        spent + 0.5 * (spent - side_s) / done as f64 <= seconds
    };
    while another_fits(climbs.len()) {
        climbs.push(climb(inputs, false));
    }
    let durable_run = climbs[0].durable.take();
    let mut paired = Paired::of(inputs, &climbs);

    let mut m = Metrics::default();
    m.set("workload.generate_s", inputs.generate_s);
    core_metrics(&mut m, &climbs);
    storage_metrics(&mut m, inputs, &climbs, &mut paired, &side);
    m.set("storage.q6_payload_probe_failed", q6_probe_failed as f64);
    engine_metrics(&mut m, inputs, &climbs, &mut paired, &side);
    let acked_lost = durable_run.map_or(0, |run| {
        persist_metrics(&mut m, inputs, &climbs, &mut paired, run)
    });
    // The cost of looking: telemetry engaged, and the harness's own clock.
    m.set(
        "obs.overhead_ratio",
        med(&climbs, |c| ratio(c.obs.throughput, c.top().throughput())),
    );
    m.set(
        "obs.harness_overhead_ratio",
        med(&climbs, |c| ratio(c.top().throughput(), c.unobserved)),
    );

    let trace_written = write_trace(trace_path, inputs, &climbs[0]).is_ok();
    let failed = climbs.iter().map(|c| c.failed).sum::<u64>() + acked_lost;
    let rungs = if inputs.workload.durable { 3 } else { 2 };
    Outcome {
        correct: failed == 0 && climbs.iter().all(|c| c.states_ok) && trace_written,
        attempted: (climbs.len() * inputs.stream.len() * rungs) as u64,
        failed,
        metrics: m,
        notes: vec![
            ("climbs".to_string(), climbs.len() as f64),
            ("ladder_closure".to_string(), paired.closure()),
            ("measured_s".to_string(), clock.elapsed().as_secs_f64()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn ladder_twins_stay_state_identical() {
        // Every rung replays the same stream on its own twin; all of them
        // must end in the model's state (equal len(), equal Q2 over the
        // domain) with every answer agreeing on the way.
        for w in WORKLOADS.map(Workload::quick) {
            let c = climb(&Inputs::prepare(w, 7), false);
            assert_eq!(c.failed, 0, "{}", w.name);
            assert!(c.states_ok, "{}", w.name);
            assert_eq!(c.costs.len(), c.engine.lat_ns.len(), "{}", w.name);
            assert_eq!(c.persist.is_some(), w.durable, "{}", w.name);
        }
    }

    #[test]
    fn routes_cover_ranges_that_span_chunks() {
        let w = Workload::by_name("hybrid_range").unwrap().quick();
        let inputs = Inputs::prepare(w, 7);
        let table = build_casper(&inputs).table;
        let all = HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        };
        let r = routes(&table, &[all])[0];
        assert_eq!(
            (r.first, r.last as usize),
            (0, table.column().chunks().len() - 1)
        );
    }
}

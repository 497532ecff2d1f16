//! The optimization pipeline of Fig. 10: (A) learn the Frequency Model from
//! a workload sample, (B) solve the layout problem, (C) apply the physical
//! layout — per chunk, in parallel (§6.3).
//!
//! "The histograms are created per chunk, and, similarly, design decisions
//! are made for each chunk without any need for communication with other
//! chunks. This allows us to arbitrarily reduce the partitioning
//! complexity."

use crate::column::{chunk_block_fences, rebuild_partitioned, reserve_slots, ChunkStore};
use crate::exec::{parallel_for_each_mut, parallel_map};
use crate::modes::LayoutMode;
use crate::table::Table;
use casper_core::cost::choose_orientation;
use casper_core::fm::FmBuilder;
use casper_core::ghost_alloc::split_column_budget;
use casper_core::solver::{LayoutOptimizer, SolverConstraints};
use casper_core::{BlockGeometry, CostConstants, FrequencyModel, Op, Projectivity};
use casper_storage::{BlockLayout, ChunkLayout, PayloadOrientation};
use casper_workload::HapQuery;
use std::time::Instant;

/// Optimization options.
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Cost constants, per 64-byte line. The solver scales them to each
    /// chunk's blocks and rows ([`layout_optimizer`]). `calibrate()` measures
    /// `sr`/`sw` per block; `calibrate_per_line()` restates them for here.
    pub constants: CostConstants,
    /// SLA-derived structural constraints.
    pub constraints: SolverConstraints,
    /// Ghost budget as a fraction of the column's live rows. Together with
    /// `EngineConfig.capacity_slack` it forms one column-scope reserve of
    /// empty slots, placed as ghosts by Eq. 18: split across chunks, then
    /// across partitions, by the data movement the sample sends each.
    pub ghost_budget_frac: f64,
    /// Cap Casper's partition count at the Equi baseline's (§7 fairness:
    /// "we allow Casper to have as many partitions as the equi-width
    /// partitioning schemes").
    pub fairness_cap: bool,
    /// Worker threads for the per-chunk solves.
    pub threads: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        Self {
            constants: CostConstants::paper(),
            constraints: SolverConstraints::none(),
            ghost_budget_frac: 0.001,
            fairness_cap: true,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// Per-chunk outcome of one optimization pass.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Chunk index.
    pub chunk: usize,
    /// The layout the chunk was rebuilt with: the solver's partitions,
    /// their ghost slots, and the payload orientation chosen from the
    /// chunk's Frequency Model before the solve.
    pub layout: ChunkLayout,
    /// Ghost slots allocated.
    pub ghosts: usize,
    /// Modeled workload cost of the chosen layout (ns).
    pub est_cost: f64,
    /// Wall time of the solve (ns), excluding the rebuild.
    pub solve_nanos: u64,
    /// Always 0: a partition keeps one copy of its keys, the chunk's key
    /// lane, and nothing encodes a second one. Kept because the repo
    /// benchmark reports it as `core.compressed_partitions`.
    pub compressed_partitions: usize,
}

/// Outcome of a whole optimization pass.
#[derive(Debug, Clone, Default)]
pub struct OptimizeReport {
    /// Per-chunk details.
    pub chunks: Vec<ChunkReport>,
    /// The per-chunk Frequency Models the layout was solved for, captured
    /// against the chunking actually re-laid-out (after any `NoOrder`
    /// conversion) — what a persistence layer stores beside the layout.
    pub fms: Vec<FrequencyModel>,
}

impl OptimizeReport {
    /// Total solver wall time across chunks (the Fig. 11 quantity; note
    /// chunks solve in parallel, so elapsed time is lower).
    pub fn total_solve_nanos(&self) -> u64 {
        self.chunks.iter().map(|c| c.solve_nanos).sum()
    }

    /// Total partitions across chunks.
    pub fn total_partitions(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.layout.spec().partition_count())
            .sum()
    }
}

/// The payload attributes `sample`'s reads project, each at most `width`:
/// the largest Q1 `k` and the largest Q3 `k` (0 without such a read).
fn sample_projectivity(sample: &[HapQuery], width: usize) -> Projectivity {
    let mut proj = Projectivity::default();
    for q in sample {
        match *q {
            HapQuery::Q1 { k, .. } => proj.point = proj.point.max(k.min(width)),
            HapQuery::Q3 { k, .. } => proj.range = proj.range.max(k.min(width)),
            _ => {}
        }
    }
    proj
}

/// The optimizer `optimize_table` solves one of `table`'s chunks with
/// when its payload is laid out in `orientation`: `opts`' constants at
/// the lines per block and per row of the chunk's block size and of its
/// key plus the payload lines a slot write touches in `orientation`
/// ([`BlockGeometry::of_chunk`]), under `opts.constraints` and, when
/// `opts.fairness_cap` is set, at most `equi_partitions` partitions.
/// [`LayoutOptimizer::terms`] then prices the chunk at its reserve.
pub fn layout_optimizer(
    table: &Table,
    opts: &OptimizeOptions,
    orientation: PayloadOrientation,
) -> LayoutOptimizer {
    let column = table.column();
    let fairness = opts.fairness_cap.then_some(column.config().equi_partitions);
    let constraints = SolverConstraints {
        max_partitions: match (opts.constraints.max_partitions, fairness) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        },
        max_partition_blocks: opts.constraints.max_partition_blocks,
    };
    LayoutOptimizer {
        constants: opts.constants,
        geometry: BlockGeometry::of_chunk(
            column.config().block_bytes,
            column.payload_width(),
            orientation,
        ),
        orientation,
        constraints,
    }
}

/// The optimizer and the ghost budget each of `table`'s chunks is solved
/// with, for its Frequency Model in `fms` (captured from `sample`).
///
/// - The budget is the chunk's share of the column's empty-slot reserve
///   (ghost budget plus the slack a dense chunk would keep in its tail),
///   split across the chunks by Eq. 18.
/// - The optimizer is [`layout_optimizer`]'s at the payload orientation
///   whose lines cost the chunk's operations less under `opts.constants`,
///   at the projectivity of `sample`'s reads ([`choose_orientation`]; ties
///   stay column-major).
pub(crate) fn chunk_optimizers(
    table: &Table,
    fms: &[FrequencyModel],
    sample: &[HapQuery],
    opts: &OptimizeOptions,
) -> Vec<(LayoutOptimizer, usize)> {
    let column = table.column();
    let config = column.config();
    let sizes: Vec<usize> = column.chunks().iter().map(|s| s.len()).collect();
    let reserve = sizes
        .iter()
        .map(|&n| reserve_slots(n, opts.ghost_budget_frac, config));
    let budgets = split_column_budget(fms, &sizes, reserve.sum());
    let vpb = BlockLayout::new::<u64>(config.block_bytes).values_per_block();
    let width = column.payload_width();
    let proj = sample_projectivity(sample, width);
    fms.iter()
        .zip(budgets)
        .map(|(fm, budget)| {
            let orientation = choose_orientation(fm, &opts.constants, width, vpb, proj);
            (layout_optimizer(table, opts, orientation), budget)
        })
        .collect()
}

/// Build the per-chunk Frequency Models from a workload sample: each
/// operation is recorded in the chunk(s) its key endpoints route to, with
/// ranges clipped at chunk boundaries and cross-chunk updates decomposed
/// into a delete plus an insert.
pub fn capture_per_chunk(table: &Table, sample: &[HapQuery]) -> Vec<FrequencyModel> {
    let block_bytes = table.column().config().block_bytes;
    // Capture walks every chunk's sorted keys, so the column must be fully
    // hydrated (optimize_table's backstop hydration guarantees this on the
    // optimizer path).
    let stores: Vec<&ChunkStore> = table
        .column()
        .chunks()
        .iter()
        .map(|s| {
            s.store_opt()
                .expect("frequency capture requires hydrated chunks")
        })
        .collect();
    // Per-chunk fences and key coverage. Chunk routing bounds: the first
    // key of each chunk; the next chunk's first key serves as the
    // exclusive upper limit.
    let fences = stores.iter().map(|s| chunk_block_fences(s, block_bytes));
    let (firsts, mut builders): (Vec<u64>, Vec<FmBuilder<u64>>) =
        fences.map(|f| (f[0], FmBuilder::from_fences(f))).unzip();
    let route = |key: u64| -> usize {
        match firsts.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    };
    let upper = |chunk: usize| -> u64 { firsts.get(chunk + 1).copied().unwrap_or(u64::MAX) };
    for q in sample {
        match q.key_op() {
            Op::Point(v) => builders[route(v)].record_point(v),
            Op::Insert(v) => builders[route(v)].record_insert(v),
            Op::Delete(v) => builders[route(v)].record_delete(v),
            Op::Range(lo, hi) => {
                let mut c = route(lo);
                let mut lo = lo;
                loop {
                    let hi_c = upper(c).min(hi);
                    if lo < hi_c {
                        builders[c].record_range(lo, hi_c);
                    }
                    if hi <= upper(c) || c + 1 >= builders.len() {
                        break;
                    }
                    lo = upper(c);
                    c += 1;
                }
            }
            Op::Update(old, new) => {
                let (a, b) = (route(old), route(new));
                if a == b {
                    builders[a].record_update(old, new);
                } else {
                    builders[a].record_delete(old);
                    builders[b].record_insert(new);
                }
            }
        }
    }
    builders.into_iter().map(FmBuilder::finish).collect()
}

/// Optimize a table's layout for a workload sample (Fig. 10 A→B→C).
///
/// Converts the table to Casper-mode partitioned chunks regardless of its
/// previous mode; unordered (`NoOrder`) tables are first re-chunked in key
/// order. Either way the re-layout is an ordinary write: reader handles
/// stay valid and every rebuilt chunk's version counter moves forward.
pub fn optimize_table(
    table: &mut Table,
    sample: &[HapQuery],
    opts: &OptimizeOptions,
) -> OptimizeReport {
    // A lazily-restored column must be fully decoded before the rebuild
    // sweep (the optimizer reads and rewrites every chunk). `DurableTable`
    // hydrates with typed error handling before reaching here; this is the
    // backstop for direct engine users.
    table.column_mut().hydrate_all().expect(
        "corrupt persisted chunk surfaced during optimize; open the table eagerly to diagnose",
    );
    // Unordered columns cannot be range-partitioned as they are: re-chunk
    // in key order first (in place — the column keeps its readers and its
    // version history).
    if table.column().config().mode == LayoutMode::NoOrder {
        table
            .column_mut()
            .convert_to_ordered()
            .expect("optimize hydrated the column, so chunk access cannot fail");
    }

    let fms = capture_per_chunk(table, sample);
    let config = *table.column().config();
    // The column's empty-slot reserve goes where the sample's inserts and
    // incoming updates land: Eq. 18 across chunks here, then across each
    // chunk's partitions in `optimize`. Physical slots stay the same. Each
    // chunk's payload orientation is chosen from its own Frequency Model,
    // and its layout is then solved once, at that orientation's geometry
    // and with the ripple charge its reserve leaves.
    let optimizers = chunk_optimizers(table, &fms, sample, opts);

    // Solve every chunk in parallel (§6.3's embarrassingly parallel
    // decomposition), then apply the layouts.
    let decisions = parallel_map(&optimizers, opts.threads, |i, (optimizer, budget)| {
        let t = Instant::now();
        let d = optimizer.optimize(&fms[i], *budget);
        (d, t.elapsed().as_nanos() as u64)
    });

    let mut report = OptimizeReport::default();
    for (i, (decision, solve_nanos)) in decisions.into_iter().enumerate() {
        report.chunks.push(ChunkReport {
            chunk: i,
            ghosts: decision.layout.ghost_total(),
            layout: decision.layout,
            est_cost: decision.est_cost,
            solve_nanos,
            compressed_partitions: 0,
        });
    }
    // Step C: materialize the new layouts. Rebuilds are independent per
    // chunk (extract → re-sort → re-partition), so they stripe across the
    // same worker budget as the solve.
    let mut stores = table
        .column_mut()
        .chunks_mut()
        .expect("optimize hydrated the column, so chunk access cannot fail");
    parallel_for_each_mut(&mut stores, opts.threads, |i, store| {
        **store = rebuild_partitioned(store, &report.chunks[i].layout, &config);
    });
    drop(stores);
    // Each chunk's access window starts with the layout now in force.
    table.column().start_access_windows(&fms);
    // Re-layout replaced chunk stores wholesale: hand readers the new ones.
    table.column_mut().publish();
    report.fms = fms;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{EngineConfig, LayoutMode};
    use casper_workload::{HapSchema, KeyDist, Mix, MixKind, WorkloadGenerator};

    fn test_table(mode: LayoutMode) -> Table {
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 4000, KeyDist::Uniform);
        let mut config = EngineConfig::small(mode);
        config.chunk_values = 1024; // force several chunks
        Table::load_from_generator(&gen, config)
    }

    #[test]
    fn capture_routes_ops_to_chunks() {
        let table = test_table(LayoutMode::Casper);
        let sample = vec![
            HapQuery::Q1 { v: 10, k: 1 },   // chunk 0
            HapQuery::Q1 { v: 7990, k: 1 }, // last chunk
            HapQuery::Q4 {
                key: 11,
                payload: vec![],
            },
        ];
        let fms = capture_per_chunk(&table, &sample);
        assert_eq!(fms.len(), table.column().chunk_count());
        assert!(fms[0].pq.iter().sum::<f64>() >= 1.0);
        assert!(fms.last().unwrap().pq.iter().sum::<f64>() >= 1.0);
        assert!(fms[0].ins.iter().sum::<f64>() >= 1.0);
        for fm in &fms {
            fm.validate().unwrap();
        }
    }

    #[test]
    fn capture_clips_ranges_across_chunks() {
        let table = test_table(LayoutMode::Casper);
        // One huge range covering every chunk.
        let sample = vec![HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        }];
        let fms = capture_per_chunk(&table, &sample);
        for (i, fm) in fms.iter().enumerate() {
            assert!(
                fm.rs.iter().sum::<f64>() >= 1.0,
                "chunk {i} missing its clipped range start"
            );
        }
    }

    #[test]
    fn cross_chunk_update_becomes_delete_plus_insert() {
        let table = test_table(LayoutMode::Casper);
        let sample = vec![HapQuery::Q6 { v: 10, vnew: 7991 }];
        let fms = capture_per_chunk(&table, &sample);
        assert!(fms[0].de.iter().sum::<f64>() >= 1.0);
        assert!(fms.last().unwrap().ins.iter().sum::<f64>() >= 1.0);
    }

    #[test]
    fn optimize_improves_modeled_cost_and_keeps_results() {
        let mut table = test_table(LayoutMode::Casper);
        let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 4000);
        let sample = mix.generate(800, 5);
        // Reference results before optimization — read-only probes, so the
        // two executions compare the same logical table.
        let probes: Vec<_> = mix
            .generate(400, 6)
            .into_iter()
            .filter(|q| q.is_read())
            .collect();
        let scalars = |table: &mut Table| -> Vec<u64> {
            let outs = probes.iter().map(|q| table.execute(q).unwrap());
            outs.map(|o| o.result.scalar()).collect()
        };
        let before = scalars(&mut table);
        let report = optimize_table(&mut table, &sample, &OptimizeOptions::default());
        assert_eq!(report.chunks.len(), table.column().chunk_count());
        assert!(report.total_partitions() >= table.column().chunk_count());
        // Logical results unchanged by a physical re-layout.
        assert_eq!(before, scalars(&mut table));
    }

    #[test]
    fn optimize_converts_noorder_tables() {
        let mut table = test_table(LayoutMode::NoOrder);
        let mix = Mix::new(MixKind::ReadOnlySkewed, HapSchema::narrow(), 4000);
        let sample = mix.generate(300, 9);
        let len = table.len();
        optimize_table(&mut table, &sample, &OptimizeOptions::default());
        assert_eq!(table.len(), len);
        assert_eq!(table.column().config().mode, LayoutMode::Casper);
        // Point queries still correct after conversion.
        let out = table.execute(&HapQuery::Q1 { v: 100, k: 1 }).unwrap();
        assert_eq!(out.result.scalar(), 1);
    }

    #[test]
    fn read_only_workload_stays_correct() {
        let mut table = test_table(LayoutMode::Casper);
        let mix = Mix::new(MixKind::ReadOnlySkewed, HapSchema::narrow(), 4000);
        let sample = mix.generate(500, 3);
        let report = optimize_table(&mut table, &sample, &OptimizeOptions::default());
        assert!(report.chunks.iter().all(|c| c.compressed_partitions == 0));
        // Reads over the re-laid-out table are bit-exact.
        let out = table.execute(&HapQuery::Q1 { v: 100, k: 1 }).unwrap();
        assert_eq!(out.result.scalar(), 1);
        let all = HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        };
        let n = table.execute(&all).unwrap().result.scalar();
        assert_eq!(n as usize, table.len());
        let payload = vec![7u32; table.column().payload_width()];
        table.execute(&HapQuery::Q4 { key: 101, payload }).unwrap();
        let out = table.execute(&HapQuery::Q1 { v: 101, k: 1 }).unwrap();
        assert_eq!(out.result.scalar(), 1);
    }

    /// The orientations the chooser picks for `kind`'s sample on a
    /// four-chunk narrow table, with each chunk's write mass.
    fn chosen(kind: MixKind) -> Vec<(PayloadOrientation, f64)> {
        let mix = Mix::new(kind, HapSchema::narrow(), 65_536);
        let mut config = EngineConfig::small(LayoutMode::Casper);
        config.chunk_values = 16 * 1024;
        let table = Table::load_from_generator(mix.generator(), config);
        let sample = mix.generate(2000, 21);
        oriented(&table, &sample)
    }

    fn oriented(table: &Table, sample: &[HapQuery]) -> Vec<(PayloadOrientation, f64)> {
        let fms = capture_per_chunk(table, sample);
        let writes = fms.iter().map(|fm| {
            let sum = |h: &[f64]| h.iter().sum::<f64>();
            sum(&fm.ins) + sum(&fm.de) + sum(&fm.udf) + sum(&fm.udb)
        });
        // The default options price at the paper's constants.
        chunk_optimizers(table, &fms, sample, &OptimizeOptions::default())
            .into_iter()
            .map(|(o, _)| o.orientation)
            .zip(writes)
            .collect()
    }

    #[test]
    fn range_sums_keep_every_chunk_column_major() {
        let chunks = chosen(MixKind::HybridRangeSkewed);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().any(|&(_, w)| w > 0.0), "{chunks:?}");
        for (o, _) in chunks {
            assert_eq!(o, PayloadOrientation::Columns);
        }
    }

    #[test]
    fn written_chunks_turn_row_major() {
        for kind in [MixKind::UpdateOnlyUniform, MixKind::HybridPointSkewed] {
            let chunks = chosen(kind);
            assert!(chunks.iter().any(|&(_, w)| w > 0.0), "{kind:?}");
            for (o, writes) in chunks {
                let want = if writes > 0.0 {
                    PayloadOrientation::Rows
                } else {
                    PayloadOrientation::Columns
                };
                assert_eq!(o, want, "{kind:?}: a chunk of {writes} writes");
            }
        }
    }

    #[test]
    fn counts_alone_tie_and_stay_column_major() {
        let table = test_table(LayoutMode::Casper);
        let sample: Vec<HapQuery> = (0..500u64)
            .map(|i| HapQuery::Q2 {
                vs: i * 13,
                ve: i * 13 + 400,
            })
            .collect();
        assert_eq!(
            sample_projectivity(&sample, table.column().payload_width()),
            Projectivity::default()
        );
        for (o, _) in oriented(&table, &sample) {
            assert_eq!(o, PayloadOrientation::Columns);
        }
    }

    #[test]
    fn optimize_reports_and_builds_the_chosen_orientation() {
        let mix = Mix::new(MixKind::UpdateOnlyUniform, HapSchema::narrow(), 4000);
        let mut table = test_table(LayoutMode::Casper);
        let report = optimize_table(
            &mut table,
            &mix.generate(800, 4),
            &OptimizeOptions::default(),
        );
        let stores = table
            .column()
            .chunks()
            .iter()
            .map(|s| s.store_opt().unwrap());
        for (chunk, store) in report.chunks.iter().zip(stores) {
            assert_eq!(store.payload_orientation(), chunk.layout.payload());
        }
        assert!(report
            .chunks
            .iter()
            .any(|c| c.layout.payload() == PayloadOrientation::Rows));
    }

    #[test]
    fn fairness_cap_limits_partitions() {
        let mut table = test_table(LayoutMode::Casper);
        let mix = Mix::new(MixKind::ReadOnlySkewed, HapSchema::narrow(), 4000);
        let sample = mix.generate(500, 11);
        let opts = OptimizeOptions::default();
        let report = optimize_table(&mut table, &sample, &opts);
        let cap = table.column().config().equi_partitions;
        for c in &report.chunks {
            let parts = c.layout.spec().partition_count();
            assert!(parts <= cap, "chunk {} has {parts} partitions", c.chunk);
        }
    }
}

//! The paper's evaluation (§7) as checked claims.
//!
//! Each row states one figure's qualitative claim as a deterministic
//! assertion: over exact storage `OpCost` block counts, or over the §4 cost
//! model's modeled cost under `CostConstants::paper()` (one cache line per
//! constant, scaled to a table's blocks and rows by `BlockGeometry` where a
//! row re-lays out a table). No row times
//! anything, so a noisy host cannot turn one red. Whether the host *delivers*
//! what the model promises is the judge's business (`benchmark/`), and the
//! gap between the two is the model residual it reports.
//!
//! Every figure of the paper, and where its claim is checked:
//!
//! | Figure    | Claim                                              | Checked by |
//! |-----------|----------------------------------------------------|------------|
//! | Fig. 1    | Casper beats the five baselines on a hybrid mix     | judge: `engine.mode.*`, `engine.casper_vs_soa` and the surface ladder (`benchmark/README.md`) |
//! | Fig. 2a   | partitions cheapen reads and make inserts dearer    | row (a) `fig02a_*` |
//! | Fig. 2b   | ghost values trade memory for write cost            | rows (e) `fig14_*` and (h) `fig02b_*` |
//! | Fig. 2c   | partitioning and compression compound               | not reproduced: a partition keeps one copy of its keys, a chunk-wide 32-bit offset lane, so finer partitions do not yet narrow it; per-partition frames would (`ROADMAP.md`, one key representation per partition) |
//! | Figs. 3–8 | diagrams of the layout and the cost model           | no measured claim |
//! | Fig. 9a   | insert cost is linear in trailing partitions        | row (b) `fig09a_*` |
//! | Fig. 9b   | point-query cost is linear in partition size        | row (c) `fig09b_*` |
//! | Fig. 9c   | compressed scans beat decode-then-scan              | not reproduced: no encoded copy is kept beside the slots, so there is no decode to beat; the key lane is scanned in its stored form |
//! | Fig. 9d   | bounds-pruned / blind / filtered scans match the model | `casper-core` `cost::verify` unit tests |
//! | Fig. 10   | architecture diagram                                | no measured claim |
//! | Fig. 11   | the solver scales to large chunks                   | `benches/solver.rs` `dp_solve`; judge `core.solve_s` |
//! | Fig. 12   | Casper's layout beats the baselines on six mixes    | row (d) `fig12_*` for Equi / Equi-GV; judge `engine.casper_vs_soa` for SoA / Sorted / No Order |
//! | Fig. 13   | where each mode's latency goes                      | judge: `engine.mode.*` and the surface ladder |
//! | Fig. 14   | ghost values cut insert cost; 1 % halves it         | row (e) `fig14_*`; row (h) `fig02b_*` places the reserve by Eq. 18 |
//! | Fig. 15   | an insert SLA is met by capping partitions (Eq. 21) | row (f) `fig15_*` |
//! | Fig. 16   | robustness to workload drift                        | `casper-core` `robust::tests::{large_rotation_degrades_small_rotation_absorbed, minmax_layout_bounds_worst_case}` |
//! | Table 1   | the six modes span the layout design space          | row (g) `table01_*` |
//! | §4.6      | a row-major chunk is charged only the ripple its reserve cannot absorb | row (i) `sec46_*` |
//!
//! Run with `cargo test --test paper_claims`.

use casper::core::cost::{cost_of_segmentation, predicted_point_access, trail_parts, BlockTerms};
use casper::core::fm::FmBuilder;
use casper::core::ghost_alloc::{allocate_ghosts, uncovered_share};
use casper::core::solver::{sla, LayoutOptimizer};
use casper::core::{BlockGeometry, CostConstants, FrequencyModel, Op};
use casper::engine::column::ChunkStore;
use casper::engine::optimize::{layout_optimizer, optimize_table, OptimizeOptions, OptimizeReport};
use casper::engine::{EngineConfig, LayoutMode, Table};
use casper::storage::{
    BlockLayout, ChunkConfig, ChunkLayout, OpCost, PartitionSpec, PartitionedChunk,
    PayloadOrientation, MIN_TAIL_SLOTS,
};
use casper::workload::{HapSchema, Mix, MixKind};

/// Unit constants that turn a modeled cost into a block count of one
/// access class: under `RR_ONLY` the model's cost *is* its random-read
/// count, and so on.
const RR_ONLY: CostConstants = CostConstants {
    rr: 1.0,
    rw: 0.0,
    sr: 0.0,
    sw: 0.0,
};
const RW_ONLY: CostConstants = CostConstants {
    rr: 0.0,
    rw: 1.0,
    sr: 0.0,
    sw: 0.0,
};
const SR_ONLY: CostConstants = CostConstants {
    rr: 0.0,
    rw: 0.0,
    sr: 1.0,
    sw: 0.0,
};

/// Modeled cost (Eq. 16) of `seg` for the workload `fm` under `c`, at the
/// unit geometry (a block and a row are one line each).
fn modeled(fm: &FrequencyModel, seg: &PartitionSpec, c: &CostConstants) -> f64 {
    cost_of_segmentation(seg, &BlockTerms::from_fm(fm, c))
}

/// Even keys `0, 2, 4, …` filling `n_blocks` blocks exactly, so every odd
/// key is a fresh insert and the value of rank `r` is `2r`.
fn even_chunk(
    blocks: BlockLayout,
    layout: &ChunkLayout,
    config: ChunkConfig,
) -> PartitionedChunk<u64> {
    let values = layout.spec().n_blocks() * blocks.values_per_block();
    let keys = (0..values as u64).map(|v| 2 * v).collect();
    PartitionedChunk::build(keys, layout, blocks, config).expect("build")
}

/// The hydrated stores of a table's chunks.
fn stores(table: &Table) -> Vec<&ChunkStore> {
    let chunks = table.column().chunks().iter();
    chunks.map(|s| s.store_opt().expect("hydrated")).collect()
}

/// Σ `est_cost` over a re-layout's chunks: the DP's modeled cost.
fn total_est_cost(report: &OptimizeReport) -> f64 {
    report.chunks.iter().map(|c| c.est_cost).sum()
}

/// (a) Fig. 2a: more partitions make reads cheaper and inserts dearer.
/// The paper draws the trade-off as two curves with no numbers; here
/// uniform point-query-only and insert-only workloads over 1,024 blocks
/// are priced on equi-width layouts of k = 1, 2, 4, …, 1,024 partitions.
#[test]
fn fig02a_partitions_trade_read_cost_for_write_cost() {
    const N: usize = 1024;
    let c = CostConstants::paper();
    let mut reads = FrequencyModel::new(N);
    reads.pq = vec![1.0; N];
    let mut writes = FrequencyModel::new(N);
    writes.ins = vec![1.0; N];
    let ks: Vec<usize> = (0..=10).map(|e| 1 << e).collect();
    let curve = |fm: &FrequencyModel| -> Vec<f64> {
        let seg = |&k: &usize| PartitionSpec::equi_width(N, k);
        ks.iter().map(|k| modeled(fm, &seg(k), &c)).collect()
    };
    let (read, write) = (curve(&reads), curve(&writes));
    assert!(read.windows(2).all(|w| w[1] < w[0]), "reads: {read:?}");
    assert!(write.windows(2).all(|w| w[1] > w[0]), "writes: {write:?}");
    // The ends in closed form. One partition: every query scans all N
    // blocks (≈ 7.58 M in total) and every insert ripples past one boundary
    // (≈ 410 k). N partitions: a query reads one block (≈ 102 k) and an
    // insert into block i ripples past N − i boundaries (≈ 105 M).
    let (n, ripple) = (N as f64, c.rr + c.rw);
    let ends = [
        (read[0], n * (c.rr + c.sr * (n - 1.0))),
        (read[10], n * c.rr),
        (write[0], 2.0 * n * ripple),
        (write[10], ripple * (n + n * (n + 1.0) / 2.0)),
    ];
    for (got, want) in ends {
        assert!((got - want).abs() <= 1e-9 * want, "{got} != {want}");
    }
}

/// (b) Fig. 9a: insert cost falls linearly with the target partition's
/// id. The paper measures a 10 M-value chunk of 100 partitions against
/// Eq. 9's `(RR + RW)·(1 + trailing partitions)`. Here a dense 16-partition
/// chunk takes one insert into each partition m: storage performs
/// `k−1−m` random reads and `k−m` random writes, while the cost model
/// charges `1+k−m` of each. The model over-charges every insert by exactly
/// 2 RR + 1 RW, a constant in m, so the DP's argmin is unaffected; a
/// change to either side turns this row red.
#[test]
fn fig09a_insert_cost_is_the_models_charge_less_a_constant() {
    const K: usize = 16;
    let layout = BlockLayout::new::<u64>(4096);
    let n_blocks = 2 * K;
    let spec = PartitionSpec::equi_width(n_blocks, K);
    let base = even_chunk(
        layout,
        &ChunkLayout::dense(spec.clone()),
        ChunkConfig::dense(),
    );
    for (m, range) in spec.block_ranges().enumerate() {
        let mut chunk = base.clone();
        let cost = chunk
            .insert(base.partitions()[m].min + 1, &[])
            .unwrap()
            .cost;
        assert_eq!(cost.random_reads, (K - 1 - m) as u64, "partition {m}");
        assert_eq!(cost.random_writes, (K - m) as u64, "partition {m}");
        let mut fm = FrequencyModel::new(n_blocks);
        fm.ins[range.start] = 1.0;
        let model_rr = modeled(&fm, &spec, &RR_ONLY);
        let model_rw = modeled(&fm, &spec, &RW_ONLY);
        assert_eq!(model_rr - cost.random_reads as f64, 2.0, "partition {m}");
        assert_eq!(model_rw - cost.random_writes as f64, 1.0, "partition {m}");
    }
}

/// (c) Fig. 9b: point-query cost grows linearly with the partition's size.
/// The paper uses partitions of 2⁹ … 2²² values and Eq. 7's
/// `RR + SR·(blocks − 1)`. Here partitions of 2⁹ … 2¹⁵ values (1 … 64
/// blocks of 4 KB, no ghosts) answer in-bounds point queries whose measured
/// `OpCost` equals both the kernel-aware prediction and the model's own
/// charge: one random read and `blocks − 1` sequential reads.
#[test]
fn fig09b_point_query_cost_is_one_jump_plus_the_partition_scan() {
    let layout = BlockLayout::new::<u64>(4096);
    let vpb = layout.values_per_block();
    let sizes: Vec<usize> = (9..=15).map(|e| (1 << e) / vpb).collect();
    let spec = PartitionSpec::from_block_sizes(&sizes);
    let dense = ChunkLayout::dense(spec.clone());
    let chunk = even_chunk(layout, &dense, ChunkConfig::default());
    for range in spec.block_ranges() {
        let blocks = range.len() as u64;
        for block in [range.start, range.end - 1] {
            let key = 2 * (block * vpb + vpb / 2) as u64;
            let r = chunk.point_query(key);
            assert_eq!(r.positions.len(), 1, "key {key}");
            assert!(
                predicted_point_access(true, blocks).matches(&r.cost),
                "{blocks}-block partition: {:?}",
                r.cost
            );
            let mut fm = FrequencyModel::new(spec.n_blocks());
            fm.pq[block] = 1.0;
            assert_eq!(modeled(&fm, &spec, &RR_ONLY), r.cost.random_reads as f64);
            assert_eq!(modeled(&fm, &spec, &SR_ONLY), r.cost.seq_reads as f64);
        }
    }
}

/// (d) Fig. 12 in model units: on each of the six mixes, Casper's modeled
/// cost is below equi-width's. The paper reports Casper at 1.75 / 2.14 /
/// 1.16 / 0.95 / 2.28 / 2.32 × the state of the art's throughput (hybrid
/// point, hybrid range, read-only skewed and uniform, UDI1, UDI2). The
/// equi-width segmentation is priced with the exact terms each Casper chunk
/// was solved with: the chunk's geometry (4 KB blocks of 64 lines, rows of
/// 16 lines column-major or 2 row-major, the orientation the optimizer
/// chose) and, row-major, the ripple share the chunk's reserve leaves
/// uncovered. It is thus Equi-GV's segmentation holding Casper's reserve.
/// Under the fairness cap it is one of the layouts the DP searches, so a
/// ratio above 1 is a solver bug; the win is strict on every mix, Casper ÷
/// Equi = 0.694 / 0.878 / 0.628 / 0.998 / 0.809 / 0.991, and a change to
/// the model, the solver, the capture, the reserve split or the
/// orientation chooser moves one of those.
#[test]
fn fig12_casper_models_no_dearer_than_equi_width_on_every_mix() {
    const RATIOS: [f64; 6] = [0.694, 0.878, 0.628, 0.998, 0.809, 0.991];
    let paper = CostConstants::paper();
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = 16 * 1024;
    config.equi_partitions = 8;
    for (kind, want) in MixKind::fig12().into_iter().zip(RATIOS) {
        let mix = Mix::new(kind, HapSchema::narrow(), 65_536);
        let mut table = Table::load_from_generator(mix.generator(), config);
        let opts = OptimizeOptions {
            constants: paper,
            fairness_cap: true,
            threads: config.threads,
            ..OptimizeOptions::default()
        };
        let report = optimize_table(&mut table, &mix.generate(2000, 12), &opts);
        let casper = total_est_cost(&report);
        let equi = report.fms.iter().zip(&report.chunks).map(|(fm, chunk)| {
            let seg = PartitionSpec::equi_width(fm.n_blocks(), config.equi_partitions);
            let solved = layout_optimizer(&table, &opts, chunk.layout.payload());
            cost_of_segmentation(&seg, &solved.terms(fm, chunk.ghosts))
        });
        let equi: f64 = equi.sum();
        let ratio = casper / equi;
        eprintln!("{}: Casper / Equi = {ratio:.6}", kind.label());
        assert!(ratio < 1.0, "{}: no strict win ({ratio})", kind.label());
        assert_eq!((ratio * 1e3).round(), want * 1e3, "{}", kind.label());
    }
}

/// (e) Fig. 14 (and Fig. 2b): ghost values absorb the insert ripple. The
/// paper sweeps the ghost budget from 0.01 % to 10 % of the data and finds
/// insert latency falling monotonically, "already 1 % of slack halves" it.
/// Here a 64-partition chunk of 64 Ki values with evenly spread ghosts
/// takes 328 fresh odd keys (Fig. 14's 5,000 inserts per 1 M rows, scaled
/// to the chunk): the random writes those inserts perform never rise with
/// the budget, and 1 % cuts them to at most half the 0.01 % count.
#[test]
fn fig14_ghost_slots_absorb_the_insert_ripple() {
    const VALUES: usize = 64 * 1024;
    const K: usize = 64;
    const INSERTS: u64 = 328;
    let layout = BlockLayout::new::<u64>(4096);
    let spec = PartitionSpec::equi_width(layout.num_blocks(VALUES), K);
    let budgets = [0.0, 0.0001, 0.001, 0.01, 0.1];
    let writes: Vec<u64> = budgets
        .iter()
        .map(|&frac| {
            let ghosts = (VALUES as f64 * frac).ceil() as usize;
            let even = ChunkLayout::even(spec.clone(), ghosts);
            let mut chunk = even_chunk(layout, &even, ChunkConfig::default());
            let keys = (0..INSERTS).map(|i| ((i * 48271) % (2 * VALUES as u64)) | 1);
            let mut insert = |v| chunk.insert(v, &[]).unwrap().cost.random_writes;
            keys.map(&mut insert).sum()
        })
        .collect();
    eprintln!("random writes per budget {budgets:?}: {writes:?}");
    assert!(writes.windows(2).all(|w| w[1] <= w[0]), "{writes:?}");
    assert!(2 * writes[3] <= writes[1], "{writes:?}");
}

/// (f) Fig. 15: an insert SLA is met by capping the partition count
/// (Eq. 21). The paper sweeps the insert SLA over None, 12.5, 10, 7.5,
/// 6.25, 3.75, 2.5, 2 and 1.5 µs on a Q1 89 % / Q4 10 % / Q6 1 % mix and
/// meets every one. Here two chunks of 256 blocks are re-laid-out at each
/// sweep point with the fairness cap off and a fixed 0.6 µs read SLA; the
/// cap binds at the four tightest points. At every point each chunk's
/// worst insert and widest partition's point query meet their SLAs, and the
/// modeled cost only rises as the SLA tightens.
#[test]
fn fig15_partition_caps_meet_every_insert_sla() {
    const READ_SLA_NS: f64 = 600.0;
    let c = CostConstants::paper();
    // The SLAs are priced as the paper's Eq. 21 prices them, one line per
    // block and per row; the caps they give are structural, whatever
    // geometry the solver then prices the table at.
    let unit = BlockGeometry::UNIT;
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.block_bytes = 1024;
    config.chunk_values = 32 * 1024;
    let vpb = BlockLayout::new::<u64>(config.block_bytes).values_per_block();
    let mix = Mix::new(MixKind::SlaHybrid, HapSchema::narrow(), 65_536);
    let mut table = Table::load_from_generator(mix.generator(), config);
    let sample = mix.generate(2000, 15);
    let slas_us = [None, Some(12.5), Some(10.0), Some(7.5), Some(6.25)];
    let slas_us = slas_us.into_iter().chain([3.75, 2.5, 2.0, 1.5].map(Some));
    let mut unconstrained = 0;
    let mut binding = 0;
    let mut last_cost = 0.0;
    for sla_us in slas_us {
        let insert_sla = sla_us.map(|us| us * 1000.0);
        let opts = OptimizeOptions {
            constants: c,
            constraints: sla::constraints_from_slas(&c, &unit, insert_sla, Some(READ_SLA_NS)),
            fairness_cap: false,
            threads: config.threads,
            ..OptimizeOptions::default()
        };
        let report = optimize_table(&mut table, &sample, &opts);
        let cap = opts.constraints.max_partitions;
        for (store, chunk) in stores(&table).into_iter().zip(&report.chunks) {
            let ChunkStore::Partitioned(p) = store else {
                panic!("Casper chunks are partitioned");
            };
            let parts = p.partition_count();
            assert_eq!(parts, chunk.layout.spec().partition_count());
            let widest = p.partitions().iter().map(|m| m.len.div_ceil(vpb));
            let widest = widest.max().unwrap();
            assert!(sla::worst_point_query_nanos(&c, &unit, widest) <= READ_SLA_NS);
            if let (Some(cap), Some(ns)) = (cap, insert_sla) {
                assert!(parts <= cap, "SLA {ns} ns: {parts} > cap {cap}");
                assert!(
                    sla::worst_insert_nanos(&c, &unit, parts) <= ns,
                    "SLA {ns} ns"
                );
            }
        }
        let most = report
            .chunks
            .iter()
            .map(|ch| ch.layout.spec().partition_count());
        let most = most.max().unwrap();
        match cap {
            None => unconstrained = most,
            Some(cap) => binding += usize::from(unconstrained > cap),
        }
        let cost = total_est_cost(&report);
        assert!(cost >= last_cost, "{sla_us:?} µs: {cost} < {last_cost}");
        last_cost = cost;
    }
    assert!(binding >= 3, "the cap bound at only {binding} sweep points");
}

/// (g) Table 1: the six modes are six cells of the layout design space
/// (data organization × update policy × buffering). Every mode loads the
/// same hybrid mix, and its chunks are the cell it claims. A chunk of 8,192
/// rows reserves 82 ghost-budget slots (1 %) and a 410-slot slack (5 %):
/// Equi keeps the slack as its tail, while Equi-GV spreads all 428 slots
/// beyond the 64-slot minimum tail evenly as ghosts, and Casper places the
/// column's 856 by Eq. 18, most of them in the chunk the inserts land in.
#[test]
fn table01_each_mode_builds_its_design_space_cell() {
    let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 16_384);
    let ceil = |len: usize, frac: f64| (len as f64 * frac).ceil() as usize;
    for mode in LayoutMode::all() {
        let mut config = EngineConfig::small(mode);
        config.chunk_values = 8192;
        let mut table = Table::load_from_generator(mix.generator(), config);
        // A dense chunk's tail, and the reserve a ghost-policy chunk holds
        // as ghosts instead of all but the minimum of that tail.
        let tail = |len| ceil(len, config.capacity_slack).max(MIN_TAIL_SLOTS);
        let reserve = |len| ceil(len, config.ghost_budget_frac) + tail(len) - MIN_TAIL_SLOTS;
        assert_eq!((tail(8192), reserve(8192)), (410, 428));
        if mode == LayoutMode::Casper {
            let opts = OptimizeOptions {
                ghost_budget_frac: config.ghost_budget_frac,
                threads: config.threads,
                ..OptimizeOptions::default()
            };
            optimize_table(&mut table, &mix.generate(1000, 7), &opts);
        }
        let stores = stores(&table);
        assert_eq!(stores.len(), 2, "{mode:?}");
        let mut casper_ghosts = Vec::new();
        for store in stores {
            match (mode, store) {
                // Insertion order, in place, no buffer: one partition.
                (LayoutMode::NoOrder, ChunkStore::Partitioned(p)) => {
                    assert_eq!(p.partition_count(), 1);
                    assert_eq!(p.tail_free(), tail(p.live_len()));
                }
                // Sorted, in place, no buffer.
                (LayoutMode::Sorted, ChunkStore::Sorted(_)) => {}
                // Sorted, out of place, one global delta buffer.
                (LayoutMode::StateOfArt, ChunkStore::Delta(_)) => {}
                // Partitioned, in place, no buffer.
                (LayoutMode::Equi, ChunkStore::Partitioned(p)) => {
                    assert_eq!(p.partition_count(), config.equi_partitions);
                    assert_eq!(p.ghost_total(), 0);
                    assert_eq!(p.tail_free(), tail(p.live_len()));
                }
                // Partitioned, hybrid, per-partition ghost buffers: the
                // reserve spread evenly.
                (LayoutMode::EquiGV, ChunkStore::Partitioned(p)) => {
                    assert_eq!(p.partition_count(), config.equi_partitions);
                    let ghosts = p.partitions().iter().map(|m| m.ghosts);
                    let (lo, hi) = (ghosts.clone().min(), ghosts.max());
                    assert_eq!((lo, hi), (Some(53), Some(54)));
                    assert_eq!(p.ghost_total(), reserve(p.live_len()));
                    assert_eq!(p.tail_free(), MIN_TAIL_SLOTS);
                }
                // Optimal partitions; the column's reserve split by Eq. 18.
                (LayoutMode::Casper, ChunkStore::Partitioned(p)) => {
                    assert_eq!(p.tail_free(), MIN_TAIL_SLOTS);
                    let physical = p.live_len() + p.ghost_total() + MIN_TAIL_SLOTS;
                    assert_eq!(p.slot_count(), physical);
                    casper_ghosts.push(p.ghost_total());
                }
                (mode, _) => panic!("{mode:?} built the wrong store kind"),
            }
        }
        if mode == LayoutMode::Casper {
            // Same physical slots as an Equi-GV column of the same rows.
            assert_eq!(casper_ghosts.iter().sum::<usize>(), 2 * reserve(8192));
            assert!(casper_ghosts[1] > casper_ghosts[0], "{casper_ghosts:?}");
        }
    }
}

/// (h) Figs. 2b and 14, for the reserve: the same empty slots cut more
/// ripple writes where the inserts land than parked at the chunk's tail.
/// A 64-partition chunk of 64 Ki values reserves 5.1 % of its rows (a 0.1 %
/// ghost budget plus 5 % slack) and takes 3,277 fresh keys (5 %), four in
/// five of them in the top eighth of the key domain. Parked, the 5 % is the
/// tail and the 0.1 % is spread by Eq. 18; placed, the whole reserve is
/// spread by Eq. 18 over the stream's own Frequency Model and the tail
/// keeps its 64-slot minimum. Both chunks have the same physical slots,
/// and placing the reserve cuts the stream's random writes about tenfold
/// (32,540 → 3,282, one per insert); the row asserts at least fourfold.
#[test]
fn fig02b_reserve_placed_by_eq18_cuts_ripple_writes() {
    const VALUES: usize = 64 * 1024;
    const K: usize = 64;
    const INSERTS: u64 = 3_277;
    let layout = BlockLayout::new::<u64>(4096);
    let vpb = layout.values_per_block();
    let n_blocks = layout.num_blocks(VALUES);
    let spec = PartitionSpec::equi_width(n_blocks, K);
    let domain = 2 * VALUES as u64;
    let keys: Vec<u64> = (0..INSERTS)
        .map(|i| {
            let r = (i * 48271) % domain;
            let v = if i % 5 == 0 {
                r
            } else {
                domain - 1 - r % (domain / 8)
            };
            v | 1
        })
        .collect();
    let mut fm = FmBuilder::from_data(&(0..VALUES as u64).map(|v| 2 * v).collect::<Vec<_>>(), vpb);
    keys.iter().for_each(|&v| fm.record(Op::Insert(v)));
    let fm = fm.finish();
    let ceil = |frac: f64| (VALUES as f64 * frac).ceil() as usize;
    let (ghost_budget, slack) = (ceil(0.001), ceil(0.05));
    let run = |ghosts: usize, capacity_slack: f64| {
        let plan = ChunkLayout::with_ghosts(spec.clone(), allocate_ghosts(&fm, &spec, ghosts));
        let config = ChunkConfig {
            capacity_slack,
            ..ChunkConfig::default()
        };
        let mut chunk = even_chunk(layout, &plan, config);
        let slots = chunk.slot_count();
        let writes: u64 = keys
            .iter()
            .map(|&v| chunk.insert(v, &[]).unwrap().cost.random_writes)
            .sum();
        (slots, writes)
    };
    let parked = run(ghost_budget, 0.05);
    let placed = run(ghost_budget + slack - MIN_TAIL_SLOTS, 0.0);
    eprintln!("(slots, random writes) parked {parked:?}, placed {placed:?}");
    assert_eq!(parked.0, placed.0);
    assert!(4 * placed.1 <= parked.1, "{placed:?} vs {parked:?}");
}

/// (i) §4.6 in the model: a row-major chunk is charged only the ripple its
/// reserve cannot absorb. A row-major 16-partition chunk of 32 blocks
/// carries 15 payload words per row and takes four fresh keys into each
/// partition. With the Eq. 18 reserve covering those 64 inserts, replaying
/// them performs no ripple move (0 random reads, one random write each),
/// and the model charges no ripple. At zero reserve each insert ripples in
/// from the tail as on a dense chunk, and the model's charge is row (b)'s:
/// storage's reads and writes plus 2 RR + 1 RW. Both are priced per move
/// (the unit geometry), as row (b) is.
#[test]
fn sec46_row_major_ripple_charge_follows_the_reserve() {
    const K: usize = 16;
    const WIDTH: usize = 15;
    let layout = BlockLayout::new::<u64>(4096);
    let n_blocks = 2 * K;
    let spec = PartitionSpec::equi_width(n_blocks, K);
    let keys: Vec<u64> = (0..(n_blocks * layout.values_per_block()) as u64)
        .map(|v| 2 * v)
        .collect();
    let chunk = |ghosts: Vec<usize>| {
        let cols: Vec<Vec<u32>> = (0..WIDTH as u32)
            .map(|c| keys.iter().map(|&k| k as u32 ^ c).collect())
            .collect();
        let rows =
            ChunkLayout::with_ghosts(spec.clone(), ghosts).with_payload(PayloadOrientation::Rows);
        let config = ChunkConfig::default();
        PartitionedChunk::build_with_payloads(&keys, &cols, &rows, layout, config).expect("build")
    };
    let rows = |c: CostConstants| LayoutOptimizer {
        orientation: PayloadOrientation::Rows,
        ..LayoutOptimizer::new(c)
    };
    // A model's ripple charge: Σ parts_i · trail_parts(i).
    let p = spec.to_boundaries();
    let ripple =
        |t: BlockTerms| -> f64 { (0..n_blocks).map(|i| t.parts[i] * trail_parts(&p, i)).sum() };
    let row = vec![7u32; WIDTH];

    // Covered: the sample's own reserve, placed by Eq. 18.
    let base = chunk(vec![0; K]);
    let fresh: Vec<u64> = (0..K)
        .flat_map(|m| (0..4).map(move |j| (m, j)))
        .map(|(m, j)| base.partitions()[m].min + 1 + 2 * j)
        .collect();
    let mut fm = FmBuilder::from_data(&keys, layout.values_per_block());
    fresh.iter().for_each(|&v| fm.record(Op::Insert(v)));
    let fm = fm.finish();
    let budget = fresh.len();
    assert_eq!(uncovered_share(&fm, budget), 0.0);
    let mut covered = chunk(allocate_ghosts(&fm, &spec, budget));
    let mut cost = OpCost::default();
    for &v in &fresh {
        cost.absorb(covered.insert(v, &row).unwrap().cost);
    }
    assert_eq!((cost.random_reads, cost.random_writes), (0, budget as u64));
    for c in [RR_ONLY, RW_ONLY] {
        assert_eq!(ripple(rows(c).terms(&fm, budget)), 0.0);
    }

    // Uncovered: no reserve, so every insert ripples in from the tail.
    for (m, range) in spec.block_ranges().enumerate() {
        let mut bare = base.clone();
        let cost = bare
            .insert(base.partitions()[m].min + 1, &row)
            .unwrap()
            .cost;
        assert_eq!(cost.random_reads, (K - 1 - m) as u64, "partition {m}");
        assert_eq!(cost.random_writes, (K - m) as u64, "partition {m}");
        let mut fm = FrequencyModel::new(n_blocks);
        fm.ins[range.start] = 1.0;
        assert_eq!(uncovered_share(&fm, 0), 1.0);
        // The dense charge: Eq. 17's, one move per trailing boundary.
        for c in [RR_ONLY, RW_ONLY] {
            let charge = ripple(rows(c).terms(&fm, 0));
            assert_eq!(
                charge,
                ripple(BlockTerms::from_fm(&fm, &c)),
                "partition {m}"
            );
            assert_eq!(charge, (K - m) as f64, "partition {m}");
        }
        let model = |c| cost_of_segmentation(&spec, &rows(c).terms(&fm, 0));
        assert_eq!(
            model(RR_ONLY) - cost.random_reads as f64,
            2.0,
            "partition {m}"
        );
        assert_eq!(
            model(RW_ONLY) - cost.random_writes as f64,
            1.0,
            "partition {m}"
        );
    }
}

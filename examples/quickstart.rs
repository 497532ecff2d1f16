//! Quickstart: load a column, capture a sample workload, let the optimizer
//! choose the layout, and watch the costs change.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use casper::core::fm::FmBuilder;
use casper::core::solver::LayoutOptimizer;
use casper::core::{BlockGeometry, Op};
use casper::engine::calibrate::{calibrate_per_line, CalibrationConfig};
use casper::storage::{
    BlockLayout, ChunkConfig, ChunkLayout, PartitionedChunk, PayloadOrientation,
};

fn main() {
    // 1. A column of 64K values (even keys, so inserts can pick odd ones).
    let values: Vec<u64> = (0..65_536u64).map(|i| i * 2).collect();
    let layout = BlockLayout::new::<u64>(4096); // 512 values per block
    let n_blocks = layout.num_blocks(values.len());
    println!("column: {} values in {} blocks", values.len(), n_blocks);

    // 2. Capture a workload sample: point queries hammer the high end of
    //    the domain, inserts the low end (the Fig. 16a shape).
    let mut fm = FmBuilder::from_data(&values, layout.values_per_block());
    for i in 0..10_000u64 {
        let hot_read = 100_000 + (i * 73) % 31_000;
        fm.record(Op::Point(hot_read & !1));
        let hot_insert = (i * 37) % 26_000;
        fm.record(Op::Insert(hot_insert | 1));
        if i % 50 == 0 {
            fm.record(Op::Range(hot_read, hot_read + 2_000));
        }
    }
    let model = fm.finish();

    // 3. Calibrate the cost model on this machine (§4.5), per cache line,
    //    then solve for the optimal layout of 64-line blocks of one-line
    //    (key-only) rows and a 1% ghost budget.
    let mut cal = CalibrationConfig::quick();
    cal.block_bytes = 4096;
    let constants = calibrate_per_line(&cal);
    println!(
        "calibrated: RR={:.0}ns RW={:.0}ns SR={:.1}ns/line SW={:.1}ns/line",
        constants.rr, constants.rw, constants.sr, constants.sw
    );
    let geometry = BlockGeometry::of_chunk(cal.block_bytes, 0, PayloadOrientation::Columns);
    let optimizer = LayoutOptimizer::new(constants).with_geometry(geometry);
    let decision = optimizer.optimize(&model, values.len() / 100);
    let chunk_layout = &decision.layout;
    println!("optimal layout: {}", chunk_layout.spec());
    println!(
        "ghost slots: {} total, hottest partition gets {}",
        chunk_layout.ghost_total(),
        chunk_layout.ghosts().iter().max().unwrap()
    );
    println!("modeled workload cost: {:.1} ms", decision.est_cost / 1e6);

    // 4. Materialize the chunk and run some operations.
    let mut chunk = PartitionedChunk::build(values, chunk_layout, layout, ChunkConfig::default())
        .expect("build chunk");
    let r = chunk.point_query(120_000);
    println!(
        "point query for 120000: {} match(es), scanned {} values",
        r.positions.len(),
        r.cost.values_scanned
    );
    let w = chunk.insert(12_345, &[]).expect("insert");
    println!(
        "insert of 12345: {} random writes (ghost slots make this cheap)",
        w.cost.random_writes
    );
    let (count, cost) = chunk.range_count(100_000, 110_000);
    println!(
        "range count [100000, 110000): {count} rows, {} sequential block reads",
        cost.seq_reads
    );

    // 5. Compare against a naive single-partition layout.
    let naive = PartitionedChunk::single_partition(
        (0..65_536u64).map(|i| i * 2).collect(),
        layout,
        ChunkConfig::default(),
    )
    .expect("naive chunk");
    let naive_scan = naive.point_query(120_000).cost.values_scanned;
    println!(
        "same point query on an unpartitioned column scans {naive_scan} values — {}x more",
        naive_scan / r.cost.values_scanned.max(1)
    );
    let even = ChunkLayout::even(chunk_layout.spec().clone(), 655);
    println!(
        "(for contrast, an even ghost spread would give the hot partition only {} slots)",
        even.ghosts()[0]
    );
}

//! Differential test, row-major vs column-major payload: two chunks that
//! differ only in their payload orientation run one generated operation
//! sequence (insert, delete, update, `take_one`, `grow`, `prefetch_ghosts`,
//! point, range count, range sum) under the ghost and dense policies, with
//! duplicate keys and partitions emptied by deletes. After every operation
//! both give the same answer at the same `OpCost`, pass
//! `validate_invariants`, and hold the same keys and payload words slot for
//! slot, stale slots included. A range sum's payload `seq_reads` is the one
//! priced per orientation: each side must charge exactly its own
//! `PayloadSet::scan_blocks` for the rows the range qualifies.
//!
//! `CASPER_STRESS_SEEDS` (comma-separated, default "1,2") adds seeded
//! rounds on top of the proptest cases.

use casper_storage::ghost::GhostPlan;
use casper_storage::{
    BlockLayout, ChunkConfig, OpCost, PartitionSpec, PartitionedChunk, PayloadOrientation,
    StorageError, UpdatePolicy,
};
use proptest::prelude::*;
use rand::prelude::*;

type Chunk = PartitionedChunk<u64>;

/// Cases per stress seed.
const STRESS_CASES: u64 = 64;

fn env_seeds() -> Vec<u64> {
    std::env::var("CASPER_STRESS_SEEDS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2])
}

/// The twins after `what`: same slots, partitions, payload words
/// and write mark, and both structurally valid.
fn assert_twins(col: &Chunk, row: &Chunk, what: &str) -> Result<(), String> {
    for (c, name) in [(col, "column-major"), (row, "row-major")] {
        c.validate_invariants()
            .map_err(|e| format!("{name} invalid after {what}: {e}"))?;
    }
    let same = col.copy_slots(0..col.slot_count()) == row.copy_slots(0..row.slot_count())
        && col.partitions() == row.partitions()
        && col.live_len() == row.live_len()
        && col.write_mark() == row.write_mark();
    if !same {
        return Err(format!("keys or metadata diverged after {what}"));
    }
    let (cp, rp) = (col.payloads(), row.payloads());
    if cp.slot_count() != rp.slot_count() {
        return Err(format!("payload slot counts diverged after {what}"));
    }
    if let Some(s) = (0..cp.slot_count()).find(|&s| cp.row(s) != rp.row(s)) {
        return Err(format!("payload slot {s} diverged after {what}"));
    }
    Ok(())
}

fn same_cost(a: OpCost, b: OpCost, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: column-major {a:?} != row-major {b:?}"))
    }
}

/// Insert as the engine does: grow a full chunk once, then retry.
fn insert(c: &mut Chunk, key: u64, row: &[u32]) -> Result<OpCost, StorageError> {
    match c.insert(key, row) {
        Err(StorageError::ChunkFull { .. }) => {
            c.grow(16);
            c.insert(key, row).map(|r| r.cost)
        }
        r => r.map(|r| r.cost),
    }
}

/// One generated twin run: build, then `ops` random operations.
fn run_twins(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let policy = if rng.gen_bool(0.5) {
        UpdatePolicy::Ghost
    } else {
        UpdatePolicy::Dense
    };
    let width = [1usize, 2, 4, 15][rng.gen_range(0usize..4)];
    let domain = rng.gen_range(20u64..400);
    let n = rng.gen_range(8usize..160);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
    let cols: Vec<Vec<u32>> = (0..width)
        .map(|_| (0..n).map(|_| rng.gen()).collect())
        .collect();
    let layout = BlockLayout::new::<u64>(32); // 4 values per block
    let mut left = layout.num_blocks(n);
    let mut sizes = Vec::new();
    while left > 0 {
        let take = rng.gen_range(1..=left.min(5));
        sizes.push(take);
        left -= take;
    }
    let ghosts = GhostPlan::from_counts(
        (0..sizes.len())
            .map(|_| match policy {
                UpdatePolicy::Ghost => rng.gen_range(0..4),
                UpdatePolicy::Dense => 0,
            })
            .collect(),
    );
    let config = ChunkConfig {
        policy,
        capacity_slack: rng.gen_range(0.0..0.5),
        ghost_fetch_block: rng.gen_range(1..4),
    };
    let spec = PartitionSpec::from_block_sizes(&sizes);
    let mut col = Chunk::build_with_payloads(&keys, &cols, &spec, layout, &ghosts, config)
        .map_err(|e| format!("build: {e}"))?;
    let mut row = col.clone().into_orientation(PayloadOrientation::Rows);
    // One attribute has one layout, which reports column-major.
    let row_orientation = match width {
        1 => PayloadOrientation::Columns,
        _ => PayloadOrientation::Rows,
    };
    if col.payload_orientation() != PayloadOrientation::Columns
        || row.payload_orientation() != row_orientation
    {
        return Err("twins not in their orientations".into());
    }
    assert_twins(&col, &row, "build")?;

    let ops = rng.gen_range(1..120);
    for step in 0..ops {
        // Mostly keys already present (duplicates and emptied partitions
        // come from deletes of those), some past both ends.
        let key = |rng: &mut StdRng| rng.gen_range(0..domain + 20);
        let proj: Vec<usize> = (0..rng.gen_range(0..=width))
            .map(|_| rng.gen_range(0..width))
            .collect();
        let what = format!("seed {seed:#x} step {step}");
        match rng.gen_range(0..10) {
            0 | 1 => {
                let k = key(&mut rng);
                let payload: Vec<u32> = (0..width).map(|_| rng.gen()).collect();
                let (a, b) = (insert(&mut col, k, &payload), insert(&mut row, k, &payload));
                match (a, b) {
                    (Ok(a), Ok(b)) => same_cost(a, b, &format!("{what} insert({k})"))?,
                    (a, b) => {
                        if a.is_ok() != b.is_ok() {
                            return Err(format!("{what} insert({k}): {a:?} vs {b:?}"));
                        }
                    }
                }
            }
            2 | 3 => {
                let k = key(&mut rng);
                let (a, b) = (col.delete(k), row.delete(k));
                if a.affected != b.affected {
                    return Err(format!("{what} delete({k}) affected"));
                }
                same_cost(a.cost, b.cost, &format!("{what} delete({k})"))?;
            }
            4 => {
                let (old, new) = (key(&mut rng), key(&mut rng));
                let (a, b) = (col.update(old, new), row.update(old, new));
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        if a.affected != b.affected {
                            return Err(format!("{what} update affected"));
                        }
                        same_cost(a.cost, b.cost, &format!("{what} update({old}, {new})"))?;
                    }
                    (a, b) => {
                        if a.is_ok() != b.is_ok() {
                            return Err(format!("{what} update: {a:?} vs {b:?}"));
                        }
                    }
                }
            }
            5 => {
                let k = key(&mut rng);
                let ((ra, a), (rb, b)) = (col.take_one(k), row.take_one(k));
                if ra != rb {
                    return Err(format!("{what} take_one({k}) rows {ra:?} vs {rb:?}"));
                }
                same_cost(a.cost, b.cost, &format!("{what} take_one({k})"))?;
            }
            6 => {
                let extra = rng.gen_range(1..40);
                col.grow(extra);
                row.grow(extra);
                let k = key(&mut rng);
                let count = rng.gen_range(1..4);
                let (a, b) = (col.prefetch_ghosts(k, count), row.prefetch_ghosts(k, count));
                same_cost(a, b, &format!("{what} prefetch_ghosts({k})"))?;
            }
            7 => {
                let k = key(&mut rng);
                let (a, b) = (col.point_query(k), row.point_query(k));
                if a.positions != b.positions {
                    return Err(format!("{what} point({k}) positions"));
                }
                same_cost(a.cost, b.cost, &format!("{what} point({k})"))?;
                for &p in &a.positions {
                    if col.payloads().gather_row(p, &proj) != row.payloads().gather_row(p, &proj) {
                        return Err(format!("{what} point({k}) gathered rows"));
                    }
                }
            }
            8 => {
                let (x, y) = (key(&mut rng), key(&mut rng));
                let (lo, hi) = (x.min(y), x.max(y));
                let (a, ca) = col.range_count(lo, hi);
                let (b, cb) = row.range_count(lo, hi);
                if a != b {
                    return Err(format!("{what} count[{lo}, {hi}) {a} vs {b}"));
                }
                same_cost(ca, cb, &format!("{what} count[{lo}, {hi})"))?;
            }
            _ => {
                let (x, y) = (key(&mut rng), key(&mut rng));
                let (lo, hi) = (x.min(y), x.max(y));
                let (qualifying, _) = col.range_count(lo, hi);
                let (a, mut ca) = col.range_sum_payload(lo, hi, &proj);
                let (b, mut cb) = row.range_sum_payload(lo, hi, &proj);
                if a != b {
                    return Err(format!("{what} sum[{lo}, {hi}) {a} vs {b}"));
                }
                // Strip each side's own payload charge; the rest is shared.
                for (c, cost) in [(&col, &mut ca), (&row, &mut cb)] {
                    let payload = c.payloads().scan_blocks(
                        proj.len(),
                        qualifying as usize,
                        layout.block_bytes,
                    );
                    cost.seq_reads = cost.seq_reads.checked_sub(payload).ok_or_else(|| {
                        format!("{what} sum[{lo}, {hi}): payload charge above seq_reads")
                    })?;
                }
                same_cost(ca, cb, &format!("{what} sum[{lo}, {hi}) key scan"))?;
            }
        }
        assert_twins(&col, &row, &what)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_and_column_twins_agree(seed in any::<u64>()) {
        run_twins(seed).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn row_and_column_twins_agree_over_stress_seeds() {
    for seed in env_seeds() {
        for case in 0..STRESS_CASES {
            let case_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case;
            if let Err(e) = run_twins(case_seed) {
                panic!("stress seed {seed}, case {case}: {e}");
            }
        }
    }
}

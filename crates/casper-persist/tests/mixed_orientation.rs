//! A table holding a row-major and a column-major chunk at once, through
//! every durable path: a full checkpoint and reopen, a patch chain,
//! `open_at` on both sides of the `optimize()` that changed a chunk's
//! orientation, a hot backup, and governor eviction and rehydration. Each
//! brings every chunk back bit-exact — slots, metadata and payload words in
//! the chunk's own orientation — with the solver's invocation count
//! unchanged.
//!
//! One test in its own binary: the solve counter is process-global, so no
//! other test may optimize while this one counts.

use casper_engine::column::ChunkStore;
use casper_engine::optimize::OptimizeOptions;
use casper_engine::{EngineConfig, GovernorConfig, LayoutMode, Table};
use casper_persist::{decode_manifest, ArchiveConfig, DurableOptions, DurableTable, FileKind};
use casper_storage::{PartitionMeta, PayloadOrientation, PayloadSet};
use casper_workload::{HapQuery, HapSchema};
use std::fs;
use std::path::{Path, PathBuf};

/// Even keys `0, 2, …, 2·(ROWS−1)`, three chunks of 1,024 rows.
const ROWS: u64 = 3_072;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payload_row(key: u64) -> Vec<u32> {
    vec![(key % 251) as u32, (key * 7 % 1009) as u32]
}

fn seed_table() -> Table {
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.block_bytes = 256;
    config.chunk_values = 1024;
    config.threads = 1;
    let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let cols = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    Table::load(HapSchema { payload_cols: 2 }, keys, cols, config)
}

fn insert(key: u64) -> HapQuery {
    HapQuery::Q4 {
        key,
        payload: payload_row(key),
    }
}

/// Range sums over chunk 0's keys, inserts into chunk 2's: chunk 0 stays
/// column-major, chunk 2 turns row-major, and chunk 1 sees nothing.
fn mixed_sample() -> Vec<HapQuery> {
    let sums = (0..200u64).map(|i| HapQuery::Q3 {
        vs: i * 9,
        ve: i * 9 + 300,
        k: 1,
    });
    let inserts = (0..200u64).map(|i| insert((4_096 + 9 * i) | 1));
    sums.chain(inserts).collect()
}

/// One chunk as memory holds it: every slot (stale ones included), the
/// payload in its own orientation, and the metadata.
#[derive(Debug, PartialEq)]
struct Image {
    slots: Vec<u64>,
    payloads: PayloadSet,
    parts: Vec<PartitionMeta<u64>>,
    live: usize,
}

fn images(table: &Table) -> Vec<Image> {
    let chunks = table.column().chunks().iter();
    chunks
        .map(|slot| match slot.get().expect("chunk decodes") {
            ChunkStore::Partitioned(p) => Image {
                slots: p.copy_slots(0..p.slot_count()),
                payloads: p.payloads().clone(),
                parts: p.partitions().to_vec(),
                live: p.live_len(),
            },
            other => panic!("a Casper table holds partitioned chunks, got {other:?}"),
        })
        .collect()
}

fn orientations(images: &[Image]) -> Vec<PayloadOrientation> {
    images.iter().map(|i| i.payloads.orientation()).collect()
}

/// Patches in each chunk's chain in the current manifest.
fn patch_counts(dir: &Path) -> Vec<usize> {
    let generation: u64 = fs::read_to_string(dir.join("CURRENT"))
        .expect("CURRENT")
        .trim()
        .parse()
        .expect("generation");
    let bytes = fs::read(FileKind::Manifest.path(dir, generation)).expect("manifest");
    let manifest = decode_manifest(&bytes).expect("manifest decodes");
    manifest.entries.iter().map(|e| e.patches.len()).collect()
}

fn solves() -> u64 {
    casper_core::solver::telemetry::solve_count()
}

#[test]
fn mixed_orientations_survive_every_durable_path() {
    use PayloadOrientation::{Columns, Rows};
    let dir = test_dir("mixed_orientation");
    let backup = test_dir("mixed_orientation_backup");
    let opts = DurableOptions {
        background_checkpointer: false,
        archive: Some(ArchiveConfig::default()),
        ..DurableOptions::default()
    };
    let mut t = DurableTable::create_from_table(&dir, seed_table(), opts).expect("create");
    t.execute(&insert(5)).expect("write");
    t.flush().expect("flush");
    let before_optimize = t.stats().next_lsn - 1;
    // The re-layout's checkpoint covers every write before it, so a target
    // LSN restores the old layout only if a write separates the two.
    t.execute(&insert(7)).expect("write");
    t.flush().expect("flush");
    t.hydrate_all().expect("hydrate");
    let loaded = images(t.table());
    assert_eq!(orientations(&loaded), [Columns; 3]);

    let optimize = OptimizeOptions {
        threads: 1,
        ..OptimizeOptions::default()
    };
    let report = t.optimize(&mixed_sample(), &optimize).expect("optimize");
    let chosen: Vec<PayloadOrientation> = report.chunks.iter().map(|c| c.orientation).collect();
    assert_eq!(chosen, [Columns, Columns, Rows]);
    assert_eq!(orientations(&images(t.table())), chosen);

    // Writes into both oriented chunks, then a checkpoint: each chain
    // takes a patch in its own orientation.
    for i in 0..20u64 {
        t.execute(&insert(40 * i + 1)).expect("write into chunk 0");
        t.execute(&insert(4_100 + 40 * i + 1))
            .expect("write into chunk 2");
    }
    t.checkpoint().expect("checkpoint");
    let patches = patch_counts(&dir);
    assert!(
        patches[0] > 0 && patches[2] > 0,
        "patches per chain: {patches:?}"
    );
    t.execute(&insert(4_003))
        .expect("write after the checkpoint");
    t.flush().expect("flush");
    let after_optimize = t.stats().next_lsn - 1;
    t.hydrate_all().expect("hydrate");
    let want = images(t.table());
    assert_eq!(orientations(&want), chosen);

    let solved = solves();

    // Hot backup of the live table.
    let job = t.begin_backup(&backup).expect("begin_backup");
    job.run().expect("backup");
    DurableTable::verify_backup(&backup).expect("backup verifies");
    drop(t);

    // Full reopen: the chains decode in their own orientations.
    let mut reopened = DurableTable::open(&dir, opts).expect("reopen");
    reopened.hydrate_all().expect("hydrate");
    assert!(images(reopened.table()) == want, "reopened chunks differ");
    drop(reopened);

    let mut restored = DurableTable::open(&backup, opts).expect("open backup");
    restored.hydrate_all().expect("hydrate");
    assert!(images(restored.table()) == want, "backup chunks differ");
    drop(restored);

    // Point-in-time restores on both sides of the re-layout.
    let pit = DurableTable::open_at(&dir, before_optimize).expect("open_at before");
    let got = images(&pit.table);
    assert_eq!(orientations(&got), [Columns; 3]);
    assert_eq!(got.iter().map(|i| i.live).sum::<usize>(), ROWS as usize + 1);
    let pit = DurableTable::open_at(&dir, after_optimize).expect("open_at after");
    assert!(
        images(&pit.table) == want,
        "open_at after the re-layout differs"
    );

    // A one-byte budget evicts every clean chunk on the next query; each
    // rehydrates from its chain in its own orientation.
    let governed = DurableOptions {
        governor: Some(GovernorConfig {
            memory_budget_bytes: 1,
            check_interval: 1,
            governor_checkpoint: false,
            over_budget_degrade_after: u32::MAX,
            ..GovernorConfig::default()
        }),
        ..opts
    };
    let mut g = DurableTable::open(&dir, governed).expect("open governed");
    g.hydrate_all().expect("hydrate");
    g.execute(&HapQuery::Q1 { v: 0, k: 1 }).expect("read");
    let stats = g.governor_stats().expect("governed");
    assert!(stats.evictions > 0, "the budget pass must evict");
    g.hydrate_all().expect("rehydrate");
    assert!(images(g.table()) == want, "rehydrated chunks differ");

    assert_eq!(solves(), solved, "no durable path may re-solve a layout");
}

//! Patch chains: a checkpoint writes a dirty partitioned chunk as a patch
//! record on top of its chain (the slot granules written since the chain's
//! newest record), and folds the chain into a fresh full record once its
//! patches would outgrow it. Every reader of a chain must reconstruct the
//! chunk exactly as memory held it:
//!
//! * a seeded differential run per layout mode — inserts, deletes, in- and
//!   cross-chunk updates, chunk grows, re-layouts and checkpoints at
//!   random points — reopened
//!   lazily and eagerly, compared chunk for chunk with the live table;
//! * governor eviction and rehydration from a chain, bit-exact;
//! * scrub over a damaged patch record (heal a resident chunk with a full
//!   record, quarantine an unhydrated one);
//! * `open_at` across a patch chain and across a fold.

use casper_engine::column::ChunkStore;
use casper_engine::optimize::OptimizeOptions;
use casper_engine::{EngineConfig, GovernorConfig, LayoutMode, Table};
use casper_persist::{decode_manifest, ArchiveConfig, DurableOptions, DurableTable, FileKind};
use casper_persist::{ChunkEntry, Manifest};
use casper_storage::{PartitionMeta, StorageError, ZoneMap};
use casper_workload::{HapQuery, HapSchema, Mix, MixKind};
use rand::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

const ROWS: u64 = 3_000;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn schema() -> HapSchema {
    HapSchema { payload_cols: 2 }
}

fn payload_row(key: u64) -> Vec<u32> {
    vec![(key % 251) as u32, (key * 7 % 1009) as u32]
}

/// Even keys `0, 2, …`; ~six chunks of 512 rows, 32 values per block.
fn seed_table(mode: LayoutMode) -> Table {
    let mut config = EngineConfig::small(mode);
    config.block_bytes = 256;
    config.chunk_values = 512;
    config.threads = 1;
    let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let cols = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    Table::load(schema(), keys, cols, config)
}

fn sync_opts() -> DurableOptions {
    DurableOptions {
        background_checkpointer: false,
        ..DurableOptions::default()
    }
}

fn optimize_opts() -> OptimizeOptions {
    OptimizeOptions {
        threads: 1,
        ..OptimizeOptions::default()
    }
}

/// A read-heavy sample: the optimizer re-lays the chunks out finely.
fn read_sample(seed: u64) -> Vec<HapQuery> {
    Mix::new(MixKind::ReadOnlySkewed, schema(), ROWS).generate(300, seed)
}

/// One chunk as memory holds it.
#[derive(Debug, PartialEq)]
enum Image {
    /// Bit-exact physical state: every slot (stale ghost and tail slots
    /// included), every payload value, and the metadata.
    Partitioned {
        slots: Vec<u64>,
        payloads: Vec<Vec<u32>>,
        parts: Vec<PartitionMeta<u64>>,
        zones: Vec<ZoneMap<u64>>,
        live: usize,
    },
    /// Sorted and delta stores persist their merged rows.
    Rows(Vec<u64>, Vec<Vec<u32>>),
}

fn image(store: &ChunkStore) -> Image {
    match store {
        ChunkStore::Partitioned(p) => Image::Partitioned {
            slots: p.copy_slots(0..p.slot_count()),
            payloads: p.payloads().columns().to_vec(),
            parts: p.partitions().to_vec(),
            zones: p.zones().to_vec(),
            live: p.live_len(),
        },
        ChunkStore::Sorted(s) => {
            let (keys, cols) = s.to_parts();
            Image::Rows(keys, cols)
        }
        ChunkStore::Delta(d) => {
            let mut merged = d.clone();
            merged.force_merge();
            let (keys, cols) = merged.main().to_parts();
            Image::Rows(keys, cols)
        }
    }
}

/// Every chunk's image, hydrating lazily restored chunks one by one.
fn images(table: &Table) -> Vec<Image> {
    let chunks = table.column().chunks();
    chunks
        .iter()
        .map(|slot| image(slot.get().expect("chunk decodes")))
        .collect()
}

fn current_manifest(dir: &Path) -> Manifest {
    let generation: u64 = fs::read_to_string(dir.join("CURRENT"))
        .expect("CURRENT")
        .trim()
        .parse()
        .expect("generation");
    let bytes = fs::read(FileKind::Manifest.path(dir, generation)).expect("manifest");
    decode_manifest(&bytes).expect("manifest decodes")
}

/// What the chains of consecutive manifests showed: the most patches any
/// chain held, and how many times a chain holding patches was replaced by
/// a fresh full record (a fold, or a re-layout).
#[derive(Default)]
struct ChainWatch {
    prev: Vec<ChunkEntry>,
    max_patches: usize,
    replaced: usize,
}

impl ChainWatch {
    fn observe(&mut self, dir: &Path) {
        let entries = current_manifest(dir).entries;
        for (old, new) in self.prev.iter().zip(&entries) {
            if !old.patches.is_empty() && new.base != old.base {
                self.replaced += 1;
            }
        }
        let most = entries.iter().map(|e| e.patches.len()).max();
        self.max_patches = self.max_patches.max(most.unwrap_or(0));
        self.prev = entries;
    }
}

/// Seeded differential run: random writes with checkpoints at random
/// points, then both reopen paths must hand back every chunk exactly as
/// the live table held it.
#[test]
fn patch_chains_reopen_bit_exact_in_every_mode() {
    for mode in LayoutMode::all() {
        for seed in [1u64, 2] {
            patch_chain_round(mode, seed);
        }
    }
}

fn patch_chain_round(mode: LayoutMode, seed: u64) {
    let ctx = format!("{mode:?} seed {seed}");
    let dir = test_dir(&format!("patch_chain_{mode:?}_{seed}"));
    let mut rng = StdRng::seed_from_u64(seed);
    // Odd seeds check-point on the background thread at a small WAL
    // watermark as well as explicitly.
    let opts = if seed % 2 == 1 {
        DurableOptions {
            wal_checkpoint_bytes: 16 << 10,
            ..DurableOptions::default()
        }
    } else {
        sync_opts()
    };
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(mode), opts).expect("create");
    durable
        .optimize(&read_sample(seed), &optimize_opts())
        .expect("optimize");
    // Physical slots across partitioned chunks: a grow raises it.
    let capacity = |t: &DurableTable| -> usize {
        let chunks = t.table().column().chunks();
        let stores = chunks.iter().filter_map(|slot| slot.store_opt());
        let partitioned = stores.filter_map(|store| match store {
            ChunkStore::Partitioned(p) => Some(p.slot_count()),
            _ => None,
        });
        partitioned.sum()
    };
    let mut grew = false;
    let mut live: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let mut watch = ChainWatch::default();
    let domain = 2 * ROWS + 400;
    for step in 0..900 {
        let q = match rng.gen_range(0..100) {
            0..=39 => {
                let key = rng.gen_range(0..domain) | 1;
                live.push(key);
                HapQuery::Q4 {
                    key,
                    payload: payload_row(key),
                }
            }
            40..=54 => {
                let v = live[rng.gen_range(0..live.len())];
                live.retain(|&k| k != v);
                HapQuery::Q5 { v }
            }
            55..=89 => {
                let at = rng.gen_range(0..live.len());
                let vnew = rng.gen_range(0..domain);
                let v = std::mem::replace(&mut live[at], vnew);
                HapQuery::Q6 { v, vnew }
            }
            90..=91 => {
                // A burst into one key range: its chunk runs out of slots
                // and grows.
                let base = rng.gen_range(0..domain);
                let before = capacity(&durable);
                for i in 0..120 {
                    let key = base + 2 * i + 1;
                    live.push(key);
                    let q = HapQuery::Q4 {
                        key,
                        payload: payload_row(key),
                    };
                    durable.execute(&q).expect("burst insert");
                }
                grew |= capacity(&durable) > before;
                continue;
            }
            92 => {
                durable
                    .optimize(&read_sample(seed + step), &optimize_opts())
                    .expect("re-layout");
                watch.observe(&dir);
                continue;
            }
            _ => {
                durable.checkpoint().expect("checkpoint");
                watch.observe(&dir);
                continue;
            }
        };
        durable.execute(&q).expect("write");
    }
    assert_eq!(durable.len(), live.len(), "{ctx}: row count");
    if !matches!(mode, LayoutMode::Sorted | LayoutMode::StateOfArt) {
        assert!(grew, "{ctx}: no burst grew a chunk");
        assert!(watch.max_patches > 0, "{ctx}: no chain ever held a patch");
        assert!(watch.replaced > 0, "{ctx}: no chain was ever replaced");
    }
    let want = images(durable.table());
    drop(durable);

    let lazy = DurableTable::open(&dir, sync_opts()).expect("lazy open");
    let got = images(lazy.table());
    assert_eq!(got.len(), want.len(), "{ctx}: chunk count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(g == w, "{ctx}: lazily reopened chunk {i} differs");
    }
    drop(lazy);

    let mut eager = DurableTable::open(&dir, sync_opts()).expect("eager open");
    eager.hydrate_all().expect("hydrate");
    assert!(images(eager.table()) == want, "{ctx}: eager reopen differs");
}

/// The key lane of the chunk owning `key`: whether it stores 32-bit
/// offsets.
fn owner_is_narrow(t: &DurableTable, key: u64) -> bool {
    let column = t.table().column();
    let owner = column.route_for(key).expect("ordered column");
    match column.chunks()[owner].store_opt() {
        Some(ChunkStore::Partitioned(p)) => p.key_lane_is_narrow(),
        _ => panic!("chunk {owner} is not a hydrated partitioned chunk"),
    }
}

/// A chunk whose key lane widens between two checkpoints (a key beyond
/// its 32-bit frame lands in it) is written as a patch on its narrow-era
/// chain; lazy and eager reopens both hand it back bit-exact, keys, stale
/// slots and all, and it keeps taking writes.
#[test]
fn a_chunk_that_widens_between_checkpoints_reopens_bit_exact() {
    for mode in [LayoutMode::Casper, LayoutMode::Equi] {
        let ctx = format!("{mode:?}");
        let dir = test_dir(&format!("patch_chain_widen_{mode:?}"));
        let mut durable =
            DurableTable::create_from_table(&dir, seed_table(mode), sync_opts()).expect("create");
        let far = 1u64 << 40;
        assert!(owner_is_narrow(&durable, far), "{ctx}: loads narrow");
        for key in [1, 2_001, 4_001, 5_999] {
            durable.execute(&marker_write(key)).expect("write");
        }
        durable.checkpoint().expect("checkpoint");
        durable.execute(&marker_write(far)).expect("widening write");
        durable.execute(&marker_write(far + 2)).expect("write");
        durable
            .execute(&HapQuery::Q6 {
                v: 10,
                vnew: far + 4,
            })
            .expect("update");
        assert!(
            !owner_is_narrow(&durable, far),
            "{ctx}: the key widened its chunk"
        );
        durable.checkpoint().expect("checkpoint");
        let owner = durable.table().column().route_for(far).expect("routes");
        let entry = &current_manifest(&dir).entries[owner];
        assert!(
            !entry.patches.is_empty(),
            "{ctx}: the widened chunk is a patch"
        );
        durable.execute(&marker_write(far + 6)).expect("write");
        durable
            .execute(&HapQuery::Q5 { v: far + 2 })
            .expect("delete");
        durable.checkpoint().expect("checkpoint");
        let want = images(durable.table());
        drop(durable);

        let lazy = DurableTable::open(&dir, sync_opts()).expect("lazy open");
        assert!(images(lazy.table()) == want, "{ctx}: lazy reopen differs");
        drop(lazy);
        let mut eager = DurableTable::open(&dir, sync_opts()).expect("eager open");
        eager.hydrate_all().expect("hydrate");
        assert!(images(eager.table()) == want, "{ctx}: eager reopen differs");
        assert!(!owner_is_narrow(&eager, far), "{ctx}: still spans 2^40");
        for key in [far + 8, 3] {
            eager
                .execute(&marker_write(key))
                .expect("write after reopen");
        }
        let found = eager
            .execute(&HapQuery::Q1 { v: far + 8, k: 1 })
            .expect("read")
            .result
            .scalar();
        assert_eq!(found, 1, "{ctx}");
    }
}

fn marker_write(key: u64) -> HapQuery {
    HapQuery::Q4 {
        key,
        payload: payload_row(key),
    }
}

/// A governor evicts clean chunks whose durable state is a patch chain;
/// each comes back from its chain bit-exact, resumes at the chain's write
/// mark, and the next patch on top of the rehydrated chunk is still exact.
#[test]
fn evicted_chunk_rehydrates_bit_exact_from_its_chain() {
    let dir = test_dir("patch_chain_evict");
    let opts = DurableOptions {
        governor: Some(GovernorConfig {
            memory_budget_bytes: 1,
            check_interval: 1,
            governor_checkpoint: false,
            // Writes keep dirty chunks resident over budget; that must not
            // degrade the table.
            over_budget_degrade_after: u32::MAX,
            ..GovernorConfig::default()
        }),
        ..sync_opts()
    };
    let mut t = DurableTable::create_from_table(&dir, seed_table(LayoutMode::Casper), opts)
        .expect("create");
    for round in 0..3u64 {
        for i in 0..40 {
            t.execute(&marker_write(round * 1_000 + 4 * i + 1))
                .expect("write");
        }
        t.checkpoint().expect("checkpoint");
    }
    assert!(
        current_manifest(&dir)
            .entries
            .iter()
            .any(|e| !e.patches.is_empty()),
        "test premise: some chain holds patches"
    );
    t.hydrate_all().expect("hydrate");
    let want = images(t.table());

    // Every chunk is clean and the budget is one byte: the next query's
    // budget pass evicts them all.
    t.execute(&HapQuery::Q1 { v: 0, k: 1 }).expect("read");
    let stats = t.governor_stats().expect("governed");
    assert!(stats.evictions > 0, "the budget pass must evict");
    t.hydrate_all().expect("rehydrate");
    assert!(images(t.table()) == want, "rehydrated chunks differ");

    // Patch the rehydrated chunks, then reopen: the chains stay exact.
    for i in 0..40 {
        t.execute(&marker_write(3_001 + 4 * i)).expect("write");
    }
    t.checkpoint().expect("checkpoint");
    t.hydrate_all().expect("hydrate");
    let want = images(t.table());
    drop(t);
    let reopened = DurableTable::open(&dir, sync_opts()).expect("reopen");
    assert!(images(reopened.table()) == want, "reopened chunks differ");
}

/// Flip one byte inside chunk 0's newest patch record.
fn damage_newest_patch(dir: &Path) {
    let entry = current_manifest(dir).entries[0].clone();
    let patch = *entry.patches.last().expect("chunk 0 holds a patch");
    let seg = FileKind::Segment.path(dir, patch.seg);
    let mut bytes = fs::read(&seg).expect("segment bytes");
    bytes[(patch.offset + patch.len / 2) as usize] ^= 0x20;
    fs::write(&seg, &bytes).expect("damage");
}

/// A table whose chunk 0 carries one patch record.
fn patched_table(dir: &Path) -> DurableTable {
    let mut t = DurableTable::create_from_table(dir, seed_table(LayoutMode::Casper), sync_opts())
        .expect("create");
    for i in 0..8 {
        t.execute(&marker_write(4 * i + 1)).expect("write");
    }
    t.checkpoint().expect("checkpoint");
    assert_eq!(current_manifest(dir).entries[0].patches.len(), 1);
    t
}

#[test]
fn scrub_heals_a_damaged_patch_of_a_resident_chunk_with_a_full_record() {
    let dir = test_dir("patch_chain_scrub_heal");
    let mut t = patched_table(&dir);
    t.hydrate_all().expect("hydrate");
    let want = images(t.table());
    damage_newest_patch(&dir);

    let report = t.scrub_now().expect("scrub");
    assert_eq!(report.findings.len(), 1, "one damaged chain");
    assert_eq!(report.findings[0].chunk, 0);
    assert!(t.quarantined_chunks().is_empty(), "resident: no quarantine");
    assert_eq!(t.stats().dirty_chunks, 1, "the damaged chunk is dirty");

    t.checkpoint().expect("healing checkpoint");
    let healed = &current_manifest(&dir).entries[0];
    assert!(healed.patches.is_empty(), "the heal is a full record");
    assert!(t.scrub_now().expect("scrub").findings.is_empty());
    drop(t);
    let reopened = DurableTable::open(&dir, sync_opts()).expect("reopen");
    assert!(images(reopened.table()) == want, "healed chain differs");
}

#[test]
fn scrub_quarantines_an_unhydrated_chunk_whose_patch_is_damaged() {
    let dir = test_dir("patch_chain_scrub_quarantine");
    drop(patched_table(&dir));
    damage_newest_patch(&dir);

    let mut t = DurableTable::open(&dir, sync_opts()).expect("lazy open");
    let report = t.scrub_now().expect("scrub");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(t.quarantined_chunks(), vec![0]);
    match t.hydrate_all() {
        Err(StorageError::Quarantined { chunk: 0, .. }) => {}
        other => panic!("expected chunk 0 quarantined, got {other:?}"),
    }
    // The other chunks' chains are intact and keep serving.
    let probe = 2 * (ROWS - 1);
    let hit = t.execute(&HapQuery::Q1 { v: probe, k: 1 }).expect("serve");
    assert_eq!(hit.result.scalar(), 1);
}

/// Every row of a table, sorted: the logical state `open_at` restores.
fn rows(table: &mut Table) -> Vec<u64> {
    let q = HapQuery::Q3 {
        vs: 0,
        ve: u64::MAX,
        k: 2,
    };
    let sum = table.execute(&q).expect("sum").result.scalar();
    let mut out = vec![table.len() as u64, sum];
    for key in (0..2 * ROWS).step_by(7) {
        let q = HapQuery::Q1 { v: key, k: 2 };
        out.push(table.execute(&q).expect("point").result.scalar());
    }
    out
}

/// Point-in-time restores land on a patch chain, between patches (a WAL
/// replay on top of one), and on both sides of a fold.
#[test]
fn open_at_restores_across_a_patch_chain_and_a_fold() {
    let dir = test_dir("patch_chain_open_at");
    let opts = DurableOptions {
        archive: Some(ArchiveConfig::default()),
        ..sync_opts()
    };
    let mut t = DurableTable::create_from_table(&dir, seed_table(LayoutMode::Casper), opts)
        .expect("create");
    let mut oracle = seed_table(LayoutMode::Casper);
    let mut targets: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut watch = ChainWatch::default();
    let mut key = 1u64;
    // Keep writing into chunk 0 until its chain folded twice.
    while watch.replaced < 2 {
        for _ in 0..12 {
            let q = marker_write(key % 1_000);
            key += 2;
            t.execute(&q).expect("write");
            oracle.execute(&q).expect("oracle");
        }
        // A target between checkpoints: replay on top of the chain.
        t.flush().expect("flush");
        targets.push((t.stats().next_lsn - 1, rows(&mut oracle)));
        let q = marker_write(key % 1_000);
        key += 2;
        t.execute(&q).expect("write");
        oracle.execute(&q).expect("oracle");
        t.checkpoint().expect("checkpoint");
        targets.push((t.stats().durable_lsn, rows(&mut oracle)));
        watch.observe(&dir);
        assert!(targets.len() < 200, "chunk 0's chain never folded");
    }
    assert!(watch.max_patches > 0, "test premise: patches were written");
    drop(t);
    for (lsn, want) in targets {
        let mut pit = DurableTable::open_at(&dir, lsn).expect("open_at");
        assert_eq!(pit.restored_lsn, lsn);
        assert_eq!(rows(&mut pit.table), want, "restore to LSN {lsn}");
    }
}

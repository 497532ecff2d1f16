//! Crash-window properties of the incremental checkpoint chain.
//!
//! A checkpoint commits in three steps — segment write, manifest write,
//! `CURRENT` swing — with the WAL rotated *before* any of them. These
//! tests kill the checkpoint between and **inside** each step (truncating
//! the in-flight file at every byte offset, extending PR 3's
//! WAL-truncation property to the snapshot chain) and assert recovery
//! always lands on exactly the pre-checkpoint state plus every sealed WAL
//! batch: no data loss past the last sealed batch, ever.
//!
//! Also here: replay idempotence across a multi-segment chain, forced
//! compaction, and typed corruption surfacing for damaged segments/manifests.

use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_persist::{DurableOptions, DurableTable};
use casper_storage::StorageError;
use casper_workload::{HapQuery, HapSchema};
use std::fs;
use std::path::{Path, PathBuf};

const ROWS: u64 = 192;
/// Keys are even numbers 0, 2, …, 2·(ROWS−1); three chunks of 64.
const CHUNK_VALUES: usize = 64;

fn test_dir_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = test_dir_path(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn schema() -> HapSchema {
    HapSchema { payload_cols: 2 }
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = CHUNK_VALUES;
    config.threads = 1;
    config
}

fn payload_row(key: u64) -> Vec<u32> {
    vec![(key % 251) as u32, (key % 83) as u32]
}

fn seed_table() -> Table {
    seed_table_of(ROWS)
}

/// Even keys 0, 2, …, 2·(rows−1) in chunks of `CHUNK_VALUES`.
fn seed_table_of(rows: u64) -> Table {
    let keys: Vec<u64> = (0..rows).map(|i| i * 2).collect();
    let cols: Vec<Vec<u32>> = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    Table::load(schema(), keys, cols, engine_config())
}

/// Marker key of write `i` (odd → never collides with seeded keys).
fn marker(i: usize) -> u64 {
    1 + 2 * i as u64
}

fn markers(n: usize) -> Vec<HapQuery> {
    (0..n)
        .map(|i| HapQuery::Q4 {
            key: marker(i),
            payload: payload_row(marker(i)),
        })
        .collect()
}

/// Fingerprint: marker presence, row count, full count, a couple of sums.
fn fingerprint_durable(t: &mut DurableTable, n_markers: usize) -> Vec<u64> {
    let mut out = vec![t.len() as u64];
    for i in 0..n_markers {
        out.push(
            t.execute(&HapQuery::Q1 { v: marker(i), k: 2 })
                .expect("probe")
                .result
                .scalar(),
        );
    }
    for q in [
        HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        },
        HapQuery::Q3 {
            vs: 50,
            ve: 300,
            k: 2,
        },
    ] {
        out.push(t.execute(&q).expect("probe").result.scalar());
    }
    out
}

fn fingerprint_oracle(t: &mut Table, n_markers: usize) -> Vec<u64> {
    let mut out = vec![t.len() as u64];
    for i in 0..n_markers {
        out.push(
            t.execute(&HapQuery::Q1 { v: marker(i), k: 2 })
                .expect("probe")
                .result
                .scalar(),
        );
    }
    for q in [
        HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        },
        HapQuery::Q3 {
            vs: 50,
            ve: 300,
            k: 2,
        },
    ] {
        out.push(t.execute(&q).expect("probe").result.scalar());
    }
    out
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).expect("mkdir");
    for entry in fs::read_dir(from).expect("read src").flatten() {
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// Build the crash fixture: a created table (gen 1), `n` sealed marker
/// batches in the WAL, a directory copy taken *before* the checkpoint, the
/// checkpoint's in-flight files, and the committed-state oracle.
struct Fixture {
    /// Directory state before the checkpoint (manifest + WAL chain).
    pre: PathBuf,
    /// Directory state after the committed checkpoint.
    post: PathBuf,
    /// Generation the checkpoint commits.
    generation: u64,
    /// Bytes of the segment the checkpoint wrote.
    seg_bytes: Vec<u8>,
    /// Name of that segment file.
    seg_name: String,
    /// Bytes of the manifest the checkpoint wrote.
    manifest_bytes: Vec<u8>,
    /// The oracle holding the seeded rows plus all `n` markers.
    want: Vec<u64>,
    n_markers: usize,
}

/// Chunk 0's chain in the manifest of `generation` under `dir`.
fn chunk0_chain(dir: &Path, generation: u64) -> casper_persist::ChunkEntry {
    let bytes =
        fs::read(casper_persist::FileKind::Manifest.path(dir, generation)).expect("manifest bytes");
    let manifest = casper_persist::decode_manifest(&bytes).expect("manifest");
    manifest.entries[0].clone()
}

/// The crash fixture around a checkpoint that appends a patch record to
/// chunk 0's chain (the markers all land in chunk 0, whose full record
/// the create wrote).
fn build_fixture(tag: &str) -> Fixture {
    let fx = build_fixture_at(tag, 6, |_| true);
    let chain = chunk0_chain(&fx.post, fx.generation);
    assert_eq!(
        chain.patches.len(),
        1,
        "the fixture checkpoint writes a patch"
    );
    fx
}

/// The crash fixture around a checkpoint that *folds* chunk 0: rounds of
/// one marker and a checkpoint grow its chain until the next patch would
/// reach the full record's size, and that checkpoint is the one killed.
fn build_fold_fixture(tag: &str) -> Fixture {
    let fx = build_fixture_at(tag, 1, |chain| chain.patches.is_empty());
    let chain = chunk0_chain(&fx.pre, fx.generation - 1);
    assert!(!chain.patches.is_empty(), "the folded chain held patches");
    fx
}

/// Write `per_round` markers, snapshot the directory, checkpoint; repeat
/// until `done(chunk 0's new chain)` holds. The last checkpoint is the
/// fixture's.
fn build_fixture_at(
    tag: &str,
    per_round: usize,
    done: impl Fn(&casper_persist::ChunkEntry) -> bool,
) -> Fixture {
    let base = test_dir(&format!("incr_{tag}_base"));
    let pre = test_dir(&format!("incr_{tag}_pre"));
    let post = test_dir(&format!("incr_{tag}_post"));

    let mut durable =
        DurableTable::create_from_table(&base, seed_table(), DurableOptions::default())
            .expect("create");
    let mut n_markers = 0usize;
    let generation = loop {
        for i in n_markers..n_markers + per_round {
            let key = marker(i);
            let q = HapQuery::Q4 {
                key,
                payload: payload_row(key),
            };
            durable.execute(&q).expect("write");
        }
        n_markers += per_round;
        copy_dir(&base, &pre);
        let generation = durable.checkpoint().expect("checkpoint");
        if done(&chunk0_chain(&base, generation)) {
            break generation;
        }
        assert!(n_markers < 32, "chunk 0's chain never folded");
    };
    drop(durable);
    copy_dir(&base, &post);

    let seg_name = fs::read_dir(&post)
        .expect("post dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-"))
        .max()
        .expect("checkpoint wrote a segment");
    let seg_bytes = fs::read(post.join(&seg_name)).expect("seg bytes");
    let manifest_bytes = fs::read(casper_persist::FileKind::Manifest.path(&post, generation))
        .expect("manifest bytes");

    let mut oracle = seed_table();
    for q in markers(n_markers) {
        oracle.execute(&q).expect("oracle");
    }
    let want = fingerprint_oracle(&mut oracle, n_markers);
    Fixture {
        pre,
        post,
        generation,
        seg_bytes,
        seg_name,
        manifest_bytes,
        want,
        n_markers,
    }
}

/// Install a crash state: the pre-checkpoint files, the rotated (empty)
/// WAL link the capture created, plus whatever in-flight files the "kill"
/// left behind.
fn install_crash_state(fx: &Fixture, scratch: &Path, extra: &[(&str, &[u8])]) {
    copy_dir(&fx.pre, scratch);
    // The capture rotates the WAL before the checkpoint writes anything.
    let rotated = casper_persist::FileKind::Wal.path(scratch, fx.generation);
    fs::write(rotated, b"").expect("rotated wal");
    for (name, bytes) in extra {
        fs::write(scratch.join(name), bytes).expect("install extra");
    }
}

/// Kill the fixture's checkpoint inside its segment write at every byte
/// offset: recovery must land on the previous generation plus every
/// sealed batch.
fn kill_segment_write_everywhere(fx: &Fixture, scratch: &Path) {
    for cut in 0..=fx.seg_bytes.len() {
        install_crash_state(fx, scratch, &[(fx.seg_name.as_str(), &fx.seg_bytes[..cut])]);
        let mut t = DurableTable::open(scratch, DurableOptions::default())
            .unwrap_or_else(|e| panic!("open with segment cut at {cut}: {e}"));
        assert_eq!(
            t.stats().generation,
            fx.generation - 1,
            "cut {cut}: CURRENT never swung"
        );
        assert_eq!(
            fingerprint_durable(&mut t, fx.n_markers),
            fx.want,
            "segment cut at {cut} lost sealed data"
        );
    }
}

/// Kill it inside its manifest write at every byte offset (the segment is
/// whole, `CURRENT` still names the previous generation).
fn kill_manifest_write_everywhere(fx: &Fixture, scratch: &Path) {
    let manifest_name = casper_persist::FileKind::Manifest.name(fx.generation);
    for cut in 0..=fx.manifest_bytes.len() {
        install_crash_state(
            fx,
            scratch,
            &[
                (fx.seg_name.as_str(), &fx.seg_bytes[..]),
                (manifest_name.as_str(), &fx.manifest_bytes[..cut]),
            ],
        );
        let mut t = DurableTable::open(scratch, DurableOptions::default())
            .unwrap_or_else(|e| panic!("open with manifest cut at {cut}: {e}"));
        assert_eq!(t.stats().generation, fx.generation - 1, "cut {cut}");
        assert_eq!(
            fingerprint_durable(&mut t, fx.n_markers),
            fx.want,
            "manifest cut at {cut} lost sealed data"
        );
    }
}

#[test]
fn kill_during_segment_write_at_every_byte_offset() {
    let fx = build_fixture("seg");
    kill_segment_write_everywhere(&fx, &test_dir("incr_seg_scratch"));
}

#[test]
fn kill_during_manifest_write_at_every_byte_offset() {
    // Full segment on disk, manifest torn at every offset, CURRENT still
    // on the previous generation — the torn manifest is dead weight:
    // recovery must resolve that generation and replay the whole chain.
    let fx = build_fixture("mani");
    kill_manifest_write_everywhere(&fx, &test_dir("incr_mani_scratch"));
}

#[test]
fn kill_after_current_swing_resolves_the_new_generation() {
    let fx = build_fixture("swing");
    // The committed post state (kill right after the swing, before any
    // pruning finished) must open at generation 2 with identical data.
    let mut t = DurableTable::open(&fx.post, DurableOptions::default()).expect("open post");
    assert_eq!(t.stats().generation, 2);
    assert_eq!(fingerprint_durable(&mut t, fx.n_markers), fx.want);
}

/// The same kill-at-every-byte windows around a checkpoint that folds a
/// patch chain into a fresh full record, and the committed fold.
#[test]
fn kill_during_a_folding_checkpoint_at_every_byte_offset() {
    let fx = build_fold_fixture("fold");
    let scratch = test_dir("incr_fold_scratch");
    kill_segment_write_everywhere(&fx, &scratch);
    kill_manifest_write_everywhere(&fx, &scratch);
    let mut t = DurableTable::open(&fx.post, DurableOptions::default()).expect("open post");
    assert_eq!(t.stats().generation, fx.generation);
    assert_eq!(fingerprint_durable(&mut t, fx.n_markers), fx.want);
}

#[test]
fn recovered_table_accepts_writes_after_every_kill_phase() {
    let fx = build_fixture("resume");
    let scratch = test_dir("incr_resume_scratch");
    for (phase, extra) in [
        ("no-files", Vec::new()),
        (
            "half-segment",
            vec![(
                fx.seg_name.as_str(),
                &fx.seg_bytes[..fx.seg_bytes.len() / 2],
            )],
        ),
        (
            "full-segment-half-manifest",
            vec![
                (fx.seg_name.as_str(), &fx.seg_bytes[..]),
                (
                    "manifest-000002.casper",
                    &fx.manifest_bytes[..fx.manifest_bytes.len() / 2],
                ),
            ],
        ),
    ] {
        install_crash_state(&fx, &scratch, &extra);
        let key = marker(500);
        {
            let mut t = DurableTable::open(&scratch, DurableOptions::default()).expect("open");
            t.execute(&HapQuery::Q4 {
                key,
                payload: payload_row(key),
            })
            .expect("post-recovery write");
            // And a full checkpoint cycle must succeed from the recovered
            // state (new generation > every file the crash left behind).
            t.checkpoint().expect("post-recovery checkpoint");
        }
        let mut again = DurableTable::open(&scratch, DurableOptions::default()).expect("reopen");
        assert_eq!(
            again
                .execute(&HapQuery::Q1 { v: key, k: 1 })
                .expect("probe")
                .result
                .scalar(),
            1,
            "phase {phase}: post-recovery write lost"
        );
    }
}

#[test]
fn multi_segment_chain_replays_idempotently_and_compacts() {
    let dir = test_dir("incr_chain");
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table(), DurableOptions::default())
            .expect("create");
    // Three rounds, each dirtying a different chunk (keys ~0, ~128, ~256
    // route to chunks 0/1/2), each followed by an incremental checkpoint:
    // the manifest ends up referencing several segments.
    for (round, base_key) in [(0u64, 1u64), (1, 129), (2, 257)] {
        for i in 0..4u64 {
            let key = base_key + 2 * i;
            durable
                .execute(&HapQuery::Q4 {
                    key,
                    payload: payload_row(key),
                })
                .expect("write");
        }
        let generation = durable.checkpoint().expect("checkpoint");
        assert_eq!(generation, round + 2);
    }
    let segments_before = durable.stats().segments;
    assert!(
        segments_before >= 2,
        "incremental chain should span segments, got {segments_before}"
    );
    let n = 0;
    let want = fingerprint_durable(&mut durable, n);
    drop(durable);

    // Replay idempotence: two cold opens of the same chain agree.
    let first = {
        let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("open 1");
        fingerprint_durable(&mut t, n)
    };
    let second = {
        let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("open 2");
        fingerprint_durable(&mut t, n)
    };
    assert_eq!(first, second, "double recovery diverged");
    assert_eq!(first, want, "recovery diverged from the live table");

    // Forced compaction collapses the chain to one segment, byte-copying
    // clean records; contents must be identical afterwards.
    let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("open 3");
    t.compact().expect("compact");
    assert_eq!(t.stats().segments, 1, "compaction must collapse the chain");
    assert_eq!(fingerprint_durable(&mut t, n), want);
    drop(t);
    let seg_files = fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .count();
    assert_eq!(seg_files, 1, "stale segments must be pruned");
    let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("open 4");
    assert_eq!(
        fingerprint_durable(&mut t, n),
        want,
        "post-compaction reopen"
    );
}

/// An incremental checkpoint writes only the dirty chunks: its segment is
/// under half the full one with 1 of 3 chunks dirty, and at most a
/// quarter of it with 10% of the chunks (2 of 20) dirty.
#[test]
fn segment_chain_grows_only_by_dirty_chunks() {
    for (chunks, dirty, max_share) in [(3u64, 1u64, 0.5), (20, 2, 0.25)] {
        let dir = test_dir(&format!("incr_dirty_only_{chunks}"));
        let table = seed_table_of(chunks * CHUNK_VALUES as u64);
        let mut durable = DurableTable::create_from_table(&dir, table, DurableOptions::default())
            .expect("create");
        assert_eq!(durable.table().column().chunk_count() as u64, chunks);
        let full_seg = fs::metadata(dir.join("seg-000001.casper"))
            .expect("initial segment")
            .len();
        // One odd key inside each of the first `dirty` chunks.
        for c in 0..dirty {
            let key = c * 2 * CHUNK_VALUES as u64 + 7;
            durable
                .execute(&HapQuery::Q4 {
                    key,
                    payload: payload_row(key),
                })
                .expect("write");
        }
        assert_eq!(durable.stats().dirty_chunks, dirty);
        durable.checkpoint().expect("checkpoint");
        let inc_seg = fs::metadata(dir.join("seg-000002.casper"))
            .expect("incremental segment")
            .len();
        assert!(
            inc_seg as f64 <= max_share * full_seg as f64,
            "incremental segment ({inc_seg}B) should be at most {max_share} of the \
             full one ({full_seg}B) when {dirty} of {chunks} chunks are dirty"
        );
        // A checkpoint with nothing dirty folds the WAL without any segment.
        let g = durable.checkpoint().expect("empty checkpoint");
        assert_eq!(durable.stats().generation, g);
        assert_eq!(durable.stats().dirty_chunks, 0);
        assert!(
            !casper_persist::FileKind::Segment.path(&dir, 3).exists(),
            "a pure WAL fold must not allocate a segment"
        );
    }
}

#[test]
fn damaged_segment_record_surfaces_typed_corruption_at_first_touch() {
    let dir = test_dir("incr_damage_seg");
    let durable = DurableTable::create_from_table(&dir, seed_table(), DurableOptions::default())
        .expect("create");
    let want_len = durable.len();
    drop(durable);
    // Flip one byte inside a chunk record (past the 16-byte header).
    let seg = dir.join("seg-000001.casper");
    let mut bytes = fs::read(&seg).expect("seg");
    let mid = 16 + (bytes.len() - 16) / 2;
    bytes[mid] ^= 0x20;
    fs::write(&seg, &bytes).expect("damage");

    // Metadata-only open still succeeds (the manifest is intact)…
    let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    assert_eq!(t.len(), want_len, "live counts come from the manifest");
    // …but the first query touching the damaged chunk gets a typed error,
    // not a panic and not silent garbage.
    let err = (0..ROWS)
        .map(|i| t.execute(&HapQuery::Q1 { v: i * 2, k: 1 }))
        .find_map(Result::err)
        .expect("some chunk must fail its checksum");
    assert!(matches!(err, StorageError::Corrupt { .. }), "got {err}");
}

#[test]
fn damaged_manifest_fails_open_typed() {
    let dir = test_dir("incr_damage_mani");
    let durable = DurableTable::create_from_table(&dir, seed_table(), DurableOptions::default())
        .expect("create");
    drop(durable);
    let path = dir.join("manifest-000001.casper");
    let mut bytes = fs::read(&path).expect("manifest");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    fs::write(&path, &bytes).expect("damage");
    let err = DurableTable::open(&dir, DurableOptions::default()).expect_err("must fail");
    assert!(matches!(err, StorageError::Corrupt { .. }), "got {err}");
}

/// Regression guard for a hazard that no longer exists in this form: since
/// the `NoOrder` conversion rebuilds the column in place, its version
/// counters never restart (they jump above every earlier value), so the
/// collision described below cannot happen and `optimize` needs no forced
/// full checkpoint — every rebuilt chunk is dirty by its counter. The
/// scenario stays as the check that it is.
#[test]
fn noorder_optimize_checkpoints_fully_despite_counter_reset() {
    // The NoOrder -> Casper conversion *replaces* the column, restarting
    // the per-chunk version counters — which can collide with the clean
    // snapshot and fool an incremental checkpoint into re-pointing rebuilt
    // chunks at stale pre-relayout records. `optimize` must force a full
    // checkpoint instead.
    use casper_engine::optimize::OptimizeOptions;
    let dir = test_dir("incr_noorder_opt");
    let mut config = engine_config();
    config.mode = LayoutMode::NoOrder;
    let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let cols: Vec<Vec<u32>> = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    let table = Table::load(schema(), keys, cols, config);
    let mut t =
        DurableTable::create_from_table(&dir, table, DurableOptions::default()).expect("create");
    // Dirty exactly one chunk via a row-count-preserving write (a delete:
    // an insert would change the rebuilt chunk count and mask the hazard),
    // then checkpoint: the clean counter snapshot is now 1 for that chunk
    // — exactly the value every chunk of a freshly rebuilt column lands on
    // after the optimizer's one `chunks_mut` sweep.
    t.execute(&HapQuery::Q5 { v: 100 }).expect("delete");
    t.checkpoint().expect("checkpoint");

    let sample: Vec<HapQuery> = (0..40u64)
        .map(|i| HapQuery::Q2 {
            vs: i * 8,
            ve: i * 8 + 40,
        })
        .collect();
    t.optimize(&sample, &OptimizeOptions::default())
        .expect("optimize");
    let want = fingerprint_durable(&mut t, 1);
    drop(t);

    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("reopen");
    assert_eq!(
        fingerprint_durable(&mut reopened, 1),
        want,
        "reopen after NoOrder optimize must see the re-laid-out data, \
         not stale pre-relayout records"
    );
}

/// The variant the test above had to dodge: inserts first, so the rebuilt
/// chunk count (4) differs from the manifest's (3), and a watermark
/// checkpoint still in flight when `optimize` is called, so its completion
/// lands *after* the re-layout with three records for what are now four
/// chunks. Crash before and after the post-optimize checkpoint commits.
#[test]
fn noorder_optimize_across_a_chunk_count_change_and_an_inflight_checkpoint() {
    use casper_engine::optimize::OptimizeOptions;
    let dir = test_dir("incr_noorder_grow");
    let (vfs, handle) = fault_handle(21);
    let opts = DurableOptions {
        group_commit: 64,
        wal_checkpoint_bytes: 1,
        background_checkpointer: true,
        ..DurableOptions::default()
    };
    let mut config = engine_config();
    config.mode = LayoutMode::NoOrder;
    let load = || {
        let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
        let cols: Vec<Vec<u32>> = (0..2)
            .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
            .collect();
        Table::load(schema(), keys, cols, config)
    };
    let n = 12usize; // 192 + 12 rows re-chunk into 4 chunks of <= 64
    let mut oracle = load();
    for q in markers(n) {
        oracle.execute(&q).expect("oracle");
    }
    let want = fingerprint_oracle(&mut oracle, n);
    let sample: Vec<HapQuery> = (0..40u64)
        .map(|i| HapQuery::Q2 {
            vs: i * 8,
            ve: i * 8 + 40,
        })
        .collect();

    let mut t = DurableTable::create_from_table_with_vfs(handle.clone(), &dir, load(), opts)
        .expect("create");
    for q in markers(n) {
        t.execute(&q).expect("write");
    }
    // The seal crosses the watermark: generation 2 is captured and handed
    // to the checkpointer, and nothing absorbs its completion yet.
    t.flush().expect("flush");
    assert!(t.stats().checkpoint_in_flight);
    assert_eq!(t.stats().generation, 1);

    // The post-optimize checkpoint (generation 3) cannot write its manifest.
    vfs.inject(FaultRule::on_path(
        VfsOp::Write,
        "manifest-000003",
        FaultErr::Eio,
    ));
    let err = t
        .optimize(&sample, &OptimizeOptions::default())
        .expect_err("the post-optimize checkpoint must fail");
    assert_eq!(raw_os(&err), Some(5), "typed EIO, got {err}");
    assert_eq!(
        t.stats().generation,
        2,
        "the in-flight checkpoint committed"
    );
    assert_eq!(t.table().column().chunk_count(), 4);
    assert_eq!(t.stats().dirty_chunks, 4, "every rebuilt chunk is dirty");
    assert_eq!(fingerprint_durable(&mut t, n), want);
    drop(t);
    vfs.clear_faults();
    vfs.simulate_crash()
        .expect("crash before the re-layout is durable");

    let mut t = DurableTable::open_with_vfs(handle.clone(), &dir, opts).expect("reopen");
    assert_eq!(t.table().column().config().mode, LayoutMode::NoOrder);
    assert_eq!(fingerprint_durable(&mut t, n), want, "old layout + WAL");
    t.optimize(&sample, &OptimizeOptions::default())
        .expect("optimize");
    assert_eq!(t.table().column().chunk_count(), 4);
    assert_eq!(t.stats().dirty_chunks, 0);
    assert_eq!(t.stats().segments, 1, "one fresh segment, nothing older");
    drop(t);
    vfs.simulate_crash()
        .expect("crash after the re-layout is durable");

    let mut t = DurableTable::open_with_vfs(handle, &dir, opts).expect("reopen");
    assert_eq!(t.table().column().config().mode, LayoutMode::Casper);
    assert_eq!(t.table().column().chunk_count(), 4);
    assert_eq!(fingerprint_durable(&mut t, n), want, "re-laid-out data");
}

/// A durable table over 4 000 distinct even keys in shuffled load order
/// (7919 is coprime to 4000), four chunks of 1024.
fn shuffled_table(tag: &str, mode: LayoutMode) -> DurableTable {
    let mut config = engine_config();
    config.mode = mode;
    config.chunk_values = 1024;
    let keys: Vec<u64> = (0..4000u64).map(|i| (i * 7919 % 4000) * 2).collect();
    let cols: Vec<Vec<u32>> = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    let table = Table::load(schema(), keys, cols, config);
    DurableTable::create_from_table(&test_dir(tag), table, DurableOptions::default())
        .expect("create")
}

fn point_reads() -> Vec<HapQuery> {
    (0..572u64)
        .map(|i| HapQuery::Q1 { v: i * 14, k: 1 })
        .collect()
}

/// Reopen `dir` and check the restored frequency models are exactly what
/// `sample` captures against the restored chunking, chunk for chunk.
fn assert_reopened_fms_describe(dir: &Path, sample: &[HapQuery]) {
    use casper_engine::optimize::capture_per_chunk;
    let mut t = DurableTable::open(dir, DurableOptions::default()).expect("reopen");
    t.hydrate_all().expect("hydrate");
    let fms = t.frequency_models();
    let point_mass: Vec<f64> = fms.iter().map(|fm| fm.pq.iter().sum()).collect();
    assert_eq!(
        fms,
        capture_per_chunk(t.table(), sample),
        "point mass per chunk: {point_mass:?}"
    );
}

/// `optimize` persists the frequency models the layout was solved for:
/// captured against the chunking that was re-laid-out, i.e. *after* the
/// `NoOrder` conversion. On shuffled keys the pre-conversion chunking
/// routes the same sample completely differently (ascending keys, as in
/// the fixture above, hide the difference).
#[test]
fn optimize_persists_the_frequency_models_the_layout_was_solved_for() {
    use casper_engine::optimize::OptimizeOptions;
    let mut t = shuffled_table("incr_fm_optimize", LayoutMode::NoOrder);
    t.optimize(&point_reads(), &OptimizeOptions::default())
        .expect("optimize");
    drop(t);
    assert_reopened_fms_describe(&test_dir_path("incr_fm_optimize"), &point_reads());
}

/// `maybe_reoptimize` makes a new layout durable *with* the frequency
/// models of the window it was solved for, not those of the previous
/// `optimize`.
#[test]
fn maybe_reoptimize_persists_the_frequency_models_of_its_window() {
    use casper_engine::adapt::{AdaptConfig, AdaptDecision, AdaptiveController};
    use casper_engine::optimize::OptimizeOptions;
    let mut t = shuffled_table("incr_fm_adapt", LayoutMode::Casper);
    t.optimize(&point_reads(), &OptimizeOptions::default())
        .expect("optimize");
    let before = t.frequency_models().to_vec();

    // The workload turns from point reads to inserts and range scans.
    let mut ctl = AdaptiveController::new(AdaptConfig {
        window: 512,
        benefit_threshold: 1.05,
        ..AdaptConfig::default()
    });
    let window: Vec<HapQuery> = (0..512u64)
        .map(|i| match i % 2 {
            0 => HapQuery::Q4 {
                key: 1 + (i * 14) % 8000,
                payload: payload_row(1),
            },
            _ => HapQuery::Q2 {
                vs: (i * 14) % 6000,
                ve: (i * 14) % 6000 + 2000,
            },
        })
        .collect();
    for q in &window {
        ctl.observe(q);
    }
    let decision = t.maybe_reoptimize(&mut ctl).expect("adapt");
    assert!(
        matches!(decision, AdaptDecision::Reoptimized { .. }),
        "the shifted window did not re-partition: {decision:?}"
    );
    assert_ne!(
        t.frequency_models(),
        before,
        "still the previous optimize's"
    );
    drop(t);
    assert_reopened_fms_describe(&test_dir_path("incr_fm_adapt"), &window);
}

#[test]
fn damaged_middle_wal_link_fails_open_typed() {
    // A middle link of the WAL chain was fully sealed before its successor
    // was created; damage inside it must surface as typed corruption, not
    // a silent hole in the committed history (later links still replaying
    // past dropped batches).
    let dir = test_dir("incr_mid_wal");
    let mut t = DurableTable::create_from_table(&dir, seed_table(), DurableOptions::default())
        .expect("create");
    for q in markers(6) {
        t.execute(&q).expect("write");
    }
    drop(t);
    // Fabricate an in-flight-checkpoint chain: the rotated successor
    // exists, making wal-000001 a middle link.
    fs::write(dir.join("wal-000002.log"), b"").expect("successor");
    let wal1 = dir.join("wal-000001.log");
    let mut bytes = fs::read(&wal1).expect("wal");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&wal1, &bytes).expect("damage");
    let err = DurableTable::open(&dir, DurableOptions::default()).expect_err("must fail");
    assert!(matches!(err, StorageError::Corrupt { .. }), "got {err}");
}

// ---------------------------------------------------------------------------
// Fault matrix: deterministic fault injection through the VFS, each case
// checked against the committed-prefix oracle. The contract under every
// fault: recovery lands on exactly the acknowledged writes, or the table
// degrades with a typed error — never a panic, never an acked-then-lost
// commit.
// ---------------------------------------------------------------------------

use casper_persist::{FaultErr, FaultRule, FaultVfs, VfsHandle, VfsOp};
use std::sync::Arc;

fn fault_handle(seed: u64) -> (Arc<FaultVfs>, VfsHandle) {
    let vfs = Arc::new(FaultVfs::with_seed(seed));
    let handle = VfsHandle::fault(Arc::clone(&vfs));
    (vfs, handle)
}

fn raw_os(err: &StorageError) -> Option<i32> {
    match err {
        StorageError::Io(e) => e.raw_os_error(),
        _ => None,
    }
}

#[test]
fn fault_enospc_during_compaction() {
    let dir = test_dir("fault_enospc_compact");
    let (vfs, handle) = fault_handle(11);
    let n = 6usize;
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for q in markers(n) {
        t.execute(&q).expect("write");
    }
    let mut oracle = seed_table();
    for q in markers(n) {
        oracle.execute(&q).expect("oracle");
    }
    let want = fingerprint_oracle(&mut oracle, n);

    // The device fills up mid-compaction: every segment write fails.
    vfs.inject(FaultRule::on_path(VfsOp::Write, "seg-", FaultErr::Enospc));
    let err = t.compact().expect_err("compaction must fail under ENOSPC");
    assert_eq!(raw_os(&err), Some(28), "typed ENOSPC, got {err}");
    assert!(
        !t.is_degraded(),
        "a single checkpoint failure must not degrade the table"
    );
    assert_eq!(t.checkpoint_stats().consecutive_failures, 1);
    assert_eq!(
        fingerprint_durable(&mut t, n),
        want,
        "in-memory state untouched by the failed compaction"
    );
    drop(t);

    // Power cut while the device is still full, then recovery.
    vfs.clear_faults();
    vfs.simulate_crash().expect("crash");
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, n),
        want,
        "recovery after mid-compaction ENOSPC lost sealed data"
    );
    // Space cleared: compaction now succeeds and collapses the chain.
    t.compact().expect("compact after space cleared");
    assert_eq!(t.stats().segments, 1);
    assert_eq!(fingerprint_durable(&mut t, n), want);
}

#[test]
fn fault_fsync_during_wal_rotation() {
    let dir = test_dir("fault_rotate_fsync");
    let (vfs, handle) = fault_handle(12);
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for q in markers(6) {
        t.execute(&q).expect("write");
    }

    // The rotation's directory fsync fails: the capture must abort
    // *before* swapping the writer, leaving commits against the old WAL.
    vfs.inject(FaultRule {
        op: VfsOp::FsyncDir,
        path_substr: None,
        nth: Some(1),
        short_bytes: None,
        err: FaultErr::Eio,
        times: 1,
    });
    let err = t.checkpoint().expect_err("rotation dir-fsync must fail");
    assert_eq!(raw_os(&err), Some(5), "typed EIO, got {err}");
    assert!(!t.is_degraded());

    // Writes keep acknowledging into the old (still durable) WAL.
    for q in markers(8).split_off(6) {
        t.execute(&q).expect("write after failed rotation");
    }
    drop(t);

    // Crash: the rotated WAL's dirent was never durable, so it vanishes —
    // and every acknowledged write must still be there.
    vfs.simulate_crash().expect("crash");
    let mut oracle = seed_table();
    for q in markers(8) {
        oracle.execute(&q).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, 8),
        fingerprint_oracle(&mut oracle, 8),
        "acked writes lost across a failed WAL rotation + crash"
    );
    // And the next checkpoint (fault exhausted) completes normally.
    t.checkpoint().expect("checkpoint after fault cleared");
}

/// A watermark checkpoint that cannot even start (its WAL rotation fails
/// to create the next link) fails no write: the batch already sealed, so
/// the failure is counted and reported out of band like any background
/// checkpoint failure, in both checkpointer modes — a caller retrying the
/// "failed" write would otherwise insert it twice.
#[test]
fn fault_watermark_checkpoint_start_is_reported_out_of_band() {
    for background_checkpointer in [false, true] {
        let dir = test_dir(&format!("fault_watermark_start_{background_checkpointer}"));
        let (vfs, handle) = fault_handle(14);
        let opts = DurableOptions {
            group_commit: 1,
            wal_checkpoint_bytes: 1,
            background_checkpointer,
            ..DurableOptions::default()
        };
        let mut t =
            DurableTable::create_from_table_with_vfs(handle.clone(), &dir, seed_table(), opts)
                .expect("create");
        vfs.inject(FaultRule::on_path(VfsOp::Open, "wal-", FaultErr::Enospc));
        let write = &markers(1)[0];
        t.execute(write)
            .expect("the write sealed durably before its checkpoint failed to start");
        assert_eq!(t.len(), ROWS as usize + 1);
        assert!(t.stats().checkpoint_failed);
        assert_eq!(t.checkpoint_stats().consecutive_failures, 1);
        let err = t.take_checkpoint_error().expect("reported out of band");
        assert_eq!(raw_os(&err), Some(28), "typed ENOSPC, got {err}");

        vfs.clear_faults();
        t.checkpoint().expect("checkpoint after fault cleared");
        drop(t);
        vfs.simulate_crash().expect("crash");
        let mut t = DurableTable::open_with_vfs(handle, &dir, opts).expect("open");
        let probe = HapQuery::Q1 { v: marker(0), k: 2 };
        assert_eq!(t.execute(&probe).expect("probe").result.scalar(), 1);
        assert_eq!(t.len(), ROWS as usize + 1, "the row is there exactly once");
    }
}

#[test]
fn fault_short_write_current_swing() {
    let dir = test_dir("fault_current_short");
    let (vfs, handle) = fault_handle(13);
    let n = 6usize;
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for q in markers(n) {
        t.execute(&q).expect("write");
    }

    // Every write to CURRENT(.tmp) tears after one byte: the swing can
    // never commit, so the checkpoint must fail after its retries without
    // ever publishing a half-written pointer.
    vfs.inject(FaultRule {
        op: VfsOp::Write,
        path_substr: Some("CURRENT".into()),
        nth: None,
        short_bytes: Some(1),
        err: FaultErr::Eio,
        times: u64::MAX,
    });
    let err = t.checkpoint().expect_err("CURRENT swing must fail");
    assert_eq!(raw_os(&err), Some(5), "typed EIO, got {err}");
    let cp = t.checkpoint_stats();
    assert_eq!(cp.consecutive_failures, 1);
    assert_eq!(
        cp.recent_failures
            .last()
            .expect("failure recorded")
            .attempts,
        3,
        "default policy retries the job"
    );
    assert_eq!(t.stats().generation, 1, "generation must not advance");
    drop(t);

    vfs.clear_faults();
    vfs.simulate_crash().expect("crash");
    let mut oracle = seed_table();
    for q in markers(n) {
        oracle.execute(&q).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(t.stats().generation, 1, "CURRENT never swung");
    assert_eq!(
        fingerprint_durable(&mut t, n),
        fingerprint_oracle(&mut oracle, n),
        "torn CURRENT swing lost sealed data"
    );
}

#[test]
fn fault_eio_on_manifest_read() {
    let dir = test_dir("fault_manifest_read");
    let (vfs, handle) = fault_handle(14);
    let n = 4usize;
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for q in markers(n) {
        t.execute(&q).expect("write");
    }
    t.checkpoint().expect("checkpoint");
    drop(t);

    // A bad sector under the manifest: open must fail typed, not panic.
    vfs.inject(FaultRule::on_path(VfsOp::Read, "manifest-", FaultErr::Eio));
    let err = DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default())
        .expect_err("manifest read must fail");
    assert_eq!(raw_os(&err), Some(5), "typed EIO, got {err}");

    // The sector recovers: the same directory opens to the oracle state.
    vfs.clear_faults();
    let mut oracle = seed_table();
    for q in markers(n) {
        oracle.execute(&q).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, n),
        fingerprint_oracle(&mut oracle, n)
    );
}

/// Drive the crash-mid-prune workload against `dir` through `handle`:
/// one pruning checkpoint already behind us, a second one about to run
/// with six writes dirty. Returns the table.
fn pruning_fixture(handle: VfsHandle, dir: &Path) -> DurableTable {
    let opts = DurableOptions {
        background_checkpointer: false, // inline: fsync order is exact
        ..DurableOptions::default()
    };
    let mut t =
        DurableTable::create_from_table_with_vfs(handle, dir, seed_table(), opts).expect("create");
    for q in markers(4) {
        t.execute(&q).expect("write");
    }
    t.checkpoint().expect("first pruning checkpoint");
    for q in markers(6).split_off(4) {
        t.execute(&q).expect("write");
    }
    t
}

/// Crash at *every* directory fsync of a pruning checkpoint (archiving
/// off): WAL rotation, the manifest and `CURRENT` swings, and the final
/// post-prune directory sync that makes stale-file removal durable.
/// Whichever one the power cut beats, recovery must resolve a complete
/// chain — `CURRENT` never points at a pruned file, a half-pruned
/// directory never orphans a WAL link — and serve every acknowledged
/// write. Stale files the crash resurrects are re-pruned next pass.
#[test]
fn fault_crash_at_every_dir_fsync_of_a_pruning_checkpoint() {
    // Prime run: count the dir fsyncs one pruning checkpoint performs
    // (the workload is deterministic, so every run repeats the count).
    let fsyncs_per_checkpoint = {
        let dir = test_dir("fault_prune_crash_prime");
        let (vfs, handle) = fault_handle(40);
        let mut t = pruning_fixture(handle, &dir);
        let before = vfs.counters().dir_fsyncs;
        t.checkpoint().expect("prime checkpoint");
        vfs.counters().dir_fsyncs - before
    };
    assert!(
        fsyncs_per_checkpoint >= 3,
        "premise: rotation + swings + post-prune sync are all dir fsyncs"
    );

    let mut oracle = seed_table();
    for q in markers(8) {
        oracle.execute(&q).expect("oracle");
    }
    for nth in 1..=fsyncs_per_checkpoint {
        let dir = test_dir(&format!("fault_prune_crash_{nth}"));
        let (vfs, handle) = fault_handle(40 + nth);
        let mut t = pruning_fixture(handle.clone(), &dir);
        vfs.inject(FaultRule {
            op: VfsOp::FsyncDir,
            path_substr: None,
            nth: Some(nth),
            short_bytes: None,
            err: FaultErr::Eio,
            times: 1,
        });
        // Early fsyncs fail the checkpoint typed; the post-prune sync is
        // best-effort (the chain is already committed) and stays Ok.
        // Either way the table must stay writable.
        let _ = t.checkpoint();
        assert_eq!(vfs.counters().injected, 1, "nth {nth}: fault never fired");
        assert!(!t.is_degraded(), "nth {nth}: one fsync failure degraded");
        for q in markers(8).split_off(6) {
            t.execute(&q)
                .unwrap_or_else(|e| panic!("nth {nth}: write after fault: {e}"));
        }
        drop(t);

        vfs.clear_faults();
        vfs.simulate_crash().expect("crash");
        let mut t = DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default())
            .unwrap_or_else(|e| panic!("nth {nth}: reopen found an orphaned chain: {e}"));
        assert_eq!(
            fingerprint_durable(&mut t, 8),
            fingerprint_oracle(&mut oracle, 8),
            "nth {nth}: crash mid-prune lost acknowledged writes"
        );
        // Resurrected stale files are garbage, not load-bearing: the next
        // checkpoint prunes them again and the directory stays openable.
        t.checkpoint().expect("re-pruning checkpoint");
        drop(t);
        let mut t = DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default())
            .expect("reopen after re-prune");
        assert_eq!(
            fingerprint_durable(&mut t, 8),
            fingerprint_oracle(&mut oracle, 8)
        );
    }
}

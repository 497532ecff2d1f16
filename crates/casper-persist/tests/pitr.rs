//! Point-in-time recovery: the archive, `open_at`, and hot backup.
//!
//! The contract these tests pin down:
//!
//! * **Bit-exact restore** — with archiving on, `open_at(lsn)` restores
//!   exactly the state whose last committed LSN is the largest commit
//!   boundary at or below `lsn`, across all six layout modes, compared
//!   against an in-memory oracle fingerprinted after every acknowledged
//!   write, replaying every WAL link after its base. Mid-batch targets
//!   round down to their commit boundary.
//! * **Re-layout boundary** — an LSN strictly before an `optimize()`
//!   re-layout restores the *old* physical layout with zero layout
//!   solves; at the shared boundary LSN the
//!   lower generation (the pre-re-layout layout) wins.
//! * **Retire crash safety** — faults and power cuts at any point of the
//!   archive retire (rename, index write, directory fsync) never cost an
//!   acknowledged write, never degrade the live table, and the index
//!   reconciles itself on the next checkpoint.
//! * **Hot backup** — `begin_backup` fences at a committed LSN; the copy
//!   runs while the source keeps absorbing writes; the restored backup
//!   equals the oracle at the fence, and `verify_backup` proves every
//!   byte. Faults during the copy surface as typed errors, leave the
//!   live table untouched, and release the pin for a clean retry.
//! * **Retention** — LSNs behind the retention horizon fail with a typed
//!   error, never a panic; newer LSNs stay restorable.
//! * **Scrub** — corrupted archive files become findings + counters;
//!   serving is never blocked by archive damage.
//! * **One reader** — `open`, `open_at`, scrub, backup and
//!   `verify_backup` resolve a directory through the same code, so each
//!   rejects the same damage with the same typed `Corrupt` (or, where it
//!   never reads the damaged file, is provably unaffected by it).

use casper_engine::optimize::OptimizeOptions;
use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_persist::incremental::{MANIFEST_MAGIC, MANIFEST_VERSION, SEGMENT_MAGIC};
use casper_persist::{
    ArchiveConfig, DurableOptions, DurableTable, FaultErr, FaultRule, FaultVfs, FileKind,
    VfsHandle, VfsOp,
};
use casper_storage::StorageError;
use casper_workload::{HapQuery, HapSchema};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ROWS: u64 = 192;
/// Keys are even numbers 0, 2, …, 2·(ROWS−1); three chunks of 64.
const CHUNK_VALUES: usize = 64;
/// Writes per history; small so the whole matrix stays debug-fast.
const WRITES: usize = 8;
/// Checkpoints after these writes: each one retires the superseded
/// manifest, its newly-unreferenced segments, and the rotated-out WAL.
const CHECKPOINT_AFTER: [usize; 3] = [1, 4, 6];

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn schema() -> HapSchema {
    HapSchema { payload_cols: 2 }
}

fn engine_config(mode: LayoutMode) -> EngineConfig {
    let mut config = EngineConfig::small(mode);
    config.chunk_values = CHUNK_VALUES;
    config.threads = 1;
    config
}

fn payload_row(key: u64) -> Vec<u32> {
    vec![(key % 251) as u32, (key % 83) as u32]
}

fn seed_table(mode: LayoutMode) -> Table {
    let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let cols: Vec<Vec<u32>> = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    Table::load(schema(), keys, cols, engine_config(mode))
}

/// Marker key of write `i` (odd → never collides with seeded keys).
fn marker(i: usize) -> u64 {
    1 + 2 * i as u64
}

fn marker_write(i: usize) -> HapQuery {
    HapQuery::Q4 {
        key: marker(i),
        payload: payload_row(marker(i)),
    }
}

/// Fingerprint: row count, marker presence probes, full count, range sum.
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

fn fault_handle(seed: u64) -> (Arc<FaultVfs>, VfsHandle) {
    let vfs = Arc::new(FaultVfs::with_seed(seed));
    let handle = VfsHandle::fault(Arc::clone(&vfs));
    (vfs, handle)
}

/// Synchronous options with archiving on: no background threads, every
/// checkpoint (and its retire pass) runs inline on the calling thread.
fn archive_opts() -> DurableOptions {
    DurableOptions {
        background_checkpointer: false,
        archive: Some(ArchiveConfig::default()),
        ..DurableOptions::default()
    }
}

/// One committed point of a history: the batch's commit LSN and the
/// oracle fingerprint immediately after it was acknowledged.
struct Point {
    lsn: u64,
    fingerprint: Vec<u64>,
}

/// Drive the reference workload with archiving on: `WRITES` marker
/// writes (group commit = 1, so each is its own sealed batch) with
/// checkpoints interleaved so superseded generations actually retire.
/// Returns one `Point` per acknowledged write.
fn build_history(handle: VfsHandle, dir: &Path, mode: LayoutMode) -> Vec<Point> {
    let mut t =
        DurableTable::create_from_table_with_vfs(handle, dir, seed_table(mode), archive_opts())
            .expect("create");
    let mut oracle = seed_table(mode);
    let mut points = Vec::new();
    for i in 0..WRITES {
        t.execute(&marker_write(i)).expect("write");
        oracle.execute(&marker_write(i)).expect("oracle");
        points.push(Point {
            lsn: t.stats().next_lsn - 1,
            fingerprint: fingerprint_oracle(&mut oracle, WRITES),
        });
        if CHECKPOINT_AFTER.contains(&i) {
            t.checkpoint().expect("checkpoint");
        }
    }
    points
}

// ---------------------------------------------------------------------------
// open_at: bit-exact restore across every mode
// ---------------------------------------------------------------------------

/// Property: for every layout mode and every acknowledged commit LSN in
/// an archived history, `open_at(lsn)` equals the in-memory oracle at
/// that write — even for LSNs whose generation was long superseded — and
/// it replays exactly the writes between the newest checkpoint at or
/// before the target and the target: none at a checkpoint boundary, the
/// archived WAL in between.
#[test]
fn open_at_matches_oracle_across_modes() {
    for mode in LayoutMode::all() {
        let dir = test_dir(&format!("pitr_modes_{mode:?}"));
        let points = build_history(VfsHandle::default(), &dir, mode);
        for (i, p) in points.iter().enumerate() {
            let mut pit = DurableTable::open_at(&dir, p.lsn)
                .unwrap_or_else(|e| panic!("{mode:?}: open_at({}) failed: {e}", p.lsn));
            assert_eq!(
                pit.restored_lsn, p.lsn,
                "{mode:?}: write {i} targeted a commit boundary"
            );
            // Each marker write is one op; the base is the checkpoint taken
            // after the last `CHECKPOINT_AFTER` write at or before `i` (the
            // create's checkpoint, before write 0, if there is none).
            let base = CHECKPOINT_AFTER.iter().rev().find(|&&c| c <= i);
            let want_replayed = base.map_or(i + 1, |&c| i - c) as u64;
            assert_eq!(
                pit.ops_replayed, want_replayed,
                "{mode:?}: open_at({}) replayed the wrong ops for write {i}",
                p.lsn
            );
            assert_eq!(
                fingerprint_oracle(&mut pit.table, WRITES),
                p.fingerprint,
                "{mode:?}: open_at({}) diverged from the oracle at write {i}",
                p.lsn
            );
        }
    }
}

/// A target between two commit boundaries rounds *down*: nothing between
/// boundaries was ever acknowledged, so nothing newer may appear.
#[test]
fn open_at_mid_batch_rounds_down_to_commit_boundary() {
    let dir = test_dir("pitr_mid_batch");
    let points = build_history(VfsHandle::default(), &dir, LayoutMode::Casper);
    // With group commit = 1 each batch spans two LSNs (op, commit
    // marker), so `commit + 1` lands strictly inside the next batch.
    let p = &points[2];
    let mut pit = DurableTable::open_at(&dir, p.lsn + 1).expect("open_at");
    assert_eq!(pit.restored_lsn, p.lsn, "mid-batch target must round down");
    assert_eq!(fingerprint_oracle(&mut pit.table, WRITES), p.fingerprint);
}

/// One replay from one base across three WAL links counts the ops of
/// every link. Two checkpoints fail after their capture rotated the WAL
/// (every manifest write fails, retries included), so the create's
/// manifest stays the newest base while each rotation opens a new link
/// that the following writes land in.
#[test]
fn open_at_replays_every_wal_link_after_its_base() {
    const FAILED_CHECKPOINT_AFTER: [usize; 2] = [2, 5];
    let dir = test_dir("pitr_multi_link");
    let (vfs, handle) = fault_handle(11);
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(LayoutMode::Casper),
        archive_opts(),
    )
    .expect("create");
    let base_gen = t.stats().generation;
    let mut oracle = seed_table(LayoutMode::Casper);
    let mut points = Vec::new();
    for i in 0..WRITES {
        t.execute(&marker_write(i)).expect("write");
        oracle.execute(&marker_write(i)).expect("oracle");
        points.push(Point {
            lsn: t.stats().next_lsn - 1,
            fingerprint: fingerprint_oracle(&mut oracle, WRITES),
        });
        if FAILED_CHECKPOINT_AFTER.contains(&i) {
            vfs.inject(FaultRule::on_path(VfsOp::Write, "manifest-", FaultErr::Eio));
            t.checkpoint()
                .expect_err("a checkpoint whose manifest cannot be written fails");
            vfs.clear_faults();
        }
    }
    assert_eq!(t.stats().generation, base_gen, "no checkpoint committed");
    assert!(!t.is_degraded());
    assert_eq!(
        wal_links(&dir).len(),
        3,
        "each failed capture rotated the WAL"
    );
    drop(t);

    for (i, p) in points.iter().enumerate() {
        let mut pit = DurableTable::open_at_with_vfs(handle.clone(), &dir, p.lsn)
            .unwrap_or_else(|e| panic!("open_at({}) failed: {e}", p.lsn));
        assert_eq!(pit.generation, base_gen, "write {i}: the create's base");
        assert_eq!(pit.restored_lsn, p.lsn, "write {i}");
        assert_eq!(
            pit.ops_replayed,
            i as u64 + 1,
            "write {i}: every write since the base, across the links"
        );
        assert_eq!(
            fingerprint_oracle(&mut pit.table, WRITES),
            p.fingerprint,
            "open_at({}) diverged from the oracle at write {i}",
            p.lsn
        );
    }
}

// ---------------------------------------------------------------------------
// open_at across a re-layout boundary
// ---------------------------------------------------------------------------

/// An LSN from before an `optimize()` re-layout restores the *old*
/// layout — with zero layout solves — and at
/// the boundary LSN shared by the pre- and post-re-layout manifests the
/// lower generation (the old layout) wins.
#[test]
fn open_at_before_relayout_restores_old_layout_without_solving() {
    let dir = test_dir("pitr_relayout");
    let mut t =
        DurableTable::create_from_table(&dir, seed_table(LayoutMode::Casper), archive_opts())
            .expect("create");
    let mut oracle = seed_table(LayoutMode::Casper);
    for i in 0..3 {
        t.execute(&marker_write(i)).expect("write");
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    t.checkpoint().expect("pre-relayout checkpoint");
    let pre_lsn = t.stats().durable_lsn;
    let pre_gen = t.stats().generation;
    let pre_fingerprint = fingerprint_oracle(&mut oracle, 6);

    // Re-layout for a skewed sample; optimize() checkpoints the new
    // layout into a fresh generation at the *same* durable LSN.
    let sample: Vec<HapQuery> = (0..40u64)
        .map(|i| HapQuery::Q2 {
            vs: i * 8,
            ve: i * 8 + 40,
        })
        .collect();
    t.optimize(&sample, &OptimizeOptions::default())
        .expect("optimize");
    assert!(t.stats().generation > pre_gen, "re-layout checkpointed");
    for i in 3..6 {
        t.execute(&marker_write(i)).expect("write");
    }
    t.checkpoint().expect("post-relayout checkpoint");
    drop(t);

    // Hydrate every chunk right after open_at — the solve delta then
    // cover the full restore, not just the chunks the fingerprint happens
    // to touch.
    let solves_before = casper_core::solver::telemetry::solve_count();
    let mut pit = DurableTable::open_at(&dir, pre_lsn).expect("open_at before re-layout");
    pit.table.hydrate_all().expect("hydrate the restored table");
    assert_eq!(
        casper_core::solver::telemetry::solve_count(),
        solves_before,
        "restoring an archived layout must not invoke the solver"
    );
    assert_eq!(
        pit.generation, pre_gen,
        "the boundary LSN is shared by both manifests; the lower \
         generation (the old layout) must win"
    );
    assert_eq!(pit.restored_lsn, pre_lsn);
    assert_eq!(
        fingerprint_oracle(&mut pit.table, 6),
        pre_fingerprint,
        "pre-re-layout state diverged"
    );
}

// ---------------------------------------------------------------------------
// Retire crash safety
// ---------------------------------------------------------------------------

/// Faults at every phase of the archive retire — the rename into
/// `archive/`, the index rewrite (torn at assorted byte offsets), the
/// directory fsyncs — followed by a power cut. Retire is best-effort
/// post-commit: the fault must never fail a write, never degrade the
/// table, and recovery + the reconciled index must still serve both the
/// live state and the archived history.
#[test]
fn archive_retire_fault_matrix() {
    let schedules: Vec<(&str, FaultRule)> = vec![
        (
            "rename-into-archive",
            FaultRule {
                op: VfsOp::Rename,
                path_substr: Some("archive".into()),
                nth: Some(1),
                short_bytes: None,
                err: FaultErr::Eio,
                times: 1,
            },
        ),
        (
            "second-rename",
            FaultRule {
                op: VfsOp::Rename,
                path_substr: Some("archive".into()),
                nth: Some(2),
                short_bytes: None,
                err: FaultErr::Eio,
                times: 1,
            },
        ),
        (
            "index-write-torn-start",
            FaultRule::short_write("archive-index", 1, 0, FaultErr::Eio),
        ),
        (
            "index-write-torn-mid",
            FaultRule::short_write("archive-index", 1, 9, FaultErr::Enospc),
        ),
        (
            "index-write-torn-late",
            FaultRule::short_write("archive-index", 2, 33, FaultErr::Eio),
        ),
        (
            "archive-dir-fsync",
            FaultRule {
                op: VfsOp::FsyncDir,
                path_substr: Some("archive".into()),
                nth: Some(1),
                short_bytes: None,
                err: FaultErr::Eio,
                times: 1,
            },
        ),
        (
            "archived-file-read",
            FaultRule {
                op: VfsOp::Read,
                path_substr: Some("wal-".into()),
                nth: Some(1),
                short_bytes: None,
                err: FaultErr::Eio,
                times: 1,
            },
        ),
    ];
    for (seed, (name, rule)) in schedules.into_iter().enumerate() {
        let (vfs, handle) = fault_handle(seed as u64);
        let dir = test_dir(&format!("pitr_retire_fault_{seed}"));
        vfs.inject(rule);
        let mut t = DurableTable::create_from_table_with_vfs(
            handle.clone(),
            &dir,
            seed_table(LayoutMode::Casper),
            archive_opts(),
        )
        .expect("create");
        let mut oracle = seed_table(LayoutMode::Casper);
        let mut last_lsn = 0;
        for i in 0..WRITES {
            t.execute(&marker_write(i))
                .unwrap_or_else(|e| panic!("{name}: write {i} failed: {e}"));
            oracle.execute(&marker_write(i)).expect("oracle");
            last_lsn = t.stats().next_lsn - 1;
            if CHECKPOINT_AFTER.contains(&i) {
                t.checkpoint()
                    .unwrap_or_else(|e| panic!("{name}: retire fault leaked into checkpoint: {e}"));
            }
        }
        assert!(!t.is_degraded(), "{name}: retire fault degraded the table");
        assert!(vfs.counters().injected >= 1, "{name}: schedule never fired");
        drop(t);

        vfs.clear_faults();
        vfs.simulate_crash().expect("crash");
        let mut t = DurableTable::open_with_vfs(handle.clone(), &dir, archive_opts())
            .unwrap_or_else(|e| panic!("{name}: reopen after crash failed: {e}"));
        assert_eq!(
            fingerprint_durable(&mut t, WRITES),
            fingerprint_oracle(&mut oracle, WRITES),
            "{name} (faults: {:?}): lost acknowledged writes",
            vfs.injected_faults()
        );
        // The next checkpoint reconciles the index against the directory;
        // afterwards the archived history must be fully restorable again.
        t.execute(&marker_write(WRITES)).expect("post-crash write");
        t.checkpoint().expect("reconciling checkpoint");
        t.archive_index()
            .expect("index loads clean after reconcile");
        let mut pit = DurableTable::open_at_with_vfs(handle.clone(), &dir, last_lsn)
            .unwrap_or_else(|e| panic!("{name}: open_at({last_lsn}) after crash failed: {e}"));
        assert_eq!(
            fingerprint_oracle(&mut pit.table, WRITES),
            fingerprint_oracle(&mut oracle, WRITES),
            "{name}: archived history diverged after crash + reconcile"
        );
    }
}

// ---------------------------------------------------------------------------
// Hot backup
// ---------------------------------------------------------------------------

/// The online backup contract: `begin_backup` fences at a committed LSN,
/// the copy runs on another thread while the source keeps absorbing
/// writes, and the finished backup (a) verifies clean, (b) opens as a
/// table bit-identical to the oracle at the fence, and (c) never
/// perturbed the live table, which kept moving during the copy.
#[test]
fn hot_backup_is_consistent_under_concurrent_writes() {
    let dir = test_dir("pitr_hot_backup");
    let backup_dir = test_dir("pitr_hot_backup_dest");
    let mut t =
        DurableTable::create_from_table(&dir, seed_table(LayoutMode::Casper), archive_opts())
            .expect("create");
    let mut oracle = seed_table(LayoutMode::Casper);
    for i in 0..4 {
        t.execute(&marker_write(i)).expect("write");
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    t.checkpoint().expect("checkpoint");

    let job = t.begin_backup(&backup_dir).expect("begin_backup");
    let fence_lsn = job.backup_lsn();
    assert_eq!(fence_lsn, t.stats().next_lsn - 1, "fence = last ack'd LSN");
    let at_fence = fingerprint_oracle(&mut oracle, WRITES);
    let copier = std::thread::spawn(move || job.run());

    // The source keeps serving and absorbing writes while the copy runs.
    for i in 4..WRITES {
        t.execute(&marker_write(i)).expect("write during backup");
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    let report = copier.join().expect("copier").expect("backup");
    assert_eq!(report.backup_lsn, fence_lsn);
    assert!(report.files > 0 && report.bytes > 0);

    // Every byte of the backup proves out, and its WAL chain ends at the
    // fence: the writes that raced the copy are not in it.
    let verify = DurableTable::verify_backup(&backup_dir).expect("verify_backup");
    assert_eq!(verify.last_lsn, fence_lsn);
    let mut restored =
        DurableTable::open(&backup_dir, archive_opts()).expect("open backup as a table");
    assert_eq!(
        fingerprint_durable(&mut restored, WRITES),
        at_fence,
        "backup diverged from the oracle at the fence LSN"
    );
    // The live table saw all eight writes.
    assert_eq!(
        fingerprint_durable(&mut t, WRITES),
        fingerprint_oracle(&mut oracle, WRITES),
        "the backup perturbed the live table"
    );
}

/// Faults during the backup copy (torn writes, failed fsyncs, failed
/// renames in the destination) surface as typed errors, leave the live
/// table untouched, and release the source pin so an immediate retry
/// succeeds once the fault clears.
#[test]
fn backup_copy_fault_matrix() {
    let schedules: Vec<(&str, FaultRule)> = vec![
        (
            "dest-manifest-torn",
            FaultRule::short_write("bkup", 1, 7, FaultErr::Eio),
        ),
        (
            "dest-enospc",
            FaultRule::short_write("bkup", 2, 0, FaultErr::Enospc),
        ),
        ("dest-fsync", FaultRule::nth_fsync("bkup", 1, FaultErr::Eio)),
        (
            "dest-current-rename",
            FaultRule {
                op: VfsOp::Rename,
                path_substr: Some("bkup".into()),
                nth: Some(1),
                short_bytes: None,
                err: FaultErr::Eio,
                times: 1,
            },
        ),
        (
            "source-read",
            FaultRule {
                op: VfsOp::Read,
                path_substr: Some("seg-".into()),
                nth: Some(1),
                short_bytes: None,
                err: FaultErr::Eio,
                times: 1,
            },
        ),
    ];
    for (seed, (name, rule)) in schedules.into_iter().enumerate() {
        let (vfs, handle) = fault_handle(100 + seed as u64);
        let dir = test_dir(&format!("pitr_backup_fault_{seed}"));
        let backup_dir = test_dir(&format!("pitr_backup_fault_{seed}_bkup"));
        let mut t = DurableTable::create_from_table_with_vfs(
            handle.clone(),
            &dir,
            seed_table(LayoutMode::Casper),
            archive_opts(),
        )
        .expect("create");
        let mut oracle = seed_table(LayoutMode::Casper);
        for i in 0..3 {
            t.execute(&marker_write(i)).expect("write");
            oracle.execute(&marker_write(i)).expect("oracle");
        }
        t.checkpoint().expect("checkpoint");
        vfs.inject(rule);
        let err = t
            .backup_to(&backup_dir)
            .expect_err("faulted backup must fail");
        assert!(
            matches!(err, StorageError::Io(_) | StorageError::Corrupt { .. }),
            "{name}: backup failure must be typed, got {err}"
        );
        assert!(vfs.counters().injected >= 1, "{name}: fault never fired");
        assert!(!t.is_degraded(), "{name}: backup fault degraded the source");

        // The live table is untouched and still writable…
        t.execute(&marker_write(3))
            .expect("write after failed backup");
        oracle.execute(&marker_write(3)).expect("oracle");
        // …and the failed job's pin released on drop: a checkpoint (with
        // its retire pass) and a clean retry both go through.
        vfs.clear_faults();
        t.checkpoint().expect("checkpoint after failed backup");
        let _ = fs::remove_dir_all(&backup_dir);
        t.backup_to(&backup_dir)
            .expect("retry after clearing fault");
        let verify = DurableTable::verify_backup_with_vfs(handle.clone(), &backup_dir)
            .expect("retried backup verifies");
        assert_eq!(verify.last_lsn, t.stats().next_lsn - 1);
        let mut restored =
            DurableTable::open(&backup_dir, archive_opts()).expect("open retried backup");
        assert_eq!(
            fingerprint_durable(&mut restored, 4),
            fingerprint_oracle(&mut oracle, 4),
            "{name}: retried backup diverged"
        );
    }
}

/// A half-written backup directory (no `CURRENT` yet — the copy died
/// before its commit point) is typed-rejected by verification, not
/// misread as an empty table.
#[test]
fn verify_backup_rejects_incomplete_directory() {
    let dir = test_dir("pitr_verify_incomplete");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("manifest-000001.casper"), b"half").expect("write");
    let err = DurableTable::verify_backup(&dir).expect_err("no CURRENT");
    assert!(
        matches!(err, StorageError::Io(_) | StorageError::Corrupt { .. }),
        "got {err}"
    );
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

/// LSNs behind the retention horizon fail with a typed error; everything
/// at or past the oldest surviving generation stays restorable.
#[test]
fn retention_horizon_is_a_typed_error() {
    let dir = test_dir("pitr_retention");
    let opts = DurableOptions {
        background_checkpointer: false,
        archive: Some(ArchiveConfig {
            max_lsns: 4,
            ..ArchiveConfig::default()
        }),
        ..DurableOptions::default()
    };
    let mut t = DurableTable::create_from_table(&dir, seed_table(LayoutMode::Casper), opts)
        .expect("create");
    for i in 0..WRITES {
        t.execute(&marker_write(i)).expect("write");
        if i % 2 == 1 {
            t.checkpoint().expect("checkpoint");
        }
    }
    let last_lsn = t.stats().next_lsn - 1;
    drop(t);

    // LSN 1 (the very first write) is far behind `max_lsns = 4` by now.
    let err = DurableTable::open_at(&dir, 1).expect_err("pre-horizon LSN must be unrestorable");
    assert!(
        matches!(err, StorageError::Corrupt { .. }),
        "horizon miss must be typed, got {err}"
    );
    // The newest state is still there.
    let pit = DurableTable::open_at(&dir, last_lsn).expect("open_at newest");
    assert_eq!(pit.restored_lsn, last_lsn);

    // The error names the oldest LSN that *is* restorable — the smallest
    // durable LSN of any manifest left, live or archived — and `open_at`
    // exactly there succeeds.
    let oldest = [dir.clone(), dir.join("archive")]
        .iter()
        .flat_map(|d| file_names(d).into_iter().map(move |name| d.join(name)))
        .filter(|path| {
            let name = path.file_name().expect("name").to_string_lossy();
            matches!(FileKind::parse(&name), Some((FileKind::Manifest, _)))
        })
        .map(|path| {
            let bytes = fs::read(path).expect("manifest bytes");
            casper_persist::decode_manifest(&bytes)
                .expect("manifest")
                .durable_lsn
        })
        .min()
        .expect("a manifest survives retention");
    assert!(oldest > 1, "retention moved the horizon past LSN 1");
    assert!(
        err.to_string()
            .contains(&format!("oldest restorable LSN is {oldest}")),
        "horizon miss must name LSN {oldest}, got: {err}"
    );
    let pit = DurableTable::open_at(&dir, oldest).expect("open_at the named LSN");
    assert_eq!(pit.restored_lsn, oldest);
}

// ---------------------------------------------------------------------------
// One stale-file rule: pruning and retiring take the same files
// ---------------------------------------------------------------------------

/// Names of the plain files directly under `dir`.
fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .filter(|e| !e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// The same directory checkpointed with archiving off and on: generation 1
/// pinned by a backup, a complete but never-committed `manifest-000002`
/// (its `CURRENT` swing failed), a `.tmp` (the next manifest write failed)
/// and the three-link WAL chain those two failures rotated into being.
/// Which files leave the live directory is one rule's decision; the two
/// arms differ only in where the files go.
#[test]
fn prune_and_retire_take_the_same_files() {
    let mut departures: Vec<[BTreeSet<String>; 2]> = Vec::new();
    for (case, archive) in [None, Some(ArchiveConfig::default())]
        .into_iter()
        .enumerate()
    {
        let (vfs, handle) = fault_handle(11);
        let dir = test_dir(&format!("pitr_stale_rule_{case}"));
        let opts = DurableOptions {
            archive,
            ..archive_opts()
        };
        let mut t = DurableTable::create_from_table_with_vfs(
            handle,
            &dir,
            seed_table(LayoutMode::Casper),
            opts,
        )
        .expect("create");
        for (i, failing) in ["CURRENT", "manifest-"].into_iter().enumerate() {
            t.execute(&marker_write(i)).expect("write");
            vfs.inject(FaultRule::on_path(VfsOp::Write, failing, FaultErr::Eio));
            t.checkpoint().expect_err("checkpoint fails");
            vfs.clear_faults();
        }
        t.execute(&marker_write(2)).expect("write");
        let pinned = [
            "manifest-000001.casper",
            "seg-000001.casper",
            "wal-000001.log",
            "wal-000002.log",
            "wal-000003.log",
        ];
        let before = file_names(&dir);
        for name in pinned.into_iter().chain(["manifest-000002.casper"]) {
            assert!(before.contains(name), "{name} missing from {before:?}");
        }
        assert!(before.iter().any(|n| n.ends_with(".tmp")), "{before:?}");

        // Round 0 checkpoints with the backup's pin held, round 1 after
        // dropping it.
        let dest = test_dir("pitr_stale_rule_dest");
        let mut job = Some(t.begin_backup(&dest).expect("pin"));
        let mut rounds: [BTreeSet<String>; 2] = Default::default();
        for (round, departed) in rounds.iter_mut().enumerate() {
            let before = file_names(&dir);
            t.checkpoint().expect("checkpoint");
            let after = file_names(&dir);
            *departed = before.difference(&after).cloned().collect();
            if round == 0 {
                for name in pinned {
                    assert!(after.contains(name), "pinned {name} left: {after:?}");
                }
                drop(job.take());
            }

            let adir = dir.join("archive");
            let index = t.archive_index().expect("index");
            for name in departed.iter() {
                let indexed = FileKind::parse(name).is_some_and(|(kind, seq)| {
                    index.files.iter().any(|f| (f.kind, f.seq) == (kind, seq))
                });
                assert_eq!(
                    indexed,
                    adir.join(name).exists(),
                    "{name}: in the archive iff the index says so"
                );
                if archive.is_none() {
                    assert!(!indexed, "{name} must be gone, not archived");
                }
            }
        }
        let [with_pin, without_pin] = &rounds;
        assert!(with_pin.contains("manifest-000002.casper"), "{with_pin:?}");
        assert!(with_pin.iter().any(|n| n.ends_with(".tmp")), "{with_pin:?}");
        // Unpinned, generation 1 leaves — except its segment, which the
        // live manifest still points clean chunks at.
        for name in pinned {
            assert_eq!(
                without_pin.contains(name),
                name != "seg-000001.casper",
                "{name}: {without_pin:?}"
            );
        }
        if archive.is_some() {
            // History is kept, garbage is not: the temp file and the
            // segment of the checkpoint whose manifest never landed (no
            // generation references it) are simply gone.
            let archived = file_names(&dir.join("archive"));
            for name in with_pin.iter().chain(without_pin) {
                let garbage = name.ends_with(".tmp") || name == "seg-000003.casper";
                assert_eq!(archived.contains(name), !garbage, "{name}: {archived:?}");
            }
        }
        departures.push(rounds);
    }
    assert_eq!(
        departures[0], departures[1],
        "pruning and retiring must take the same files"
    );
}

// ---------------------------------------------------------------------------
// Scrub over the archive
// ---------------------------------------------------------------------------

/// A flipped bit in an archived file is detected by the scrubber as a
/// finding + counter — and never blocks the live table from serving.
#[test]
fn scrub_surfaces_archive_corruption_without_blocking_serving() {
    let dir = test_dir("pitr_scrub_archive");
    let mut t =
        DurableTable::create_from_table(&dir, seed_table(LayoutMode::Casper), archive_opts())
            .expect("create");
    for i in 0..WRITES {
        t.execute(&marker_write(i)).expect("write");
        if CHECKPOINT_AFTER.contains(&i) {
            t.checkpoint().expect("checkpoint");
        }
    }
    t.checkpoint().expect("final checkpoint");

    // Baseline: a clean pass checks archived files and finds nothing.
    let clean = t.scrub_now().expect("clean scrub");
    assert!(clean.archive_files_checked > 0, "archive was never scanned");
    assert!(
        clean.archive_findings.is_empty(),
        "{:?}",
        clean.archive_findings
    );

    // Flip one byte mid-file in an archived (non-index) file.
    let adir = dir.join("archive");
    let victim = fs::read_dir(&adir)
        .expect("read archive dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n != "archive-index.casper")
        })
        .expect("archive holds at least one retired file");
    let mut bytes = fs::read(&victim).expect("read victim");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&victim, &bytes).expect("corrupt victim");

    let report = t.scrub_now().expect("scrub over damaged archive");
    assert!(
        !report.archive_findings.is_empty(),
        "flipped bit in {victim:?} went undetected"
    );
    assert!(report.findings.is_empty(), "live files were not touched");
    assert!(t.scrub_stats().archive_corrupt_files >= 1);

    // Archive damage never blocks serving: reads and writes both work.
    let mut oracle = seed_table(LayoutMode::Casper);
    for i in 0..=WRITES {
        if i < WRITES {
            oracle.execute(&marker_write(i)).expect("oracle");
        } else {
            t.execute(&marker_write(i))
                .expect("write with damaged archive");
            oracle.execute(&marker_write(i)).expect("oracle");
        }
    }
    assert_eq!(
        fingerprint_durable(&mut t, WRITES + 1),
        fingerprint_oracle(&mut oracle, WRITES + 1)
    );
}

// ---------------------------------------------------------------------------
// Every reader of a directory rejects the same damage the same way
// ---------------------------------------------------------------------------

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("mkdir");
    for entry in fs::read_dir(src).expect("read dir").flatten() {
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).expect("copy");
        }
    }
}

/// The live WAL chain's files, ascending.
fn wal_links(dir: &Path) -> Vec<PathBuf> {
    let mut links: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
        .collect();
    links.sort();
    links
}

/// The manifest `CURRENT` names.
fn current_manifest(dir: &Path) -> PathBuf {
    let current = fs::read_to_string(dir.join("CURRENT")).expect("CURRENT");
    let generation: u64 = current.trim().parse().expect("generation");
    casper_persist::FileKind::Manifest.path(dir, generation)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    None,
    /// Flip one byte inside a chunk record the current manifest points at.
    RecordByte,
    /// Cut 5 bytes off a WAL link that has a successor.
    MiddleWalLink,
    /// Delete the manifest `CURRENT` names.
    Manifest,
    /// `CURRENT` = "x\n".
    Current,
    /// Every manifest and segment header, live and archived, says the
    /// format version before this build's. The checksum covers only the
    /// body, so only the version check can refuse it.
    OlderVersion,
}

/// Every file under `dir` (archive included) by path, with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(dir_files(&path));
        } else {
            files.insert(path.clone(), fs::read(&path).expect("file bytes"));
        }
    }
    files
}

fn apply_damage(dir: &Path, damage: Damage) {
    match damage {
        Damage::None => {}
        Damage::RecordByte => {
            // Failed checkpoints leave orphan segments behind: aim at a
            // record the current manifest actually references.
            let manifest = fs::read(current_manifest(dir)).expect("manifest bytes");
            let manifest = casper_persist::decode_manifest(&manifest).expect("manifest");
            let record = manifest.entries.last().expect("a chunk").base;
            let seg = casper_persist::FileKind::Segment.path(dir, record.seg);
            let mut bytes = fs::read(&seg).expect("segment bytes");
            bytes[(record.offset + record.len / 2) as usize] ^= 0x40;
            fs::write(&seg, &bytes).expect("damage");
        }
        Damage::MiddleWalLink => {
            let links = wal_links(dir);
            assert!(links.len() >= 3, "fixture keeps >= 3 live WAL links");
            let bytes = fs::read(&links[1]).expect("wal bytes");
            assert!(bytes.len() > 5, "the middle link holds sealed batches");
            fs::write(&links[1], &bytes[..bytes.len() - 5]).expect("truncate");
        }
        Damage::Manifest => fs::remove_file(current_manifest(dir)).expect("delete manifest"),
        Damage::Current => fs::write(dir.join("CURRENT"), "x\n").expect("scribble CURRENT"),
        Damage::OlderVersion => {
            let mut rewritten = 0;
            for (path, mut bytes) in dir_files(dir) {
                if [MANIFEST_MAGIC, SEGMENT_MAGIC]
                    .iter()
                    .any(|m| bytes.starts_with(m))
                {
                    bytes[4..8].copy_from_slice(&(MANIFEST_VERSION - 1).to_le_bytes());
                    fs::write(&path, &bytes).expect("rewrite version");
                    rewritten += 1;
                }
            }
            assert!(rewritten >= 4, "live and archived manifests and segments");
        }
    }
}

/// What a reader must do with a damaged directory.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// `Err(StorageError::Corrupt)`.
    Corrupt,
    /// Scrub only: the pass completes and reports the record as a finding
    /// (healing or quarantining it is the table's job, not an error).
    Finding,
    /// The reader never reads the damaged file (or, for `open_at`, has an
    /// archived base to restore from instead): it must succeed exactly as
    /// on the undamaged directory.
    Unaffected,
}

/// Readers in column order: open, open_at(tip), scrub_now, backup run,
/// verify_backup.
fn expectations(damage: Damage) -> [Expect; 5] {
    use Expect::{Corrupt, Finding, Unaffected};
    match damage {
        Damage::None => [Unaffected; 5],
        Damage::RecordByte => [Corrupt, Corrupt, Finding, Corrupt, Corrupt],
        // The scrubber verifies checkpoint records; it does not read WALs.
        Damage::MiddleWalLink => [Corrupt, Corrupt, Unaffected, Corrupt, Corrupt],
        // open_at takes its base from any manifest, live or archived: the
        // archived previous generation plus the WAL chain still reaches
        // the tip.
        Damage::Manifest => [Corrupt, Unaffected, Corrupt, Corrupt, Corrupt],
        // open_at never consults CURRENT, and a backup copies the
        // generation its live table pinned, not the one CURRENT names.
        Damage::Current => [Corrupt, Unaffected, Corrupt, Unaffected, Corrupt],
        // Every reader decodes a manifest before it trusts a segment, so the
        // one version check refuses them all: the scrubber rereads the
        // manifest `CURRENT` names, and a backup rereads the one its live
        // table pinned, before it copies a byte.
        Damage::OlderVersion => [Corrupt; 5],
    }
}

/// Outcome of one reader, reduced to what the table compares: `Ok` with a
/// fingerprint where the reader yields a table, plus scrub's findings.
type Outcome = Result<(Option<Vec<u64>>, usize), StorageError>;

fn check(what: &str, outcome: Outcome, expect: Expect, want: &[u64]) {
    match (expect, outcome) {
        (Expect::Corrupt, Err(StorageError::Corrupt { .. })) => {}
        (Expect::Finding, Ok((_, findings))) => {
            assert_eq!(findings, 1, "{what}: the damaged record is one finding")
        }
        (Expect::Unaffected, Ok((fingerprint, findings))) => {
            assert_eq!(findings, 0, "{what}: no findings expected");
            if let Some(fingerprint) = fingerprint {
                assert_eq!(fingerprint, want, "{what}: diverged from the oracle");
            }
        }
        (_, Ok(_)) => panic!("{what}: expected {expect:?}, got Ok"),
        (_, Err(e)) => panic!("{what}: expected {expect:?}, got {e:?}"),
    }
}

/// One table-driven case per layout mode and kind of damage: a directory
/// with three live WAL links (two checkpoints failed after rotating the
/// log), one committed checkpoint with a retired predecessor, and writes
/// no checkpoint has folded in.
#[test]
fn every_reader_rejects_the_same_damage_the_same_way() {
    for mode in LayoutMode::all() {
        let (vfs, handle) = fault_handle(7);
        let src = test_dir(&format!("pitr_readers_{mode:?}_src"));
        let mut t = DurableTable::create_from_table_with_vfs(
            handle,
            &src,
            seed_table(mode),
            archive_opts(),
        )
        .expect("create");
        let mut oracle = seed_table(mode);
        for i in 0..WRITES {
            t.execute(&marker_write(i)).expect("write");
            oracle.execute(&marker_write(i)).expect("oracle");
            match i {
                1 => {
                    t.checkpoint().expect("checkpoint");
                }
                3 | 5 => {
                    // Fails after the capture rotated the WAL: the chain
                    // grows by a link, the generation stays.
                    vfs.inject(FaultRule::on_path(VfsOp::Write, "manifest-", FaultErr::Eio));
                    t.checkpoint().expect_err("manifest write fails");
                    vfs.clear_faults();
                }
                _ => {}
            }
        }
        let tip = t.stats().next_lsn - 1;
        let want = fingerprint_oracle(&mut oracle, WRITES);
        drop(t);

        for damage in [
            Damage::None,
            Damage::RecordByte,
            Damage::MiddleWalLink,
            Damage::Manifest,
            Damage::Current,
            Damage::OlderVersion,
        ] {
            let case = format!("{mode:?}/{damage:?}");
            // `cold` is only ever read; `live` has a table opened on it
            // before the damage lands, for the readers that hang off one.
            let cold = test_dir(&format!("pitr_readers_{mode:?}_{damage:?}_cold"));
            let live = test_dir(&format!("pitr_readers_{mode:?}_{damage:?}_live"));
            let dest = test_dir(&format!("pitr_readers_{mode:?}_{damage:?}_bkup"));
            copy_dir(&src, &cold);
            copy_dir(&src, &live);
            let mut table = DurableTable::open(&live, archive_opts()).expect("open before damage");
            apply_damage(&cold, damage);
            apply_damage(&live, damage);
            let [open, open_at, scrub, backup, verify] = expectations(damage);
            let cold_before = dir_files(&cold);

            let outcome = DurableTable::open(&cold, archive_opts()).and_then(|mut t| {
                t.hydrate_all()?;
                Ok((Some(fingerprint_durable(&mut t, WRITES)), 0))
            });
            check(&format!("{case}: open"), outcome, open, &want);

            let outcome = DurableTable::open_at(&cold, tip).and_then(|mut pit| {
                pit.table.hydrate_all()?;
                assert_eq!(pit.restored_lsn, tip, "{case}: open_at reaches the tip");
                Ok((Some(fingerprint_oracle(&mut pit.table, WRITES)), 0))
            });
            check(&format!("{case}: open_at"), outcome, open_at, &want);

            let outcome = table.scrub_now().map(|r| (None, r.findings.len()));
            check(&format!("{case}: scrub_now"), outcome, scrub, &want);

            let outcome = table
                .begin_backup(&dest)
                .and_then(|job| job.run())
                .and_then(|_| {
                    let mut restored = DurableTable::open(&dest, archive_opts())?;
                    Ok((Some(fingerprint_durable(&mut restored, WRITES)), 0))
                });
            check(&format!("{case}: backup"), outcome, backup, &want);

            let outcome = DurableTable::verify_backup(&cold).map(|r| {
                assert_eq!(r.last_lsn, tip, "{case}: verify walks the whole chain");
                (None, 0)
            });
            check(&format!("{case}: verify_backup"), outcome, verify, &want);
            if damage == Damage::OlderVersion {
                // A refused open prunes, retires and creates nothing.
                assert!(dir_files(&cold) == cold_before, "{case}: cold dir changed");
            }
        }
    }
}

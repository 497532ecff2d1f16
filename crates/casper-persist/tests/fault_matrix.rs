//! The fault-injection matrix: deterministic storage-fault schedules
//! driven through [`FaultVfs`], each checked against an oracle holding
//! exactly the *acknowledged* writes.
//!
//! The robustness contract these tests pin down:
//!
//! * **Zero-fault transparency** — a `FaultVfs` with an empty schedule
//!   produces bit-identical files to the real filesystem (the harness
//!   cannot perturb what it measures).
//! * **No acked-then-lost** — under any injected schedule (failed WAL
//!   fsyncs, torn writes, ENOSPC) plus a simulated power cut, recovery
//!   serves every write that was acknowledged. Un-acknowledged writes may
//!   vanish; acknowledged ones may not.
//! * **Typed degradation** — when durability cannot be re-proven (a
//!   poisoned WAL whose recovery checkpoint also fails, or persistent
//!   background-checkpoint failure), the table flips to explicit
//!   read-only: reads serve, writes fail with [`StorageError::Degraded`],
//!   and `reactivate()` is the way back.
//! * **Scrub** — latent corruption in at-rest records is detected by a
//!   scrub pass; damaged-but-resident chunks heal on the next checkpoint,
//!   damaged never-hydrated chunks are quarantined behind a typed error.
//!   A read that fails is not damage: it fails the pass, typed.
//! * **Segment reads are faultable** — a failed read while a chunk
//!   hydrates (first touch after `open`, or again after an eviction) is a
//!   typed `Io` error from the query that touched it; the table stays
//!   active, and the same query succeeds on retry.

use casper_engine::{EngineConfig, GovernorConfig, LayoutMode, Table};
use casper_persist::{
    DurableOptions, DurableTable, FaultErr, FaultRule, FaultVfs, VfsHandle, VfsOp,
};
use casper_storage::StorageError;
use casper_workload::{HapQuery, HapSchema};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: u64 = 192;
/// Keys are even numbers 0, 2, …, 2·(ROWS−1); three chunks of 64.
const CHUNK_VALUES: usize = 64;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
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
    let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let cols: Vec<Vec<u32>> = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    Table::load(schema(), keys, cols, engine_config())
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

fn fault_handle(seed: u64) -> (Arc<FaultVfs>, VfsHandle) {
    let vfs = Arc::new(FaultVfs::with_seed(seed));
    let handle = VfsHandle::fault(Arc::clone(&vfs));
    (vfs, handle)
}

/// Synchronous options: no background threads, so runs are deterministic
/// down to the byte and failures surface on the call that caused them.
fn sync_opts() -> DurableOptions {
    DurableOptions {
        background_checkpointer: false,
        ..DurableOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Zero-fault transparency
// ---------------------------------------------------------------------------

/// Run the reference workload against `dir` through `handle`.
fn reference_workload(handle: VfsHandle, dir: &Path) {
    let mut t = DurableTable::create_from_table_with_vfs(handle, dir, seed_table(), sync_opts())
        .expect("create");
    for i in 0..6 {
        t.execute(&marker_write(i)).expect("write");
    }
    t.checkpoint().expect("checkpoint");
    for i in 6..9 {
        t.execute(&marker_write(i)).expect("write");
    }
    t.flush().expect("flush");
}

fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("read file"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn zero_fault_vfs_is_bit_identical_to_real_vfs() {
    let dir_real = test_dir("fm_ident_real");
    let dir_fault = test_dir("fm_ident_fault");
    reference_workload(VfsHandle::default(), &dir_real);
    let (_vfs, handle) = fault_handle(0);
    reference_workload(handle, &dir_fault);

    let real = dir_contents(&dir_real);
    let fault = dir_contents(&dir_fault);
    let names = |v: &[(String, Vec<u8>)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&real),
        names(&fault),
        "FaultVfs with an empty schedule must create the same files"
    );
    for ((name, a), (_, b)) in real.iter().zip(&fault) {
        assert_eq!(
            a, b,
            "{name} differs between RealVfs and zero-fault FaultVfs"
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded fsync-failure schedules
// ---------------------------------------------------------------------------

fn matrix_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CASPER_FAULT_SEEDS") {
        let seeds: Vec<u64> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
        if !seeds.is_empty() {
            return seeds;
        }
    }
    vec![1, 2, 3, 4]
}

/// For each seed, derive a fault schedule (which WAL fsync dies, which
/// checkpoint write hiccups) from the seed itself, stream writes, crash,
/// recover — and require every acknowledged write back. A single WAL-fsync
/// failure is *absorbed*: the seal poisons the log, the table rotates and
/// takes a recovery checkpoint, and only then acknowledges the write.
#[test]
fn seeded_fsync_schedules_never_lose_acked_writes() {
    let n = 12usize;
    for seed in matrix_seeds() {
        let dir = test_dir(&format!("fm_seed_{seed}"));
        let (vfs, handle) = fault_handle(seed);
        let mut t = DurableTable::create_from_table_with_vfs(
            handle.clone(),
            &dir,
            seed_table(),
            DurableOptions::default(),
        )
        .expect("create");

        // The seed decides which WAL fsync fails and which segment write
        // transiently hiccups (absorbed by the retry policy).
        vfs.inject(FaultRule::nth_fsync(
            "wal-",
            vfs.pick(0, 1, n as u64),
            FaultErr::Eio,
        ));
        vfs.inject(FaultRule {
            op: VfsOp::Write,
            path_substr: Some("seg-".into()),
            nth: Some(vfs.pick(1, 1, 3)),
            short_bytes: None,
            err: FaultErr::Enospc,
            times: 1,
        });

        let mut oracle = seed_table();
        for i in 0..n {
            t.execute(&marker_write(i))
                .unwrap_or_else(|e| panic!("seed {seed}: write {i} not absorbed: {e}"));
            oracle.execute(&marker_write(i)).expect("oracle");
        }
        assert!(!t.is_degraded(), "seed {seed}: transient faults degraded");
        assert!(
            vfs.counters().injected >= 1,
            "seed {seed}: schedule never fired"
        );
        drop(t);

        vfs.clear_faults();
        vfs.simulate_crash().expect("crash");
        let mut t = DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
        assert_eq!(
            fingerprint_durable(&mut t, n),
            fingerprint_oracle(&mut oracle, n),
            "seed {seed} (faults: {:?}) lost acknowledged writes",
            vfs.injected_faults()
        );
    }
}

// ---------------------------------------------------------------------------
// Crash semantics of the group-commit window
// ---------------------------------------------------------------------------

#[test]
fn crash_drops_staged_but_never_sealed_writes() {
    let dir = test_dir("fm_staged_crash");
    let (vfs, handle) = fault_handle(21);
    let opts = DurableOptions {
        group_commit: 100, // nothing auto-seals
        ..sync_opts()
    };
    let mut t = DurableTable::create_from_table_with_vfs(handle.clone(), &dir, seed_table(), opts)
        .expect("create");
    for i in 0..4 {
        t.execute(&marker_write(i)).expect("write");
    }
    t.flush().expect("seal first four"); // markers 0..4 acknowledged durable
    for i in 4..6 {
        t.execute(&marker_write(i)).expect("write"); // staged, NOT durable
    }
    assert_eq!(t.stats().staged_records, 2);
    // Process kill: Drop never runs, the open batch never seals. (The
    // leaked table memory is irrelevant to the test process.)
    std::mem::forget(t);

    vfs.simulate_crash().expect("crash");
    let mut oracle = seed_table();
    for i in 0..4 {
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, 6),
        fingerprint_oracle(&mut oracle, 6),
        "crash must land on exactly the sealed prefix (markers 4,5 were \
         never acknowledged durable and must probe as absent)"
    );
}

/// A seal whose WAL write tears (`short` bytes land, then ENOSPC) makes
/// nothing durable: the write that triggered it fails, stays applied and
/// staged, and the next writes stage behind it. The next seal writes the
/// grown batch again from the durable boundary; a power cut after it
/// keeps every write it sealed, and the torn bytes never surface.
#[test]
fn torn_wal_seal_is_retried_from_the_durable_boundary() {
    for short in [0usize, 13, 150, 1000] {
        let dir = test_dir(&format!("fm_torn_seal_{short}"));
        let (vfs, handle) = fault_handle(51);
        let opts = DurableOptions {
            group_commit: 4,
            ..sync_opts()
        };
        let mut t =
            DurableTable::create_from_table_with_vfs(handle.clone(), &dir, seed_table(), opts)
                .expect("create");
        let mut oracle = seed_table();
        for i in 0..4 {
            t.execute(&marker_write(i)).expect("first batch seals");
            oracle.execute(&marker_write(i)).expect("oracle");
        }
        // The next WAL write is the second batch's seal.
        vfs.inject(FaultRule::short_write("wal-", 1, short, FaultErr::Enospc));
        for i in 4..7 {
            t.execute(&marker_write(i)).expect("staged");
        }
        let err = t.execute(&marker_write(7)).expect_err("the seal tears");
        assert!(matches!(err, StorageError::Io(_)), "short {short}: {err}");
        assert_eq!(t.stats().staged_records, 4, "the batch stays staged");
        // The next write grows the batch past the threshold: the retry.
        t.execute(&marker_write(8)).expect("the retried seal");
        assert_eq!(t.stats().staged_records, 0);
        for i in 4..9 {
            oracle.execute(&marker_write(i)).expect("oracle");
        }
        for i in 9..11 {
            t.execute(&marker_write(i)).expect("staged, never sealed");
        }
        assert!(!t.is_degraded());
        assert_eq!(vfs.counters().injected, 1);
        // Process kill: the open batch never seals.
        std::mem::forget(t);

        vfs.simulate_crash().expect("crash");
        let mut t = DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default())
            .expect("open");
        assert_eq!(
            fingerprint_durable(&mut t, 11),
            fingerprint_oracle(&mut oracle, 11),
            "short {short}: the crash must land on the sealed writes 0..=8"
        );
    }
}

// ---------------------------------------------------------------------------
// Poisoned WAL: recovery checkpoint, and degradation when it fails too
// ---------------------------------------------------------------------------

#[test]
fn poisoned_wal_acks_via_recovery_checkpoint() {
    let dir = test_dir("fm_poison_recover");
    let (vfs, handle) = fault_handle(31);
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for i in 0..3 {
        t.execute(&marker_write(i)).expect("write");
    }

    // The next WAL fsync fails: the batch's durability is unknown, the
    // log is poisoned — the write must still come back Ok, acknowledged
    // through the synchronous recovery checkpoint instead of the WAL.
    vfs.inject(FaultRule::nth_fsync("wal-", 1, FaultErr::Eio));
    let gen_before = t.stats().generation;
    t.execute(&marker_write(3))
        .expect("write acked via recovery checkpoint");
    assert_eq!(vfs.counters().injected, 1, "the fsync fault fired");
    assert!(t.stats().generation > gen_before, "recovery checkpointed");
    assert!(!t.is_degraded());
    drop(t);

    vfs.simulate_crash().expect("crash");
    let mut oracle = seed_table();
    for i in 0..4 {
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, 4),
        fingerprint_oracle(&mut oracle, 4),
        "write acknowledged through the recovery checkpoint was lost"
    );
}

#[test]
fn poisoned_wal_with_failed_recovery_checkpoint_degrades() {
    let dir = test_dir("fm_poison_degrade");
    let (vfs, handle) = fault_handle(32);
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for i in 0..2 {
        t.execute(&marker_write(i)).expect("write");
    }

    // The WAL fsync fails AND the device refuses all checkpoint writes:
    // durability of the batch can not be re-proven anywhere. The write
    // must fail typed (never a false acknowledgement) and the table must
    // flip to explicit read-only.
    vfs.inject(FaultRule::nth_fsync("wal-", 1, FaultErr::Eio));
    vfs.inject(FaultRule::on_path(VfsOp::Write, "seg-", FaultErr::Enospc));
    vfs.inject(FaultRule::on_path(
        VfsOp::Write,
        "manifest-",
        FaultErr::Enospc,
    ));
    let err = t.execute(&marker_write(2)).expect_err("must not ack");
    assert!(
        matches!(err, StorageError::Degraded { .. }),
        "typed degradation, got {err}"
    );
    assert!(t.is_degraded());
    assert!(
        t.degraded_reason()
            .expect("reason")
            .contains("durability unknown"),
        "reason names the cause: {:?}",
        t.degraded_reason()
    );
    assert!(t.stats().degraded);

    // Reads keep serving from memory (including the partially-applied
    // marker 2 — applied in memory, never acknowledged durable)…
    t.execute(&HapQuery::Q2 {
        vs: 0,
        ve: u64::MAX,
    })
    .expect("reads serve on a degraded table");
    // …while writes stay rejected with the typed error.
    let err = t.execute(&marker_write(3)).expect_err("writes rejected");
    assert!(matches!(err, StorageError::Degraded { .. }), "got {err}");
    drop(t);

    // Crash while degraded: recovery must land on exactly the
    // acknowledged prefix — marker 2 (failed) and 3 (rejected) absent.
    vfs.clear_faults();
    vfs.simulate_crash().expect("crash");
    let mut oracle = seed_table();
    for i in 0..2 {
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, 4),
        fingerprint_oracle(&mut oracle, 4),
        "degraded crash state must hold exactly the acked writes"
    );
}

#[test]
fn reactivate_recovers_a_degraded_table() {
    let dir = test_dir("fm_reactivate");
    let (vfs, handle) = fault_handle(33);
    let mut t = DurableTable::create_from_table_with_vfs(
        handle.clone(),
        &dir,
        seed_table(),
        DurableOptions::default(),
    )
    .expect("create");
    for i in 0..2 {
        t.execute(&marker_write(i)).expect("write");
    }
    vfs.inject(FaultRule::nth_fsync("wal-", 1, FaultErr::Eio));
    vfs.inject(FaultRule::on_path(VfsOp::Write, "seg-", FaultErr::Enospc));
    vfs.inject(FaultRule::on_path(
        VfsOp::Write,
        "manifest-",
        FaultErr::Enospc,
    ));
    t.execute(&marker_write(2)).expect_err("degrades");
    assert!(t.is_degraded());

    // While the storage is still broken, reactivation must fail — and
    // leave the table degraded rather than half-open.
    t.reactivate().expect_err("storage still broken");
    assert!(t.is_degraded());

    // Operator fixes the device: reactivate re-proves the storage with a
    // synchronous checkpoint and lifts the mode.
    vfs.clear_faults();
    t.reactivate().expect("reactivate after repair");
    assert!(!t.is_degraded());
    assert_eq!(t.stats().consecutive_checkpoint_failures, 0);
    t.execute(&marker_write(3)).expect("writes resume");
    drop(t);

    // Marker 2 was applied in memory before its acknowledgement failed;
    // the reactivation checkpoint snapshots the table as-is, so after a
    // clean close all four markers are durable.
    let mut oracle = seed_table();
    for i in 0..4 {
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, 4),
        fingerprint_oracle(&mut oracle, 4)
    );
}

// ---------------------------------------------------------------------------
// Background-checkpointer failure escalation
// ---------------------------------------------------------------------------

#[test]
fn background_failures_escalate_to_degraded_then_reactivate() {
    let dir = test_dir("fm_bg_escalate");
    let (vfs, handle) = fault_handle(41);
    let opts = DurableOptions {
        group_commit: 1,
        wal_checkpoint_bytes: 1, // checkpoint after every sealed batch
        background_checkpointer: true,
        checkpoint_retries: 1,
        degrade_after: 2,
        ..DurableOptions::default()
    };
    let mut t = DurableTable::create_from_table_with_vfs(handle.clone(), &dir, seed_table(), opts)
        .expect("create");

    // Manifests can never commit: every background checkpoint fails.
    vfs.inject(FaultRule::on_path(
        VfsOp::Write,
        "manifest-",
        FaultErr::Enospc,
    ));
    // Write until the escalation surfaces. The failures happen on the
    // checkpointer thread, each after its retry backoff, so how many
    // writes that takes depends on how fast a write is: bound the loop by
    // the clock, not by a write count.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut oracle = seed_table();
    let mut acked = 0usize;
    while Instant::now() < deadline {
        match t.execute(&marker_write(acked)) {
            Ok(_) => {
                oracle.execute(&marker_write(acked)).expect("oracle");
                acked += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, StorageError::Degraded { .. }),
                    "escalation must surface typed, got {e}"
                );
                break;
            }
        }
    }
    assert!(
        t.is_degraded(),
        "2 consecutive background failures must degrade (acked {acked})"
    );
    let cp = t.checkpoint_stats();
    assert!(cp.consecutive_failures >= 2, "stats: {cp:?}");
    assert!(!cp.recent_failures.is_empty());
    let last = cp.recent_failures.last().expect("ring entry");
    assert!(last.generation > 1, "failure carries its LSN coordinates");
    assert!(last.error.contains("28") || !last.error.is_empty());
    assert!(t.take_checkpoint_error().is_some());

    // Every write acknowledged before the flip must survive a crash even
    // though no checkpoint ever committed: the WAL chain carries them.
    vfs.clear_faults();
    t.reactivate().expect("reactivate after repair");
    assert!(!t.is_degraded());
    t.execute(&marker_write(acked)).expect("writes resume");
    oracle.execute(&marker_write(acked)).expect("oracle");
    drop(t);
    vfs.simulate_crash().expect("crash");
    let mut t =
        DurableTable::open_with_vfs(handle.clone(), &dir, DurableOptions::default()).expect("open");
    assert_eq!(
        fingerprint_durable(&mut t, acked + 1),
        fingerprint_oracle(&mut oracle, acked + 1),
        "acked writes lost across background-failure escalation"
    );
}

/// Transient fsync faults on every other checkpoint's segment are
/// absorbed by the checkpoint retry policy, on the calling thread and on
/// the background checkpointer alike: each injected fault costs exactly
/// one retry, no checkpoint fails, the table never degrades, and every
/// acknowledged write survives a power cut.
#[test]
fn checkpoint_retries_absorb_segment_fsync_faults_without_degrading() {
    const ROUNDS: usize = 4;
    let faulted = ROUNDS.div_ceil(2) as u64;
    for background in [false, true] {
        let dir = test_dir(&format!("fm_retry_absorb_{background}"));
        let (vfs, handle) = fault_handle(43);
        let opts = DurableOptions {
            background_checkpointer: background,
            checkpoint_retries: 3,
            ..DurableOptions::default()
        };
        let mut t =
            DurableTable::create_from_table_with_vfs(handle.clone(), &dir, seed_table(), opts)
                .expect("create");
        let mut oracle = seed_table();
        for i in 0..ROUNDS {
            t.execute(&marker_write(i)).expect("write");
            oracle.execute(&marker_write(i)).expect("oracle");
            if i % 2 == 0 {
                // A fresh rule counts from here: the first attempt of this
                // checkpoint fails its segment fsync, the retry does not.
                vfs.inject(FaultRule::nth_fsync("seg-", 1, FaultErr::Eio));
            }
            t.checkpoint()
                .unwrap_or_else(|e| panic!("background={background}: checkpoint {i}: {e}"));
        }
        let cp = t.checkpoint_stats();
        assert!(!t.is_degraded(), "background={background}: degraded");
        assert_eq!(cp.total_failures, 0, "background={background}: {cp:?}");
        assert_eq!(
            vfs.counters().injected,
            faulted,
            "background={background}: {:?}",
            vfs.injected_faults()
        );
        assert_eq!(
            cp.total_retries, faulted,
            "background={background}: one retry per injected fault"
        );
        drop(t);

        vfs.simulate_crash().expect("crash");
        let mut t =
            DurableTable::open_with_vfs(handle, &dir, DurableOptions::default()).expect("reopen");
        assert_eq!(
            fingerprint_durable(&mut t, ROUNDS),
            fingerprint_oracle(&mut oracle, ROUNDS),
            "background={background}: acknowledged writes lost"
        );
    }
}

// ---------------------------------------------------------------------------
// Scrubber: detect, heal, quarantine
// ---------------------------------------------------------------------------

/// Flip one byte near the end of the newest segment file — inside some
/// chunk's record — and return the damaged file's path.
fn damage_newest_segment(dir: &Path) -> PathBuf {
    let seg = fs::read_dir(dir)
        .expect("dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .max()
        .expect("a segment exists");
    let mut bytes = fs::read(&seg).expect("segment bytes");
    let off = bytes.len() - 16;
    bytes[off] ^= 0x40;
    fs::write(&seg, &bytes).expect("damage");
    seg
}

#[test]
fn scrub_detects_and_checkpoint_heals_hydrated_damage() {
    let dir = test_dir("fm_scrub_heal");
    let mut t = DurableTable::create_from_table(&dir, seed_table(), sync_opts()).expect("create");
    let want = fingerprint_durable(&mut t, 0);
    assert_eq!(t.stats().dirty_chunks, 0);
    damage_newest_segment(&dir);

    // Detection: the pass re-reads every record and fails the damaged
    // one's CRC; the chunk is resident, so it is re-marked dirty.
    let report = t.scrub_now().expect("scrub pass");
    assert_eq!(report.findings.len(), 1, "one damaged record");
    assert_eq!(t.stats().scrub_corrupt_records, 1);
    assert!(t.stats().dirty_chunks >= 1, "damaged chunk marked dirty");
    assert!(
        t.quarantined_chunks().is_empty(),
        "resident → no quarantine"
    );

    // Heal: the next checkpoint re-encodes the damaged chunk from memory
    // into a fresh segment; a second pass comes back clean.
    t.checkpoint().expect("healing checkpoint");
    let report = t.scrub_now().expect("verify pass");
    assert!(report.findings.is_empty(), "damage must be healed");
    drop(t);

    let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("reopen");
    t.hydrate_all().expect("hydrate");
    assert_eq!(fingerprint_durable(&mut t, 0), want);
}

#[test]
fn scrub_quarantines_unhydrated_damage() {
    let dir = test_dir("fm_scrub_quarantine");
    drop(DurableTable::create_from_table(&dir, seed_table(), sync_opts()).expect("create"));
    damage_newest_segment(&dir);

    // Lazy reopen: no chunk is hydrated, so the damaged record has
    // no in-memory copy to heal from.
    let mut t = DurableTable::open(&dir, DurableOptions::default()).expect("open");
    let report = t.scrub_now().expect("scrub pass");
    assert_eq!(report.findings.len(), 1);
    let damaged = report.findings[0].chunk;
    assert_eq!(t.quarantined_chunks(), vec![damaged]);
    assert_eq!(t.stats().quarantined_chunks, 1);

    // Hydration is refused typed — not a CRC panic mid-query.
    let err = t.hydrate_all().expect_err("quarantine blocks hydration");
    match err {
        StorageError::Quarantined { chunk, .. } => {
            assert_eq!(chunk, damaged as u64);
        }
        other => panic!("expected Quarantined, got {other}"),
    }

    // Healthy chunks keep serving (each chunk holds 64 even keys starting
    // at 128·chunk; probe one from a chunk that is not the damaged one).
    let healthy = (damaged + 1) % 3;
    let probe = 128 * healthy as u64 + 2;
    let hit = t
        .execute(&HapQuery::Q1 { v: probe, k: 2 })
        .expect("healthy chunk serves")
        .result
        .scalar();
    assert_eq!(hit, 1, "probe key {probe} must be present");

    // A query routed to the damaged chunk fails typed (corrupt record),
    // never panics.
    let probe = 128 * damaged as u64 + 2;
    let err = t
        .execute(&HapQuery::Q1 { v: probe, k: 2 })
        .expect_err("damaged chunk must fail typed");
    assert!(
        matches!(
            err,
            StorageError::Corrupt { .. } | StorageError::Quarantined { .. }
        ),
        "got {err}"
    );
}

/// A live table whose manifest vanished is damaged, not clean: the pass
/// fails typed, naming the file. (The background scrubber counts exactly
/// this `Err` as a failed pass.) The in-memory table keeps serving, and
/// the next checkpoint writes a fresh manifest the scrubber accepts again.
#[test]
fn scrub_reports_a_missing_manifest_as_damage_not_as_clean() {
    let dir = test_dir("fm_scrub_missing_manifest");
    let mut t = DurableTable::create_from_table(&dir, seed_table(), sync_opts()).expect("create");
    let want = fingerprint_durable(&mut t, 0);
    let clean = t.scrub_now().expect("clean pass");
    assert_eq!(clean.records_checked, 3);

    let manifest = format!("manifest-{:06}.casper", t.stats().generation);
    fs::remove_file(dir.join(&manifest)).expect("delete the manifest");
    match t.scrub_now() {
        Err(StorageError::Corrupt { reason }) => assert!(
            reason.contains(&manifest),
            "the error must name {manifest}, got: {reason}"
        ),
        Ok(report) => panic!("a deleted manifest scrubbed clean: {report:?}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }
    assert_eq!(t.scrub_stats().passes, 1, "the failed pass is not a pass");

    assert_eq!(fingerprint_durable(&mut t, 0), want, "memory still serves");
    t.execute(&marker_write(0)).expect("write");
    t.checkpoint().expect("checkpoint writes a fresh manifest");
    let healed = t.scrub_now().expect("scrub after the checkpoint");
    assert!(healed.findings.is_empty());
    assert_eq!(healed.records_checked, 3);
}

/// The background scrubber (`scrub_interval_ms > 0`) does on its own
/// thread what `scrub_now` does on the caller's: its pass finds the
/// damaged record, the next write's seal absorbs the finding (the chunk
/// is resident, so it is re-marked dirty and the next checkpoint heals
/// it), and dropping the table stops and joins the thread.
#[test]
fn background_scrubber_finds_damage_and_the_next_write_absorbs_it() {
    let dir = test_dir("fm_scrub_thread");
    let (vfs, handle) = fault_handle(41);
    let held = Arc::strong_count(&vfs);
    let opts = DurableOptions {
        scrub_interval_ms: 5,
        ..sync_opts()
    };
    let mut t = DurableTable::create_from_table_with_vfs(handle.clone(), &dir, seed_table(), opts)
        .expect("create");
    assert_eq!(t.stats().dirty_chunks, 0);
    // The newest segment ends with the last chunk's record.
    damage_newest_segment(&dir);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while t.scrub_stats().corrupt_records == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no background pass reported the damage: {:?}",
            t.scrub_stats()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(t.scrub_stats().passes >= 1);
    assert_eq!(
        t.stats().dirty_chunks,
        0,
        "findings wait for the foreground"
    );

    // Marker 0 lands in chunk 0; the seal also absorbs the finding.
    t.execute(&marker_write(0)).expect("write");
    assert_eq!(t.stats().dirty_chunks, 2, "written chunk + damaged chunk");
    assert!(
        t.quarantined_chunks().is_empty(),
        "resident → no quarantine"
    );
    t.checkpoint().expect("healing checkpoint");
    let report = t.scrub_now().expect("verify pass");
    assert!(report.findings.is_empty(), "damage must be healed");

    drop(t);
    assert_eq!(
        Arc::strong_count(&vfs),
        held,
        "drop joins the scrubber, releasing the thread's handle on the vfs"
    );
}

// ---------------------------------------------------------------------------
// Read faults on segments
// ---------------------------------------------------------------------------

/// A rule failing the first read of a segment after it is armed.
fn first_segment_read(err: FaultErr) -> FaultRule {
    FaultRule {
        op: VfsOp::Read,
        path_substr: Some("seg-".into()),
        nth: Some(1),
        short_bytes: None,
        err,
        times: 1,
    }
}

/// Point probe into chunk 1 (keys 128..=254).
fn chunk_one_probe() -> HapQuery {
    HapQuery::Q1 { v: 130, k: 2 }
}

fn assert_eio(err: &StorageError) {
    assert!(
        matches!(err, StorageError::Io(e) if e.raw_os_error() == Some(5)),
        "expected a typed EIO, got {err}"
    );
}

/// A read fault during a scrub pass says nothing about the record's
/// bytes: the pass fails `Io`, nothing is quarantined or counted corrupt,
/// the next pass is clean and every chunk still hydrates.
#[test]
fn scrub_read_fault_fails_the_pass_and_quarantines_nothing() {
    let dir = test_dir("fm_scrub_read_fault");
    drop(DurableTable::create_from_table(&dir, seed_table(), sync_opts()).expect("create"));
    let (vfs, handle) = fault_handle(43);
    let mut t = DurableTable::open_with_vfs(handle, &dir, sync_opts()).expect("lazy open");
    vfs.inject(first_segment_read(FaultErr::Eio));

    match t.scrub_now() {
        Err(e) => assert_eio(&e),
        Ok(report) => panic!("a failed read scrubbed as a pass: {report:?}"),
    }
    assert_eq!(vfs.counters().injected, 1);
    assert!(
        t.quarantined_chunks().is_empty(),
        "a read fault is not damage"
    );
    assert_eq!(t.stats().scrub_corrupt_records, 0);
    assert_eq!(t.stats().quarantined_chunks, 0);

    let clean = t.scrub_now().expect("the next pass");
    assert!(clean.findings.is_empty(), "{clean:?}");
    assert_eq!(clean.records_checked, 3);
    t.hydrate_all().expect("every chunk hydrates");
    assert_eq!(
        fingerprint_durable(&mut t, 0),
        fingerprint_oracle(&mut seed_table(), 0)
    );
}

/// A read fault while a lazily restored chunk hydrates on first touch:
/// the touching query fails `Io`, the other chunks serve, and the chunk
/// hydrates when the same query is retried.
#[test]
fn read_fault_at_first_touch_hydration_is_retried() {
    let dir = test_dir("fm_hydrate_read_fault");
    let mut oracle = seed_table();
    {
        let mut t =
            DurableTable::create_from_table(&dir, seed_table(), sync_opts()).expect("create");
        for i in 0..4 {
            t.execute(&marker_write(i)).expect("write");
            oracle.execute(&marker_write(i)).expect("oracle");
        }
        t.checkpoint().expect("checkpoint: nothing left to replay");
    }
    let (vfs, handle) = fault_handle(44);
    let mut t = DurableTable::open_with_vfs(handle, &dir, sync_opts()).expect("lazy open");
    assert!(!t.table().column().chunks()[1].is_hydrated());
    vfs.inject(first_segment_read(FaultErr::Eio));

    let err = t
        .execute(&chunk_one_probe())
        .expect_err("hydration read fails");
    assert_eio(&err);
    assert_eq!(vfs.counters().injected, 1);
    let hit = t
        .execute(&HapQuery::Q1 { v: 2, k: 2 })
        .expect("chunk 0 serves");
    assert_eq!(hit.result.scalar(), 1);
    assert!(t.quarantined_chunks().is_empty());
    assert!(!t.is_degraded());

    let hit = t.execute(&chunk_one_probe()).expect("the retry hydrates");
    assert_eq!(hit.result.scalar(), 1);
    assert_eq!(
        fingerprint_durable(&mut t, 4),
        fingerprint_oracle(&mut oracle, 4)
    );
}

/// A read fault while an evicted chunk rehydrates: under a one-byte
/// budget checked after every query, the governor evicts every clean
/// chunk, so each query rehydrates what it touches. The faulted query
/// fails `Io` and is no rehydration; the other chunks serve; the retry
/// rehydrates bit-exact.
#[test]
fn read_fault_at_rehydration_after_eviction_is_retried() {
    let dir = test_dir("fm_rehydrate_read_fault");
    let (vfs, handle) = fault_handle(45);
    let opts = DurableOptions {
        governor: Some(GovernorConfig {
            memory_budget_bytes: 1,
            check_interval: 1,
            ..GovernorConfig::default()
        }),
        ..sync_opts()
    };
    let mut t =
        DurableTable::create_from_table_with_vfs(handle, &dir, seed_table(), opts).expect("create");
    let mut oracle = seed_table();
    for i in 0..4 {
        t.execute(&marker_write(i)).expect("write");
        oracle.execute(&marker_write(i)).expect("oracle");
    }
    let hit = t.execute(&chunk_one_probe()).expect("rehydrates");
    assert_eq!(hit.result.scalar(), 1);
    let before = t.governor_stats().expect("governed");
    assert!(
        before.evictions > 0 && before.rehydrations > 0,
        "{before:?}"
    );
    assert!(
        !t.table().column().chunks()[1].is_hydrated(),
        "evicted again"
    );
    vfs.inject(first_segment_read(FaultErr::Eio));

    let err = t
        .execute(&chunk_one_probe())
        .expect_err("rehydration read fails");
    assert_eio(&err);
    assert_eq!(vfs.counters().injected, 1);
    let after = t.governor_stats().expect("governed");
    assert_eq!(after.rehydrations, before.rehydrations, "a failed load");
    let hit = t
        .execute(&HapQuery::Q1 { v: 2, k: 2 })
        .expect("chunk 0 serves");
    assert_eq!(hit.result.scalar(), 1);
    assert!(t.quarantined_chunks().is_empty());
    assert!(!t.is_degraded());

    let hit = t.execute(&chunk_one_probe()).expect("the retry rehydrates");
    assert_eq!(hit.result.scalar(), 1);
    assert_eq!(
        fingerprint_durable(&mut t, 4),
        fingerprint_oracle(&mut oracle, 4)
    );
}

//! Crash-window recovery properties of the WAL.
//!
//! * **Prefix property** (exhaustive, stronger than sampling): truncating
//!   the log at *every* byte offset recovers to a prefix of committed
//!   state, and the recovered prefix length is monotone in the offset.
//! * **Replay idempotence**: replaying the same WAL twice — either through
//!   the LSN watermark or by reopening the directory twice — is a no-op.

use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_persist::wal::{replay, scan};
use casper_persist::{DurableOptions, DurableTable};
use casper_workload::{HapQuery, HapSchema, KeyDist, WorkloadGenerator};
use std::fs;
use std::path::{Path, PathBuf};

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.threads = 1;
    config
}

fn seed_table(rows: usize) -> Table {
    let gen = WorkloadGenerator::new(HapSchema::narrow(), rows as u64, KeyDist::Uniform);
    Table::load_from_generator(&gen, engine_config())
}

/// Marker key of batch `i`: present in the recovered table iff batch `i`
/// replayed.
fn marker(i: usize) -> u64 {
    9_000_001 + 2 * i as u64
}

/// Copy `CURRENT` + the checkpoint files (manifest, segments), install
/// `wal_bytes` as the generation-1 log.
fn install(dir: &Path, src: &Path, wal_bytes: &[u8]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("mkdir");
    for entry in fs::read_dir(src).expect("src dir").flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name == "CURRENT" || name.starts_with("manifest-") || name.starts_with("seg-") {
            fs::copy(entry.path(), dir.join(&name)).expect("copy");
        }
    }
    fs::write(dir.join("wal-000001.log"), wal_bytes).expect("write wal");
}

#[test]
fn truncation_at_every_byte_offset_recovers_a_monotone_committed_prefix() {
    let rows = 512usize;
    let schema = HapSchema::narrow();
    let src = test_dir("walprop_src");
    let mut durable = DurableTable::create_from_table(
        &src,
        seed_table(rows),
        DurableOptions::default(), // group_commit = 1: one batch per write
    )
    .expect("create");
    let n_batches = 14usize;
    for i in 0..n_batches {
        durable
            .execute(&HapQuery::Q4 {
                key: marker(i),
                payload: schema.payload_row(marker(i)),
            })
            .expect("write");
    }
    drop(durable);
    let wal_bytes = fs::read(src.join("wal-000001.log")).expect("read wal");

    let scratch = test_dir("walprop_scratch");
    let mut prev_prefix = 0usize;
    for cut in 0..=wal_bytes.len() {
        install(&scratch, &src, &wal_bytes[..cut]);
        let mut t = DurableTable::open(&scratch, DurableOptions::default())
            .unwrap_or_else(|e| panic!("open at cut {cut}: {e}"));
        // Which markers survived?
        let present: Vec<bool> = (0..n_batches)
            .map(|i| {
                t.execute(&HapQuery::Q1 { v: marker(i), k: 1 })
                    .expect("probe")
                    .result
                    .scalar()
                    == 1
            })
            .collect();
        let prefix = present.iter().take_while(|&&p| p).count();
        assert!(
            present[prefix..].iter().all(|&p| !p),
            "cut {cut}: holes in the recovered prefix: {present:?}"
        );
        assert_eq!(
            t.len(),
            rows + prefix,
            "cut {cut}: row count disagrees with the recovered prefix"
        );
        assert!(
            prefix >= prev_prefix,
            "cut {cut}: prefix shrank from {prev_prefix} to {prefix}"
        );
        prev_prefix = prefix;
    }
    assert_eq!(
        prev_prefix, n_batches,
        "the untruncated log must recover everything"
    );
}

#[test]
fn replaying_the_same_wal_twice_is_a_noop() {
    let rows = 512usize;
    let schema = HapSchema::narrow();
    let src = test_dir("walprop_idem");
    let mut durable =
        DurableTable::create_from_table(&src, seed_table(rows), DurableOptions::default())
            .expect("create");
    for i in 0..10usize {
        durable
            .execute(&HapQuery::Q4 {
                key: marker(i),
                payload: schema.payload_row(marker(i)),
            })
            .expect("write");
        if i % 2 == 0 {
            durable
                .execute(&HapQuery::Q5 { v: (i as u64) * 8 })
                .expect("delete");
        }
    }
    drop(durable);
    let wal_bytes = fs::read(src.join("wal-000001.log")).expect("read wal");
    let s = scan(&wal_bytes);
    assert!(s.batches.len() >= 10);

    // Watermark form: a second replay behind the first's high-water mark
    // applies nothing.
    let mut table = seed_table(rows);
    let (applied, _) = replay(&s, &mut table, 0).expect("first replay");
    assert_eq!(applied as usize, 15);
    let len_after_first = table.len();
    let (applied_again, _) = replay(&s, &mut table, s.last_lsn).expect("second replay");
    assert_eq!(applied_again, 0, "replay past the watermark must be empty");
    assert_eq!(table.len(), len_after_first);

    // Directory form: reopening twice (each open replays the same WAL into
    // the same snapshot) converges to identical state.
    let open_fingerprint = || {
        let mut t = DurableTable::open(&src, DurableOptions::default()).expect("open");
        let mut out = vec![t.len() as u64];
        for i in 0..10 {
            out.push(
                t.execute(&HapQuery::Q1 { v: marker(i), k: 1 })
                    .expect("probe")
                    .result
                    .scalar(),
            );
        }
        out.push(
            t.execute(&HapQuery::Q2 {
                vs: 0,
                ve: u64::MAX,
            })
            .expect("count")
            .result
            .scalar(),
        );
        out
    };
    let first = open_fingerprint();
    let second = open_fingerprint();
    assert_eq!(first, second, "double recovery diverged");
}

#[test]
fn recovered_writer_appends_cleanly_after_torn_tail() {
    // After recovery truncates a torn tail, new writes must append from
    // the sealed boundary and replay end-to-end.
    let rows = 256usize;
    let schema = HapSchema::narrow();
    let src = test_dir("walprop_append");
    let mut durable =
        DurableTable::create_from_table(&src, seed_table(rows), DurableOptions::default())
            .expect("create");
    for i in 0..6usize {
        durable
            .execute(&HapQuery::Q4 {
                key: marker(i),
                payload: schema.payload_row(marker(i)),
            })
            .expect("write");
    }
    drop(durable);
    // Tear mid-frame.
    let wal = src.join("wal-000001.log");
    let mut bytes = fs::read(&wal).expect("read");
    let torn = bytes.len() - 11;
    bytes.truncate(torn);
    fs::write(&wal, &bytes).expect("tear");

    let mut reopened = DurableTable::open(&src, DurableOptions::default()).expect("open");
    let recovered = reopened.len();
    reopened
        .execute(&HapQuery::Q4 {
            key: marker(100),
            payload: schema.payload_row(marker(100)),
        })
        .expect("post-recovery write");
    drop(reopened);
    let mut again = DurableTable::open(&src, DurableOptions::default()).expect("reopen");
    assert_eq!(again.len(), recovered + 1);
    assert_eq!(
        again
            .execute(&HapQuery::Q1 {
                v: marker(100),
                k: 1
            })
            .expect("probe")
            .result
            .scalar(),
        1
    );
}

//! Point-in-time recovery trajectory: what the LSN-indexed archive, hot
//! backup, and restore-to-LSN cost — and what archiving costs the commit
//! path.
//!
//! Three experiments, all recorded in `BENCH_pitr.json`:
//!
//! 1. **Restore-to-LSN latency vs replay distance** — `open_at` resolves
//!    the newest archived base at or before the target and replays the
//!    archived WAL chain the rest of the way; latency is measured at a
//!    checkpoint boundary (zero replay), one epoch of replay, and the
//!    chain tip. Every restore is counter-asserted solve-free and
//!    re-encode-free.
//! 2. **Hot-backup throughput** — `begin_backup` fences, then the copy
//!    runs on its own thread while the source streams commits; reported
//!    as copy MB/s, commits absorbed during the copy, and the verify
//!    pass's MB/s over the finished backup.
//! 3. **Commit p99, archiving on vs off** — identical watermark-triggered
//!    background checkpointing, with checkpoint pruning either deleting
//!    stale files or retiring them into the archive. The gate: archiving
//!    must hold the commit p99 within 10% of pruning (median of
//!    per-repetition ratios, same noise-cancelling scheme as
//!    `recovery_time`).
//!
//! ```text
//! cargo run --release --bin pitr_restore -- --values=1000000
//! cargo run --release --bin pitr_restore -- --smoke     # CI-sized
//! ```

use casper_bench::trajectory::{self, Metric};
use casper_bench::{Args, TableReport};
use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_persist::{ArchiveConfig, DurableOptions, DurableTable, FaultVfs, VfsHandle};
use casper_storage::compress::telemetry as codec_telemetry;
use casper_workload::{HapQuery, HapSchema, KeyDist, WorkloadGenerator};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn build_table(values: u64, config: EngineConfig) -> Table {
    let gen = WorkloadGenerator::new(HapSchema::narrow(), values, KeyDist::Uniform);
    Table::load_from_generator(&gen, config)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn p99_us(mut lat: Vec<f64>) -> f64 {
    lat.sort_by(f64::total_cmp);
    lat[(lat.len() * 99 / 100).min(lat.len() - 1)]
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Stream `n` single-row commits, returning per-commit latencies in µs.
fn commit_stream(durable: &mut DurableTable, schema: HapSchema, base: u64, n: usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let key = base + 2 * i + 1;
        let q = HapQuery::Q4 {
            key,
            payload: schema.payload_row(key),
        };
        let t = Instant::now();
        durable.execute(&q).expect("commit");
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args = Args::parse();
    args.usage(
        "pitr_restore",
        "Point-in-time recovery: archive, restore-to-LSN, hot backup, and the commit-path cost of archiving",
        &[
            ("values=N", "table rows (default 1M)"),
            ("writes=N", "commits per stream/epoch (default 10000)"),
            ("dir=PATH", "scratch directory (default target/pitr_demo)"),
            ("smoke", "CI smoke mode: tiny sizes, no ratio assertions"),
            (
                "fault-vfs",
                "route all persistence I/O through a zero-fault FaultVfs \
                 (harness-drift check; timing gates are skipped)",
            ),
        ],
    );
    let smoke = args.flag("smoke");
    let fault_vfs = args.flag("fault-vfs");
    let vfs = if fault_vfs {
        VfsHandle::fault(Arc::new(FaultVfs::new()))
    } else {
        VfsHandle::default()
    };
    let values = args.u64_or("values", if smoke { 40_000 } else { 1_000_000 });
    let writes_n = args.usize_or("writes", if smoke { 400 } else { 10_000 });
    let base = PathBuf::from(args.get("dir").unwrap_or("target/pitr_demo").to_string());
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    let mut config = EngineConfig::for_mode(LayoutMode::Casper);
    // Fine chunks, as in recovery_time's commit-path experiment: the
    // streams append into a hot chunk, and chunk granularity bounds each
    // checkpoint's write amplification.
    config.chunk_values = (values as usize / 128).clamp(1024, 1 << 20);
    let schema = HapSchema::narrow();

    let sync_archive = DurableOptions {
        background_checkpointer: false,
        archive: Some(ArchiveConfig::default()),
        ..DurableOptions::default()
    };

    let mut report = TableReport::new(
        format!("PITR trajectory — {values} rows"),
        &["experiment", "value", "note"],
    );
    let mut metrics: Vec<Metric> = Vec::new();

    // --- 1. Restore-to-LSN latency vs replay distance. -------------------
    // Four checkpointed epochs of `writes_n` commits build an archived
    // history, plus one final unfolded epoch at the tip.
    let dir_hist = fresh_dir(&base, "history");
    let mut durable = DurableTable::create_from_table_with_vfs(
        vfs.clone(),
        &dir_hist,
        build_table(values, config),
        sync_archive,
    )
    .expect("create archived table");
    let epoch = writes_n;
    let mut boundary_lsns = Vec::new(); // durable LSN after each checkpoint
    for e in 0..4u64 {
        commit_stream(
            &mut durable,
            schema,
            4 * values + e * 8 * epoch as u64,
            epoch,
        );
        durable.checkpoint().expect("checkpoint");
        boundary_lsns.push(durable.stats().durable_lsn);
    }
    commit_stream(&mut durable, schema, 4 * values + 32 * epoch as u64, epoch);
    let tip_lsn = durable.stats().next_lsn - 1;
    let archived = durable.archive_index().expect("archive index").file_count();
    drop(durable);

    let probe = HapQuery::Q2 {
        vs: 0,
        ve: 2 * values,
    };
    let solves0 = casper_core::solver::telemetry::solve_count();
    let encodes0 = codec_telemetry::encode_count();
    // (label, target LSN): replay distance grows left to right.
    let targets = [
        ("checkpoint boundary (zero replay)", boundary_lsns[0]),
        (
            "half an epoch of archived replay",
            (boundary_lsns[0] + boundary_lsns[1]) / 2,
        ),
        ("chain tip (live WAL replay)", tip_lsn),
    ];
    let mut restore_ms = Vec::new();
    for (label, lsn) in targets {
        let t = Instant::now();
        let mut pit = DurableTable::open_at_with_vfs(vfs.clone(), &dir_hist, lsn).expect("open_at");
        let hit = pit
            .table
            .execute(&probe)
            .expect("first query")
            .result
            .scalar();
        let elapsed = ms(t);
        assert!(hit > 0, "restored table answered nothing");
        assert!(pit.restored_lsn <= lsn);
        report.row(&[
            format!("restore to LSN, {label}"),
            format!("{elapsed:.1} ms"),
            format!("{} ops replayed, gen {}", pit.ops_replayed, pit.generation),
        ]);
        restore_ms.push((elapsed, pit.ops_replayed));
    }
    assert_eq!(
        casper_core::solver::telemetry::solve_count(),
        solves0,
        "restore-to-LSN must not re-solve"
    );
    assert_eq!(
        codec_telemetry::encode_count(),
        encodes0,
        "restore-to-LSN must not re-encode"
    );
    assert!(
        restore_ms[1].1 > 0,
        "the mid-epoch target must actually replay archived WAL"
    );
    metrics.push(Metric::new("restore_at_boundary_ms", restore_ms[0].0, "ms"));
    metrics.push(Metric::new("restore_mid_epoch_ms", restore_ms[1].0, "ms"));
    metrics.push(Metric::new("restore_tip_ms", restore_ms[2].0, "ms"));
    metrics.push(Metric::new(
        "restore_mid_epoch_ops_replayed",
        restore_ms[1].1 as f64,
        "count",
    ));
    metrics.push(Metric::new("archive_files", archived as f64, "count"));

    // --- 2. Hot-backup throughput under concurrent commits. --------------
    let dir_backup = fresh_dir(&base, "backup");
    let mut durable =
        DurableTable::open_with_vfs(vfs.clone(), &dir_hist, sync_archive).expect("open");
    let job = durable.begin_backup(&dir_backup).expect("begin_backup");
    let fence = job.backup_lsn();
    let t_copy = Instant::now();
    let copier = std::thread::spawn(move || {
        let t = Instant::now();
        let r = job.run().expect("backup");
        (r, t.elapsed().as_secs_f64())
    });
    // The source keeps absorbing commits while the copy runs.
    let during = commit_stream(
        &mut durable,
        schema,
        4 * values + 64 * epoch as u64,
        writes_n,
    );
    let (backup_report, copy_secs) = copier.join().expect("copier thread");
    let wall_ms = ms(t_copy);
    assert_eq!(backup_report.backup_lsn, fence);
    let backup_mb = backup_report.bytes as f64 / 1e6;
    let copy_mb_s = backup_mb / copy_secs.max(1e-9);
    let t = Instant::now();
    let verify = DurableTable::verify_backup_with_vfs(vfs.clone(), &dir_backup).expect("verify");
    let verify_secs = t.elapsed().as_secs_f64();
    let verify_mb_s = verify.bytes as f64 / 1e6 / verify_secs.max(1e-9);
    assert_eq!(verify.last_lsn, fence);
    report.row(&[
        "hot backup copy".into(),
        format!("{copy_mb_s:.0} MB/s"),
        format!(
            "{backup_mb:.1} MB, {} files; {writes_n} commits absorbed in {wall_ms:.0} ms wall",
            backup_report.files
        ),
    ]);
    report.row(&[
        "backup verification".into(),
        format!("{verify_mb_s:.0} MB/s"),
        format!("{} records, {} WAL links", verify.records, verify.wal_links),
    ]);
    metrics.push(Metric::new("backup_copy_mb_per_s", copy_mb_s, "MB/s"));
    metrics.push(Metric::new("backup_bytes_mb", backup_mb, "MB"));
    metrics.push(Metric::new(
        "backup_commit_p99_during_copy_us",
        p99_us(during),
        "us",
    ));
    metrics.push(Metric::new("backup_verify_mb_per_s", verify_mb_s, "MB/s"));
    drop(durable);

    // --- 3. Commit p99: archiving on vs off. -----------------------------
    // Same interleaved-repetition scheme as recovery_time: both configs
    // run back to back inside each repetition from a pristine directory
    // copy, and the gated quantity is the median of per-repetition
    // ratios, cancelling container-level I/O noise epochs.
    let watermark = if smoke { 16 * 1024 } else { 512 * 1024 };
    let reps = if smoke { 1 } else { 5 };
    let dir_src = fresh_dir(&base, "p99_src");
    drop(
        DurableTable::create_from_table_with_vfs(
            vfs.clone(),
            &dir_src,
            build_table(values, config),
            DurableOptions {
                background_checkpointer: false,
                ..DurableOptions::default()
            },
        )
        .expect("create p99 table"),
    );
    let configs: [(&str, DurableOptions); 2] = [
        (
            "archiving off (prune)",
            DurableOptions {
                wal_checkpoint_bytes: watermark,
                ..DurableOptions::default()
            },
        ),
        (
            "archiving on (retire)",
            DurableOptions {
                wal_checkpoint_bytes: watermark,
                archive: Some(ArchiveConfig::default()),
                ..DurableOptions::default()
            },
        ),
    ];
    let gated = !smoke && !fault_vfs;
    let measure = || {
        let mut p99s = [const { Vec::new() }; 2];
        let mut checkpoints = [0u64; 2];
        for _ in 0..reps {
            for (ci, (_, opts)) in configs.iter().enumerate() {
                let dir_p99 = fresh_dir(&base, "p99");
                std::fs::create_dir_all(&dir_p99).expect("trial dir");
                for entry in std::fs::read_dir(&dir_src).expect("src").flatten() {
                    if entry.path().is_file() {
                        std::fs::copy(entry.path(), dir_p99.join(entry.file_name())).expect("copy");
                    }
                }
                let mut d =
                    DurableTable::open_with_vfs(vfs.clone(), &dir_p99, *opts).expect("open");
                let before_gen = d.stats().generation;
                let lat = commit_stream(&mut d, schema, 4 * values + 1_000_000, writes_n);
                // Latencies are collected; a synchronous checkpoint now
                // waits out any watermark job still on the background
                // thread (the fault harness makes them slow enough to
                // straddle the stream) so the generation delta counts
                // every checkpoint of the rep.
                d.checkpoint().expect("final checkpoint");
                checkpoints[ci] += d.stats().generation - before_gen;
                p99s[ci].push(p99_us(lat));
                drop(d);
            }
        }
        let per_rep_ratios: Vec<f64> = p99s[1]
            .iter()
            .zip(&p99s[0])
            .map(|(on, off)| on / off.max(1e-9))
            .collect();
        let ratio = median(&per_rep_ratios);
        (p99s, checkpoints, ratio)
    };
    // One retry if the first attempt lands over the gate (the obs_overhead
    // idiom): a sustained container I/O noise epoch can poison even the
    // median of per-repetition ratios, but a genuine retire cost on the
    // commit path fails both attempts.
    let (p99s, checkpoints, p99_ratio) = {
        let first = measure();
        if gated && first.2 > 1.10 {
            eprintln!(
                "pitr_restore: first attempt {:.2}x over gate, retrying once",
                first.2
            );
            measure()
        } else {
            first
        }
    };
    for (ci, (name, _)) in configs.iter().enumerate() {
        report.row(&[
            format!("commit p99, {name} (median of {reps})"),
            format!("{:.1} us", median(&p99s[ci])),
            format!("{} checkpoints", checkpoints[ci]),
        ]);
    }
    metrics.push(Metric::new(
        "commit_p99_us_archiving_off",
        median(&p99s[0]),
        "us",
    ));
    metrics.push(Metric::new(
        "commit_p99_us_archiving_on",
        median(&p99s[1]),
        "us",
    ));
    metrics.push(Metric::new(
        "commit_p99_archive_vs_prune",
        p99_ratio,
        "ratio",
    ));
    assert!(
        checkpoints[1] > 0,
        "archiving stream never checkpointed — the retire path was not exercised"
    );

    report.print();
    report.write_csv("pitr_restore");
    trajectory::write_metrics_json(
        if fault_vfs {
            "BENCH_pitr_faultvfs.json"
        } else {
            "BENCH_pitr.json"
        },
        "pitr_restore",
        smoke,
        &[
            ("rows", values),
            ("stream_writes", writes_n as u64),
            ("archive_files", archived),
        ],
        &metrics,
    );

    // Acceptance gate (full-size, real-filesystem runs only — smoke sizes
    // are too noisy and the fault harness re-reads files on every fsync).
    if gated {
        assert!(
            p99_ratio <= 1.10,
            "archiving must hold the commit p99 within 10% of plain pruning, \
             measured {p99_ratio:.2}x"
        );
    }
    println!(
        "\nrestore-to-LSN {:.1}/{:.1}/{:.1} ms (boundary/epoch/tip); hot backup \
         {copy_mb_s:.0} MB/s with commits live; commit p99 {p99_ratio:.2}x with archiving",
        restore_ms[0].0, restore_ms[1].0, restore_ms[2].0
    );
}

//! Durability trajectory: what incremental checkpointing, the background
//! checkpointer, and lazy (mmap) restore buy.
//!
//! Four experiments, all recorded in `BENCH_persist.json`:
//!
//! 1. **Checkpoint cost vs dirty fraction** — a full checkpoint (the
//!    create) serializes every chunk whole; an incremental one writes a
//!    patch record per dirty chunk — the slot granules written since its
//!    last record. With ~10% of chunks dirty the incremental cost must stay
//!    ≤ 25% of the full cost (acceptance gate); a patch checkpoint with
//!    every chunk dirty is recorded too.
//! 2. **Commit-path p99** — streaming single-row commits with the
//!    background checkpointer *on* (WAL watermark triggers async
//!    checkpoints) must sit within 10% of checkpointing fully *disabled*;
//!    the inline (foreground) checkpointer is measured too, to show what
//!    the thread removes from the tail.
//! 3. **Restore** — time-to-first-query of `open` (metadata-only, chunks
//!    hydrate lazily from mapped segments) vs `open` + `hydrate_all()` on
//!    the same directory (read + CRC + decode everything up front); lazy
//!    must win by ≥ 2x. Either way the restore performs zero layout
//!    solves and zero codec re-encodes (counter-asserted).
//! 4. **Forced compaction** — collapse a multi-segment chain and verify
//!    contents survive bit-exactly (CI smoke for the compaction path).
//!
//! ```text
//! cargo run --release --bin recovery_time -- --values=1000000
//! cargo run --release --bin recovery_time -- --smoke     # CI-sized
//! ```

use casper_bench::trajectory::{self, Metric};
use casper_bench::{Args, TableReport};
use casper_engine::optimize::{optimize_table, OptimizeOptions};
use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_persist::{DurableOptions, DurableTable, FaultVfs, VfsHandle};
use casper_storage::compress::telemetry as codec_telemetry;
use casper_workload::{HapQuery, HapSchema, KeyDist, Mix, MixKind, WorkloadGenerator};
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

fn max_us(lat: &[f64]) -> f64 {
    lat.iter().copied().fold(0.0, f64::max)
}

/// One odd key inside chunk `c`'s key range (keys are ~uniform over
/// `[0, 2·values)`), used to dirty exactly that chunk.
fn key_in_chunk(c: usize, chunks: usize, values: u64) -> u64 {
    (c as u64 * 2 * values) / chunks as u64 + 1
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

fn probe_queries(values: u64) -> Vec<HapQuery> {
    (0..20u64)
        .map(|i| HapQuery::Q2 {
            vs: i * values / 10,
            ve: i * values / 10 + values / 7,
        })
        .collect()
}

fn fingerprint(durable: &mut DurableTable, values: u64) -> Vec<u64> {
    probe_queries(values)
        .iter()
        .map(|q| durable.execute(q).expect("probe").result.scalar())
        .collect()
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args = Args::parse();
    args.usage(
        "recovery_time",
        "Incremental checkpointing, background checkpointer and mmap-restore trajectory",
        &[
            ("values=N", "table rows (default 1M)"),
            ("sample=N", "optimizer workload sample size (default 4000)"),
            ("writes=N", "commits per latency stream (default 10000)"),
            (
                "dir=PATH",
                "scratch directory (default target/recovery_demo)",
            ),
            ("smoke", "CI smoke mode: tiny sizes, no ratio assertions"),
            (
                "fault-vfs",
                "route all persistence I/O through a zero-fault FaultVfs \
                 (proves the fault harness does not drift from the real \
                 filesystem; ratio gates are skipped — mmap under the \
                 harness is a copy)",
            ),
        ],
    );
    let smoke = args.flag("smoke");
    let fault_vfs = args.flag("fault-vfs");
    // A zero-fault FaultVfs must behave exactly like the real filesystem;
    // running the whole trajectory through it is the drift check.
    let vfs = if fault_vfs {
        VfsHandle::fault(Arc::new(FaultVfs::new()))
    } else {
        VfsHandle::default()
    };
    let values = args.u64_or("values", if smoke { 40_000 } else { 1_000_000 });
    let sample_n = args.usize_or("sample", if smoke { 400 } else { 4000 });
    let writes_n = args.usize_or("writes", if smoke { 400 } else { 10_000 });
    let base = PathBuf::from(
        args.get("dir")
            .unwrap_or("target/recovery_demo")
            .to_string(),
    );
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    let mut config = EngineConfig::for_mode(LayoutMode::Casper);
    // ~20 chunks so a 10% dirty fraction is expressible as whole chunks.
    config.chunk_values = (values as usize / 20).clamp(1024, 1 << 20);
    let schema = HapSchema::narrow();
    let mix = Mix::new(MixKind::HybridPointSkewed, schema, values);
    let sample = mix.generate(sample_n, 7);
    let opts = OptimizeOptions::default();

    let mut report = TableReport::new(
        format!("Durability trajectory — {values} rows"),
        &["experiment", "value", "note"],
    );
    let mut metrics: Vec<Metric> = Vec::new();

    // --- Cold start baseline: load + solve + compress from scratch. ------
    let t = Instant::now();
    let mut cold = build_table(values, config);
    optimize_table(&mut cold, &sample, &opts);
    let cold_ms = ms(t);
    report.row(&[
        "cold start (load + re-solve + re-compress)".into(),
        format!("{cold_ms:.1} ms"),
        "what restore avoids".into(),
    ]);
    metrics.push(Metric::new("cold_start_ms", cold_ms, "ms"));

    // --- 1. Checkpoint cost vs dirty fraction. ---------------------------
    // Synchronous (inline) checkpointing isolates the serialization cost.
    let sync_opts = DurableOptions {
        background_checkpointer: false,
        ..DurableOptions::default()
    };
    // Full checkpoint: the create writes every chunk whole.
    let dir_main = fresh_dir(&base, "main");
    let t = Instant::now();
    let mut durable =
        DurableTable::create_from_table_with_vfs(vfs.clone(), &dir_main, cold, sync_opts)
            .expect("create durable table");
    let full_ms = ms(t);
    let chunks = durable.table().column().chunk_count();

    // Every chunk dirty: one patch record per chunk.
    for c in 0..chunks {
        let key = key_in_chunk(c, chunks, values);
        durable
            .execute(&HapQuery::Q4 {
                key,
                payload: schema.payload_row(key),
            })
            .expect("write");
    }
    assert_eq!(durable.stats().dirty_chunks as usize, chunks);
    let t = Instant::now();
    durable.checkpoint().expect("all-dirty checkpoint");
    let all_dirty_ms = ms(t);

    // Incremental checkpoint: dirty ~10% of chunks, then fold.
    let dirty_target = (chunks / 10).max(1);
    for c in 0..dirty_target {
        let key = key_in_chunk(c, chunks, values) + 2;
        durable
            .execute(&HapQuery::Q4 {
                key,
                payload: schema.payload_row(key),
            })
            .expect("write");
    }
    assert_eq!(durable.stats().dirty_chunks as usize, dirty_target);
    let t = Instant::now();
    durable.checkpoint().expect("incremental checkpoint");
    let inc_ms = ms(t);
    let ratio = inc_ms / full_ms.max(1e-9);
    report.row(&[
        format!("full checkpoint ({chunks} chunks written whole)"),
        format!("{full_ms:.1} ms"),
        "re-serializes everything".into(),
    ]);
    report.row(&[
        format!("patch checkpoint ({chunks}/{chunks} chunks dirty)"),
        format!("{all_dirty_ms:.1} ms"),
        "one patch record per chunk".into(),
    ]);
    report.row(&[
        format!("incremental checkpoint ({dirty_target}/{chunks} chunks dirty)"),
        format!("{inc_ms:.1} ms"),
        format!("{:.1}% of full", ratio * 100.0),
    ]);
    metrics.push(Metric::new("full_checkpoint_ms", full_ms, "ms"));
    metrics.push(Metric::new(
        "patch_checkpoint_all_dirty_ms",
        all_dirty_ms,
        "ms",
    ));
    metrics.push(Metric::new("incremental_checkpoint_ms", inc_ms, "ms"));
    metrics.push(Metric::new(
        "incremental_dirty_fraction",
        dirty_target as f64 / chunks as f64,
        "ratio",
    ));
    metrics.push(Metric::new("incremental_vs_full", ratio, "ratio"));
    let rows_after_ckpt = durable.len();
    let want_fingerprint = fingerprint(&mut durable, values);
    drop(durable);

    // --- 2. Commit-path p99: checkpointer off / background / inline. -----
    // Sized so a couple of watermark checkpoints trigger mid-stream while
    // staying rare relative to the stream length: the scenario under test
    // is "a background checkpoint runs while commits stream", not
    // "checkpoint on every handful of writes" (a real deployment folds the
    // WAL every tens of MB, far rarer even than this). The stream is long
    // enough that the p99 rank clears the handful of commits that overlap
    // each checkpoint's I/O window — the tail those windows do add is
    // visible in the recorded max instead.
    let watermark = if smoke { 16 * 1024 } else { 512 * 1024 };
    let reps = if smoke { 1 } else { 5 };
    // The stream appends into one hot chunk, so checkpoint I/O per fold is
    // that chunk's patch — the granules the appends wrote — and, once its
    // chain reaches the chunk's size, the chunk written whole: chunk
    // granularity bounds the worst fold. The experiment keeps finer chunks
    // than experiment 1 (~8k rows ≈ 0.6 MB written whole) so that worst
    // fold stays well inside the stream's p99 window.
    let mut p99_config = config;
    p99_config.chunk_values = (values as usize / 128).clamp(1024, 1 << 20);
    let dir_p99_src = fresh_dir(&base, "p99_src");
    drop(
        DurableTable::create_from_table_with_vfs(
            vfs.clone(),
            &dir_p99_src,
            build_table(values, p99_config),
            sync_opts,
        )
        .expect("create p99 table"),
    );
    let configs: [(&str, DurableOptions); 3] = [
        (
            "checkpointing disabled",
            DurableOptions {
                wal_checkpoint_bytes: 0,
                background_checkpointer: false,
                ..DurableOptions::default()
            },
        ),
        (
            "background checkpointer",
            DurableOptions {
                wal_checkpoint_bytes: watermark,
                background_checkpointer: true,
                ..DurableOptions::default()
            },
        ),
        (
            "inline checkpointer",
            DurableOptions {
                wal_checkpoint_bytes: watermark,
                background_checkpointer: false,
                ..DurableOptions::default()
            },
        ),
    ];
    // Interleaved repetitions: the three configurations run back to back
    // inside each repetition, so a container-level I/O noise epoch (the
    // disabled baseline alone shows multi-ms spikes) hits all of them
    // alike; the gated quantity is the *median of per-repetition ratios*,
    // which cancels that shared epoch instead of letting it bias whichever
    // stream it landed on.
    let mut p99s = [const { Vec::new() }; 3];
    let mut maxes = [0f64; 3];
    let mut checkpoints = [0u64; 3];
    for _ in 0..reps {
        for (ci, (_, opts)) in configs.iter().enumerate() {
            // Every trial starts from a pristine copy of the created
            // table: without this, streams accumulate in the directory and
            // later repetitions pay ever-larger WAL replays and checkpoint
            // an ever-growing hot chunk — a confound, not the effect under
            // measurement.
            let dir_p99 = fresh_dir(&base, "p99");
            std::fs::create_dir_all(&dir_p99).expect("trial dir");
            for entry in std::fs::read_dir(&dir_p99_src).expect("src").flatten() {
                std::fs::copy(entry.path(), dir_p99.join(entry.file_name())).expect("copy");
            }
            let mut d = DurableTable::open_with_vfs(vfs.clone(), &dir_p99, *opts).expect("open");
            let before_gen = d.stats().generation;
            let lat = commit_stream(&mut d, schema, 4 * values + 1_000_000, writes_n);
            checkpoints[ci] += d.stats().generation - before_gen;
            p99s[ci].push(p99_us(lat.clone()));
            maxes[ci] = maxes[ci].max(max_us(&lat));
            drop(d);
        }
    }
    let median = |v: &[f64]| -> f64 {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    for (ci, (name, _)) in configs.iter().enumerate() {
        report.row(&[
            format!("commit p99, {name} (median of {reps})"),
            format!("{:.1} us", median(&p99s[ci])),
            format!("max {:.0} us, {} checkpoints", maxes[ci], checkpoints[ci]),
        ]);
    }
    let (p99_off, p99_bg, p99_inline) = (median(&p99s[0]), median(&p99s[1]), median(&p99s[2]));
    let (ck_off, ck_bg) = (checkpoints[0], checkpoints[1]);
    let max_inline = maxes[2];
    assert_eq!(ck_off, 0, "disabled stream must not checkpoint");
    let per_rep_ratios: Vec<f64> = p99s[1]
        .iter()
        .zip(&p99s[0])
        .map(|(bg, off)| bg / off.max(1e-9))
        .collect();
    let p99_ratio = median(&per_rep_ratios);
    metrics.push(Metric::new(
        "commit_p99_us_checkpointing_off",
        p99_off,
        "us",
    ));
    metrics.push(Metric::new("commit_p99_us_background", p99_bg, "us"));
    metrics.push(Metric::new("commit_p99_us_inline", p99_inline, "us"));
    metrics.push(Metric::new("commit_max_us_inline", max_inline, "us"));
    metrics.push(Metric::new("commit_p99_bg_vs_off", p99_ratio, "ratio"));
    metrics.push(Metric::new("background_checkpoints", ck_bg as f64, "count"));

    // --- 3. Restore: lazy open vs open + hydrate_all, same directory. ---
    // Fold any remaining WAL so neither arm times a replay.
    let mut durable = DurableTable::open_with_vfs(vfs.clone(), &dir_main, sync_opts).expect("open");
    durable.checkpoint().expect("fold");
    let rows_now = durable.len();
    drop(durable);

    let probe_key = 2 * (values / 3); // an even (present) key
    let solves0 = casper_core::solver::telemetry::solve_count();
    let encodes0 = codec_telemetry::encode_count();
    let t = Instant::now();
    let mut d = DurableTable::open_with_vfs(vfs.clone(), &dir_main, DurableOptions::default())
        .expect("open");
    let hit = d
        .execute(&HapQuery::Q1 { v: probe_key, k: 2 })
        .expect("first query")
        .result
        .scalar();
    let mmap_ms = ms(t);
    drop(d);
    // The eager baseline: the same open, then decode every chunk before
    // serving anything.
    let t = Instant::now();
    let mut d = DurableTable::open_with_vfs(vfs.clone(), &dir_main, DurableOptions::default())
        .expect("open");
    d.hydrate_all().expect("hydrate");
    let mmap_full_ms = ms(t);
    let hit_eager = d
        .execute(&HapQuery::Q1 { v: probe_key, k: 2 })
        .expect("first query")
        .result
        .scalar();
    assert_eq!(hit, hit_eager, "restores disagree on the probe row");
    assert_eq!(d.len(), rows_now);
    drop(d);
    assert_eq!(
        casper_core::solver::telemetry::solve_count(),
        solves0,
        "restore must not re-solve"
    );
    assert_eq!(
        codec_telemetry::encode_count(),
        encodes0,
        "restore must not re-encode"
    );
    let speedup = mmap_full_ms / mmap_ms.max(1e-9);
    report.row(&[
        "restore, open + hydrate_all".into(),
        format!("{mmap_full_ms:.1} ms"),
        "read + CRC + decode everything".into(),
    ]);
    report.row(&[
        "restore to first query, lazy".into(),
        format!("{mmap_ms:.1} ms"),
        format!("{speedup:.1}x faster"),
    ]);
    metrics.push(Metric::new("restore_mmap_first_query_ms", mmap_ms, "ms"));
    metrics.push(Metric::new(
        "restore_mmap_full_hydrate_ms",
        mmap_full_ms,
        "ms",
    ));
    metrics.push(Metric::new(
        "restore_speedup_to_first_query",
        speedup,
        "ratio",
    ));

    // --- 4. Forced compaction: collapse the chain, verify contents. ------
    let mut d = DurableTable::open_with_vfs(vfs.clone(), &dir_main, sync_opts).expect("open");
    let segments_before = d.stats().segments;
    let t = Instant::now();
    d.compact().expect("compact");
    let compact_ms = ms(t);
    assert_eq!(d.stats().segments, 1, "compaction collapses the chain");
    assert!(d.len() >= rows_after_ckpt);
    let got = fingerprint(&mut d, values);
    assert_eq!(
        got, want_fingerprint,
        "compaction/restore changed query results"
    );
    drop(d);
    report.row(&[
        format!("forced compaction ({segments_before} segments -> 1)"),
        format!("{compact_ms:.1} ms"),
        "record chains byte-copied".into(),
    ]);
    metrics.push(Metric::new("compaction_ms", compact_ms, "ms"));

    report.print();
    report.write_csv("recovery_time");
    trajectory::write_metrics_json(
        // The drift-check run must not clobber the real trajectory file.
        if fault_vfs {
            "BENCH_persist_faultvfs.json"
        } else {
            "BENCH_persist.json"
        },
        "recovery_time",
        smoke,
        &[
            ("rows", values),
            ("chunks", chunks as u64),
            ("stream_writes", writes_n as u64),
        ],
        &metrics,
    );

    // Acceptance gates (full-size runs only; smoke sizes are too noisy,
    // and under the fault harness mmap is a copy + every fsync re-reads
    // the file into the shadow model, so timing ratios are meaningless —
    // the correctness assertions above all still ran).
    if !smoke && !fault_vfs {
        assert!(
            ratio <= 0.25,
            "incremental checkpoint must cost <= 25% of full at a 10% dirty \
             fraction, measured {:.1}%",
            ratio * 100.0
        );
        assert!(
            p99_ratio <= 1.10,
            "commit p99 with the background checkpointer must stay within \
             10% of checkpointing disabled, measured {:.2}x",
            p99_ratio
        );
        assert!(
            speedup >= 2.0,
            "lazy restore must reach first query >= 2x faster than open + \
             hydrate_all on the same directory, measured {speedup:.1}x"
        );
    }
    println!(
        "\nincremental checkpoint: {:.1}% of full at {}/{chunks} dirty; \
         commit p99 {:.2}x baseline with background checkpointing; \
         lazy restore {speedup:.1}x to first query vs eager hydrate",
        ratio * 100.0,
        dirty_target,
        p99_ratio
    );
}

//! Concurrency trajectory: mixed read/write throughput on the snapshot
//! read path, recorded in `BENCH_concurrent.json`.
//!
//! One writer commits count-neutral transactions (an insert plus the
//! delete of the previous tick's row) at a fixed (open-loop) arrival rate,
//! each one publish, while 1/2/4/8 reader threads hammer `TableReader`
//! handles flat-out, each pinning the published snapshot once per query.
//! Reported per reader level:
//!
//! - aggregate read throughput (queries/s) and its scaling versus one
//!   reader,
//! - read latency p50/p99 in microseconds,
//! - writer commits actually applied (the paced load stays on).
//!
//! Readers execute a seeded mix of Q1 point lookups, ~1% Q2 range counts,
//! and Q3 range sums. Because reads run on immutable pinned snapshots,
//! the only shared-state traffic per query is one `Arc` refcount bump —
//! the scaling curve measures that, not lock contention.
//!
//! ```text
//! cargo run --release --bin concurrent_load -- --rows=200000
//! cargo run --release --bin concurrent_load -- --smoke     # CI-sized
//! ```
//!
//! The ≥4x scaling-at-8-readers gate only fires on hosts that can
//! actually run 8 readers + 1 writer in parallel; the JSON records
//! `host_parallelism` so downstream tooling can interpret the curve.

use casper_bench::trajectory::{self, Metric};
use casper_bench::{Args, TableReport};
use casper_engine::{EngineConfig, LayoutMode, Table, TableReader, TxnManager};
use casper_workload::{HapQuery, HapSchema};
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn percentile(lat: &mut [f64], p: usize) -> f64 {
    lat.sort_by(f64::total_cmp);
    lat[(lat.len() * p / 100).min(lat.len() - 1)]
}

/// Even-keyed fixture so writer-minted odd keys never collide.
fn build_table(rows: u64, mode: LayoutMode) -> Table {
    let schema = HapSchema::narrow();
    let keys: Vec<u64> = (0..rows).map(|i| i * 2).collect();
    let payload_cols: Vec<Vec<u32>> = (0..schema.payload_cols)
        .map(|c| {
            keys.iter()
                .map(|&k| (k as u32).wrapping_mul(c as u32 + 1))
                .collect()
        })
        .collect();
    let mut config = EngineConfig::for_mode(mode);
    config.chunk_values = (rows as usize / 32).clamp(1024, 1 << 20);
    Table::load(schema, keys, payload_cols, config)
}

/// Closed-loop reader worker: pins the latest snapshot once per query and
/// records per-query latency until `stop` flips.
fn reader_loop(
    handle: &TableReader,
    domain: u64,
    seed: u64,
    stop: &AtomicBool,
    done: &AtomicU64,
    out: &Mutex<Vec<f64>>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (domain / 100).max(2); // ~1% selectivity ranges
    let mut lat = Vec::with_capacity(4096);
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let roll: u64 = rng.gen_range(0..10);
        let at: u64 = rng.gen_range(0..domain.saturating_sub(span));
        let q = match roll {
            0..=4 => HapQuery::Q1 { v: at & !1, k: 4 },
            5..=7 => HapQuery::Q2 {
                vs: at,
                ve: at + span,
            },
            _ => HapQuery::Q3 {
                vs: at,
                ve: at + span,
                k: 2,
            },
        };
        let t = Instant::now();
        let o = handle.execute(&q).expect("snapshot read");
        std::hint::black_box(o.result.scalar());
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        n += 1;
    }
    done.fetch_add(n, Ordering::Relaxed);
    out.lock().expect("latency sink").extend(lat);
}

struct LevelResult {
    readers: usize,
    read_qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Writer commits applied; the JSON keeps the `writer_batches_*` key
    /// so the trajectory stays comparable across runs.
    writer_batches: u64,
}

/// Run one reader level: paced writer + `readers` flat-out readers for
/// `duration`.
fn run_level(
    table: &mut Table,
    readers: usize,
    duration: Duration,
    writer_interval: Duration,
    seed: u64,
    next_key: &mut u64,
) -> LevelResult {
    let schema = table.schema();
    let domain = 2 * table.len() as u64;
    let reader_handle = table.reader();
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let lat_sink = Mutex::new(Vec::new());
    let mut writer_batches = 0u64;
    let mut elapsed = Duration::ZERO;

    std::thread::scope(|scope| {
        for r in 0..readers {
            let handle = reader_handle.clone();
            let (stop, done, lat_sink) = (&stop, &done, &lat_sink);
            scope.spawn(move || {
                reader_loop(&handle, domain, seed ^ (r as u64 + 1), stop, done, lat_sink)
            });
        }
        // Open-loop writer on this thread: one count-neutral transaction
        // per arrival tick, independent of how fast readers drain.
        let txns = TxnManager::new();
        let start = Instant::now();
        let mut live_key = 0u64;
        while start.elapsed() < duration {
            let fresh = *next_key;
            *next_key += 2;
            let mut txn = txns.begin();
            txns.buffer_insert(&mut txn, table, fresh, schema.payload_row(fresh));
            if live_key != 0 {
                txn.delete(live_key);
            }
            live_key = fresh;
            txns.commit(txn, table).expect("writer commit");
            writer_batches += 1;
            std::thread::sleep(writer_interval);
        }
        elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
    });

    let mut lat = lat_sink.into_inner().expect("latency sink");
    let reads = done.load(Ordering::Relaxed);
    LevelResult {
        readers,
        read_qps: reads as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&mut lat, 50),
        p99_us: percentile(&mut lat, 99),
        writer_batches,
    }
}

fn main() {
    let args = Args::parse();
    args.usage(
        "concurrent_load",
        "Mixed read/write driver: snapshot-reader scaling with an active writer",
        &[
            ("rows=N", "table rows (default 200k)"),
            ("secs=F", "seconds per reader level (default 2.0)"),
            ("writer-hz=N", "writer commits per second (default 200)"),
            ("seed=N", "query-mix seed (default 42)"),
            ("smoke", "CI smoke mode: tiny sizes, no scaling assertions"),
        ],
    );
    let smoke = args.flag("smoke");
    let rows = args.u64_or("rows", if smoke { 40_000 } else { 200_000 });
    let secs = args.f64_or("secs", if smoke { 0.3 } else { 2.0 });
    let writer_hz = args.u64_or("writer-hz", 200).max(1);
    let seed = args.u64_or("seed", 42);
    let duration = Duration::from_secs_f64(secs);
    let writer_interval = Duration::from_secs_f64(1.0 / writer_hz as f64);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = build_table(rows, LayoutMode::Casper);
    // Writer-minted odd keys live above the even fixture range.
    let mut next_key = 2 * rows + 1;

    let mut report = TableReport::new(
        format!(
            "Concurrent mixed load — {rows} rows, writer at {writer_hz} commits/s, \
             {host_parallelism}-way host"
        ),
        &[
            "readers",
            "read kq/s",
            "scaling",
            "p50 us",
            "p99 us",
            "writer commits",
        ],
    );
    let mut metrics: Vec<Metric> = Vec::new();
    let mut base_qps = 0.0f64;
    let mut scaling_at_8 = 0.0f64;

    for readers in [1usize, 2, 4, 8] {
        let level = run_level(
            &mut table,
            readers,
            duration,
            writer_interval,
            seed,
            &mut next_key,
        );
        if readers == 1 {
            base_qps = level.read_qps;
        }
        let scaling = level.read_qps / base_qps.max(1e-9);
        if readers == 8 {
            scaling_at_8 = scaling;
        }
        report.row(&[
            format!("{}", level.readers),
            format!("{:.1}", level.read_qps / 1e3),
            format!("{scaling:.2}x"),
            format!("{:.1}", level.p50_us),
            format!("{:.1}", level.p99_us),
            format!("{}", level.writer_batches),
        ]);
        metrics.push(Metric::new(
            format!("read_qps_{readers}r"),
            level.read_qps,
            "qps",
        ));
        metrics.push(Metric::new(
            format!("read_p50_us_{readers}r"),
            level.p50_us,
            "us",
        ));
        metrics.push(Metric::new(
            format!("read_p99_us_{readers}r"),
            level.p99_us,
            "us",
        ));
        metrics.push(Metric::new(
            format!("writer_batches_{readers}r"),
            level.writer_batches as f64,
            "count",
        ));
    }
    metrics.push(Metric::new("read_scaling_1_to_8", scaling_at_8, "ratio"));
    metrics.push(Metric::new(
        "host_parallelism",
        host_parallelism as f64,
        "count",
    ));

    report.print();
    report.write_csv("concurrent_load");
    trajectory::write_metrics_json(
        "BENCH_concurrent.json",
        "concurrent_load",
        smoke,
        &[
            ("rows", rows),
            ("writer_hz", writer_hz),
            ("host_parallelism", host_parallelism as u64),
        ],
        &metrics,
    );

    // Scaling gate: snapshot reads share no locks, so on a host with the
    // cores to run them, 8 readers must deliver ≥4x one reader even with
    // the writer publishing continuously. Skipped when the host cannot
    // physically run the 8-reader level in parallel (the curve then
    // measures the scheduler, not the engine).
    if !smoke && host_parallelism >= 9 {
        assert!(
            scaling_at_8 >= 4.0,
            "8-reader throughput must scale ≥4x over 1 reader with an active \
             writer, measured {scaling_at_8:.2}x"
        );
    }
    println!(
        "\n8-reader scaling {scaling_at_8:.2}x over 1 reader ({host_parallelism}-way host, \
         writer at {writer_hz} commits/s)"
    );
}

//! Resource-governor trajectory: what memory budgeting, admission control
//! and governed execution cost and guarantee, recorded in
//! `BENCH_governor.json`.
//!
//! Three experiments:
//!
//! 1. **Budgeted sweep** — open a durable table under a memory budget at
//!    50% of its hydrated working set and sweep point reads across the
//!    whole key space: the resident ceiling must hold after every pass,
//!    and the sequential thrash phase measures the eviction→rehydrate
//!    round-trip latency (every read past warm-up lands on an evicted
//!    chunk).
//! 2. **Clean-path overhead** — the same read stream with the governor
//!    fully engaged (slots, deadline plumbing, budget accounting) but
//!    never binding, against a governor-free table: the p99 ratio is the
//!    price of carrying governance on the hot path.
//! 3. **Overload storm, shed on/off** — reader threads hammer range
//!    counts through a 2-slot gate with a short admit wait, versus the
//!    same storm ungated: sheds convert queueing into typed errors and
//!    bound the p99 of the queries that do run.
//!
//! ```text
//! cargo run --release --bin resource_governor -- --values=200000
//! cargo run --release --bin resource_governor -- --smoke   # CI-sized
//! ```

use casper_bench::trajectory::{self, Metric};
use casper_bench::{Args, TableReport};
use casper_engine::{EngineConfig, Governor, GovernorConfig, LayoutMode, QueryCtx, Table};
use casper_persist::{DurableOptions, DurableTable};
use casper_storage::StorageError;
use casper_workload::{HapQuery, HapSchema, KeyDist, WorkloadGenerator};
use rand::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn pct_us(mut lat: Vec<f64>, p: usize) -> f64 {
    lat.sort_by(f64::total_cmp);
    lat[(lat.len() * p / 100).min(lat.len() - 1)]
}

fn build_table(values: u64, config: EngineConfig) -> Table {
    let gen = WorkloadGenerator::new(HapSchema::narrow(), values, KeyDist::Uniform);
    Table::load_from_generator(&gen, config)
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Create-at-`dir`, then reopen with `opts`: reads start from the lazy
/// mmap-restored state both governed and ungoverned runs share.
fn reopen(
    base: &Path,
    name: &str,
    values: u64,
    config: EngineConfig,
    opts: DurableOptions,
) -> DurableTable {
    let dir = fresh_dir(base, name);
    drop(
        DurableTable::create_from_table(
            &dir,
            build_table(values, config),
            DurableOptions::default(),
        )
        .expect("create"),
    );
    DurableTable::open(&dir, opts).expect("reopen")
}

fn main() {
    let args = Args::parse();
    args.usage(
        "resource_governor",
        "Governor trajectory: budgeted eviction, clean-path overhead, load shedding",
        &[
            ("values=N", "table rows (default 200k)"),
            ("queries=N", "point reads per stream (default 5000)"),
            (
                "dir=PATH",
                "scratch directory (default target/governor_demo)",
            ),
            ("smoke", "CI smoke mode: tiny sizes, no ratio assertions"),
        ],
    );
    let smoke = args.flag("smoke");
    let values = args.u64_or("values", if smoke { 40_000 } else { 200_000 });
    let queries = args.usize_or("queries", if smoke { 500 } else { 5_000 });
    let base = PathBuf::from(
        args.get("dir")
            .unwrap_or("target/governor_demo")
            .to_string(),
    );
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    let mut config = EngineConfig::for_mode(LayoutMode::Casper);
    config.chunk_values = (values as usize / 32).clamp(1024, 1 << 20);
    let ctx = QueryCtx::unbounded();

    let mut report = TableReport::new(
        format!("Resource governor — {values} rows"),
        &["experiment", "value", "note"],
    );
    let mut metrics: Vec<Metric> = Vec::new();

    // --- 0. Working-set baseline. ----------------------------------------
    let mut probe = reopen(&base, "probe", values, config, DurableOptions::default());
    probe.hydrate_all().expect("hydrate");
    let working_set = probe.resident_bytes();
    let chunks = probe.table().column().chunk_count() as u64;
    drop(probe);

    // --- 1. Budgeted sweep: ceiling + eviction→rehydrate latency. --------
    let budget = working_set / 2;
    let gov_cfg = GovernorConfig {
        memory_budget_bytes: budget,
        check_interval: 1, // enforce after every query: the ceiling is the experiment
        ..GovernorConfig::default()
    };
    let mut d = reopen(
        &base,
        "budget",
        values,
        config,
        DurableOptions {
            governor: Some(gov_cfg),
            ..DurableOptions::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut max_resident = 0usize;
    let mut sweep_lat = Vec::with_capacity(queries);
    for _ in 0..queries {
        let key = rng.gen_range(0..values) * 2;
        let q = HapQuery::Q1 { v: key, k: 1 };
        let t = Instant::now();
        d.execute_with(&q, &ctx).expect("governed point read");
        sweep_lat.push(t.elapsed().as_secs_f64() * 1e6);
        max_resident = max_resident.max(d.resident_bytes());
    }
    // Thrash phase: a sequential chunk-order sweep under a 50% budget
    // makes (with LRU victims) every read past warm-up hit an evicted
    // chunk — its median is the eviction→rehydrate round trip.
    let span = (2 * values) / chunks.max(1);
    let mut thrash_lat = Vec::new();
    for round in 0..3u64 {
        for c in 0..chunks {
            let key = ((c * span + (round + 1) * 16) / 2) * 2 % (2 * values);
            let q = HapQuery::Q1 { v: key, k: 1 };
            let t = Instant::now();
            d.execute_with(&q, &ctx).expect("thrash read");
            thrash_lat.push(t.elapsed().as_secs_f64() * 1e6);
            max_resident = max_resident.max(d.resident_bytes());
        }
    }
    let stats = d.governor_stats().expect("governor configured");
    assert!(
        max_resident <= budget,
        "resident ceiling violated: {max_resident} > budget {budget}"
    );
    assert!(stats.evictions > 0, "a 50% budget must evict");
    assert!(stats.rehydrations > 0, "the sweep must rehydrate");
    drop(d);
    let ceiling_ratio = max_resident as f64 / budget as f64;
    let rehydrate_p50 = pct_us(thrash_lat, 50);
    report.row(&[
        format!("budget {budget} B (50% of {working_set} B, {chunks} chunks)"),
        format!("peak {max_resident} B ({:.2}x)", ceiling_ratio),
        format!(
            "{} evictions, {} rehydrations",
            stats.evictions, stats.rehydrations
        ),
    ]);
    report.row(&[
        "eviction→rehydrate round trip (thrash p50)".into(),
        format!("{rehydrate_p50:.1} us"),
        "sequential sweep, every read on an evicted chunk".into(),
    ]);
    metrics.push(Metric::new("resident_budget_bytes", budget as f64, "bytes"));
    metrics.push(Metric::new(
        "resident_max_bytes",
        max_resident as f64,
        "bytes",
    ));
    metrics.push(Metric::new(
        "resident_ceiling_ratio",
        ceiling_ratio,
        "ratio",
    ));
    metrics.push(Metric::new("evictions", stats.evictions as f64, "count"));
    metrics.push(Metric::new(
        "rehydrations",
        stats.rehydrations as f64,
        "count",
    ));
    metrics.push(Metric::new("rehydrate_thrash_p50_us", rehydrate_p50, "us"));
    metrics.push(Metric::new(
        "budget_sweep_p99_us",
        pct_us(sweep_lat, 99),
        "us",
    ));

    // --- 2. Clean-path overhead: governor engaged but never binding. -----
    // Same call on both tables: whether it is governed is decided by the
    // `DurableOptions.governor` each was opened with.
    let run_stream = |d: &mut DurableTable| -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lat = Vec::with_capacity(queries);
        for _ in 0..queries {
            let key = rng.gen_range(0..values) * 2;
            let q = HapQuery::Q1 { v: key, k: 1 };
            let t = Instant::now();
            d.execute_with(&q, &ctx).expect("point read");
            lat.push(t.elapsed().as_secs_f64() * 1e6);
        }
        lat
    };
    let mut plain = reopen(
        &base,
        "clean_off",
        values,
        config,
        DurableOptions::default(),
    );
    plain.hydrate_all().expect("hydrate");
    let lat_off = run_stream(&mut plain);
    drop(plain);
    let roomy = GovernorConfig {
        memory_budget_bytes: working_set * 2, // accounted, never binding
        query_slots: 64,
        check_interval: 8,
        ..GovernorConfig::default()
    };
    let mut governed = reopen(
        &base,
        "clean_on",
        values,
        config,
        DurableOptions {
            governor: Some(roomy),
            ..DurableOptions::default()
        },
    );
    governed.hydrate_all().expect("hydrate");
    let lat_on = run_stream(&mut governed);
    let shed_free = governed.governor_stats().expect("governor").shed;
    assert_eq!(shed_free, 0, "a roomy gate must never shed");
    drop(governed);
    let (p99_off, p99_on) = (pct_us(lat_off, 99), pct_us(lat_on, 99));
    let clean_ratio = p99_on / p99_off.max(1e-9);
    report.row(&[
        "point p99, governor off / on (never binding)".into(),
        format!("{p99_off:.1} / {p99_on:.1} us"),
        format!("{clean_ratio:.3}x clean-path overhead"),
    ]);
    metrics.push(Metric::new("point_p99_us_governor_off", p99_off, "us"));
    metrics.push(Metric::new("point_p99_us_governor_on", p99_on, "us"));
    metrics.push(Metric::new(
        "governor_clean_path_ratio",
        clean_ratio,
        "ratio",
    ));

    // --- 3. Overload storm: shed on vs off. ------------------------------
    // Natural slot contention needs more runnable threads than cores with
    // queries longer than a scheduling quantum — neither holds on a small
    // CI box. The overload is made explicit instead: two "hog" permits
    // pin the whole 2-slot gate while the storm runs (phase 1, every
    // attempt must come back as a typed shed, immediately), then the hogs
    // release and the same threads measure admitted-query latency
    // (phase 2). The ungated storm gives the shed-off baseline.
    let threads = 8usize;
    let per_thread = (queries / 8).max(8);
    let table = build_table(values, config);
    table.hydrate_all().expect("hydrate");
    let storm_q = |rng: &mut StdRng| HapQuery::Q3 {
        // A full-range sum actually scans the payload; a count would be
        // answered from fence metadata.
        vs: rng.gen_range(0..16),
        ve: 2 * values,
        k: 1,
    };
    let ungated = table.reader();
    let mut lat_ungated = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let handle = ungated.clone();
                let storm_q = &storm_q;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t as u64);
                    let mut ok = Vec::with_capacity(per_thread);
                    for _ in 0..per_thread {
                        let q = storm_q(&mut rng);
                        let started = Instant::now();
                        handle.execute(&q).expect("ungated sum");
                        ok.push(started.elapsed().as_secs_f64() * 1e6);
                    }
                    ok
                })
            })
            .collect();
        for h in handles {
            lat_ungated.extend(h.join().expect("storm thread"));
        }
    });

    let gate = Arc::new(Governor::new(GovernorConfig {
        query_slots: 2,
        admit_wait_ms: 0, // shed immediately when both slots are busy
        ..GovernorConfig::default()
    }));
    let reader = table.reader().with_governor(Arc::clone(&gate));
    let hog_a = gate.admit(false).expect("hog slot a");
    let hog_b = gate.admit(false).expect("hog slot b");
    let barrier = std::sync::Barrier::new(threads + 1);
    let mut lat_gated = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let handle = reader.clone();
                let barrier = &barrier;
                let storm_q = &storm_q;
                scope.spawn(move || {
                    let ctx = QueryCtx::unbounded();
                    let mut rng = StdRng::seed_from_u64(100 + t as u64);
                    barrier.wait();
                    // Phase 1: the gate is pinned — every attempt sheds.
                    for _ in 0..per_thread {
                        match handle.execute_with(&storm_q(&mut rng), &ctx) {
                            Err(StorageError::Overloaded { .. }) => {}
                            Ok(_) => panic!("admitted through a pinned gate"),
                            Err(e) => panic!("storm error: {e}"),
                        }
                    }
                    barrier.wait(); // phase 1 done
                    barrier.wait(); // hogs released
                                    // Phase 2: collect per-thread admitted latencies
                                    // (residual sheds possible under real contention).
                    let mut ok = Vec::with_capacity(per_thread);
                    while ok.len() < per_thread {
                        let q = storm_q(&mut rng);
                        let started = Instant::now();
                        match handle.execute_with(&q, &ctx) {
                            Ok(_) => ok.push(started.elapsed().as_secs_f64() * 1e6),
                            Err(StorageError::Overloaded { .. }) => {}
                            Err(e) => panic!("storm error: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        barrier.wait(); // start phase 1
        barrier.wait(); // phase 1 done
        drop(hog_a);
        drop(hog_b);
        barrier.wait(); // start phase 2
        for h in handles {
            lat_gated.extend(h.join().expect("storm thread"));
        }
    });
    let sheds = gate.stats().shed;
    assert!(
        sheds >= (threads * per_thread) as u64,
        "every attempt against the pinned gate must shed"
    );
    assert!(!lat_gated.is_empty(), "the gate must admit some queries");
    let (p99_shed_off, p99_shed_on) = (pct_us(lat_ungated, 99), pct_us(lat_gated, 99));
    let shed_rate = sheds as f64 / (2 * threads * per_thread) as f64;
    report.row(&[
        format!("storm p99, {threads} threads, shed off / on (2 slots)"),
        format!("{p99_shed_off:.1} / {p99_shed_on:.1} us"),
        format!("{sheds} sheds ({:.0}% of offered load)", shed_rate * 100.0),
    ]);
    metrics.push(Metric::new("storm_p99_us_shed_off", p99_shed_off, "us"));
    metrics.push(Metric::new("storm_p99_us_shed_on", p99_shed_on, "us"));
    metrics.push(Metric::new("sheds", sheds as f64, "count"));
    metrics.push(Metric::new("shed_rate", shed_rate, "ratio"));

    report.print();
    report.write_csv("resource_governor");
    trajectory::write_metrics_json(
        "BENCH_governor.json",
        "resource_governor",
        smoke,
        &[("rows", values), ("queries", queries as u64)],
        &metrics,
    );

    // Acceptance gates (full-size runs only; smoke keeps the correctness
    // asserts above but skips timing ratios).
    if !smoke {
        assert!(
            clean_ratio <= 1.10,
            "governed clean-path p99 must stay within 1.10x of ungoverned, \
             measured {clean_ratio:.3}x"
        );
    }
    println!(
        "\nceiling held at {ceiling_ratio:.2}x of a 50% budget with \
         {} evictions; rehydrate p50 {rehydrate_p50:.1} us; clean-path \
         overhead {clean_ratio:.3}x; {sheds} typed sheds under storm",
        stats.evictions
    );
}

//! Seeded multi-threaded reader/writer stress test for the snapshot read
//! path.
//!
//! One writer thread commits *count-preserving* transactions through
//! `TxnManager` (a commit publishes exactly once) while N reader threads
//! hammer `TableReader` handles. Because every commit pairs one insert
//! with one delete (plus a count-neutral key update), a reader that pins
//! any *published* snapshot must count exactly the invariant number of
//! rows. Observing the invariant ±1 would mean a torn commit — a snapshot
//! published between the insert and the delete — which the
//! one-publish-per-commit protocol forbids.
//!
//! Parameterized by environment for the CI `stress` job:
//!
//! - `CASPER_STRESS_THREADS` — reader thread count (default 4)
//! - `CASPER_STRESS_SEEDS`   — comma-separated RNG seeds (default "1,2")
//! - `CASPER_STRESS_BATCHES` — writer commits per seed/mode (default 60)

use casper::engine::{ColumnSnapshot, EngineConfig, LayoutMode, QueryCtx, Table, TxnManager};
use casper::workload::{HapQuery, HapSchema};
use rand::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Base rows: even keys only, so every odd key is guaranteed absent and
/// the writer can mint fresh odd keys without colliding with the fixture.
const BASE_ROWS: usize = 4_000;
/// Odd keys pre-inserted before readers start; the count invariant is
/// `BASE_ROWS + EXTRA_KEYS` at every published snapshot.
const EXTRA_KEYS: usize = 8;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_seeds() -> Vec<u64> {
    std::env::var("CASPER_STRESS_SEEDS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2])
}

/// Row count of one pinned snapshot.
fn count_all(snap: &ColumnSnapshot) -> u64 {
    let q = HapQuery::Q2 {
        vs: 0,
        ve: u64::MAX,
    };
    let out = snap.read(&q, &QueryCtx::default()).expect("pinned count");
    out.result.scalar()
}

fn build_table(mode: LayoutMode) -> Table {
    let schema = HapSchema::narrow();
    let keys: Vec<u64> = (0..BASE_ROWS as u64).map(|i| i * 2).collect();
    let payload_cols: Vec<Vec<u32>> = (0..schema.payload_cols)
        .map(|c| {
            keys.iter()
                .map(|&k| (k as u32).wrapping_mul(c as u32 + 1))
                .collect()
        })
        .collect();
    let mut config = EngineConfig::small(mode);
    config.chunk_values = 512; // many chunks => cross-chunk commits
    Table::load(schema, keys, payload_cols, config)
}

/// Mint fresh odd keys above the base key range: unique by construction
/// and never present in the even-keyed fixture.
struct KeyMint(u64);

impl KeyMint {
    fn new() -> Self {
        Self(2 * BASE_ROWS as u64 + 1)
    }
    fn next(&mut self) -> u64 {
        let k = self.0;
        self.0 += 2;
        k
    }
}

/// Run one seeded stress round for one layout mode; panics (failing the
/// test) if any reader ever observes a row count other than the invariant.
fn stress_mode(mode: LayoutMode, seed: u64, readers: usize, commits: usize) {
    let mut table = build_table(mode);
    let schema = table.schema();
    let mut mint = KeyMint::new();
    let mut extras: VecDeque<u64> = VecDeque::new();

    // Pre-insert the floating odd keys serially, before any reader exists.
    for _ in 0..EXTRA_KEYS {
        let k = mint.next();
        table
            .execute(&HapQuery::Q4 {
                key: k,
                payload: schema.payload_row(k),
            })
            .expect("seed insert");
        extras.push_back(k);
    }
    let invariant = (BASE_ROWS + EXTRA_KEYS) as u64;

    let reader = table.reader();
    let stop = AtomicBool::new(false);
    let observations = AtomicU64::new(0);
    let mut rng = StdRng::seed_from_u64(seed);

    std::thread::scope(|scope| {
        for _ in 0..readers {
            let handle = reader.clone();
            let stop = &stop;
            let observations = &observations;
            scope.spawn(move || {
                let mut last_version = handle.version();
                while !stop.load(Ordering::Relaxed) {
                    // Each pin must see a fully published commit: the
                    // paired insert+delete keeps the count invariant.
                    let out = handle
                        .execute(&HapQuery::Q2 {
                            vs: 0,
                            ve: u64::MAX,
                        })
                        .expect("snapshot count");
                    assert_eq!(
                        out.result.scalar(),
                        invariant,
                        "reader observed a torn commit ({mode:?}, seed {seed})"
                    );
                    // A single pinned snapshot must be internally stable.
                    let snap = handle.pin();
                    let a = count_all(&snap);
                    let b = count_all(&snap);
                    assert_eq!(a, b, "pinned snapshot changed underneath a reader");
                    // Publish counter is monotone.
                    let v = handle.version();
                    assert!(v >= last_version, "publish version went backwards");
                    last_version = v;
                    observations.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Don't start writing until every reader has observed at least
        // one snapshot — otherwise a fast writer drains its commit budget
        // before the OS even schedules the reader threads and the test
        // exercises no actual concurrency.
        while observations.load(Ordering::Relaxed) < readers as u64 {
            std::thread::yield_now();
        }

        // Writer: every commit is count-neutral (one insert, one delete,
        // one key update), so only the never-published mid-commit states
        // violate the invariant.
        let txns = TxnManager::new();
        for _ in 0..commits {
            let fresh = mint.next();
            let doomed_idx: usize = rng.gen_range(0..extras.len());
            let doomed = extras.remove(doomed_idx).unwrap();
            let moved_idx: usize = rng.gen_range(0..extras.len());
            let moved_to = mint.next();
            let moved_from = extras[moved_idx];
            extras[moved_idx] = moved_to;
            extras.push_back(fresh);

            let mut txn = txns.begin();
            txns.buffer_insert(&mut txn, &mut table, fresh, schema.payload_row(fresh));
            txn.update(moved_from, moved_to);
            txn.delete(doomed);
            txns.commit(&txn, &mut table).expect("writer commit");
            let fresh_pin = table.reader().pin();
            for (key, want) in [(fresh, 1), (moved_to, 1), (moved_from, 0), (doomed, 0)] {
                let q = HapQuery::Q1 { v: key, k: 1 };
                let out = fresh_pin.read(&q, &QueryCtx::default()).expect("point");
                assert_eq!(out.result.scalar(), want, "key {key} after the commit");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers never got to observe a snapshot"
    );
    // The writer's own view agrees once the dust settles.
    let out = table
        .execute(&HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        })
        .expect("final count");
    assert_eq!(out.result.scalar(), invariant);
}

#[test]
fn readers_never_observe_torn_commits() {
    let readers = env_usize("CASPER_STRESS_THREADS", 4);
    let commits = env_usize("CASPER_STRESS_BATCHES", 60);
    for seed in env_seeds() {
        for mode in LayoutMode::all() {
            stress_mode(mode, seed, readers, commits);
        }
    }
}

/// Readers pinned *before* a write keep their pre-write view; a reader
/// handle re-pinned *after* the write sees it in full.
#[test]
fn pinned_snapshot_is_stable_while_writer_advances() {
    let mut table = build_table(LayoutMode::Casper);
    let schema = table.schema();
    let reader = table.reader();

    let before = reader.pin();
    let v0 = reader.version();
    let key = 2 * BASE_ROWS as u64 + 1; // odd: absent from the fixture
    table
        .execute(&HapQuery::Q4 {
            key,
            payload: schema.payload_row(key),
        })
        .expect("insert");

    // The old pin still answers from the pre-write world...
    assert_eq!(count_all(&before), BASE_ROWS as u64);
    let point = HapQuery::Q1 { v: key, k: 1 };
    let out = before.read(&point, &QueryCtx::default()).unwrap();
    assert_eq!(out.result.scalar(), 0, "old pin must not see the new row");

    // ...while a fresh pin sees the write, and the version ticked.
    let after = reader.pin();
    assert_eq!(count_all(&after), BASE_ROWS as u64 + 1);
    assert!(reader.version() > v0, "publish must tick the version");
}

// ---------------------------------------------------------------------------
// A re-layout is an ordinary write
// ---------------------------------------------------------------------------

use casper::engine::adapt::{AdaptConfig, AdaptDecision, AdaptiveController};
use casper::engine::optimize::{optimize_table, OptimizeOptions};
use casper::engine::TableReader;
use casper::persist::{DurableOptions, DurableTable};
use casper::workload::{Mix, MixKind};

const WHOLE_DOMAIN: HapQuery = HapQuery::Q2 {
    vs: 0,
    ve: u64::MAX,
};

fn reader_count(reader: &TableReader) -> u64 {
    let out = reader.execute(&WHOLE_DOMAIN).expect("reader count");
    out.result.scalar()
}

fn insert(key: u64) -> HapQuery {
    HapQuery::Q4 {
        key,
        payload: HapSchema::narrow().payload_row(key),
    }
}

/// Check the column's version counters against the last observation and
/// remember them: no chunk's counter ever decreases, and when a re-layout
/// changed the chunk count every new counter lies above every old one.
/// `rebuilt` additionally requires every counter to have moved (a re-layout
/// rewrites every chunk, so each must read as written-since).
fn assert_versions_forward(seen: &mut Vec<u64>, table: &Table, rebuilt: bool, what: &str) {
    let now = table.column().versions();
    if now.len() == seen.len() {
        let moved = |(n, s): (&u64, &u64)| if rebuilt { n > s } else { n >= s };
        assert!(
            now.iter().zip(seen.iter()).all(moved),
            "{what}: {seen:?} -> {now:?}"
        );
    } else {
        let top = seen.iter().max().expect("a column has chunks");
        assert!(now.iter().all(|n| n > top), "{what}: {seen:?} -> {now:?}");
    }
    *seen = now.to_vec();
}

/// A reader handed out before `optimize_table` keeps serving the table's
/// current state in all six source modes — the `NoOrder` conversion used
/// to replace the column and strand the reader on the pre-conversion
/// snapshot (4000 rows against the table's 4001) — and the column's version
/// counters only ever move forward, whatever the chunk count becomes,
/// across writes, ghost prefetches, transaction commits (a cross-chunk
/// update included), `optimize_table` and `maybe_reoptimize`.
#[test]
fn reader_and_version_counters_outlive_relayout_in_every_mode() {
    let schema = HapSchema::narrow();
    let mix = Mix::new(MixKind::HybridPointSkewed, schema, BASE_ROWS as u64);
    let sample = mix.generate(400, 5);
    for mode in LayoutMode::all() {
        let mut table = build_table(mode);
        let mut mint = KeyMint::new();
        let reader = table.reader();
        let mut seen = table.column().versions().to_vec();

        table.execute(&insert(mint.next())).expect("write");
        assert_versions_forward(&mut seen, &table, false, "single write");
        let txns = TxnManager::new();
        let mut txn = txns.begin();
        for key in [mint.next(), mint.next()] {
            txns.buffer_insert(&mut txn, &mut table, key, schema.payload_row(key));
        }
        assert_versions_forward(&mut seen, &table, false, "ghost prefetch");
        // Key 10 lives in the first chunk, the minted key in the last.
        txn.update(10, mint.next());
        txns.commit(&txn, &mut table).expect("commit");
        assert_versions_forward(&mut seen, &table, false, "txn commit");

        let v0 = reader.version();
        optimize_table(&mut table, &sample, &OptimizeOptions::default());
        assert_versions_forward(&mut seen, &table, true, "optimize_table");
        table
            .execute(&insert(mint.next()))
            .expect("write after optimize");
        let want = table.execute(&WHOLE_DOMAIN).expect("count").result.scalar();
        assert_eq!(want, BASE_ROWS as u64 + 4, "{mode:?}");
        assert_eq!(reader_count(&reader), want, "{mode:?}: reader left behind");
        assert!(reader.version() > v0, "{mode:?}: re-layout must publish");

        // A threshold of 1.0 re-partitions on any full-enough window.
        let mut ctl = AdaptiveController::new(AdaptConfig {
            window: 256,
            benefit_threshold: 1.0,
            ..AdaptConfig::default()
        });
        for q in mix.generate(256, 6).iter().filter(|q| q.is_read()) {
            ctl.observe(q);
        }
        let decision = ctl.maybe_reoptimize(&mut table);
        assert!(
            matches!(decision, AdaptDecision::Reoptimized { .. }),
            "{mode:?}: {decision:?}"
        );
        assert_versions_forward(&mut seen, &table, true, "maybe_reoptimize");
        assert_eq!(
            reader_count(&reader),
            want,
            "{mode:?}: after maybe_reoptimize"
        );
    }
}

/// The same property one layer up: `DurableTable::reader()` outlives
/// `DurableTable::optimize`.
#[test]
fn durable_reader_outlives_optimize_in_every_mode() {
    let mix = Mix::new(
        MixKind::HybridPointSkewed,
        HapSchema::narrow(),
        BASE_ROWS as u64,
    );
    let sample = mix.generate(400, 5);
    for mode in LayoutMode::all() {
        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("reader_outlives_optimize_{mode:?}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable =
            DurableTable::create_from_table(&dir, build_table(mode), DurableOptions::default())
                .expect("create");
        let reader = durable.reader();
        let v0 = reader.version();
        durable
            .optimize(&sample, &OptimizeOptions::default())
            .expect("optimize");
        durable
            .execute(&insert(KeyMint::new().next()))
            .expect("write after optimize");
        let want = durable.execute(&WHOLE_DOMAIN).expect("count");
        assert_eq!(want.result.scalar(), BASE_ROWS as u64 + 1, "{mode:?}");
        assert_eq!(reader_count(&reader), BASE_ROWS as u64 + 1, "{mode:?}");
        assert!(reader.version() > v0, "{mode:?}: re-layout must publish");
    }
}

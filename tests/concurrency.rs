//! Seeded multi-threaded reader/writer stress test for the snapshot read
//! path.
//!
//! One writer thread applies *count-preserving* write batches through the
//! chunk-parallel batch path (`Table::execute_batch` →
//! `apply_write_batch`, which publishes exactly once per batch) while N
//! reader threads hammer `TableReader` handles. Because every batch pairs
//! one insert with one delete (plus a count-neutral key update), a reader
//! that pins any *published* snapshot must count exactly the invariant
//! number of rows. Observing the invariant ±1 would mean a torn batch —
//! a snapshot published between the insert and the delete — which the
//! single-publish-per-batch protocol forbids.
//!
//! Parameterized by environment for the CI `concurrency-smoke` matrix:
//!
//! - `CASPER_STRESS_THREADS` — reader thread count (default 4)
//! - `CASPER_STRESS_SEEDS`   — comma-separated RNG seeds (default "1,2")
//! - `CASPER_STRESS_BATCHES` — write batches per seed/mode (default 60)

use casper::engine::{ColumnSnapshot, EngineConfig, LayoutMode, QueryCtx, Table};
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
    config.chunk_values = 512; // many chunks => cross-chunk batches
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
fn stress_mode(mode: LayoutMode, seed: u64, readers: usize, batches: usize) {
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
                    // Each pin must see a fully published batch: the
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
                        "reader observed a torn write batch ({mode:?}, seed {seed})"
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
        // one snapshot — otherwise a fast writer drains its batch budget
        // before the OS even schedules the reader threads and the test
        // exercises no actual concurrency.
        while observations.load(Ordering::Relaxed) < readers as u64 {
            std::thread::yield_now();
        }

        // Writer: every batch is count-neutral (one insert, one delete,
        // one key update), so only the never-published mid-batch states
        // violate the invariant.
        for _ in 0..batches {
            let fresh = mint.next();
            let doomed_idx: usize = rng.gen_range(0..extras.len());
            let doomed = extras.remove(doomed_idx).unwrap();
            let moved_idx: usize = rng.gen_range(0..extras.len());
            let moved_to = mint.next();
            let moved_from = extras[moved_idx];
            extras[moved_idx] = moved_to;
            extras.push_back(fresh);

            let batch = [
                HapQuery::Q4 {
                    key: fresh,
                    payload: schema.payload_row(fresh),
                },
                HapQuery::Q6 {
                    v: moved_from,
                    vnew: moved_to,
                },
                HapQuery::Q5 { v: doomed },
            ];
            let outs = table.execute_batch(&batch).expect("write batch");
            assert_eq!(outs[0].result.scalar(), 1, "insert applied");
            assert_eq!(outs[1].result.scalar(), 1, "update moved one row");
            assert_eq!(outs[2].result.scalar(), 1, "delete drained one row");
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
fn readers_never_observe_torn_batches() {
    let readers = env_usize("CASPER_STRESS_THREADS", 4);
    let batches = env_usize("CASPER_STRESS_BATCHES", 60);
    for seed in env_seeds() {
        for mode in LayoutMode::all() {
            stress_mode(mode, seed, readers, batches);
        }
    }
}

/// Readers pinned *before* a batch keep their pre-batch view; a reader
/// handle re-pinned *after* the batch sees it in full.
#[test]
fn pinned_snapshot_is_stable_while_writer_advances() {
    let mut table = build_table(LayoutMode::Casper);
    let schema = table.schema();
    let reader = table.reader();

    let before = reader.pin();
    let v0 = reader.version();
    let key = 2 * BASE_ROWS as u64 + 1; // odd: absent from the fixture
    table
        .execute_batch(&[HapQuery::Q4 {
            key,
            payload: schema.payload_row(key),
        }])
        .expect("insert batch");

    // The old pin still answers from the pre-batch world...
    assert_eq!(count_all(&before), BASE_ROWS as u64);
    let point = HapQuery::Q1 { v: key, k: 1 };
    let out = before.read(&point, &QueryCtx::default()).unwrap();
    assert_eq!(out.result.scalar(), 0, "old pin must not see the new row");

    // ...while a fresh pin sees the whole batch, and the version ticked.
    let after = reader.pin();
    assert_eq!(count_all(&after), BASE_ROWS as u64 + 1);
    assert!(reader.version() > v0, "publish must tick the version");
}

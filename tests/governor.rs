//! Resource-governor integration tests: memory-budgeted eviction with
//! bit-exact rehydration, deadline/cancellation mid-scan, load shedding
//! under admission control, and panic isolation — the four guarantees of
//! PR 9's serving-survival layer — plus the contract that makes them
//! cheap to reason about: `Table`, `TableReader` and `DurableTable` each
//! answer through one path, whether entered by `execute` or
//! `execute_with`.
//!
//! The concurrency stress follows the `tests/concurrency.rs` pattern and
//! is parameterized by environment for the CI `stress` job:
//!
//! - `CASPER_STRESS_THREADS` — reader thread count (default 4)
//! - `CASPER_STRESS_SEEDS`   — comma-separated RNG seeds (default "1,2")
//! - `CASPER_GOV_ROUNDS`     — governed queries per seed (default 150)

use casper::engine::{
    CancelToken, ColumnSnapshot, EngineConfig, Governor, GovernorConfig, GovernorStats, LayoutMode,
    QueryCtx, QueryOutput, QueryResult, Table, TxnManager,
};
use casper::persist::{DurableOptions, DurableTable};
use casper::storage::StorageError;
use casper::workload::{HapQuery, HapSchema};
use rand::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNK_VALUES: usize = 64;
const CHUNKS: usize = 8;
/// Even keys 0, 2, …: odd keys are guaranteed absent, so tests can mint
/// fresh keys without colliding with the fixture.
const ROWS: u64 = (CHUNK_VALUES * CHUNKS) as u64;

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

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> HapSchema {
    HapSchema { payload_cols: 2 }
}

fn payload_row(key: u64) -> Vec<u32> {
    vec![(key % 251) as u32, (key % 83) as u32]
}

fn seed_table() -> Table {
    seed_table_in(LayoutMode::Casper)
}

fn seed_table_in(mode: LayoutMode) -> Table {
    let mut config = EngineConfig::small(mode);
    config.chunk_values = CHUNK_VALUES;
    config.threads = 1;
    let keys: Vec<u64> = (0..ROWS).map(|i| i * 2).collect();
    let cols: Vec<Vec<u32>> = (0..2)
        .map(|c| keys.iter().map(|&k| payload_row(k)[c]).collect())
        .collect();
    Table::load(schema(), keys, cols, config)
}

fn point(key: u64) -> HapQuery {
    HapQuery::Q1 { v: key, k: 2 }
}

fn count_all() -> HapQuery {
    HapQuery::Q2 {
        vs: 0,
        ve: u64::MAX,
    }
}

/// Row count of one pinned snapshot.
fn pinned_count(snap: &ColumnSnapshot) -> u64 {
    let out = snap.read(&count_all(), &QueryCtx::default());
    out.expect("pinned count").result.scalar()
}

fn expect_rows(out: &QueryOutput, key: u64) {
    match &out.result {
        QueryResult::Rows(rows) => {
            assert_eq!(rows.len(), 1, "key {key} must resolve to one row");
            assert_eq!(rows[0], payload_row(key), "payload mismatch for key {key}");
        }
        other => panic!("expected rows for key {key}, got {other:?}"),
    }
}

/// Create a durable table at `dir`, drop it, and return the fully
/// hydrated working-set size in bytes (the budget baseline).
fn persist_fixture(dir: &std::path::Path) -> usize {
    {
        let t = DurableTable::create_from_table(dir, seed_table(), DurableOptions::default())
            .expect("create");
        drop(t);
    }
    let mut probe = DurableTable::open(dir, DurableOptions::default()).expect("probe open");
    probe.hydrate_all().expect("probe hydrate");
    let working_set = probe.resident_bytes();
    assert!(
        working_set > 0,
        "hydrated table must account resident bytes"
    );
    working_set
}

/// Sweep every key with governed point reads (`rounds` of them, each
/// checked bit-exact) on `dir` opened under `gov_cfg`; returns the peak
/// accounted resident bytes and the governor's final stats.
fn governed_sweep(
    dir: &std::path::Path,
    gov_cfg: GovernorConfig,
    rounds: usize,
) -> (usize, GovernorStats) {
    let mut opts = DurableOptions::default();
    opts.governor = Some(gov_cfg);
    let mut t = DurableTable::open(dir, opts).expect("governed open");

    let ctx = QueryCtx::unbounded();
    let mut max_resident = 0usize;
    for i in 0..rounds {
        let key = (i as u64 % ROWS) * 2;
        let out = t.execute_with(&point(key), &ctx).expect("point read");
        expect_rows(&out, key);
        max_resident = max_resident.max(t.resident_bytes());
    }
    let out = t.execute_with(&count_all(), &ctx).expect("count");
    assert_eq!(out.result.scalar(), ROWS, "no rows lost to eviction");
    let stats = t.governor_stats().expect("governor configured");
    assert_eq!(stats.resident_bytes as usize, t.resident_bytes());
    (max_resident, stats)
}

/// Tentpole acceptance: with a budget at ~50% of the working set, a full
/// key sweep (which hydrates every chunk at least once) keeps accounted
/// resident bytes at or under the budget after every governed query, all
/// point reads return bit-exact payloads, and both eviction and
/// rehydration actually happened. The same sweep under a roomy governor
/// (twice the working set, 64 slots) is governed but never binds: it
/// sheds nothing, evicts nothing and rehydrates nothing.
#[test]
fn memory_budget_holds_with_bit_exact_rehydration() {
    let dir = test_dir("gov_budget");
    let working_set = persist_fixture(&dir);
    let budget = working_set / 2;
    let rounds = env_usize("CASPER_GOV_ROUNDS", 150).max(2 * ROWS as usize);

    let mut gov_cfg = GovernorConfig::default();
    gov_cfg.memory_budget_bytes = budget;
    gov_cfg.check_interval = 1; // account after every query: tightest gate
    let (max_resident, stats) = governed_sweep(&dir, gov_cfg, rounds);
    assert!(
        max_resident <= budget,
        "resident ceiling violated: {max_resident} > budget {budget}"
    );
    assert!(stats.evictions > 0, "budget at 50% must force evictions");
    assert!(
        stats.rehydrations > 0,
        "sweeping all keys must rehydrate evicted chunks"
    );

    let mut roomy = GovernorConfig::default();
    roomy.memory_budget_bytes = 2 * working_set;
    roomy.query_slots = 64;
    roomy.check_interval = 1;
    let (max_resident, stats) = governed_sweep(&dir, roomy, rounds);
    assert_eq!(max_resident, working_set, "the sweep hydrates every chunk");
    assert_eq!(stats.shed, 0, "a roomy gate must never shed");
    assert_eq!(stats.evictions, 0, "a roomy budget must never evict");
    assert_eq!(stats.rehydrations, 0, "nothing evicted, nothing rehydrated");
    assert_eq!(stats.admitted, rounds as u64 + 1, "every query admitted");
}

/// The victim order is recent access mass (accesses since the previous
/// budget check), then chunk index: on a key-order sweep the chunk being
/// read has mass and the chunks behind it none, so the sweep never evicts
/// the chunk it is reading, and each pass rehydrates each chunk at most
/// once. (A lifetime count would instead evict the chunk the sweep just
/// entered, the one with the fewest reads so far.)
#[test]
fn a_sweep_never_evicts_the_chunk_it_is_reading() {
    let dir = test_dir("gov_sweep_order");
    let working_set = persist_fixture(&dir);
    let mut gov_cfg = GovernorConfig::default();
    gov_cfg.memory_budget_bytes = working_set / 2;
    gov_cfg.check_interval = 1;
    let mut opts = DurableOptions::default();
    opts.governor = Some(gov_cfg);
    let mut t = DurableTable::open(&dir, opts).expect("governed open");

    let passes = 2;
    let ctx = QueryCtx::unbounded();
    for _ in 0..passes {
        for key in (0..ROWS).map(|i| i * 2) {
            let out = t.execute_with(&point(key), &ctx).expect("point read");
            expect_rows(&out, key);
            let chunk = t.table().column().route_for(key).expect("ordered");
            let slot = &t.table().column().chunks()[chunk];
            assert!(
                slot.is_hydrated(),
                "key {key}: chunk {chunk} evicted mid-read"
            );
        }
    }
    let stats = t.governor_stats().expect("governor configured");
    assert!(stats.evictions > 0, "budget at 50% must force evictions");
    assert!(
        stats.rehydrations <= (CHUNKS * passes) as u64,
        "{} rehydrations over {passes} passes of {CHUNKS} chunks",
        stats.rehydrations
    );
}

/// Eviction-vs-pinned-snapshot stress: reader threads pin published
/// snapshots and must observe the exact row-count invariant while the
/// owner thread drives hydration/eviction churn with governed point reads
/// and count-neutral key moves. Seeded and env-tunable like
/// `tests/concurrency.rs`.
#[test]
fn eviction_respects_pinned_snapshots_under_concurrency() {
    let readers = env_usize("CASPER_STRESS_THREADS", 4);
    let rounds = env_usize("CASPER_GOV_ROUNDS", 150);
    for seed in env_seeds() {
        stress_round(seed, readers, rounds);
    }
}

fn stress_round(seed: u64, readers: usize, rounds: usize) {
    const EXTRA_KEYS: usize = 8;
    let dir = test_dir(&format!("gov_stress_{seed}"));
    let working_set = persist_fixture(&dir);

    let mut gov_cfg = GovernorConfig::default();
    gov_cfg.memory_budget_bytes = working_set / 2;
    gov_cfg.check_interval = 4;
    let mut opts = DurableOptions::default();
    opts.governor = Some(gov_cfg);
    let mut t = DurableTable::open(&dir, opts).expect("governed open");

    // Float EXTRA odd keys, then checkpoint so every chunk is clean again
    // (eviction needs clean, persisted candidates to work against).
    let mut next_key = 2 * ROWS + 1;
    let mut extras: Vec<u64> = Vec::new();
    for _ in 0..EXTRA_KEYS {
        let k = next_key;
        next_key += 2;
        t.execute(&HapQuery::Q4 {
            key: k,
            payload: payload_row(k),
        })
        .expect("seed extra");
        extras.push(k);
    }
    t.checkpoint().expect("post-seed checkpoint");
    let invariant = ROWS + EXTRA_KEYS as u64;

    let reader = t.reader();
    let stop = AtomicBool::new(false);
    let observations = AtomicU64::new(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let ctx = QueryCtx::unbounded();

    std::thread::scope(|scope| {
        for _ in 0..readers {
            let handle = reader.clone();
            let stop = &stop;
            let observations = &observations;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let out = handle.execute(&count_all()).expect("snapshot count");
                    assert_eq!(
                        out.result.scalar(),
                        invariant,
                        "reader observed a torn state during eviction (seed {seed})"
                    );
                    // A pinned snapshot must stay internally stable even
                    // while the governor evicts underneath it.
                    let snap = handle.pin();
                    assert_eq!(
                        pinned_count(&snap),
                        pinned_count(&snap),
                        "pinned snapshot changed underneath a reader"
                    );
                    observations.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        while observations.load(Ordering::Relaxed) < readers as u64 {
            std::thread::yield_now();
        }

        for round in 0..rounds {
            // Governed point reads sweep the key space, hydrating evicted
            // chunks and pushing residency against the budget.
            let key = (rng.gen_range(0..ROWS)) * 2;
            let out = t.execute_with(&point(key), &ctx).expect("point read");
            expect_rows(&out, key);
            // Every few rounds, a count-neutral move dirties a chunk so
            // the governor's checkpoint-then-evict ladder gets exercised.
            if round % 8 == 0 {
                let idx = rng.gen_range(0..extras.len());
                let to = next_key;
                next_key += 2;
                let from = extras[idx];
                extras[idx] = to;
                let out = t
                    .execute_with(&HapQuery::Q6 { v: from, vnew: to }, &ctx)
                    .expect("key move");
                assert_eq!(out.result.scalar(), 1, "move must touch one row");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(observations.load(Ordering::Relaxed) > 0);
    let out = t.execute(&count_all()).expect("final count");
    assert_eq!(out.result.scalar(), invariant);
    let stats = t.governor_stats().expect("governor configured");
    assert!(
        stats.evictions > 0,
        "a 50% budget must evict during the sweep (seed {seed})"
    );
}

/// A hydrated seed table whose chunk 1 is demoted to a lazy slot that
/// takes 30ms to hydrate — far past a 10ms deadline, so a full scan is
/// *guaranteed* to observe expiry at a chunk boundary rather than at
/// dispatch.
fn slow_chunk_table() -> Table {
    let mut table = seed_table();
    table.hydrate_all().expect("hydrate");
    let store = table.column().chunks()[1]
        .get()
        .expect("hydrated chunk")
        .clone();
    let slow = Box::new(move || {
        std::thread::sleep(Duration::from_millis(30));
        Ok(store.clone())
    });
    assert!(table.column_mut().evict_chunk(1, slow), "chunk 1 evictable");
    table.column().publish();
    table
}

/// One row of the failure × surface table below: every surface that can
/// hit `failure` reports it as an error `want` accepts — one
/// `StorageError` variant, with nothing remapping it on the way out.
fn assert_one_error(
    failure: &str,
    want: fn(&StorageError) -> bool,
    surfaces: Vec<(&str, Option<StorageError>)>,
) {
    for (surface, err) in surfaces {
        match err {
            Some(e) if want(&e) => {}
            other => panic!("{failure} on {surface}: got {other:?}"),
        }
    }
}

/// One failure, one error, every surface: deadline and cancel, a corrupt
/// lazily loaded chunk, a wrong-arity Q4, a write on a reader, a held
/// governor slot and a transaction conflict each reach the caller as the
/// same `StorageError` variant from every surface that can hit them —
/// `Table`, `TableReader` and `DurableTable` `execute_with` and
/// `multi_column_sum`, `TxnManager::commit` and `DurableTable::commit_txn`.
/// Interrupts poison nothing: the next unbounded query on each surface is
/// exact. `Table` and `TableReader` are interrupted mid-scan over the slow
/// chunk; `DurableTable` owns its chunks, so there the deadline has
/// already expired at the first chunk boundary.
#[test]
fn interrupts_surface_typed_on_every_surface_without_poisoning() {
    let mid_scan = || QueryCtx::unbounded().with_timeout(Duration::from_millis(10));
    let expired = QueryCtx::unbounded().with_timeout(Duration::ZERO);
    let cancelled = {
        let token = CancelToken::new();
        token.cancel();
        QueryCtx::unbounded().with_cancel(token)
    };
    let mut table = slow_chunk_table();
    let slow = slow_chunk_table();
    let reader = slow.reader();
    let governed = GovernorConfig {
        query_slots: 1,
        admit_wait_ms: 1,
        write_wait_ms: 1,
        ..GovernorConfig::default()
    };
    let opts = DurableOptions {
        governor: Some(governed),
        ..DurableOptions::default()
    };
    let mut durable =
        DurableTable::create_from_table(&test_dir("gov_interrupts"), seed_table(), opts)
            .expect("create");

    let q = count_all();
    assert_one_error(
        "deadline",
        |e| matches!(e, StorageError::DeadlineExceeded),
        vec![
            ("Table", table.execute_with(&q, &mid_scan()).err()),
            ("TableReader", reader.execute_with(&q, &mid_scan()).err()),
            ("DurableTable", durable.execute_with(&q, &expired).err()),
        ],
    );
    assert_one_error(
        "cancel",
        |e| matches!(e, StorageError::Cancelled),
        vec![
            ("Table", table.execute_with(&q, &cancelled).err()),
            ("TableReader", reader.execute_with(&q, &cancelled).err()),
            ("DurableTable", durable.execute_with(&q, &cancelled).err()),
        ],
    );
    for out in [table.execute(&q), reader.execute(&q), durable.execute(&q)] {
        assert_eq!(out.expect("post-interrupt count").result.scalar(), ROWS);
    }

    // Chunk 5 (keys 640..768) of an in-memory table fails its lazy load;
    // on disk, one damaged record of a reopened durable table does.
    let mut corrupt = seed_table();
    corrupt.column_mut().repoint_chunk(
        5,
        CHUNK_VALUES,
        Box::new(|| Err(StorageError::corrupt("checksum mismatch (injected)"))),
    );
    corrupt.column().publish();
    let corrupt_reader = corrupt.reader();
    let dir = test_dir("gov_every_surface_corrupt");
    drop(DurableTable::create_from_table(
        &dir,
        seed_table(),
        DurableOptions::default(),
    ));
    let seg = dir.join("seg-000001.casper");
    let mut bytes = std::fs::read(&seg).expect("segment");
    let mid = 16 + (bytes.len() - 16) / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&seg, &bytes).expect("damage");
    let mut damaged = DurableTable::open(&dir, DurableOptions::default()).expect("lazy open");
    let mgr = TxnManager::new();
    let delete_in_every_chunk = || {
        let mut txn = mgr.begin();
        (0..CHUNKS as u64).for_each(|c| txn.delete(2 * c * CHUNK_VALUES as u64));
        txn
    };
    assert_one_error(
        "corrupt chunk",
        |e| matches!(e, StorageError::Corrupt { .. }),
        vec![
            ("Table", corrupt.execute(&q).err()),
            ("TableReader", corrupt_reader.execute(&q).err()),
            (
                "Table::multi_column_sum",
                corrupt
                    .multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)
                    .err(),
            ),
            (
                "TableReader::multi_column_sum",
                corrupt_reader
                    .multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)
                    .err(),
            ),
            (
                "TxnManager::commit",
                mgr.commit(&delete_in_every_chunk(), &mut corrupt).err(),
            ),
            ("DurableTable", damaged.execute(&q).err()),
            (
                "DurableTable::multi_column_sum",
                damaged
                    .multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)
                    .err(),
            ),
            (
                "DurableTable::commit_txn",
                damaged.commit_txn(&mgr, delete_in_every_chunk()).err(),
            ),
        ],
    );

    // The narrow fixture stores two payload columns; this row has one.
    // `buffer_insert` prefetches ghosts into the table it is given, so the
    // durable transaction borrows a scratch table for that.
    let bad_row = HapQuery::Q4 {
        key: 131,
        payload: vec![7],
    };
    let bad_txn = |table: &mut Table| {
        let mut txn = mgr.begin();
        mgr.buffer_insert(&mut txn, table, 131, vec![7]);
        txn
    };
    let mut plain = seed_table();
    let durable_txn = bad_txn(&mut seed_table());
    assert_one_error(
        "wrong-arity Q4",
        |e| {
            matches!(
                e,
                StorageError::PayloadArity {
                    expected: 2,
                    got: 1
                }
            )
        },
        vec![
            ("Table", plain.execute(&bad_row).err()),
            ("DurableTable", durable.execute(&bad_row).err()),
            (
                "TxnManager::commit",
                mgr.commit(&bad_txn(&mut plain), &mut plain).err(),
            ),
            (
                "DurableTable::commit_txn",
                durable.commit_txn(&mgr, durable_txn).err(),
            ),
        ],
    );

    assert_one_error(
        "write on a reader",
        |e| matches!(e, StorageError::InvalidSpec { .. }),
        vec![
            ("TableReader", plain.reader().execute(&bad_row).err()),
            (
                "DurableTable::reader",
                durable.reader().execute(&HapQuery::Q5 { v: 2 }).err(),
            ),
        ],
    );

    let gov = Arc::clone(durable.governor().expect("governed"));
    let shared = plain.reader().with_governor(Arc::clone(&gov));
    let permit = gov.admit(false).expect("the only slot");
    assert_one_error(
        "held governor slot",
        |e| matches!(e, StorageError::Overloaded { .. }),
        vec![
            ("TableReader", shared.execute(&q).err()),
            (
                "TableReader::multi_column_sum",
                shared
                    .multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)
                    .err(),
            ),
            ("DurableTable read", durable.execute(&q).err()),
            (
                "DurableTable write",
                durable.execute(&HapQuery::Q5 { v: 2 }).err(),
            ),
            (
                "DurableTable::multi_column_sum",
                durable
                    .multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)
                    .err(),
            ),
        ],
    );
    drop(permit);

    let update = |mgr: &TxnManager| {
        let mut txn = mgr.begin();
        txn.update(2, 3);
        txn
    };
    let (mgr, durable_mgr) = (TxnManager::new(), TxnManager::new());
    let (loser, durable_loser) = (update(&mgr), update(&durable_mgr));
    mgr.commit(&update(&mgr), &mut plain).expect("winner");
    durable
        .commit_txn(&durable_mgr, update(&durable_mgr))
        .expect("durable winner");
    assert_one_error(
        "transaction conflict",
        |e| matches!(e, StorageError::Conflict { key: 2 }),
        vec![
            ("TxnManager::commit", mgr.commit(&loser, &mut plain).err()),
            (
                "DurableTable::commit_txn",
                durable.commit_txn(&durable_mgr, durable_loser).err(),
            ),
        ],
    );
}

/// A wrong-arity Q4 is refused in every layout mode, before any store
/// sees the row: each returns the typed error and keeps serving (the rows
/// around it, the refused key's absence, a correct insert of that key).
/// A durable table over a delta store stages nothing for it, so nothing
/// replays on reopen.
#[test]
fn wrong_arity_insert_is_refused_in_every_layout_mode() {
    let bad_row = HapQuery::Q4 {
        key: 131,
        payload: vec![7],
    };
    let good_row = HapQuery::Q4 {
        key: 131,
        payload: payload_row(131),
    };
    let arity = |e: &StorageError| {
        matches!(
            e,
            StorageError::PayloadArity {
                expected: 2,
                got: 1
            }
        )
    };
    for mode in LayoutMode::all() {
        let mut table = seed_table_in(mode);
        assert_one_error(
            "wrong-arity Q4",
            arity,
            vec![(mode.label(), table.execute(&bad_row).err())],
        );
        let out = table
            .execute(&point(131))
            .expect("a probe of the refused key");
        assert_eq!(out.result, QueryResult::Rows(Vec::new()), "{mode:?}");
        expect_rows(&table.execute(&point(130)).expect("a neighbor"), 130);
        table.execute(&good_row).expect("a correct insert");
        expect_rows(&table.execute(&point(131)).expect("the inserted row"), 131);
        let count = table.execute(&count_all()).expect("count").result.scalar();
        assert_eq!(count, ROWS + 1, "{mode:?}");
    }

    let dir = test_dir("gov_wrong_arity_delta");
    let mut opts = DurableOptions::default();
    opts.group_commit = 8; // keep staged writes unsealed
    let mut durable =
        DurableTable::create_from_table(&dir, seed_table_in(LayoutMode::StateOfArt), opts)
            .expect("create");
    assert_one_error(
        "wrong-arity Q4",
        arity,
        vec![("DurableTable", durable.execute(&bad_row).err())],
    );
    assert_eq!(durable.stats().staged_records, 0);
    durable.execute(&good_row).expect("a correct insert");
    assert_eq!(durable.stats().staged_records, 1);
    durable.flush().expect("seal");
    drop(durable);
    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("reopen");
    expect_rows(&reopened.execute(&point(131)).expect("replayed"), 131);
    assert_eq!(reopened.len(), ROWS as usize + 1);
}

/// `multi_column_sum` over an attribute past the payload's width is
/// `InvalidSpec` on every surface, as the predicate or as a summed
/// attribute; a governor counts no panic for it.
#[test]
fn multi_column_sum_refuses_attributes_past_the_payload() {
    let opts = DurableOptions {
        governor: Some(GovernorConfig::default()),
        ..DurableOptions::default()
    };
    let durable = DurableTable::create_from_table(&test_dir("gov_sum_attrs"), seed_table(), opts)
        .expect("create");
    let gov = Arc::clone(durable.governor().expect("governed"));
    let table = seed_table();
    let reader = table.reader().with_governor(Arc::clone(&gov));
    for (sum_cols, pred_col) in [(&[0usize, 1][..], 2usize), (&[2][..], 0), (&[1, 99][..], 1)] {
        let (lo, hi) = (0, u64::MAX);
        assert_one_error(
            "out-of-range attribute",
            |e| matches!(e, StorageError::InvalidSpec { .. }),
            vec![
                (
                    "Table",
                    table
                        .multi_column_sum(lo, hi, sum_cols, pred_col, 0, u32::MAX)
                        .err(),
                ),
                (
                    "TableReader",
                    reader
                        .multi_column_sum(lo, hi, sum_cols, pred_col, 0, u32::MAX)
                        .err(),
                ),
                (
                    "DurableTable",
                    durable
                        .multi_column_sum(lo, hi, sum_cols, pred_col, 0, u32::MAX)
                        .err(),
                ),
            ],
        );
    }
    assert_eq!(gov.stats().panics, 0);
    let all = table.multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX);
    assert!(all.is_ok(), "in-range attributes still sum: {all:?}");
}

/// A write is checked before dispatch: an already-expired deadline on a
/// Q4 applies nothing and stages nothing.
#[test]
fn expired_deadline_on_a_durable_write_applies_and_stages_nothing() {
    let dir = test_dir("gov_expired_write");
    let mut opts = DurableOptions::default();
    opts.group_commit = 8; // keep the first insert staged, unsealed
    let mut t = DurableTable::create_from_table(&dir, seed_table(), opts).expect("create");
    let insert = |key: u64| HapQuery::Q4 {
        key,
        payload: payload_row(key),
    };
    t.execute(&insert(131)).expect("staged insert");
    let before = (t.len(), t.stats().staged_records);
    assert_eq!(before, (ROWS as usize + 1, 1));

    let expired = QueryCtx::unbounded().with_timeout(Duration::ZERO);
    let err = t.execute_with(&insert(133), &expired).expect_err("expired");
    assert!(matches!(err, StorageError::DeadlineExceeded), "got {err}");
    assert_eq!((t.len(), t.stats().staged_records), before);
    let out = t.execute(&point(133)).expect("probe");
    assert_eq!(
        out.result.scalar(),
        0,
        "the interrupted insert never applied"
    );
}

/// One Q1–Q6 stream over the fixture's key space, cross-chunk Q6 moves
/// included. Odd keys are minted by Q4 and consumed by Q5/Q6.
fn mixed_stream(seed: u64, len: usize) -> Vec<HapQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut minted: Vec<u64> = Vec::new();
    let mut next_odd = 1u64;
    (0..len)
        .map(|_| {
            let even = rng.gen_range(0..ROWS) * 2;
            match rng.gen_range(0..6) {
                0 => point(even),
                1 => HapQuery::Q2 {
                    vs: even,
                    ve: even + rng.gen_range(1..400u64),
                },
                2 => HapQuery::Q3 {
                    vs: even,
                    ve: even + rng.gen_range(1..400u64),
                    k: 2,
                },
                3 => {
                    let key = next_odd;
                    next_odd += 2 * rng.gen_range(1..40u64);
                    minted.push(key);
                    HapQuery::Q4 {
                        key,
                        payload: payload_row(key),
                    }
                }
                4 if !minted.is_empty() => HapQuery::Q5 {
                    v: minted.swap_remove(rng.gen_range(0..minted.len())),
                },
                _ if !minted.is_empty() => {
                    let i = rng.gen_range(0..minted.len());
                    let v = minted[i];
                    // Far enough to hop chunks most of the time; odd plus
                    // even stays odd, also modulo the even bound.
                    minted[i] = (v + 2 * rng.gen_range(1..300u64)) % (4 * ROWS);
                    HapQuery::Q6 { v, vnew: minted[i] }
                }
                _ => point(even),
            }
        })
        .collect()
}

/// Surface equivalence: in every layout mode, one generated stream gives
/// the same `QueryResult` *and* the same `OpCost` on `Table`,
/// `DurableTable` and — for the reads — `TableReader`, whether entered
/// through `execute(q)` or `execute_with(q, ctx)` with a deadline that
/// never fires.
#[test]
fn every_surface_and_entry_point_agrees_on_result_and_cost() {
    let far = QueryCtx::unbounded().with_deadline(Instant::now() + Duration::from_secs(3600));
    let stream = mixed_stream(7, 400);
    for kind in 0..6 {
        assert!(
            stream.iter().any(|q| q.index() == kind),
            "Q{} absent",
            kind + 1
        );
    }
    for mode in LayoutMode::all() {
        let mut plain = seed_table_in(mode);
        let mut with_ctx = seed_table_in(mode);
        let (reader, reader_ctx) = (plain.reader(), with_ctx.reader());
        let dir = |name: &str| test_dir(&format!("gov_equiv_{mode:?}_{name}"));
        let opts = DurableOptions::default;
        let mut durable =
            DurableTable::create_from_table(&dir("plain"), seed_table_in(mode), opts())
                .expect("create");
        let mut durable_ctx =
            DurableTable::create_from_table(&dir("ctx"), seed_table_in(mode), opts())
                .expect("create");
        for (i, q) in stream.iter().enumerate() {
            let want = plain.execute(q).expect("Table::execute");
            let mut got = vec![
                with_ctx.execute_with(q, &far).expect("Table::execute_with"),
                durable.execute(q).expect("DurableTable::execute"),
                durable_ctx
                    .execute_with(q, &far)
                    .expect("DurableTable::execute_with"),
            ];
            if q.is_read() {
                got.push(reader.execute(q).expect("TableReader::execute"));
                got.push(
                    reader_ctx
                        .execute_with(q, &far)
                        .expect("TableReader::execute_with"),
                );
            }
            for (surface, out) in got.iter().enumerate() {
                assert_eq!(
                    (&out.result, out.cost),
                    (&want.result, want.cost),
                    "{mode:?} query {i} {q:?} diverges on surface {surface}"
                );
            }
        }
        assert_eq!(plain.len(), durable_ctx.len(), "{mode:?} final row count");
    }
}

/// A cross-chunk Q6 hydrates its *target* chunk before the row leaves the
/// source: when the target's persisted record is corrupt the update fails
/// typed and the source row — key and payload — is still there.
#[test]
fn cross_chunk_update_into_a_corrupt_chunk_keeps_the_source_row() {
    let ordered = LayoutMode::all()
        .into_iter()
        .filter(|&m| m != LayoutMode::NoOrder);
    for mode in ordered {
        let mut table = seed_table_in(mode);
        table.column_mut().repoint_chunk(
            5,
            CHUNK_VALUES,
            Box::new(|| {
                Err(StorageError::Corrupt {
                    reason: "checksum mismatch (injected)".to_string(),
                })
            }),
        );
        // Key 2 lives in chunk 0; 701 routes to chunk 5 (keys 640..768).
        let err = table
            .execute(&HapQuery::Q6 { v: 2, vnew: 701 })
            .expect_err("corrupt target");
        assert!(
            matches!(err, StorageError::Corrupt { ref reason } if reason.contains("injected")),
            "{mode:?}: got {err}"
        );
        let out = table.execute(&point(2)).expect("source chunk still serves");
        expect_rows(&out, 2);
        assert_eq!(table.len(), ROWS as usize, "{mode:?} row count conserved");
    }
}

/// Admission control sheds with a typed `Overloaded` error when the slot
/// gate is saturated, both from a directly held permit and under a
/// many-threads storm; a post-storm query is exact.
#[test]
fn overload_sheds_with_typed_error() {
    let table = seed_table();
    table.hydrate_all().expect("hydrate");
    let gov = Arc::new(Governor::new(GovernorConfig {
        query_slots: 1,
        admit_wait_ms: 1,
        ..GovernorConfig::default()
    }));
    let reader = table.reader().with_governor(Arc::clone(&gov));
    let ctx = QueryCtx::unbounded();

    // Deterministic shed: the only slot is held.
    let permit = gov.admit(false).expect("slot");
    let err = reader
        .execute_with(&count_all(), &ctx)
        .expect_err("full gate");
    assert!(matches!(err, StorageError::Overloaded { .. }), "got {err}");

    // Storm while the slot stays held: every query from every thread must
    // come back as a typed shed — never a panic, never a wrong result.
    let sheds = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let handle = reader.clone();
            let ctx = QueryCtx::unbounded();
            let sheds = &sheds;
            scope.spawn(move || {
                for _ in 0..25 {
                    match handle.execute_with(&count_all(), &ctx) {
                        Err(StorageError::Overloaded { waited_ms }) => {
                            assert!(waited_ms >= 1, "shed must report its wait");
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => panic!("admitted through a held slot"),
                        Err(other) => panic!("unexpected governed error: {other}"),
                    }
                }
            });
        }
    });
    assert_eq!(sheds.load(Ordering::Relaxed), 8 * 25);
    assert_eq!(gov.stats().shed, 8 * 25 + 1);

    // The storm passes, the permit drops, service resumes exactly.
    drop(permit);
    let out = reader.execute_with(&count_all(), &ctx).expect("slot freed");
    assert_eq!(out.result.scalar(), ROWS);
}

/// `multi_column_sum` is a query like any other: on a governed
/// `TableReader` or `DurableTable` it goes through the slot gate — shed
/// typed while the only slot is held, counted in `GovernorStats.shed` —
/// and with the slot free, or with no governor at all, it answers exactly
/// what the ungoverned `Table` does.
#[test]
fn multi_column_sum_is_governed_on_governed_surfaces() {
    let opts = DurableOptions {
        governor: Some(GovernorConfig {
            query_slots: 1,
            admit_wait_ms: 1,
            ..GovernorConfig::default()
        }),
        ..DurableOptions::default()
    };
    let durable = DurableTable::create_from_table(&test_dir("gov_multi_sum"), seed_table(), opts)
        .expect("create");
    let gov = Arc::clone(durable.governor().expect("governed"));
    let table = seed_table();
    let reader = table.reader().with_governor(Arc::clone(&gov));
    let sum = |r: Result<QueryOutput, StorageError>| r.expect("slot free").result;
    let want = sum(table.multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX));
    assert_eq!(
        sum(table
            .reader()
            .multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)),
        want
    );
    assert_eq!(
        sum(reader.multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)),
        want
    );
    assert_eq!(
        sum(durable.multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX)),
        want
    );

    let permit = gov.admit(false).expect("the only slot");
    let shed = gov.stats().shed;
    for err in [
        reader.multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX),
        durable.multi_column_sum(0, u64::MAX, &[0, 1], 1, 0, u32::MAX),
    ] {
        assert!(
            matches!(err, Err(StorageError::Overloaded { .. })),
            "a held slot must shed, got {err:?}"
        );
    }
    assert_eq!(gov.stats().shed, shed + 2);
    drop(permit);
}

/// Reader-level panic isolation: a chunk whose loader panics takes down
/// neither the process nor its neighbors — the error is typed (a snapshot
/// read names no chunk; attribution is the durable tests' subject below)
/// and every other chunk keeps serving.
#[test]
fn panic_is_isolated_from_the_serving_loop() {
    let mut table = seed_table();
    table.hydrate_all().expect("hydrate");
    table
        .column_mut()
        .repoint_chunk(1, CHUNK_VALUES, Box::new(|| panic!("injected chunk fault")));
    table.column().publish();

    let gov = Arc::new(Governor::new(GovernorConfig::default()));
    let reader = table.reader().with_governor(Arc::clone(&gov));
    // Key 130 routes to chunk 1 (keys 128..256 with 64-key chunks).
    let err = reader.execute(&point(130)).expect_err("chunk 1 panics");
    match err {
        StorageError::Panicked { chunk, ref detail } => {
            assert_eq!(chunk, None, "snapshot reads attribute no chunk");
            assert!(detail.contains("injected"), "payload preserved: {detail}");
        }
        other => panic!("expected Panicked, got {other}"),
    }
    // The serving loop survives: chunk 0 answers exactly.
    let out = reader.execute(&point(2)).expect("chunk 0");
    expect_rows(&out, 2);
    assert_eq!(gov.stats().panics, 1);
}

/// Durable-level containment, clean chunk: the panic heals — the chunk
/// re-points at its durable record and the *next* read rehydrates
/// bit-exact. No quarantine, no degraded mode, zero wrong results.
#[test]
fn durable_panic_on_clean_chunk_heals_from_record() {
    let dir = test_dir("gov_panic_clean");
    let mut opts = DurableOptions::default();
    opts.governor = Some(GovernorConfig::default());
    let mut t = DurableTable::create_from_table(&dir, seed_table(), opts).expect("create");
    let ctx = QueryCtx::unbounded();

    t.inject_chunk_panic(1);
    let err = t.execute_with(&point(130), &ctx).expect_err("panics");
    match err {
        StorageError::Panicked { chunk, .. } => assert_eq!(chunk, Some(1)),
        other => panic!("expected typed panic, got {other}"),
    }

    // Healed: the same query now answers from the rehydrated record.
    let out = t.execute_with(&point(130), &ctx).expect("healed read");
    expect_rows(&out, 130);
    let out = t.execute_with(&count_all(), &ctx).expect("count");
    assert_eq!(out.result.scalar(), ROWS);
    assert!(
        t.quarantined_chunks().is_empty(),
        "clean chunks heal, not quarantine"
    );
    assert!(!t.is_degraded());
    let stats = t.governor_stats().expect("governor");
    assert_eq!(stats.panics, 1);
    assert!(stats.rehydrations >= 1, "heal rehydrates from the record");
}

/// Durable-level containment, dirty chunk: the suspect memory is
/// quarantined (never re-encoded by a checkpoint), and a reopen
/// reconstructs the consistent state from the last good record plus the
/// WAL — the committed write survives, the panic leaves no wrong data.
#[test]
fn durable_panic_on_dirty_chunk_quarantines_and_reopen_recovers() {
    let dir = test_dir("gov_panic_dirty");
    let mut opts = DurableOptions::default();
    opts.governor = Some(GovernorConfig::default());
    let mut t = DurableTable::create_from_table(&dir, seed_table(), opts).expect("create");
    let ctx = QueryCtx::unbounded();

    // Dirty chunk 1 with a committed (sealed, group_commit=1) insert.
    let fresh = 131; // odd, routes into chunk 1's key range
    t.execute_with(
        &HapQuery::Q4 {
            key: fresh,
            payload: payload_row(fresh),
        },
        &ctx,
    )
    .expect("dirtying insert");

    t.inject_chunk_panic(1);
    let err = t.execute_with(&point(130), &ctx).expect_err("panics");
    assert!(matches!(err, StorageError::Panicked { chunk: Some(1), .. }));
    assert_eq!(
        t.quarantined_chunks(),
        vec![1],
        "dirty chunk must quarantine, not heal"
    );
    // The quarantined chunk holds a committed write newer than its
    // durable record, so checkpointing must freeze (a checkpoint would
    // advance the WAL watermark past a write its pinned record lacks):
    let err = t.checkpoint().expect_err("checkpointing is frozen");
    assert!(
        matches!(err, StorageError::Quarantined { chunk: 1, .. }),
        "expected typed quarantine freeze, got {err}"
    );

    // Reopen: durable record + WAL replay reconstruct everything,
    // including the committed insert that preceded the panic.
    drop(t);
    let mut reopened = DurableTable::open(&dir, DurableOptions::default()).expect("reopen");
    let out = reopened.execute(&point(130)).expect("recovered read");
    expect_rows(&out, 130);
    let out = reopened.execute(&point(fresh)).expect("recovered insert");
    expect_rows(&out, fresh);
    let out = reopened.execute(&count_all()).expect("recovered count");
    assert_eq!(out.result.scalar(), ROWS + 1);
}

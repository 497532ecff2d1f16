//! Property-based model test at the engine level: every layout mode,
//! driven by arbitrary HAP query interleavings over a payload-carrying
//! table, must agree with a naive reference model — including payload
//! contents, which exercises the ripple mirroring across all columns.

use casper::engine::{EngineConfig, LayoutMode, QueryResult, Table};
use casper::workload::{HapQuery, HapSchema};
use proptest::prelude::*;

/// A generated key: half the time one that is live in the table when the
/// act runs (so reads hit, and Q5/Q6 find their row, moved rows included),
/// otherwise an arbitrary one.
#[derive(Debug, Clone, Copy)]
struct Key {
    live: bool,
    raw: u16,
}

impl Key {
    fn resolve(self, rows: &[(u64, Vec<u32>)]) -> u64 {
        if self.live && !rows.is_empty() {
            rows[usize::from(self.raw) % rows.len()].0
        } else {
            u64::from(self.raw)
        }
    }
}

fn key() -> impl Strategy<Value = Key> {
    (any::<bool>(), any::<u16>()).prop_map(|(live, raw)| Key { live, raw })
}

#[derive(Debug, Clone)]
enum Act {
    Point(Key),
    Range(Key, Key),
    Sum(Key, Key),
    Insert(Key),
    Delete(Key),
    Update(Key, Key),
}

fn act() -> impl Strategy<Value = Act> {
    prop_oneof![
        key().prop_map(Act::Point),
        (key(), key()).prop_map(|(a, b)| Act::Range(a, b)),
        (key(), key()).prop_map(|(a, b)| Act::Sum(a, b)),
        key().prop_map(Act::Insert),
        key().prop_map(Act::Delete),
        (key(), key()).prop_map(|(a, b)| Act::Update(a, b)),
    ]
}

fn to_query(a: &Act, schema: HapSchema, rows: &[(u64, Vec<u32>)]) -> HapQuery {
    let k = |key: Key| key.resolve(rows);
    match *a {
        Act::Point(v) => HapQuery::Q1 { v: k(v), k: 3 },
        Act::Range(a, b) => HapQuery::Q2 {
            vs: k(a).min(k(b)),
            ve: k(a).max(k(b)) + 1,
        },
        Act::Sum(a, b) => HapQuery::Q3 {
            vs: k(a).min(k(b)),
            ve: k(a).max(k(b)) + 1,
            k: 2,
        },
        // A row's payload is a function of the key it was *inserted*
        // under, so a Q6 that leaves a stale slot behind is visible.
        Act::Insert(v) => HapQuery::Q4 {
            key: k(v),
            payload: schema.payload_row(k(v)),
        },
        Act::Delete(v) => HapQuery::Q5 { v: k(v) },
        Act::Update(a, b) => HapQuery::Q6 {
            v: k(a),
            vnew: k(b),
        },
    }
}

/// What the two sides are compared on: Q1 by the sorted multiset of
/// projected rows, everything else by its scalar.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Vec<u32>>),
    Scalar(u64),
}

fn answer(result: QueryResult) -> Answer {
    match result {
        QueryResult::Rows(mut rows) => {
            rows.sort_unstable();
            Answer::Rows(rows)
        }
        other => Answer::Scalar(other.scalar()),
    }
}

/// Reference: a plain Vec of (key, payload) rows.
fn reference_execute(rows: &mut Vec<(u64, Vec<u32>)>, q: &HapQuery) -> Answer {
    Answer::Scalar(match q {
        HapQuery::Q1 { v, k } => {
            let hits = rows.iter().filter(|(key, _)| key == v);
            return answer(QueryResult::Rows(
                hits.map(|(_, p)| p[..*k].to_vec()).collect(),
            ));
        }
        HapQuery::Q2 { vs, ve } => {
            rows.iter().filter(|(k, _)| (*vs..*ve).contains(k)).count() as u64
        }
        HapQuery::Q3 { vs, ve, k } => rows
            .iter()
            .filter(|(key, _)| (*vs..*ve).contains(key))
            .map(|(_, p)| p[..*k].iter().map(|&x| u64::from(x)).sum::<u64>())
            .sum(),
        HapQuery::Q4 { key, payload } => {
            rows.push((*key, payload.clone()));
            1
        }
        HapQuery::Q5 { v } => {
            let n = rows.len();
            rows.retain(|(k, _)| k != v);
            (n - rows.len()) as u64
        }
        HapQuery::Q6 { v, vnew } => match rows.iter_mut().find(|(k, _)| k == v) {
            Some(r) => {
                r.0 = *vnew;
                1
            }
            None => 0,
        },
    })
}

/// Which of several rows with the same key a Q6 moves is each store's own
/// choice (first in slot order, first in sort order, newest buffered); the
/// reference can only follow when those rows are indistinguishable.
fn q6_source_is_ambiguous(rows: &[(u64, Vec<u32>)], q: &HapQuery) -> bool {
    let HapQuery::Q6 { v, .. } = q else {
        return false;
    };
    let mut same_key = rows.iter().filter(|(k, _)| k == v).map(|(_, p)| p);
    let first = same_key.next();
    same_key.any(|p| Some(p) != first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_modes_agree_with_reference(
        initial in proptest::collection::vec(any::<u16>(), 32..200),
        acts in proptest::collection::vec(act(), 1..60),
        mode_idx in 0usize..6,
        many_chunks in any::<bool>(),
    ) {
        let schema = HapSchema::narrow();
        let keys: Vec<u64> = initial.iter().map(|&k| u64::from(k)).collect();
        let payload_cols: Vec<Vec<u32>> = (0..schema.payload_cols)
            .map(|c| keys.iter().map(|&k| schema.payload_row(k)[c]).collect())
            .collect();
        let mode = LayoutMode::all()[mode_idx];
        let mut config = EngineConfig::small(mode);
        // Many small chunks (almost every Q6 crosses chunks) or a single
        // chunk (every Q6 stays inside it), at 8 keys per block so that a
        // chunk has several partitions for a Q6 to cross.
        config.chunk_values = if many_chunks { 64 } else { 4096 };
        config.block_bytes = 64;
        config.capacity_slack = 1.0;
        let mut table = Table::load(schema, keys.clone(), payload_cols, config);
        let mut reference: Vec<(u64, Vec<u32>)> =
            keys.iter().map(|&k| (k, schema.payload_row(k))).collect();
        for (i, a) in acts.iter().enumerate() {
            let q = to_query(a, schema, &reference);
            if q6_source_is_ambiguous(&reference, &q) {
                continue;
            }
            let got = answer(table.execute(&q).expect("execute").result);
            let want = reference_execute(&mut reference, &q);
            prop_assert_eq!(got, want, "{:?} diverged at act {} ({:?})", mode, i, q);
        }
        prop_assert_eq!(table.len(), reference.len());
    }
}

#[test]
fn wide_table_160_columns_round_trips() {
    let schema = HapSchema::wide();
    assert_eq!(schema.total_cols(), 160);
    let keys: Vec<u64> = (0..2048u64).map(|i| i * 2).collect();
    let payload_cols: Vec<Vec<u32>> = (0..schema.payload_cols)
        .map(|c| keys.iter().map(|&k| schema.payload_row(k)[c]).collect())
        .collect();
    for mode in [
        LayoutMode::Casper,
        LayoutMode::StateOfArt,
        LayoutMode::Sorted,
    ] {
        let mut config = EngineConfig::small(mode);
        config.chunk_values = 1024;
        let mut table = Table::load(schema, keys.clone(), payload_cols.clone(), config);
        // Project deep columns on a point read.
        let out = table.execute(&HapQuery::Q1 { v: 100, k: 159 }).expect("q1");
        if let QueryResult::Rows(rows) = out.result {
            assert_eq!(rows.len(), 1, "{mode:?}");
            assert_eq!(rows[0], schema.payload_row(100)[..159].to_vec(), "{mode:?}");
        } else {
            panic!("wrong result kind");
        }
        // Ripple a row across partitions and check all 159 columns follow.
        table
            .execute(&HapQuery::Q6 { v: 100, vnew: 3999 })
            .expect("q6");
        let out = table
            .execute(&HapQuery::Q1 { v: 3999, k: 159 })
            .expect("q1 after move");
        if let QueryResult::Rows(rows) = out.result {
            assert_eq!(rows.len(), 1, "{mode:?}");
            assert_eq!(
                rows[0],
                schema.payload_row(100)[..159].to_vec(),
                "{mode:?}: payload must follow the key through the ripple"
            );
        } else {
            panic!("wrong result kind");
        }
    }
}

//! The reference model every engine result is checked against.
//!
//! An ordered multiset `key → payload rows`, driven by the same query
//! stream as the engine. It shares no code with the engine. Keys live in a
//! dense domain (`0..=max key`), so order is kept by two Fenwick trees over
//! the key axis (row count and payload sum), which makes a Q2/Q3 check
//! `O(log domain)` instead of a walk over the ~20 k rows a range covers.
//!
//! Semantics mirrored from the HAP templates: Q5 deletes every copy of a
//! key, Q6 moves exactly one row (the oldest copy) together with its
//! payload, Q4 may create duplicates of a fresh (odd) key.

use casper_workload::{HapQuery, WorkloadGenerator};

const NONE: u32 = u32::MAX;

/// What the engine must return for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// `QueryResult::scalar()`: rows returned / count / sum / rows affected.
    pub scalar: u64,
    /// Order-independent hash of the projected rows (Q1 only, else 0).
    pub rows_hash: u64,
    /// Rows the operation matched (for values-examined-per-result).
    pub matched: u64,
}

/// Order-independent hash of a set of projected rows: per-row FNV-1a, summed
/// with wrap-around so duplicates in any physical order hash alike.
pub fn hash_rows<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    rows.into_iter()
        .map(|row| {
            row.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &v| {
                (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
        .fold(0u64, u64::wrapping_add)
}

/// Fenwick (binary indexed) tree over the key axis.
#[derive(Debug, Clone)]
struct Fenwick(Vec<u64>);

impl Fenwick {
    /// Build in `O(n)` from per-key values.
    fn from_values(mut v: Vec<u64>) -> Self {
        for i in 0..v.len() {
            let parent = i | (i + 1);
            if parent < v.len() {
                v[parent] = v[parent].wrapping_add(v[i]);
            }
        }
        Fenwick(v)
    }

    /// Add `delta` (wrapping, so subtraction is adding the negation).
    fn add(&mut self, mut i: usize, delta: u64) {
        while i < self.0.len() {
            self.0[i] = self.0[i].wrapping_add(delta);
            i |= i + 1;
        }
    }

    /// Sum over keys `[0, end)`.
    fn prefix(&self, end: usize) -> u64 {
        let mut i = end.min(self.0.len());
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.0[i - 1]);
            i &= i - 1;
        }
        s
    }

    fn range(&self, lo: u64, hi: u64) -> u64 {
        let clamp = |k: u64| usize::try_from(k).unwrap_or(usize::MAX);
        if hi <= lo {
            return 0;
        }
        self.prefix(clamp(hi)).wrapping_sub(self.prefix(clamp(lo)))
    }
}

/// Append `row` to the arrival-ordered chain of the key at `slot`. Chains
/// are short (duplicates are rare), so walking to the tail is cheap.
fn chain(head: &mut [u32], next: &mut [u32], slot: usize, row: u32) {
    next[row as usize] = NONE;
    if head[slot] == NONE {
        head[slot] = row;
        return;
    }
    let mut tail = head[slot];
    while next[tail as usize] != NONE {
        tail = next[tail as usize];
    }
    next[tail as usize] = row;
}

/// The reference table.
#[derive(Debug, Clone)]
pub struct Model {
    /// Projectivity `k` the sum tree is maintained for (the generator uses
    /// one `k` for every Q1/Q3 of a stream).
    k: usize,
    /// First row id per key, `NONE` when the key is absent.
    head: Vec<u32>,
    /// Next row id with the same key, in arrival order.
    next: Vec<u32>,
    /// Column-major payloads indexed by row id.
    cols: Vec<Vec<u32>>,
    count: Fenwick,
    sum_k: Fenwick,
    live: usize,
}

impl Model {
    /// The generator's initial load, able to hold keys up to `max_key`.
    pub fn load(gen: &WorkloadGenerator, k: usize, max_key: u64) -> Self {
        let keys = gen.initial_keys();
        let cols = gen.initial_payload_columns();
        let domain = usize::try_from(max_key.max(gen.domain())).expect("key fits usize") + 1;
        let mut head = vec![NONE; domain];
        let mut next = vec![NONE; keys.len()];
        let mut counts = vec![0u64; domain];
        let mut sums = vec![0u64; domain];
        let k = k.min(cols.len());
        for (row, &key) in keys.iter().enumerate() {
            let slot = key as usize;
            chain(&mut head, &mut next, slot, row as u32);
            counts[slot] += 1;
            sums[slot] += cols[..k].iter().map(|c| u64::from(c[row])).sum::<u64>();
        }
        Self {
            k,
            head,
            next,
            live: keys.len(),
            cols,
            count: Fenwick::from_values(counts),
            sum_k: Fenwick::from_values(sums),
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    fn row_sum_k(&self, row: u32) -> u64 {
        self.cols[..self.k]
            .iter()
            .map(|c| u64::from(c[row as usize]))
            .sum()
    }

    fn rows_of(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let first = self.head.get(key as usize).copied().unwrap_or(NONE);
        std::iter::successors((first != NONE).then_some(first), |&r| {
            let n = self.next[r as usize];
            (n != NONE).then_some(n)
        })
    }

    /// Number of rows with `key` and the hash of their first `k` columns.
    pub fn point(&self, key: u64, k: usize) -> (u64, u64) {
        let rows: Vec<Vec<u32>> = self
            .rows_of(key)
            .map(|r| self.cols[..k].iter().map(|c| c[r as usize]).collect())
            .collect();
        (rows.len() as u64, hash_rows(rows.iter().map(Vec::as_slice)))
    }

    /// Append an existing row id to `key`'s chain.
    fn link(&mut self, key: u64, row: u32) {
        let slot = key as usize;
        assert!(
            slot < self.head.len(),
            "model built for keys below {}, got {key}",
            self.head.len()
        );
        chain(&mut self.head, &mut self.next, slot, row);
        self.count.add(slot, 1);
        self.sum_k.add(slot, self.row_sum_k(row));
        self.live += 1;
    }

    /// Detach the oldest row of `key`, if any.
    fn unlink_first(&mut self, key: u64) -> Option<u32> {
        let slot = key as usize;
        let row = *self.head.get(slot).filter(|&&r| r != NONE)?;
        self.head[slot] = self.next[row as usize];
        self.count.add(slot, 1u64.wrapping_neg());
        self.sum_k.add(slot, self.row_sum_k(row).wrapping_neg());
        self.live -= 1;
        Some(row)
    }

    /// Apply one query and return what the engine must answer.
    pub fn apply(&mut self, q: &HapQuery) -> Expected {
        match q {
            HapQuery::Q1 { v, k } => {
                let (n, rows_hash) = self.point(*v, (*k).min(self.cols.len()));
                Expected {
                    scalar: n,
                    rows_hash,
                    matched: n,
                }
            }
            HapQuery::Q2 { vs, ve } => {
                let n = self.count.range(*vs, *ve);
                Expected {
                    scalar: n,
                    rows_hash: 0,
                    matched: n,
                }
            }
            HapQuery::Q3 { vs, ve, k } => {
                assert_eq!(
                    (*k).min(self.cols.len()),
                    self.k,
                    "the model keeps range sums for one projectivity"
                );
                Expected {
                    scalar: self.sum_k.range(*vs, *ve),
                    rows_hash: 0,
                    matched: self.count.range(*vs, *ve),
                }
            }
            HapQuery::Q4 { key, payload } => {
                assert_eq!(payload.len(), self.cols.len(), "payload arity");
                let row = self.next.len() as u32;
                for (c, &v) in self.cols.iter_mut().zip(payload) {
                    c.push(v);
                }
                self.next.push(NONE);
                self.link(*key, row);
                Expected {
                    scalar: 1,
                    rows_hash: 0,
                    matched: 1,
                }
            }
            HapQuery::Q5 { v } => {
                let mut n = 0;
                while self.unlink_first(*v).is_some() {
                    n += 1;
                }
                Expected {
                    scalar: n,
                    rows_hash: 0,
                    matched: n,
                }
            }
            HapQuery::Q6 { v, vnew } => {
                let n = match self.unlink_first(*v) {
                    Some(row) => {
                        self.link(*vnew, row);
                        1
                    }
                    None => 0,
                };
                Expected {
                    scalar: n,
                    rows_hash: 0,
                    matched: n,
                }
            }
        }
    }
}

/// Largest key a stream can create or touch (sizes the model's domain).
pub fn max_key(stream: &[HapQuery]) -> u64 {
    stream
        .iter()
        .map(|q| match q {
            HapQuery::Q1 { v, .. } | HapQuery::Q5 { v } => *v,
            // Range ends beyond the data are clamped by the Fenwick walk.
            HapQuery::Q2 { vs, .. } | HapQuery::Q3 { vs, .. } => *vs,
            HapQuery::Q4 { key, .. } => *key,
            HapQuery::Q6 { v, vnew } => (*v).max(*vnew),
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_workload::{HapSchema, KeyDist, Mix, MixKind};
    use std::collections::BTreeMap;

    /// The obvious implementation the fast one is checked against.
    fn naive(gen: &WorkloadGenerator, stream: &[HapQuery]) -> Vec<(u64, u64)> {
        let cols = gen.initial_payload_columns();
        let mut rows: BTreeMap<u64, Vec<Vec<u32>>> = BTreeMap::new();
        for (i, key) in gen.initial_keys().into_iter().enumerate() {
            rows.entry(key)
                .or_default()
                .push(cols.iter().map(|c| c[i]).collect());
        }
        let sum_k = |r: &Vec<u32>, k: usize| r[..k].iter().map(|&v| u64::from(v)).sum::<u64>();
        stream
            .iter()
            .map(|q| match q {
                HapQuery::Q1 { v, k } => {
                    let found: Vec<&[u32]> = rows
                        .get(v)
                        .map(|rs| rs.iter().map(|r| &r[..*k]).collect())
                        .unwrap_or_default();
                    (found.len() as u64, hash_rows(found))
                }
                HapQuery::Q2 { vs, ve } => {
                    (rows.range(*vs..*ve).map(|(_, r)| r.len() as u64).sum(), 0)
                }
                HapQuery::Q3 { vs, ve, k } => (
                    rows.range(*vs..*ve)
                        .flat_map(|(_, rs)| rs.iter().map(|r| sum_k(r, *k)))
                        .sum(),
                    0,
                ),
                HapQuery::Q4 { key, payload } => {
                    rows.entry(*key).or_default().push(payload.clone());
                    (1, 0)
                }
                HapQuery::Q5 { v } => (rows.remove(v).map_or(0, |r| r.len() as u64), 0),
                HapQuery::Q6 { v, vnew } => match rows.get_mut(v) {
                    Some(rs) => {
                        let row = rs.remove(0);
                        if rs.is_empty() {
                            rows.remove(v);
                        }
                        rows.entry(*vnew).or_default().push(row);
                        (1, 0)
                    }
                    None => (0, 0),
                },
            })
            .collect()
    }

    #[test]
    fn agrees_with_a_naive_btreemap_on_every_named_mix() {
        for kind in MixKind::all() {
            let mix = Mix::new(kind, HapSchema::narrow(), 2_000);
            let stream = mix.generate(6_000, 11);
            let k = mix.generator().projectivity;
            let mut model = Model::load(mix.generator(), k, max_key(&stream));
            let want = naive(mix.generator(), &stream);
            for (i, (q, want)) in stream.iter().zip(want).enumerate() {
                let got = model.apply(q);
                assert_eq!((got.scalar, got.rows_hash), want, "{kind:?} op {i}: {q:?}");
            }
        }
    }

    #[test]
    fn q5_deletes_every_copy_and_q6_moves_exactly_one() {
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 8, KeyDist::Uniform);
        let mut m = Model::load(&gen, 4, 100);
        let row = |x: u32| vec![x; 15];
        for x in [1, 2, 3] {
            m.apply(&HapQuery::Q4 {
                key: 5,
                payload: row(x),
            });
        }
        assert_eq!(m.point(5, 1).0, 3);
        // Q6 moves the oldest copy (payload 1) and leaves two behind.
        assert_eq!(m.apply(&HapQuery::Q6 { v: 5, vnew: 9 }).scalar, 1);
        assert_eq!(m.point(5, 1).0, 2);
        assert_eq!(m.point(9, 1), (1, hash_rows([&[1u32][..]])));
        assert_eq!(m.apply(&HapQuery::Q5 { v: 5 }).scalar, 2);
        assert_eq!(m.apply(&HapQuery::Q5 { v: 5 }).scalar, 0);
        assert_eq!(m.apply(&HapQuery::Q6 { v: 5, vnew: 7 }).scalar, 0);
        assert_eq!(m.len(), 8 + 1);
        let all = HapQuery::Q2 {
            vs: 0,
            ve: u64::MAX,
        };
        assert_eq!(m.apply(&all).scalar, 9);
    }

    #[test]
    fn row_hash_ignores_row_order_but_not_content() {
        let (a, b) = ([1u32, 2], [3u32, 4]);
        assert_eq!(hash_rows([&a[..], &b[..]]), hash_rows([&b[..], &a[..]]));
        assert_ne!(hash_rows([&a[..]]), hash_rows([&b[..]]));
        assert_ne!(hash_rows([&[1u32, 2][..]]), hash_rows([&[2u32, 1][..]]));
        assert_eq!(hash_rows(std::iter::empty::<&[u32]>()), 0);
    }
}

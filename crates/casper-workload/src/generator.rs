//! Workload generation: keys, ranges, and query streams.
//!
//! The key domain uses an even/odd scheme: the initial load consists of
//! even keys `0, 2, 4, …`, so inserts can draw *fresh* odd keys at any
//! domain position without colliding, while point reads, deletes, and
//! updates target the (even) loaded domain. This keeps generated workloads
//! meaningful after arbitrarily many mutations without tracking engine
//! state.

use crate::hap::{HapQuery, HapSchema};
use crate::zipf::{HotRange, Zipf};
use rand::Rng;

/// Distribution of key accesses over the domain.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over the domain.
    Uniform,
    /// Zipf over positions, hottest at the *start* of the domain.
    ZipfFront {
        /// Skew exponent in `[0, 1)`.
        theta: f64,
    },
    /// Zipf over positions, hottest at the *end* ("more recent data").
    ZipfRecent {
        /// Skew exponent in `[0, 1)`.
        theta: f64,
    },
    /// Hot-range (hotspot) skew.
    Hot(HotRange),
}

impl KeyDist {
    /// The paper's skewed profile (recent data hot): 90% of accesses hit
    /// the newest 10% of the domain.
    pub fn skewed_recent() -> Self {
        KeyDist::Hot(HotRange {
            hot_frac: 0.1,
            hot_prob: 0.9,
            hot_at_end: true,
        })
    }

    /// Sample a domain position as a fraction in `[0, 1)`.
    fn sample_frac<R: Rng + ?Sized>(&self, zipf: &Zipf, rng: &mut R) -> f64 {
        match self {
            KeyDist::Uniform => rng.gen(),
            KeyDist::ZipfFront { .. } => zipf.sample(rng) as f64 / zipf.n() as f64,
            KeyDist::ZipfRecent { .. } => {
                1.0 - (zipf.sample(rng) + 1) as f64 / (zipf.n() + 1) as f64
            }
            KeyDist::Hot(h) => h.sample(rng),
        }
    }

    fn theta(&self) -> f64 {
        match self {
            KeyDist::ZipfFront { theta } | KeyDist::ZipfRecent { theta } => *theta,
            _ => 0.5,
        }
    }
}

/// Generates HAP query streams over a loaded table.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    schema: HapSchema,
    /// Rows in the initial load.
    rows: u64,
    key_dist: KeyDist,
    /// Range query selectivity as a fraction of the domain.
    pub range_selectivity: f64,
    /// Projectivity `k` for Q1/Q3.
    pub projectivity: usize,
    /// Maximum distance (in key units) a Q6 "correction" moves a key.
    pub update_reach: u64,
    zipf: Zipf,
}

impl WorkloadGenerator {
    /// Create a generator for `rows` initially loaded rows.
    pub fn new(schema: HapSchema, rows: u64, key_dist: KeyDist) -> Self {
        assert!(rows >= 2);
        let zipf = Zipf::new(rows, key_dist.theta());
        Self {
            schema,
            rows,
            key_dist,
            range_selectivity: 0.01,
            projectivity: 4.min(schema.payload_cols),
            update_reach: (rows / 50).max(2),
            zipf,
        }
    }

    /// The initial load: even keys `0, 2, …, 2(rows−1)` with deterministic
    /// payloads.
    pub fn initial_keys(&self) -> Vec<u64> {
        (0..self.rows).map(|i| i * 2).collect()
    }

    /// Payload columns for the initial load (column-major): column `c` of
    /// the row with key `k` holds the low 16 bits of
    /// `k · 2654435761 + c`. Each word is computed from its row index `i`
    /// (key `2i`), without materializing the keys.
    pub fn initial_payload_columns(&self) -> Vec<Vec<u32>> {
        (0..self.schema.payload_cols as u64)
            .map(|c| {
                (0..self.rows)
                    .map(|i| ((2 * i).wrapping_mul(2654435761).wrapping_add(c) & 0xFFFF) as u32)
                    .collect()
            })
            .collect()
    }

    /// Domain span (largest loaded key + 2).
    pub fn domain(&self) -> u64 {
        self.rows * 2
    }

    /// The schema in use.
    pub fn schema(&self) -> HapSchema {
        self.schema
    }

    /// An existing (even) key at a distribution-chosen position.
    pub fn existing_key<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let frac = self.key_dist.sample_frac(&self.zipf, rng);
        let idx = ((frac * self.rows as f64) as u64).min(self.rows - 1);
        idx * 2
    }

    /// A fresh (odd) key at a distribution-chosen position.
    pub fn fresh_key<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let frac = self.key_dist.sample_frac(&self.zipf, rng);
        let idx = ((frac * self.rows as f64) as u64).min(self.rows - 1);
        idx * 2 + 1
    }

    /// Generate one query of the given template index (0-based: Q1..Q6).
    pub fn query<R: Rng + ?Sized>(&self, template: usize, rng: &mut R) -> HapQuery {
        match template {
            0 => HapQuery::Q1 {
                v: self.existing_key(rng),
                k: self.projectivity,
            },
            1 => {
                let (vs, ve) = self.range(rng);
                HapQuery::Q2 { vs, ve }
            }
            2 => {
                let (vs, ve) = self.range(rng);
                HapQuery::Q3 {
                    vs,
                    ve,
                    k: self.projectivity,
                }
            }
            3 => {
                let key = self.fresh_key(rng);
                HapQuery::Q4 {
                    payload: self.schema.payload_row(key),
                    key,
                }
            }
            4 => HapQuery::Q5 {
                v: self.existing_key(rng),
            },
            5 => {
                // Q6 corrections are uniformly spread over the domain
                // (§7.1) and move the key by a small amount.
                let v = (rng.gen_range(0..self.rows)) * 2;
                let delta = rng.gen_range(1..=self.update_reach);
                let vnew = if rng.gen_bool(0.5) {
                    v.saturating_add(delta * 2 + 1)
                } else {
                    v.saturating_sub((delta * 2).min(v)).saturating_add(1)
                };
                HapQuery::Q6 { v, vnew }
            }
            t => panic!("unknown query template {t}"),
        }
    }

    fn range<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, u64) {
        let span = ((self.domain() as f64 * self.range_selectivity) as u64).max(2);
        let vs = self.existing_key(rng);
        let ve = (vs + span).min(self.domain() + span);
        (vs, ve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn generator(dist: KeyDist) -> WorkloadGenerator {
        WorkloadGenerator::new(HapSchema::narrow(), 1000, dist)
    }

    #[test]
    fn initial_load_is_even_keys() {
        let g = generator(KeyDist::Uniform);
        let keys = g.initial_keys();
        assert_eq!(keys.len(), 1000);
        assert!(keys.iter().all(|k| k % 2 == 0));
        assert_eq!(keys[999], 1998);
        let cols = g.initial_payload_columns();
        assert_eq!(cols.len(), 15);
        assert!(cols.iter().all(|c| c.len() == 1000));
        // Column c of row i holds the low 16 bits of 2i · 2654435761 + c.
        for c in [0usize, 14] {
            for i in [0usize, 1, 537, 999] {
                let k = 2 * i as u64;
                assert_eq!(keys[i], k);
                let want = (k.wrapping_mul(2654435761).wrapping_add(c as u64) & 0xFFFF) as u32;
                assert_eq!(cols[c][i], want, "column {c}, row {i}");
            }
        }
    }

    #[test]
    fn existing_keys_even_fresh_keys_odd() {
        let g = generator(KeyDist::skewed_recent());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(g.existing_key(&mut rng) % 2, 0);
            assert_eq!(g.fresh_key(&mut rng) % 2, 1);
        }
    }

    #[test]
    fn recent_skew_targets_high_keys() {
        let g = generator(KeyDist::ZipfRecent { theta: 0.9 });
        let mut rng = StdRng::seed_from_u64(2);
        let high = (0..10_000)
            .filter(|_| g.existing_key(&mut rng) >= g.domain() * 4 / 5)
            .count();
        assert!(
            high > 5_000,
            "recent-skew should hit the top 20% of keys most of the time, got {high}/10000"
        );
    }

    #[test]
    fn ranges_respect_selectivity() {
        let mut g = generator(KeyDist::Uniform);
        g.range_selectivity = 0.05;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            if let HapQuery::Q2 { vs, ve } = g.query(1, &mut rng) {
                assert!(ve > vs);
                assert!((ve - vs) as f64 <= 0.06 * g.domain() as f64);
            } else {
                panic!("wrong template");
            }
        }
    }

    #[test]
    fn q6_moves_keys_a_bounded_distance() {
        let g = generator(KeyDist::Uniform);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            if let HapQuery::Q6 { v, vnew } = g.query(5, &mut rng) {
                assert_eq!(v % 2, 0);
                assert_eq!(vnew % 2, 1, "corrections produce fresh odd keys");
                assert!(v.abs_diff(vnew) <= 2 * g.update_reach * 2 + 1);
            } else {
                panic!("wrong template");
            }
        }
    }

    #[test]
    fn q4_payload_matches_schema() {
        let g = generator(KeyDist::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        if let HapQuery::Q4 { key, payload } = g.query(3, &mut rng) {
            assert_eq!(payload.len(), 15);
            assert_eq!(payload, HapSchema::narrow().payload_row(key));
        } else {
            panic!("wrong template");
        }
    }

    #[test]
    #[should_panic(expected = "unknown query template")]
    fn unknown_template_panics() {
        let g = generator(KeyDist::Uniform);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = g.query(6, &mut rng);
    }
}

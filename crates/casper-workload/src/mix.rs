//! Named workload mixes — every workload the evaluation section uses.
//!
//! | name | composition | skew | where used |
//! |---|---|---|---|
//! | hybrid point, skewed | Q1 49% / Q4 50% / Q6 1% | recent | Fig. 12, 13a |
//! | hybrid range, skewed | Q3 49% / Q4 50% / Q6 1% | recent | Fig. 12 |
//! | read-only, skewed | Q1 94% / Q2 5% / Q6 1% | recent | Fig. 12, 13b |
//! | read-only, uniform | Q1 94% / Q2 5% / Q6 1% | uniform | Fig. 12 |
//! | update-only, skewed (UDI1) | Q4 80% / Q5 19% / Q6 1% | recent | Fig. 12, 14 |
//! | update-only, uniform (UDI2) | Q4 80% / Q5 19% / Q6 1% | uniform | Fig. 12, 13c, 14 |
//! | YCSB-A2 | Q1 50% / Q4 49% / Q6 1% | recent | Fig. 14 |
//! | SLA hybrid | Q1 89% / Q4 10% / Q6 1% | recent | Fig. 15 |
//!
//! "Every workload has a small fraction (1%) of updates (Q6) uniformly
//! distributed across the whole domain" (§7.1).

use crate::generator::{KeyDist, WorkloadGenerator};
use crate::hap::{HapQuery, HapSchema};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The named mixes of the evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixKind {
    /// Q1/Q4/Q6 = 49/50/1, skewed to recent data (Figs. 12, 13a).
    HybridPointSkewed,
    /// Q3/Q4/Q6 = 49/50/1, skewed (Fig. 12).
    HybridRangeSkewed,
    /// Q1/Q2/Q6 = 94/5/1, skewed (Figs. 12, 13b).
    ReadOnlySkewed,
    /// Q1/Q2/Q6 = 94/5/1, uniform (Fig. 12).
    ReadOnlyUniform,
    /// Q4/Q5/Q6 = 80/19/1, skewed — the paper's UDI1 (Figs. 12, 14).
    UpdateOnlySkewed,
    /// Q4/Q5/Q6 = 80/19/1, uniform — UDI2 (Figs. 12, 13c, 14).
    UpdateOnlyUniform,
    /// Q1/Q4/Q6 = 50/49/1, skewed — YCSB-A2 (Fig. 14).
    YcsbA2,
    /// Q1/Q4/Q6 = 89/10/1, skewed (Fig. 15 SLA experiment).
    SlaHybrid,
}

impl MixKind {
    /// All named mixes, in Fig. 12 presentation order.
    pub fn all() -> [MixKind; 8] {
        [
            MixKind::HybridPointSkewed,
            MixKind::HybridRangeSkewed,
            MixKind::ReadOnlySkewed,
            MixKind::ReadOnlyUniform,
            MixKind::UpdateOnlySkewed,
            MixKind::UpdateOnlyUniform,
            MixKind::YcsbA2,
            MixKind::SlaHybrid,
        ]
    }

    /// The six Fig. 12 workloads.
    pub fn fig12() -> [MixKind; 6] {
        [
            MixKind::HybridPointSkewed,
            MixKind::HybridRangeSkewed,
            MixKind::ReadOnlySkewed,
            MixKind::ReadOnlyUniform,
            MixKind::UpdateOnlySkewed,
            MixKind::UpdateOnlyUniform,
        ]
    }

    /// Display label matching the paper's figure captions.
    pub fn label(&self) -> &'static str {
        match self {
            MixKind::HybridPointSkewed => "hybrid, skewed",
            MixKind::HybridRangeSkewed => "hybrid, range, skewed",
            MixKind::ReadOnlySkewed => "read-only, skewed",
            MixKind::ReadOnlyUniform => "read-only, uniform",
            MixKind::UpdateOnlySkewed => "update-only, skewed (UDI1)",
            MixKind::UpdateOnlyUniform => "update-only, uniform (UDI2)",
            MixKind::YcsbA2 => "YCSB-A2 (hybrid, skewed)",
            MixKind::SlaHybrid => "SLA hybrid (Q1 89/Q4 10/Q6 1)",
        }
    }

    /// Per-template weights `[Q1..Q6]` (sum to 100).
    pub fn weights(&self) -> [f64; 6] {
        match self {
            MixKind::HybridPointSkewed => [49.0, 0.0, 0.0, 50.0, 0.0, 1.0],
            MixKind::HybridRangeSkewed => [0.0, 0.0, 49.0, 50.0, 0.0, 1.0],
            MixKind::ReadOnlySkewed | MixKind::ReadOnlyUniform => [94.0, 5.0, 0.0, 0.0, 0.0, 1.0],
            MixKind::UpdateOnlySkewed | MixKind::UpdateOnlyUniform => {
                [0.0, 0.0, 0.0, 80.0, 19.0, 1.0]
            }
            MixKind::YcsbA2 => [50.0, 0.0, 0.0, 49.0, 0.0, 1.0],
            MixKind::SlaHybrid => [89.0, 0.0, 0.0, 10.0, 0.0, 1.0],
        }
    }

    /// Key distribution.
    pub fn key_dist(&self) -> KeyDist {
        match self {
            MixKind::ReadOnlyUniform | MixKind::UpdateOnlyUniform => KeyDist::Uniform,
            _ => KeyDist::skewed_recent(),
        }
    }
}

/// A concrete mix: template weights + key distribution, with a generator.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Mix identity.
    pub kind: MixKind,
    generator: WorkloadGenerator,
}

impl Mix {
    /// Instantiate a named mix over a table of `rows` rows.
    pub fn new(kind: MixKind, schema: HapSchema, rows: u64) -> Self {
        Self {
            kind,
            generator: WorkloadGenerator::new(schema, rows, kind.key_dist()),
        }
    }

    /// Access the underlying generator (e.g. for the initial load).
    pub fn generator(&self) -> &WorkloadGenerator {
        &self.generator
    }

    /// Generate a seeded stream of `n` queries following the mix weights.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<HapQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = self.kind.weights();
        let total: f64 = weights.iter().sum();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut pick = rng.gen_range(0.0..total);
            let mut template = 0usize;
            for (t, &w) in weights.iter().enumerate() {
                if pick < w {
                    template = t;
                    break;
                }
                pick -= w;
            }
            out.push(self.generator.query(template, &mut rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_100() {
        for kind in MixKind::all() {
            let s: f64 = kind.weights().iter().sum();
            assert!((s - 100.0).abs() < 1e-9, "{kind:?} sums to {s}");
        }
    }

    #[test]
    fn generated_stream_follows_weights() {
        let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 10_000);
        let ops = mix.generate(10_000, 7);
        let mut counts = [0usize; 6];
        for q in &ops {
            counts[q.index()] += 1;
        }
        assert!(
            (counts[0] as f64 / 10_000.0 - 0.49).abs() < 0.02,
            "Q1 share"
        );
        assert!(
            (counts[3] as f64 / 10_000.0 - 0.50).abs() < 0.02,
            "Q4 share"
        );
        assert!(
            (counts[5] as f64 / 10_000.0 - 0.01).abs() < 0.005,
            "Q6 share"
        );
        assert_eq!(counts[1] + counts[2] + counts[4], 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mix = Mix::new(MixKind::ReadOnlySkewed, HapSchema::narrow(), 1000);
        assert_eq!(mix.generate(100, 42), mix.generate(100, 42));
        assert_ne!(mix.generate(100, 42), mix.generate(100, 43));
    }

    #[test]
    fn uniform_mixes_use_uniform_keys() {
        assert!(matches!(
            MixKind::ReadOnlyUniform.key_dist(),
            KeyDist::Uniform
        ));
        assert!(matches!(
            MixKind::UpdateOnlySkewed.key_dist(),
            KeyDist::Hot(_)
        ));
    }

    #[test]
    fn update_only_mixes_have_no_reads() {
        let mix = Mix::new(MixKind::UpdateOnlyUniform, HapSchema::narrow(), 1000);
        let ops = mix.generate(500, 1);
        assert!(ops.iter().all(|q| !q.is_read() || q.name() == "Q6"));
    }

    #[test]
    fn fig12_has_six_workloads() {
        assert_eq!(MixKind::fig12().len(), 6);
    }
}

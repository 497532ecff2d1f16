//! Robustness to workload uncertainty (§7.5, Fig. 16).
//!
//! A layout is trained on one Frequency Model but served another. The paper
//! studies two uncertainty axes:
//!
//! * **rotational shift** — the access patterns keep their shape but target
//!   a different part of the domain (histograms rotate by a fraction of the
//!   block count);
//! * **mass shift** — operation mix changes: a fraction of point-query mass
//!   converts into insert mass (and vice versa for negative shifts).
//!
//! [`evaluate_robustness`] reports the normalized latency of the trained
//! layout under the shifted workload, relative to the layout that would
//! have been optimal for the shifted workload — exactly the Fig. 16b
//! metric.

use crate::cost::{cost_of_segmentation, BlockTerms, CostConstants};
use crate::fm::FrequencyModel;
use crate::solver::{dp, SolverConstraints};
use casper_storage::PartitionSpec;

/// Rotate every histogram of the model by `frac` of the domain
/// (cyclically). `frac` in `[0, 1)`; Fig. 16b sweeps 0–50%.
pub fn rotational_shift(fm: &FrequencyModel, frac: f64) -> FrequencyModel {
    let n = fm.n_blocks();
    let shift = ((frac.rem_euclid(1.0)) * n as f64).round() as usize % n;
    let mut out = fm.clone();
    if shift == 0 {
        return out;
    }
    {
        let src = fm.histograms();
        let mut dst = out.histograms_mut();
        for (d, (_, s)) in dst.iter_mut().zip(src.iter()) {
            for i in 0..n {
                d[(i + shift) % n] = s[i];
            }
        }
    }
    out
}

/// Move `frac` of the point-query mass into insert mass (positive `frac`)
/// or insert mass into point-query mass (negative), preserving each
/// histogram's shape. Fig. 16b sweeps −25%…+25%.
pub fn mass_shift(fm: &FrequencyModel, frac: f64) -> FrequencyModel {
    let mut out = fm.clone();
    let n = fm.n_blocks();
    if frac > 0.0 {
        let moved: f64 = fm.pq.iter().sum::<f64>() * frac.min(1.0);
        let ins_total: f64 = fm.ins.iter().sum();
        for i in 0..n {
            out.pq[i] *= 1.0 - frac.min(1.0);
            // Added insert mass follows the existing insert shape (or
            // uniform when there were no inserts).
            out.ins[i] += if ins_total > 0.0 {
                moved * fm.ins[i] / ins_total
            } else {
                moved / n as f64
            };
        }
    } else if frac < 0.0 {
        let f = (-frac).min(1.0);
        let moved: f64 = fm.ins.iter().sum::<f64>() * f;
        let pq_total: f64 = fm.pq.iter().sum();
        for i in 0..n {
            out.ins[i] *= 1.0 - f;
            out.pq[i] += if pq_total > 0.0 {
                moved * fm.pq[i] / pq_total
            } else {
                moved / n as f64
            };
        }
    }
    out
}

/// Result of one robustness evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessPoint {
    /// Modeled cost of the trained layout under the shifted workload.
    pub trained_cost: f64,
    /// Modeled cost of the layout re-optimized for the shifted workload.
    pub oracle_cost: f64,
}

impl RobustnessPoint {
    /// Normalized latency (≥ 1; 1 means the trained layout is still
    /// optimal) — the Fig. 16b y-axis.
    pub fn normalized_latency(&self) -> f64 {
        if self.oracle_cost <= 0.0 {
            1.0
        } else {
            self.trained_cost / self.oracle_cost
        }
    }
}

/// Evaluate a trained layout against a shifted workload.
pub fn evaluate_robustness(
    trained: &PartitionSpec,
    shifted_fm: &FrequencyModel,
    constants: &CostConstants,
    constraints: &SolverConstraints,
) -> RobustnessPoint {
    let terms = BlockTerms::from_fm(shifted_fm, constants);
    let trained_cost = cost_of_segmentation(trained, &terms);
    let oracle = dp::solve(&terms, constraints);
    RobustnessPoint {
        trained_cost,
        oracle_cost: oracle.cost,
    }
}

// ---------------------------------------------------------------------
// Robust optimization (the paper's stated future work: "a new problem
// formulation using robust optimization techniques [21, 56]").
// ---------------------------------------------------------------------

/// A scenario-based uncertainty set: the cross product of rotational and
/// mass shifts applied to a nominal Frequency Model.
#[derive(Debug, Clone)]
pub struct UncertaintySet {
    /// Rotational shifts (fractions of the domain) to consider.
    pub rotations: Vec<f64>,
    /// Mass shifts (pq↔insert fractions) to consider.
    pub mass_shifts: Vec<f64>,
}

impl UncertaintySet {
    /// The Fig. 16 grid at modest uncertainty: ±10% rotation, ±15% mass.
    pub fn moderate() -> Self {
        Self {
            rotations: vec![0.0, 0.05, 0.10],
            mass_shifts: vec![-0.15, 0.0, 0.15],
        }
    }

    /// Materialize every scenario.
    pub fn scenarios(&self, nominal: &FrequencyModel) -> Vec<FrequencyModel> {
        let mut out = Vec::with_capacity(self.rotations.len() * self.mass_shifts.len());
        for &rot in &self.rotations {
            for &ms in &self.mass_shifts {
                out.push(rotational_shift(&mass_shift(nominal, ms), rot));
            }
        }
        out
    }
}

/// Optimal layout for the *expected* cost over the uncertainty set.
///
/// Because Eq. 16 is linear in the Frequency Model histograms, the expected
/// cost over scenarios equals the cost under the scenario-averaged model —
/// so one exact DP solve on the mixture FM is provably optimal for the
/// expected-cost objective. This is the "careful selection of the input of
/// the optimization" the abstract alludes to.
pub fn optimize_expected(
    nominal: &FrequencyModel,
    set: &UncertaintySet,
    constants: &CostConstants,
    constraints: &SolverConstraints,
) -> crate::solver::Solution {
    let scenarios = set.scenarios(nominal);
    let mut mixture = FrequencyModel::new(nominal.n_blocks());
    for s in &scenarios {
        mixture.merge(s);
    }
    mixture.scale(1.0 / scenarios.len() as f64);
    dp::solve(&BlockTerms::from_fm(&mixture, constants), constraints)
}

/// Min–max robust layout: pick, among the per-scenario optima plus the
/// expected-cost optimum, the candidate whose *worst-case* cost over the
/// set is smallest. Exact min–max over all segmentations is outside the
/// DP's reach; this candidate-set approach is the standard scenario
/// heuristic and is reported with its achieved worst case.
pub fn optimize_minmax(
    nominal: &FrequencyModel,
    set: &UncertaintySet,
    constants: &CostConstants,
    constraints: &SolverConstraints,
) -> (PartitionSpec, f64) {
    let scenarios = set.scenarios(nominal);
    let all_terms: Vec<BlockTerms> = scenarios
        .iter()
        .map(|s| BlockTerms::from_fm(s, constants))
        .collect();
    let mut candidates: Vec<PartitionSpec> = all_terms
        .iter()
        .map(|t| dp::solve(t, constraints).seg)
        .collect();
    candidates.push(optimize_expected(nominal, set, constants, constraints).seg);
    let worst = |seg: &PartitionSpec| -> f64 {
        all_terms
            .iter()
            .map(|t| cost_of_segmentation(seg, t))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    candidates
        .into_iter()
        .map(|seg| {
            let w = worst(&seg);
            (seg, w)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("non-empty candidate set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::{AccessDistribution, WorkloadSpec};

    fn fig16_fm(n: usize) -> FrequencyModel {
        // Fig. 16a: point queries mostly target the latter part of the
        // domain, inserts the first part; both at 50% frequency.
        FrequencyModel::from_distributions(
            n,
            &WorkloadSpec {
                point: Some((
                    500.0,
                    AccessDistribution::Gaussian {
                        mean: 0.75,
                        std: 0.12,
                    },
                )),
                insert: Some((
                    500.0,
                    AccessDistribution::Gaussian {
                        mean: 0.25,
                        std: 0.12,
                    },
                )),
                ..WorkloadSpec::none()
            },
        )
    }

    #[test]
    fn rotation_preserves_mass() {
        let fm = fig16_fm(32);
        for frac in [0.0, 0.1, 0.25, 0.5, 0.99] {
            let r = rotational_shift(&fm, frac);
            assert!(
                (r.total_mass() - fm.total_mass()).abs() < 1e-6,
                "mass changed at frac={frac}"
            );
        }
    }

    #[test]
    fn rotation_moves_the_peak() {
        let fm = fig16_fm(32);
        let r = rotational_shift(&fm, 0.5);
        let peak = |h: &[f64]| {
            h.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        let p0 = peak(&fm.pq);
        let p1 = peak(&r.pq);
        assert_eq!((p0 + 16) % 32, p1);
    }

    #[test]
    fn zero_rotation_is_identity() {
        let fm = fig16_fm(16);
        assert_eq!(rotational_shift(&fm, 0.0), fm);
    }

    #[test]
    fn mass_shift_conserves_total() {
        let fm = fig16_fm(32);
        for frac in [-0.25, -0.1, 0.0, 0.15, 0.25] {
            let s = mass_shift(&fm, frac);
            assert!(
                (s.total_mass() - fm.total_mass()).abs() < 1e-6,
                "mass not conserved at {frac}"
            );
            s.validate().unwrap();
        }
    }

    #[test]
    fn positive_mass_shift_moves_pq_to_inserts() {
        let fm = fig16_fm(16);
        let s = mass_shift(&fm, 0.2);
        assert!(s.pq.iter().sum::<f64>() < fm.pq.iter().sum::<f64>());
        assert!(s.ins.iter().sum::<f64>() > fm.ins.iter().sum::<f64>());
    }

    #[test]
    fn unshifted_workload_is_optimal() {
        let fm = fig16_fm(32);
        let constants = CostConstants::paper();
        let terms = BlockTerms::from_fm(&fm, &constants);
        let trained = dp::solve(&terms, &SolverConstraints::none()).seg;
        let p = evaluate_robustness(&trained, &fm, &constants, &SolverConstraints::none());
        assert!((p.normalized_latency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_optimal_beats_nominal_on_average() {
        let fm = fig16_fm(64);
        let constants = CostConstants::paper();
        let constraints = SolverConstraints::none();
        let set = UncertaintySet::moderate();
        let nominal = dp::solve(&BlockTerms::from_fm(&fm, &constants), &constraints).seg;
        let robust = optimize_expected(&fm, &set, &constants, &constraints).seg;
        let scenarios = set.scenarios(&fm);
        let avg = |seg: &PartitionSpec| -> f64 {
            scenarios
                .iter()
                .map(|s| cost_of_segmentation(seg, &BlockTerms::from_fm(s, &constants)))
                .sum::<f64>()
                / scenarios.len() as f64
        };
        assert!(
            avg(&robust) <= avg(&nominal) + 1e-6,
            "expected-robust {} vs nominal {}",
            avg(&robust),
            avg(&nominal)
        );
    }

    #[test]
    fn minmax_layout_bounds_worst_case() {
        let fm = fig16_fm(48);
        let constants = CostConstants::paper();
        let constraints = SolverConstraints::none();
        let set = UncertaintySet {
            rotations: vec![0.0, 0.2, 0.4],
            mass_shifts: vec![-0.2, 0.2],
        };
        let nominal = dp::solve(&BlockTerms::from_fm(&fm, &constants), &constraints).seg;
        let (robust, robust_worst) = optimize_minmax(&fm, &set, &constants, &constraints);
        let worst = |seg: &PartitionSpec| -> f64 {
            set.scenarios(&fm)
                .iter()
                .map(|s| cost_of_segmentation(seg, &BlockTerms::from_fm(s, &constants)))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        assert!((worst(&robust) - robust_worst).abs() < 1e-6);
        assert!(
            robust_worst <= worst(&nominal) + 1e-6,
            "min-max candidate must not be worse than the nominal layout"
        );
    }

    #[test]
    fn uncertainty_set_scenario_count() {
        let set = UncertaintySet::moderate();
        assert_eq!(set.scenarios(&fig16_fm(8)).len(), 9);
    }

    #[test]
    fn large_rotation_degrades_small_rotation_absorbed() {
        // The Fig. 16b shape: small shifts cost little, large shifts hit a
        // cliff.
        let fm = fig16_fm(64);
        let constants = CostConstants::paper();
        let terms = BlockTerms::from_fm(&fm, &constants);
        let trained = dp::solve(&terms, &SolverConstraints::none()).seg;
        let small = evaluate_robustness(
            &trained,
            &rotational_shift(&fm, 0.05),
            &constants,
            &SolverConstraints::none(),
        );
        let large = evaluate_robustness(
            &trained,
            &rotational_shift(&fm, 0.5),
            &constants,
            &SolverConstraints::none(),
        );
        assert!(small.normalized_latency() < large.normalized_latency());
        assert!(
            small.normalized_latency() < 1.25,
            "small shift should be absorbed"
        );
        assert!(large.normalized_latency() > 1.05, "large shift should cost");
    }
}

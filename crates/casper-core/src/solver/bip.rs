//! The literal Eq. 20 binary integer program and a branch-and-bound solver:
//! a test oracle for the DP, compiled only into the crate's unit tests.
//!
//! The paper linearizes the Eq. 19 products `Π(1−p_k)` with auxiliary
//! binaries `y_{i,j} = Π_{k=i}^{j} (1−p_k)` and constraints
//!
//! ```text
//! y_{i,i} = 1 − p_i
//! y_{i,j} ≤ 1 − p_j              (i < j)
//! y_{i,j} ≥ 1 − Σ_{k=i}^{j} p_k
//! ```
//!
//! then hands the model to Mosek. [`BipModel`] materializes exactly that
//! formulation — variables, objective coefficients, constraint counts —
//! and [`solve`] optimizes it with depth-first branch-and-bound over the
//! boundary variables, using the suffix-restricted DP optimum as an
//! admissible lower bound. Because the bound is admissible the result is
//! exact, which lets tests assert `BIP == DP == exhaustive`.

use super::{dp, Solution, SolverConstraints};
use crate::cost::BlockTerms;
use casper_storage::PartitionSpec;

/// The Eq. 20 model, materialized.
#[derive(Debug, Clone)]
pub struct BipModel {
    n: usize,
    /// Objective coefficient of each `p_j` (prefix sums of `parts_term`).
    p_coeff: Vec<f64>,
    /// Objective coefficient of `y_{i,j}` (flattened upper-triangular):
    /// `bck_{j+1} + fwd_i` per the Eq. 20 double sums.
    y_coeff: Vec<f64>,
    /// Constant objective offset (`Σ fixed_term_i`).
    constant: f64,
}

impl BipModel {
    /// Build the model from per-block terms.
    pub fn from_terms(terms: &BlockTerms) -> Self {
        let n = terms.n_blocks();
        // p_j appears in Σ_i parts_i · Σ_{j≥i} p_j with coefficient
        // Σ_{i≤j} parts_i.
        let mut p_coeff = Vec::with_capacity(n);
        let mut acc = 0.0;
        for j in 0..n {
            acc += terms.parts[j];
            p_coeff.push(acc);
        }
        // y_{a,b} appears in bck_term_i · Σ_j y_{j, i−1} (i = b+1, a ≤ b)
        // and in fwd_term_i · Σ_j y_{i, N−j−1} (i = a, b ≥ a).
        let mut y_coeff = Vec::with_capacity(n * (n + 1) / 2);
        for a in 0..n {
            for b in a..n {
                let bck = if b + 1 < n { terms.bck[b + 1] } else { 0.0 };
                let fwd = terms.fwd[a];
                y_coeff.push(bck + fwd);
            }
        }
        Self {
            n,
            p_coeff,
            y_coeff,
            constant: terms.fixed.iter().sum(),
        }
    }

    /// Number of binary variables: `N` boundary bits plus the
    /// upper-triangular `y` matrix.
    pub fn num_variables(&self) -> usize {
        self.n + self.y_coeff.len()
    }

    /// Number of linear constraints in the Eq. 20 formulation:
    /// `p_{N−1}=1`, `N` equalities `y_{i,i} = 1−p_i`, one `≤` per strict
    /// pair, one `≥` per pair.
    pub fn num_constraints(&self) -> usize {
        let pairs = self.n * (self.n + 1) / 2;
        let strict_pairs = pairs - self.n;
        1 + self.n + strict_pairs + pairs
    }

    #[inline]
    fn y_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.n);
        // Row-major upper triangle: row i starts at Σ_{r<i}(n − r)
        // = i·n − i(i−1)/2, and j sits at offset j − i within the row.
        i * self.n - (i * i - i) / 2 + (j - i)
    }

    /// Evaluate the Eq. 20 objective for a boundary vector, completing the
    /// `y` variables at their optimal (minimal) feasible values
    /// (`y_{i,j} = 1` iff no boundary in `[i, j]`). This is exactly the
    /// linearized objective a BIP solver would report.
    pub fn objective_of_boundaries(&self, p: &[bool]) -> f64 {
        assert_eq!(p.len(), self.n);
        assert!(p[self.n - 1], "p_{{N−1}} = 1 constraint violated");
        let mut total = self.constant;
        for (j, &bit) in p.iter().enumerate() {
            if bit {
                total += self.p_coeff[j];
            }
        }
        // y_{i,j} = 1 iff the run [i, j] contains no boundary.
        for i in 0..self.n {
            let mut j = i;
            while j < self.n && !p[j] {
                total += self.y_coeff[self.y_index(i, j)];
                j += 1;
            }
            // Runs stop at the first boundary: y_{i,j} with p_j=1 is 0 via
            // the ≤ constraint; everything beyond has Σp ≥ 1 so the ≥
            // constraint is slack and minimization sets y = 0.
        }
        total
    }
}

/// Search statistics reported by the branch-and-bound solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Nodes expanded.
    pub nodes: u64,
    /// Nodes pruned by the lower bound.
    pub pruned: u64,
}

/// Exact branch-and-bound over the Eq. 20 model.
///
/// Branches on segment end positions left to right (equivalent to the `p`
/// bits given `p_{N−1} = 1`); prunes with the admissible bound
/// `cost(prefix) + unconstrained-DP(suffix)`.
pub fn solve(terms: &BlockTerms, constraints: &SolverConstraints) -> (Solution, SearchStats) {
    let n = terms.n_blocks();
    assert!(constraints.feasible(n), "infeasible constraints");
    let costs = dp::SegmentCosts::new(terms);
    // Admissible suffix bound: optimal unconstrained segmentation of
    // [s, N). Computed by a backwards DP.
    let mut suffix = vec![f64::INFINITY; n + 1];
    suffix[n] = 0.0;
    for s in (0..n).rev() {
        for e in s + 1..=n {
            let c = costs.segment_cost(s, e - 1) + suffix[e];
            if c < suffix[s] {
                suffix[s] = c;
            }
        }
    }
    // Relax the bound when parts_term prefix sums can be negative: the
    // unconstrained suffix DP is exact for the suffix subproblem, and
    // segment costs already embed the trail_parts accounting, so it remains
    // a true lower bound for any completion.
    let mps = constraints.max_partition_blocks.unwrap_or(n).min(n);
    let kcap = constraints.max_partitions.unwrap_or(n).min(n);
    let mut stats = SearchStats::default();
    let mut best_cost = f64::INFINITY;
    let mut best_ends: Vec<usize> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();

    fn dfs(
        s: usize,
        used: usize,
        acc: f64,
        n: usize,
        mps: usize,
        kcap: usize,
        costs: &dp::SegmentCosts,
        suffix: &[f64],
        ends: &mut Vec<usize>,
        best_cost: &mut f64,
        best_ends: &mut Vec<usize>,
        stats: &mut SearchStats,
    ) {
        stats.nodes += 1;
        if s == n {
            if acc < *best_cost {
                *best_cost = acc;
                *best_ends = ends.clone();
            }
            return;
        }
        if used == kcap {
            stats.pruned += 1;
            return;
        }
        if acc + suffix[s] >= *best_cost {
            stats.pruned += 1;
            return;
        }
        for e in s + 1..=(s + mps).min(n) {
            // Remaining blocks must fit in the remaining partition budget.
            if (n - e) > (kcap - used - 1) * mps {
                continue;
            }
            ends.push(e);
            dfs(
                e,
                used + 1,
                acc + costs.segment_cost(s, e - 1),
                n,
                mps,
                kcap,
                costs,
                suffix,
                ends,
                best_cost,
                best_ends,
                stats,
            );
            ends.pop();
        }
    }

    dfs(
        0,
        0,
        0.0,
        n,
        mps,
        kcap,
        &costs,
        &suffix,
        &mut ends,
        &mut best_cost,
        &mut best_ends,
        &mut stats,
    );
    assert!(best_cost.is_finite(), "no feasible assignment found");
    (
        Solution {
            seg: PartitionSpec::new(best_ends),
            cost: best_cost,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_of_boundaries, CostConstants};
    use crate::fm::FrequencyModel;
    use crate::solver::exhaustive;

    fn random_fm(n: usize, seed: u64) -> FrequencyModel {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fm = FrequencyModel::new(n);
        for i in 0..n {
            fm.pq[i] = rng.gen_range(0.0..8.0);
            fm.ins[i] = rng.gen_range(0.0..4.0);
            fm.de[i] = rng.gen_range(0.0..2.0);
        }
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if j > i {
                fm.udf[i] += 1.0;
                fm.utf[j] += 1.0;
            } else {
                fm.udb[i] += 1.0;
                fm.utb[j] += 1.0;
            }
        }
        fm
    }

    #[test]
    fn y_index_is_dense_upper_triangle() {
        let terms = BlockTerms::from_fm(&FrequencyModel::new(5), &CostConstants::paper());
        let m = BipModel::from_terms(&terms);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5 {
            for j in i..5 {
                assert!(seen.insert(m.y_index(i, j)), "collision at ({i},{j})");
            }
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(*seen.iter().max().unwrap(), 14);
    }

    #[test]
    fn model_sizes_match_formulation() {
        let terms = BlockTerms::from_fm(&FrequencyModel::new(8), &CostConstants::paper());
        let m = BipModel::from_terms(&terms);
        assert_eq!(m.num_variables(), 8 + 36);
        // 1 pin + 8 equalities + 28 ≤ + 36 ≥.
        assert_eq!(m.num_constraints(), 1 + 8 + 28 + 36);
    }

    #[test]
    fn linearized_objective_equals_literal_eq16() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..40 {
            let n = 2 + (seed as usize % 9);
            let fm = random_fm(n, seed);
            let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
            let model = BipModel::from_terms(&terms);
            let mut p: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            p[n - 1] = true;
            let lin = model.objective_of_boundaries(&p);
            let lit = cost_of_boundaries(&p, &terms);
            assert!(
                (lin - lit).abs() < 1e-6 * (1.0 + lit.abs()),
                "seed {seed}: linearized {lin} vs literal {lit} for {p:?}"
            );
        }
    }

    #[test]
    fn bnb_matches_exhaustive() {
        for seed in 0..20 {
            let n = 3 + (seed as usize % 8);
            let fm = random_fm(n, seed + 500);
            let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
            let (sol, _) = solve(&terms, &SolverConstraints::none());
            let ex = exhaustive::solve(&terms, &SolverConstraints::none());
            assert!(
                (sol.cost - ex.cost).abs() < 1e-6 * (1.0 + ex.cost.abs()),
                "seed {seed}: bnb {} vs exhaustive {}",
                sol.cost,
                ex.cost
            );
        }
    }

    #[test]
    fn bnb_matches_exhaustive_constrained() {
        for seed in 0..15 {
            let n = 5 + (seed as usize % 6);
            let fm = random_fm(n, seed + 900);
            let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
            let constraints = SolverConstraints {
                max_partitions: Some(3),
                max_partition_blocks: Some(4),
            };
            if !constraints.feasible(n) {
                continue;
            }
            let (sol, _) = solve(&terms, &constraints);
            let ex = exhaustive::solve(&terms, &constraints);
            assert!(constraints.admits(&sol.seg));
            assert!(
                (sol.cost - ex.cost).abs() < 1e-6 * (1.0 + ex.cost.abs()),
                "seed {seed}: bnb {} vs exhaustive {}",
                sol.cost,
                ex.cost
            );
        }
    }

    #[test]
    fn pruning_actually_happens() {
        let fm = random_fm(12, 77);
        let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
        let (_, stats) = solve(&terms, &SolverConstraints::none());
        assert!(stats.pruned > 0, "expected bound to prune: {stats:?}");
        assert!(stats.nodes < 1 << 12, "search should beat enumeration");
    }
}

//! Exhaustive enumeration over all `2^(N−1)` boundary vectors — the ground
//! truth that the DP and branch-and-bound solvers are validated against; a
//! test oracle, compiled only into the crate's unit tests.
//!
//! The solution space matches §6.3's observation ("an exponential (2^N)
//! solution space"); with `p_{N−1}` pinned to 1 there are `2^(N−1)` free
//! assignments. Practical only for small `N` (capped at 22 bits).

use super::{Solution, SolverConstraints};
use crate::cost::{cost_of_segmentation, BlockTerms};
use casper_storage::PartitionSpec;

/// Largest `N` the exhaustive solver accepts.
pub const MAX_BLOCKS: usize = 22;

/// Enumerate every admissible boundary vector and return the cheapest.
///
/// # Panics
/// Panics when `N > MAX_BLOCKS` or no admissible layout exists.
pub fn solve(terms: &BlockTerms, constraints: &SolverConstraints) -> Solution {
    let n = terms.n_blocks();
    assert!(
        (1..=MAX_BLOCKS).contains(&n),
        "exhaustive solver capped at {MAX_BLOCKS} blocks"
    );
    let mut best: Option<Solution> = None;
    for mask in 0u32..(1u32 << (n - 1)) {
        let mut p: Vec<bool> = (0..n - 1).map(|i| mask & (1 << i) != 0).collect();
        p.push(true);
        let seg = PartitionSpec::from_boundaries(&p);
        if !constraints.admits(&seg) {
            continue;
        }
        let cost = cost_of_segmentation(&seg, terms);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(Solution { seg, cost });
        }
    }
    best.expect("no admissible layout — infeasible constraints")
}

/// Count the admissible layouts (used to report search-space sizes).
pub fn admissible_count(n: usize, constraints: &SolverConstraints) -> u64 {
    assert!((1..=MAX_BLOCKS).contains(&n));
    let mut count = 0u64;
    for mask in 0u32..(1u32 << (n - 1)) {
        let mut p: Vec<bool> = (0..n - 1).map(|i| mask & (1 << i) != 0).collect();
        p.push(true);
        let seg = PartitionSpec::from_boundaries(&p);
        if constraints.admits(&seg) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostConstants;
    use crate::fm::FrequencyModel;
    use crate::solver::dp;

    fn random_fm(n: usize, seed: u64) -> FrequencyModel {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fm = FrequencyModel::new(n);
        for i in 0..n {
            fm.pq[i] = rng.gen_range(0.0..10.0);
            fm.de[i] = rng.gen_range(0.0..3.0);
            fm.ins[i] = rng.gen_range(0.0..5.0);
        }
        for _ in 0..2 * n {
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
        // Some ranges.
        for _ in 0..n {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(a..n);
            fm.rs[a] += 1.0;
            if b > a {
                for s in a + 1..b {
                    fm.sc[s] += 1.0;
                }
                fm.re[b] += 1.0;
            }
        }
        fm
    }

    #[test]
    fn dp_matches_exhaustive_unconstrained() {
        for seed in 0..30 {
            let n = 2 + (seed as usize % 10);
            let fm = random_fm(n, seed);
            let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
            let ex = solve(&terms, &SolverConstraints::none());
            let dp_sol = dp::solve(&terms, &SolverConstraints::none());
            assert!(
                (ex.cost - dp_sol.cost).abs() < 1e-6 * (1.0 + ex.cost.abs()),
                "seed {seed}: exhaustive {} vs dp {}",
                ex.cost,
                dp_sol.cost
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_with_constraints() {
        for seed in 100..120 {
            let n = 4 + (seed as usize % 8);
            let fm = random_fm(n, seed);
            let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
            let constraints = SolverConstraints {
                max_partitions: Some(2 + seed as usize % 3),
                max_partition_blocks: Some(3 + seed as usize % 4),
            };
            if !constraints.feasible(n) {
                continue;
            }
            let ex = solve(&terms, &constraints);
            let dp_sol = dp::solve(&terms, &constraints);
            assert!(constraints.admits(&dp_sol.seg));
            assert!(
                (ex.cost - dp_sol.cost).abs() < 1e-6 * (1.0 + ex.cost.abs()),
                "seed {seed}: exhaustive {} vs dp {} ({} vs {})",
                ex.cost,
                dp_sol.cost,
                ex.seg,
                dp_sol.seg
            );
        }
    }

    #[test]
    fn admissible_count_unconstrained_is_power_of_two() {
        assert_eq!(admissible_count(5, &SolverConstraints::none()), 16);
        assert_eq!(admissible_count(1, &SolverConstraints::none()), 1);
    }

    #[test]
    fn admissible_count_with_mps() {
        // N=3, MPS=1: only the all-boundaries vector.
        let c = SolverConstraints {
            max_partitions: None,
            max_partition_blocks: Some(1),
        };
        assert_eq!(admissible_count(3, &c), 1);
    }
}

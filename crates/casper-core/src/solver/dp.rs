//! Exact segmentation dynamic program — the workhorse solver.
//!
//! ## Why a DP solves the paper's BIP exactly
//!
//! For a block `i` inside partition `[a, b]`, the Eq. 2/4 quantities
//! collapse to `bck_read(i) = i − a` and `fwd_read(i) = b − i`, so their
//! cost contributions are *local to the partition*. The remaining term
//! rewrites per boundary:
//!
//! ```text
//! Σ_i parts_i · trail_parts(i) = Σ_i parts_i · Σ_{j≥i} p_j
//!                              = Σ_{j: p_j=1} Σ_{i≤j} parts_i
//!                              = Σ_{partition ends b} PP(b+1)
//! ```
//!
//! where `PP` is the prefix sum of `parts`. Eq. 16 is therefore a sum of
//! independent per-partition costs `w(a, b)`, and minimizing it over all
//! boundary vectors with `p_{N−1} = 1` is the classic optimal-segmentation
//! problem: `O(N²)` time, `O(N)` space with prefix sums. The Eq. 21 SLA
//! bounds map to a cap on the number of segments (extra DP dimension) and a
//! cap on segment length (restricted inner loop).
//!
//! A cap `K` on the segment count costs `O(K · N²)` only when it binds. The
//! unconstrained optimum is solved first (`O(N²)`, about 1 ms at N = 512);
//! when it has at most `K` segments it is admissible and nothing under the
//! cap is cheaper, so it is the answer. The capped program runs end block
//! by end block: the costs of the segments ending there are computed once
//! (in [`SegmentCosts::segment_cost`]'s operation order) and shared by
//! every partition count, so a candidate costs one addition and one
//! comparison. Every reported cost is bit-identical to summing
//! `segment_cost` directly.
//!
//! The DP traces its optimum back as partition end offsets, which is the
//! [`PartitionSpec`] it returns; the `p_i` vector above is that spec's
//! boundary view, never materialized here.
//!
//! Correctness (DP optimum == literal Eq. 16 optimum == BIP optimum) is
//! property-tested against the test-only oracles `exhaustive` and `bip`.
//! A property test also checks that `w` satisfies the quadrangle
//! inequality, the precondition of a monotone-split speed-up.

use super::{Solution, SolverConstraints};
use crate::cost::BlockTerms;
use casper_storage::PartitionSpec;

/// Precomputed prefix sums enabling `O(1)` per-segment cost evaluation.
#[derive(Debug, Clone)]
pub struct SegmentCosts {
    /// Σ fixed.
    f: Vec<f64>,
    /// Σ bck.
    bw: Vec<f64>,
    /// Σ i·bck.
    bwi: Vec<f64>,
    /// Σ fwd.
    fw: Vec<f64>,
    /// Σ i·fwd.
    fwi: Vec<f64>,
    /// Σ parts.
    pp: Vec<f64>,
}

impl SegmentCosts {
    /// Build from per-block terms.
    pub fn new(terms: &BlockTerms) -> Self {
        let n = terms.n_blocks();
        let mut f = Vec::with_capacity(n + 1);
        let mut bw = Vec::with_capacity(n + 1);
        let mut bwi = Vec::with_capacity(n + 1);
        let mut fw = Vec::with_capacity(n + 1);
        let mut fwi = Vec::with_capacity(n + 1);
        let mut pp = Vec::with_capacity(n + 1);
        f.push(0.0);
        bw.push(0.0);
        bwi.push(0.0);
        fw.push(0.0);
        fwi.push(0.0);
        pp.push(0.0);
        for i in 0..n {
            f.push(f[i] + terms.fixed[i]);
            bw.push(bw[i] + terms.bck[i]);
            bwi.push(bwi[i] + terms.bck[i] * i as f64);
            fw.push(fw[i] + terms.fwd[i]);
            fwi.push(fwi[i] + terms.fwd[i] * i as f64);
            pp.push(pp[i] + terms.parts[i]);
        }
        Self {
            f,
            bw,
            bwi,
            fw,
            fwi,
            pp,
        }
    }

    /// Number of blocks covered.
    pub fn n_blocks(&self) -> usize {
        self.f.len() - 1
    }

    /// Cost `w(a, b)` of one partition spanning blocks `[a, b]` inclusive
    /// (including its boundary's `trail_parts` contribution `PP(b+1)`).
    #[inline]
    pub fn segment_cost(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a <= b && b < self.n_blocks());
        let fixed = self.f[b + 1] - self.f[a];
        let bck = (self.bwi[b + 1] - self.bwi[a]) - a as f64 * (self.bw[b + 1] - self.bw[a]);
        let fwd = b as f64 * (self.fw[b + 1] - self.fw[a]) - (self.fwi[b + 1] - self.fwi[a]);
        fixed + bck + fwd + self.pp[b + 1]
    }

    /// `out[i] = segment_cost(lo + i, e − 1)` for every start in `lo..e`,
    /// bit for bit: the end block's prefix terms are read once and each
    /// start evaluates `segment_cost`'s expression in its operation order
    /// (a loop without branches or bounds checks, which vectorizes).
    fn costs_ending_at(&self, lo: usize, e: usize, out: &mut Vec<f64>) {
        let Self {
            f,
            bw,
            bwi,
            fw,
            fwi,
            pp,
        } = self;
        let (f_e, bw_e, bwi_e, fw_e, fwi_e, pp_e) = (f[e], bw[e], bwi[e], fw[e], fwi[e], pp[e]);
        let b = (e - 1) as f64;
        let (f, bw, bwi, fw, fwi) = (&f[lo..e], &bw[lo..e], &bwi[lo..e], &fw[lo..e], &fwi[lo..e]);
        out.clear();
        out.extend((0..e - lo).map(|i| {
            let a = (lo + i) as f64;
            let fixed = f_e - f[i];
            let bck = (bwi_e - bwi[i]) - a * (bw_e - bw[i]);
            let fwd = b * (fw_e - fw[i]) - (fwi_e - fwi[i]);
            fixed + bck + fwd + pp_e
        }));
    }
}

/// Exact optimal segmentation under the given constraints.
///
/// Unconstrained (or length-capped): `O(N · min(N, MPS))`. With a
/// partition-count cap `K`, the unconstrained optimum is solved first and
/// returned when it has at most `K` partitions (nothing under the cap can
/// be cheaper, and it is admissible); only a binding cap pays the capped
/// program, `O(N · min(N, MPS) · K)`. Either way the cost is the exact
/// optimum, bit for bit what the capped program alone would report.
///
/// # Panics
/// Panics when the constraints are infeasible for this block count
/// (`max_partitions · max_partition_blocks < N`), mirroring a solver
/// infeasibility result.
pub fn solve(terms: &BlockTerms, constraints: &SolverConstraints) -> Solution {
    super::telemetry::note_solve();
    let costs = SegmentCosts::new(terms);
    let n = costs.n_blocks();
    assert!(n > 0, "no blocks to partition");
    assert!(
        constraints.feasible(n),
        "infeasible constraints for {n} blocks: {constraints:?}"
    );
    let mps = constraints.max_partition_blocks.unwrap_or(n).min(n).max(1);
    let free = solve_unbounded(&costs, mps);
    match constraints.max_partitions {
        Some(k) if free.seg.partition_count() > k => solve_bounded(&costs, mps, k),
        _ => free,
    }
}

/// The first strict minimum of `prev[i] + w[i]` over `i` (the DP's
/// candidate, a prefix optimum plus the last segment's cost) with its
/// index, or `(INFINITY, 0)` when no candidate is finite.
#[inline]
fn cheapest(prev: &[f64], w: &[f64]) -> (f64, usize) {
    let mut best = (f64::INFINITY, 0);
    for (i, (&p, &w)) in prev.iter().zip(w).enumerate() {
        let c = p + w;
        if c < best.0 {
            best = (c, i);
        }
    }
    best
}

fn solve_unbounded(costs: &SegmentCosts, mps: usize) -> Solution {
    let n = costs.n_blocks();
    // best[e] = optimal cost of segmenting blocks [0, e); parent[e] = start
    // of the last segment in that optimum.
    let mut best = vec![f64::INFINITY; n + 1];
    let mut parent = vec![0usize; n + 1];
    let mut w = Vec::with_capacity(mps);
    best[0] = 0.0;
    for e in 1..=n {
        let lo = e.saturating_sub(mps);
        costs.costs_ending_at(lo, e, &mut w);
        let (c, i) = cheapest(&best[lo..e], &w);
        (best[e], parent[e]) = (c, lo + i);
    }
    let mut ends = Vec::new();
    let mut e = n;
    while e > 0 {
        ends.push(e);
        e = parent[e];
    }
    ends.reverse();
    Solution {
        seg: PartitionSpec::new(ends),
        cost: best[n],
    }
}

fn solve_bounded(costs: &SegmentCosts, mps: usize, k_cap: usize) -> Solution {
    let n = costs.n_blocks();
    let k_cap = k_cap.min(n);
    // best[k][e]: optimal cost of segmenting [0, e) into exactly k parts.
    // Row k at e reads row k − 1 before e only, so the program runs e by e:
    // the costs of every last segment ending at e are computed once and
    // shared by all k. Row k reads row k − 1 at s ≥ k − 1 only (fewer
    // blocks than parts is infeasible); a prefix that is infeasible for
    // other reasons stays INFINITY and never wins the strict comparison.
    let mut best = vec![vec![f64::INFINITY; n + 1]; k_cap + 1];
    let mut parent = vec![vec![0usize; n + 1]; k_cap + 1];
    let mut w = Vec::with_capacity(mps);
    best[0][0] = 0.0;
    for e in 1..=n {
        let lo = e.saturating_sub(mps);
        costs.costs_ending_at(lo, e, &mut w);
        for k in 1..=k_cap.min(e) {
            let from = lo.max(k - 1);
            let (c, i) = cheapest(&best[k - 1][from..e], &w[from - lo..]);
            if c < best[k][e] {
                best[k][e] = c;
                parent[k][e] = from + i;
            }
        }
    }
    trace_bounded(&best, &parent, n)
}

/// The cheapest of `best[k][n]` over every admissible `k` (the first on a
/// tie), traced back through `parent`.
fn trace_bounded(best: &[Vec<f64>], parent: &[Vec<usize>], n: usize) -> Solution {
    let (k_best, &cost) = best
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, row)| (k, &row[n]))
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite costs"))
        .expect("at least one k");
    assert!(
        cost.is_finite(),
        "constraints infeasible despite feasibility pre-check"
    );
    let mut ends = Vec::new();
    let mut e = n;
    let mut k = k_best;
    while e > 0 {
        ends.push(e);
        e = parent[k][e];
        k -= 1;
    }
    ends.reverse();
    Solution {
        seg: PartitionSpec::new(ends),
        cost,
    }
}

/// The capped program as it ran before the shared segment costs and the
/// unconstrained-first skip: every candidate through
/// [`SegmentCosts::segment_cost`], every infeasible prefix tested. The
/// oracle `solver::equivalence` holds [`solve`] to.
#[cfg(test)]
pub(crate) fn solve_bounded_reference(costs: &SegmentCosts, mps: usize, k_cap: usize) -> Solution {
    let n = costs.n_blocks();
    let k_cap = k_cap.min(n);
    let mut best = vec![vec![f64::INFINITY; n + 1]; k_cap + 1];
    let mut parent = vec![vec![0usize; n + 1]; k_cap + 1];
    best[0][0] = 0.0;
    for k in 1..=k_cap {
        for e in k..=n {
            let lo = e.saturating_sub(mps);
            for s in lo..e {
                if best[k - 1][s].is_finite() {
                    let c = best[k - 1][s] + costs.segment_cost(s, e - 1);
                    if c < best[k][e] {
                        best[k][e] = c;
                        parent[k][e] = s;
                    }
                }
            }
        }
    }
    trace_bounded(&best, &parent, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_of_segmentation, CostConstants};
    use crate::fm::FrequencyModel;
    use crate::solver::equivalence::{random_fm, random_terms, rho_strategy, row_major_terms};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn terms_for(fm: &FrequencyModel) -> BlockTerms {
        BlockTerms::from_fm(fm, &CostConstants::paper())
    }

    #[test]
    fn pure_point_queries_want_singleton_partitions() {
        let mut fm = FrequencyModel::new(8);
        fm.pq = vec![10.0; 8];
        let sol = solve(&terms_for(&fm), &SolverConstraints::none());
        assert_eq!(sol.seg.partition_count(), 8, "{}", sol.seg);
    }

    #[test]
    fn pure_inserts_want_single_partition() {
        let mut fm = FrequencyModel::new(8);
        fm.ins = vec![10.0; 8];
        let sol = solve(&terms_for(&fm), &SolverConstraints::none());
        assert_eq!(sol.seg.partition_count(), 1, "{}", sol.seg);
    }

    #[test]
    fn mixed_workload_splits_hot_read_region() {
        // Reads hammer blocks 0-3, inserts hammer blocks 12-15: the read
        // region should be finely partitioned, the insert region coarse.
        let mut fm = FrequencyModel::new(16);
        for i in 0..4 {
            fm.pq[i] = 50.0;
        }
        for i in 12..16 {
            fm.ins[i] = 50.0;
        }
        let sol = solve(&terms_for(&fm), &SolverConstraints::none());
        let sizes: Vec<usize> = sol.seg.block_ranges().map(|r| r.len()).collect();
        // First partitions (read region) must be narrower than the last
        // (insert region).
        assert!(
            sizes[0] <= 2,
            "hot read region coarser than expected: {}",
            sol.seg
        );
        assert!(
            *sizes.last().unwrap() >= 4,
            "insert region finer than expected: {}",
            sol.seg
        );
    }

    #[test]
    fn solution_cost_matches_model_evaluation() {
        let mut fm = FrequencyModel::new(12);
        fm.pq = (0..12).map(|i| i as f64).collect();
        fm.ins = (0..12).map(|i| (11 - i) as f64).collect();
        fm.rs[3] = 5.0;
        fm.sc[4] = 5.0;
        fm.re[5] = 5.0;
        let terms = terms_for(&fm);
        let sol = solve(&terms, &SolverConstraints::none());
        let eval = cost_of_segmentation(&sol.seg, &terms);
        assert!((sol.cost - eval).abs() < 1e-6 * (1.0 + eval.abs()));
    }

    #[test]
    fn max_partition_blocks_is_respected() {
        let mut fm = FrequencyModel::new(10);
        fm.ins = vec![10.0; 10]; // wants one big partition
        let sol = solve(
            &terms_for(&fm),
            &SolverConstraints {
                max_partitions: None,
                max_partition_blocks: Some(3),
            },
        );
        assert!(sol.seg.max_partition_blocks() <= 3, "{}", sol.seg);
        assert!(sol.seg.partition_count() >= 4);
    }

    #[test]
    fn max_partitions_is_respected() {
        let mut fm = FrequencyModel::new(10);
        fm.pq = vec![10.0; 10]; // wants 10 partitions
        let sol = solve(
            &terms_for(&fm),
            &SolverConstraints {
                max_partitions: Some(3),
                max_partition_blocks: None,
            },
        );
        assert!(sol.seg.partition_count() <= 3, "{}", sol.seg);
    }

    #[test]
    fn bounded_equals_unbounded_when_cap_not_binding() {
        let mut fm = FrequencyModel::new(9);
        fm.pq = vec![1.0, 0.0, 3.0, 0.0, 0.0, 2.0, 1.0, 0.0, 4.0];
        fm.ins = vec![0.5; 9];
        let terms = terms_for(&fm);
        let free = solve(&terms, &SolverConstraints::none());
        let capped = solve(
            &terms,
            &SolverConstraints {
                max_partitions: Some(9),
                max_partition_blocks: None,
            },
        );
        assert!((free.cost - capped.cost).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_constraints_panic() {
        let fm = FrequencyModel::new(10);
        let _ = solve(
            &terms_for(&fm),
            &SolverConstraints {
                max_partitions: Some(2),
                max_partition_blocks: Some(3),
            },
        );
    }

    #[test]
    fn single_block_chunk() {
        let mut fm = FrequencyModel::new(1);
        fm.pq[0] = 5.0;
        let sol = solve(&terms_for(&fm), &SolverConstraints::none());
        assert_eq!(sol.seg.partition_count(), 1);
        assert_eq!(sol.seg.n_blocks(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Eq. 16's segment cost satisfies the quadrangle inequality
        /// `w(a, b') + w(a', b) ≥ w(a, b) + w(a', b')` for every
        /// `a ≤ a' ≤ b ≤ b'`, the property a monotone-split DP relies on:
        /// the difference is `(a' − a)·Σ_(b, b'] bck + (b' − b)·Σ_[a, a') fwd`,
        /// never negative while `bck` and `fwd` are not, whatever the sign
        /// of `fixed` and `parts`. The terms are drawn directly (whole or fractional values) or
        /// built from a generated Frequency Model by
        /// [`BlockTerms::with_ripple_share`], whose `parts` mix signs.
        #[test]
        fn segment_cost_satisfies_the_quadrangle_inequality(
            seed in any::<u64>(),
            direct in any::<bool>(),
            rho in rho_strategy(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let terms = if direct {
                let n = rng.gen_range(1..24);
                random_terms(&mut rng, n)
            } else {
                row_major_terms(&random_fm(&mut rng, 23), rho)
            };
            let costs = SegmentCosts::new(&terms);
            let (n, w) = (costs.n_blocks(), |a, b| costs.segment_cost(a, b));
            for a in 0..n {
                for a2 in a..n {
                    for b in a2..n {
                        for b2 in b..n {
                            let (lhs, rhs) = (w(a, b2) + w(a2, b), w(a, b) + w(a2, b2));
                            let tol = 1e-9 * lhs.abs().max(rhs.abs()).max(1.0);
                            prop_assert!(
                                lhs >= rhs - tol,
                                "a={a} a'={a2} b={b} b'={b2}: {lhs} < {rhs}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn segment_cost_prefix_sums_match_direct_sum() {
        let mut fm = FrequencyModel::new(6);
        fm.pq = vec![1.0, 2.0, 0.0, 4.0, 1.0, 3.0];
        fm.ins = vec![0.0, 1.0, 2.0, 0.0, 1.0, 0.0];
        fm.de = vec![1.0; 6];
        let terms = terms_for(&fm);
        let costs = SegmentCosts::new(&terms);
        for a in 0..6 {
            for b in a..6 {
                let mut direct = 0.0;
                for i in a..=b {
                    direct += terms.fixed[i]
                        + terms.bck[i] * (i - a) as f64
                        + terms.fwd[i] * (b - i) as f64;
                }
                direct += terms.parts[..=b].iter().sum::<f64>();
                let fast = costs.segment_cost(a, b);
                assert!(
                    (direct - fast).abs() < 1e-9 * (1.0 + direct.abs()),
                    "a={a} b={b}: {direct} vs {fast}"
                );
            }
        }
    }
}

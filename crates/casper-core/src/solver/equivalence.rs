//! Cross-solver equivalence: the exact segmentation DP, the literal Eq. 20
//! branch-and-bound, and exhaustive enumeration must agree on the optimal
//! cost for arbitrary valid Frequency Models, with and without SLA
//! constraints — the property that justifies replacing Mosek (argued in
//! `solver/dp.rs`). The same holds for the terms a row-major chunk is
//! solved with, whose ripple charge is scaled by the share `ρ` of its slot
//! demand the reserve leaves uncovered: all zero, mixed in sign, or
//! Eq. 17's.
//!
//! The capped DP that ships (the unconstrained optimum first, each last
//! segment's cost shared by every partition count) is held to the capped
//! program it replaced,
//! `dp::solve_bounded_reference`, on random terms: the same cost bit for
//! bit, and the same layout unless the reference's optimum is an exact tie.
//!
//! `CASPER_STRESS_SEEDS` (comma-separated, default "1,2") adds seeded
//! rounds of the row-major and capped-DP properties on top of the proptest
//! cases.

use super::{bip, dp, exhaustive, SolverConstraints};
use crate::cost::{
    cost_of_boundaries, cost_of_segmentation, BlockGeometry, BlockTerms, CostConstants,
};
use crate::fm::FrequencyModel;
use casper_storage::PartitionSpec;
use casper_storage::PayloadOrientation;
use proptest::prelude::*;
use rand::prelude::*;

/// Cases per stress seed.
const STRESS_CASES: u64 = 64;

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

/// The terms a row-major chunk of the narrow table (16 KB blocks, 15
/// payload words) is solved with when its reserve leaves the share `rho`
/// of its slot demand uncovered.
pub(super) fn row_major_terms(fm: &FrequencyModel, rho: f64) -> BlockTerms {
    let g = BlockGeometry::of_chunk(16 * 1024, 15, PayloadOrientation::Rows);
    BlockTerms::with_ripple_share(fm, &CostConstants::paper(), &g, rho)
}

/// The DP, branch-and-bound and exhaustive enumeration reach the same
/// optimum of `terms` under `constraints`, each with an admissible layout.
fn solvers_agree(terms: &BlockTerms, constraints: &SolverConstraints) -> Result<(), String> {
    let ex = exhaustive::solve(terms, constraints);
    let d = dp::solve(terms, constraints);
    let (b, _) = bip::solve(terms, constraints);
    if !(constraints.admits(&d.seg) && constraints.admits(&b.seg)) {
        return Err(format!("inadmissible layout: dp {} bnb {}", d.seg, b.seg));
    }
    let tol = 1e-6 * (1.0 + ex.cost.abs());
    let eval = cost_of_segmentation(&d.seg, terms);
    for (name, cost) in [("dp", d.cost), ("bnb", b.cost), ("dp re-evaluated", eval)] {
        if (cost - ex.cost).abs() >= tol {
            return Err(format!("{name} {cost} vs exhaustive {}", ex.cost));
        }
    }
    Ok(())
}

/// `seg`'s cost as the DP sums it: segment costs left to right.
fn dp_cost_of(costs: &dp::SegmentCosts, seg: &PartitionSpec) -> f64 {
    seg.block_ranges()
        .fold(0.0, |acc, r| acc + costs.segment_cost(r.start, r.end - 1))
}

/// [`dp::solve`] under a cap of `k` partitions of at most `mps` blocks
/// agrees with the capped reference program: the same cost bit for bit,
/// and the same layout unless the two are an exact tie. When the
/// unconstrained optimum fits the cap, it is the layout returned.
fn capped_dp_matches_reference(terms: &BlockTerms, k: usize, mps: usize) -> Result<(), String> {
    let n = terms.n_blocks();
    let capped = SolverConstraints {
        max_partitions: Some(k),
        max_partition_blocks: Some(mps),
    };
    if !capped.feasible(n) {
        return Ok(());
    }
    let costs = dp::SegmentCosts::new(terms);
    let got = dp::solve(terms, &capped);
    let want = dp::solve_bounded_reference(&costs, mps.min(n), k);
    if !capped.admits(&got.seg) {
        return Err(format!("inadmissible layout {} under {capped:?}", got.seg));
    }
    if got.cost.to_bits() != want.cost.to_bits() {
        return Err(format!("cost {} vs reference {}", got.cost, want.cost));
    }
    if got.seg != want.seg && dp_cost_of(&costs, &got.seg).to_bits() != want.cost.to_bits() {
        return Err(format!(
            "layout {} vs reference {} without a tie",
            got.seg, want.seg
        ));
    }
    let free = dp::solve(
        terms,
        &SolverConstraints {
            max_partitions: None,
            max_partition_blocks: Some(mps),
        },
    );
    if free.seg.partition_count() <= k && got.seg != free.seg {
        return Err(format!(
            "cap {k} does not bind, yet {} differs from the free optimum {}",
            got.seg, free.seg
        ));
    }
    Ok(())
}

/// Random per-block terms over `n` blocks: fractional or small whole
/// values (whole ones make exact ties likely), `parts` of either sign.
pub(super) fn random_terms(rng: &mut StdRng, n: usize) -> BlockTerms {
    let whole = rng.gen_bool(0.5);
    let mut draw = |lo: f64, hi: f64| {
        let x = rng.gen_range(lo..hi);
        if whole {
            x.round()
        } else {
            x
        }
    };
    BlockTerms {
        fixed: (0..n).map(|_| draw(0.0, 50.0)).collect(),
        bck: (0..n).map(|_| draw(0.0, 8.0)).collect(),
        fwd: (0..n).map(|_| draw(0.0, 8.0)).collect(),
        parts: (0..n).map(|_| draw(-10.0, 10.0)).collect(),
    }
}

/// A valid (update-balanced) Frequency Model of up to `max_blocks` blocks
/// drawn from `rng`, shaped as [`fm_strategy`]'s.
pub(super) fn random_fm(rng: &mut StdRng, max_blocks: usize) -> FrequencyModel {
    let n = rng.gen_range(2..=max_blocks);
    let mut fm = FrequencyModel::new(n);
    for h in [
        &mut fm.pq,
        &mut fm.rs,
        &mut fm.sc,
        &mut fm.re,
        &mut fm.de,
        &mut fm.ins,
    ] {
        h.iter_mut().for_each(|x| *x = rng.gen_range(0.0..20.0));
    }
    for _ in 0..rng.gen_range(0..3 * n) {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
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

/// A share of the slot demand left uncovered: none, all, or any between.
pub(super) fn rho_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]
}

/// Strategy producing a valid (update-balanced) Frequency Model.
fn fm_strategy(max_blocks: usize) -> impl Strategy<Value = FrequencyModel> {
    (2usize..=max_blocks)
        .prop_flat_map(move |n| {
            let hist = proptest::collection::vec(0.0f64..20.0, n);
            let pairs = proptest::collection::vec((0..n, 0..n), 0..3 * n);
            (
                Just(n),
                hist.clone(),
                hist.clone(),
                hist.clone(),
                hist.clone(),
                hist.clone(),
                hist,
                pairs,
            )
        })
        .prop_map(|(n, pq, rs, sc, re, de, ins, pairs)| {
            let mut fm = FrequencyModel::new(n);
            fm.pq = pq;
            fm.rs = rs;
            fm.sc = sc;
            fm.re = re;
            fm.de = de;
            fm.ins = ins;
            for (i, j) in pairs {
                if j > i {
                    fm.udf[i] += 1.0;
                    fm.utf[j] += 1.0;
                } else {
                    fm.udb[i] += 1.0;
                    fm.utb[j] += 1.0;
                }
            }
            fm
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_equals_exhaustive_equals_bnb(fm in fm_strategy(10)) {
        fm.validate().expect("generated FM must be valid");
        let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
        let none = SolverConstraints::none();
        let ex = exhaustive::solve(&terms, &none);
        let d = dp::solve(&terms, &none);
        let (b, _) = bip::solve(&terms, &none);
        let tol = 1e-6 * (1.0 + ex.cost.abs());
        prop_assert!((d.cost - ex.cost).abs() < tol, "dp {} vs exhaustive {}", d.cost, ex.cost);
        prop_assert!((b.cost - ex.cost).abs() < tol, "bnb {} vs exhaustive {}", b.cost, ex.cost);
        // The DP's reported cost must equal re-evaluating its layout.
        let eval = cost_of_segmentation(&d.seg, &terms);
        prop_assert!((d.cost - eval).abs() < tol);
    }

    #[test]
    fn constrained_solvers_agree(
        fm in fm_strategy(9),
        kcap in 1usize..5,
        mps in 2usize..6,
    ) {
        let n = fm.n_blocks();
        let constraints = SolverConstraints {
            max_partitions: Some(kcap),
            max_partition_blocks: Some(mps),
        };
        if !constraints.feasible(n) {
            return Ok(());
        }
        let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
        let ex = exhaustive::solve(&terms, &constraints);
        let d = dp::solve(&terms, &constraints);
        let (b, _) = bip::solve(&terms, &constraints);
        prop_assert!(constraints.admits(&d.seg));
        prop_assert!(constraints.admits(&b.seg));
        let tol = 1e-6 * (1.0 + ex.cost.abs());
        prop_assert!((d.cost - ex.cost).abs() < tol, "dp {} vs ex {}", d.cost, ex.cost);
        prop_assert!((b.cost - ex.cost).abs() < tol, "bnb {} vs ex {}", b.cost, ex.cost);
    }

    #[test]
    fn row_major_reserve_terms_agree(
        fm in fm_strategy(10),
        rho in rho_strategy(),
        kcap in 1usize..5,
        mps in 2usize..6,
    ) {
        let terms = row_major_terms(&fm, rho);
        solvers_agree(&terms, &SolverConstraints::none()).map_err(TestCaseError::fail)?;
        let constraints = SolverConstraints {
            max_partitions: Some(kcap),
            max_partition_blocks: Some(mps),
        };
        if constraints.feasible(fm.n_blocks()) {
            solvers_agree(&terms, &constraints).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn capped_dp_equals_reference_program(
        seed in any::<u64>(),
        n in 1usize..40,
        k in 1usize..40,
        mps in 1usize..40,
    ) {
        let terms = random_terms(&mut StdRng::seed_from_u64(seed), n);
        capped_dp_matches_reference(&terms, k, mps).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn linearized_objective_matches_eq16_for_any_boundaries(
        fm in fm_strategy(9),
        bits in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let n = fm.n_blocks();
        let mut p: Vec<bool> = bits.into_iter().take(n).collect();
        p.resize(n, false);
        p[n - 1] = true;
        let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
        let model = bip::BipModel::from_terms(&terms);
        let lin = model.objective_of_boundaries(&p);
        let lit = cost_of_boundaries(&p, &terms);
        prop_assert!(
            (lin - lit).abs() < 1e-6 * (1.0 + lit.abs()),
            "linearized {} vs literal {}", lin, lit
        );
    }

    #[test]
    fn optimal_cost_never_above_heuristic_layouts(fm in fm_strategy(12)) {
        let n = fm.n_blocks();
        let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
        let opt = dp::solve(&terms, &SolverConstraints::none());
        for k in 1..=n {
            let equi = PartitionSpec::equi_width(n, k);
            let c = cost_of_segmentation(&equi, &terms);
            prop_assert!(
                opt.cost <= c + 1e-6 * (1.0 + c.abs()),
                "optimal {} beaten by equi-{k} {}", opt.cost, c
            );
        }
    }
}

#[test]
fn row_major_reserve_terms_agree_over_stress_seeds() {
    for seed in env_seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..STRESS_CASES {
            let fm = random_fm(&mut rng, 10);
            let rho = match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.0..1.0),
            };
            let constraints = SolverConstraints {
                max_partitions: Some(rng.gen_range(1..5)),
                max_partition_blocks: Some(rng.gen_range(2..6)),
            };
            let terms = row_major_terms(&fm, rho);
            let mut checks = vec![SolverConstraints::none()];
            checks.extend(constraints.feasible(fm.n_blocks()).then_some(constraints));
            for c in checks {
                if let Err(e) = solvers_agree(&terms, &c) {
                    panic!("seed {seed} case {case} (rho {rho}, {c:?}): {e}");
                }
            }
        }
    }
}

#[test]
fn capped_dp_equals_reference_program_over_stress_seeds() {
    for seed in env_seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..STRESS_CASES {
            let n = rng.gen_range(1..=96);
            let terms = random_terms(&mut rng, n);
            let (k, mps) = (rng.gen_range(1..=n), rng.gen_range(1..=n));
            if let Err(e) = capped_dp_matches_reference(&terms, k, mps) {
                panic!("seed {seed} case {case} (n {n}, k {k}, mps {mps}): {e}");
            }
        }
    }
}

//! Cross-solver equivalence: the exact segmentation DP, the literal Eq. 20
//! branch-and-bound, and exhaustive enumeration must agree on the optimal
//! cost for arbitrary valid Frequency Models, with and without SLA
//! constraints — the property that justifies replacing Mosek (argued in
//! `solver/dp.rs`).

use super::{bip, dp, exhaustive, SolverConstraints};
use crate::cost::{cost_of_boundaries, cost_of_segmentation, BlockTerms, CostConstants};
use crate::fm::FrequencyModel;
use proptest::prelude::*;

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
            let equi = crate::Segmentation::equi(n, k);
            let c = cost_of_segmentation(&equi, &terms);
            prop_assert!(
                opt.cost <= c + 1e-6 * (1.0 + c.abs()),
                "optimal {} beaten by equi-{k} {}", opt.cost, c
            );
        }
    }
}

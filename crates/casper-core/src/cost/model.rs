//! The partitioning-dependent cost functions (Eq. 2–16).
//!
//! Two equivalent evaluators are provided:
//!
//! * **literal** — `bck_read`/`fwd_read` computed exactly as the paper's
//!   sum-of-products over the boundary bits (Eq. 2/4), `O(N)` per block.
//!   Used as ground truth in tests.
//! * **closed-form** — for a block `i` inside partition `[a, b]`:
//!   `bck_read(i) = i − a`, `fwd_read(i) = b − i`, and `trail_parts(i)` is
//!   the number of partitions from `i`'s onwards. `O(N)` for the whole
//!   chunk; this is what the solver and the engine use.
//!
//! Their equality on random inputs is property-tested, which validates the
//! algebraic rewrite that makes the exact DP solver possible (derived in
//! `solver/dp.rs`).

use super::terms::BlockTerms;
use crate::layout::Segmentation;

/// `bck_read(i)` per Eq. 2: Σ_{j=0}^{i−1} Π_{k=j}^{i−1} (1 − p_k).
pub fn bck_read_literal(p: &[bool], i: usize) -> f64 {
    let mut total = 0.0;
    for j in 0..i {
        let mut prod = 1.0;
        for &pk in &p[j..i] {
            prod *= 1.0 - f64::from(u8::from(pk));
        }
        total += prod;
    }
    total
}

/// `fwd_read(i)` per Eq. 4: Σ_{j=0}^{N−i−1} Π_{k=i}^{N−j−1} (1 − p_k).
///
/// Each addend is 1 exactly when no boundary lies in `[i, N−j−1]`; summing
/// over `j` counts the blocks after `i` in the same partition.
pub fn fwd_read_literal(p: &[bool], i: usize) -> f64 {
    let n = p.len();
    let mut total = 0.0;
    for j in 0..n - i {
        let hi = n - j - 1; // inclusive upper index of the product
        if hi < i {
            continue;
        }
        let mut prod = 1.0;
        for &pk in &p[i..=hi] {
            prod *= 1.0 - f64::from(u8::from(pk));
        }
        total += prod;
    }
    total
}

/// `trail_parts(i)` per Eq. 8: Σ_{j=i}^{N−1} p_j.
pub fn trail_parts(p: &[bool], i: usize) -> f64 {
    p[i..].iter().map(|&b| f64::from(u8::from(b))).sum()
}

/// Closed form of `bck_read(i)`: distance from `i` to the start of its
/// partition.
pub fn bck_read_closed(seg: &Segmentation, i: usize) -> f64 {
    (i - seg.partition_start(i)) as f64
}

/// Closed form of `fwd_read(i)`: distance from `i` to the end of its
/// partition.
pub fn fwd_read_closed(seg: &Segmentation, i: usize) -> f64 {
    (seg.partition_end(i) - 1 - i) as f64
}

/// Per-operation-class cost decomposition of a layout (useful for Fig. 2
/// style analyses and debugging).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCostBreakdown {
    /// Partition-independent cost.
    pub fixed: f64,
    /// Cost of leading unnecessary reads (`bck_term · bck_read`).
    pub bck: f64,
    /// Cost of trailing unnecessary reads (`fwd_term · fwd_read`).
    pub fwd: f64,
    /// Ripple cost (`parts_term · trail_parts`).
    pub parts: f64,
}

impl OpCostBreakdown {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.fixed + self.bck + self.fwd + self.parts
    }
}

/// Total workload cost (Eq. 16) of a boundary vector, evaluated with the
/// *literal* Eq. 2/4/8 definitions. `O(N³)` — test/reference use only.
pub fn cost_of_boundaries(p: &[bool], terms: &BlockTerms) -> f64 {
    assert_eq!(p.len(), terms.n_blocks());
    assert!(p.last().copied().unwrap_or(false), "p_{{N-1}} must be 1");
    let mut total = 0.0;
    for i in 0..p.len() {
        total += terms.fixed[i]
            + terms.bck[i] * bck_read_literal(p, i)
            + terms.fwd[i] * fwd_read_literal(p, i)
            + terms.parts[i] * trail_parts(p, i);
    }
    total
}

/// Total workload cost (Eq. 16) of a segmentation, evaluated with the
/// closed forms — `O(N)`.
pub fn cost_of_segmentation(seg: &Segmentation, terms: &BlockTerms) -> f64 {
    cost_breakdown(seg, terms).total()
}

/// As [`cost_of_segmentation`], broken down by term class.
pub fn cost_breakdown(seg: &Segmentation, terms: &BlockTerms) -> OpCostBreakdown {
    assert_eq!(seg.n_blocks(), terms.n_blocks());
    let mut out = OpCostBreakdown::default();
    let k = seg.partition_count();
    for (rank, range) in seg.ranges().enumerate() {
        let trail = (k - rank) as f64;
        for i in range.clone() {
            out.fixed += terms.fixed[i];
            out.bck += terms.bck[i] * (i - range.start) as f64;
            out.fwd += terms.fwd[i] * (range.end - 1 - i) as f64;
            out.parts += terms.parts[i] * trail;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostConstants;
    use crate::fm::FrequencyModel;

    fn p(bits: &[u8]) -> Vec<bool> {
        bits.iter().map(|&b| b != 0).collect()
    }

    #[test]
    fn bck_read_counts_leading_blocks_in_partition() {
        // Partitions: [0..3), [3..5) → boundaries at 2 and 4.
        let bounds = p(&[0, 0, 1, 0, 1]);
        assert_eq!(bck_read_literal(&bounds, 0), 0.0);
        assert_eq!(bck_read_literal(&bounds, 1), 1.0);
        assert_eq!(bck_read_literal(&bounds, 2), 2.0);
        assert_eq!(bck_read_literal(&bounds, 3), 0.0);
        assert_eq!(bck_read_literal(&bounds, 4), 1.0);
    }

    #[test]
    fn fwd_read_counts_trailing_blocks_in_partition() {
        let bounds = p(&[0, 0, 1, 0, 1]);
        assert_eq!(fwd_read_literal(&bounds, 0), 2.0);
        assert_eq!(fwd_read_literal(&bounds, 1), 1.0);
        assert_eq!(fwd_read_literal(&bounds, 2), 0.0);
        assert_eq!(fwd_read_literal(&bounds, 3), 1.0);
        assert_eq!(fwd_read_literal(&bounds, 4), 0.0);
    }

    #[test]
    fn trail_parts_counts_boundaries_from_i() {
        let bounds = p(&[0, 1, 0, 1, 1]);
        assert_eq!(trail_parts(&bounds, 0), 3.0);
        assert_eq!(trail_parts(&bounds, 2), 2.0);
        assert_eq!(trail_parts(&bounds, 4), 1.0);
    }

    #[test]
    fn closed_forms_match_literal_on_example() {
        let bounds = p(&[0, 1, 0, 0, 1, 1, 0, 1]);
        let seg = Segmentation::from_boundaries(&bounds);
        for i in 0..bounds.len() {
            assert_eq!(
                bck_read_literal(&bounds, i),
                bck_read_closed(&seg, i),
                "bck at {i}"
            );
            assert_eq!(
                fwd_read_literal(&bounds, i),
                fwd_read_closed(&seg, i),
                "fwd at {i}"
            );
        }
    }

    #[test]
    fn paper_rs2_example() {
        // §4.4 worked example: cost of a range start in block 2 is
        // rs2·RR + rs2·SR·((1−p1) + (1−p1)(1−p0)).
        // With p0 = p1 = 0: bck_read(2) = 2; with p1 = 1: bck_read(2) = 0.
        let no_bounds = p(&[0, 0, 0, 1]);
        assert_eq!(bck_read_literal(&no_bounds, 2), 2.0);
        let with_bound = p(&[0, 1, 0, 1]);
        assert_eq!(bck_read_literal(&with_bound, 2), 0.0);
    }

    fn random_fm(n: usize, seed: u64) -> FrequencyModel {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fm = FrequencyModel::new(n);
        for i in 0..n {
            fm.pq[i] = rng.gen_range(0.0..5.0);
            fm.rs[i] = rng.gen_range(0.0..3.0);
            fm.sc[i] = rng.gen_range(0.0..3.0);
            fm.re[i] = rng.gen_range(0.0..3.0);
            fm.de[i] = rng.gen_range(0.0..2.0);
            fm.ins[i] = rng.gen_range(0.0..2.0);
        }
        // Balanced updates.
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
    fn literal_and_closed_costs_agree_randomized() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..50 {
            let n = rng.gen_range(1..12);
            let fm = random_fm(n, case);
            let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
            let mut bounds: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            bounds[n - 1] = true;
            let seg = Segmentation::from_boundaries(&bounds);
            let lit = cost_of_boundaries(&bounds, &terms);
            let closed = cost_of_segmentation(&seg, &terms);
            assert!(
                (lit - closed).abs() < 1e-6 * (1.0 + lit.abs()),
                "case {case}: literal {lit} vs closed {closed}"
            );
        }
    }

    #[test]
    fn more_partitions_cheaper_reads_dearer_inserts() {
        // The Fig. 2a intuition, checked through the model.
        let n = 16;
        let mut read_fm = FrequencyModel::new(n);
        read_fm.pq = vec![1.0; n];
        let mut write_fm = FrequencyModel::new(n);
        write_fm.ins = vec![1.0; n];
        let c = CostConstants::paper();
        let read_terms = BlockTerms::from_fm(&read_fm, &c);
        let write_terms = BlockTerms::from_fm(&write_fm, &c);
        let coarse = Segmentation::equi(n, 2);
        let fine = Segmentation::equi(n, 8);
        assert!(
            cost_of_segmentation(&fine, &read_terms) < cost_of_segmentation(&coarse, &read_terms),
            "reads favor more partitions"
        );
        assert!(
            cost_of_segmentation(&fine, &write_terms) > cost_of_segmentation(&coarse, &write_terms),
            "inserts favor fewer partitions"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let fm = random_fm(10, 3);
        let terms = BlockTerms::from_fm(&fm, &CostConstants::paper());
        let seg = Segmentation::equi(10, 3);
        let b = cost_breakdown(&seg, &terms);
        assert!((b.total() - cost_of_segmentation(&seg, &terms)).abs() < 1e-9);
        assert!(b.fixed > 0.0);
    }
}

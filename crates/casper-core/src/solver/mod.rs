//! Finding the optimal column layout (§5).
//!
//! The paper formulates layout selection as a binary integer program over
//! the boundary variables `p_i` (Eq. 19), linearizes the products with
//! auxiliary `y_{i,j}` variables (Eq. 20), adds SLA bounds (Eq. 21), and
//! solves with the commercial Mosek solver.
//!
//! This reproduction replaces Mosek with three cross-validated solvers:
//!
//! * [`dp`] — an exact `O(N²)` segmentation dynamic program. Because
//!   Eq. 16 decomposes additively over partitions, the DP optimum *is* the
//!   BIP optimum; both SLA families map directly to DP constraints.
//! * [`bip`] — the literal Eq. 20 model (variables, constraints, objective)
//!   plus a branch-and-bound solver with an admissible suffix-DP bound.
//! * [`exhaustive`] — brute-force enumeration for small `N`, the ground
//!   truth in tests.

pub mod bip;
pub mod dp;
pub mod exhaustive;
pub mod sla;

/// Per-thread solver-invocation instrumentation.
///
/// Every [`dp::solve`] call — the production solver behind
/// [`LayoutOptimizer::optimize`] — bumps a thread-local counter. The
/// durability tests use it to *prove* that restoring a snapshot performs
/// zero layout solves: the optimized partitioning comes back from disk, not
/// from re-running the optimizer.
pub mod telemetry {
    use std::cell::Cell;

    thread_local! {
        static SOLVES: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one solver invocation (called by [`super::dp::solve`]).
    pub(crate) fn note_solve() {
        SOLVES.with(|c| c.set(c.get() + 1));
    }

    /// Number of layout solves performed by the current thread.
    pub fn solve_count() -> u64 {
        SOLVES.with(Cell::get)
    }
}

use crate::cost::{BlockTerms, CostConstants};
use crate::fm::FrequencyModel;
use crate::ghost_alloc::allocate_ghosts;
use crate::layout::Segmentation;
use casper_storage::ghost::GhostPlan;

/// Constraints on admissible partitionings (the Eq. 21 bounds, expressed
/// structurally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverConstraints {
    /// Maximum number of partitions (from an update/insert SLA).
    pub max_partitions: Option<usize>,
    /// Maximum partition width in blocks (`MPS`, from a read SLA).
    pub max_partition_blocks: Option<usize>,
}

impl SolverConstraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether a segmentation satisfies the constraints.
    pub fn admits(&self, seg: &Segmentation) -> bool {
        self.max_partitions
            .is_none_or(|k| seg.partition_count() <= k)
            && self
                .max_partition_blocks
                .is_none_or(|w| seg.max_partition_blocks() <= w)
    }

    /// Whether any segmentation of `n` blocks can satisfy the constraints
    /// (`max_partitions · MPS ≥ N`).
    pub fn feasible(&self, n_blocks: usize) -> bool {
        let k = self.max_partitions.unwrap_or(n_blocks).max(1);
        let w = self.max_partition_blocks.unwrap_or(n_blocks).max(1);
        k.saturating_mul(w) >= n_blocks
    }
}

/// An optimal (or best-found) layout with its modeled cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The chosen partitioning.
    pub seg: Segmentation,
    /// Modeled workload cost (Eq. 16) in nanoseconds.
    pub cost: f64,
}

/// End-to-end optimizer: Frequency Model in, partitioning + ghost plan out
/// (the "B" box of Fig. 10).
#[derive(Debug, Clone)]
pub struct LayoutOptimizer {
    /// Cost constants used for Eq. 17.
    pub constants: CostConstants,
    /// SLA-derived structural constraints.
    pub constraints: SolverConstraints,
}

/// A complete per-chunk layout decision.
#[derive(Debug, Clone)]
pub struct LayoutDecision {
    /// The partitioning.
    pub seg: Segmentation,
    /// Ghost slots per partition (Eq. 18).
    pub ghosts: GhostPlan,
    /// Modeled workload cost of the chosen layout.
    pub est_cost: f64,
}

impl LayoutOptimizer {
    /// Optimizer with the given constants and no constraints.
    pub fn new(constants: CostConstants) -> Self {
        Self {
            constants,
            constraints: SolverConstraints::none(),
        }
    }

    /// Attach constraints (builder style).
    pub fn with_constraints(mut self, constraints: SolverConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Derive constraints from latency SLAs (Eq. 21).
    pub fn with_slas(mut self, update_sla_ns: Option<f64>, read_sla_ns: Option<f64>) -> Self {
        self.constraints = sla::constraints_from_slas(&self.constants, update_sla_ns, read_sla_ns);
        self
    }

    /// Compute the optimal layout for a Frequency Model and a total ghost
    /// budget (in slots).
    pub fn optimize(&self, fm: &FrequencyModel, ghost_budget: usize) -> LayoutDecision {
        let terms = BlockTerms::from_fm(fm, &self.constants);
        let sol = dp::solve(&terms, &self.constraints);
        let ghosts = allocate_ghosts(fm, &sol.seg, ghost_budget);
        LayoutDecision {
            est_cost: sol.cost,
            seg: sol.seg,
            ghosts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::FrequencyModel;

    #[test]
    fn constraints_admit() {
        let c = SolverConstraints {
            max_partitions: Some(2),
            max_partition_blocks: Some(3),
        };
        assert!(c.admits(&Segmentation::new(vec![3, 6])));
        assert!(!c.admits(&Segmentation::new(vec![1, 2, 6]))); // 3 partitions
        assert!(!c.admits(&Segmentation::new(vec![4, 6]))); // width 4
        assert!(SolverConstraints::none().admits(&Segmentation::single(100)));
    }

    #[test]
    fn feasibility_check() {
        let c = SolverConstraints {
            max_partitions: Some(2),
            max_partition_blocks: Some(3),
        };
        assert!(c.feasible(6));
        assert!(!c.feasible(7));
        assert!(SolverConstraints::none().feasible(1_000_000));
    }

    #[test]
    fn optimizer_end_to_end() {
        let mut fm = FrequencyModel::new(8);
        fm.pq = vec![5.0; 8];
        fm.ins[0] = 3.0;
        let opt = LayoutOptimizer::new(CostConstants::paper());
        let d = opt.optimize(&fm, 16);
        assert_eq!(d.seg.n_blocks(), 8);
        assert_eq!(d.ghosts.total(), 16);
        assert_eq!(d.ghosts.partitions(), d.seg.partition_count());
        assert!(d.est_cost > 0.0);
    }

    #[test]
    fn optimizer_respects_constraints() {
        let mut fm = FrequencyModel::new(10);
        fm.pq = vec![10.0; 10];
        let opt =
            LayoutOptimizer::new(CostConstants::paper()).with_constraints(SolverConstraints {
                max_partitions: Some(3),
                max_partition_blocks: None,
            });
        let d = opt.optimize(&fm, 0);
        assert!(d.seg.partition_count() <= 3);
    }
}

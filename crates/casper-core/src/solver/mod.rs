//! Finding the optimal column layout (§5).
//!
//! The paper formulates layout selection as a binary integer program over
//! the boundary variables `p_i` (Eq. 19), linearizes the products with
//! auxiliary `y_{i,j}` variables (Eq. 20), adds SLA bounds (Eq. 21), and
//! solves with the commercial Mosek solver.
//!
//! This reproduction replaces Mosek with [`dp`], an exact `O(N²)`
//! segmentation dynamic program. Because Eq. 16 decomposes additively over
//! partitions, the DP optimum *is* the BIP optimum; both SLA families map
//! directly to DP constraints. Two test-only oracles check that claim:
//!
//! * `bip` — the literal Eq. 20 model (variables, constraints, objective)
//!   plus a branch-and-bound solver with an admissible suffix-DP bound.
//! * `exhaustive` — brute-force enumeration for small `N`, the ground
//!   truth.
//!
//! `equivalence` property-tests `dp == bip == exhaustive` on arbitrary
//! Frequency Models, with and without SLA constraints.
//!
//! Every solver returns the layout as a [`PartitionSpec`], the value the
//! engine builds or re-lays out the chunk from, with no conversion: each
//! partition's exclusive block end. The boundary vector `p_i` of Eq. 19 is
//! a view of it (`PartitionSpec::{from_boundaries, to_boundaries}`), which
//! the two oracles enumerate and model.

#[cfg(test)]
mod bip;
pub mod dp;
#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod exhaustive;
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

use crate::cost::{BlockGeometry, BlockTerms, CostConstants};
use crate::fm::FrequencyModel;
use crate::ghost_alloc::{allocate_ghosts, uncovered_share};
use casper_storage::{ChunkLayout, PartitionSpec, PayloadOrientation};

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

    /// Whether a partitioning satisfies the constraints.
    pub fn admits(&self, seg: &PartitionSpec) -> bool {
        self.max_partitions
            .is_none_or(|k| seg.partition_count() <= k)
            && self
                .max_partition_blocks
                .is_none_or(|w| seg.max_partition_blocks() <= w)
    }

    /// Whether any partitioning of `n` blocks can satisfy the constraints
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
    pub seg: PartitionSpec,
    /// Modeled workload cost (Eq. 16) in nanoseconds.
    pub cost: f64,
}

/// End-to-end optimizer: Frequency Model in, one [`ChunkLayout`] out (the
/// "B" box of Fig. 10).
#[derive(Debug, Clone)]
pub struct LayoutOptimizer {
    /// Cost constants used for Eq. 17, per cache line.
    pub constants: CostConstants,
    /// Lines per block and per row of the chunks being laid out: derived
    /// from the chunk, not tuned ([`BlockGeometry::of_chunk`]).
    pub geometry: BlockGeometry,
    /// Payload orientation of the chunks being laid out: a row-major
    /// chunk is charged only the ripple its reserve cannot absorb, a
    /// column-major one Eq. 17's ([`LayoutOptimizer::terms`]).
    pub orientation: PayloadOrientation,
    /// SLA-derived structural constraints.
    pub constraints: SolverConstraints,
}

/// A complete per-chunk layout decision.
#[derive(Debug, Clone)]
pub struct LayoutDecision {
    /// The partitioning (Eq. 16), its ghost slots per partition (Eq. 18)
    /// and the optimizer's payload orientation.
    pub layout: ChunkLayout,
    /// Modeled workload cost of the chosen layout.
    pub est_cost: f64,
}

impl LayoutOptimizer {
    /// Optimizer with the given constants, at [`BlockGeometry::UNIT`], for
    /// column-major chunks (the paper's Eq. 17), and no constraints.
    pub fn new(constants: CostConstants) -> Self {
        Self {
            constants,
            geometry: BlockGeometry::UNIT,
            orientation: PayloadOrientation::Columns,
            constraints: SolverConstraints::none(),
        }
    }

    /// Price blocks and rows at `geometry` (builder style). Set it before
    /// [`LayoutOptimizer::with_slas`], which prices the SLAs with it.
    pub fn with_geometry(mut self, geometry: BlockGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Derive constraints from latency SLAs (Eq. 21).
    pub fn with_slas(mut self, update_sla_ns: Option<f64>, read_sla_ns: Option<f64>) -> Self {
        self.constraints =
            sla::constraints_from_slas(&self.constants, &self.geometry, update_sla_ns, read_sla_ns);
        self
    }

    /// The terms a chunk with Frequency Model `fm` and a reserve of
    /// `ghost_budget` ghost slots is solved and priced with, at the
    /// optimizer's geometry. Row-major: the ripple charge covers only the
    /// share of the slot demand the reserve leaves uncovered
    /// ([`BlockTerms::with_ripple_share`]). Column-major: Eq. 17, which
    /// charges every insert and delete a ripple (`cost::terms` says why).
    pub fn terms(&self, fm: &FrequencyModel, ghost_budget: usize) -> BlockTerms {
        let (c, g) = (&self.constants, &self.geometry);
        match self.orientation {
            PayloadOrientation::Columns => BlockTerms::with_geometry(fm, c, g),
            PayloadOrientation::Rows => {
                BlockTerms::with_ripple_share(fm, c, g, uncovered_share(fm, ghost_budget))
            }
        }
    }

    /// Compute the optimal layout for a Frequency Model and a total ghost
    /// budget (in slots), its payload in the optimizer's orientation.
    pub fn optimize(&self, fm: &FrequencyModel, ghost_budget: usize) -> LayoutDecision {
        let terms = self.terms(fm, ghost_budget);
        let sol = dp::solve(&terms, &self.constraints);
        let ghosts = allocate_ghosts(fm, &sol.seg, ghost_budget);
        LayoutDecision {
            layout: ChunkLayout::with_ghosts(sol.seg, ghosts).with_payload(self.orientation),
            est_cost: sol.cost,
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
        assert!(c.admits(&PartitionSpec::new(vec![3, 6])));
        assert!(!c.admits(&PartitionSpec::new(vec![1, 2, 6]))); // 3 partitions
        assert!(!c.admits(&PartitionSpec::new(vec![4, 6]))); // width 4
        assert!(SolverConstraints::none().admits(&PartitionSpec::single(100)));
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
        assert_eq!(d.layout.spec().n_blocks(), 8);
        assert_eq!(d.layout.ghost_total(), 16);
        assert_eq!(d.layout.payload(), PayloadOrientation::Columns);
        assert!(d.est_cost > 0.0);
    }

    #[test]
    fn row_major_ripple_follows_the_reserve() {
        // Inserts spread over 16 blocks, point queries on every block.
        let mut fm = FrequencyModel::new(16);
        fm.pq = vec![2.0; 16];
        fm.ins = vec![4.0; 16];
        let g = BlockGeometry::of_chunk(4096, 15, PayloadOrientation::Rows);
        let cols = LayoutOptimizer::new(CostConstants::paper()).with_geometry(g);
        let rows = LayoutOptimizer {
            orientation: PayloadOrientation::Rows,
            ..cols.clone()
        };
        // Column-major is Eq. 17 whatever the reserve.
        let eq17 = BlockTerms::with_geometry(&fm, &cols.constants, &g);
        assert_eq!(cols.terms(&fm, 64), eq17);
        // Row-major without a reserve charges Eq. 17's ripple; a reserve
        // covering the 64 inserts charges none, and buys more partitions.
        assert_eq!(rows.terms(&fm, 0), eq17);
        assert!(rows.terms(&fm, 64).parts.iter().all(|&p| p == 0.0));
        let (dense, covered) = (rows.optimize(&fm, 0), rows.optimize(&fm, 64));
        let parts = |d: &LayoutDecision| d.layout.spec().partition_count();
        assert!(parts(&covered) > parts(&dense));
        assert_eq!(covered.layout.payload(), PayloadOrientation::Rows);
        assert!(covered.est_cost < dense.est_cost);
    }

    #[test]
    fn optimizer_respects_constraints() {
        let mut fm = FrequencyModel::new(10);
        fm.pq = vec![10.0; 10];
        let opt = LayoutOptimizer {
            constraints: SolverConstraints {
                max_partitions: Some(3),
                max_partition_blocks: None,
            },
            ..LayoutOptimizer::new(CostConstants::paper())
        };
        let d = opt.optimize(&fm, 0);
        assert!(d.layout.spec().partition_count() <= 3);
    }
}

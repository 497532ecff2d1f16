//! # casper-core
//!
//! The column-layout optimizer of *"Optimal Column Layout for Hybrid
//! Workloads"* (Athanassoulis, Bøgh, Idreos — VLDB 2019): given workload
//! knowledge and performance requirements, compute the optimal range
//! partitioning and ghost-value allocation for a column chunk.
//!
//! The pipeline mirrors the paper:
//!
//! 1. **[`fm`] — Frequency Model (§4.2/§4.3)**: ten per-block histograms
//!    capturing how a sample workload (or parametric access distributions)
//!    touches each logical block of the sorted domain.
//! 2. **[`cost`] — Cost model (§4.4)**: closed-form block-access cost of
//!    every operation over an arbitrary partitioning, parameterized by four
//!    calibrated constants (`RR`, `RW`, `SR`, `SW`).
//! 3. **[`solver`] — Optimization (§5)**: the paper solves a linearized
//!    binary integer program with Mosek; we provide (a) an exact `O(N²)`
//!    segmentation dynamic program that provably minimizes the same
//!    objective (Eq. 16) under both SLA constraint families (Eq. 21),
//!    cross-validated in the unit tests against two test-only oracles:
//!    the *literal* Eq. 20 BIP model with a branch-and-bound solver, and
//!    exhaustive enumeration.
//! 4. **[`ghost_alloc`] — Ghost values (§4.6, Eq. 18)**: distribute a slack
//!    budget proportionally to the data movement each partition receives.
//! 5. **[`robust`] — Robustness (§7.5)**: evaluate a layout under
//!    rotational and mass shift of the trained workload.

pub mod cost;
pub mod fm;
pub mod ghost_alloc;
pub mod robust;
pub mod solver;

pub use cost::{BlockGeometry, BlockTerms, CostConstants, Projectivity};
pub use fm::{FrequencyModel, Op};
pub use solver::{LayoutOptimizer, SolverConstraints};

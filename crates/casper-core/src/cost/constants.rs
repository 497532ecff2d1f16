//! The four calibrated cost constants of the I/O model (§4.4, §4.5).
//!
//! "We assume that accessing blocks comes at a cost following a standard
//! I/O model where we have four main access patterns: random read RR,
//! random write RW, sequential read SR, and sequential write SW. The exact
//! values are determined by micro-benchmarking."
//!
//! The paper's measured values on their Xeon (§4.5): random read/write of a
//! memory block ≈ 100 ns, sequential access amortized to **14× lower** cost
//! per block. Those are the defaults here; `casper-engine::calibrate`
//! re-measures them on the host.
//!
//! The paper's "block" in those numbers is a 64-byte cache line: 100 ns is
//! one random DRAM line. The solver therefore reads each constant as the
//! cost of one line and scales it to a logical block (`L` lines) or a row
//! (`R` lines) with [`BlockGeometry`](super::BlockGeometry); at the unit
//! geometry (`L = R = 1`) the model is the paper's as written.

/// Access costs in nanoseconds, per 64-byte line when the solver prices a
/// chunk (see [`BlockGeometry`](super::BlockGeometry)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Random read of one line.
    pub rr: f64,
    /// Random write of one line.
    pub rw: f64,
    /// Sequential read of one line.
    pub sr: f64,
    /// Sequential write of one line.
    pub sw: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        Self::paper()
    }
}

impl CostConstants {
    /// The paper's §4.5 measurements: `RR = RW = 100ns`, sequential 14×
    /// cheaper.
    pub fn paper() -> Self {
        Self {
            rr: 100.0,
            rw: 100.0,
            sr: 100.0 / 14.0,
            sw: 100.0 / 14.0,
        }
    }

    /// Construct from explicit measurements.
    pub fn new(rr: f64, rw: f64, sr: f64, sw: f64) -> Self {
        assert!(
            rr > 0.0 && rw > 0.0 && sr > 0.0 && sw > 0.0,
            "cost constants must be positive"
        );
        Self { rr, rw, sr, sw }
    }

    /// Ratio of random to sequential read cost (the paper reports 14×).
    pub fn random_seq_ratio(&self) -> f64 {
        self.rr / self.sr
    }

    /// Evaluate an [`casper_storage::OpCost`] access pattern under these
    /// constants, in nanoseconds: each count is charged one constant, at
    /// whatever unit the constants were measured in.
    pub fn nanos_of(&self, cost: &casper_storage::OpCost) -> f64 {
        cost.nanos(self.rr, self.rw, self.sr, self.sw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = CostConstants::paper();
        assert_eq!(c.rr, 100.0);
        assert!((c.random_seq_ratio() - 14.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive() {
        let _ = CostConstants::new(0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn nanos_of_op_cost() {
        let c = CostConstants::new(10.0, 20.0, 1.0, 2.0);
        let oc = casper_storage::OpCost {
            random_reads: 1,
            random_writes: 1,
            seq_reads: 5,
            seq_writes: 0,
            ..Default::default()
        };
        assert!((c.nanos_of(&oc) - 35.0).abs() < 1e-9);
    }
}

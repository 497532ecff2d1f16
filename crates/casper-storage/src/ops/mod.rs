//! The five storage-engine operations of §3, plus their cost accounting.
//!
//! Every operation reports an [`OpCost`]: the block-level access pattern it
//! actually performed, broken down into the four access classes of the
//! paper's I/O model (§4.4) — random/sequential × read/write — plus probe
//! and scan counters. `casper-core`'s cost model predicts exactly these
//! quantities, which is how Fig. 9 (cost-model verification) is reproduced.

pub(crate) mod read;
pub mod scalar;
mod write;

pub use read::{
    CountConsumer, PointQueryResult, PositionsConsumer, RangeConsumer, RangeQueryResult,
};
pub use write::WriteResult;

/// Block-level access counts incurred by one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Random block reads (partition jumps, first block of a scan).
    pub random_reads: u64,
    /// Random block writes (ripple moves, in-place updates).
    pub random_writes: u64,
    /// Sequential block reads (continuation blocks of a scan).
    pub seq_reads: u64,
    /// Sequential block writes (bulk shifts in the sorted baseline).
    pub seq_writes: u64,
    /// Probes of the partition bounds, one binary search each (shared
    /// cost, excluded from the layout optimization per §4.2).
    pub index_probes: u64,
    /// Individual values examined by tight-loop scans.
    pub values_scanned: u64,
}

impl OpCost {
    /// Accumulate another cost into this one.
    #[inline]
    pub fn absorb(&mut self, other: OpCost) {
        self.random_reads += other.random_reads;
        self.random_writes += other.random_writes;
        self.seq_reads += other.seq_reads;
        self.seq_writes += other.seq_writes;
        self.index_probes += other.index_probes;
        self.values_scanned += other.values_scanned;
    }

    /// Evaluate this access pattern under an I/O cost model: nanoseconds
    /// given per-block costs for the four access classes.
    pub fn nanos(&self, rr: f64, rw: f64, sr: f64, sw: f64) -> f64 {
        self.random_reads as f64 * rr
            + self.random_writes as f64 * rw
            + self.seq_reads as f64 * sr
            + self.seq_writes as f64 * sw
    }

    /// Total block touches (reads + writes, any pattern).
    pub fn total_block_accesses(&self) -> u64 {
        self.random_reads + self.random_writes + self.seq_reads + self.seq_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_componentwise() {
        let mut a = OpCost {
            random_reads: 1,
            seq_reads: 2,
            ..Default::default()
        };
        a.absorb(OpCost {
            random_reads: 3,
            random_writes: 4,
            ..Default::default()
        });
        assert_eq!(a.random_reads, 4);
        assert_eq!(a.random_writes, 4);
        assert_eq!(a.seq_reads, 2);
    }

    #[test]
    fn nanos_weighs_each_class() {
        let c = OpCost {
            random_reads: 2,
            random_writes: 1,
            seq_reads: 10,
            seq_writes: 0,
            ..Default::default()
        };
        let ns = c.nanos(100.0, 100.0, 7.0, 7.0);
        assert!((ns - (200.0 + 100.0 + 70.0)).abs() < 1e-9);
    }
}

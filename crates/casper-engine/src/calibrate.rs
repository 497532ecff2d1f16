//! Cost-constant calibration (§4.5).
//!
//! "For every instance of Casper deployed, we first need to establish
//! these values through micro-benchmarking." The four constants play two
//! roles in the model: `RR`/`RW` price the single-value random accesses of
//! ripple steps (Fig. 9a verifies inserts at `(RR+RW)·(1+trail)`), while
//! `SR`/`SW` price the per-block amortized cost of tight-loop scans
//! (Fig. 9b verifies point queries at `RR + SR·(blocks−1)`).
//!
//! The micro-benchmark measures exactly those quantities on the host:
//! dependent random single-element reads/writes for `RR`/`RW`, streaming
//! scans for per-block `SR`/`SW`.
//!
//! The solver prices every constant per 64-byte line and scales it to a
//! block with `BlockGeometry`; a single-element access touches one line,
//! but a per-block `SR`/`SW` is `L` lines' worth. [`calibrate_per_line`]
//! restates them per line for the solver; [`calibrate`] keeps the per-block
//! figures, which is what an `OpCost`'s block counts are priced in.

use casper_core::{BlockGeometry, CostConstants};
use casper_storage::PayloadOrientation;
use std::hint::black_box;
use std::time::Instant;

/// Calibration parameters.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Working-set size in bytes (should exceed LLC; default 64 MB).
    pub buffer_bytes: usize,
    /// Block size the engine will use (per-block `SR`/`SW`).
    pub block_bytes: usize,
    /// Measurement repetitions (the median is reported).
    pub repetitions: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            buffer_bytes: 64 << 20,
            block_bytes: 16 * 1024,
            repetitions: 3,
        }
    }
}

impl CalibrationConfig {
    /// Tiny configuration for unit tests (fast, less accurate).
    pub fn quick() -> Self {
        Self {
            buffer_bytes: 4 << 20,
            block_bytes: 16 * 1024,
            repetitions: 1,
        }
    }
}

/// [`calibrate`] with `SR`/`SW` divided by the lines per block: the
/// constants [`LayoutOptimizer`](casper_core::LayoutOptimizer) and
/// `OptimizeOptions` expect.
pub fn calibrate_per_line(config: &CalibrationConfig) -> CostConstants {
    let c = calibrate(config);
    let lines =
        BlockGeometry::of_chunk(config.block_bytes, 0, PayloadOrientation::Columns).lines_per_block;
    CostConstants::new(c.rr, c.rw, c.sr / lines, c.sw / lines)
}

/// Run the micro-benchmark and fit the four constants.
pub fn calibrate(config: &CalibrationConfig) -> CostConstants {
    let n = (config.buffer_bytes / 8).max(1024);
    let values_per_block = (config.block_bytes / 8).max(1);
    let n_blocks = n / values_per_block;
    let mut buf: Vec<u64> = (0..n as u64).collect();

    // Pseudo-random dependent chain over the buffer (LCG permutation) so
    // random reads cannot be prefetched.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }

    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };

    // Sequential read: stream the whole buffer, charge per block.
    let sr = median(
        (0..config.repetitions)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0u64;
                for &v in &buf {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc);
                t.elapsed().as_nanos() as f64 / n_blocks as f64
            })
            .collect(),
    );

    // Sequential write: stream writes, charge per block.
    let sw = median(
        (0..config.repetitions)
            .map(|r| {
                let t = Instant::now();
                for v in buf.iter_mut() {
                    *v = v.wrapping_add(r as u64 + 1);
                }
                black_box(&buf);
                t.elapsed().as_nanos() as f64 / n_blocks as f64
            })
            .collect(),
    );

    // Random read: dependent single-element loads at permuted positions.
    let probes = n.min(1 << 20);
    let rr = median(
        (0..config.repetitions)
            .map(|_| {
                let t = Instant::now();
                let mut idx = 0usize;
                let mut acc = 0u64;
                for _ in 0..probes {
                    idx = perm[idx] as usize;
                    acc = acc.wrapping_add(buf[idx]);
                }
                black_box(acc);
                t.elapsed().as_nanos() as f64 / probes as f64
            })
            .collect(),
    );

    // Random write: single-element stores at permuted positions.
    let rw = median(
        (0..config.repetitions)
            .map(|r| {
                let t = Instant::now();
                let mut idx = 0usize;
                for _ in 0..probes {
                    idx = perm[idx] as usize;
                    buf[idx] = buf[idx].wrapping_add(r as u64 + 1);
                }
                black_box(&buf);
                t.elapsed().as_nanos() as f64 / probes as f64
            })
            .collect(),
    );

    CostConstants::new(rr.max(0.1), rw.max(0.1), sr.max(0.01), sw.max(0.01))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_constants() {
        let c = calibrate(&CalibrationConfig::quick());
        assert!(c.rr > 0.0 && c.rw > 0.0 && c.sr > 0.0 && c.sw > 0.0);
    }

    #[test]
    fn random_access_slower_than_amortized_per_value() {
        // A dependent random load must cost more than the amortized
        // per-value sequential cost (the asymmetry the whole design rides
        // on).
        let cfg = CalibrationConfig::quick();
        let c = calibrate(&cfg);
        let values_per_block = cfg.block_bytes / 8;
        let seq_per_value = c.sr / values_per_block as f64;
        assert!(
            c.rr > seq_per_value,
            "rr={} should exceed per-value seq cost {}",
            c.rr,
            seq_per_value
        );
    }
}

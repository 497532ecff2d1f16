//! Per-chunk Frequency-Model drift gauges — the adaptive re-layout signal.
//!
//! Every chunk layout Casper installs was optimal *for the Frequency Model
//! it was solved against*. The drift table tracks, per chunk, the access
//! count that model predicted for the re-layout window against the access
//! count actually observed since — when observed traffic diverges from the
//! prediction, the layout is stale and the adaptive controller
//! (`casper_engine::adapt`) has cause to re-solve. The optimizer writes
//! `predicted` (and resets `observed`) when it installs a layout; the read
//! and write paths bump `observed` once per chunk they route a query into.
//!
//! Storage is a fixed array of [`DRIFT_SLOTS`] chunk slots so the hot-path
//! increment is one relaxed `fetch_add` with no locking or growth; chunks
//! beyond the capacity are counted in an overflow counter rather than
//! silently dropped.

use std::sync::atomic::{AtomicU64, Ordering};

/// Chunk capacity of the drift table. At the default 1M-value chunks this
/// covers half a billion rows per column; larger tables overflow into
/// [`DriftTable::dropped`].
pub const DRIFT_SLOTS: usize = 512;

/// One observed-count slot, padded to a cache line. Neighbouring chunks
/// are hit by different reader threads in the same instant; packing eight
/// counters per line turns every bump into cross-core line bouncing
/// (measured as ~10% on the concurrent-read overhead gate).
#[derive(Debug)]
#[repr(align(64))]
struct PaddedSlot(AtomicU64);

/// Fixed-capacity per-chunk predicted/observed access table.
#[derive(Debug)]
pub struct DriftTable {
    observed: Box<[PaddedSlot]>,
    /// Predicted access counts, stored as `f64` bits (model outputs are
    /// fractional expected block accesses). Written only at layout
    /// installs, so these stay unpadded.
    predicted: Box<[AtomicU64]>,
    dropped: AtomicU64,
}

/// One chunk's drift reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEntry {
    /// Chunk index.
    pub chunk: usize,
    /// Accesses observed since the layout was installed.
    pub observed: u64,
    /// Accesses the Frequency Model predicted for the window.
    pub predicted: f64,
}

impl Default for DriftTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DriftTable {
    /// Fresh (all-zero) table.
    pub fn new() -> Self {
        Self {
            observed: (0..DRIFT_SLOTS)
                .map(|_| PaddedSlot(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            predicted: (0..DRIFT_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record `n` observed accesses to `chunk`.
    #[inline]
    pub fn note_observed(&self, chunk: usize, n: u64) {
        match self.observed.get(chunk) {
            Some(slot) => {
                slot.0.fetch_add(n, Ordering::Relaxed);
            }
            None => {
                self.dropped.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Install the model's predicted access count for `chunk` and reset
    /// its observed count (a new layout starts a new drift window).
    pub fn set_predicted(&self, chunk: usize, predicted: f64) {
        if let (Some(p), Some(o)) = (self.predicted.get(chunk), self.observed.get(chunk)) {
            p.store(predicted.to_bits(), Ordering::Relaxed);
            o.0.store(0, Ordering::Relaxed);
        }
    }

    /// Accesses attributed to chunks beyond [`DRIFT_SLOTS`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every chunk with any signal (observed > 0 or predicted ≠ 0),
    /// in chunk order.
    pub fn entries(&self) -> Vec<DriftEntry> {
        (0..DRIFT_SLOTS)
            .filter_map(|i| {
                let observed = self.observed[i].0.load(Ordering::Relaxed);
                let predicted = f64::from_bits(self.predicted[i].load(Ordering::Relaxed));
                (observed > 0 || predicted != 0.0).then_some(DriftEntry {
                    chunk: i,
                    observed,
                    predicted,
                })
            })
            .collect()
    }

    /// Largest per-chunk drift ratio `max(observed, predicted) /
    /// max(min(observed, predicted), 1)` across chunks with any signal —
    /// a single scalar trend tools can alarm on. 1.0 when perfectly on
    /// model or when no signal exists.
    pub fn max_ratio(&self) -> f64 {
        self.entries()
            .iter()
            .map(|e| {
                let obs = e.observed as f64;
                let pred = e.predicted.max(0.0);
                let hi = obs.max(pred);
                let lo = obs.min(pred).max(1.0);
                hi / lo
            })
            .fold(1.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_accumulates_and_predictions_reset_the_window() {
        let t = DriftTable::new();
        t.note_observed(3, 10);
        t.note_observed(3, 5);
        t.set_predicted(7, 42.5);
        let entries = t.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0],
            DriftEntry {
                chunk: 3,
                observed: 15,
                predicted: 0.0
            }
        );
        assert_eq!(
            entries[1],
            DriftEntry {
                chunk: 7,
                observed: 0,
                predicted: 42.5
            }
        );
        // Installing a new prediction resets the observed window.
        t.set_predicted(3, 20.0);
        let entries = t.entries();
        assert_eq!(
            entries[0],
            DriftEntry {
                chunk: 3,
                observed: 0,
                predicted: 20.0
            }
        );
    }

    #[test]
    fn overflow_chunks_count_as_dropped() {
        let t = DriftTable::new();
        t.note_observed(DRIFT_SLOTS + 5, 9);
        assert_eq!(t.dropped(), 9);
        assert!(t.entries().is_empty());
    }

    #[test]
    fn max_ratio_flags_divergence() {
        let t = DriftTable::new();
        assert_eq!(t.max_ratio(), 1.0);
        t.set_predicted(0, 100.0);
        t.note_observed(0, 100);
        assert!((t.max_ratio() - 1.0).abs() < 1e-9);
        t.set_predicted(1, 10.0);
        for _ in 0..5 {
            t.note_observed(1, 10);
        }
        assert!((t.max_ratio() - 5.0).abs() < 1e-9);
    }
}

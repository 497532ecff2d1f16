//! Fixed-bucket log₂-scale histograms and the shared nearest-rank
//! quantile rule.
//!
//! A histogram is 65 buckets of `AtomicU64`: bucket 0 holds the value 0,
//! bucket `b ∈ 1..=64` holds values in `[2^(b-1), 2^b)`. Recording is two
//! relaxed `fetch_add`s (bucket count + running sum) — no locks, no
//! allocation, bounded memory regardless of sample count. Quantiles are
//! estimated at snapshot time as the upper bound of the bucket containing
//! the nearest-rank sample, giving ≤2× relative error — plenty for the
//! latency trend lines this feeds (a harness that needs exact percentiles
//! keeps raw samples and ranks them with the same [`quantile_rank`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// Nearest-rank rule shared by every quantile consumer in the workspace:
/// the 1-based rank of quantile `q` in a population of `count` samples,
/// `⌈count·q⌉` clamped to `[1, count]` (0 for an empty population).
///
/// The multiply is guarded with a small epsilon before the ceil so binary
/// floating-point noise cannot bump an exact product to the next rank
/// (e.g. `200 × 0.99` evaluates to `198.00000000000003`; a bare ceil
/// would report rank 199 — an off-by-one at exactly the tie a p99 is
/// supposed to hit).
pub fn quantile_rank(count: usize, q: f64) -> usize {
    if count == 0 {
        return 0;
    }
    let raw = (count as f64 * q - 1e-9).ceil();
    (raw as usize).clamp(1, count)
}

/// Lock-free fixed-bucket log₂ histogram.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros` (the number
/// of significant bits).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the value reported for quantiles
/// resolving into it).
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

impl Histogram {
    /// Fresh (all-zero) histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Consistent point-in-time view: the total is *derived from the same
    /// bucket reads* the quantiles use, so it can never be torn against
    /// them, and — because buckets only ever grow — both the per-bucket
    /// counts and the derived total are monotone across snapshots.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`BUCKETS`]).
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values. Updated by a separate atomic, so under
    /// concurrent recording it may momentarily include an observation the
    /// buckets do not (or vice versa) — totals and quantiles always come
    /// from `counts`.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations (Σ buckets — the only total this type exposes).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing rank [`quantile_rank`]`(count, q)`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        let rank = quantile_rank(total as usize, q) as u64;
        if rank == 0 {
            return None;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(b));
            }
        }
        None // unreachable: rank ≤ total
    }

    /// Upper bound of the highest non-empty bucket (`None` when empty).
    pub fn max_bound(&self) -> Option<u64> {
        self.counts.iter().rposition(|&c| c > 0).map(bucket_upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn rank_edge_cases() {
        assert_eq!(quantile_rank(0, 0.99), 0);
        assert_eq!(quantile_rank(1, 0.5), 1);
        assert_eq!(quantile_rank(1, 0.999), 1);
        // Exact ties must not be bumped by float noise: 200 × 0.99 = 198.
        assert_eq!(quantile_rank(200, 0.99), 198);
        assert_eq!(quantile_rank(1000, 0.5), 500);
        assert_eq!(quantile_rank(1000, 0.999), 999);
        // q = 1.0 is the maximum.
        assert_eq!(quantile_rank(37, 1.0), 37);
        // Tiny q still clamps up to the first sample.
        assert_eq!(quantile_rank(1000, 0.0), 1);
    }

    #[test]
    fn quantile_rank_is_float_robust() {
        // A computed quantile can land a hair above its mathematical value
        // (0.1 + 0.2 = 0.30000000000000004): with 10 samples a bare
        // ceil(n*q) selects rank 4, but the nearest rank for q = 0.3 is 3.
        let q = 0.1 + 0.2;
        assert_eq!((10f64 * q).ceil() as usize, 4);
        assert_eq!(quantile_rank(10, q), 3);
    }

    #[test]
    fn tiny_sample_counts_select_sane_ranks() {
        // With n < 100, p99/p999 must select the max, never run past the
        // end, and never fall to rank 0.
        for n in 1..=10 {
            assert_eq!(quantile_rank(n, 0.99), n, "p99 of {n}");
            assert_eq!(quantile_rank(n, 0.999), n, "p999 of {n}");
        }
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1106);
        // rank(5, 0.5) = 3 → third sample (3) lives in bucket [2,4).
        assert_eq!(s.quantile(0.5), Some(3));
        // p99 → rank 5 → 1000 lives in [512, 1024).
        assert_eq!(s.quantile(0.99), Some(1023));
        assert_eq!(s.max_bound(), Some(1023));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.max_bound(), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn zero_values_occupy_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.quantile(0.5), Some(0));
    }
}

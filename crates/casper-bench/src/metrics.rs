//! Latency and throughput recording for the experiment harness.
//!
//! The paper reports mean latency per query class, the 99.9th percentile
//! (Fig. 15's error bars), and overall workload throughput (ops/s). The
//! recorder keeps raw nanosecond samples per class and computes summaries
//! on demand.
//!
//! Percentiles use the same nearest-rank rule as the registry histograms
//! ([`casper_obs::quantile_rank`]) so a raw-sample summary and a
//! `casper-obs` snapshot of the same run can never disagree about which
//! rank a quantile selects. (The previous in-line `ceil(n*p)` was also
//! vulnerable to `n*p` landing a hair *above* an integer in floating
//! point, selecting the next rank up.)

use casper_obs::quantile_rank;

/// Number of query classes tracked (Q1..Q6).
pub const CLASSES: usize = 6;

/// Raw latency samples per query class.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: [Vec<u64>; CLASSES],
}

/// Summary statistics of one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// 99.9th percentile (ns).
    pub p999_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

impl LatencyRecorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample for a query class (0-based, Q1..Q6).
    #[inline]
    pub fn record(&mut self, class: usize, nanos: u64) {
        self.samples[class].push(nanos);
    }

    /// Total recorded operations.
    pub fn total_ops(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Summary for one class, if any samples exist.
    pub fn summary(&self, class: usize) -> Option<Summary> {
        let s = &self.samples[class];
        if s.is_empty() {
            return None;
        }
        let mut sorted = s.clone();
        sorted.sort_unstable();
        let pct = |p: f64| sorted[quantile_rank(sorted.len(), p) - 1];
        Some(Summary {
            count: sorted.len(),
            mean_ns: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            p999_ns: pct(0.999),
            max_ns: *sorted.last().expect("non-empty"),
        })
    }

    /// Nearest-rank percentile of one class for an arbitrary quantile in
    /// `(0, 1]` (e.g. `0.95`), if any samples exist.
    pub fn percentile(&self, class: usize, q: f64) -> Option<u64> {
        let s = &self.samples[class];
        if s.is_empty() {
            return None;
        }
        let mut sorted = s.clone();
        sorted.sort_unstable();
        Some(sorted[quantile_rank(sorted.len(), q) - 1])
    }

    /// Workload throughput in operations per second given the elapsed wall
    /// time of the run.
    pub fn throughput_ops_per_sec(&self, elapsed: std::time::Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.total_ops() as f64 / elapsed.as_secs_f64()
    }

    /// Merge another recorder (e.g. from a worker thread).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        for (mine, theirs) in self.samples.iter_mut().zip(&other.samples) {
            mine.extend_from_slice(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_distribution() {
        let mut r = LatencyRecorder::new();
        for v in 1..=1000u64 {
            r.record(0, v);
        }
        let s = r.summary(0).expect("has samples");
        assert_eq!(s.count, 1000);
        assert!((s.mean_ns - 500.5).abs() < 1e-9);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.p999_ns, 999);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn empty_class_has_no_summary() {
        let r = LatencyRecorder::new();
        assert!(r.summary(3).is_none());
    }

    #[test]
    fn throughput_computation() {
        let mut r = LatencyRecorder::new();
        for _ in 0..500 {
            r.record(1, 10);
        }
        let t = r.throughput_ops_per_sec(std::time::Duration::from_millis(250));
        assert!((t - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        a.record(0, 1);
        let mut b = LatencyRecorder::new();
        b.record(0, 3);
        b.record(5, 7);
        a.merge(&b);
        assert_eq!(a.total_ops(), 3);
        assert_eq!(a.summary(0).unwrap().count, 2);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut r = LatencyRecorder::new();
        r.record(2, 42);
        let s = r.summary(2).unwrap();
        assert_eq!(s.p50_ns, 42);
        assert_eq!(s.p999_ns, 42);
        assert_eq!(s.max_ns, 42);
    }

    #[test]
    fn tiny_sample_counts_select_sane_ranks() {
        // With n < 100, p99/p999 must select the max, never run past the
        // end, and never fall to rank 0.
        for n in 1..=10u64 {
            let mut r = LatencyRecorder::new();
            for v in 1..=n {
                r.record(0, v);
            }
            let s = r.summary(0).unwrap();
            assert_eq!(s.p99_ns, n, "p99 of 1..={n}");
            assert_eq!(s.p999_ns, n, "p999 of 1..={n}");
        }
    }

    #[test]
    fn percentile_matches_summary_quantiles() {
        let mut r = LatencyRecorder::new();
        for v in 1..=1000u64 {
            r.record(4, v);
        }
        let s = r.summary(4).unwrap();
        assert_eq!(r.percentile(4, 0.50), Some(s.p50_ns));
        assert_eq!(r.percentile(4, 0.99), Some(s.p99_ns));
        assert_eq!(r.percentile(4, 0.999), Some(s.p999_ns));
        assert_eq!(r.percentile(4, 1.0), Some(s.max_ns));
        assert_eq!(r.percentile(3, 0.5), None);
    }

    #[test]
    fn quantile_rank_is_float_robust() {
        // A computed quantile can land a hair above its mathematical value
        // (0.1 + 0.2 = 0.30000000000000004): with 10 samples a bare
        // ceil(n*q) selects rank 4, but the nearest rank for q = 0.3 is 3.
        let q = 0.1 + 0.2;
        assert_eq!((10f64 * q).ceil() as usize, 4);
        assert_eq!(casper_obs::quantile_rank(10, q), 3);
        let mut r = LatencyRecorder::new();
        for v in 1..=10u64 {
            r.record(1, v);
        }
        assert_eq!(r.percentile(1, q), Some(3));
    }
}

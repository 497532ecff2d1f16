//! Order statistics over latency samples.
//!
//! All percentiles use the nearest-rank rule on a sorted copy: the p-th
//! percentile of `n` samples is the sample at rank `ceil(p * n)` (1-based).
//! Nearest-rank never interpolates, so a reported latency is always one that
//! was actually measured.

/// The p-quantile (`0 < p <= 1`) of `sorted` by nearest rank; `None` when
/// there are no samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a small set of per-repetition values (mean of the two middle
/// values for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Distance between the first and the third quartile of `values` as a share
/// of their median: the spread a difference must exceed before it is real.
/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them;
/// `None` for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = i * (v.len() + 1);
        let j = (m / 4).clamp(1, v.len() - 1);
        // Negative below the first value, above 4 beyond the last: the
        // quartile is then extrapolated, as Python does.
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v)?)
}

/// Latency samples pooled over repetitions, sorted once on demand.
#[derive(Debug, Default, Clone)]
pub struct Pool {
    samples: Vec<u64>,
    sorted: bool,
}

impl Pool {
    /// Add one repetition's samples to the pool.
    pub fn extend(&mut self, samples: impl IntoIterator<Item = u64>) {
        self.samples.extend(samples);
        self.sorted = false;
    }

    /// Number of pooled samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Nearest-rank percentile over the pooled samples, 0 when the pool is
    /// empty (an op class the workload does not contain).
    pub fn percentile(&mut self, p: f64) -> u64 {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        percentile_sorted(&self.samples, p).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(Pool::default().percentile(0.99), 0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.001, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_sorted(&[7], p), Some(7));
        }
    }

    #[test]
    fn nearest_rank_boundaries() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.50), Some(50));
        assert_eq!(percentile_sorted(&s, 0.99), Some(99));
        assert_eq!(percentile_sorted(&s, 0.999), Some(100));
        assert_eq!(percentile_sorted(&s, 1.0), Some(100));
        // Two samples: the median is the lower one, p99 the upper.
        assert_eq!(percentile_sorted(&[3, 9], 0.5), Some(3));
        assert_eq!(percentile_sorted(&[3, 9], 0.99), Some(9));
    }

    #[test]
    fn pooling_is_order_independent_and_resorts_after_extend() {
        let mut a = Pool::default();
        a.extend([5, 1, 9]);
        assert_eq!(a.percentile(0.5), 5);
        a.extend([0, 0, 0, 0]);
        assert_eq!(a.len(), 7);
        assert_eq!(a.percentile(0.5), 0, "pool re-sorted after second extend");
        let mut b = Pool::default();
        b.extend([0, 0, 0, 0]);
        b.extend([9, 5, 1]);
        assert_eq!(a.percentile(0.99), b.percentile(0.99));
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        assert_eq!(quartile_spread(&[]), None);
        assert_eq!(quartile_spread(&[5.0]), None);
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        let s = quartile_spread(&[10.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert!((s - 5.5 / 3.0).abs() < 1e-12, "{s}");
        // statistics.quantiles([2, 4, 8], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartile_spread(&[2.0, 4.0, 8.0]), Some(1.5));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartile_spread(&[1.0, 3.0]), Some(1.5));
        assert_eq!(quartile_spread(&[7.0; 4]), Some(0.0));
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }
}

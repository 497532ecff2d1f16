//! Key-access distributions, implemented in-repo (no `rand_distr`
//! dependency: the build is offline and `crates/shims/` vendors only
//! `rand`).
//!
//! [`Zipf`] is the classic YCSB-style Zipfian generator (Gray et al.'s
//! rejection-free inversion), producing ranks in `[0, n)` where rank 0 is
//! hottest. Combined with rank→key mappings it yields the paper's "skewed
//! accesses to more recent data" (§7.2) and the hot-range skews of the
//! update-intensive workloads.

use rand::Rng;

/// YCSB-style Zipfian rank generator over `[0, n)`.
///
/// `theta` is the skew (YCSB default 0.99; 0 degenerates to uniform).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Build a generator for `n` items with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler–Maclaurin style approximation for
        // large n keeps construction O(1)-ish without visible error for
        // sampling purposes.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{10000}^{n} x^{-theta} dx
            let a = 10_000f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Sample a rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) && self.n >= 2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of the hottest rank (rank 0): `1/zeta(n, theta)`.
    pub fn p_hottest(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Internal consistency helper exposed for tests.
    #[doc(hidden)]
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// A hot-range distribution: a fraction `hot_frac` of the key space
/// receives `hot_prob` of the accesses (uniform within each region) —
/// YCSB's "hotspot" distribution, used for the skewed HAP variants.
#[derive(Debug, Clone, Copy)]
pub struct HotRange {
    /// Fraction of the domain that is hot, in `(0, 1]`.
    pub hot_frac: f64,
    /// Probability an access goes to the hot region, in `[0, 1]`.
    pub hot_prob: f64,
    /// Whether the hot region sits at the end of the domain ("more recent
    /// data", §7.2) or the beginning.
    pub hot_at_end: bool,
}

impl HotRange {
    /// The paper's skewed profile: accesses concentrate on recent (high)
    /// keys — 20% of the domain receives 80% of the accesses.
    pub fn recent() -> Self {
        Self {
            hot_frac: 0.2,
            hot_prob: 0.8,
            hot_at_end: true,
        }
    }

    /// Sample a fraction of the domain in `[0, 1)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let hot = rng.gen_bool(self.hot_prob.clamp(0.0, 1.0));
        let within: f64 = rng.gen();
        let f = self.hot_frac.clamp(f64::MIN_POSITIVE, 1.0);
        if hot {
            if self.hot_at_end {
                1.0 - f + within * f
            } else {
                within * f
            }
        } else if self.hot_at_end {
            within * (1.0 - f)
        } else {
            f + within * (1.0 - f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn zipf_ranks_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut top10 = 0usize;
        let total = 20_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 10 {
                top10 += 1;
            }
        }
        // With theta=0.99 over 1000 items, the top-10 ranks carry a large
        // share of the mass (analytically ~40%).
        assert!(
            top10 as f64 / total as f64 > 0.25,
            "top-10 share was {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn zipf_low_theta_is_near_uniform() {
        let z = Zipf::new(100, 0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        let total = 40_000;
        for _ in 0..total {
            counts[(z.sample(&mut rng) / 25) as usize] += 1;
        }
        for c in counts {
            let share = c as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.05, "quartile share {share}");
        }
    }

    #[test]
    fn zipf_empirical_hottest_matches_analytic() {
        let z = Zipf::new(50, 0.8);
        let mut rng = StdRng::seed_from_u64(4);
        let total = 100_000;
        let hot = (0..total).filter(|_| z.sample(&mut rng) == 0).count();
        let got = hot as f64 / total as f64;
        let want = z.p_hottest();
        assert!(
            (got - want).abs() < 0.02,
            "hottest rank frequency {got} vs analytic {want}"
        );
    }

    #[test]
    fn zeta_approximation_continuous() {
        // The large-n approximation should be close to the direct sum just
        // above the cutoff.
        let direct: f64 = (1..=12_000u64).map(|i| 1.0 / (i as f64).powf(0.9)).sum();
        let approx = Zipf::new(12_000, 0.9).p_hottest().recip();
        assert!(
            (direct - approx).abs() / direct < 0.01,
            "direct {direct} vs approx {approx}"
        );
    }

    #[test]
    fn hot_range_respects_probabilities() {
        let h = HotRange::recent();
        let mut rng = StdRng::seed_from_u64(5);
        let total = 50_000;
        let hot_hits = (0..total).filter(|_| h.sample(&mut rng) >= 0.8).count();
        let share = hot_hits as f64 / total as f64;
        assert!((share - 0.8).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn hot_range_at_start() {
        let h = HotRange {
            hot_frac: 0.1,
            hot_prob: 0.9,
            hot_at_end: false,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let share = (0..20_000).filter(|_| h.sample(&mut rng) < 0.1).count() as f64 / 20_000.0;
        assert!((share - 0.9).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_theta_one() {
        let _ = Zipf::new(10, 1.0);
    }
}

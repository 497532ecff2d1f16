//! Minimal offline shim for the subset of the `criterion` API this
//! workspace's benches use: `criterion_group!` / `criterion_main!`,
//! `Criterion::benchmark_group`, `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Throughput::Elements`, `Bencher::iter` and
//! `Bencher::iter_custom`.
//!
//! Measurement model: after a short warm-up, the harness calibrates a batch
//! size so one batch lasts ≥ ~10 ms, times `sample_count` batches, and
//! reports the median / min / max ns-per-iteration (plus elements/s when a
//! throughput was declared). Simpler than criterion's bootstrap, but stable
//! enough to compare kernels against baselines on the same machine.

use std::time::{Duration, Instant};

/// Identifier for one bench within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `group/<function>/<parameter>` style id.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self(format!("{}/{parameter}", function.into()))
    }

    /// Id rendering just a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// Work-per-iteration declaration for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Harness entry point (one per process, built by `criterion_main!`).
#[derive(Debug)]
pub struct Criterion {
    sample_count: u32,
    min_batch: Duration,
    warm_up: Duration,
    /// Smoke mode (real criterion's `--test` flag): run every bench body
    /// exactly once, untimed — CI uses this to exercise bench-only code
    /// paths (e.g. the kernel trajectory) on every push without paying for a
    /// measurement run.
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_count: 12,
            min_batch: Duration::from_millis(10),
            warm_up: Duration::from_millis(50),
            smoke: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Open a named group of related benches.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }
}

/// A named collection of benches sharing a throughput declaration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare the work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Override the number of timed samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_count = n.max(2) as u32;
        self
    }

    /// Run one bench.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into(), |b| f(b));
    }

    /// Run one bench with an explicit input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id, |b| f(b, input));
    }

    fn run(&mut self, id: BenchmarkId, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            config: BenchConfig {
                sample_count: self.criterion.sample_count,
                min_batch: self.criterion.min_batch,
                warm_up: self.criterion.warm_up,
            },
            smoke: self.criterion.smoke,
            result: None,
        };
        f(&mut bencher);
        if self.criterion.smoke {
            println!("{}/{}: ok (smoke)", self.name, id.0);
            return;
        }
        let Some(r) = bencher.result else {
            println!("{}/{}: no measurement taken", self.name, id.0);
            return;
        };
        let mut line = format!(
            "{}/{}: time [{} {} {}]",
            self.name,
            id.0,
            fmt_ns(r.min_ns),
            fmt_ns(r.median_ns),
            fmt_ns(r.max_ns)
        );
        if let Some(t) = self.throughput {
            let (work, unit) = match t {
                Throughput::Elements(n) => (n as f64, "elem/s"),
                Throughput::Bytes(n) => (n as f64, "B/s"),
            };
            if r.median_ns > 0.0 {
                line.push_str(&format!("  thrpt {:.3e} {unit}", work * 1e9 / r.median_ns));
            }
        }
        println!("{line}");
    }

    /// End the group (kept for API compatibility; reporting is immediate).
    pub fn finish(self) {}
}

#[derive(Debug, Clone, Copy)]
struct BenchConfig {
    sample_count: u32,
    min_batch: Duration,
    warm_up: Duration,
}

#[derive(Debug, Clone, Copy)]
struct Measurement {
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// Timing context passed to each bench closure.
pub struct Bencher {
    config: BenchConfig,
    smoke: bool,
    result: Option<Measurement>,
}

impl Bencher {
    /// Measure a routine. The routine's return value is black-boxed so the
    /// optimizer cannot elide the measured work.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        if self.smoke {
            // `--test` mode: exercise the body once, skip all timing.
            std::hint::black_box(routine());
            return;
        }
        // Warm up and estimate per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warm_up || warm_iters < 10 {
            std::hint::black_box(routine());
            warm_iters += 1;
            if warm_iters >= 1_000_000_000 {
                break;
            }
        }
        let est_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        self.sample(est_per_iter, |batch| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Measure a routine that times itself: `routine(iters)` performs the
    /// measured work `iters` times and returns how long that took, so the
    /// setup it needs between runs stays off the clock.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        if self.smoke {
            std::hint::black_box(routine(1));
            return;
        }
        // Warm up in doubling batches until the timed work fills the
        // warm-up window.
        let mut spent = Duration::ZERO;
        let mut warm_iters = 0u64;
        while spent < self.config.warm_up || warm_iters < 10 {
            let n = warm_iters.clamp(1, 1_000_000_000);
            spent += routine(n);
            warm_iters += n;
            if warm_iters >= 1_000_000_000 {
                break;
            }
        }
        self.sample(spent.as_secs_f64() / warm_iters as f64, routine);
    }

    /// Time `sample_count` batches sized to last about `min_batch` each;
    /// `run(batch)` performs and times one batch.
    fn sample(&mut self, est_per_iter: f64, mut run: impl FnMut(u64) -> Duration) {
        let batch = ((self.config.min_batch.as_secs_f64() / est_per_iter.max(1e-9)) as u64)
            .clamp(1, 1_000_000_000);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.sample_count as usize);
        for _ in 0..self.config.sample_count {
            samples_ns.push(run(batch).as_nanos() as f64 / batch as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        self.result = Some(Measurement {
            median_ns: samples_ns[samples_ns.len() / 2],
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("non-empty"),
        });
    }
}

/// Opaque value barrier (re-exported for criterion API compatibility).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Bundle bench functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes `--bench` (and possibly filters) to harness=false
            // bench binaries; this harness runs everything unconditionally.
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion {
            sample_count: 3,
            min_batch: Duration::from_micros(200),
            warm_up: Duration::from_micros(200),
            smoke: false,
        };
        let mut group = c.benchmark_group("t");
        group.throughput(Throughput::Elements(1));
        let mut acc = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                acc = acc.wrapping_add(1);
                acc
            })
        });
        group.finish();
        assert!(acc > 0);
    }

    #[test]
    fn smoke_mode_runs_body_exactly_once() {
        let mut c = Criterion {
            sample_count: 3,
            min_batch: Duration::from_micros(200),
            warm_up: Duration::from_micros(200),
            smoke: true,
        };
        let mut group = c.benchmark_group("t");
        let mut runs = 0u64;
        group.bench_function("once", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.finish();
        assert_eq!(runs, 1);
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::from_parameter(64).0, "64");
        assert_eq!(BenchmarkId::new("f", 2).0, "f/2");
    }
}

//! The metrics registry: name-interned counters, gauges and histograms,
//! plus the `const`-constructible definition handles instrumentation
//! sites hold in `static`s.
//!
//! Registration (the first recording after engagement) takes a mutex and
//! allocates; every recording after that is a `OnceLock` read plus relaxed
//! atomics. Metric objects are leaked into `'static` — they live for the
//! process, like the registry itself.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Shards per counter — enough to keep 8–16 hot threads off each other's
/// cache lines without bloating the (few dozen) registered counters.
const SHARDS: usize = 16;

/// One cache line per shard so concurrent increments do not false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread claims a shard index once, round-robin.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard_idx() -> usize {
    SHARD.with(|s| *s)
}

/// Shard-striped monotone counter.
#[derive(Debug)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    /// Add `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_idx()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum across shards. Each shard is monotone, so the sum is monotone
    /// across reads even under concurrent increments.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-writer-wins gauge holding an `f64` (stored as bits in one atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The process-wide registry. Obtain it through [`crate::enable`] /
/// [`crate::registry()`].
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn intern(name: &str) -> &'static str {
    Box::leak(name.to_owned().into_boxed_str())
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counter registered under `name` (created on first request).
    /// Names follow Prometheus conventions; a label set may be embedded
    /// (`casper_query_total{class="q1"}`) — the renderer groups series by
    /// the base name before `{`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().expect("counter registry");
        if let Some(c) = map.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(intern(name), c);
        c
    }

    /// Gauge registered under `name` (created on first request).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock().expect("gauge registry");
        if let Some(g) = map.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        map.insert(intern(name), g);
        g
    }

    /// Histogram registered under `name` (created on first request).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("histogram registry");
        if let Some(h) = map.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(intern(name), h);
        h
    }

    /// Visit every registered counter in name order.
    pub(crate) fn for_each_counter(&self, mut f: impl FnMut(&'static str, &Counter)) {
        for (name, c) in self.counters.lock().expect("counter registry").iter() {
            f(name, c);
        }
    }

    /// Visit every registered gauge in name order.
    pub(crate) fn for_each_gauge(&self, mut f: impl FnMut(&'static str, &Gauge)) {
        for (name, g) in self.gauges.lock().expect("gauge registry").iter() {
            f(name, g);
        }
    }

    /// Visit every registered histogram in name order.
    pub(crate) fn for_each_histogram(&self, mut f: impl FnMut(&'static str, &Histogram)) {
        for (name, h) in self.histograms.lock().expect("histogram registry").iter() {
            f(name, h);
        }
    }
}

/// `const`-constructible counter handle for `static` placement at an
/// instrumentation site. Resolves against the registry once, on the first
/// recording after engagement; a no-op (single relaxed load) before that.
#[derive(Debug)]
pub struct CounterDef {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl CounterDef {
    /// Define a counter by metric name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Add `n` if telemetry is engaged.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(reg) = crate::registry() {
            self.cell.get_or_init(|| reg.counter(self.name)).add(n);
        }
    }

    /// Add one if telemetry is engaged.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// `const`-constructible gauge handle (see [`CounterDef`]).
#[derive(Debug)]
pub struct GaugeDef {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl GaugeDef {
    /// Define a gauge by metric name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Set the gauge if telemetry is engaged.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(reg) = crate::registry() {
            self.cell.get_or_init(|| reg.gauge(self.name)).set(v);
        }
    }
}

/// `const`-constructible histogram handle (see [`CounterDef`]).
#[derive(Debug)]
pub struct HistogramDef {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl HistogramDef {
    /// Define a histogram by metric name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Record an observation if telemetry is engaged.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(reg) = crate::registry() {
            self.cell.get_or_init(|| reg.histogram(self.name)).record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
        g.set(-7.5);
        assert_eq!(g.get(), -7.5);
    }

    #[test]
    fn registry_interns_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x_total") as *const Counter;
        let b = reg.counter("x_total") as *const Counter;
        assert_eq!(a, b);
        let h1 = reg.histogram("h_ns") as *const Histogram;
        let h2 = reg.histogram("h_ns") as *const Histogram;
        assert_eq!(h1, h2);
    }
}

//! # casper-obs
//!
//! Unified low-overhead telemetry for the Casper column-layout engine: a
//! process-wide metrics registry of sharded atomic counters, gauges and
//! fixed-bucket log₂-scale histograms. An operation is timed by recording
//! its elapsed nanoseconds into a [`HistogramDef`].
//!
//! ## Design
//!
//! The registry is **engaged lazily**, mirroring the engine's own
//! lazy-concurrency pattern (`ChunkedColumn`'s `OnceLock<SnapshotCell>`):
//! until someone calls [`enable`] (or sets `CASPER_OBS=1` /
//! `CASPER_OBS_DUMP=path` and opens a durable table), every instrumentation
//! site reduces to a single relaxed atomic load that returns `None` — an
//! unobserved run pays ~nothing. Once engaged, the hot path is lock-free:
//!
//! * [`Counter`] — shard-striped `AtomicU64`s (one cache line per shard,
//!   threads pick a shard once via a thread-local), summed at read time;
//! * [`Gauge`] — a single `AtomicU64` holding `f64` bits;
//! * [`Histogram`] — 65 fixed log₂ buckets of `AtomicU64`; recording is two
//!   relaxed `fetch_add`s, quantiles are estimated from bucket bounds at
//!   snapshot time with the nearest-rank rule [`quantile_rank`], which
//!   raw-sample percentiles can share.
//!
//! Instrumentation sites hold `const`-constructible definition handles
//! ([`CounterDef`], [`GaugeDef`], [`HistogramDef`]) in
//! `static`s; the first recording after engagement resolves the handle
//! against the registry through a `OnceLock`, so steady-state recording
//! never touches a map or a lock.
//!
//! Reads are wait-free and **monotone**: a [`MetricsSnapshot`]
//! derives every histogram total from one pass over its buckets (never
//! from a separately-read count that could disagree), so concurrent
//! writers can only make a later snapshot's totals larger.
//!
//! ## Exposure
//!
//! Three ways out: the [`MetricsSnapshot`] API, Prometheus-text / JSON
//! rendering ([`MetricsSnapshot::to_prometheus_text`] /
//! [`MetricsSnapshot::to_json`], surfaced as
//! `DurableTable::metrics_text()`), and a `CASPER_OBS_DUMP=path`
//! background writer that re-renders the registry every
//! `CASPER_OBS_DUMP_MS` (default 1000) milliseconds. The repo benchmark
//! (`benchmark/`) reports the enabled-vs-disabled cost on every workload
//! as `obs.overhead_ratio` (budget: ≤2%).

pub mod dump;
pub mod hist;
pub mod registry;
pub mod snapshot;

pub use hist::{quantile_rank, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, CounterDef, Gauge, GaugeDef, HistogramDef, Registry};
pub use snapshot::MetricsSnapshot;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static ENGAGED: AtomicBool = AtomicBool::new(false);

/// Engage telemetry process-wide and return the registry. Idempotent; also
/// starts the `CASPER_OBS_DUMP` background writer on first engagement if
/// that variable is set. Events that happened *before* the first `enable`
/// call were not recorded — the registry starts at zero.
pub fn enable() -> &'static Registry {
    let reg = REGISTRY.get_or_init(Registry::new);
    ENGAGED.store(true, Ordering::Release);
    dump::maybe_start(reg);
    reg
}

/// Disengage recording (the registry and its accumulated values survive;
/// [`snapshot`] still works). Used by the repo benchmark's
/// `obs.overhead_ratio` arm to A/B the instrumented hot paths.
pub fn disable() {
    ENGAGED.store(false, Ordering::Release);
}

/// Whether recording is currently engaged.
pub fn enabled() -> bool {
    ENGAGED.load(Ordering::Relaxed)
}

/// Engage telemetry iff the environment asks for it (`CASPER_OBS` set to
/// anything but `0`/empty, or `CASPER_OBS_DUMP` naming a dump path).
/// Cheap after the first call; the durable table calls this on open so
/// production runs opt in purely through the environment.
pub fn enable_from_env() {
    static CHECKED: OnceLock<bool> = OnceLock::new();
    let wanted = *CHECKED.get_or_init(|| {
        let flag = std::env::var("CASPER_OBS").map(|v| !v.is_empty() && v != "0");
        let dump = std::env::var("CASPER_OBS_DUMP").map(|v| !v.is_empty());
        flag.unwrap_or(false) || dump.unwrap_or(false)
    });
    if wanted {
        enable();
    }
}

/// The registry, if recording is engaged — the single gate every
/// instrumentation site goes through. One relaxed load when disengaged.
#[inline]
pub fn registry() -> Option<&'static Registry> {
    if ENGAGED.load(Ordering::Relaxed) {
        REGISTRY.get()
    } else {
        None
    }
}

/// Snapshot the registry (works even while recording is disengaged, as
/// long as it was engaged at least once).
pub fn snapshot() -> Option<MetricsSnapshot> {
    REGISTRY.get().map(MetricsSnapshot::capture)
}

/// Serialize unit tests that toggle the process-global engaged flag.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share the process-wide registry; each uses its own
    // metric names so they do not interfere, and takes the test lock so
    // enable/disable toggles do not race across test threads.

    #[test]
    fn disabled_sites_record_nothing() {
        static C: CounterDef = CounterDef::new("test_disabled_counter_total");
        let _g = test_lock();
        disable();
        C.add(5);
        enable();
        C.add(2);
        let snap = snapshot().expect("engaged at least once");
        assert_eq!(snap.counter("test_disabled_counter_total"), Some(2));
    }

    #[test]
    fn snapshot_survives_disable() {
        static C: CounterDef = CounterDef::new("test_survives_total");
        let _g = test_lock();
        enable();
        C.add(7);
        disable();
        let snap = snapshot().expect("registry retained");
        assert_eq!(snap.counter("test_survives_total"), Some(7));
        enable();
    }

    #[test]
    fn enable_is_idempotent_and_returns_same_registry() {
        let a = enable() as *const Registry;
        let b = enable() as *const Registry;
        assert_eq!(a, b);
    }
}

//! Resource governor: the serving-survival layer.
//!
//! The layout machinery assumes the engine stays alive long enough to
//! amortize optimization; this module supplies the four guarantees that
//! make that true under hostile load:
//!
//! 1. **Memory budget** — resident-byte accounting over hydrated chunk
//!    stores, with cold-chunk eviction driven by the persistence layer
//!    (clean, checkpointed chunks demote back to lazy slots re-pointed at
//!    their manifest records; see `casper-persist`).
//! 2. **Deadlines + cancellation** — queries carry an optional
//!    [`QueryCtx`] checked at chunk boundaries; expiry unwinds as a typed
//!    error without poisoning shared state.
//! 3. **Admission control** — a bounded slot gate with a short wait for
//!    reads (load shedding) and a longer wait for writes (backpressure);
//!    exhaustion surfaces as [`StorageError::Overloaded`].
//! 4. **Panic isolation** — [`Governor::run`] wraps governed execution in
//!    `catch_unwind`, converting a panicking query into
//!    [`StorageError::Panicked`] carrying the implicated chunk so callers
//!    can quarantine it.
//!
//! See `docs/resource-governance.md` for the full escalation ladder.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use casper_obs::{CounterDef, GaugeDef, HistogramDef};
use casper_storage::StorageError;

// Governor telemetry: one relaxed load each while telemetry is disengaged.
// Catalogued in `docs/observability.md`; synced into `metrics_json` by the
// same `sync_obs_gauges` pass the durability gauges use.
static OBS_RESIDENT: GaugeDef = GaugeDef::new("casper_governor_resident_bytes");
static OBS_EVICTIONS: CounterDef = CounterDef::new("casper_governor_evictions_total");
static OBS_REHYDRATIONS: CounterDef = CounterDef::new("casper_governor_rehydrations_total");
static OBS_SHED: CounterDef = CounterDef::new("casper_governor_shed_total");
static OBS_DEADLINE: CounterDef = CounterDef::new("casper_governor_deadline_exceeded_total");
static OBS_CANCELLED: CounterDef = CounterDef::new("casper_governor_cancelled_total");
static OBS_PANICS: CounterDef = CounterDef::new("casper_governor_query_panics_total");
static OBS_WAIT: HistogramDef = HistogramDef::new("casper_governor_admit_wait_ns");

/// Configuration for the [`Governor`]. The zero values mean "off" for the
/// budget and the slot gate, so a default-constructed governor is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Resident-byte ceiling across hydrated chunk stores; `0` disables
    /// budget enforcement (no eviction passes run).
    pub memory_budget_bytes: usize,
    /// Concurrent governed-query slots; `0` disables admission control.
    pub query_slots: usize,
    /// How long a read waits for a slot before it is shed as
    /// [`StorageError::Overloaded`].
    pub admit_wait_ms: u64,
    /// How long a write waits for a slot (backpressure) before
    /// [`StorageError::Overloaded`]. Writes get the longer wait: shedding a
    /// read costs a retry, shedding a write costs client-visible work.
    pub write_wait_ms: u64,
    /// Governed queries between resident-byte budget checks. Accounting
    /// walks every chunk slot, so it is amortized rather than per-query.
    pub check_interval: u64,
    /// Consecutive over-budget eviction passes (budget still exceeded
    /// after evicting everything eligible) before the governor asks the
    /// durability layer to escalate to degraded read-only mode.
    pub over_budget_degrade_after: u32,
    /// Allow the governor to trigger a checkpoint when an eviction pass
    /// cannot reach budget because dirty chunks are ineligible — the
    /// checkpoint makes them clean and therefore evictable next pass.
    pub governor_checkpoint: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 0,
            query_slots: 0,
            admit_wait_ms: 5,
            write_wait_ms: 50,
            check_interval: 16,
            over_budget_degrade_after: 3,
            governor_checkpoint: true,
        }
    }
}

/// Cooperative cancellation handle: cloneable, flip once with
/// [`CancelToken::cancel`], observed by every query carrying it in its
/// [`QueryCtx`] at the next chunk boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Per-query execution context: optional deadline and cancel token,
/// checked cooperatively at chunk boundaries in the scan loops. A default
/// context never interrupts.
#[derive(Debug, Clone, Default)]
pub struct QueryCtx {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl QueryCtx {
    /// A context that never interrupts.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Expire at an absolute instant.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Expire after a duration from now.
    pub fn with_timeout(self, after: Duration) -> Self {
        self.with_deadline(Instant::now() + after)
    }

    /// Attach a cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Chunk-boundary check: cancellation is reported before expiry so an
    /// explicit cancel is never masked as a timeout.
    pub fn check(&self) -> Result<(), StorageError> {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Err(StorageError::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(StorageError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Point-in-time governor counters (all monotone except `resident_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Governed queries admitted through the slot gate.
    pub admitted: u64,
    /// Queries shed with [`StorageError::Overloaded`].
    pub shed: u64,
    /// Queries that hit their deadline.
    pub deadline_exceeded: u64,
    /// Queries interrupted by a cancel token.
    pub cancelled: u64,
    /// Queries isolated after panicking.
    pub panics: u64,
    /// Chunks demoted to lazy slots by eviction passes.
    pub evictions: u64,
    /// Evicted chunks decoded back on demand.
    pub rehydrations: u64,
    /// Last accounted resident bytes across hydrated chunk stores.
    pub resident_bytes: u64,
}

/// The slot gate. `std::sync::Condvar` because the in-tree `parking_lot`
/// shim deliberately omits one; poisoning is swallowed via `into_inner`
/// (the protected state is a plain counter, valid under any interleaving).
struct Gate {
    available: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    /// Take one slot, waiting up to `wait`. Returns how long it waited,
    /// or `Err(waited)` when the wait expired empty-handed.
    fn acquire(&self, wait: Duration) -> Result<Duration, Duration> {
        let start = Instant::now();
        let mut avail = self
            .available
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if *avail > 0 {
                *avail -= 1;
                return Ok(start.elapsed());
            }
            let elapsed = start.elapsed();
            if elapsed >= wait {
                return Err(elapsed);
            }
            let (g, _timeout) = self
                .cv
                .wait_timeout(avail, wait - elapsed)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            avail = g;
        }
    }

    fn release(&self) {
        let mut avail = self
            .available
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *avail += 1;
        self.cv.notify_one();
    }
}

/// RAII query slot: released on drop, panic-safe by construction
/// ([`Governor::run`] holds the permit across `catch_unwind`, so a
/// panicking query still returns its slot).
pub struct AdmitPermit<'a> {
    gate: Option<&'a Gate>,
}

impl std::fmt::Debug for AdmitPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmitPermit")
            .field("gated", &self.gate.is_some())
            .finish()
    }
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        if let Some(g) = self.gate {
            g.release();
        }
    }
}

/// The shared resource-governor handle threaded through `DurableTable`
/// and `TableReader` (one per table, `Arc`-shared with readers).
pub struct Governor {
    cfg: GovernorConfig,
    gate: Gate,
    admitted: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
    resident_bytes: AtomicU64,
    /// Governed queries since the last budget check (amortization clock).
    since_check: AtomicU64,
    /// Consecutive eviction passes that ended still over budget.
    over_budget_streak: AtomicU64,
}

impl Governor {
    /// Build a governor; inert dimensions (zero budget / zero slots) cost
    /// one branch per query.
    pub fn new(cfg: GovernorConfig) -> Self {
        Self {
            gate: Gate {
                available: Mutex::new(cfg.query_slots),
                cv: Condvar::new(),
            },
            cfg,
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            since_check: AtomicU64::new(0),
            over_budget_streak: AtomicU64::new(0),
        }
    }

    /// The configuration the governor was built with.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Acquire a query slot (reads wait `admit_wait_ms`, writes
    /// `write_wait_ms`), or shed with [`StorageError::Overloaded`].
    pub fn admit(&self, is_write: bool) -> Result<AdmitPermit<'_>, StorageError> {
        if self.cfg.query_slots == 0 {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmitPermit { gate: None });
        }
        let wait = Duration::from_millis(if is_write {
            self.cfg.write_wait_ms
        } else {
            self.cfg.admit_wait_ms
        });
        match self.gate.acquire(wait) {
            Ok(waited) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                OBS_WAIT.record(waited.as_nanos() as u64);
                Ok(AdmitPermit {
                    gate: Some(&self.gate),
                })
            }
            Err(waited) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                OBS_SHED.inc();
                Err(StorageError::Overloaded {
                    waited_ms: waited.as_millis() as u64,
                })
            }
        }
    }

    /// Run one query under governance: admission through the slot gate,
    /// then `f` inside `catch_unwind`, its outcome classified into the
    /// interrupt counters. A panic surfaces as [`StorageError::Panicked`]
    /// carrying `chunk_hint` — the chunk the query routes to, when the
    /// caller can name one — so the owner can quarantine it; the serving
    /// loop, and the query slot (released by RAII), survive.
    pub fn run<T>(
        &self,
        is_write: bool,
        chunk_hint: Option<usize>,
        f: impl FnOnce() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let _permit = self.admit(is_write)?;
        // AssertUnwindSafe: a panic can leave the routed chunk's in-memory
        // state half-mutated, which is exactly why the caller quarantines
        // the implicated chunk — nothing else is reachable mid-query.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(self.note_outcome(e)),
            Err(payload) => Err(self.note_outcome(StorageError::Panicked {
                detail: panic_detail(payload),
                chunk: chunk_hint,
            })),
        }
    }

    /// Classify a governed outcome into the interrupt counters.
    fn note_outcome(&self, e: StorageError) -> StorageError {
        match &e {
            StorageError::DeadlineExceeded => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                OBS_DEADLINE.inc();
            }
            StorageError::Cancelled => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                OBS_CANCELLED.inc();
            }
            StorageError::Panicked { .. } => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                OBS_PANICS.inc();
            }
            _ => {}
        }
        e
    }

    /// Whether the budget clock says it is time to re-account resident
    /// bytes (every `check_interval` governed queries). Only meaningful
    /// when a budget is configured.
    pub fn budget_check_due(&self) -> bool {
        if self.cfg.memory_budget_bytes == 0 {
            return false;
        }
        let n = self.since_check.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.cfg.check_interval.max(1) {
            self.since_check.store(0, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Record freshly accounted resident bytes.
    pub fn set_resident_bytes(&self, bytes: u64) {
        self.resident_bytes.store(bytes, Ordering::Relaxed);
        OBS_RESIDENT.set(bytes as f64);
    }

    /// Record `n` chunk evictions.
    pub fn note_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
        OBS_EVICTIONS.add(n);
    }

    /// Record one on-demand rehydration of a previously evicted chunk
    /// (called from the wrapped chunk loader).
    pub fn note_rehydration(&self) {
        self.rehydrations.fetch_add(1, Ordering::Relaxed);
        OBS_REHYDRATIONS.inc();
    }

    /// Feed the outcome of one eviction pass into the escalation ladder:
    /// returns `true` when `over_budget_degrade_after` consecutive passes
    /// ended still over budget — the caller escalates to degraded
    /// read-only mode instead of riding into the OOM killer.
    pub fn over_budget_tick(&self, still_over: bool) -> bool {
        if !still_over {
            self.over_budget_streak.store(0, Ordering::Relaxed);
            return false;
        }
        let streak = self.over_budget_streak.fetch_add(1, Ordering::Relaxed) + 1;
        streak >= u64::from(self.cfg.over_budget_degrade_after.max(1))
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rehydrations: self.rehydrations.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Governor")
            .field("config", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Stringify a panic payload (`&str` and `String` payloads verbatim,
/// anything else by type opacity).
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_governor_is_inert() {
        let g = Governor::new(GovernorConfig::default());
        for _ in 0..100 {
            let p = g.admit(false).expect("no gate configured");
            drop(p);
        }
        assert_eq!(g.stats().shed, 0);
        assert!(!g.budget_check_due(), "no budget, no checks");
    }

    #[test]
    fn gate_sheds_when_slots_exhausted() {
        let g = Governor::new(GovernorConfig {
            query_slots: 2,
            admit_wait_ms: 1,
            ..GovernorConfig::default()
        });
        let p1 = g.admit(false).expect("slot 1");
        let p2 = g.admit(false).expect("slot 2");
        let e = g.admit(false).expect_err("gate full");
        assert!(matches!(e, StorageError::Overloaded { .. }));
        drop(p1);
        let _p3 = g.admit(false).expect("released slot re-admits");
        drop(p2);
        assert_eq!(g.stats().shed, 1);
        assert_eq!(g.stats().admitted, 3);
    }

    #[test]
    fn permit_released_even_across_panic() {
        let g = Governor::new(GovernorConfig {
            query_slots: 1,
            admit_wait_ms: 1,
            ..GovernorConfig::default()
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _p = g.admit(false).expect("slot");
            panic!("boom");
        }));
        assert!(r.is_err());
        g.admit(false).expect("slot returned by unwound permit");
    }

    #[test]
    fn ctx_deadline_and_cancel_surface_typed() {
        let ctx = QueryCtx::unbounded().with_timeout(Duration::from_secs(0));
        assert!(matches!(ctx.check(), Err(StorageError::DeadlineExceeded)));

        let token = CancelToken::new();
        let ctx = QueryCtx::unbounded()
            .with_timeout(Duration::from_secs(0))
            .with_cancel(token.clone());
        token.cancel();
        // Cancel wins over an expired deadline.
        assert!(matches!(ctx.check(), Err(StorageError::Cancelled)));

        assert!(QueryCtx::unbounded().check().is_ok());
    }

    #[test]
    fn escalation_ladder_requires_consecutive_over_budget() {
        let g = Governor::new(GovernorConfig {
            memory_budget_bytes: 1,
            over_budget_degrade_after: 3,
            ..GovernorConfig::default()
        });
        assert!(!g.over_budget_tick(true));
        assert!(!g.over_budget_tick(true));
        g.over_budget_tick(false); // recovery resets the streak
        assert!(!g.over_budget_tick(true));
        assert!(!g.over_budget_tick(true));
        assert!(g.over_budget_tick(true), "third consecutive pass escalates");
    }

    #[test]
    fn budget_clock_fires_every_interval() {
        let g = Governor::new(GovernorConfig {
            memory_budget_bytes: 1024,
            check_interval: 4,
            ..GovernorConfig::default()
        });
        let fired: usize = (0..12).filter(|_| g.budget_check_due()).count();
        assert_eq!(fired, 3);
    }
}

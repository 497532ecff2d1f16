//! The background checkpointer: a dedicated thread that serializes and
//! fsyncs checkpoint jobs off the commit path.
//!
//! The foreground (`DurableTable`) **captures** a checkpoint under its own
//! short pause — seal the WAL batch, rotate to a fresh WAL file, clone the
//! dirty chunk stores (a memcpy, no serialization) — and hands the job
//! here. The thread then pays the expensive part alone: encoding the dirty
//! records, writing + fsyncing the segment, writing the manifest, and
//! swinging `CURRENT`. Commits meanwhile continue against the *new* WAL,
//! so the only fsync left on the commit path is the group-commit seal they
//! already pay.
//!
//! ## Retry discipline
//!
//! Transient I/O failures (ENOSPC that an operator may clear, a flaky
//! fsync) are retried with bounded exponential backoff before the failure
//! surfaces to the foreground. Retrying the *whole job* is safe because
//! `run_checkpoint` re-creates the segment file with a fresh descriptor
//! and rewrites it end to end on every attempt — no retried fsync ever
//! runs against a descriptor whose dirty pages a failed fsync may have
//! dropped (the fsyncgate trap). Corruption and transaction errors are
//! permanent and fail immediately.
//!
//! ## Locking contract
//!
//! `DurableTable` is externally synchronized (`&mut self`), so the
//! "lock" is the capture itself: the foreground clones dirty state while
//! no query runs, then never shares live table memory with the thread.
//! At most one job is in flight; completion is applied by the foreground
//! (`try_recv` on every seal, blocking `recv` for the synchronous
//! `checkpoint()` / `optimize()` / drop paths). Crash at any point is
//! safe: until `CURRENT` swings, recovery resolves the previous manifest
//! plus the intact WAL chain (the rotated-out WAL file is only pruned —
//! or, with archiving on, *retired* into the archive — *after* the
//! swing). Each job carries the table's shared backup pins, so the
//! post-swing prune/retire running on this thread never removes a file an
//! in-flight `BackupJob` is still copying; `begin_backup`'s fence
//! (`finish_inflight` before pinning) closes the race in the other
//! direction.

use crate::incremental::{run_checkpoint, CheckpointJob, Manifest};
use casper_obs::HistogramDef;
use casper_storage::StorageError;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Duration;

/// End-to-end duration of one checkpoint job, retries and backoff
/// included (the number an operator actually waits on).
static OBS_CP_DURATION: HistogramDef = HistogramDef::new("casper_checkpoint_duration_ns");

/// How a checkpoint job is retried on transient I/O failure.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry, capped at 1s.
    pub backoff: Duration,
}

const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Outcome of one (possibly retried) checkpoint job.
#[derive(Debug)]
pub(crate) struct Completion {
    /// The final result after retries.
    pub result: Result<Manifest, StorageError>,
    /// Attempts actually made (≥ 1; > 1 means retries happened).
    pub attempts: u32,
}

/// Run `job` under `policy`: retry transient failures with doubling,
/// capped backoff. See the module docs for why whole-job retry is safe.
pub(crate) fn run_with_retry(job: &CheckpointJob, policy: &RetryPolicy) -> Completion {
    let started = casper_obs::enabled().then(std::time::Instant::now);
    let completion = run_with_retry_inner(job, policy);
    if let Some(t) = started {
        OBS_CP_DURATION.record(t.elapsed().as_nanos() as u64);
    }
    completion
}

fn run_with_retry_inner(job: &CheckpointJob, policy: &RetryPolicy) -> Completion {
    let attempts_allowed = policy.attempts.max(1);
    let mut backoff = policy.backoff;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match run_checkpoint(job) {
            Ok(m) => {
                return Completion {
                    result: Ok(m),
                    attempts,
                }
            }
            // Only raw I/O errors (ENOSPC, EIO, a failed fsync) are worth
            // retrying: they can clear; corruption cannot.
            Err(StorageError::Io(_)) if attempts < attempts_allowed => {
                std::thread::sleep(backoff.min(BACKOFF_CAP));
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
            Err(e) => {
                return Completion {
                    result: Err(e),
                    attempts,
                }
            }
        }
    }
}

/// Handle to the checkpointer thread.
#[derive(Debug)]
pub(crate) struct Checkpointer {
    jobs: Option<Sender<CheckpointJob>>,
    done: Receiver<Completion>,
    handle: Option<JoinHandle<()>>,
}

fn thread_died() -> StorageError {
    StorageError::corrupt("checkpointer thread died (panicked or channel closed)")
}

impl Checkpointer {
    /// Spawn the worker thread. Fails (typed, not a panic) if the OS
    /// refuses the thread.
    pub fn spawn(policy: RetryPolicy) -> Result<Self, StorageError> {
        let (jobs_tx, jobs_rx) = std::sync::mpsc::channel::<CheckpointJob>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("casper-checkpointer".into())
            .spawn(move || {
                while let Ok(job) = jobs_rx.recv() {
                    let completion = run_with_retry(&job, &policy);
                    if done_tx.send(completion).is_err() {
                        break; // foreground gone; nothing to report to
                    }
                }
            })?;
        Ok(Self {
            jobs: Some(jobs_tx),
            done: done_rx,
            handle: Some(handle),
        })
    }

    /// Queue a job (the caller tracks that exactly one is in flight).
    /// Infallible by construction: the job channel only closes when the
    /// thread has ended, which also closes the completion channel, so the
    /// next `try_recv` / `recv` reports the dropped job as a failed
    /// completion through the same path as any other.
    pub fn submit(&self, job: CheckpointJob) {
        let jobs = self.jobs.as_ref().expect("sender lives until drop");
        let _ = jobs.send(job);
    }

    /// Non-blocking poll for a finished job.
    pub fn try_recv(&self) -> Option<Completion> {
        match self.done.try_recv() {
            Ok(c) => Some(c),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Completion {
                result: Err(thread_died()),
                attempts: 0,
            }),
        }
    }

    /// Block until the in-flight job finishes.
    pub fn recv(&self) -> Completion {
        self.done.recv().unwrap_or_else(|_| Completion {
            result: Err(thread_died()),
            attempts: 0,
        })
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        // Closing the job channel ends the worker loop; join so no write
        // races the process teardown.
        self.jobs.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

//! # casper-persist
//!
//! Durable storage for the Casper column-layout engine: everything the
//! optimizer worked out — workload-optimal partitioning, per-partition
//! compression modes, ghost-slot placement, frequency-model state — is
//! expensive to recompute, so this crate makes it survive restarts instead
//! (§6.4 positions Casper as a storage engine "easily integrated into
//! existing systems"; such systems treat their physical design as durable
//! state).
//!
//! The pieces:
//!
//! * [`incremental`] — the checkpoint format: append-once *segments* of
//!   per-chunk records plus small CRC-checksummed *manifests* mapping
//!   chunk id → (segment, offset, len, crc). Checkpoints re-serialize
//!   **only the chunks dirtied since the last one** (the engine's
//!   per-chunk version counters enumerate them) and compact the segment
//!   chain periodically; restore maps segments ([`mmap`]) and hydrates
//!   chunks lazily, checksum-verified at first touch, with **zero layout
//!   solves and zero codec re-encodes** (asserted via the solver/codec
//!   telemetry counters). It is also the one reader of a table directory
//!   (`CURRENT` → manifest → CRC-verified records) and the one namer of
//!   its files ([`FileKind`]).
//! * [`wal`] — an append-only redo log of Q4/Q5/Q6 writes with group-commit
//!   batching, per-record CRC32, and torn-tail truncation on replay.
//! * [`checkpointer`] — the background checkpoint thread: the foreground
//!   seals + rotates the WAL and clones dirty chunk state; serialization
//!   and fsyncs run off the commit path.
//! * [`archive`] — the stale-file rule every committed checkpoint applies,
//!   and point-in-time recovery: with archiving enabled the stale
//!   manifests, segments, and WAL links are *retired* into an LSN-indexed
//!   `archive/` instead of deleted, so
//!   [`DurableTable::open_at`] can restore any archived LSN bit-exact
//!   (zero solves, zero re-encodes). Also home of the online hot-backup
//!   path ([`DurableTable::begin_backup`]) and backup verification.
//! * [`durable`] — [`DurableTable`], the engine wrapper tying it together:
//!   WAL staging on every write, watermark-triggered background
//!   checkpoints, synchronous checkpoints after every optimizer re-layout,
//!   lazy restore.
//!
//! Formats are hand-rolled in-repo (CRC32 and mmap included) following the
//! workspace's offline `crates/shims/` discipline; the byte layouts are
//! documented in `docs/persist-format.md`.

pub mod archive;
pub mod checkpointer;
pub mod codec;
pub mod crc;
pub mod durable;
pub mod fault;
pub mod incremental;
mod ledger;
pub mod mmap;
mod record;
pub mod scrub;
pub mod vfs;
pub mod wal;

pub use archive::{
    ArchiveConfig, ArchiveIndex, ArchivedFile, BackupJob, BackupReport, BackupVerifyReport,
    PointInTime,
};
pub use durable::{CheckpointFailure, CheckpointStats, DurableOptions, DurableStats, DurableTable};
pub use fault::{FaultCounters, FaultErr, FaultRule, FaultVfs, VfsOp};
pub use incremental::{decode_manifest, encode_manifest, ChunkEntry, FileKind, Manifest};
pub use mmap::Mmap;
pub use scrub::{ScrubFinding, ScrubReport, ScrubStats};
pub use vfs::{RealVfs, Vfs, VfsFile, VfsHandle};
pub use wal::{Wal, WalBatch, WalOp, WalScan};

use casper_engine::{QueryError, TxnError};
use casper_storage::StorageError;
use std::fmt;

/// Errors surfaced by the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure (open, write, fsync, rename…).
    Io(std::io::Error),
    /// Corrupt or inconsistent persisted state, or a storage-layer failure
    /// while replaying.
    Storage(StorageError),
    /// A transaction failed validation during a durable commit.
    Txn(TxnError),
    /// A resource-governance outcome from governed execution: deadline
    /// expiry, cancellation, load shedding, or an isolated query panic.
    /// Strictly separated from [`PersistError::Storage`] so callers can
    /// retry/abandon without treating the table as damaged.
    Query(QueryError),
    /// The table is in degraded read-only mode: persistent durability
    /// failure (a poisoned WAL whose recovery checkpoint also failed, or
    /// too many consecutive checkpoint failures) means new writes cannot
    /// be made durable. Reads keep serving from memory; writes are
    /// rejected with this error until [`durable::DurableTable::reactivate`]
    /// proves the storage healthy again.
    Degraded {
        /// Why the table degraded (the original failure chain).
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Storage(e) => write!(f, "{e}"),
            PersistError::Txn(e) => write!(f, "{e}"),
            PersistError::Query(e) => write!(f, "{e}"),
            PersistError::Degraded { reason } => write!(
                f,
                "durable table is degraded (read-only): {reason}; \
                 fix the storage and call reactivate()"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Storage(e) => Some(e),
            PersistError::Txn(e) => Some(e),
            PersistError::Query(e) => Some(e),
            PersistError::Degraded { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl From<TxnError> for PersistError {
    fn from(e: TxnError) -> Self {
        PersistError::Txn(e)
    }
}

impl From<QueryError> for PersistError {
    fn from(e: QueryError) -> Self {
        match e {
            // A storage fault inside a governed query is still a storage
            // fault — callers match on `PersistError::Storage` for those
            // regardless of which execution path surfaced them.
            QueryError::Storage(inner) => PersistError::Storage(inner),
            other => PersistError::Query(other),
        }
    }
}

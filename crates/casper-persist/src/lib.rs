//! # casper-persist
//!
//! Durable storage for the Casper column-layout engine: everything the
//! optimizer worked out — workload-optimal partitioning, ghost-slot
//! placement, frequency-model state — is
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
//!   chain periodically; restore opens segments and reads and verifies
//!   each record at first touch, with **zero layout
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
//! Formats are hand-rolled in-repo (CRC32 included) following the
//! workspace's offline `crates/shims/` discipline; the byte layouts are
//! documented in `docs/persist-format.md`.
//!
//! The crate is unix-only: segments are read by position through std's
//! `std::os::unix::fs::FileExt`, and the writeback hint
//! ([`VfsFile::start_writeback`]) is Linux's `sync_file_range`, the
//! crate's one `unsafe`.

#![deny(unsafe_code)]

pub mod archive;
pub mod checkpointer;
pub mod codec;
pub mod crc;
pub mod durable;
pub mod fault;
pub mod incremental;
mod ledger;
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
pub use incremental::{decode_manifest, encode_manifest, ChunkEntry, FileKind, Manifest, Record};
pub use scrub::{ScrubFinding, ScrubReport, ScrubStats};
pub use vfs::{RealVfs, Vfs, VfsFile, VfsHandle};
pub use wal::{Wal, WalBatch, WalOp, WalScan};

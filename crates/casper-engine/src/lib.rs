//! # casper-engine
//!
//! The Casper storage engine (§6, Fig. 10): the integration layer that
//! turns the layout optimizer of `casper-core` and the partitioned chunks
//! of `casper-storage` into a usable columnar engine.
//!
//! * [`modes`] — the six operation modes of the evaluation (§7): `NoOrder`,
//!   `Sorted`, `StateOfArt` (sorted + delta), `Equi`, `EquiGV`, `Casper`.
//! * [`mod@column`] / [`table`] — chunked columns (1M-value chunks by default)
//!   and multi-column HAP tables executing Q1–Q6.
//! * [`optimize`] — the per-chunk Frequency-Model → solver → repartition
//!   pipeline (the A→B→C loop of Fig. 10), chunk-parallel per §6.3.
//! * [`compression`] — the §6.2 storage-mode policy: after a re-layout,
//!   cold read-heavy partitions are encoded (FoR/dictionary/RLE) and served
//!   by the compressed-scan kernels; writes decode-on-write back to plain.
//! * [`txn`] — snapshot isolation through MVCC with first-committer-wins
//!   (§6.1), including the decoupled ghost rippling that survives aborts.
//! * [`adapt`] — the online re-optimization loop of §1 (A′ in Fig. 10):
//!   sliding-window monitoring and benefit-gated re-partitioning.
//! * [`calibrate`] — the §4.5 micro-benchmark fitting `RR/RW/SR/SW`.
//! * [`exec`] — scoped-thread helpers for chunk-parallel execution.

pub mod adapt;
pub mod calibrate;
pub mod column;
pub mod compression;
pub mod exec;
pub mod governor;
pub mod modes;
pub mod optimize;
pub mod table;
pub mod txn;

pub use adapt::{AdaptConfig, AdaptiveController};
pub use column::{ChunkSlot, ChunkedColumn, ColumnSnapshot, SnapshotCell};
pub use governor::{CancelToken, Governor, GovernorConfig, GovernorStats, QueryCtx};
pub use modes::{EngineConfig, LayoutMode};
pub use table::{QueryOutput, QueryResult, Table, TableReader};
pub use txn::{Transaction, TxnManager};

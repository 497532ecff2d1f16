//! # casper-storage
//!
//! Storage substrate for the Casper column-layout engine, reproducing the
//! storage-engine layer of *"Optimal Column Layout for Hybrid Workloads"*
//! (Athanassoulis, Bøgh, Idreos — VLDB 2019).
//!
//! The central type is [`PartitionedChunk`]: a fixed-width column chunk that
//! is range partitioned into variable-sized partitions, each optionally
//! carrying *ghost values* (empty slots used as a per-partition update
//! buffer, §2 of the paper). The chunk supports the paper's five access
//! patterns (§3):
//!
//! * **point queries** — a binary search of the partition bounds + a
//!   tight-loop partition scan,
//! * **range queries** — filtered first/last partition, blind middle scans,
//! * **inserts** — the ripple-insert algorithm (Fig. 4a),
//! * **deletes** — swap-fill plus hole ripple (Fig. 4b) or ghost creation,
//! * **updates** — direct source→target ripple, forward or backward.
//!
//! Every operation returns an [`OpCost`] describing the block-level accesses
//! it performed, which is what the cost model of `casper-core` predicts.
//!
//! Also provided: the two classic baselines used in the paper's evaluation —
//! a fully [`sorted`] column and a sorted column with a [`delta`] store.
//! Each partition's bounds are stored once, in its [`PartitionMeta`]: they
//! route a value to its partition and, as the paper's Zonemaps (§6.3), let
//! a scan skip a partition before touching it. A partitioned chunk keeps one
//! copy of its keys: a key lane of 32-bit offsets from a chunk base when
//! the keys span less than 2^32 (the §6.2 frame-of-reference idea as the
//! storage itself), full width otherwise.

pub mod chunk;
pub mod delta;
pub mod error;
pub mod ghost;
mod index;
pub mod kernels;
mod lane;
pub mod layout;
pub mod ops;
pub mod partition;
pub mod payload;
pub mod simd;
pub mod sorted;
pub mod value;

pub use chunk::{ChunkConfig, ChunkState, PartitionedChunk, MIN_TAIL_SLOTS};
pub use delta::SortedDelta;
pub use error::StorageError;
pub use layout::{BlockLayout, PartitionSpec};
pub use ops::{OpCost, PointQueryResult, RangeConsumer, WriteResult};
pub use partition::PartitionMeta;
pub use payload::{PayloadOrientation, PayloadSet};
pub use sorted::{sort_rows_by_key, SortedColumn};
pub use value::ColumnValue;

/// Policy deciding how a chunk maintains density under deletes and how
/// inserts acquire free slots (Table 1 of the paper: update policy ×
/// buffering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// The column stays dense: deletes ripple their hole to the end of the
    /// column, inserts ripple a slot in from the column tail. No ghost
    /// values are ever left inside partitions. (Paper: in-place updates,
    /// no buffering.)
    Dense,
    /// Deletes leave ghost slots at the end of their partition; inserts
    /// consume the nearest available ghost slot, rippling it over as few
    /// partitions as possible. (Paper: hybrid updates, per-partition
    /// buffering.)
    #[default]
    Ghost,
}

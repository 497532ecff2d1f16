//! # casper — workload-driven optimal column layouts for hybrid workloads
//!
//! Facade crate re-exporting the full public API of the Casper
//! reproduction (Athanassoulis, Bøgh, Idreos: *Optimal Column Layout for
//! Hybrid Workloads*, VLDB 2019).
//!
//! See the [`prelude`] for the types most applications need, and the
//! `examples/` directory for runnable end-to-end scenarios.

pub use casper_core as core;
pub use casper_engine as engine;
pub use casper_persist as persist;
pub use casper_storage as storage;
pub use casper_workload as workload;

/// The types most applications need, in one import.
pub mod prelude {
    pub use casper_engine::{QueryCtx, Table};
    pub use casper_persist::{DurableOptions, DurableTable};
    pub use casper_storage::{
        BlockLayout, ChunkConfig, OpCost, PartitionSpec, PartitionedChunk, UpdatePolicy,
    };
}

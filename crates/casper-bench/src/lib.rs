//! # casper-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). Each
//! `src/bin/figNN_*.rs` binary regenerates one figure:
//!
//! ```text
//! cargo run --release -p casper-bench --bin fig12_throughput
//! ```
//!
//! All binaries accept `--rows=N --ops=N --seed=N` style arguments (and
//! `--help`). Absolute numbers differ from the paper's EC2 testbed; the
//! binaries print the paper's reported values next to the measured ones so
//! the *shapes* can be compared directly (EXPERIMENTS.md records both).

pub mod cli;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod trajectory;

pub use cli::Args;
pub use report::TableReport;
pub use runner::{run_queries, run_queries_batched, RunConfig, RunOutcome};

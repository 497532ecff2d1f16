//! # casper-bench
//!
//! Subsystem benchmarks and the kernel micro-benchmarks. Each
//! `src/bin/*.rs` binary measures one subsystem and records its numbers in
//! a `BENCH_*.json` file at the workspace root:
//!
//! ```text
//! cargo run --release -p casper-bench --bin recovery_time [-- --smoke]
//! ```
//!
//! All binaries accept `--key=value` arguments (and `--help`). The criterion
//! benches live under `benches/`; `scan_ops` writes `BENCH_scan.json`
//! through [`trajectory`].
//!
//! The paper's figures are not here: their claims are asserted by the
//! root package's `tests/paper_claims.rs` (`cargo test --test
//! paper_claims`), and the end-to-end throughput of each layout mode is
//! measured by `benchmark/`.

pub mod cli;
pub mod report;
pub mod trajectory;

pub use cli::Args;
pub use report::TableReport;

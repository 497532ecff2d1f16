//! # casper-bench
//!
//! The kernel, solver and WAL-staging micro-benchmarks: four criterion
//! benches under `benches/` (`scan_ops`, `ripple`, `solver`, `wal`), developer
//! tools run with `cargo bench -p casper-bench --bench <name>`. A full
//! `scan_ops` run also records the per-kernel table `BENCH_scan.json`
//! through [`trajectory`]; a `--test` smoke run checks every kernel against
//! its portable twin and writes nothing.
//!
//! Nothing else is measured here. The paper's figures are asserted by the
//! root package's `tests/paper_claims.rs`; end-to-end throughput and the
//! per-layer breakdown (persist, governor, telemetry overhead) are measured
//! by `benchmark/`; the counts the subsystems guarantee are tier-1 tests.

pub mod trajectory;

//! Criterion micro-benchmark for WAL staging: one 15-word Q4 encoded into
//! the open batch, through `Wal::stage(&WalOp)` and through
//! `Wal::stage_query(&HapQuery)`, into a batch buffer that already has the
//! room (as every batch after a log's first has). Staging is all that is
//! timed. Every [`BATCH`] writes the batch seals off the clock, on a log
//! kept on the fault harness with an empty schedule: its seal writes the
//! batch but calls no real fsync.

use casper_persist::wal::{Wal, WalOp};
use casper_persist::{FaultVfs, VfsHandle};
use casper_workload::HapQuery;
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writes per sealed batch: the durable workload's group commit.
const BATCH: u64 = 256;
/// Seals before the log starts a fresh file (the harness re-reads the
/// whole file at every sync, so the file is kept small).
const SEALS_PER_FILE: u32 = 8;

/// A log whose seals skip the fsync.
struct Log {
    path: PathBuf,
    wal: Wal,
    seals: u32,
}

impl Log {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wal_bench");
        std::fs::create_dir_all(&dir).expect("bench directory");
        let path = dir.join(name);
        let wal = Self::reserved(&path);
        Self {
            path,
            wal,
            seals: 0,
        }
    }

    /// A fresh log file whose batch buffer has room for [`BATCH`] writes:
    /// one batch staged and sealed, so the buffer keeps its capacity.
    fn reserved(path: &Path) -> Wal {
        let _ = std::fs::remove_file(path);
        let vfs = VfsHandle::fault(Arc::new(FaultVfs::new()));
        let mut wal = Wal::create(&vfs, path, 1).expect("bench log");
        let op = q4_op();
        for _ in 0..BATCH {
            wal.stage(&op);
        }
        wal.seal().expect("seal");
        wal
    }

    /// Stage `iters` writes with `stage`, sealing each full batch off the
    /// clock; returns the time spent staging.
    fn time_staging(&mut self, iters: u64, mut stage: impl FnMut(&mut Wal)) -> Duration {
        let mut spent = Duration::ZERO;
        let mut left = iters;
        while left > 0 {
            let n = left.min(BATCH - self.wal.staged_records());
            let start = Instant::now();
            for _ in 0..n {
                stage(&mut self.wal);
            }
            spent += start.elapsed();
            left -= n;
            if self.wal.staged_records() == BATCH {
                self.wal.seal().expect("seal");
                self.seals += 1;
                if self.seals == SEALS_PER_FILE {
                    self.wal = Self::reserved(&self.path);
                    self.seals = 0;
                }
            }
        }
        spent
    }
}

fn q4() -> HapQuery {
    HapQuery::Q4 {
        key: 7,
        payload: (0..15).collect(),
    }
}

fn q4_op() -> WalOp {
    WalOp::from_query(&q4()).expect("a write")
}

fn bench_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_stage_q4_15_words");
    group.bench_function("walop", |b| {
        let op = q4_op();
        let mut log = Log::new("stage-walop.log");
        b.iter_custom(|iters| log.time_staging(iters, |wal| wal.stage(std::hint::black_box(&op))))
    });
    group.bench_function("query", |b| {
        let q = q4();
        let mut log = Log::new("stage-query.log");
        b.iter_custom(|iters| {
            log.time_staging(iters, |wal| {
                assert!(wal.stage_query(std::hint::black_box(&q)));
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stage);
criterion_main!(benches);

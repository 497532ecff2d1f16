//! Criterion micro-benchmarks for the layout solver: the exact DP's
//! scaling in the block count (Fig. 11's per-chunk cost), unconstrained and
//! under a partition-count cap.

use casper_core::cost::{BlockTerms, CostConstants};
use casper_core::fm::{AccessDistribution, WorkloadSpec};
use casper_core::solver::{dp, SolverConstraints};
use casper_core::FrequencyModel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn terms(n: usize) -> BlockTerms {
    let fm = FrequencyModel::from_distributions(
        n,
        &WorkloadSpec {
            point: Some((1000.0, AccessDistribution::ZipfRecent { theta: 0.9 })),
            insert: Some((800.0, AccessDistribution::ZipfRecent { theta: 0.6 })),
            delete: Some((200.0, AccessDistribution::Uniform)),
            ..WorkloadSpec::none()
        },
    );
    BlockTerms::from_fm(&fm, &CostConstants::paper())
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_solve");
    for n in [64usize, 256, 1024, 4096] {
        let t = terms(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(dp::solve(&t, &SolverConstraints::none()).cost))
        });
    }
    group.finish();
}

fn bench_dp_constrained(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_solve_constrained");
    let t = terms(512);
    for k in [8usize, 64, 256] {
        let constraints = SolverConstraints {
            max_partitions: Some(k),
            max_partition_blocks: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| std::hint::black_box(dp::solve(&t, &constraints).cost))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dp, bench_dp_constrained);
criterion_main!(benches);

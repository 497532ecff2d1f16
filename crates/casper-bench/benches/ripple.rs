//! Criterion micro-benchmarks for the write paths: ripple insert cost vs
//! partition count (Fig. 2a's right axis) and the ghost-value fast path
//! (Fig. 2b).

use casper_storage::{
    BlockLayout, ChunkConfig, ChunkLayout, PartitionSpec, PartitionedChunk, UpdatePolicy,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const VALUES: usize = 1 << 16;

fn build(partitions: usize, ghost_budget: usize, policy: UpdatePolicy) -> PartitionedChunk<u64> {
    let layout = BlockLayout::new::<u64>(4096);
    let n_blocks = layout.num_blocks(VALUES);
    let spec = PartitionSpec::equi_width(n_blocks, partitions);
    PartitionedChunk::build(
        (0..VALUES as u64).map(|v| v * 2).collect(),
        &ChunkLayout::even(spec, ghost_budget),
        layout,
        ChunkConfig {
            policy,
            capacity_slack: 2.0, // plenty of tail for sustained inserts
            ghost_fetch_block: 1,
        },
    )
    .expect("build")
}

fn bench_ripple_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("ripple_insert_dense");
    for partitions in [2usize, 8, 32, 128] {
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, &p| {
                let mut chunk = build(p, 0, UpdatePolicy::Dense);
                let mut i = 1u64;
                b.iter(|| {
                    i = i.wrapping_add(2);
                    // Insert near the front: worst-case trailing partitions.
                    let v = i % 1000;
                    let cost = match chunk.insert(v | 1, &[]) {
                        Ok(r) => r.cost,
                        Err(_) => {
                            chunk.grow(VALUES);
                            chunk.insert(v | 1, &[]).expect("insert after grow").cost
                        }
                    };
                    std::hint::black_box(cost)
                })
            },
        );
    }
    group.finish();
}

fn bench_ghost_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_with_ghosts");
    for budget_pct in [0usize, 1, 10] {
        group.bench_with_input(
            BenchmarkId::from_parameter(budget_pct),
            &budget_pct,
            |b, &pct| {
                let mut chunk = build(64, VALUES * pct / 100, UpdatePolicy::Ghost);
                let mut i = 1u64;
                b.iter(|| {
                    i = i.wrapping_add(48271);
                    let v = (i % (VALUES as u64 * 2)) | 1;
                    let cost = match chunk.insert(v, &[]) {
                        Ok(r) => r.cost,
                        Err(_) => {
                            chunk.grow(VALUES);
                            chunk.insert(v, &[]).expect("insert after grow").cost
                        }
                    };
                    std::hint::black_box(cost)
                })
            },
        );
    }
    group.finish();
}

fn bench_direct_ripple_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("direct_ripple_update");
    for span in [1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(span), &span, |b, &span| {
            let mut chunk = build(64, 0, UpdatePolicy::Dense);
            let per_part = (VALUES as u64 * 2) / 64;
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                // Move a value `span` partitions to the right and back,
                // keeping the chunk in steady state.
                let src = ((i * 2909) % per_part) & !1;
                let dst = src + span as u64 * per_part;
                let r1 = chunk.update(src, dst).expect("fwd");
                let r2 = chunk.update(dst, src).expect("bwd");
                std::hint::black_box((r1.affected, r2.affected))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ripple_insert,
    bench_ghost_insert,
    bench_direct_ripple_update
);
criterion_main!(benches);

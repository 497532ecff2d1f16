//! Criterion micro-benchmarks: point and range scans vs layout granularity,
//! plus scalar-baseline vs branchless-kernel comparisons.
//!
//! Quantifies Fig. 2a's left axis on real hardware: point-query latency
//! falls as partitions shrink; range scans are insensitive to partitioning
//! once middles are consumed blindly. The `*_scalar_vs_kernel` groups track
//! the speedup of the batch kernels (`casper_storage::kernels`) over the
//! retained scalar reference paths (`casper_storage::ops::scalar`) on a
//! 1M-value chunk — the acceptance gate for the kernel subsystem.

use casper_bench::trajectory;
use casper_storage::{BlockLayout, ChunkConfig, ChunkLayout, PartitionSpec, PartitionedChunk};
use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};

const VALUES: usize = 1 << 18;
/// Chunk size for the kernel-vs-scalar groups (the paper's 1M-value chunk).
const KERNEL_VALUES: usize = 1 << 20;

/// 1M-value chunk with one 4-byte payload column, `partitions` partitions.
fn build_1m(partitions: usize) -> PartitionedChunk<u64> {
    let layout = BlockLayout::new::<u64>(16 * 1024);
    let n_blocks = layout.num_blocks(KERNEL_VALUES);
    let spec = PartitionSpec::equi_width(n_blocks, partitions);
    let keys: Vec<u64> = (0..KERNEL_VALUES as u64).map(|v| v * 2).collect();
    let payload: Vec<u32> = keys.iter().map(|&k| (k % 997) as u32).collect();
    PartitionedChunk::build_with_payloads(
        &keys,
        &[payload],
        &ChunkLayout::dense(spec),
        layout,
        ChunkConfig::default(),
    )
    .expect("build")
}

fn bench_point_scalar_vs_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_1m_scalar_vs_kernel");
    for partitions in [1usize, 128] {
        let chunk = build_1m(partitions);
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("scalar", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(48271);
                    let v = (i % KERNEL_VALUES as u64) * 2;
                    std::hint::black_box(chunk.point_query_scalar(v).positions.len())
                })
            },
        );
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("kernel", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(48271);
                    let v = (i % KERNEL_VALUES as u64) * 2;
                    std::hint::black_box(chunk.point_query(v).positions.len())
                })
            },
        );
    }
    // Misses outside every partition's bounds resolve from metadata alone.
    let chunk = build_1m(128);
    let mut i = 0u64;
    group.bench_function("kernel/miss_pruned", |b| {
        b.iter(|| {
            i = i.wrapping_add(48271);
            let v = KERNEL_VALUES as u64 * 2 + (i % 1000);
            std::hint::black_box(chunk.point_query(v).positions.len())
        })
    });
    group.finish();
}

fn bench_range_count_scalar_vs_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_count_1m_scalar_vs_kernel");
    group.throughput(Throughput::Elements(KERNEL_VALUES as u64));
    let span = (KERNEL_VALUES as u64 * 2) / 100; // 1% selectivity
    for partitions in [1usize, 128] {
        let chunk = build_1m(partitions);
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("scalar", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(16807);
                    let lo = i % (KERNEL_VALUES as u64 * 2 - span);
                    std::hint::black_box(chunk.range_count_scalar(lo, lo + span).0)
                })
            },
        );
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("kernel", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(16807);
                    let lo = i % (KERNEL_VALUES as u64 * 2 - span);
                    std::hint::black_box(chunk.range_count(lo, lo + span).0)
                })
            },
        );
    }
    group.finish();
}

fn bench_range_sum_scalar_vs_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_sum_1m_scalar_vs_kernel");
    let span = (KERNEL_VALUES as u64 * 2) / 100;
    for partitions in [1usize, 128] {
        let chunk = build_1m(partitions);
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("scalar", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(16807);
                    let lo = i % (KERNEL_VALUES as u64 * 2 - span);
                    std::hint::black_box(chunk.range_sum_payload_scalar(lo, lo + span, &[0]).0)
                })
            },
        );
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("kernel", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(16807);
                    let lo = i % (KERNEL_VALUES as u64 * 2 - span);
                    std::hint::black_box(chunk.range_sum_payload(lo, lo + span, &[0]).0)
                })
            },
        );
    }
    group.finish();
}

fn build(partitions: usize) -> PartitionedChunk<u64> {
    let layout = BlockLayout::new::<u64>(16 * 1024);
    let n_blocks = layout.num_blocks(VALUES);
    let spec = PartitionSpec::equi_width(n_blocks, partitions);
    PartitionedChunk::build(
        (0..VALUES as u64).map(|v| v * 2).collect(),
        &ChunkLayout::dense(spec),
        layout,
        ChunkConfig::default(),
    )
    .expect("build")
}

fn bench_point_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_query");
    for partitions in [1usize, 4, 16, 64, 128] {
        let chunk = build(partitions);
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(48271);
                    let v = (i % VALUES as u64) * 2;
                    std::hint::black_box(chunk.point_query(v).positions.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_range_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_count_1pct");
    let span = (VALUES as u64 * 2) / 100;
    for partitions in [1usize, 16, 128] {
        let chunk = build(partitions);
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    i = i.wrapping_add(16807);
                    let lo = i % (VALUES as u64 * 2 - span);
                    std::hint::black_box(chunk.range_count(lo, lo + span).0)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_point_query,
    bench_range_count,
    bench_point_scalar_vs_kernel,
    bench_range_count_scalar_vs_kernel,
    bench_range_sum_scalar_vs_kernel,
);

/// Custom harness entry: run the criterion groups, then emit the
/// machine-readable kernel trajectory — dispatched-SIMD vs forced-scalar
/// ns/elem and GB/s for every plain, point-probe and key-lane range
/// kernel × lane width. A full run writes it to `BENCH_scan.json` at the workspace
/// root. Smoke runs (`--test`) shrink the lanes and rep counts, still
/// assert both dispatch paths agree, and write nothing.
fn main() {
    let mut c = Criterion::default();
    benches(&mut c);

    let smoke = trajectory::smoke_mode();
    let (rows, reps) = if smoke { (1 << 14, 1) } else { (1 << 20, 7) };
    let mut entries = trajectory::plain_entries(rows, reps);
    entries.extend(trajectory::point_probe_entries(rows, reps));
    entries.extend(trajectory::key_lane_range_entries(rows, reps));
    for e in &entries {
        let gbps = e
            .gbps
            .map_or("      -".to_string(), |g| format!("{g:>7.2}"));
        eprintln!(
            "[trajectory] {:<32} u{:<2} {:>8} elems  {:>7.3} ns/elem  {gbps} GB/s  {:>5.2}x vs scalar",
            e.kernel, e.width_bits, e.rows, e.ns_per_elem, e.speedup
        );
    }
    if !smoke {
        trajectory::write_json("BENCH_scan.json", "scan_ops", &entries);
    }
}

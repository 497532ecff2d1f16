//! Criterion micro-benchmarks for the §6.2 codecs: encode, decode, and
//! predicate-pushdown scans over compressed fragments, including the
//! partition-size synergy (narrower fragments → narrower FoR offsets →
//! faster scans) and the compressed-execution kernels (count / select /
//! sum directly over the encoded forms vs the decode-then-scan baseline).
//!
//! CI runs this bench with `--test` (smoke mode: every body executes once,
//! untimed) so the codec kernels are exercised on every push.

use casper_storage::compress::{Codec, Dictionary, ForBlock, Rle};
use casper_storage::kernels::{self, Fragment};
use casper_storage::StorageMode;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const VALUES: usize = 1 << 16;

fn dataset(cardinality: u64) -> Vec<u64> {
    (0..VALUES as u64)
        .map(|i| (i.wrapping_mul(2654435761)) % cardinality * 300)
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode");
    group.throughput(Throughput::Elements(VALUES as u64));
    let data = dataset(1000);
    group.bench_function("dictionary", |b| {
        b.iter(|| std::hint::black_box(Dictionary::encode(&data).encoded_bytes()))
    });
    group.bench_function("for_delta", |b| {
        b.iter(|| std::hint::black_box(ForBlock::encode(&data).encoded_bytes()))
    });
    let mut sorted = data.clone();
    sorted.sort_unstable();
    group.bench_function("rle_sorted", |b| {
        b.iter(|| std::hint::black_box(Rle::encode(&sorted).encoded_bytes()))
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_in_range");
    group.throughput(Throughput::Elements(VALUES as u64));
    let data = dataset(1000);
    let dict = Dictionary::encode(&data);
    let for_block = ForBlock::encode(&data);
    group.bench_function("dictionary", |b| {
        b.iter(|| std::hint::black_box(dict.count_in_range(30_000, 200_000)))
    });
    group.bench_function("for_delta", |b| {
        b.iter(|| std::hint::black_box(for_block.count_in_range(30_000, 200_000)))
    });
    group.bench_function("plain", |b| {
        b.iter(|| {
            std::hint::black_box(
                data.iter()
                    .filter(|&&v| (30_000..200_000).contains(&v))
                    .count(),
            )
        })
    });
    group.finish();
}

fn bench_partition_synergy(c: &mut Criterion) {
    // §6.2: finer partitions span narrower ranges → fewer FoR offset bytes.
    let mut group = c.benchmark_group("for_bytes_per_fragment_size");
    let data: Vec<u64> = (0..VALUES as u64).map(|i| i * 300).collect();
    for frag in [VALUES, VALUES / 16, VALUES / 256] {
        group.bench_with_input(BenchmarkId::from_parameter(frag), &frag, |b, &frag| {
            b.iter(|| {
                let total: usize = data
                    .chunks(frag)
                    .map(|c| ForBlock::encode(c).encoded_bytes())
                    .sum();
                std::hint::black_box(total)
            })
        });
    }
    group.finish();
}

/// The tentpole comparison: codec-aware kernels on the encoded form vs the
/// decode-then-scan baseline vs the plain kernel on raw data. The
/// acceptance target is compressed `count_range` ≥ 1.5x decode-then-scan
/// on a 1M-value FoR fragment.
fn bench_compressed_kernels(c: &mut Criterion) {
    const N: usize = 1 << 20;
    // Narrow span (u16 FoR offsets): the post-partitioning §6.2 shape.
    let data: Vec<u64> = (0..N as u64)
        .map(|i| 5_000_000 + i.wrapping_mul(2_654_435_761) % 60_000)
        .collect();
    let payload: Vec<u32> = (0..N as u32).collect();
    let (lo, hi) = (5_010_000u64, 5_040_000u64);

    let mut group = c.benchmark_group("compressed_count_range");
    group.throughput(Throughput::Elements(N as u64));
    for mode in [StorageMode::For, StorageMode::Dict, StorageMode::Rle] {
        let frag = Fragment::encode(mode, &data).expect("compressed mode");
        group.bench_function(format!("{}_kernel", mode.label()), |b| {
            b.iter(|| std::hint::black_box(frag.count_range(lo, hi)))
        });
        group.bench_function(format!("{}_decode_then_scan", mode.label()), |b| {
            b.iter(|| {
                let decoded = frag.decode();
                std::hint::black_box(kernels::count_range(&decoded, lo, hi))
            })
        });
    }
    group.bench_function("plain_kernel", |b| {
        b.iter(|| std::hint::black_box(kernels::count_range(&data, lo, hi)))
    });
    group.finish();

    let mut group = c.benchmark_group("compressed_select_bitmap");
    group.throughput(Throughput::Elements(N as u64));
    for mode in [StorageMode::For, StorageMode::Dict, StorageMode::Rle] {
        let frag = Fragment::encode(mode, &data).expect("compressed mode");
        group.bench_function(mode.label(), |b| {
            let mut mask = Vec::with_capacity(N / 64 + 1);
            b.iter(|| {
                mask.clear();
                std::hint::black_box(frag.select_range_bitmap(lo, hi, &mut mask))
            })
        });
    }
    group.bench_function("plain", |b| {
        let mut mask = Vec::with_capacity(N / 64 + 1);
        b.iter(|| {
            mask.clear();
            std::hint::black_box(kernels::select_range_bitmap(&data, lo, hi, &mut mask))
        })
    });
    group.finish();

    // Q3's filtered-partition shape: the bitmap from the encoded (or plain)
    // key lane, then one masked sum over the slot-aligned payload.
    let mut group = c.benchmark_group("compressed_sum_payload_masked");
    group.throughput(Throughput::Elements(N as u64));
    for mode in [StorageMode::For, StorageMode::Dict] {
        let frag = Fragment::encode(mode, &data).expect("compressed mode");
        group.bench_function(mode.label(), |b| {
            let mut mask = Vec::with_capacity(N / 64 + 1);
            b.iter(|| {
                mask.clear();
                frag.select_range_bitmap(lo, hi, &mut mask);
                std::hint::black_box(kernels::sum_payload_masked(&payload, &mask))
            })
        });
    }
    group.bench_function("plain", |b| {
        let mut mask = Vec::with_capacity(N / 64 + 1);
        b.iter(|| {
            mask.clear();
            kernels::select_range_bitmap(&data, lo, hi, &mut mask);
            std::hint::black_box(kernels::sum_payload_masked(&payload, &mask))
        })
    });
    group.finish();

    // Correctness tripwire so smoke runs validate, not just execute.
    let expect = kernels::count_range(&data, lo, hi);
    let mut mask = Vec::new();
    kernels::select_range_bitmap(&data, lo, hi, &mut mask);
    let expect_sum = kernels::sum_payload_masked(&payload, &mask);
    for mode in [StorageMode::For, StorageMode::Dict, StorageMode::Rle] {
        let frag = Fragment::encode(mode, &data).expect("compressed mode");
        assert_eq!(frag.count_range(lo, hi), expect, "{mode:?}");
        if frag.preserves_slot_order() {
            mask.clear();
            frag.select_range_bitmap(lo, hi, &mut mask);
            let sum = kernels::sum_payload_masked(&payload, &mask);
            assert_eq!(sum, expect_sum, "{mode:?} masked sum");
        }
    }
}

criterion_group!(
    benches,
    bench_encode,
    bench_scan,
    bench_partition_synergy,
    bench_compressed_kernels
);
// The compressed-kernel *trajectory* (ns/elem, GB/s, SIMD-vs-scalar) is
// emitted once, by `scan_ops` into `BENCH_scan.json` — the single source
// of truth for per-PR kernel perf. This bench keeps the criterion timing
// groups plus the correctness tripwire in `bench_compressed_kernels`.
criterion_main!(benches);

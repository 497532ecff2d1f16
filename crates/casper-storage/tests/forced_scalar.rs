//! Forced-fallback path: `CASPER_FORCE_SCALAR=1` must pin the dispatch
//! level to `Scalar` regardless of host capabilities, and the kernels must
//! keep producing correct results through the portable loops.
//!
//! This lives in its own integration-test binary (= its own process)
//! because the dispatch level is latched in a `OnceLock` on first use: the
//! env var has to be set before any kernel call, and must not leak into
//! the other test binaries, which exercise the SIMD levels.

use casper_storage::kernels;
use casper_storage::simd::{self, SimdLevel};
use casper_storage::{BlockLayout, ChunkConfig, PartitionedChunk};

#[test]
fn forced_scalar_env_pins_the_level_and_stays_correct() {
    // Set the override before the first `simd::level()` call in this
    // process. Integration tests in one binary share the process, so this
    // single #[test] does everything in order.
    std::env::set_var("CASPER_FORCE_SCALAR", "1");
    assert_eq!(simd::level(), SimdLevel::Scalar);

    // The full kernel surface still answers correctly via portable.
    let vals: Vec<u64> = (0..10_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let (lo, hi) = (1u64 << 30, 1u64 << 33);
    let naive = vals.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
    assert_eq!(kernels::count_range(&vals, lo, hi), naive);

    let mut mask = Vec::new();
    assert_eq!(
        kernels::select_range_bitmap(&vals, lo, hi, &mut mask),
        naive
    );
    assert_eq!(
        mask.iter().map(|w| u64::from(w.count_ones())).sum::<u64>(),
        naive
    );

    // Q3's filtered-partition shape: the bitmap above, then one masked sum.
    let payload: Vec<u32> = (0..vals.len() as u32).collect();
    let want: u64 = vals
        .iter()
        .zip(&payload)
        .filter(|(&x, _)| lo <= x && x < hi)
        .map(|(_, &p)| u64::from(p))
        .sum();
    assert_eq!(kernels::sum_payload_masked(&payload, &mask), want);

    assert_eq!(
        kernels::min_max(&vals),
        Some((*vals.iter().min().unwrap(), *vals.iter().max().unwrap()))
    );
    assert_eq!(
        kernels::first_eq(&vals, vals[4321]),
        vals.iter().position(|&x| x == vals[4321])
    );

    // Compressed lanes ride the same dispatch: a FoR fragment scans
    // scalar too and must agree with a decode + filter.
    let narrow: Vec<u64> = (0..5000u64).map(|i| 1000 + i % 200).collect();
    let frag = casper_storage::compress::ForBlock::encode(&narrow);
    let want = narrow
        .iter()
        .filter(|&&x| (1050..1100).contains(&x))
        .count() as u64;
    assert_eq!(
        casper_storage::kernels::compressed::for_count_range(&frag, 1050, 1100),
        want
    );

    // The write path's embedded point query rides the same dispatch
    // (`first_eq` for update / take-one, `select_eq_into` for delete): a
    // delete and an update over one sorted partition of three 1024-value
    // sub-chunks, with each key repeated six times: 499 sits in the last
    // sub-chunk's ragged tail, 250 in the middle one.
    let keys: Vec<u64> = (0..3000u64).map(|i| i % 500).collect();
    let layout = BlockLayout::new::<u64>(4096);
    let mut chunk =
        PartitionedChunk::single_partition(keys, layout, ChunkConfig::default()).expect("build");
    assert_eq!(chunk.delete(499).affected, 6);
    assert!(chunk.point_query(499).positions.is_empty());
    assert_eq!(chunk.update(250, 9).expect("update").affected, 1);
    assert_eq!(chunk.point_query(250).positions.len(), 5);
    assert_eq!(chunk.point_query(9).positions.len(), 7);
    assert_eq!(chunk.update(499, 9).expect("update").affected, 0);
    assert_eq!(chunk.live_len(), 2994);
    chunk.validate_invariants().expect("invariants");
}

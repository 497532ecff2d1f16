//! SIMD-vs-scalar bit-exactness: every dispatched kernel × lane width
//! (u32/u64) must agree with the portable fallback on arbitrary data,
//! arbitrary windows, unaligned lane starts, and ragged tails.
//!
//! On an AVX-512/AVX2 host this pits the intrinsic backends against the
//! portable loops; on anything else both sides run portable and the tests
//! degenerate to self-consistency (still useful: they pin the reference
//! semantics). The forced-fallback env override is covered separately in
//! `tests/forced_scalar.rs` (its own process, since the dispatch level is
//! latched once).

use casper_storage::kernels;
use casper_storage::simd::{self, portable, SimdElem};
use casper_storage::value::ColumnValue;
use proptest::prelude::*;

/// Compare every dispatched kernel against portable on one (lane, window)
/// case. `offset` shifts the lane start so vector loads hit unaligned
/// addresses; tail raggedness comes from the arbitrary length.
fn check_width<T: ColumnValue>(vals: &[T], offset: usize, lo: T, span_seed: u64, eq: T) {
    let lane = &vals[offset.min(vals.len())..];
    let bits = T::WIDTH * 8;
    // Clamp the window into the SIMD contract: span >= 1, lo + span <= 2^BITS.
    let max_span = (1u128 << bits) - u128::from(lo.to_ordered_u64());
    let span = T::from_ordered_u64(((u128::from(span_seed) % max_span) as u64).max(1));

    assert_eq!(
        T::count_window(lane, lo, span),
        portable::count_window(lane, lo, span),
        "count_window u{bits} len={} off={offset} lo={lo} span={span}",
        lane.len(),
    );
    assert_eq!(
        T::count_eq(lane, eq),
        portable::count_eq(lane, eq),
        "count_eq u{bits}"
    );
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let gm = T::bitmap_window(lane, lo, span, &mut got);
    let wm = portable::bitmap_window(lane, lo, span, &mut want);
    assert_eq!(gm, wm, "bitmap_window count u{bits}");
    assert_eq!(got, want, "bitmap_window words u{bits}");

    let want = (!lane.is_empty()).then(|| portable::min_max(lane));
    assert_eq!(T::min_max(lane), want, "min_max u{bits}");

    // Masked payload sum consumes the bitmap the kernels produced (Q3's
    // filtered-partition shape): dispatched, portable and naive agree.
    let payload: Vec<u32> = (0..lane.len() as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let want = reference_masked_sum(lane, &payload, lo, span);
    assert_eq!(
        simd::sum_payload_masked(&payload, &got),
        want,
        "sum_payload_masked u{bits}"
    );
    assert_eq!(
        portable::sum_payload_masked(&payload, &got),
        want,
        "portable sum_payload_masked u{bits}"
    );

    // Compress-store equality collect: positions, order and count must all
    // match the portable twin (and the naive filter).
    let (mut got_pos, mut want_pos) = (Vec::new(), Vec::new());
    let gm = T::select_eq_positions(lane, eq, 17, &mut got_pos);
    let wm = portable::select_eq_positions(lane, eq, 17, &mut want_pos);
    assert_eq!(gm, wm, "select_eq_positions count u{bits}");
    assert_eq!(got_pos, want_pos, "select_eq_positions u{bits}");
    let naive: Vec<u32> = lane
        .iter()
        .enumerate()
        .filter(|(_, &x)| x == eq)
        .map(|(i, _)| 17 + i as u32)
        .collect();
    assert_eq!(got_pos, naive, "select_eq_positions vs naive u{bits}");
}

fn reference_masked_sum<T: ColumnValue>(lane: &[T], payload: &[u32], lo: T, span: T) -> u64 {
    lane.iter()
        .zip(payload)
        .filter(|(&x, _)| x.wsub(lo) < span)
        .map(|(_, &p)| u64::from(p))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn u32_kernels_bit_exact(
        vals in proptest::collection::vec(any::<u32>(), 0..700),
        offset in 0usize..9,
        lo in any::<u32>(),
        span_seed in any::<u64>(),
        eq in any::<u32>(),
    ) {
        check_width::<u32>(&vals, offset, lo, span_seed, eq);
    }

    #[test]
    fn u64_kernels_bit_exact(
        vals in proptest::collection::vec(any::<u64>(), 0..700),
        offset in 0usize..9,
        lo in any::<u64>(),
        span_seed in any::<u64>(),
        eq in any::<u64>(),
    ) {
        check_width::<u64>(&vals, offset, lo, span_seed, eq);
    }

    #[test]
    fn plain_kernels_match_naive_reference_u64(
        vals in proptest::collection::vec(any::<u64>(), 0..600),
        lo in any::<u64>(),
        hi in any::<u64>(),
        eq in any::<u64>(),
    ) {
        check_plain(&vals, lo, hi, eq)?;
    }

    #[test]
    fn plain_kernels_match_naive_reference_u32(
        vals in proptest::collection::vec(any::<u32>(), 0..600),
        lo in any::<u32>(),
        hi in any::<u32>(),
        eq in any::<u32>(),
    ) {
        check_plain(&vals, lo, hi, eq)?;
    }

    // The masked sum on arbitrary words, not only bitmaps the window
    // kernels produce: random, dense, single-bit and empty words, ragged
    // payload lengths, masks longer than the payload (their extra words and
    // the tail word's bits past the payload are ignored), u32::MAX payloads.
    #[test]
    fn masked_sum_matches_portable_and_naive(
        payload in proptest::collection::vec(any::<u32>(), 0..700),
        words in proptest::collection::vec(any::<u64>(), 0..16),
        shape in 0usize..4,
        extra in 0usize..3,
        saturate in any::<bool>(),
    ) {
        let payload = if saturate { vec![u32::MAX; payload.len()] } else { payload };
        let mask: Vec<u64> = (0..payload.len().div_ceil(64) + extra)
            .map(|w| {
                let r = words.get(w).copied().unwrap_or(0);
                match shape {
                    0 => r,
                    1 => u64::MAX,
                    2 => 1 << (r % 64),
                    _ => 0,
                }
            })
            .collect();
        let naive: u64 = payload
            .iter()
            .enumerate()
            .filter(|&(i, _)| (mask[i / 64] >> (i % 64)) & 1 == 1)
            .map(|(_, &p)| u64::from(p))
            .sum();
        prop_assert_eq!(simd::sum_payload_masked(&payload, &mask), naive);
        prop_assert_eq!(portable::sum_payload_masked(&payload, &mask), naive);
    }

    // `first_eq` over a key domain narrow enough that matches land
    // anywhere in 0..3 sub-chunks (and sometimes nowhere).
    #[test]
    fn first_eq_matches_position_u32(
        vals in proptest::collection::vec(0u32..3000, 0..2600),
        offset in 0usize..9,
        eq in 0u32..3000,
    ) {
        check_first_eq(&vals, offset, eq)?;
    }

    #[test]
    fn first_eq_matches_position_u64(
        vals in proptest::collection::vec(0u64..3000, 0..2600),
        offset in 0usize..9,
        eq in 0u64..3000,
    ) {
        check_first_eq(&vals, offset, eq)?;
    }
}

/// `kernels::first_eq` against `iter().position` on an unaligned slice.
fn check_first_eq<K: ColumnValue>(
    vals: &[K],
    offset: usize,
    eq: K,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let lane = &vals[offset.min(vals.len())..];
    prop_assert_eq!(
        kernels::first_eq(lane, eq),
        lane.iter().position(|&x| x == eq)
    );
    Ok(())
}

/// The typed kernels against a naive per-element reference: the interval
/// `[lo, hi)` (empty when `hi <= lo`) becomes one window compare.
fn check_plain<K: ColumnValue>(
    vals: &[K],
    lo: K,
    hi: K,
    eq: K,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let naive_count = vals.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
    prop_assert_eq!(kernels::count_range(vals, lo, hi), naive_count);
    prop_assert_eq!(
        kernels::count_eq(vals, eq),
        vals.iter().filter(|&&x| x == eq).count() as u64
    );
    for v in [eq, vals.get(vals.len() / 2).copied().unwrap_or(eq)] {
        check_first_eq(vals, 0, v)?;
    }
    let mut mask = Vec::new();
    let matched = kernels::select_range_bitmap(vals, lo, hi, &mut mask);
    prop_assert_eq!(matched, naive_count);
    prop_assert_eq!(mask.len(), vals.len().div_ceil(64));
    for (i, &x) in vals.iter().enumerate() {
        let bit = (mask[i / 64] >> (i % 64)) & 1;
        prop_assert_eq!(bit == 1, lo <= x && x < hi, "bit {}", i);
    }
    let payload: Vec<u32> = (0..vals.len() as u32).collect();
    let want_s: u64 = vals
        .iter()
        .zip(&payload)
        .filter(|(&x, _)| lo <= x && x < hi)
        .map(|(_, &p)| u64::from(p))
        .sum();
    prop_assert_eq!(kernels::sum_payload_masked(&payload, &mask), want_s);
    prop_assert_eq!(
        kernels::min_max(vals),
        vals.iter()
            .copied()
            .min()
            .map(|mn| (mn, vals.iter().copied().max().unwrap()))
    );
    Ok(())
}

#[test]
fn boundary_values_and_exact_lane_multiples() {
    // Deterministic corner cases the generators may miss: extrema at every
    // position class, lengths exactly on and around the 64-element blocks.
    for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 191, 256] {
        let vals: Vec<u64> = (0..len as u64)
            .map(|i| match i % 5 {
                0 => u64::MIN,
                1 => u64::MAX,
                2 => i,
                3 => u64::MAX - i,
                _ => 1u64 << (i % 63),
            })
            .collect();
        check_width::<u64>(&vals, 0, u64::MAX - 5, u64::MAX, u64::MAX);
        check_width::<u64>(&vals, 0, 0, 1, 0);
        check_plain(&vals, u64::MIN, u64::MAX, u64::MAX).unwrap();
        check_plain(&vals, u64::MAX - 5, u64::MAX, 0).unwrap();
        check_plain(&vals, 1, 64, 1).unwrap();
    }
}

#[test]
fn select_eq_dense_and_sparse_words() {
    // The compress-store collect must handle an all-match word (dense: all
    // four mask quarters full), a single-bit word, and an empty tail —
    // exactly the cases where a miscounted store cursor would corrupt
    // neighbouring positions.
    for len in [64usize, 65, 128, 200] {
        let vals = vec![42u32; len];
        let mut out = Vec::new();
        let n = u32::select_eq_positions(&vals, 42, 0, &mut out);
        assert_eq!(n as usize, len);
        assert_eq!(out, (0..len as u32).collect::<Vec<_>>(), "dense len {len}");
    }
    let mut vals = vec![0u64; 300];
    vals[63] = 7;
    vals[64] = 7;
    vals[299] = 7;
    let mut out = Vec::new();
    assert_eq!(u64::select_eq_positions(&vals, 7, 100, &mut out), 3);
    assert_eq!(out, vec![163, 164, 399]);
}

#[test]
fn full_domain_window_on_narrow_lanes() {
    // lo = 0, span = 2^32 - 1 (the widest window a narrow key lane's
    // offsets can express): everything except MAX matches.
    let vals: Vec<u32> = (0..300u32)
        .map(|i| match i % 4 {
            0 => u32::MAX,
            1 => 0,
            2 => u32::MAX - 1,
            _ => i.wrapping_mul(2_654_435_761) >> 1,
        })
        .collect();
    assert_eq!(
        portable::count_window(&vals, 0u32, u32::MAX),
        u32::count_window(&vals, 0u32, u32::MAX)
    );
    assert_eq!(u32::count_window(&vals, 0u32, u32::MAX), 225);
}

//! Branchless, batch-oriented scan kernels — the tight loops behind every
//! partition scan of the partitioned chunk: the read paths and the point
//! query embedded in delete, update and take-one.
//!
//! The paper's performance argument (§3–§4) assumes partition scans run "as
//! fast as the hardware allows": point queries (standalone or inside a
//! write, §4.4) fully scan exactly one partition, range queries filter only
//! the first/last overlapping partitions. These kernels make that true in
//! practice:
//!
//! * predicates are evaluated by the **explicit SIMD layer** in
//!   [`crate::simd`] — AVX-512 / AVX2 intrinsics selected once at startup
//!   by runtime CPU detection, with a portable branchless-scalar fallback —
//!   so the binary is ISA-portable and the inner-loop cost does not depend
//!   on match selectivity;
//! * values are processed in **fixed-width lanes** of [`LANE_WIDTH`]
//!   values, one `u64` bitmap word per lane, instead of per-value
//!   `Vec::push`;
//! * qualifying positions are decoded from bitmap words with
//!   count-trailing-zeros iteration, while masked payload aggregation
//!   ([`sum_payload_masked`]) consumes the words directly through
//!   branch-free masked vector loads, never materializing a position list.
//!   HAP Q3 evaluates its key predicate once per filtered partition into
//!   one bitmap and then runs one masked sum per projected payload column.
//!
//! # From a half-open interval to one compare
//!
//! Keys are unsigned ([`ColumnValue`] is a [`simd::SimdElem`]), so the
//! kernels hand the stored slice to the SIMD layer as it is. The two-sided
//! test `x ∈ [lo, hi)` collapses to one unsigned compare of a wrapping
//! difference: `x - lo < hi - lo`. At or above `hi` the difference is at
//! least `hi - lo`; below `lo` it wraps to at least `2^BITS - lo`, which
//! is larger still.
//!
//! Every kernel has a pure-scalar reference twin in
//! [`crate::ops::scalar`]; property tests assert bit-exact result
//! equivalence (including against the forced-scalar dispatch level) and
//! `casper-bench`'s `scan_ops` bench tracks the speedup in
//! `BENCH_scan.json`.

use crate::simd;
use crate::value::ColumnValue;

/// Values per lane: one bitmap word (`u64`) describes one lane.
pub const LANE_WIDTH: usize = 64;

/// Values per count-then-collect sub-chunk in [`select_eq_into`] and
/// [`first_eq`]: large
/// enough that the vectorized count pass dominates, small enough that the
/// scalar collect pass over a matching sub-chunk stays cheap.
pub(crate) const SELECT_SUBCHUNK: usize = 1024;

/// Count live values equal to `v` (dispatched SIMD equality count).
#[inline]
pub fn count_eq<K: ColumnValue>(lane: &[K], v: K) -> u64 {
    K::count_eq(lane, v)
}

/// Count live values in the half-open interval `[lo, hi)`: the SIMD window
/// kernel's one compare `x - lo < hi - lo`.
#[inline]
pub fn count_range<K: ColumnValue>(lane: &[K], lo: K, hi: K) -> u64 {
    if hi <= lo {
        return 0;
    }
    K::count_window(lane, lo, hi.wsub(lo))
}

/// Find the minimum and maximum of a slice in one vectorized pass.
/// Returns `None` for an empty slice.
#[inline]
pub fn min_max<K: ColumnValue>(lane: &[K]) -> Option<(K, K)> {
    K::min_max(lane)
}

/// Append the positions (offset by `base`) of every value equal to `v`.
///
/// Count-then-collect per sub-chunk: a vectorized [`count_eq`] pass decides
/// whether a sub-chunk holds any match at all; only matching sub-chunks
/// (rare — point queries touch a handful of duplicates in one partition)
/// pay the position-materializing collect pass. Misses therefore run at the
/// full branchless scan rate with zero output work. The collect pass is
/// itself dispatched ([`simd::SimdElem::select_eq_positions`]): on
/// AVX-512 matching sub-chunk positions are emitted with `vpcompressd`
/// compress-stores instead of a per-element branch.
pub fn select_eq_into<K: ColumnValue>(lane: &[K], v: K, base: usize, out: &mut Vec<usize>) {
    let mut scratch: Vec<u32> = Vec::new();
    for (ci, chunk) in lane.chunks(SELECT_SUBCHUNK).enumerate() {
        let hits = K::count_eq(chunk, v);
        if hits == 0 {
            continue;
        }
        scratch.clear();
        scratch.reserve(hits as usize);
        K::select_eq_positions(chunk, v, 0, &mut scratch);
        let chunk_base = base + ci * SELECT_SUBCHUNK;
        out.reserve(scratch.len());
        out.extend(scratch.iter().map(|&p| chunk_base + p as usize));
    }
}

/// Offset of the first value equal to `v` (`iter().position` semantics).
///
/// The same count-then-collect sub-chunks as [`select_eq_into`], with an
/// early exit: the scan stops at the first sub-chunk holding any match,
/// and only that sub-chunk pays the collect pass.
pub fn first_eq<K: ColumnValue>(lane: &[K], v: K) -> Option<usize> {
    lane.chunks(SELECT_SUBCHUNK)
        .enumerate()
        .find_map(|(ci, chunk)| {
            let hits = K::count_eq(chunk, v);
            if hits == 0 {
                return None;
            }
            let mut scratch = Vec::with_capacity(hits as usize);
            K::select_eq_positions(chunk, v, 0, &mut scratch);
            Some(ci * SELECT_SUBCHUNK + scratch[0] as usize)
        })
}

/// Evaluate `[lo, hi)` over the lane, appending one bitmap word per
/// [`LANE_WIDTH`] values (bit `i` of word `w` ⇔ `lane[w * 64 + i]`
/// qualifies; a final partial lane produces a zero-padded word). Returns the
/// number of qualifying values.
///
/// This is the compare→movemask→word-packing path: on AVX-512 the compare
/// masks are the word's bits (four compares per word on a u32 lane, eight
/// on a u64 lane); on AVX2 the movemask bits are packed into words; the
/// portable fallback shifts bools.
pub fn select_range_bitmap<K: ColumnValue>(lane: &[K], lo: K, hi: K, out: &mut Vec<u64>) -> u64 {
    if hi <= lo {
        out.extend(std::iter::repeat_n(0, lane.len().div_ceil(LANE_WIDTH)));
        return 0;
    }
    K::bitmap_window(lane, lo, hi.wsub(lo), out)
}

/// Sum `payload[i]` (widened to `u64`) for every position `i` whose bit is
/// set in the bitmap produced by [`select_range_bitmap`] over the
/// slot-aligned key lane — HAP Q3's
/// per-column pass. Bits at or past `payload.len()` are ignored.
///
/// # Panics
/// If `mask` covers fewer than `payload.len()` positions.
#[inline]
pub fn sum_payload_masked(payload: &[u32], mask: &[u64]) -> u64 {
    simd::sum_payload_masked(payload, mask)
}

/// Invoke `f(position, value)` for every set bit of `mask`, where bit `i`
/// corresponds to `lane[i]` at chunk position `base + i`.
pub fn for_each_match<K: ColumnValue>(
    lane: &[K],
    mask: &[u64],
    base: usize,
    mut f: impl FnMut(usize, K),
) {
    for (w, &word) in mask.iter().enumerate() {
        let lane_base = w * LANE_WIDTH;
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            let off = lane_base + bit;
            f(base + off, lane[off]);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane() -> Vec<u64> {
        // 150 values (2 full lanes + partial), shuffled-ish with duplicates.
        (0..150u64).map(|i| (i * 37) % 100).collect()
    }

    #[test]
    fn count_eq_matches_filter() {
        let data = lane();
        for v in [0u64, 13, 99, 250] {
            let want = data.iter().filter(|&&x| x == v).count() as u64;
            assert_eq!(count_eq(&data, v), want, "v={v}");
        }
        assert_eq!(count_eq::<u64>(&[], 5), 0);
    }

    #[test]
    fn count_range_matches_filter() {
        let data = lane();
        for (lo, hi) in [(0u64, 100), (10, 10), (30, 20), (5, 60), (90, 1000)] {
            let want = data.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
            assert_eq!(count_range(&data, lo, hi), want, "[{lo}, {hi})");
        }
    }

    #[test]
    fn min_max_matches_iterator() {
        let data = lane();
        let (lo, hi) = min_max(&data).unwrap();
        assert_eq!(lo, *data.iter().min().unwrap());
        assert_eq!(hi, *data.iter().max().unwrap());
        assert_eq!(min_max::<u64>(&[]), None);
        assert_eq!(min_max(&[7u64]), Some((7, 7)));
    }

    #[test]
    fn select_eq_positions_with_base_offset() {
        let data = lane();
        let mut out = Vec::new();
        select_eq_into(&data, 13, 1000, &mut out);
        let want: Vec<usize> = data
            .iter()
            .enumerate()
            .filter(|(_, &x)| x == 13)
            .map(|(i, _)| 1000 + i)
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn bitmap_width_and_count() {
        let data = lane(); // 150 values → 3 words
        let mut mask = Vec::new();
        let matched = select_range_bitmap(&data, 20, 70, &mut mask);
        assert_eq!(mask.len(), 3);
        let want = data.iter().filter(|&&x| (20..70).contains(&x)).count() as u64;
        assert_eq!(matched, want);
        assert_eq!(
            mask.iter().map(|w| w.count_ones() as u64).sum::<u64>(),
            want
        );
        // Padding bits of the final partial lane must be clear.
        assert_eq!(mask[2] >> (150 - 2 * LANE_WIDTH), 0);
    }

    #[test]
    fn masked_sum_equals_scalar_sum() {
        let keys = lane();
        let payload: Vec<u32> = (0..keys.len() as u32).map(|i| i * 3 + 1).collect();
        for (lo, hi) in [(25u64, 75), (0, 100), (99, 99), (80, 10), (0, 1)] {
            let mut mask = Vec::new();
            select_range_bitmap(&keys, lo, hi, &mut mask);
            let want: u64 = keys
                .iter()
                .zip(&payload)
                .filter(|(&k, _)| (lo..hi).contains(&k))
                .map(|(_, &p)| u64::from(p))
                .sum();
            assert_eq!(sum_payload_masked(&payload, &mask), want, "[{lo}, {hi})");
        }
    }

    #[test]
    fn fused_sum_matches_masked_sum_and_count() {
        // Q3's shape: one bitmap pass over the key lane yields the count,
        // then each projected column is summed under that same mask.
        let keys = lane();
        let columns: Vec<Vec<u32>> = (0..4u32)
            .map(|c| {
                (0..keys.len() as u32)
                    .map(|i| i * 7 + 2 + c * 1000)
                    .collect()
            })
            .collect();
        for (lo, hi) in [(0u64, 100), (25, 75), (99, 99), (80, 10), (0, 1)] {
            let mut mask = Vec::new();
            let matched = select_range_bitmap(&keys, lo, hi, &mut mask);
            assert_eq!(matched, count_range(&keys, lo, hi), "[{lo}, {hi}) count");
            for (c, payload) in columns.iter().enumerate() {
                let want: u64 = keys
                    .iter()
                    .zip(payload)
                    .filter(|(&k, _)| (lo..hi).contains(&k))
                    .map(|(_, &p)| u64::from(p))
                    .sum();
                assert_eq!(
                    sum_payload_masked(payload, &mask),
                    want,
                    "[{lo}, {hi}) column {c}"
                );
            }
        }
    }

    #[test]
    fn select_eq_spanning_subchunk_boundary() {
        // Matches on both sides of the SELECT_SUBCHUNK boundary must all be
        // collected with correct global positions.
        let mut data = vec![0u64; SELECT_SUBCHUNK * 2 + 37];
        for &i in &[
            0usize,
            SELECT_SUBCHUNK - 1,
            SELECT_SUBCHUNK,
            SELECT_SUBCHUNK * 2 + 36,
        ] {
            data[i] = 42;
        }
        let mut out = Vec::new();
        select_eq_into(&data, 42, 10, &mut out);
        assert_eq!(
            out,
            vec![
                10,
                10 + SELECT_SUBCHUNK - 1,
                10 + SELECT_SUBCHUNK,
                10 + SELECT_SUBCHUNK * 2 + 36
            ]
        );
    }

    #[test]
    fn masked_sum_dense_lane_fast_path() {
        let payload: Vec<u32> = (0..128u32).collect();
        let mask = vec![u64::MAX, u64::MAX];
        assert_eq!(
            sum_payload_masked(&payload, &mask),
            (0..128u64).sum::<u64>()
        );
    }

    #[test]
    fn for_each_match_yields_positions_and_values() {
        let data = lane();
        let mut mask = Vec::new();
        select_range_bitmap(&data, 40, 45, &mut mask);
        let mut got = Vec::new();
        for_each_match(&data, &mask, 500, |pos, val| got.push((pos, val)));
        let want: Vec<(usize, u64)> = data
            .iter()
            .enumerate()
            .filter(|(_, &x)| (40..45).contains(&x))
            .map(|(i, &x)| (500 + i, x))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn kernels_handle_exact_lane_multiples() {
        let data: Vec<u64> = (0..128).collect();
        let mut mask = Vec::new();
        let m = select_range_bitmap(&data, 0, 128, &mut mask);
        assert_eq!(m, 128);
        assert_eq!(mask, vec![u64::MAX, u64::MAX]);
        let mut out = Vec::new();
        select_eq_into(&data, 127, 0, &mut out);
        assert_eq!(out, vec![127]);
    }
}

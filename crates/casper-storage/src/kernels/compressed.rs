//! Codec-aware scan kernels: `count / select` directly over encoded
//! fragments, **without decompression** (§6.2). A Q3 payload sum rides on
//! the select: the encoded bitmap drives
//! [`crate::kernels::sum_payload_masked`] over the slot-aligned payload.
//!
//! Each codec reduces a value-space predicate `[lo, hi)` to a cheaper
//! predicate over its encoded representation:
//!
//! * **Frame-of-reference** — the bounds are rebased once
//!   (`lo_off = lo − base`, `hi_off = hi − base`) and the packed offset
//!   lane is scanned with the same single wrapping compare as the plain
//!   kernels — but streaming 1/2/4 bytes per value instead of 8, which is
//!   the paper's "less overall data movement" made concrete. Through the
//!   [`crate::simd`] dispatch the narrow widths also multiply *lane
//!   density*: one AVX-512 compare covers 64 u8 offsets vs 8 plain u64
//!   values — the largest measured speedup in the codebase
//!   (see `BENCH_scan.json`).
//! * **Dictionary** — the sorted dictionary rewrites both bounds into code
//!   space (`lower_bound_code`), so a value range *stays* a range and the
//!   packed code lane scans branchlessly; equality either resolves to one
//!   exact code or to a guaranteed miss without touching the lane at all.
//! * **RLE** — sorted runs make every range predicate pure *run
//!   arithmetic*: two binary searches plus a prefix-sum subtraction, O(log
//!   runs) with no per-value work whatsoever.
//!
//! [`Fragment`] packages the three codecs behind one dispatch point for the
//! chunk read paths; every kernel is property-tested bit-exact against
//! `decode()` + the scalar baselines (see `tests/compressed_scan.rs`).

use crate::compress::dictionary::{Dictionary, PackedCodes};
use crate::compress::for_delta::{ForBlock, PackedOffsets};
use crate::compress::rle::Rle;
use crate::compress::{Codec, StorageMode};
use crate::kernels::{LANE_WIDTH, SELECT_SUBCHUNK};
use crate::simd::SimdElem;
use crate::value::ColumnValue;

/// Dispatch a closure-like body over the packed offset widths.
macro_rules! with_offsets {
    ($packed:expr, |$lane:ident| $body:expr) => {
        match $packed {
            PackedOffsets::U8($lane) => $body,
            PackedOffsets::U16($lane) => $body,
            PackedOffsets::U32($lane) => $body,
            PackedOffsets::U64($lane) => $body,
        }
    };
}

/// Dispatch a closure-like body over the packed code widths.
macro_rules! with_codes {
    ($packed:expr, |$lane:ident| $body:expr) => {
        match $packed {
            PackedCodes::U8($lane) => $body,
            PackedCodes::U16($lane) => $body,
            PackedCodes::U32($lane) => $body,
        }
    };
}

// ---------------------------------------------------------------------
// Generic rebased inner loops (monomorphized per packed width)
// ---------------------------------------------------------------------

/// A widened `[lo, lo + span)` predicate clamped into lane width.
///
/// The rebased predicates are clamped into the lane's native width *before*
/// the loop, so the inner compares run at full SIMD density (64 u8 lanes
/// per AVX-512 compare, not 8 widened u64s) — narrowing the storage must
/// also narrow the arithmetic, or the §6.2 byte savings evaporate into
/// conversion work. The clamp also establishes the SIMD window contract
/// `lo + span <= 2^BITS`, which makes the wrapped unsigned compare exact.
enum LanePredicate<T> {
    /// The window misses the lane's domain entirely.
    Empty,
    /// The window covers the lane's whole domain: everything matches.
    All,
    /// Proper window: `x - lo < span` in wrapping lane arithmetic.
    Window(T, T),
}

#[inline]
fn clamp_predicate<T: SimdElem>(lo: u64, span: u64) -> LanePredicate<T> {
    if span == 0 || lo > T::MAX_WIDE {
        return LanePredicate::Empty;
    }
    let hi = lo.saturating_add(span);
    if hi > T::MAX_WIDE {
        // The upper end exceeds the domain: `x >= lo` suffices, expressed
        // as the in-domain window `[lo, MAX]` of span `MAX - lo + 1`
        // (degenerating to All when lo is 0).
        if lo == 0 {
            LanePredicate::All
        } else {
            LanePredicate::Window(T::narrow(lo), T::narrow(T::MAX_WIDE - lo + 1))
        }
    } else {
        LanePredicate::Window(T::narrow(lo), T::narrow(hi - lo))
    }
}

/// Count of lane entries in `[lo, lo + span)` (dispatched SIMD). Shared by
/// FoR fragments and a chunk's narrow key lane ([`crate::lane`]).
#[inline]
pub(crate) fn count_rebased<T: SimdElem>(lane: &[T], lo: u64, span: u64) -> u64 {
    match clamp_predicate::<T>(lo, span) {
        LanePredicate::Empty => 0,
        LanePredicate::All => lane.len() as u64,
        LanePredicate::Window(l, s) => T::count_window(lane, l, s),
    }
}

/// Count of lane entries equal to `target` (widened; dispatched SIMD).
#[inline]
fn count_eq_lane<T: SimdElem>(lane: &[T], target: u64) -> u64 {
    if target > T::MAX_WIDE {
        return 0;
    }
    T::count_eq(lane, T::narrow(target))
}

/// Bitmap-evaluate `[lo, lo + span)` over the lane; always emits
/// `lane.len().div_ceil(64)` words, zeroed when the window misses.
pub(crate) fn bitmap_rebased<T: SimdElem>(
    lane: &[T],
    lo: u64,
    span: u64,
    out: &mut Vec<u64>,
) -> u64 {
    match clamp_predicate::<T>(lo, span) {
        LanePredicate::Empty => {
            out.extend(std::iter::repeat_n(0, lane.len().div_ceil(LANE_WIDTH)));
            0
        }
        LanePredicate::All => bitmap_fill_range(lane.len(), 0, lane.len(), out),
        LanePredicate::Window(l, s) => T::bitmap_window(lane, l, s, out),
    }
}

/// Append positions (offset by `base`) of lane entries equal to `target`.
///
/// Count-then-collect per sub-chunk, like the plain
/// [`crate::kernels::select_eq_into`]: the SIMD equality count skips
/// matchless sub-chunks at full scan rate; only sub-chunks holding a match
/// pay the position-materializing scalar pass.
fn select_eq_lane<T: SimdElem>(lane: &[T], target: u64, base: usize, out: &mut Vec<usize>) {
    if target > T::MAX_WIDE {
        return;
    }
    let t = T::narrow(target);
    for (ci, chunk) in lane.chunks(SELECT_SUBCHUNK).enumerate() {
        if T::count_eq(chunk, t) == 0 {
            continue;
        }
        let chunk_base = base + ci * SELECT_SUBCHUNK;
        for (i, &x) in chunk.iter().enumerate() {
            if x == t {
                out.push(chunk_base + i);
            }
        }
    }
}

/// Emit `n.div_ceil(64)` bitmap words with exactly bits `[a, b)` set —
/// the contiguous-run bitmap RLE fragments and degenerate ranges produce.
pub fn bitmap_fill_range(n: usize, a: usize, b: usize, out: &mut Vec<u64>) -> u64 {
    debug_assert!(a <= b && b <= n);
    let mask_below = |k: usize| -> u64 {
        if k >= LANE_WIDTH {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    };
    for w in 0..n.div_ceil(LANE_WIDTH) {
        let word_start = w * LANE_WIDTH;
        let lo_bit = a.saturating_sub(word_start).min(LANE_WIDTH);
        let hi_bit = b.saturating_sub(word_start).min(LANE_WIDTH);
        out.push(mask_below(hi_bit) & !mask_below(lo_bit));
    }
    (b - a) as u64
}

// ---------------------------------------------------------------------
// Frame-of-reference kernels
// ---------------------------------------------------------------------

/// Rebase `[lo, hi)` into the offset space of a frame at `base` (a FoR
/// fragment's, or a chunk's narrow key lane's): `Some((lo_off, span))`, or
/// `None` when the range is degenerate or entirely below the base.
#[inline]
pub(crate) fn for_rebase<K: ColumnValue>(base: u64, lo: K, hi: K) -> Option<(u64, u64)> {
    let lo = lo.to_ordered_u64();
    let hi = hi.to_ordered_u64();
    if hi <= lo || hi <= base {
        return None;
    }
    let lo_off = lo.saturating_sub(base);
    Some((lo_off, (hi - base) - lo_off))
}

/// Count FoR-encoded values equal to `v` (rebased equality on the packed
/// offsets).
pub fn for_count_eq<K: ColumnValue>(frag: &ForBlock<K>, v: K) -> u64 {
    let ord = v.to_ordered_u64();
    if ord < frag.base() {
        return 0;
    }
    let target = ord - frag.base();
    with_offsets!(frag.offsets(), |lane| count_eq_lane(lane, target))
}

/// Count FoR-encoded values in `[lo, hi)` without decoding.
pub fn for_count_range<K: ColumnValue>(frag: &ForBlock<K>, lo: K, hi: K) -> u64 {
    match for_rebase(frag.base(), lo, hi) {
        Some((lo_off, span)) => {
            with_offsets!(frag.offsets(), |lane| count_rebased(lane, lo_off, span))
        }
        None => 0,
    }
}

/// Bitmap-select `[lo, hi)` over a FoR fragment (bit `i` ⇔ encoded
/// position `i`, which equals the source-slice position). Returns the
/// match count.
pub fn for_select_range_bitmap<K: ColumnValue>(
    frag: &ForBlock<K>,
    lo: K,
    hi: K,
    out: &mut Vec<u64>,
) -> u64 {
    match for_rebase(frag.base(), lo, hi) {
        Some((lo_off, span)) => {
            with_offsets!(frag.offsets(), |lane| bitmap_rebased(
                lane, lo_off, span, out
            ))
        }
        None => bitmap_fill_range(frag.len(), 0, 0, out),
    }
}

// ---------------------------------------------------------------------
// Dictionary kernels (code-space predicate rewriting)
// ---------------------------------------------------------------------

/// Rewrite `[lo, hi)` into code space: `Some((lo_code, span))`, or `None`
/// when no dictionary entry falls inside.
#[inline]
fn dict_rebase<K: ColumnValue>(frag: &Dictionary<K>, lo: K, hi: K) -> Option<(u64, u64)> {
    if hi <= lo {
        return None;
    }
    let lo_c = u64::from(frag.lower_bound_code(lo));
    let hi_c = u64::from(frag.lower_bound_code(hi));
    (hi_c > lo_c).then_some((lo_c, hi_c - lo_c))
}

/// Count dictionary-encoded values equal to `v`. A value absent from the
/// dictionary is a guaranteed miss — the code lane is never touched.
pub fn dict_count_eq<K: ColumnValue>(frag: &Dictionary<K>, v: K) -> u64 {
    match frag.exact_code(v) {
        Some(code) => with_codes!(frag.codes(), |lane| count_eq_lane(lane, u64::from(code))),
        None => 0,
    }
}

/// Count dictionary-encoded values in `[lo, hi)` via the code-space
/// rewrite.
pub fn dict_count_range<K: ColumnValue>(frag: &Dictionary<K>, lo: K, hi: K) -> u64 {
    match dict_rebase(frag, lo, hi) {
        Some((lo_c, span)) => with_codes!(frag.codes(), |lane| count_rebased(lane, lo_c, span)),
        None => 0,
    }
}

/// Bitmap-select `[lo, hi)` over a dictionary fragment (bit `i` ⇔ encoded
/// position `i` = source-slice position). Returns the match count.
pub fn dict_select_range_bitmap<K: ColumnValue>(
    frag: &Dictionary<K>,
    lo: K,
    hi: K,
    out: &mut Vec<u64>,
) -> u64 {
    match dict_rebase(frag, lo, hi) {
        Some((lo_c, span)) => {
            with_codes!(frag.codes(), |lane| bitmap_rebased(lane, lo_c, span, out))
        }
        None => bitmap_fill_range(frag.len(), 0, 0, out),
    }
}

// ---------------------------------------------------------------------
// RLE kernels (run arithmetic)
// ---------------------------------------------------------------------

/// Count RLE-encoded values equal to `v`: one binary search, one run
/// length.
pub fn rle_count_eq<K: ColumnValue>(frag: &Rle<K>, v: K) -> u64 {
    match frag.runs().binary_search_by(|&(rv, _)| rv.cmp(&v)) {
        Ok(r) => u64::from(frag.runs()[r].1),
        Err(_) => 0,
    }
}

/// Count RLE-encoded values in `[lo, hi)`: two binary searches and a
/// prefix-sum subtraction — O(log runs), no per-value work.
pub fn rle_count_range<K: ColumnValue>(frag: &Rle<K>, lo: K, hi: K) -> u64 {
    let (a, b) = frag.index_range(lo, hi);
    b - a
}

/// Bitmap-select `[lo, hi)` over an RLE fragment. Because the runs are
/// sorted, the qualifying encoded positions form one contiguous run of set
/// bits. Bit `i` refers to the *encoded* (sorted) order, not the source
/// slot order.
pub fn rle_select_range_bitmap<K: ColumnValue>(
    frag: &Rle<K>,
    lo: K,
    hi: K,
    out: &mut Vec<u64>,
) -> u64 {
    let (a, b) = frag.index_range(lo, hi);
    bitmap_fill_range(frag.len(), a as usize, b as usize, out)
}

// ---------------------------------------------------------------------
// Fragment: the chunk-facing dispatch point
// ---------------------------------------------------------------------

/// One partition's encoded storage, behind a single dispatch point for the
/// chunk read paths.
///
/// FoR and dictionary fragments preserve the source slice order, so bitmap
/// bit `i` / encoded position `i` maps 1:1 onto physical slot `start + i`
/// and position-producing reads (point queries, range selects, the bitmap
/// behind Q3's masked payload sums) run directly on the encoded lane. RLE
/// re-sorts, so it only accelerates order-free aggregation (counts);
/// position paths fall back to the plain slots.
#[derive(Debug, Clone)]
pub enum Fragment<K: ColumnValue> {
    /// Frame-of-reference packed offsets.
    For(ForBlock<K>),
    /// Order-preserving dictionary codes.
    Dict(Dictionary<K>),
    /// Run-length encoded (sorted copy of the values).
    Rle(Rle<K>),
}

impl<K: ColumnValue> Fragment<K> {
    /// Encode `values` under `mode`; `Plain` yields `None`. RLE sorts a
    /// copy (its §6.2 precondition).
    pub fn encode(mode: StorageMode, values: &[K]) -> Option<Self> {
        match mode {
            StorageMode::Plain => None,
            StorageMode::For => Some(Fragment::For(ForBlock::encode(values))),
            StorageMode::Dict => Some(Fragment::Dict(Dictionary::encode(values))),
            StorageMode::Rle => {
                let mut sorted = values.to_vec();
                sorted.sort_unstable();
                Some(Fragment::Rle(Rle::encode(&sorted)))
            }
        }
    }

    /// The storage mode this fragment implements.
    pub fn mode(&self) -> StorageMode {
        match self {
            Fragment::For(_) => StorageMode::For,
            Fragment::Dict(_) => StorageMode::Dict,
            Fragment::Rle(_) => StorageMode::Rle,
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        match self {
            Fragment::For(f) => f.len(),
            Fragment::Dict(f) => f.len(),
            Fragment::Rle(f) => f.len(),
        }
    }

    /// Whether the fragment holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            Fragment::For(f) => f.encoded_bytes(),
            Fragment::Dict(f) => f.encoded_bytes(),
            Fragment::Rle(f) => f.encoded_bytes(),
        }
    }

    /// Decode back to plain values (in encoded order).
    pub fn decode(&self) -> Vec<K> {
        match self {
            Fragment::For(f) => f.decode(),
            Fragment::Dict(f) => f.decode(),
            Fragment::Rle(f) => f.decode(),
        }
    }

    /// Whether encoded position `i` equals source-slice position `i`
    /// (true for FoR/dictionary, false for RLE which sorts).
    pub fn preserves_slot_order(&self) -> bool {
        !matches!(self, Fragment::Rle(_))
    }

    /// Count encoded values equal to `v`.
    pub fn count_eq(&self, v: K) -> u64 {
        match self {
            Fragment::For(f) => for_count_eq(f, v),
            Fragment::Dict(f) => dict_count_eq(f, v),
            Fragment::Rle(f) => rle_count_eq(f, v),
        }
    }

    /// Count encoded values in `[lo, hi)`.
    pub fn count_range(&self, lo: K, hi: K) -> u64 {
        match self {
            Fragment::For(f) => for_count_range(f, lo, hi),
            Fragment::Dict(f) => dict_count_range(f, lo, hi),
            Fragment::Rle(f) => rle_count_range(f, lo, hi),
        }
    }

    /// Bitmap-select `[lo, hi)` (bit `i` ⇔ encoded position `i`). Returns
    /// the match count.
    pub fn select_range_bitmap(&self, lo: K, hi: K, out: &mut Vec<u64>) -> u64 {
        match self {
            Fragment::For(f) => for_select_range_bitmap(f, lo, hi, out),
            Fragment::Dict(f) => dict_select_range_bitmap(f, lo, hi, out),
            Fragment::Rle(f) => rle_select_range_bitmap(f, lo, hi, out),
        }
    }

    /// Append the slot positions (offset by `base`) of encoded values equal
    /// to `v`. Returns `false` (leaving `out` untouched) when the fragment
    /// does not preserve slot order — the caller falls back to the plain
    /// slots.
    pub fn select_eq_positions(&self, v: K, base: usize, out: &mut Vec<usize>) -> bool {
        match self {
            Fragment::For(f) => {
                let ord = v.to_ordered_u64();
                if ord >= f.base() {
                    let target = ord - f.base();
                    with_offsets!(f.offsets(), |lane| select_eq_lane(lane, target, base, out));
                }
                true
            }
            Fragment::Dict(f) => {
                if let Some(code) = f.exact_code(v) {
                    with_codes!(f.codes(), |lane| select_eq_lane(
                        lane,
                        u64::from(code),
                        base,
                        out
                    ));
                }
                true
            }
            Fragment::Rle(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<u64> {
        (0..150u64).map(|i| 1000 + (i * 37) % 100).collect()
    }

    fn reference_count(vals: &[u64], lo: u64, hi: u64) -> u64 {
        vals.iter().filter(|&&x| lo <= x && x < hi).count() as u64
    }

    #[test]
    fn fragment_kernels_match_reference_per_codec() {
        let vals = data();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for mode in [StorageMode::For, StorageMode::Dict, StorageMode::Rle] {
            let frag = Fragment::encode(mode, &vals).expect("compressed mode");
            let ref_vals = if frag.preserves_slot_order() {
                &vals
            } else {
                &sorted
            };
            assert_eq!(frag.decode(), *ref_vals, "{mode:?} decode order");
            for (lo, hi) in [
                (0u64, 2000),
                (1010, 1060),
                (1050, 1051),
                (990, 1000),
                (1060, 1010),
            ] {
                assert_eq!(
                    frag.count_range(lo, hi),
                    reference_count(ref_vals, lo, hi),
                    "{mode:?} count [{lo},{hi})"
                );
                let mut mask = Vec::new();
                let matched = frag.select_range_bitmap(lo, hi, &mut mask);
                assert_eq!(mask.len(), vals.len().div_ceil(LANE_WIDTH), "{mode:?}");
                assert_eq!(matched, reference_count(ref_vals, lo, hi), "{mode:?}");
                let from_bits: u64 = mask.iter().map(|w| u64::from(w.count_ones())).sum();
                assert_eq!(from_bits, matched, "{mode:?} bitmap popcount");
                for (i, x) in ref_vals.iter().enumerate() {
                    let bit = (mask[i / LANE_WIDTH] >> (i % LANE_WIDTH)) & 1;
                    assert_eq!(bit == 1, lo <= *x && *x < hi, "{mode:?} bit {i}");
                }
            }
            for v in [1000u64, 1042, 999, 2000] {
                assert_eq!(
                    frag.count_eq(v),
                    vals.iter().filter(|&&x| x == v).count() as u64,
                    "{mode:?} eq {v}"
                );
            }
        }
    }

    #[test]
    fn encoded_bitmap_drives_masked_sum_per_codec() {
        let vals = data();
        let payload: Vec<u32> = (0..vals.len() as u32).map(|i| i * 3 + 1).collect();
        for mode in [StorageMode::For, StorageMode::Dict, StorageMode::Rle] {
            let frag = Fragment::encode(mode, &vals).expect("compressed mode");
            let enc = frag.decode();
            // Align the payload to the encoded order (identity for For/Dict).
            let enc_payload: Vec<u32> = if frag.preserves_slot_order() {
                payload.clone()
            } else {
                let mut perm: Vec<u32> = (0..vals.len() as u32).collect();
                perm.sort_by_key(|&i| vals[i as usize]);
                perm.iter().map(|&i| payload[i as usize]).collect()
            };
            for (lo, hi) in [(0u64, 2000), (1010, 1060), (1060, 1010), (1042, 1043)] {
                let mut mask = Vec::new();
                let m = frag.select_range_bitmap(lo, hi, &mut mask);
                let s = crate::kernels::sum_payload_masked(&enc_payload, &mask);
                let want_m = reference_count(&enc, lo, hi);
                let want_s: u64 = enc
                    .iter()
                    .zip(&enc_payload)
                    .filter(|(&k, _)| lo <= k && k < hi)
                    .map(|(_, &p)| u64::from(p))
                    .sum();
                assert_eq!((m, s), (want_m, want_s), "{mode:?} [{lo},{hi})");
            }
        }
    }

    #[test]
    fn select_eq_positions_respects_slot_order() {
        let vals = data();
        let v = vals[7];
        let want: Vec<usize> = vals
            .iter()
            .enumerate()
            .filter(|(_, &x)| x == v)
            .map(|(i, _)| 500 + i)
            .collect();
        for mode in [StorageMode::For, StorageMode::Dict] {
            let frag = Fragment::encode(mode, &vals).expect("compressed");
            let mut out = Vec::new();
            assert!(frag.select_eq_positions(v, 500, &mut out), "{mode:?}");
            assert_eq!(out, want, "{mode:?}");
        }
        let rle = Fragment::encode(StorageMode::Rle, &vals).expect("compressed");
        let mut out = Vec::new();
        assert!(!rle.select_eq_positions(v, 500, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn bitmap_fill_range_shapes() {
        let mut out = Vec::new();
        assert_eq!(bitmap_fill_range(130, 63, 66, &mut out), 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], 1u64 << 63);
        assert_eq!(out[1], 0b11);
        assert_eq!(out[2], 0);
        out.clear();
        assert_eq!(bitmap_fill_range(64, 0, 64, &mut out), 64);
        assert_eq!(out, vec![u64::MAX]);
        out.clear();
        assert_eq!(bitmap_fill_range(10, 0, 0, &mut out), 0);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn empty_fragments_answer_zero() {
        for mode in [StorageMode::For, StorageMode::Dict, StorageMode::Rle] {
            let frag = Fragment::encode(mode, &[] as &[u64]).expect("compressed");
            assert!(frag.is_empty());
            assert_eq!(frag.count_range(0, u64::MAX), 0);
            assert_eq!(frag.count_eq(0), 0);
            let mut mask = Vec::new();
            assert_eq!(frag.select_range_bitmap(0, 10, &mut mask), 0);
            assert!(mask.is_empty());
            assert_eq!(crate::kernels::sum_payload_masked(&[], &mask), 0);
        }
    }
}

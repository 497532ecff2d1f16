//! AVX2 backend: 256-bit compares + `movemask` word packing.
//!
//! Every kernel is built from one per-width primitive — `window_word` /
//! `eq_word`, which evaluate a predicate over **exactly 64 consecutive
//! elements** and return the 64-bit match bitmap (bit `i` ⇔ element `i`
//! qualifies) — plus the shared loop shapes in
//! [`super::arch_kernels`]. Packing strategy per width:
//!
//! * `u32` — 8 lanes/vector via `movemask_ps`.
//! * `u64` — 4 lanes/vector via `movemask_pd`.
//!
//! AVX2 has no unsigned compares, so the window test `x - lo <u span` is
//! evaluated as `(x - lo) ^ 0x80… <s span ^ 0x80…` (flip the sign bit of
//! both sides, compare signed) — the classic bias trick.
//!
//! # Safety
//!
//! Every function in this module requires the `avx2` target feature; the
//! dispatcher in [`super`] only routes here after
//! `is_x86_feature_detected!("avx2")` proved it.

#![allow(unsafe_op_in_unsafe_fn)]

use super::arch_kernels;
use std::arch::x86_64::*;

/// Sum 64 consecutive `u32`s starting at `ptr`, widened to `u64`.
///
/// # Safety
/// Requires AVX2 and 64 readable `u32`s at `ptr`.
#[inline]
#[target_feature(enable = "avx2")]
// SAFETY: callers hold AVX2 and pass the start of a `chunks_exact(64)`
// block, so the eight 8-lane unaligned loads read its 64 `u32`s only.
unsafe fn sum64_u32(ptr: *const u32) -> u64 {
    let mut acc = _mm256_setzero_si256();
    for i in 0..8 {
        let v = _mm256_loadu_si256(ptr.add(i * 8) as *const __m256i);
        let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
        let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
        acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
    }
    reduce_add_u64(acc)
}

/// Widening sum of a whole `u32` slice.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
// SAFETY: AVX2 is present (the dispatcher reaches this module only after
// `is_x86_feature_detected!("avx2")`); `sum64_u32` only ever gets a full
// `chunks_exact(64)` block of `payload`.
pub unsafe fn sum_u32(payload: &[u32]) -> u64 {
    let mut acc = 0u64;
    let mut chunks = payload.chunks_exact(64);
    for c in &mut chunks {
        acc += sum64_u32(c.as_ptr());
    }
    for &p in chunks.remainder() {
        acc += u64::from(p);
    }
    acc
}

/// Widening sum of `payload[i]` for every set bit `i` of `mask`; bits at
/// or past `payload.len()` are ignored. Each byte of a word expands into
/// an 8-lane mask (`set1` & per-lane bit, `cmpeq`) for one
/// `vpmaskmovd` load — masked-off lanes load as zero and never fault —
/// widened into `u64` lanes. Zero words are skipped; the ragged tail runs
/// the portable loop. Bit-exact against
/// [`super::portable::sum_payload_masked`].
///
/// # Safety
/// Requires AVX2. Every load reads inside a block `chunks_exact(64)` took
/// from `payload`.
#[target_feature(enable = "avx2")]
// SAFETY: AVX2 is present (the dispatcher reaches this module only after
// `is_x86_feature_detected!("avx2")`); every masked load reads inside a
// `chunks_exact(64)` block of `payload` (argument at the load below).
pub unsafe fn sum_payload_masked(payload: &[u32], mask: &[u64]) -> u64 {
    let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let mut acc = _mm256_setzero_si256();
    let mut blocks = payload.chunks_exact(64);
    for (block, &word) in (&mut blocks).zip(mask) {
        if word == 0 {
            continue;
        }
        let ptr = block.as_ptr() as *const i32;
        for b in 0..8 {
            let byte = _mm256_set1_epi32(((word >> (b * 8)) & 0xFF) as i32);
            let lanes = _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane_bit), lane_bit);
            // The masked load reads lanes `b * 8 .. b * 8 + 8` of a full 64-value
            // block that `payload.chunks_exact(64)` yielded, so even a set lane
            // reads in bounds; a masked-off lane is neither read nor able to fault,
            // and loads as zero. The ragged tail (fewer than 64 values) never
            // reaches this loop: it is summed in scalar code below, its bits at or
            // past `payload.len()` ignored.
            let v = _mm256_maskload_epi32(ptr.add(b * 8), lanes);
            let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
            let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
            acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
        }
    }
    let tail = mask.get(payload.len() / 64).map_or(0, |&w| {
        super::portable::sum_payload_masked(blocks.remainder(), &[w])
    });
    reduce_add_u64(acc) + tail
}

#[inline]
#[target_feature(enable = "avx2")]
// SAFETY: register arithmetic plus one unaligned store of a 256-bit
// vector into a 4 × `u64` stack array; callers run under AVX2.
unsafe fn reduce_add_u64(v: __m256i) -> u64 {
    let mut tmp = [0u64; 4];
    _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, v);
    tmp[0]
        .wrapping_add(tmp[1])
        .wrapping_add(tmp[2])
        .wrapping_add(tmp[3])
}

/// u32 lanes: 8 per vector via `movemask_ps`.
pub mod w32 {
    use super::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 is present (dispatcher); `ptr` starts a `chunks_exact(64)`
    // block, and the eight 8-lane loads read its 64 `u32`s.
    unsafe fn window_word(ptr: *const u32, lo: u32, span: u32) -> u64 {
        let lov = _mm256_set1_epi32(lo as i32);
        let bias = _mm256_set1_epi32(i32::MIN);
        let spanb = _mm256_xor_si256(_mm256_set1_epi32(span as i32), bias);
        let mut word = 0u64;
        for i in 0..8 {
            let x = _mm256_loadu_si256(ptr.add(i * 8) as *const __m256i);
            let d = _mm256_xor_si256(_mm256_sub_epi32(x, lov), bias);
            let c = _mm256_cmpgt_epi32(spanb, d);
            let m = _mm256_movemask_ps(_mm256_castsi256_ps(c)) as u32;
            word |= u64::from(m) << (i * 8);
        }
        word
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: as `window_word`: eight 8-lane loads inside one 64-element block.
    unsafe fn eq_word(ptr: *const u32, target: u32) -> u64 {
        let tv = _mm256_set1_epi32(target as i32);
        let mut word = 0u64;
        for i in 0..8 {
            let x = _mm256_loadu_si256(ptr.add(i * 8) as *const __m256i);
            let m = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(x, tv))) as u32;
            word |= u64::from(m) << (i * 8);
        }
        word
    }

    /// Min/max over a non-empty lane.
    ///
    /// # Safety
    /// Requires AVX2; `lane` must be non-empty.
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 is present (dispatcher); every load reads a
    // `chunks_exact(8)` block of `lane`, and each store writes one vector into
    // an 8 × `u32` stack array.
    pub unsafe fn min_max(lane: &[u32]) -> (u32, u32) {
        let mut vmin = _mm256_set1_epi32(-1);
        let mut vmax = _mm256_setzero_si256();
        let mut chunks = lane.chunks_exact(8);
        for c in &mut chunks {
            let x = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
            vmin = _mm256_min_epu32(vmin, x);
            vmax = _mm256_max_epu32(vmax, x);
        }
        let mut mins = [u32::MAX; 8];
        let mut maxs = [0u32; 8];
        _mm256_storeu_si256(mins.as_mut_ptr() as *mut __m256i, vmin);
        _mm256_storeu_si256(maxs.as_mut_ptr() as *mut __m256i, vmax);
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for i in 0..8 {
            lo = lo.min(mins[i]);
            hi = hi.max(maxs[i]);
        }
        for &x in chunks.remainder() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }

    arch_kernels!("avx2", u32);
}

/// u64 lanes: 4 per vector via `movemask_pd`; AVX2 lacks `epu64` min/max,
/// so min/max tracks via biased `cmpgt_epi64` + `blendv`.
pub mod w64 {
    use super::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 is present (dispatcher); `ptr` starts a `chunks_exact(64)`
    // block, and the sixteen 4-lane loads read its 64 `u64`s.
    unsafe fn window_word(ptr: *const u64, lo: u64, span: u64) -> u64 {
        let lov = _mm256_set1_epi64x(lo as i64);
        let bias = _mm256_set1_epi64x(i64::MIN);
        let spanb = _mm256_xor_si256(_mm256_set1_epi64x(span as i64), bias);
        let mut word = 0u64;
        for i in 0..16 {
            let x = _mm256_loadu_si256(ptr.add(i * 4) as *const __m256i);
            let d = _mm256_xor_si256(_mm256_sub_epi64(x, lov), bias);
            let c = _mm256_cmpgt_epi64(spanb, d);
            let m = _mm256_movemask_pd(_mm256_castsi256_pd(c)) as u32;
            word |= u64::from(m) << (i * 4);
        }
        word
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: as `window_word`: sixteen 4-lane loads inside one 64-element
    // block.
    unsafe fn eq_word(ptr: *const u64, target: u64) -> u64 {
        let tv = _mm256_set1_epi64x(target as i64);
        let mut word = 0u64;
        for i in 0..16 {
            let x = _mm256_loadu_si256(ptr.add(i * 4) as *const __m256i);
            let m = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(x, tv))) as u32;
            word |= u64::from(m) << (i * 4);
        }
        word
    }

    /// Min/max over a non-empty lane.
    ///
    /// Tracks extrema in the sign-biased domain (`x ^ 1<<63`) where
    /// `cmpgt_epi64` orders correctly, un-biasing on reduction.
    ///
    /// # Safety
    /// Requires AVX2; `lane` must be non-empty.
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 is present (dispatcher); every load reads a
    // `chunks_exact(4)` block of `lane`, and each store writes one vector into
    // a 4 × `u64` stack array.
    pub unsafe fn min_max(lane: &[u64]) -> (u64, u64) {
        let sign = 1u64 << 63;
        let bias = _mm256_set1_epi64x(i64::MIN);
        let mut vmin = _mm256_set1_epi64x(i64::MAX);
        let mut vmax = _mm256_set1_epi64x(i64::MIN);
        let mut chunks = lane.chunks_exact(4);
        for c in &mut chunks {
            let x = _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
            vmin = _mm256_blendv_epi8(vmin, x, _mm256_cmpgt_epi64(vmin, x));
            vmax = _mm256_blendv_epi8(vmax, x, _mm256_cmpgt_epi64(x, vmax));
        }
        let mut mins = [0u64; 4];
        let mut maxs = [0u64; 4];
        _mm256_storeu_si256(mins.as_mut_ptr() as *mut __m256i, vmin);
        _mm256_storeu_si256(maxs.as_mut_ptr() as *mut __m256i, vmax);
        // Un-bias back to the unsigned domain.
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for i in 0..4 {
            lo = lo.min(mins[i] ^ sign);
            hi = hi.max(maxs[i] ^ sign);
        }
        for &x in chunks.remainder() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }

    arch_kernels!("avx2", u64);
}

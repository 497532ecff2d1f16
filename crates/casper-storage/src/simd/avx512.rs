//! AVX-512 backend: 512-bit compares producing `__mmask` registers.
//!
//! Where AVX2 needs compare → movemask → shift/or per vector, AVX-512's
//! mask-register compares hand back the bitmap bits directly — and they
//! come in *unsigned* flavours, so the window test `x - lo <u span` is a
//! single `vpsubd` + `vpcmpud` with no sign-bias trick. Lanes per 512-bit
//! vector: 16×u32 (four compares per bitmap word), 8×u64.
//!
//! The kernels use `avx512f` instructions only; the level is detected and
//! enabled as `avx512f` + `avx512bw`, one level for both.
//!
//! # Safety
//!
//! Every function requires the `avx512f,avx512bw` target features; the
//! dispatcher in [`super`] only routes here after
//! `is_x86_feature_detected!` proved both.

#![allow(unsafe_op_in_unsafe_fn)]

use super::arch_kernels;
use std::arch::x86_64::*;

/// Sum 64 consecutive `u32`s starting at `ptr`, widened to `u64`.
///
/// # Safety
/// Requires AVX-512F and 64 readable `u32`s at `ptr`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// SAFETY: callers hold AVX-512F and pass the start of a
// `chunks_exact(64)` block, so the four 16-lane unaligned loads read its 64
// `u32`s only.
unsafe fn sum64_u32(ptr: *const u32) -> u64 {
    let mut acc = _mm512_setzero_si512();
    for i in 0..4 {
        let v = _mm512_loadu_si512(ptr.add(i * 16) as *const _);
        let lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(v));
        let hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(v, 1));
        acc = _mm512_add_epi64(acc, _mm512_add_epi64(lo, hi));
    }
    _mm512_reduce_add_epi64(acc) as u64
}

/// Widening sum of a whole `u32` slice.
///
/// # Safety
/// Requires AVX-512F/BW.
#[target_feature(enable = "avx512f,avx512bw")]
// SAFETY: AVX-512F/BW are present (the dispatcher reaches this module only
// after `is_x86_feature_detected!` proved both); `sum64_u32` only ever
// gets a full `chunks_exact(64)` block of `payload`.
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
/// or past `payload.len()` are ignored. Each full 64-value block is read
/// as four 16-lane `vmovdqu32` loads under the word's 16-bit quarters —
/// masked-off lanes load as zero and never fault — widened into `u64`
/// lanes. Zero words are skipped; the ragged tail runs the portable loop.
/// Bit-exact against [`super::portable::sum_payload_masked`].
///
/// # Safety
/// Requires AVX-512F/BW. Every load reads inside a block `chunks_exact(64)`
/// took from `payload`.
#[target_feature(enable = "avx512f,avx512bw")]
// SAFETY: AVX-512F/BW are present (dispatcher); every masked load reads
// inside a `chunks_exact(64)` block of `payload` (argument at the load
// below).
pub unsafe fn sum_payload_masked(payload: &[u32], mask: &[u64]) -> u64 {
    let mut acc = _mm512_setzero_si512();
    let mut blocks = payload.chunks_exact(64);
    for (block, &word) in (&mut blocks).zip(mask) {
        if word == 0 {
            continue;
        }
        let ptr = block.as_ptr() as *const i32;
        for q in 0..4 {
            // The masked load reads lanes `q * 16 .. q * 16 + 16` of a full
            // 64-value block that `payload.chunks_exact(64)` yielded, so even a set
            // lane reads in bounds; a masked-off lane is neither read nor able to
            // fault, and loads as zero. The ragged tail (fewer than 64 values) never
            // reaches this loop: it is summed in scalar code below, its bits at or
            // past `payload.len()` ignored.
            let v = _mm512_maskz_loadu_epi32((word >> (q * 16)) as u16, ptr.add(q * 16));
            let lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(v));
            let hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(v, 1));
            acc = _mm512_add_epi64(acc, _mm512_add_epi64(lo, hi));
        }
    }
    let tail = mask.get(payload.len() / 64).map_or(0, |&w| {
        super::portable::sum_payload_masked(blocks.remainder(), &[w])
    });
    _mm512_reduce_add_epi64(acc) as u64 + tail
}

/// Emit the positions of every set bit of `word` as `base + bit`, via
/// `vpcompressd`: four 16-lane index vectors are compress-stored under the
/// word's mask quarters, so a dense match word costs four stores instead of
/// 64 scalar pushes and a sparse word pays no per-bit branch at all.
///
/// # Safety
/// Requires AVX-512F; `out` must have at least 64 spare slots of capacity
/// past its current length (the caller reserves).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
// SAFETY: AVX-512F is present (dispatcher). The caller reserved 64 spare
// slots; the four compress-stores write `popcount(word)` ≤ 64 `u32`s
// contiguously past `out.len()`, and `set_len` covers exactly those.
unsafe fn compress_positions_word(word: u64, base: u32, out: &mut Vec<u32>) {
    const IOTA: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    debug_assert!(out.capacity() - out.len() >= 64);
    let iota = _mm512_loadu_si512(IOTA.as_ptr() as *const _);
    let basev = _mm512_set1_epi32(base as i32);
    let start = out.len();
    let mut emitted = 0usize;
    for q in 0..4u32 {
        let mask = ((word >> (q * 16)) & 0xFFFF) as u16;
        if mask == 0 {
            continue;
        }
        let idx = _mm512_add_epi32(
            basev,
            _mm512_add_epi32(iota, _mm512_set1_epi32((q * 16) as i32)),
        );
        _mm512_mask_compressstoreu_epi32(
            out.as_mut_ptr().add(start + emitted) as *mut _,
            mask,
            idx,
        );
        emitted += mask.count_ones() as usize;
    }
    out.set_len(start + emitted);
}

/// Generate the compress-store equality-select kernel for one width: the
/// width module's `eq_word` yields a 64-bit match mask per block, and
/// [`compress_positions_word`] turns set bits into positions without a
/// per-bit branch.
macro_rules! avx512_select_eq {
    ($t:ty) => {
        /// Append `base + i` for every `i` with `lane[i] == target`;
        /// returns the match count. Bit-exact against
        /// [`crate::simd::portable::select_eq_positions`].
        ///
        /// # Safety
        /// Requires AVX-512F/BW.
        #[target_feature(enable = "avx512f,avx512bw")]
        // SAFETY: AVX-512F/BW are present (dispatcher); `eq_word` only gets
        // `chunks_exact(64)` blocks, and `out.reserve(64)` precedes every
        // `compress_positions_word`.
        pub unsafe fn select_eq_positions(
            lane: &[$t],
            target: $t,
            base: u32,
            out: &mut Vec<u32>,
        ) -> u64 {
            let mut matched = 0u64;
            let mut chunks = lane.chunks_exact(64);
            let mut block = 0u32;
            for c in &mut chunks {
                let word = eq_word(c.as_ptr(), target);
                if word != 0 {
                    matched += u64::from(word.count_ones());
                    out.reserve(64);
                    super::compress_positions_word(word, base + block * 64, out);
                }
                block += 1;
            }
            for (i, &x) in chunks.remainder().iter().enumerate() {
                if x == target {
                    out.push(base + block * 64 + i as u32);
                    matched += 1;
                }
            }
            matched
        }
    };
}

/// Generate the min/max kernel for one width from its `epu` intrinsics
/// (AVX-512F has native unsigned min/max at both widths, unlike AVX2).
macro_rules! avx512_min_max {
    ($t:ty, $lanes:expr, set1 = $set1:ident, min = $min:ident, max = $max:ident) => {
        /// Min/max over a non-empty lane.
        ///
        /// # Safety
        /// Requires AVX-512F/BW; `lane` must be non-empty.
        #[target_feature(enable = "avx512f,avx512bw")]
        // SAFETY: AVX-512F/BW are present (dispatcher); every load reads a
        // `chunks_exact($lanes)` block of `lane`, and each store writes one
        // vector into a `$lanes`-element stack array.
        pub unsafe fn min_max(lane: &[$t]) -> ($t, $t) {
            let mut vmin = $set1(<$t>::MAX as _);
            let mut vmax = _mm512_setzero_si512();
            let mut chunks = lane.chunks_exact($lanes);
            for c in &mut chunks {
                let x = _mm512_loadu_si512(c.as_ptr() as *const _);
                vmin = $min(vmin, x);
                vmax = $max(vmax, x);
            }
            let mut mins = [<$t>::MAX; $lanes];
            let mut maxs = [0 as $t; $lanes];
            _mm512_storeu_si512(mins.as_mut_ptr() as *mut _, vmin);
            _mm512_storeu_si512(maxs.as_mut_ptr() as *mut _, vmax);
            let mut lo = <$t>::MAX;
            let mut hi = 0 as $t;
            for i in 0..$lanes {
                lo = lo.min(mins[i]);
                hi = hi.max(maxs[i]);
            }
            for &x in chunks.remainder() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            (lo, hi)
        }
    };
}

/// u32 lanes: 16 per vector, four compares per bitmap word.
pub mod w32 {
    use super::*;

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    // SAFETY: AVX-512F is present (dispatcher); `ptr` starts a
    // `chunks_exact(64)` block, and the four 16-lane loads read its 64 `u32`s.
    unsafe fn window_word(ptr: *const u32, lo: u32, span: u32) -> u64 {
        let lov = _mm512_set1_epi32(lo as i32);
        let spanv = _mm512_set1_epi32(span as i32);
        let mut word = 0u64;
        for i in 0..4 {
            let x = _mm512_loadu_si512(ptr.add(i * 16) as *const _);
            let m = _mm512_cmplt_epu32_mask(_mm512_sub_epi32(x, lov), spanv);
            word |= u64::from(m) << (i * 16);
        }
        word
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    // SAFETY: as `window_word`: four 16-lane loads inside one 64-element block.
    unsafe fn eq_word(ptr: *const u32, target: u32) -> u64 {
        let tv = _mm512_set1_epi32(target as i32);
        let mut word = 0u64;
        for i in 0..4 {
            let x = _mm512_loadu_si512(ptr.add(i * 16) as *const _);
            word |= u64::from(_mm512_cmpeq_epi32_mask(x, tv)) << (i * 16);
        }
        word
    }

    avx512_min_max!(
        u32,
        16,
        set1 = _mm512_set1_epi32,
        min = _mm512_min_epu32,
        max = _mm512_max_epu32
    );
    avx512_select_eq!(u32);
    arch_kernels!("avx512f,avx512bw", u32);
}

/// u64 lanes: 8 per vector, eight compares per bitmap word.
pub mod w64 {
    use super::*;

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    // SAFETY: AVX-512F is present (dispatcher); `ptr` starts a
    // `chunks_exact(64)` block, and the eight 8-lane loads read its 64 `u64`s.
    unsafe fn window_word(ptr: *const u64, lo: u64, span: u64) -> u64 {
        let lov = _mm512_set1_epi64(lo as i64);
        let spanv = _mm512_set1_epi64(span as i64);
        let mut word = 0u64;
        for i in 0..8 {
            let x = _mm512_loadu_si512(ptr.add(i * 8) as *const _);
            let m = _mm512_cmplt_epu64_mask(_mm512_sub_epi64(x, lov), spanv);
            word |= u64::from(m) << (i * 8);
        }
        word
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    // SAFETY: as `window_word`: eight 8-lane loads inside one 64-element block.
    unsafe fn eq_word(ptr: *const u64, target: u64) -> u64 {
        let tv = _mm512_set1_epi64(target as i64);
        let mut word = 0u64;
        for i in 0..8 {
            let x = _mm512_loadu_si512(ptr.add(i * 8) as *const _);
            word |= u64::from(_mm512_cmpeq_epi64_mask(x, tv)) << (i * 8);
        }
        word
    }

    avx512_min_max!(
        u64,
        8,
        set1 = _mm512_set1_epi64,
        min = _mm512_min_epu64,
        max = _mm512_max_epu64
    );
    avx512_select_eq!(u64);
    arch_kernels!("avx512f,avx512bw", u64);
}

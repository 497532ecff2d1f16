//! Explicit SIMD scan kernels with runtime CPU-feature dispatch.
//!
//! The kernels in [`crate::kernels`] used to rely on auto-vectorization
//! under `-C target-cpu=native`, which tied the binary to the build host's
//! ISA. This module replaces that with *explicit* vector implementations
//! selected **once at startup**:
//!
//! * [`SimdLevel::Avx512`] — 512-bit compares producing `__mmask` registers
//!   directly (four `vpcmpud` yield a whole 64-bit bitmap word for a u32
//!   lane). Detected as `avx512f` + `avx512bw`.
//! * [`SimdLevel::Avx2`] — 256-bit compares + `movemask` word packing.
//! * [`SimdLevel::Scalar`] — the portable chunked-scalar fallback in
//!   [`portable`]; branchless accumulation loops that auto-vectorize on
//!   whatever the baseline target offers (SSE2 on x86-64), and the only
//!   path on non-x86 targets.
//!
//! The level is detected via `is_x86_feature_detected!` and cached in a
//! `OnceLock`; the `CASPER_FORCE_SCALAR=1` environment variable forces the
//! fallback (CI runs the kernel benches under both settings), and
//! `CASPER_SIMD=scalar|avx2|avx512` pins a specific level (clamped to what
//! the host actually supports).
//!
//! # Kernel surface
//!
//! Everything is expressed over two *unsigned native lanes* ([`SimdElem`]:
//! `u32`/`u64`). Keys are `u64` lanes and a narrow key lane's offsets are
//! `u32` lanes, so the kernels scan the stored slice as it is. Range
//! predicates arrive pre-rebased as **windows**: `x` matches iff
//! `x - lo < span` in wrapping lane arithmetic, one subtract plus one
//! unsigned compare (see `kernels/mod.rs` for the derivation).
//!
//! Every dispatched kernel is bit-exact against its [`portable`] twin —
//! property-tested at both widths, unaligned offsets and ragged tails in
//! `tests/simd_dispatch.rs`.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
pub mod portable;

use std::sync::OnceLock;

/// Instruction-set level the dispatched kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable chunked-scalar fallback (auto-vectorized by the compiler).
    Scalar,
    /// 256-bit AVX2 compares + movemask word packing.
    Avx2,
    /// 512-bit AVX-512 compares producing mask registers directly
    /// (requires `avx512f` and `avx512bw`).
    Avx512,
}

impl SimdLevel {
    /// Human-readable label (used by benches and the trajectory output).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Highest level the running CPU supports.
fn detect_host() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Resolve the dispatch level from the environment knobs and the host
/// capabilities. Pure so tests can drive every combination:
///
/// * `force_scalar` (from `CASPER_FORCE_SCALAR`, any non-empty value other
///   than `0`) wins over everything;
/// * `request` (from `CASPER_SIMD`) picks a level by name, clamped to
///   `host` — asking for AVX-512 on an AVX2-only machine yields AVX2;
/// * otherwise the host level is used as-is.
pub fn select_level(request: Option<&str>, force_scalar: bool, host: SimdLevel) -> SimdLevel {
    if force_scalar {
        return SimdLevel::Scalar;
    }
    match request.and_then(parse_level) {
        Some(r) => r.min(host),
        None => host,
    }
}

/// Parse a `CASPER_SIMD` level name (`None` for unrecognized input).
fn parse_level(s: &str) -> Option<SimdLevel> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("scalar") {
        Some(SimdLevel::Scalar)
    } else if s.eq_ignore_ascii_case("avx2") {
        Some(SimdLevel::Avx2)
    } else if s.eq_ignore_ascii_case("avx512") {
        Some(SimdLevel::Avx512)
    } else {
        None
    }
}

/// The process-wide dispatch level, detected once on first use.
///
/// Every call also refreshes the `casper_simd_dispatch_level` gauge
/// (0 = scalar, 1 = AVX2, 2 = AVX-512) so telemetry engaged *after* the
/// first dispatch still learns the level.
pub fn level() -> SimdLevel {
    static OBS_LEVEL: casper_obs::GaugeDef =
        casper_obs::GaugeDef::new("casper_simd_dispatch_level");
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    let level = *LEVEL.get_or_init(|| {
        let force = std::env::var("CASPER_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        let request = std::env::var("CASPER_SIMD").ok();
        if let Some(s) = request.as_deref() {
            // A pin that silently fails to pin would let CI smoke-test the
            // wrong backend while the step still passes — make typos loud.
            if parse_level(s).is_none() {
                eprintln!(
                    "[casper-simd] unrecognized CASPER_SIMD={s:?} \
                     (expected scalar|avx2|avx512); using host detection"
                );
            }
        }
        select_level(request.as_deref(), force, detect_host())
    });
    OBS_LEVEL.set(level as u8 as f64);
    level
}

/// A fixed-width unsigned lane element the SIMD kernels scan (`u32` or
/// `u64`).
///
/// The five dispatched kernels cover the key-lane scan surface: equality
/// and window counting, bitmap selection (one `u64` word per 64 values),
/// equality position collection, and min/max. Payload aggregation is
/// lane-width independent and lives beside the trait
/// ([`sum_payload_masked`], [`sum_u32`]).
pub trait SimdElem:
    Copy + Ord + Eq + Send + Sync + std::fmt::Debug + std::fmt::Display + 'static
{
    /// Wrapping subtraction in lane width.
    fn wsub(self, rhs: Self) -> Self;

    /// Count lane entries equal to `target` (dispatched).
    fn count_eq(lane: &[Self], target: Self) -> u64;
    /// Count lane entries in the window — `x` matches iff `x - lo < span`
    /// in wrapping lane arithmetic (dispatched).
    fn count_window(lane: &[Self], lo: Self, span: Self) -> u64;
    /// Evaluate the window over the lane into bitmap words — bit `i` of
    /// word `w` ⇔ `lane[w * 64 + i]` qualifies, final partial word
    /// zero-padded. Returns the match count (dispatched).
    fn bitmap_window(lane: &[Self], lo: Self, span: Self, out: &mut Vec<u64>) -> u64;
    /// Min/max over the lane (`None` when empty) (dispatched).
    fn min_max(lane: &[Self]) -> Option<(Self, Self)>;
    /// Append `base + i` for every `i` with `lane[i] == target` (ascending;
    /// `base + lane.len()` must fit in `u32`); returns the match count. On
    /// AVX-512 this is the `vpcompressd` compress-store collect pass; AVX2
    /// has no compress-store, so that level (and Scalar) runs the portable
    /// twin (dispatched).
    fn select_eq_positions(lane: &[Self], target: Self, base: u32, out: &mut Vec<u32>) -> u64;
}

/// Generate the three lane-kernel loop shapes for an arch backend width
/// module. The module provides the two 64-element primitives `window_word`
/// / `eq_word` (and its own `min_max`); this macro wraps
/// them in the shared full-lane loops: whole 64-element blocks go through
/// the SIMD word primitive, the ragged tail runs scalar.
#[cfg(target_arch = "x86_64")]
macro_rules! arch_kernels {
    ($feature:literal, $t:ty) => {
        /// Count lane entries equal to `target`.
        ///
        /// # Safety
        /// The CPU must support the enabled target feature (the dispatcher
        /// verifies this via `is_x86_feature_detected!`).
        #[target_feature(enable = $feature)]
        // SAFETY: the caller holds `$feature` (dispatch); `eq_word` only gets
        // the start of a `chunks_exact(64)` block, 64 readable elements.
        pub unsafe fn count_eq(lane: &[$t], target: $t) -> u64 {
            let mut acc = 0u64;
            let mut chunks = lane.chunks_exact(64);
            for c in &mut chunks {
                acc += u64::from(eq_word(c.as_ptr(), target).count_ones());
            }
            for &x in chunks.remainder() {
                acc += u64::from(x == target);
            }
            acc
        }

        /// Count lane entries in the window `[lo, lo + span)`.
        ///
        /// # Safety
        /// The CPU must support the enabled target feature.
        #[target_feature(enable = $feature)]
        // SAFETY: the caller holds `$feature` (dispatch); `window_word` only
        // gets the start of a `chunks_exact(64)` block, 64 readable elements.
        pub unsafe fn count_window(lane: &[$t], lo: $t, span: $t) -> u64 {
            let mut acc = 0u64;
            let mut chunks = lane.chunks_exact(64);
            for c in &mut chunks {
                acc += u64::from(window_word(c.as_ptr(), lo, span).count_ones());
            }
            for &x in chunks.remainder() {
                acc += u64::from(x.wrapping_sub(lo) < span);
            }
            acc
        }

        /// Evaluate the window into bitmap words (bit `i` of word `w` ⇔
        /// `lane[w * 64 + i]`; zero-padded tail word). Returns the match
        /// count.
        ///
        /// # Safety
        /// The CPU must support the enabled target feature.
        #[target_feature(enable = $feature)]
        // SAFETY: the caller holds `$feature` (dispatch); `window_word` only
        // gets the start of a `chunks_exact(64)` block, 64 readable elements.
        pub unsafe fn bitmap_window(lane: &[$t], lo: $t, span: $t, out: &mut Vec<u64>) -> u64 {
            let mut matched = 0u64;
            let mut chunks = lane.chunks_exact(64);
            for c in &mut chunks {
                let word = window_word(c.as_ptr(), lo, span);
                matched += u64::from(word.count_ones());
                out.push(word);
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut word = 0u64;
                for (bit, &x) in rem.iter().enumerate() {
                    word |= u64::from(x.wrapping_sub(lo) < span) << bit;
                }
                matched += u64::from(word.count_ones());
                out.push(word);
            }
            matched
        }
    };
}
#[cfg(target_arch = "x86_64")]
pub(crate) use arch_kernels;

/// Dispatch one kernel call to the active backend.
///
/// Enum dispatch (not function pointers): generic monomorphization makes a
/// per-width pointer table awkward, and the predictable two-way branch on a
/// cached enum costs nothing next to a lane scan.
macro_rules! dispatch {
    ($width:ident, $fn:ident ( $($arg:expr),* )) => {{
        match $crate::simd::level() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `level()` only returns Avx512/Avx2 when
            // `is_x86_feature_detected!` proved the features at startup.
            SimdLevel::Avx512 => unsafe { avx512::$width::$fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for `avx2`.
            SimdLevel::Avx2 => unsafe { avx2::$width::$fn($($arg),*) },
            _ => portable::$fn($($arg),*),
        }
    }};
}

macro_rules! impl_simd_elem {
    ($t:ty, $width:ident) => {
        impl SimdElem for $t {
            #[inline]
            fn wsub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }

            #[inline]
            fn count_eq(lane: &[Self], target: Self) -> u64 {
                dispatch!($width, count_eq(lane, target))
            }

            #[inline]
            fn count_window(lane: &[Self], lo: Self, span: Self) -> u64 {
                dispatch!($width, count_window(lane, lo, span))
            }

            #[inline]
            fn bitmap_window(lane: &[Self], lo: Self, span: Self, out: &mut Vec<u64>) -> u64 {
                dispatch!($width, bitmap_window(lane, lo, span, out))
            }

            #[inline]
            fn min_max(lane: &[Self]) -> Option<(Self, Self)> {
                if lane.is_empty() {
                    return None;
                }
                Some(dispatch!($width, min_max(lane)))
            }

            #[inline]
            fn select_eq_positions(
                lane: &[Self],
                target: Self,
                base: u32,
                out: &mut Vec<u32>,
            ) -> u64 {
                debug_assert!(base as u64 + lane.len() as u64 <= u64::from(u32::MAX) + 1);
                match $crate::simd::level() {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `level()` only returns Avx512 when
                    // `is_x86_feature_detected!` proved the features.
                    SimdLevel::Avx512 => unsafe {
                        avx512::$width::select_eq_positions(lane, target, base, out)
                    },
                    // AVX2 has no compress-store; the portable loop is the
                    // collect pass below AVX-512.
                    _ => portable::select_eq_positions(lane, target, base, out),
                }
            }
        }
    };
}

impl_simd_elem!(u32, w32);
impl_simd_elem!(u64, w64);

/// Sum `payload[i]` (widened to `u64`) for every position whose bit is set
/// in `mask` (same word layout as [`SimdElem::bitmap_window`]). Bits at or
/// past `payload.len()` are ignored, so a bitmap over a longer lane, or a
/// tail word with stray high bits, sums only the payload it covers.
///
/// Dispatched once per call to a branch-free masked-load loop over the
/// full 64-value words (AVX-512 `maskz_loadu`, AVX2 `maskload`, portable
/// `bit * payload`); zero words are skipped and the ragged tail runs
/// scalar.
///
/// # Panics
/// If `mask` covers fewer than `payload.len()` positions.
pub fn sum_payload_masked(payload: &[u32], mask: &[u64]) -> u64 {
    // Hard assert (not debug): a short mask from a safe caller must fail
    // loudly rather than silently drop the uncovered payload.
    assert!(
        payload.len() <= mask.len() * 64,
        "sum_payload_masked: {} mask words cannot cover {} payload values",
        mask.len(),
        payload.len()
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns Avx512/Avx2 when
        // `is_x86_feature_detected!` proved the features at startup; the
        // backends load only inside `chunks_exact(64)` blocks of `payload`.
        SimdLevel::Avx512 => unsafe { avx512::sum_payload_masked(payload, mask) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for `avx2`.
        SimdLevel::Avx2 => unsafe { avx2::sum_payload_masked(payload, mask) },
        _ => portable::sum_payload_masked(payload, mask),
    }
}

/// Sum a `u32` slice into `u64` (dispatched widening sum).
pub fn sum_u32(payload: &[u32]) -> u64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level() proved the feature set at startup.
        SimdLevel::Avx512 => unsafe { avx512::sum_u32(payload) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for `avx2`.
        SimdLevel::Avx2 => unsafe { avx2::sum_u32(payload) },
        _ => portable::sum_u32(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_level_honours_force_scalar() {
        for host in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(select_level(None, true, host), SimdLevel::Scalar);
            assert_eq!(select_level(Some("avx512"), true, host), SimdLevel::Scalar);
        }
    }

    #[test]
    fn select_level_clamps_requests_to_host() {
        assert_eq!(
            select_level(Some("avx512"), false, SimdLevel::Avx2),
            SimdLevel::Avx2
        );
        assert_eq!(
            select_level(Some("avx2"), false, SimdLevel::Avx512),
            SimdLevel::Avx2
        );
        assert_eq!(
            select_level(Some("scalar"), false, SimdLevel::Avx512),
            SimdLevel::Scalar
        );
        assert_eq!(
            select_level(Some("AVX512"), false, SimdLevel::Avx512),
            SimdLevel::Avx512
        );
    }

    #[test]
    fn select_level_ignores_garbage_requests() {
        assert_eq!(
            select_level(Some("neon"), false, SimdLevel::Avx2),
            SimdLevel::Avx2
        );
        assert_eq!(
            select_level(None, false, SimdLevel::Scalar),
            SimdLevel::Scalar
        );
    }

    #[test]
    fn wrapping_windows_are_exact() {
        // The window compare is modular: a window running past the top of
        // the domain wraps to its bottom, here [MAX - 1, MAX + 3) over u32.
        let lane: Vec<u32> = vec![u32::MAX - 2, u32::MAX - 1, u32::MAX, 0, 1, 2, 3, 1 << 31];
        let want = 5;
        assert_eq!(u32::count_window(&lane, u32::MAX - 1, 5), want);
        assert_eq!(portable::count_window(&lane, u32::MAX - 1, 5), want);
    }

    #[test]
    fn dispatched_kernels_match_portable_smoke() {
        // The exhaustive property tests live in tests/simd_dispatch.rs;
        // this is a quick in-crate tripwire at both widths.
        fn check<T: SimdElem>(vals: &[T], lo: T, span: T, eq: T) {
            assert_eq!(
                T::count_window(vals, lo, span),
                portable::count_window(vals, lo, span)
            );
            assert_eq!(T::count_eq(vals, eq), portable::count_eq(vals, eq));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            assert_eq!(
                T::bitmap_window(vals, lo, span, &mut a),
                portable::bitmap_window(vals, lo, span, &mut b)
            );
            assert_eq!(a, b);
            let payload: Vec<u32> = (0..vals.len() as u32).collect();
            assert_eq!(
                sum_payload_masked(&payload, &a),
                portable::sum_payload_masked(&payload, &b)
            );
            assert_eq!(T::min_max(vals), Some(portable::min_max(vals)));
        }
        let v32: Vec<u32> = (0..331u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let v64: Vec<u64> = (0..331u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        check(&v32, 1 << 20, 1 << 30, v32[7]);
        check(&v64, 1 << 40, 1 << 62, v64[11]);
    }

    #[test]
    fn masked_sum_and_dense_sum_agree_with_iterators() {
        let payload: Vec<u32> = (0..150u32).map(|i| i * 7 + 3).collect();
        assert_eq!(
            sum_u32(&payload),
            payload.iter().map(|&p| u64::from(p)).sum::<u64>()
        );
        // Mask with a dense word, a sparse word, and a padded tail word.
        let mut mask = vec![u64::MAX, 0b1011, 0];
        mask[2] |= 1 << 7; // position 135
        let want: u64 = (0..64u32)
            .chain([64, 65, 67, 135])
            .map(|i| u64::from(payload[i as usize]))
            .sum();
        assert_eq!(sum_payload_masked(&payload, &mask), want);
        assert_eq!(sum_u32(&[]), 0);
    }

    /// Every masked-sum backend the host can run, called directly so one
    /// process covers all levels whatever `level()` latched.
    fn masked_sum_at_every_level(payload: &[u32], mask: &[u64]) -> Vec<(SimdLevel, u64)> {
        let mut out = vec![(
            SimdLevel::Scalar,
            portable::sum_payload_masked(payload, mask),
        )];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected on this CPU.
                let s = unsafe { avx2::sum_payload_masked(payload, mask) };
                out.push((SimdLevel::Avx2, s));
            }
            if detect_host() == SimdLevel::Avx512 {
                // SAFETY: `detect_host` proved avx512f + avx512bw.
                let s = unsafe { avx512::sum_payload_masked(payload, mask) };
                out.push((SimdLevel::Avx512, s));
            }
        }
        out
    }

    fn naive_masked_sum(payload: &[u32], mask: &[u64]) -> u64 {
        payload
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1))
            .map(|(_, &p)| u64::from(p))
            .sum()
    }

    #[test]
    fn masked_sum_matches_naive_at_every_level() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let word_shapes: Vec<u64> = vec![0, u64::MAX, 1, 1 << 63, 1 << 17, 0xFF00, next(), next()];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 191, 200, 256, 321] {
            let words = len.div_ceil(64);
            for payload in [
                (0..len as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect::<Vec<_>>(),
                vec![u32::MAX; len],
            ] {
                // One mask per word shape (every word alike), one of mixed
                // random words, and each with extra words past the payload.
                let mut masks: Vec<Vec<u64>> =
                    word_shapes.iter().map(|&w| vec![w; words]).collect();
                masks.push((0..words).map(|_| next()).collect());
                for extra in masks.clone() {
                    let mut longer = extra;
                    longer.extend([u64::MAX, next()]);
                    masks.push(longer);
                }
                for mask in &masks {
                    let want = naive_masked_sum(&payload, mask);
                    assert_eq!(
                        sum_payload_masked(&payload, mask),
                        want,
                        "dispatched len {len}"
                    );
                    for (level, got) in masked_sum_at_every_level(&payload, mask) {
                        assert_eq!(got, want, "{level:?} len {len} mask {mask:x?}");
                    }
                }
            }
        }
        // Widening: 64 x u32::MAX per dense word overflows any 32-bit lane.
        let payload = vec![u32::MAX; 640];
        let want = 640 * u64::from(u32::MAX);
        for (level, got) in masked_sum_at_every_level(&payload, &[u64::MAX; 10]) {
            assert_eq!(got, want, "{level:?} widening");
        }
    }

    #[test]
    fn masked_sum_ignores_tail_bits_past_the_payload() {
        // 70 values: one full word, then a tail word whose 58 bits past
        // the payload are set. They are ignored at every level.
        let payload: Vec<u32> = (1..=70).collect();
        let mask = [0, u64::MAX];
        let want: u64 = (65..=70).sum();
        assert_eq!(sum_payload_masked(&payload, &mask), want);
        for (level, got) in masked_sum_at_every_level(&payload, &mask) {
            assert_eq!(got, want, "{level:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn masked_sum_rejects_a_mask_shorter_than_the_payload() {
        sum_payload_masked(&[1; 65], &[u64::MAX]);
    }
}

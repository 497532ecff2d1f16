//! Portable fallback kernels: safe, branchless chunked-scalar loops.
//!
//! These are the reference semantics for the whole dispatch layer — every
//! arch backend is property-tested bit-exact against them — and the code
//! the [`super::SimdLevel::Scalar`] level actually runs. The loops are
//! written in the accumulate-a-bool style the auto-vectorizer handles well,
//! so on x86-64 the fallback still runs at SSE2 speed; on non-x86 targets
//! it is the only path.

use super::SimdElem;

/// Count lane entries equal to `target`.
pub fn count_eq<T: SimdElem>(lane: &[T], target: T) -> u64 {
    let mut acc = 0u64;
    for &x in lane {
        acc += u64::from(x == target);
    }
    acc
}

/// Count lane entries in `[lo, lo + span)` via the wrapped compare.
pub fn count_window<T: SimdElem>(lane: &[T], lo: T, span: T) -> u64 {
    let mut acc = 0u64;
    for &x in lane {
        acc += u64::from(x.wsub(lo) < span);
    }
    acc
}

/// Evaluate the window into bitmap words (bit `i` of word `w` ⇔
/// `lane[w * 64 + i]` qualifies; zero-padded final word). Returns the
/// match count.
pub fn bitmap_window<T: SimdElem>(lane: &[T], lo: T, span: T, out: &mut Vec<u64>) -> u64 {
    let mut matched = 0u64;
    let mut chunks = lane.chunks_exact(64);
    for chunk in &mut chunks {
        let mut word = 0u64;
        for (bit, &x) in chunk.iter().enumerate() {
            word |= u64::from(x.wsub(lo) < span) << bit;
        }
        matched += u64::from(word.count_ones());
        out.push(word);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = 0u64;
        for (bit, &x) in rem.iter().enumerate() {
            word |= u64::from(x.wsub(lo) < span) << bit;
        }
        matched += u64::from(word.count_ones());
        out.push(word);
    }
    matched
}

/// Min/max over a non-empty lane.
pub fn min_max<T: SimdElem>(lane: &[T]) -> (T, T) {
    debug_assert!(!lane.is_empty());
    let mut lo = lane[0];
    let mut hi = lo;
    for &x in &lane[1..] {
        lo = if x < lo { x } else { lo };
        hi = if x > hi { x } else { hi };
    }
    (lo, hi)
}

/// Append `base + i` for every `i` with `lane[i] == target`; returns the
/// match count. Reference twin of the AVX-512 compress-store kernel —
/// positions are emitted in ascending order, exactly one per match.
pub fn select_eq_positions<T: SimdElem>(
    lane: &[T],
    target: T,
    base: u32,
    out: &mut Vec<u32>,
) -> u64 {
    let mut matched = 0u64;
    for (i, &x) in lane.iter().enumerate() {
        if x == target {
            out.push(base + i as u32);
            matched += 1;
        }
    }
    matched
}

/// Widening `u32 → u64` sum.
pub fn sum_u32(payload: &[u32]) -> u64 {
    let mut acc = 0u64;
    for &p in payload {
        acc += u64::from(p);
    }
    acc
}

/// Widening sum of `payload[i]` for every set bit `i` of `mask` (bit `i`
/// of word `w` ⇔ `payload[w * 64 + i]`). Bits at or past `payload.len()`
/// are ignored, as are words past the payload's last. Branch-free
/// `bit * payload` per value; zero words are skipped. Also the ragged-tail
/// loop of the arch backends.
pub fn sum_payload_masked(payload: &[u32], mask: &[u64]) -> u64 {
    let mut acc = 0u64;
    for (block, &word) in payload.chunks(64).zip(mask) {
        if word == 0 {
            continue;
        }
        for (bit, &p) in block.iter().enumerate() {
            acc += ((word >> bit) & 1) * u64::from(p);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open_and_wrap_safe() {
        let lane: Vec<u32> = vec![0, 9, 10, 11, u32::MAX - 5, u32::MAX];
        // [10, 12): matches 10, 11.
        assert_eq!(count_window(&lane, 10u32, 2), 2);
        // [MAX - 5, 2^32) expressed as lo = MAX - 5, span = 6: matches
        // MAX - 5 and MAX.
        assert_eq!(count_window(&lane, u32::MAX - 5, 6), 2);
        // Values below lo wrap to huge differences and never match.
        assert_eq!(count_window(&lane, 200u32, 10), 0);
    }

    #[test]
    fn bitmap_words_pad_the_tail() {
        let lane: Vec<u32> = (0..70).collect();
        let mut out = Vec::new();
        let m = bitmap_window(&lane, 0u32, 70, &mut out);
        assert_eq!(m, 70);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], u64::MAX);
        assert_eq!(out[1], (1 << 6) - 1);
    }
}

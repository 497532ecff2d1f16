//! Fixed-width column value abstraction.
//!
//! Casper (like the analytical engines it models, §1) stores every column as
//! a fixed-width array. The [`ColumnValue`] trait captures the minimal
//! contract the storage layer needs: totally ordered, copyable, with a
//! declared byte width (used to translate block sizes expressed in bytes
//! into block sizes expressed in values) and a lossless round-trip through
//! `u64` (used by the workload generators and the key lane's offsets).

/// A value that can be stored in a fixed-width column.
pub trait ColumnValue:
    Copy + Ord + Send + Sync + std::fmt::Debug + std::fmt::Display + Default + 'static
{
    /// Width of the encoded value in bytes (e.g. 8 for `u64`).
    const WIDTH: usize;

    /// Smallest representable value.
    const MIN_VALUE: Self;

    /// Largest representable value.
    const MAX_VALUE: Self;

    /// The unsigned lane type sharing this value's bit pattern — what the
    /// SIMD kernels actually scan (`u32` for `i32`, identity for unsigned).
    ///
    /// The load-bearing property: because the sign-flip of
    /// [`ColumnValue::to_ordered_u64`] is congruent to *adding* the sign
    /// bit mod 2^BITS, wrapping differences are identical in ordered space
    /// and raw-bits space (`ord(x) - ord(lo) ≡ bits(x) - bits(lo)`). Range
    /// windows therefore evaluate directly on raw-bit lanes with unsigned
    /// compares — no per-element order normalization.
    type Bits: crate::simd::SimdElem;

    /// Order-preserving injection into `u64`.
    ///
    /// For signed types this is the usual sign-flip encoding, so that
    /// `a <= b` iff `a.to_ordered_u64() <= b.to_ordered_u64()`.
    fn to_ordered_u64(self) -> u64;

    /// Inverse of [`ColumnValue::to_ordered_u64`].
    fn from_ordered_u64(v: u64) -> Self;

    /// This value's raw bit pattern.
    fn to_bits(self) -> Self::Bits;

    /// Inverse of [`ColumnValue::to_bits`].
    fn from_bits(bits: Self::Bits) -> Self;

    /// Reinterpret a lane of values as its raw-bits lane (zero-copy).
    fn lane_bits(lane: &[Self]) -> &[Self::Bits];
}

macro_rules! impl_unsigned_value {
    ($($t:ty),*) => {$(
        impl ColumnValue for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            type Bits = $t;

            #[inline]
            fn to_ordered_u64(self) -> u64 {
                self as u64
            }

            #[inline]
            fn from_ordered_u64(v: u64) -> Self {
                v as $t
            }

            #[inline]
            fn to_bits(self) -> Self::Bits {
                self
            }

            #[inline]
            fn from_bits(bits: Self::Bits) -> Self {
                bits
            }

            #[inline]
            fn lane_bits(lane: &[Self]) -> &[Self::Bits] {
                lane
            }
        }
    )*};
}

macro_rules! impl_signed_value {
    ($($t:ty => $ut:ty),*) => {$(
        impl ColumnValue for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            type Bits = $ut;

            #[inline]
            fn to_ordered_u64(self) -> u64 {
                // Flip the sign bit: maps MIN..=MAX monotonically onto
                // 0..=unsigned MAX.
                (self as $ut ^ (1 << (<$t>::BITS - 1))) as u64
            }

            #[inline]
            fn from_ordered_u64(v: u64) -> Self {
                (v as $ut ^ (1 << (<$t>::BITS - 1))) as $t
            }

            #[inline]
            fn to_bits(self) -> Self::Bits {
                self as $ut
            }

            #[inline]
            fn from_bits(bits: Self::Bits) -> Self {
                bits as $t
            }

            #[inline]
            fn lane_bits(lane: &[Self]) -> &[Self::Bits] {
                // SAFETY: $t and $ut have identical size and alignment, and
                // every bit pattern is valid for both — a plain
                // reinterpretation, same as `<$t>::to_bits` element-wise.
                unsafe {
                    std::slice::from_raw_parts(lane.as_ptr().cast::<$ut>(), lane.len())
                }
            }
        }
    )*};
}

impl_unsigned_value!(u16, u32, u64);
impl_signed_value!(i32 => u32, i64 => u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_native_sizes() {
        assert_eq!(<u16 as ColumnValue>::WIDTH, 2);
        assert_eq!(<u32 as ColumnValue>::WIDTH, 4);
        assert_eq!(<u64 as ColumnValue>::WIDTH, 8);
        assert_eq!(<i32 as ColumnValue>::WIDTH, 4);
        assert_eq!(<i64 as ColumnValue>::WIDTH, 8);
    }

    #[test]
    fn unsigned_round_trip() {
        for v in [0u64, 1, 42, u64::MAX / 2, u64::MAX] {
            assert_eq!(u64::from_ordered_u64(v.to_ordered_u64()), v);
        }
        for v in [0u32, 7, u32::MAX] {
            assert_eq!(u32::from_ordered_u64(v.to_ordered_u64()), v);
        }
    }

    #[test]
    fn signed_round_trip_and_order() {
        let samples = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        for v in samples {
            assert_eq!(i64::from_ordered_u64(v.to_ordered_u64()), v);
        }
        for w in samples.windows(2) {
            assert!(
                w[0].to_ordered_u64() < w[1].to_ordered_u64(),
                "ordering not preserved for {} < {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn signed_i32_order_preserved() {
        let samples = [i32::MIN, -100, 0, 100, i32::MAX];
        for w in samples.windows(2) {
            assert!(w[0].to_ordered_u64() < w[1].to_ordered_u64());
        }
    }

    #[test]
    fn raw_bits_round_trip_and_wrapped_diff_matches_ordered() {
        // The invariant the SIMD window kernels rely on: wrapping
        // differences agree between ordered space and raw-bits space.
        let samples = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for &a in &samples {
            assert_eq!(i32::from_bits(a.to_bits()), a);
            for &b in &samples {
                let ord_diff = a.to_ordered_u64().wrapping_sub(b.to_ordered_u64()) as u32;
                let bit_diff = a.to_bits().wrapping_sub(b.to_bits());
                assert_eq!(ord_diff, bit_diff, "a={a} b={b}");
            }
        }
        let lane = [-3i32, 7, i32::MIN];
        let bits = i32::lane_bits(&lane);
        assert_eq!(bits.len(), 3);
        for (v, &b) in lane.iter().zip(bits) {
            assert_eq!(v.to_bits(), b);
        }
        let unsigned = [5u64, u64::MAX];
        assert_eq!(u64::lane_bits(&unsigned), &unsigned);
    }

    #[test]
    fn min_max_constants_are_extremes() {
        assert_eq!(<u64 as ColumnValue>::MIN_VALUE, 0);
        assert_eq!(<i64 as ColumnValue>::MIN_VALUE, i64::MIN);
        assert_eq!(<i64 as ColumnValue>::MAX_VALUE, i64::MAX);
    }
}

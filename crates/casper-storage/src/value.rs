//! Fixed-width column value abstraction.
//!
//! Casper (like the analytical engines it models, §1) stores every column as
//! a fixed-width array. The [`ColumnValue`] trait captures the minimal
//! contract the storage layer needs: an unsigned integer lane the SIMD
//! kernels scan directly ([`SimdElem`]), with a declared byte width (used
//! to translate block sizes expressed in bytes into block sizes expressed
//! in values) and a lossless round-trip through `u64` (used by the
//! workload generators and the key lane's offsets). It is implemented for
//! `u64` (the keys) and `u32` (a narrow key lane's offsets).

use crate::simd::SimdElem;

/// A value that can be stored in a fixed-width column.
pub trait ColumnValue: SimdElem + Default {
    /// Width of the encoded value in bytes (e.g. 8 for `u64`).
    const WIDTH: usize;

    /// Smallest representable value.
    const MIN_VALUE: Self;

    /// Largest representable value.
    const MAX_VALUE: Self;

    /// Widen to `u64` (order-preserving: the value itself).
    fn to_ordered_u64(self) -> u64;

    /// Inverse of [`ColumnValue::to_ordered_u64`].
    fn from_ordered_u64(v: u64) -> Self;
}

macro_rules! impl_column_value {
    ($($t:ty),*) => {$(
        impl ColumnValue for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;

            #[inline]
            fn to_ordered_u64(self) -> u64 {
                self as u64
            }

            #[inline]
            fn from_ordered_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_column_value!(u32, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_native_sizes() {
        assert_eq!(<u32 as ColumnValue>::WIDTH, 4);
        assert_eq!(<u64 as ColumnValue>::WIDTH, 8);
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
    fn min_max_constants_are_extremes() {
        assert_eq!(<u64 as ColumnValue>::MIN_VALUE, 0);
        assert_eq!(<u64 as ColumnValue>::MAX_VALUE, u64::MAX);
        assert_eq!(<u32 as ColumnValue>::MAX_VALUE, u32::MAX);
    }
}

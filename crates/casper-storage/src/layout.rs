//! Block layout and partitioning-scheme representation (§4.1 of the paper).
//!
//! A column chunk of `M` values is organized into `N = ceil(M / B)` logical
//! blocks of `B` values each. A *partitioning scheme* is represented by `N`
//! Boolean variables `p_i`; `p_i = 1` means a partition ends at the end of
//! block `i` (Fig. 6). The last block always carries a boundary
//! (`p_{N-1} = 1`), guaranteeing at least one partition.

use crate::value::ColumnValue;

/// Physical block geometry: how many values form one logical block.
///
/// The paper tunes the block size in bytes (a multiple of the cache-line
/// size; 16 KB in most experiments) and derives the per-value granularity
/// from the column's fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Width of one column value in bytes.
    pub value_width: usize,
}

impl BlockLayout {
    /// Layout for blocks of `block_bytes` holding values of type `K`.
    ///
    /// # Panics
    /// Panics if the block is smaller than a single value.
    pub fn new<K: ColumnValue>(block_bytes: usize) -> Self {
        assert!(
            block_bytes >= K::WIDTH,
            "block of {block_bytes} bytes cannot hold a single {} byte value",
            K::WIDTH
        );
        Self {
            block_bytes,
            value_width: K::WIDTH,
        }
    }

    /// The paper's default geometry: 16 KB blocks.
    pub fn default_for<K: ColumnValue>() -> Self {
        Self::new::<K>(16 * 1024)
    }

    /// Number of values per logical block.
    #[inline]
    pub fn values_per_block(&self) -> usize {
        (self.block_bytes / self.value_width).max(1)
    }

    /// Number of logical blocks needed for `num_values` values
    /// (`N = ceil(M / B)`).
    #[inline]
    pub fn num_blocks(&self, num_values: usize) -> usize {
        num_values.div_ceil(self.values_per_block())
    }

    /// The block id that holds the value at (sorted) position `pos`.
    #[inline]
    pub fn block_of_position(&self, pos: usize) -> usize {
        pos / self.values_per_block()
    }
}

/// A partitioning scheme over `N` logical blocks: the boundary bit-vector of
/// §4.1 (`boundaries[i] == true` iff `p_i = 1`).
///
/// Invariants (checked by [`PartitionSpec::validate`]):
/// * non-empty,
/// * the last block is always a boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    boundaries: Vec<bool>,
}

impl PartitionSpec {
    /// Build a spec from an explicit boundary vector, forcing the trailing
    /// boundary (`p_{N-1} = 1`, the constraint of Eq. 19).
    pub fn from_boundaries(mut boundaries: Vec<bool>) -> Self {
        assert!(!boundaries.is_empty(), "a spec needs at least one block");
        *boundaries.last_mut().expect("non-empty") = true;
        Self { boundaries }
    }

    /// A single partition spanning all `n_blocks` blocks (the "no structure"
    /// layout of a vanilla column store).
    pub fn single(n_blocks: usize) -> Self {
        assert!(n_blocks > 0);
        let mut boundaries = vec![false; n_blocks];
        boundaries[n_blocks - 1] = true;
        Self { boundaries }
    }

    /// Equi-width partitioning: `k` partitions of (nearly) equal block
    /// count, the `Equi` baseline of §7. When `k > n_blocks` every block
    /// becomes its own partition.
    pub fn equi_width(n_blocks: usize, k: usize) -> Self {
        assert!(n_blocks > 0 && k > 0);
        let k = k.min(n_blocks);
        let mut boundaries = vec![false; n_blocks];
        // Distribute blocks as evenly as possible: the first `rem`
        // partitions get one extra block.
        let base = n_blocks / k;
        let rem = n_blocks % k;
        let mut end = 0usize;
        for p in 0..k {
            end += base + usize::from(p < rem);
            boundaries[end - 1] = true;
        }
        Self { boundaries }
    }

    /// Build a spec from partition sizes expressed in blocks.
    ///
    /// # Panics
    /// Panics if any size is zero or the sizes do not sum to a positive
    /// total.
    pub fn from_block_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "need at least one partition");
        let total: usize = sizes.iter().sum();
        assert!(total > 0, "total block count must be positive");
        let mut boundaries = vec![false; total];
        let mut end = 0usize;
        for &s in sizes {
            assert!(s > 0, "partition sizes must be positive");
            end += s;
            boundaries[end - 1] = true;
        }
        Self { boundaries }
    }

    /// Build a spec from exclusive partition end offsets (in blocks). The
    /// last end must equal the total block count.
    pub fn from_block_ends(ends: &[usize], n_blocks: usize) -> Self {
        assert_eq!(
            ends.last().copied(),
            Some(n_blocks),
            "last end must equal the block count"
        );
        let mut boundaries = vec![false; n_blocks];
        for &e in ends {
            assert!(e > 0 && e <= n_blocks);
            boundaries[e - 1] = true;
        }
        Self { boundaries }
    }

    /// Number of logical blocks covered by this spec.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.boundaries.len()
    }

    /// Number of partitions (`k` in the paper's notation).
    pub fn partition_count(&self) -> usize {
        self.boundaries.iter().filter(|&&b| b).count()
    }

    /// The raw boundary vector (`p_i` variables).
    #[inline]
    pub fn boundaries(&self) -> &[bool] {
        &self.boundaries
    }

    /// Iterate over partitions as half-open block ranges `[start, end)`.
    pub fn block_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let mut start = 0usize;
        self.boundaries
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| {
                let r = start..i + 1;
                start = i + 1;
                r
            })
    }

    /// Translate the block-granularity spec into value-granularity partition
    /// sizes for a chunk of `num_values` values: every partition gets
    /// `blocks * values_per_block` values except the last, which absorbs the
    /// remainder.
    pub fn value_sizes(&self, num_values: usize, layout: &BlockLayout) -> Vec<usize> {
        let vpb = layout.values_per_block();
        debug_assert_eq!(layout.num_blocks(num_values.max(1)), self.n_blocks());
        let mut sizes: Vec<usize> = Vec::with_capacity(self.partition_count());
        let mut consumed = 0usize;
        for r in self.block_ranges() {
            let want = r.len() * vpb;
            let take = want.min(num_values - consumed);
            consumed += take;
            sizes.push(take);
        }
        debug_assert_eq!(consumed, num_values);
        sizes
    }

    /// Largest partition size in blocks (used to check read-SLA feasibility,
    /// Eq. 21).
    pub fn max_partition_blocks(&self) -> usize {
        self.block_ranges().map(|r| r.len()).max().unwrap_or(0)
    }

    /// Check structural invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.boundaries.is_empty() {
            return Err("empty boundary vector".into());
        }
        if !self.boundaries.last().copied().unwrap_or(false) {
            return Err("last block must be a partition boundary".into());
        }
        Ok(())
    }
}

/// `physical` slots of `width` words each, built in one pass: the rows in
/// sorted order go, in order, to the slots of `runs` (ascending, disjoint
/// slot ranges), and every other slot holds `fill`. `rows(r, out)` appends
/// rows `r` of the sorted order to `out`, `width` words each. The vector
/// holds exactly `physical · width` words of capacity.
///
/// # Panics
/// Panics if `runs` ends past `physical`.
pub(crate) fn lay_out_runs<T: Copy>(
    physical: usize,
    width: usize,
    fill: T,
    runs: impl Iterator<Item = std::ops::Range<usize>>,
    mut rows: impl FnMut(std::ops::Range<usize>, &mut Vec<T>),
) -> Vec<T> {
    let mut out = Vec::with_capacity(physical * width);
    let mut next = 0;
    for run in runs {
        debug_assert!(out.len() <= run.start * width, "runs overlap");
        out.resize(run.start * width, fill);
        rows(next..next + run.len(), &mut out);
        next += run.len();
    }
    assert!(out.len() <= physical * width, "rows past the chunk");
    out.resize(physical * width, fill);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_geometry() {
        let l = BlockLayout::new::<u64>(16 * 1024);
        assert_eq!(l.values_per_block(), 2048);
        assert_eq!(l.num_blocks(2048), 1);
        assert_eq!(l.num_blocks(2049), 2);
        assert_eq!(l.num_blocks(1), 1);
        assert_eq!(l.block_of_position(0), 0);
        assert_eq!(l.block_of_position(2047), 0);
        assert_eq!(l.block_of_position(2048), 1);
    }

    #[test]
    fn block_layout_u32_paper_default() {
        // Paper: 16KB blocks with 4-byte values → 4096 values per block.
        let l = BlockLayout::default_for::<u32>();
        assert_eq!(l.values_per_block(), 4096);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn block_layout_rejects_tiny_blocks() {
        let _ = BlockLayout::new::<u64>(4);
    }

    #[test]
    fn single_partition_spec() {
        let s = PartitionSpec::single(8);
        assert_eq!(s.partition_count(), 1);
        assert_eq!(s.block_ranges().collect::<Vec<_>>(), vec![0..8]);
    }

    #[test]
    fn equi_width_even_split() {
        let s = PartitionSpec::equi_width(8, 4);
        assert_eq!(s.partition_count(), 4);
        let ranges: Vec<_> = s.block_ranges().collect();
        assert_eq!(ranges, vec![0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn equi_width_uneven_split_spreads_remainder() {
        let s = PartitionSpec::equi_width(10, 4);
        let sizes: Vec<_> = s.block_ranges().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
    }

    #[test]
    fn equi_width_caps_at_block_count() {
        let s = PartitionSpec::equi_width(3, 100);
        assert_eq!(s.partition_count(), 3);
    }

    #[test]
    fn from_boundaries_forces_trailing_boundary() {
        let s = PartitionSpec::from_boundaries(vec![false, true, false, false]);
        assert!(s.boundaries()[3]);
        assert_eq!(s.partition_count(), 2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn fig6_examples() {
        // Fig. 6b: boundaries after blocks 2, 4, 5, 7 (0-indexed) —
        // partitions of 3, 2, 1, 2 blocks.
        let s = PartitionSpec::from_boundaries(vec![
            false, false, true, false, true, true, false, true,
        ]);
        let sizes: Vec<_> = s.block_ranges().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 2, 1, 2]);

        // Fig. 6c: four partitions, each two blocks wide.
        let s = PartitionSpec::from_boundaries(vec![
            false, true, false, true, false, true, false, true,
        ]);
        let sizes: Vec<_> = s.block_ranges().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2, 2]);
    }

    #[test]
    fn from_block_sizes_round_trips() {
        let s = PartitionSpec::from_block_sizes(&[3, 1, 4]);
        assert_eq!(s.n_blocks(), 8);
        let sizes: Vec<_> = s.block_ranges().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 1, 4]);
    }

    #[test]
    fn from_block_ends_matches_sizes() {
        let a = PartitionSpec::from_block_ends(&[2, 5, 8], 8);
        let b = PartitionSpec::from_block_sizes(&[2, 3, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn value_sizes_last_partition_absorbs_remainder() {
        let layout = BlockLayout {
            block_bytes: 16,
            value_width: 8,
        }; // 2 values per block
        let s = PartitionSpec::from_block_sizes(&[2, 2]);
        // 7 values over 4 blocks of 2: partition sizes 4 and 3.
        assert_eq!(s.value_sizes(7, &layout), vec![4, 3]);
        assert_eq!(s.value_sizes(8, &layout), vec![4, 4]);
    }

    #[test]
    fn max_partition_blocks_reports_widest() {
        let s = PartitionSpec::from_block_sizes(&[1, 5, 2]);
        assert_eq!(s.max_partition_blocks(), 5);
    }
}

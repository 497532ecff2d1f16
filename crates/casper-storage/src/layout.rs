//! Block layout and partitioning-scheme representation (§4.1 of the paper).
//!
//! A column chunk of `M` values is organized into `N = ceil(M / B)` logical
//! blocks of `B` values each. The paper writes a *partitioning scheme* as
//! `N` Boolean variables `p_i`, `p_i = 1` meaning a partition ends at the
//! end of block `i` (Fig. 6), with `p_{N-1} = 1` so there is at least one
//! partition. [`PartitionSpec`] stores the same scheme as its partitions'
//! exclusive block ends; the bit vector is a view of it, read by the
//! solver's test oracles. The solver returns a `PartitionSpec` and the
//! chunk is built from that value.

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

/// A partitioning of `N` logical blocks: the exclusive block end of each
/// partition, ascending, the last one `N`. The §4.1 boundary vector is a
/// view of it: `p_i = 1` iff some partition ends at `i + 1`
/// ([`PartitionSpec::from_boundaries`], [`PartitionSpec::to_boundaries`]).
///
/// Every constructor enforces the invariants: at least one partition,
/// ends strictly increasing, the first end positive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    ends: Vec<usize>,
}

impl PartitionSpec {
    /// Build from exclusive partition end offsets (in blocks).
    ///
    /// # Panics
    /// Panics if `ends` is empty, not strictly increasing, or starts at 0.
    pub fn new(ends: Vec<usize>) -> Self {
        assert!(!ends.is_empty(), "need at least one partition");
        assert!(ends[0] > 0, "first end must be positive");
        assert!(
            ends.windows(2).all(|w| w[0] < w[1]),
            "ends must be strictly increasing"
        );
        Self { ends }
    }

    /// A single partition spanning all `n_blocks` blocks (the "no structure"
    /// layout of a vanilla column store).
    pub fn single(n_blocks: usize) -> Self {
        Self::new(vec![n_blocks])
    }

    /// Equi-width partitioning: `k` partitions of (nearly) equal block
    /// count, the `Equi` baseline of §7; the first `n_blocks % k`
    /// partitions get one extra block. When `k > n_blocks` every block
    /// becomes its own partition.
    pub fn equi_width(n_blocks: usize, k: usize) -> Self {
        assert!(n_blocks > 0 && k > 0);
        let k = k.min(n_blocks);
        let (base, rem) = (n_blocks / k, n_blocks % k);
        let sizes: Vec<usize> = (0..k).map(|p| base + usize::from(p < rem)).collect();
        Self::from_block_sizes(&sizes)
    }

    /// Build from partition sizes expressed in blocks.
    ///
    /// # Panics
    /// Panics if `sizes` is empty or any size is zero.
    pub fn from_block_sizes(sizes: &[usize]) -> Self {
        let mut end = 0;
        Self::new(
            sizes
                .iter()
                .map(|&s| {
                    end += s;
                    end
                })
                .collect(),
        )
    }

    /// Build from the boundary vector (`p_i` variables, Eq. 19).
    ///
    /// # Panics
    /// Panics unless the last block is a boundary (`p_{N-1} = 1`).
    pub fn from_boundaries(p: &[bool]) -> Self {
        assert!(p.last().copied().unwrap_or(false), "p_{{N-1}} must be set");
        Self::new((1..=p.len()).filter(|&e| p[e - 1]).collect())
    }

    /// The boundary vector (`p_i` variables).
    pub fn to_boundaries(&self) -> Vec<bool> {
        let mut p = vec![false; self.n_blocks()];
        for &e in &self.ends {
            p[e - 1] = true;
        }
        p
    }

    /// Number of logical blocks covered by this spec.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        *self.ends.last().expect("non-empty")
    }

    /// Number of partitions (`k` in the paper's notation).
    #[inline]
    pub fn partition_count(&self) -> usize {
        self.ends.len()
    }

    /// Exclusive end offsets, in blocks.
    #[inline]
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Iterate over partitions as half-open block ranges `[start, end)`.
    pub fn block_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&e| {
            let r = start..e;
            start = e;
            r
        })
    }

    /// Largest partition size in blocks (used to check read-SLA feasibility,
    /// Eq. 21).
    pub fn max_partition_blocks(&self) -> usize {
        self.block_ranges().map(|r| r.len()).max().unwrap_or(0)
    }

    /// Index of the partition containing block `i`.
    fn partition_of(&self, i: usize) -> usize {
        self.ends.partition_point(|&e| e <= i)
    }

    /// First block of the partition containing block `i`.
    pub fn partition_start(&self, i: usize) -> usize {
        match self.partition_of(i) {
            0 => 0,
            p => self.ends[p - 1],
        }
    }

    /// One-past-the-last block of the partition containing block `i`.
    pub fn partition_end(&self, i: usize) -> usize {
        self.ends[self.partition_of(i)]
    }
}

impl std::fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.block_ranges().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{}", r.len())?;
        }
        write!(
            f,
            "] ({} parts / {} blocks)",
            self.partition_count(),
            self.n_blocks()
        )
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
        let l = BlockLayout::new::<u32>(16 * 1024);
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
    #[should_panic(expected = "p_{N-1} must be set")]
    fn from_boundaries_requires_trailing_boundary() {
        let _ = PartitionSpec::from_boundaries(&[false, true, false, false]);
    }

    #[test]
    fn boundary_round_trip() {
        let p = vec![false, true, false, false, true, true];
        let s = PartitionSpec::from_boundaries(&p);
        assert_eq!(s.ends(), &[2, 5, 6]);
        assert_eq!(s.to_boundaries(), p);
    }

    #[test]
    fn fig6_examples() {
        // Fig. 6b: boundaries after blocks 2, 4, 5, 7 (0-indexed) —
        // partitions of 3, 2, 1, 2 blocks.
        let s =
            PartitionSpec::from_boundaries(&[false, false, true, false, true, true, false, true]);
        let sizes: Vec<_> = s.block_ranges().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 2, 1, 2]);

        // Fig. 6c: four partitions, each two blocks wide.
        let s =
            PartitionSpec::from_boundaries(&[false, true, false, true, false, true, false, true]);
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
    fn value_sizes_last_partition_absorbs_remainder() {
        use crate::{chunk::PartitionedChunk, ghost::GhostPlan, ChunkConfig};
        let layout = BlockLayout {
            block_bytes: 16,
            value_width: 8,
        }; // 2 values per block
        let s = PartitionSpec::from_block_sizes(&[2, 2]);
        // 7 values over 4 blocks of 2: partition sizes 4 and 3.
        for (m, want) in [(7u64, [4, 3]), (8, [4, 4])] {
            let c = PartitionedChunk::build(
                (0..m).collect(),
                &s,
                layout,
                &GhostPlan::none(2),
                ChunkConfig::default(),
            )
            .unwrap();
            let lens: Vec<usize> = c.partitions().iter().map(|p| p.len).collect();
            assert_eq!(lens, want, "{m} values");
        }
    }

    #[test]
    fn max_partition_blocks_reports_widest() {
        let s = PartitionSpec::from_block_sizes(&[1, 5, 2]);
        assert_eq!(s.max_partition_blocks(), 5);
    }

    #[test]
    fn partition_lookup() {
        let s = PartitionSpec::new(vec![2, 5, 8]);
        assert_eq!(s.partition_of(0), 0);
        assert_eq!(s.partition_of(1), 0);
        assert_eq!(s.partition_of(2), 1);
        assert_eq!(s.partition_of(4), 1);
        assert_eq!(s.partition_of(7), 2);
        assert_eq!(s.partition_start(4), 2);
        assert_eq!(s.partition_end(4), 5);
    }

    #[test]
    fn display_is_compact() {
        let s = format!("{}", PartitionSpec::new(vec![2, 3, 8]));
        assert!(s.contains("[2 | 1 | 5]"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_ends() {
        let _ = PartitionSpec::new(vec![3, 3]);
    }
}

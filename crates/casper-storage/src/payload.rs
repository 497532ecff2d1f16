//! Secondary (payload) columns that mirror key-column movements.
//!
//! The HAP tables of the paper (§7.1) pair an 8-byte key column `a0` with
//! `p` 4-byte payload columns `a1..ap`. Range partitioning is driven by the
//! key column; whenever a ripple moves a key between slots, the same move
//! must be applied to every payload attribute so rows stay aligned.
//!
//! [`PayloadSet`] stores the payload slot-for-slot parallel to the key
//! column's physical slots, in one of two [`PayloadOrientation`]s:
//!
//! * **column-major**: one `Vec<u32>` per attribute. A range sum streams
//!   only the `k` attributes it projects, but a ripple move or a slot write
//!   touches one cache line per attribute;
//! * **row-major**: one contiguous `width`-word row per slot, with no
//!   padding. A move or a slot write touches the row's one or two lines,
//!   but a range sum streams every attribute of every row it reads.
//!
//! The orientation is private to this module: the chunk and its operations
//! move, write, gather and sum rows through the methods below, and
//! serialization reads the stored words in their own order
//! ([`PayloadSet::stored_words`]) without transposing them.

use crate::kernels;
use crate::layout::lay_out_runs;
use std::ops::Range;

/// Bytes of one payload attribute.
const WORD_BYTES: usize = std::mem::size_of::<u32>();

/// How a [`PayloadSet`] lays its words out in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum PayloadOrientation {
    /// One vector per attribute (the column store's layout).
    #[default]
    Columns,
    /// One contiguous row of all attributes per slot.
    Rows,
}

/// A set of fixed-width (`u32`) payload attributes, slot-aligned with a key
/// column's physical storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PayloadSet {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// `cols[c][slot]`.
    Columns(Vec<Vec<u32>>),
    /// `data[slot * width + c]`; `width > 0`.
    Rows { width: usize, data: Vec<u32> },
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Columns(Vec::new())
    }
}

impl PayloadSet {
    /// An empty payload set (key-only chunk).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from already slot-aligned columns, padded to `physical` slots.
    ///
    /// # Panics
    /// Panics if any column is longer than `physical`.
    pub fn from_columns(mut cols: Vec<Vec<u32>>, physical: usize) -> Self {
        for c in &mut cols {
            assert!(c.len() <= physical, "payload column longer than chunk");
            c.resize(physical, 0);
        }
        Self {
            repr: Repr::Columns(cols),
        }
    }

    /// A column-major set of `physical` slots holding the rows of `cols`,
    /// in order, in the slot ranges `runs` (ascending and disjoint, as many
    /// slots as `cols` has rows), and zeros elsewhere. Each word is written
    /// once, straight from its source (a chunk's build from sorted rows).
    ///
    /// # Panics
    /// Panics if `runs` holds more slots than `cols` has rows, or ends past
    /// `physical`.
    pub(crate) fn placed(
        cols: &[impl AsRef<[u32]>],
        physical: usize,
        runs: impl Iterator<Item = Range<usize>> + Clone,
    ) -> Self {
        let place = |col: &[u32]| {
            lay_out_runs(physical, 1, 0, runs.clone(), |rows, out| {
                out.extend_from_slice(&col[rows])
            })
        };
        Self {
            repr: Repr::Columns(cols.iter().map(|c| place(c.as_ref())).collect()),
        }
    }

    /// Build from slot-aligned rows of `width` words each, padded to
    /// `physical` slots. A zero-width set has no rows to orient and is
    /// stored as the empty column-major set.
    ///
    /// # Panics
    /// Panics if `data` is not whole rows, or holds more than `physical`.
    pub fn from_rows(width: usize, mut data: Vec<u32>, physical: usize) -> Self {
        if width == 0 {
            assert!(data.is_empty(), "zero-width payload with words");
            return Self::empty();
        }
        assert!(data.len().is_multiple_of(width), "payload rows not whole");
        assert!(
            data.len() <= physical * width,
            "payload rows longer than chunk"
        );
        data.resize(physical * width, 0);
        Self {
            repr: Repr::Rows { width, data },
        }
    }

    /// The same slots and words in `orientation` (a copy; no-op in kind
    /// when the orientation already matches).
    pub(crate) fn to_orientation(&self, orientation: PayloadOrientation) -> Self {
        if orientation == self.orientation() {
            return self.clone();
        }
        let physical = self.slot_count();
        let slots: Vec<usize> = (0..physical).collect();
        Self::gathered(
            self,
            orientation,
            physical,
            &slots,
            std::iter::once(0..physical),
        )
    }

    /// A set of `physical` slots in `orientation`, of `src`'s width, holding
    /// the rows `src` holds at slots `sources`, in order, in the slot ranges
    /// `runs` (ascending and disjoint, as many slots as `sources`), and
    /// zeros elsewhere. Each row is written once, straight from its source
    /// slot (the optimizer's rebuild).
    pub(crate) fn gathered(
        src: &PayloadSet,
        orientation: PayloadOrientation,
        physical: usize,
        sources: &[usize],
        runs: impl Iterator<Item = Range<usize>> + Clone,
    ) -> Self {
        let width = src.width();
        if width == 0 {
            return Self::empty();
        }
        // One column-major attribute, `word(slot)` being its source word.
        fn column(
            physical: usize,
            sources: &[usize],
            runs: impl Iterator<Item = Range<usize>>,
            word: impl Fn(usize) -> u32,
        ) -> Vec<u32> {
            lay_out_runs(physical, 1, 0, runs, |rows, out| {
                out.extend(sources[rows].iter().map(|&from| word(from)))
            })
        }
        let repr = match (orientation, &src.repr) {
            (PayloadOrientation::Columns, Repr::Columns(s)) => Repr::Columns(
                s.iter()
                    .map(|s| column(physical, sources, runs.clone(), |from| s[from]))
                    .collect(),
            ),
            (PayloadOrientation::Columns, Repr::Rows { data, .. }) => Repr::Columns(
                (0..width)
                    .map(|c| {
                        column(physical, sources, runs.clone(), |from| {
                            data[from * width + c]
                        })
                    })
                    .collect(),
            ),
            (PayloadOrientation::Rows, Repr::Columns(s)) => Repr::Rows {
                width,
                data: lay_out_runs(physical, width, 0, runs, |rows, out| {
                    for &from in &sources[rows] {
                        out.extend(s.iter().map(|col| col[from]));
                    }
                }),
            },
            (PayloadOrientation::Rows, Repr::Rows { data, .. }) => Repr::Rows {
                width,
                data: lay_out_runs(physical, width, 0, runs, |rows, out| {
                    for &from in &sources[rows] {
                        out.extend_from_slice(&data[from * width..(from + 1) * width]);
                    }
                }),
            },
        };
        Self { repr }
    }

    /// How the words are laid out.
    #[inline]
    pub fn orientation(&self) -> PayloadOrientation {
        match self.repr {
            Repr::Columns(_) => PayloadOrientation::Columns,
            Repr::Rows { .. } => PayloadOrientation::Rows,
        }
    }

    /// Number of payload attributes.
    #[inline]
    pub fn width(&self) -> usize {
        match &self.repr {
            Repr::Columns(cols) => cols.len(),
            Repr::Rows { width, .. } => *width,
        }
    }

    /// Whether this set stores any attributes at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.width() == 0
    }

    /// Physical slots held (0 for an empty set).
    pub fn slot_count(&self) -> usize {
        match &self.repr {
            Repr::Columns(cols) => cols.first().map_or(0, Vec::len),
            Repr::Rows { width, data } => data.len() / width,
        }
    }

    /// Check that every attribute holds exactly `physical` slots; describe
    /// the first that does not.
    pub(crate) fn check_slots(&self, physical: usize) -> Result<(), String> {
        match &self.repr {
            Repr::Columns(cols) => match cols.iter().position(|c| c.len() != physical) {
                Some(c) => Err(format!(
                    "payload column {c} has {} slots, key column has {physical}",
                    cols[c].len()
                )),
                None => Ok(()),
            },
            Repr::Rows { width, data } if data.len() != physical * width => Err(format!(
                "payload rows hold {} words, {physical} slots of {width} need {}",
                data.len(),
                physical * width
            )),
            Repr::Rows { .. } => Ok(()),
        }
    }

    /// Copy the row at slot `from` over the row at slot `to` (the ripple
    /// move primitive). The source slot's contents become stale, exactly
    /// like the key column's ghost slots.
    #[inline]
    pub fn move_row(&mut self, from: usize, to: usize) {
        match &mut self.repr {
            Repr::Columns(cols) => {
                for c in cols {
                    c[to] = c[from];
                }
            }
            Repr::Rows { width, data } => {
                let w = *width;
                data.copy_within(from * w..(from + 1) * w, to * w);
            }
        }
    }

    /// Write a full row at slot `pos`.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the attribute count.
    #[inline]
    pub fn set_row(&mut self, pos: usize, row: &[u32]) {
        assert_eq!(row.len(), self.width(), "payload arity mismatch");
        match &mut self.repr {
            Repr::Columns(cols) => {
                for (c, &v) in cols.iter_mut().zip(row) {
                    c[pos] = v;
                }
            }
            Repr::Rows { width, data } => {
                data[pos * *width..(pos + 1) * *width].copy_from_slice(row);
            }
        }
    }

    /// Read one attribute.
    #[inline]
    pub fn get(&self, col: usize, pos: usize) -> u32 {
        match &self.repr {
            Repr::Columns(cols) => cols[col][pos],
            Repr::Rows { width, data } => {
                assert!(col < *width, "payload attribute {col} of {width}");
                data[pos * width + col]
            }
        }
    }

    /// Gather a row into a fresh vector (used by point queries with
    /// projectivity `k`, HAP Q1).
    pub fn gather_row(&self, pos: usize, cols: &[usize]) -> Vec<u32> {
        cols.iter().map(|&c| self.get(c, pos)).collect()
    }

    /// Every attribute of the row at slot `pos`.
    pub fn row(&self, pos: usize) -> Vec<u32> {
        match &self.repr {
            Repr::Columns(cols) => cols.iter().map(|c| c[pos]).collect(),
            Repr::Rows { width, data } => data[pos * width..(pos + 1) * width].to_vec(),
        }
    }

    /// Sum the given attributes over a contiguous slot range (the blind
    /// partitions of a range query, HAP Q3). Row-major reads each row once
    /// for all of `cols`.
    pub fn sum_range(&self, cols: &[usize], range: Range<usize>) -> u64 {
        match &self.repr {
            Repr::Columns(c) => cols
                .iter()
                .map(|&i| crate::simd::sum_u32(&c[i][range.clone()]))
                .sum(),
            Repr::Rows { width, data } => {
                let rows = &data[range.start * width..range.end * width];
                rows.chunks_exact(*width)
                    .map(|row| row_sum(row, cols))
                    .sum()
            }
        }
    }

    /// Sum the given attributes over the slots of `slots` whose bit is set
    /// in `mask` (bit `i` ⇔ slot `slots.start + i`; bits past the range
    /// are ignored): a filtered partition of a range sum, under the key
    /// lane's bitmap. Column-major runs one masked kernel per attribute;
    /// row-major reads each selected row once.
    ///
    /// # Panics
    /// If `mask` covers fewer than `slots.len()` positions.
    pub(crate) fn sum_masked(&self, cols: &[usize], slots: Range<usize>, mask: &[u64]) -> u64 {
        match &self.repr {
            Repr::Columns(c) => cols
                .iter()
                .map(|&i| kernels::sum_payload_masked(&c[i][slots.clone()], mask))
                .sum(),
            Repr::Rows { width, data } => {
                let n = slots.len();
                assert!(
                    n <= mask.len() * 64,
                    "sum_masked: {} mask words cannot cover {n} slots",
                    mask.len()
                );
                let rows = &data[slots.start * width..slots.end * width];
                let mut acc = 0u64;
                for (w, &word) in mask.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = w * 64 + bits.trailing_zeros() as usize;
                        if i >= n {
                            break;
                        }
                        acc += row_sum(&rows[i * width..(i + 1) * width], cols);
                        bits &= bits - 1;
                    }
                }
                acc
            }
        }
    }

    /// Sum the given attributes at scattered slot positions (filtered
    /// partitions of a range query, scalar path).
    pub fn sum_positions(&self, cols: &[usize], positions: &[usize]) -> u64 {
        match &self.repr {
            Repr::Columns(c) => cols
                .iter()
                .map(|&i| positions.iter().map(|&p| u64::from(c[i][p])).sum::<u64>())
                .sum(),
            Repr::Rows { width, data } => positions
                .iter()
                .map(|&p| row_sum(&data[p * width..(p + 1) * width], cols))
                .sum(),
        }
    }

    /// Sum the `cols` attributes of the rows at `positions` whose `pred_col`
    /// attribute lies in `pred` (the §6.4 multi-column scan), with the
    /// count of rows that passed. Row-major reads each row once for the
    /// predicate and the sum.
    pub fn sum_where(
        &self,
        positions: impl IntoIterator<Item = usize>,
        cols: &[usize],
        pred_col: usize,
        pred: Range<u32>,
    ) -> (u64, usize) {
        let tally = |(sum, n): (u64, usize), row_sum: u64| (sum + row_sum, n + 1);
        match &self.repr {
            Repr::Columns(c) => positions
                .into_iter()
                .filter(|&pos| pred.contains(&c[pred_col][pos]))
                .map(|pos| cols.iter().map(|&i| u64::from(c[i][pos])).sum())
                .fold((0, 0), tally),
            Repr::Rows { width, data } => positions
                .into_iter()
                .map(|pos| &data[pos * width..(pos + 1) * width])
                .filter(|row| pred.contains(&row[pred_col]))
                .map(|row| row_sum(row, cols))
                .fold((0, 0), tally),
        }
    }

    /// Blocks of `block_bytes` a sum of `k` attributes over `rows` rows
    /// streams (Q3's payload reads): column-major, one scan of `rows`
    /// 4-byte words per projected attribute; row-major, the
    /// `rows · 4·width` bytes of the rows themselves, whatever `k` is.
    pub fn scan_blocks(&self, k: usize, rows: usize, block_bytes: usize) -> u64 {
        match &self.repr {
            Repr::Columns(_) => {
                let words_per_block = (block_bytes / WORD_BYTES).max(1);
                (k * rows.div_ceil(words_per_block)) as u64
            }
            Repr::Rows { width, .. } if k > 0 => {
                (rows * width * WORD_BYTES).div_ceil(block_bytes.max(1)) as u64
            }
            Repr::Rows { .. } => 0,
        }
    }

    /// Groups the stored words fall into, in storage order: one per
    /// attribute column-major, one of whole rows row-major (none when
    /// empty). Serialization writes group by group.
    pub fn word_groups(&self) -> usize {
        match &self.repr {
            Repr::Columns(cols) => cols.len(),
            Repr::Rows { .. } => 1,
        }
    }

    /// Words one slot holds in each word group: 1 column-major, `width`
    /// row-major.
    pub fn words_per_slot(&self) -> usize {
        match &self.repr {
            Repr::Columns(_) => 1,
            Repr::Rows { width, .. } => *width,
        }
    }

    /// The stored words of group `group` for the slots in `slots`:
    /// column-major, attribute `group`'s values; row-major (`group` 0),
    /// the slots' whole rows back to back.
    pub fn stored_words(&self, group: usize, slots: Range<usize>) -> &[u32] {
        match &self.repr {
            Repr::Columns(cols) => &cols[group][slots],
            Repr::Rows { width, data } => {
                assert_eq!(group, 0, "row-major payload has one word group");
                &data[slots.start * width..slots.end * width]
            }
        }
    }

    /// Mutable [`PayloadSet::stored_words`] (applying a patch record).
    pub fn stored_words_mut(&mut self, group: usize, slots: Range<usize>) -> &mut [u32] {
        match &mut self.repr {
            Repr::Columns(cols) => &mut cols[group][slots],
            Repr::Rows { width, data } => {
                assert_eq!(group, 0, "row-major payload has one word group");
                &mut data[slots.start * *width..slots.end * *width]
            }
        }
    }

    /// Heap bytes resident for the payload (allocated capacity, not just
    /// live length — the tail slack is real memory too).
    pub fn resident_bytes(&self) -> usize {
        let words = match &self.repr {
            Repr::Columns(cols) => cols.iter().map(Vec::capacity).sum(),
            Repr::Rows { data, .. } => data.capacity(),
        };
        words * WORD_BYTES
    }

    /// Grow the physical slot count (used when a chunk expands its tail),
    /// reserving exactly the new slots: an amortized `resize` would double
    /// the allocation for a small grow.
    pub fn grow_to(&mut self, physical: usize) {
        let grow = |v: &mut Vec<u32>, len: usize| {
            if v.len() < len {
                v.reserve_exact(len - v.len());
                v.resize(len, 0);
            }
        };
        match &mut self.repr {
            Repr::Columns(cols) => cols.iter_mut().for_each(|c| grow(c, physical)),
            Repr::Rows { width, data } => grow(data, physical * *width),
        }
    }
}

/// Sum of a row's `cols` attributes.
#[inline]
fn row_sum(row: &[u32], cols: &[usize]) -> u64 {
    cols.iter().map(|&c| u64::from(row[c])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn sample() -> PayloadSet {
        PayloadSet::from_columns(vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]], 6)
    }

    /// The sample in both orientations.
    fn both() -> [PayloadSet; 2] {
        let p = sample();
        let rows = p.to_orientation(PayloadOrientation::Rows);
        [p, rows]
    }

    #[test]
    fn from_columns_pads_to_physical() {
        for p in both() {
            assert_eq!(p.width(), 2);
            assert_eq!(p.slot_count(), 6);
            assert_eq!(p.get(0, 4), 0);
            assert_eq!(p.get(1, 5), 0);
            assert_eq!(p.get(1, 2), 30);
            p.check_slots(6).unwrap();
            assert!(p.check_slots(7).is_err());
        }
    }

    #[test]
    fn move_row_copies_all_columns() {
        for mut p in both() {
            p.move_row(1, 3);
            assert_eq!(p.get(0, 3), 2);
            assert_eq!(p.get(1, 3), 20);
            // Source slot is stale but untouched.
            assert_eq!(p.get(0, 1), 2);
        }
    }

    #[test]
    fn set_and_gather_row() {
        for mut p in both() {
            p.set_row(5, &[7, 70]);
            assert_eq!(p.gather_row(5, &[0, 1]), vec![7, 70]);
            assert_eq!(p.gather_row(5, &[1]), vec![70]);
            assert_eq!(p.row(5), vec![7, 70]);
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn set_row_checks_arity() {
        let mut p = sample().to_orientation(PayloadOrientation::Rows);
        p.set_row(0, &[1]);
    }

    #[test]
    fn sums() {
        for p in both() {
            assert_eq!(p.sum_range(&[0], 0..4), 10);
            assert_eq!(p.sum_range(&[0, 1], 1..3), 2 + 3 + 20 + 30);
            assert_eq!(p.sum_positions(&[1], &[0, 3]), 50);
            assert_eq!(p.sum_masked(&[0, 1], 1..4, &[0b101]), 2 + 20 + 4 + 40);
        }
    }

    #[test]
    fn empty_set_is_noop() {
        let mut p = PayloadSet::empty();
        p.move_row(0, 1); // must not panic
        assert!(p.is_empty());
        assert_eq!(p.sum_range(&[], 0..0), 0);
        assert_eq!(PayloadSet::from_rows(0, Vec::new(), 9), p);
        assert_eq!(p.word_groups(), 0);
    }

    #[test]
    fn orientations_round_trip_and_store_their_own_order() {
        let [cols, rows] = both();
        assert_eq!(rows.orientation(), PayloadOrientation::Rows);
        assert_eq!(rows.to_orientation(PayloadOrientation::Columns), cols);
        assert_eq!(cols.word_groups(), 2);
        assert_eq!(rows.word_groups(), 1);
        assert_eq!(cols.words_per_slot(), 1);
        assert_eq!(rows.words_per_slot(), 2);
        assert_eq!(cols.stored_words(1, 1..3), &[20, 30]);
        assert_eq!(rows.stored_words(0, 1..3), &[2, 20, 3, 30]);
        // Same bytes per row: the row-major set carries no padding.
        let zeroed =
            |o| PayloadSet::gathered(&cols, o, 6, &[], std::iter::empty()).resident_bytes();
        assert_eq!(zeroed(PayloadOrientation::Columns), 2 * 6 * WORD_BYTES);
        assert_eq!(zeroed(PayloadOrientation::Rows), 2 * 6 * WORD_BYTES);
    }

    #[test]
    fn gathered_writes_each_row_to_its_new_slot() {
        // Slot 3 → 0, 0 → 2, 2 → 4.
        let (sources, runs) = ([3, 0, 2], [0..1, 2..3, 4..5]);
        for src in both() {
            for o in [PayloadOrientation::Columns, PayloadOrientation::Rows] {
                let g = PayloadSet::gathered(&src, o, 5, &sources, runs.iter().cloned());
                assert_eq!(g.orientation(), o);
                assert_eq!(g.slot_count(), 5);
                assert_eq!(g.row(0), vec![4, 40]);
                assert_eq!(g.row(1), vec![0, 0]);
                assert_eq!(g.row(2), vec![1, 10]);
                assert_eq!(g.row(4), vec![3, 30]);
            }
        }
    }

    #[test]
    fn grow_reserves_exactly_in_both_orientations() {
        for mut p in both() {
            p.grow_to(10);
            assert_eq!(p.slot_count(), 10);
            assert_eq!(p.resident_bytes(), 10 * 2 * WORD_BYTES);
            assert_eq!(p.get(1, 9), 0);
        }
    }

    /// Q3 over row-major rows: the blind and masked sums equal a naive
    /// per-slot reference at unaligned starts 0..9, ragged tails, and
    /// all-set, all-clear and random masks.
    #[test]
    fn row_sums_match_naive_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let (width, physical) = (15, 400);
        let cols: Vec<Vec<u32>> = (0..width)
            .map(|_| (0..physical).map(|_| rng.gen()).collect())
            .collect();
        let colmajor = PayloadSet::from_columns(cols.clone(), physical);
        let rows = colmajor.to_orientation(PayloadOrientation::Rows);
        let projections: [&[usize]; 4] = [&[], &[0], &[0, 1, 2, 3], &[14, 3, 3, 7]];
        for start in 0..10 {
            for len in [0usize, 1, 63, 64, 65, 127, 130, 200, 390 - start] {
                let slots = start..start + len;
                let words = len.div_ceil(64).max(1);
                let random: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
                for mask in [vec![u64::MAX; words], vec![0; words], random] {
                    for proj in projections {
                        let naive_blind: u64 = slots
                            .clone()
                            .flat_map(|s| proj.iter().map(move |&c| (s, c)))
                            .map(|(s, c)| u64::from(cols[c][s]))
                            .sum();
                        let naive_masked: u64 = slots
                            .clone()
                            .enumerate()
                            .filter(|(i, _)| mask[i / 64] >> (i % 64) & 1 == 1)
                            .flat_map(|(_, s)| proj.iter().map(move |&c| (s, c)))
                            .map(|(s, c)| u64::from(cols[c][s]))
                            .sum();
                        for p in [&colmajor, &rows] {
                            let o = p.orientation();
                            assert_eq!(p.sum_range(proj, slots.clone()), naive_blind, "{o:?}");
                            assert_eq!(
                                p.sum_masked(proj, slots.clone(), &mask),
                                naive_masked,
                                "{o:?} start {start} len {len}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn filtered_sums_match_naive_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let (width, physical) = (15, 300);
        let cols: Vec<Vec<u32>> = (0..width)
            .map(|_| (0..physical).map(|_| rng.gen_range(0..1000)).collect())
            .collect();
        let colmajor = PayloadSet::from_columns(cols.clone(), physical);
        let rows = colmajor.to_orientation(PayloadOrientation::Rows);
        let positions: Vec<usize> = (0..physical).filter(|_| rng.gen_bool(0.5)).collect();
        for (pred_col, pred) in [(0, 0..1000), (3, 200..700), (14, 5..5)] {
            let passing = positions
                .iter()
                .filter(|&&p| pred.contains(&cols[pred_col][p]));
            let want = passing
                .clone()
                .map(|&p| u64::from(cols[1][p] + cols[14][p]));
            let want = (want.sum::<u64>(), passing.count());
            for p in [&colmajor, &rows] {
                let got = p.sum_where(positions.iter().copied(), &[1, 14], pred_col, pred.clone());
                assert_eq!(got, want, "{:?} pred {pred_col} {pred:?}", p.orientation());
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn row_masked_sum_rejects_a_short_mask() {
        let p = PayloadSet::from_rows(2, vec![1; 2 * 70], 70);
        p.sum_masked(&[0], 0..65, &[u64::MAX]);
    }

    #[test]
    fn scan_blocks_per_orientation() {
        // 16 KB blocks of 4-byte payload words: 4096 words per block.
        let block_bytes = 16 * 1024;
        let [cols, _] = both();
        let rows = PayloadSet::from_rows(15, Vec::new(), 10);
        assert_eq!(cols.scan_blocks(2, 4096, block_bytes), 2);
        assert_eq!(cols.scan_blocks(2, 4097, block_bytes), 4);
        // 1000 rows of 60 bytes = 60 000 bytes: 4 blocks of 16 KB.
        assert_eq!(rows.scan_blocks(4, 1000, block_bytes), 4);
        assert_eq!(rows.scan_blocks(1, 1000, block_bytes), 4);
        assert_eq!(rows.scan_blocks(0, 1000, block_bytes), 0);
    }
}

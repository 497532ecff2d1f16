//! Secondary (payload) columns that mirror key-column movements.
//!
//! The HAP tables of the paper (§7.1) pair an 8-byte key column `a0` with
//! `p` 4-byte payload columns `a1..ap`. Range partitioning is driven by the
//! key column; whenever a ripple moves a key between slots, the same move
//! must be applied to every payload attribute so rows stay aligned.
//!
//! [`PayloadSet`] stores the payload slot-for-slot parallel to the key
//! column's physical slots as attribute groups (HYRISE's column groups):
//! each group holds `width` consecutive attributes stored row-major over
//! its own range, `words[slot * width + i]`, and the groups cover the
//! attributes in order. Every operation is one loop over the groups with
//! each group's stride. The two [`PayloadOrientation`]s are the two shapes
//! built:
//!
//! * **column-major**: one group per attribute. A range sum streams only
//!   the `k` attributes it projects, but a ripple move or a slot write
//!   touches one cache line per attribute;
//! * **row-major**: one group of every attribute, with no padding. A move
//!   or a slot write touches the row's one or two lines, but a range sum
//!   streams every attribute of every row it reads.
//!
//! A set of one attribute has one layout and reports column-major. The
//! groups are private to this module: the chunk and its operations move,
//! write, gather and sum rows through the methods below, and serialization
//! reads each group's stored words in their own order
//! ([`PayloadSet::stored_words`]) without transposing them.

use crate::kernels;
use crate::layout::lay_out_runs;
use std::ops::Range;

/// Bytes of one payload attribute.
const WORD_BYTES: usize = std::mem::size_of::<u32>();

/// How a [`PayloadSet`] lays its words out in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum PayloadOrientation {
    /// One group per attribute (the column store's layout).
    #[default]
    Columns,
    /// One group of every attribute: a contiguous row per slot.
    Rows,
}

/// A set of fixed-width (`u32`) payload attributes, slot-aligned with a key
/// column's physical storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PayloadSet {
    groups: Vec<Group>,
}

/// Attributes `first..first + width` (`width > 0`), stored row-major:
/// `words[slot * width + i]` is attribute `first + i` at `slot`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Group {
    first: usize,
    width: usize,
    words: Vec<u32>,
}

impl Group {
    fn attrs(&self) -> Range<usize> {
        self.first..self.first + self.width
    }

    /// The words of slots `slots`, back to back.
    fn rows(&self, slots: Range<usize>) -> &[u32] {
        &self.words[slots.start * self.width..slots.end * self.width]
    }

    fn rows_mut(&mut self, slots: Range<usize>) -> &mut [u32] {
        &mut self.words[slots.start * self.width..slots.end * self.width]
    }

    /// Copy slot `from`'s words over slot `to`'s: one word store for a
    /// single attribute (no `memmove` per attribute of a column-major move).
    #[inline]
    fn move_row(&mut self, from: usize, to: usize) {
        match self.width {
            1 => self.words[to] = self.words[from],
            w => self.words.copy_within(from * w..(from + 1) * w, to * w),
        }
    }

    /// Write this group's words of one row at slot `slot`.
    #[inline]
    fn set_row(&mut self, slot: usize, row: &[u32]) {
        match row {
            [word] => self.words[slot] = *word,
            _ => self.rows_mut(slot..slot + 1).copy_from_slice(row),
        }
    }
}

/// How many groups `orientation` stores `width` attributes in, and how
/// many attributes each group holds.
fn shape(orientation: PayloadOrientation, width: usize) -> (usize, usize) {
    match orientation {
        PayloadOrientation::Rows if width > 0 => (1, width),
        _ => (width, 1),
    }
}

impl PayloadSet {
    /// An empty payload set (key-only chunk).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from stored groups, each `(width, words)` holding the next
    /// `width` attributes row-major, padded to `physical` slots: one group
    /// per attribute (column-major) or one group of all (row-major).
    ///
    /// # Panics
    /// Panics on any other shape, or if a group's words are not whole rows
    /// or hold more than `physical` of them.
    pub fn from_groups(
        groups: impl IntoIterator<Item = (usize, Vec<u32>)>,
        physical: usize,
    ) -> Self {
        let mut first = 0;
        let groups: Vec<Group> = groups
            .into_iter()
            .map(|(width, mut words)| {
                assert!(width > 0, "zero-width payload group");
                assert!(words.len().is_multiple_of(width), "payload rows not whole");
                assert!(
                    words.len() <= physical * width,
                    "payload rows longer than chunk"
                );
                words.resize(physical * width, 0);
                first += width;
                Group {
                    first: first - width,
                    width,
                    words,
                }
            })
            .collect();
        assert!(
            groups.len() <= 1 || groups.iter().all(|g| g.width == 1),
            "payload groups must be one per attribute or one of all"
        );
        Self { groups }
    }

    /// A set of `physical` slots in `orientation` holding the rows of
    /// `cols` (one slice per attribute), in order, in the slot ranges
    /// `runs` (ascending and disjoint, as many slots as `cols` has rows),
    /// and zeros elsewhere. Each word is written once, straight from its
    /// source (a chunk's build from sorted rows).
    ///
    /// # Panics
    /// Panics if `runs` holds more slots than `cols` has rows, or ends past
    /// `physical`.
    pub(crate) fn placed(
        cols: &[impl AsRef<[u32]>],
        orientation: PayloadOrientation,
        physical: usize,
        runs: impl Iterator<Item = Range<usize>> + Clone,
    ) -> Self {
        let (n, width) = shape(orientation, cols.len());
        let groups = (0..n).map(|k| {
            let attrs = &cols[k * width..(k + 1) * width];
            Group {
                first: k * width,
                width,
                words: lay_out_runs(physical, width, 0, runs.clone(), |rows, out| match attrs {
                    [col] => out.extend_from_slice(&col.as_ref()[rows]),
                    _ => rows.for_each(|r| out.extend(attrs.iter().map(|c| c.as_ref()[r]))),
                }),
            }
        });
        Self {
            groups: groups.collect(),
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
        let group = |attrs: Range<usize>| {
            let width = attrs.len();
            // Where each attribute lives in `src`: its group's words from
            // the attribute's offset in a row on, and their stride.
            let from: Vec<(&[u32], usize)> = attrs
                .clone()
                .map(|a| {
                    let (g, i) = src.locate(a);
                    let g = &src.groups[g];
                    (&g.words[i..], g.width)
                })
                .collect();
            let same = src.groups.iter().find(|g| g.attrs() == attrs);
            let words = lay_out_runs(physical, width, 0, runs.clone(), |rows, out| {
                let rows = &sources[rows];
                match (&from[..], same) {
                    // One attribute: a word per row, gathered.
                    ([(words, stride)], _) => out.extend(rows.iter().map(|&r| words[r * stride])),
                    // The same attributes grouped in `src`: whole rows.
                    (_, Some(g)) => rows
                        .iter()
                        .for_each(|&r| out.extend_from_slice(g.rows(r..r + 1))),
                    _ => rows.iter().for_each(|&r| {
                        out.extend(from.iter().map(|&(words, stride)| words[r * stride]))
                    }),
                }
            });
            Group {
                first: attrs.start,
                width,
                words,
            }
        };
        let (n, width) = shape(orientation, src.width());
        Self {
            groups: (0..n).map(|k| group(k * width..(k + 1) * width)).collect(),
        }
    }

    /// How the words are laid out: row-major when one group holds two or
    /// more attributes, column-major otherwise.
    #[inline]
    pub fn orientation(&self) -> PayloadOrientation {
        match self.groups[..] {
            [Group { width: 2.., .. }] => PayloadOrientation::Rows,
            _ => PayloadOrientation::Columns,
        }
    }

    /// Number of payload attributes.
    #[inline]
    pub fn width(&self) -> usize {
        self.groups.last().map_or(0, |g| g.first + g.width)
    }

    /// Whether this set stores any attributes at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Physical slots held (0 for an empty set).
    pub fn slot_count(&self) -> usize {
        self.groups.first().map_or(0, |g| g.words.len() / g.width)
    }

    /// Check that every group holds exactly `physical` slots; describe the
    /// first that does not.
    pub(crate) fn check_slots(&self, physical: usize) -> Result<(), String> {
        match self
            .groups
            .iter()
            .find(|g| g.words.len() != physical * g.width)
        {
            Some(g) => Err(format!(
                "payload attributes {:?} hold {} words, {physical} slots need {}",
                g.attrs(),
                g.words.len(),
                physical * g.width
            )),
            None => Ok(()),
        }
    }

    /// The index of the group holding attribute `attr`, and the
    /// attribute's offset in that group's rows.
    ///
    /// # Panics
    /// If `attr` is not an attribute of this set.
    #[inline]
    fn locate(&self, attr: usize) -> (usize, usize) {
        // A scan, not a binary search: its branches predict, and it stops
        // at the first group for a row-major set.
        match self.groups.iter().position(|g| attr < g.first + g.width) {
            Some(g) => (g, attr - self.groups[g].first),
            None => panic!("payload attribute {attr} of {}", self.width()),
        }
    }

    /// The word at `(group, offset)` of slot `slot`.
    #[inline]
    fn word(&self, (g, i): (usize, usize), slot: usize) -> u32 {
        let g = &self.groups[g];
        g.words[slot * g.width + i]
    }

    /// Copy the row at slot `from` over the row at slot `to` (the ripple
    /// move primitive). The source slot's contents become stale, exactly
    /// like the key column's ghost slots.
    #[inline]
    pub fn move_row(&mut self, from: usize, to: usize) {
        for g in &mut self.groups {
            g.move_row(from, to);
        }
    }

    /// Write a full row at slot `pos`.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the attribute count.
    #[inline]
    pub fn set_row(&mut self, pos: usize, row: &[u32]) {
        assert_eq!(row.len(), self.width(), "payload arity mismatch");
        for g in &mut self.groups {
            g.set_row(pos, &row[g.attrs()]);
        }
    }

    /// Read one attribute.
    #[inline]
    pub fn get(&self, col: usize, pos: usize) -> u32 {
        self.word(self.locate(col), pos)
    }

    /// Gather a row into a fresh vector (used by point queries with
    /// projectivity `k`, HAP Q1).
    pub fn gather_row(&self, pos: usize, cols: &[usize]) -> Vec<u32> {
        cols.iter().map(|&c| self.get(c, pos)).collect()
    }

    /// Every attribute of the row at slot `pos`.
    pub fn row(&self, pos: usize) -> Vec<u32> {
        let mut row = Vec::with_capacity(self.width());
        for g in &self.groups {
            row.extend_from_slice(g.rows(pos..pos + 1));
        }
        row
    }

    /// `cols` as `(group, offset)` pairs (see [`PayloadSet::locate`]), in
    /// storage order, repeats kept (`[3, 3]` sums attribute 3 twice).
    ///
    /// # Panics
    /// If an entry of `cols` is not an attribute of this set.
    fn projected(&self, cols: &[usize]) -> Vec<(usize, usize)> {
        let mut at: Vec<(usize, usize)> = cols.iter().map(|&c| self.locate(c)).collect();
        at.sort_unstable();
        at
    }

    /// The total of `sum(group, offsets)` over the groups `cols` projects,
    /// each given the `(group, offset)` pairs of its projected attributes.
    fn sum_groups(&self, cols: &[usize], sum: impl Fn(&Group, &[(usize, usize)]) -> u64) -> u64 {
        let at = self.projected(cols);
        let runs = at.chunk_by(|a, b| a.0 == b.0);
        runs.map(|run| sum(&self.groups[run[0].0], run)).sum()
    }

    /// Sum the given attributes over a contiguous slot range (the blind
    /// partitions of a range query, HAP Q3): one pass per group, a
    /// vectorized column sum for a group of one attribute.
    pub fn sum_range(&self, cols: &[usize], range: Range<usize>) -> u64 {
        self.sum_groups(cols, |g, offsets| match g.width {
            1 => offsets.len() as u64 * crate::simd::sum_u32(&g.words[range.clone()]),
            w => g
                .rows(range.clone())
                .chunks_exact(w)
                .map(|row| row_sum(row, offsets))
                .sum(),
        })
    }

    /// Sum the given attributes over the slots of `slots` whose bit is set
    /// in `mask` (bit `i` ⇔ slot `slots.start + i`; bits past the range
    /// are ignored): a filtered partition of a range sum, under the key
    /// lane's bitmap. A group of one attribute runs the masked kernel; a
    /// wider group reads each selected row once.
    ///
    /// # Panics
    /// If `mask` covers fewer than `slots.len()` positions.
    pub(crate) fn sum_masked(&self, cols: &[usize], slots: Range<usize>, mask: &[u64]) -> u64 {
        let n = slots.len();
        self.sum_groups(cols, |g, offsets| {
            if g.width == 1 {
                let words = &g.words[slots.clone()];
                return offsets.len() as u64 * kernels::sum_payload_masked(words, mask);
            }
            assert!(
                n <= mask.len() * 64,
                "sum_masked: {} mask words cannot cover {n} slots",
                mask.len()
            );
            let rows = g.rows(slots.clone());
            let mut acc = 0u64;
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    if i >= n {
                        break;
                    }
                    acc += row_sum(&rows[i * g.width..(i + 1) * g.width], offsets);
                    bits &= bits - 1;
                }
            }
            acc
        })
    }

    /// Sum the given attributes at scattered slot positions (filtered
    /// partitions of a range query, scalar path).
    pub fn sum_positions(&self, cols: &[usize], positions: &[usize]) -> u64 {
        self.sum_groups(cols, |g, offsets| {
            let row = |&p: &usize| row_sum(g.rows(p..p + 1), offsets);
            positions.iter().map(row).sum()
        })
    }

    /// Sum the `cols` attributes of the rows at `positions` whose `pred_col`
    /// attribute lies in `pred` (the §6.4 multi-column scan), with the
    /// count of rows that passed.
    pub fn sum_where(
        &self,
        positions: impl IntoIterator<Item = usize>,
        cols: &[usize],
        pred_col: usize,
        pred: Range<u32>,
    ) -> (u64, usize) {
        let (at, pred_at) = (self.projected(cols), self.locate(pred_col));
        let row = |pos| {
            at.iter()
                .map(|&a| u64::from(self.word(a, pos)))
                .sum::<u64>()
        };
        positions
            .into_iter()
            .filter(|&pos| pred.contains(&self.word(pred_at, pos)))
            .fold((0, 0), |(sum, n), pos| (sum + row(pos), n + 1))
    }

    /// Blocks of `block_bytes` a sum of `k` attributes over `rows` rows
    /// streams (Q3's payload reads): column-major, one scan of `rows`
    /// 4-byte words per projected attribute; row-major, the
    /// `rows · 4·width` bytes of the rows themselves, whatever `k` is.
    pub fn scan_blocks(&self, k: usize, rows: usize, block_bytes: usize) -> u64 {
        match self.orientation() {
            PayloadOrientation::Columns => {
                let words_per_block = (block_bytes / WORD_BYTES).max(1);
                (k * rows.div_ceil(words_per_block)) as u64
            }
            PayloadOrientation::Rows if k > 0 => {
                (rows * self.width() * WORD_BYTES).div_ceil(block_bytes.max(1)) as u64
            }
            PayloadOrientation::Rows => 0,
        }
    }

    /// Groups the stored words fall into, in storage order: one per
    /// attribute column-major, one of whole rows row-major (none when
    /// empty). Serialization writes group by group.
    pub fn word_groups(&self) -> usize {
        self.groups.len()
    }

    /// Words one slot holds in word group `group`: its attribute count.
    pub fn words_per_slot(&self, group: usize) -> usize {
        self.groups[group].width
    }

    /// The stored words of group `group` for the slots in `slots`: the
    /// slots' rows of the group's attributes, back to back.
    pub fn stored_words(&self, group: usize, slots: Range<usize>) -> &[u32] {
        self.groups[group].rows(slots)
    }

    /// Mutable [`PayloadSet::stored_words`] (applying a patch record).
    pub fn stored_words_mut(&mut self, group: usize, slots: Range<usize>) -> &mut [u32] {
        self.groups[group].rows_mut(slots)
    }

    /// Heap bytes resident for the payload (allocated capacity, not just
    /// live length — the tail slack is real memory too).
    pub fn resident_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.words.capacity())
            .sum::<usize>()
            * WORD_BYTES
    }

    /// Grow the physical slot count (used when a chunk expands its tail),
    /// reserving exactly the new slots: an amortized `resize` would double
    /// the allocation for a small grow.
    pub fn grow_to(&mut self, physical: usize) {
        for g in &mut self.groups {
            let len = physical * g.width;
            if g.words.len() < len {
                g.words.reserve_exact(len - g.words.len());
                g.words.resize(len, 0);
            }
        }
    }
}

/// Sum of a row's words at the offsets of `at`'s `(group, offset)` pairs.
#[inline]
fn row_sum(row: &[u32], at: &[(usize, usize)]) -> u64 {
    at.iter().map(|&(_, i)| u64::from(row[i])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn sample() -> PayloadSet {
        PayloadSet::from_groups([(1, vec![1, 2, 3, 4]), (1, vec![10, 20, 30, 40])], 6)
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
        assert_eq!(PayloadSet::from_groups([], 9), p);
        assert_eq!(p.word_groups(), 0);
    }

    #[test]
    fn orientations_round_trip_and_store_their_own_order() {
        let [cols, rows] = both();
        assert_eq!(rows.orientation(), PayloadOrientation::Rows);
        assert_eq!(rows.to_orientation(PayloadOrientation::Columns), cols);
        assert_eq!(cols.word_groups(), 2);
        assert_eq!(rows.word_groups(), 1);
        assert_eq!(cols.words_per_slot(1), 1);
        assert_eq!(rows.words_per_slot(0), 2);
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
        let colmajor = PayloadSet::from_groups(cols.iter().map(|c| (1, c.clone())), physical);
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
        let colmajor = PayloadSet::from_groups(cols.iter().map(|c| (1, c.clone())), physical);
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
        let p = PayloadSet::from_groups([(2, vec![1; 2 * 70])], 70);
        p.sum_masked(&[0], 0..65, &[u64::MAX]);
    }

    #[test]
    fn scan_blocks_per_orientation() {
        // 16 KB blocks of 4-byte payload words: 4096 words per block.
        let block_bytes = 16 * 1024;
        let [cols, _] = both();
        let rows = PayloadSet::from_groups([(15, Vec::new())], 10);
        assert_eq!(cols.scan_blocks(2, 4096, block_bytes), 2);
        assert_eq!(cols.scan_blocks(2, 4097, block_bytes), 4);
        // 1000 rows of 60 bytes = 60 000 bytes: 4 blocks of 16 KB.
        assert_eq!(rows.scan_blocks(4, 1000, block_bytes), 4);
        assert_eq!(rows.scan_blocks(1, 1000, block_bytes), 4);
        assert_eq!(rows.scan_blocks(0, 1000, block_bytes), 0);
    }

    /// `CASPER_STRESS_SEEDS` (comma-separated, default "1,2"): extra seeds
    /// for the model test below, each run for [`STRESS_CASES`] cases.
    fn env_seeds() -> Vec<u64> {
        std::env::var("CASPER_STRESS_SEEDS")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect::<Vec<u64>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1, 2])
    }

    const STRESS_CASES: u64 = 16;

    /// A random slot range of `physical`: unaligned start, ragged length.
    fn slot_range(rng: &mut StdRng, physical: usize) -> Range<usize> {
        let start = rng.gen_range(0..=physical);
        start..rng.gen_range(start..=physical)
    }

    /// A projection of `width` attributes, repeats allowed, maybe empty.
    fn projection(rng: &mut StdRng, width: usize) -> Vec<usize> {
        if width == 0 {
            return Vec::new();
        }
        (0..rng.gen_range(0usize..6))
            .map(|_| rng.gen_range(0..width))
            .collect()
    }

    /// Every read of `p` against the model `cols[attr][slot]` of
    /// `physical` slots, stored in `orientation`.
    fn check_reads(
        p: &PayloadSet,
        cols: &[Vec<u32>],
        physical: usize,
        orientation: PayloadOrientation,
        rng: &mut StdRng,
    ) -> Result<(), String> {
        let width = cols.len();
        let want_orientation = match orientation {
            PayloadOrientation::Rows if width >= 2 => PayloadOrientation::Rows,
            _ => PayloadOrientation::Columns,
        };
        if p.orientation() != want_orientation || p.width() != width {
            return Err(format!("{:?} of width {}", p.orientation(), p.width()));
        }
        let slots = if width == 0 { 0 } else { physical };
        if p.slot_count() != slots || p.resident_bytes() != slots * width * WORD_BYTES {
            return Err(format!(
                "{} slots, {} resident bytes",
                p.slot_count(),
                p.resident_bytes()
            ));
        }
        p.check_slots(slots)?;
        let model_row = |s: usize| cols.iter().map(|c| c[s]).collect::<Vec<u32>>();
        for s in 0..slots {
            if p.row(s) != model_row(s) {
                return Err(format!("row {s}"));
            }
            if let Some(c) = (0..width).find(|&c| p.get(c, s) != cols[c][s]) {
                return Err(format!("get({c}, {s})"));
            }
            let proj = projection(rng, width);
            let want: Vec<u32> = proj.iter().map(|&c| cols[c][s]).collect();
            if p.gather_row(s, &proj) != want {
                return Err(format!("gather_row({s}, {proj:?})"));
            }
        }
        // The stored words, group by group, reassemble the model.
        let mut first = 0;
        for g in 0..p.word_groups() {
            let per_slot = p.words_per_slot(g);
            let whole = p.stored_words(g, 0..slots);
            let want: Vec<u32> = (0..slots)
                .flat_map(|s| (first..first + per_slot).map(move |c| (s, c)))
                .map(|(s, c)| cols[c][s])
                .collect();
            if whole != want {
                return Err(format!("stored words of group {g}"));
            }
            let r = slot_range(rng, slots);
            if p.stored_words(g, r.clone()) != &whole[r.start * per_slot..r.end * per_slot] {
                return Err(format!("stored words of group {g} at {r:?}"));
            }
            first += per_slot;
        }
        if first != width {
            return Err(format!("word groups cover {first} of {width} attributes"));
        }
        for _ in 0..4 {
            let proj = projection(rng, width);
            let sum_at = |s: usize| proj.iter().map(|&c| u64::from(cols[c][s])).sum::<u64>();
            let range = slot_range(rng, slots);
            let blind: u64 = range.clone().map(sum_at).sum();
            if p.sum_range(&proj, range.clone()) != blind {
                return Err(format!("sum_range({proj:?}, {range:?})"));
            }
            let words = range.len().div_ceil(64) + rng.gen_range(0usize..2);
            let mask: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let masked: u64 = range
                .clone()
                .enumerate()
                .filter(|(i, _)| mask[i / 64] >> (i % 64) & 1 == 1)
                .map(|(_, s)| sum_at(s))
                .sum();
            if p.sum_masked(&proj, range.clone(), &mask) != masked {
                return Err(format!("sum_masked({proj:?}, {range:?})"));
            }
            let positions: Vec<usize> = range.clone().filter(|_| rng.gen_bool(0.4)).collect();
            let scattered: u64 = positions.iter().map(|&s| sum_at(s)).sum();
            if p.sum_positions(&proj, &positions) != scattered {
                return Err(format!("sum_positions({proj:?})"));
            }
            if width > 0 {
                let pred_col = rng.gen_range(0..width);
                let (x, y) = (rng.gen_range(0u32..100), rng.gen_range(0u32..100));
                let pred = x.min(y)..x.max(y);
                let passing = positions
                    .iter()
                    .filter(|&&s| pred.contains(&cols[pred_col][s]));
                let want = (passing.clone().map(|&s| sum_at(s)).sum(), passing.count());
                let got = p.sum_where(positions.iter().copied(), &proj, pred_col, pred);
                if got != want {
                    return Err(format!("sum_where({proj:?}, {pred_col})"));
                }
            }
        }
        Ok(())
    }

    /// One generated run: a set of a drawn width in a drawn orientation,
    /// then random writes, moves, grows, patches, re-orientations and
    /// gathers, each applied to the naive model too and checked against it.
    fn run_model(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let orientations = [PayloadOrientation::Columns, PayloadOrientation::Rows];
        let width = [0usize, 1, 2, 15, 17][rng.gen_range(0usize..5)];
        let mut physical = rng.gen_range(1usize..150);
        // Small words, so that predicates over them pass and fail.
        let word = |rng: &mut StdRng| rng.gen_range(0u32..100);
        let mut cols: Vec<Vec<u32>> = (0..width)
            .map(|_| (0..physical).map(|_| word(&mut rng)).collect())
            .collect();
        let mut orientation = orientations[rng.gen_range(0usize..2)];
        let built = PayloadSet::from_groups(cols.iter().map(|c| (1, c.clone())), physical);
        let mut p = built.to_orientation(orientation);
        check_reads(&p, &cols, physical, orientation, &mut rng)
            .map_err(|e| format!("build: {e}"))?;
        for step in 0..rng.gen_range(1usize..40) {
            let slot = |rng: &mut StdRng| rng.gen_range(0..physical);
            let what = match rng.gen_range(0u32..6) {
                0 if width > 0 => {
                    let (s, row) = (slot(&mut rng), (0..width).map(|_| word(&mut rng)));
                    let row: Vec<u32> = row.collect();
                    p.set_row(s, &row);
                    cols.iter_mut().zip(&row).for_each(|(c, &v)| c[s] = v);
                    format!("set_row({s})")
                }
                1 if width > 0 => {
                    let (from, to) = (slot(&mut rng), slot(&mut rng));
                    p.move_row(from, to);
                    cols.iter_mut().for_each(|c| c[to] = c[from]);
                    format!("move_row({from}, {to})")
                }
                2 => {
                    let to = physical + rng.gen_range(0usize..40)
                        - rng.gen_range(0usize..10).min(physical);
                    p.grow_to(to);
                    if width > 0 && to > physical {
                        physical = to;
                        cols.iter_mut().for_each(|c| c.resize(physical, 0));
                    }
                    format!("grow_to({to})")
                }
                3 if width > 0 => {
                    let g = rng.gen_range(0..p.word_groups());
                    let first: usize = (0..g).map(|g| p.words_per_slot(g)).sum();
                    let per_slot = p.words_per_slot(g);
                    let range = slot_range(&mut rng, physical);
                    for (i, w) in p.stored_words_mut(g, range.clone()).iter_mut().enumerate() {
                        *w = word(&mut rng);
                        cols[first + i % per_slot][range.start + i / per_slot] = *w;
                    }
                    format!("patch of group {g} at {range:?}")
                }
                4 => {
                    orientation = orientations[rng.gen_range(0usize..2)];
                    p = p.to_orientation(orientation);
                    format!("to_orientation({orientation:?})")
                }
                _ => {
                    // Rows `sources` (repeats allowed) land in ascending,
                    // disjoint runs of a new physical size.
                    orientation = orientations[rng.gen_range(0usize..2)];
                    let new_physical = rng.gen_range(1usize..150);
                    let (mut runs, mut at) = (Vec::new(), 0);
                    while at < new_physical && rng.gen_bool(0.7) {
                        let start = rng.gen_range(at..new_physical);
                        let end = rng.gen_range(start..=new_physical);
                        runs.push(start..end);
                        at = end;
                    }
                    let n: usize = runs.iter().map(|r| r.len()).sum();
                    let sources: Vec<usize> = (0..n).map(|_| slot(&mut rng)).collect();
                    let targets = runs.iter().flat_map(|r| r.clone());
                    let mut moved = vec![vec![0; new_physical]; width];
                    for (&from, to) in sources.iter().zip(targets) {
                        (0..width).for_each(|c| moved[c][to] = cols[c][from]);
                    }
                    p = PayloadSet::gathered(
                        &p,
                        orientation,
                        new_physical,
                        &sources,
                        runs.iter().cloned(),
                    );
                    (cols, physical) = (moved, new_physical);
                    format!("gathered({orientation:?}, {new_physical}, {runs:?})")
                }
            };
            check_reads(&p, &cols, physical, orientation, &mut rng)
                .map_err(|e| format!("seed {seed:#x} width {width} step {step} {what}: {e}"))?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every operation of both shapes against a naive `Vec<Vec<u32>>`
        /// model: a fault in the one loop both shapes share shows here,
        /// where a comparison of the two shapes with each other agrees.
        #[test]
        fn operations_match_a_naive_model(seed in any::<u64>()) {
            run_model(seed).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn operations_match_a_naive_model_over_stress_seeds() {
        for seed in env_seeds() {
            for case in 0..STRESS_CASES {
                let case_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case;
                if let Err(e) = run_model(case_seed) {
                    panic!("stress seed {seed}, case {case}: {e}");
                }
            }
        }
    }
}

//! Sorted column + delta store — the `State-of-art` baseline of §7.
//!
//! "Modern analytical data systems rely on columnar layouts and employ
//! delta stores to inject new data and updates" (§1). [`SortedDelta`] keeps
//! the main column fully sorted and absorbs writes into a *sorted* delta
//! buffer — real delta stores (SAP HANA's delta, positional delta trees,
//! Vertica's WOS) keep their buffer ordered/indexed so reads stay cheap,
//! which means every buffered write pays an ordered-insertion shift and
//! reads pay an extra probe. When the buffer exceeds its capacity it is
//! merged into the main column in one sequential pass — the periodic
//! reorganization cost that Casper's per-partition ghost values avoid.

use crate::ops::OpCost;
use crate::sorted::SortedColumn;
use crate::value::ColumnValue;

/// A pending write buffered in the delta.
#[derive(Debug, Clone)]
enum DeltaOp {
    Insert(Vec<u32>),
    Delete,
}

/// Sorted main column with a sorted out-of-place write buffer.
#[derive(Debug, Clone)]
pub struct SortedDelta<K: ColumnValue> {
    main: SortedColumn<K>,
    /// Buffered keys, ascending; per-key arrival order is preserved
    /// (equal keys append after their duplicates).
    delta_keys: Vec<K>,
    /// Operations aligned with `delta_keys`.
    delta_ops: Vec<DeltaOp>,
    /// Merge threshold: number of buffered ops that triggers a merge.
    capacity: usize,
    values_per_block: usize,
    payload_width: usize,
    merges: u64,
}

impl<K: ColumnValue> SortedDelta<K> {
    /// Build from raw values; `delta_capacity` buffered ops trigger a merge
    /// (the paper's delta stores are typically ~1% of the data size).
    pub fn build(
        values: Vec<K>,
        payload_cols: Vec<Vec<u32>>,
        values_per_block: usize,
        delta_capacity: usize,
    ) -> Self {
        let payload_width = payload_cols.len();
        Self {
            main: SortedColumn::build(values, payload_cols, values_per_block),
            delta_keys: Vec::new(),
            delta_ops: Vec::new(),
            capacity: delta_capacity.max(1),
            values_per_block,
            payload_width,
            merges: 0,
        }
    }

    /// Live row count (main plus buffered inserts minus buffered deletes).
    pub fn len_estimate(&self) -> usize {
        let ins = self
            .delta_ops
            .iter()
            .filter(|op| matches!(op, DeltaOp::Insert(..)))
            .count();
        let del = self.delta_ops.len() - ins;
        (self.main.len() + ins).saturating_sub(del)
    }

    /// Number of merges performed so far.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Buffered (unmerged) operation count.
    pub fn delta_len(&self) -> usize {
        self.delta_keys.len()
    }

    /// The merge-trigger capacity the store was built with (persistence).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sorted main column.
    pub fn main(&self) -> &SortedColumn<K> {
        &self.main
    }

    /// Heap bytes resident across the main column and the write buffer
    /// (buffered insert payload rows included).
    pub fn resident_bytes(&self) -> usize {
        let ops_heap: usize = self
            .delta_ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(row) => row.capacity() * std::mem::size_of::<u32>(),
                DeltaOp::Delete => 0,
            })
            .sum();
        self.main.resident_bytes()
            + self.delta_keys.capacity() * std::mem::size_of::<K>()
            + self.delta_ops.capacity() * std::mem::size_of::<DeltaOp>()
            + ops_heap
    }

    /// Index range of buffered ops with keys in `[lo, hi)`.
    fn delta_range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        let a = self.delta_keys.partition_point(|&k| k < lo);
        let b = self.delta_keys.partition_point(|&k| k < hi);
        a..b.max(a)
    }

    /// Index range of buffered ops with key exactly `v`.
    fn delta_equal(&self, v: K) -> std::ops::Range<usize> {
        let a = self.delta_keys.partition_point(|&k| k < v);
        let b = self.delta_keys.partition_point(|&k| k <= v);
        a..b
    }

    /// Charge the cost of probing the sorted delta (one extra random probe
    /// plus the touched entries).
    fn charge_delta_probe(&self, touched: usize, cost: &mut OpCost) {
        cost.index_probes += 1;
        cost.random_reads += 1;
        cost.values_scanned += touched as u64;
    }

    /// Net effect of the buffered ops in `dr`, replayed in arrival order
    /// exactly as [`SortedDelta::force_merge`] applies them: a tombstone
    /// cancels the most recent surviving buffered insert of its key, and
    /// otherwise hides one more main-column row of that key, front first.
    /// Returns the surviving inserts (buffer indices) and the main-row
    /// tombstones (ascending, one entry per hidden row). Every read, the
    /// single-row take and the merge go through this one replay, so they
    /// agree on which rows are live.
    fn net(&self, dr: std::ops::Range<usize>) -> (Vec<usize>, Vec<K>) {
        let mut inserts: Vec<usize> = Vec::new();
        let mut hidden = Vec::new();
        for i in dr {
            let k = self.delta_keys[i];
            match self.delta_ops[i] {
                DeltaOp::Insert(_) => inserts.push(i),
                // The buffer is key-ordered, so a surviving insert of `k`
                // can only be the last one collected.
                DeltaOp::Delete if inserts.last().is_some_and(|&j| self.delta_keys[j] == k) => {
                    inserts.pop();
                }
                DeltaOp::Delete => hidden.push(k),
            }
        }
        (inserts, hidden)
    }

    /// The buffered insert's payload row at buffer index `i`.
    fn buffered_row(&self, i: usize) -> &[u32] {
        match &self.delta_ops[i] {
            DeltaOp::Insert(row) => row,
            DeltaOp::Delete => unreachable!("net() lists inserts only"),
        }
    }

    /// Main-column positions the tombstones `hidden` (ascending) hide: the
    /// first `n` rows of a key that has `n` tombstones.
    fn hidden_positions<'a>(&'a self, hidden: &'a [K]) -> impl Iterator<Item = usize> + 'a {
        hidden.iter().enumerate().filter_map(move |(n, &k)| {
            let nth = hidden[..n].iter().rev().take_while(|&&p| p == k).count();
            let (r, _) = self.main.point_query(k);
            (r.start + nth < r.end).then_some(r.start + nth)
        })
    }

    /// Probe main column and buffer for key `v`: the main-column matches
    /// no tombstone hides (a position range), the surviving buffered
    /// inserts of `v` (buffer indices), and what the two probes cost.
    fn point_probe(&self, v: K) -> (std::ops::Range<usize>, Vec<usize>, OpCost) {
        let (r, mut cost) = self.main.point_query(v);
        let dr = self.delta_equal(v);
        self.charge_delta_probe(dr.len(), &mut cost);
        let (inserts, hidden) = self.net(dr);
        ((r.start + hidden.len()).min(r.end)..r.end, inserts, cost)
    }

    /// Count of live rows equal to `v`.
    pub fn point_count(&self, v: K) -> (u64, OpCost) {
        let (main, inserts, cost) = self.point_probe(v);
        ((main.len() + inserts.len()) as u64, cost)
    }

    /// Materialize the selected payload columns of every live row with key
    /// `v` (HAP Q1): the main-column matches no tombstone hides, then the
    /// surviving buffered inserts.
    pub fn point_rows(&self, v: K, cols: &[usize]) -> (Vec<Vec<u32>>, OpCost) {
        let (main, inserts, cost) = self.point_probe(v);
        let mut rows: Vec<Vec<u32>> = main.map(|pos| self.main.gather_row(pos, cols)).collect();
        for i in inserts {
            let row = self.buffered_row(i);
            rows.push(cols.iter().map(|&c| row[c]).collect());
        }
        (rows, cost)
    }

    /// Count of live rows in `[lo, hi)`.
    pub fn range_count(&self, lo: K, hi: K) -> (u64, OpCost) {
        let (n, mut cost) = self.main.range_count(lo, hi);
        let dr = self.delta_range(lo, hi);
        self.charge_delta_probe(dr.len(), &mut cost);
        let (inserts, hidden) = self.net(dr);
        let count = (n as usize).saturating_sub(hidden.len()) + inserts.len();
        (count as u64, cost)
    }

    /// Sum payload columns over `[lo, hi)`.
    pub fn range_sum_payload(&self, lo: K, hi: K, cols: &[usize]) -> (u64, OpCost) {
        let (sum, mut cost) = self.main.range_sum_payload(lo, hi, cols);
        let dr = self.delta_range(lo, hi);
        self.charge_delta_probe(dr.len(), &mut cost);
        let correction =
            self.replay_sum(dr, |attr| cols.iter().map(|&c| i128::from(attr(c))).sum());
        ((sum as i128 + correction).max(0) as u64, cost)
    }

    /// Signed correction that the delta buffer contributes to a
    /// predicate-filtered payload sum over keys in `[lo, hi)` (the §6.4
    /// multi-column scan): surviving buffered inserts add their payload
    /// and hidden main rows subtract theirs, when the predicate passes.
    pub fn replay_sum_where(
        &self,
        lo: K,
        hi: K,
        sum_cols: &[usize],
        pred_col: usize,
        pred_lo: u32,
        pred_hi: u32,
    ) -> i128 {
        self.replay_sum(self.delta_range(lo, hi), |attr| {
            if (pred_lo..pred_hi).contains(&attr(pred_col)) {
                sum_cols.iter().map(|&c| i128::from(attr(c))).sum()
            } else {
                0
            }
        })
    }

    /// `+value(row)` for every surviving buffered insert in `dr` and
    /// `-value(row)` for every main row its tombstones hide; `value` reads
    /// a row's attributes through the accessor it is handed.
    fn replay_sum(
        &self,
        dr: std::ops::Range<usize>,
        value: impl Fn(&dyn Fn(usize) -> u32) -> i128,
    ) -> i128 {
        let (inserts, hidden) = self.net(dr);
        let added: i128 = inserts
            .into_iter()
            .map(|i| value(&|c| self.buffered_row(i)[c]))
            .sum();
        let removed: i128 = self
            .hidden_positions(&hidden)
            .map(|pos| value(&|c| self.main.payload(c, pos)))
            .sum();
        added - removed
    }

    /// Ordered insertion into the sorted buffer: the shift that keeps the
    /// delta cheap to read is the write cost delta stores hide in their
    /// appends.
    fn buffer(&mut self, k: K, op: DeltaOp) -> OpCost {
        let pos = self.delta_keys.partition_point(|&x| x <= k);
        let moved = self.delta_keys.len() - pos;
        self.delta_keys.insert(pos, k);
        self.delta_ops.insert(pos, op);
        let mut cost = OpCost {
            random_writes: 1,
            ..Default::default()
        };
        cost.seq_writes += (moved.div_ceil(self.values_per_block)) as u64;
        cost
    }

    /// Buffer an insert; merges when the delta is full.
    pub fn insert(&mut self, v: K, payload: &[u32]) -> OpCost {
        let mut cost = self.buffer(v, DeltaOp::Insert(payload.to_vec()));
        cost.absorb(self.maybe_merge());
        cost
    }

    /// Buffer a delete.
    pub fn delete(&mut self, v: K) -> OpCost {
        let mut cost = self.buffer(v, DeltaOp::Delete);
        cost.absorb(self.maybe_merge());
        cost
    }

    /// Remove one live row equal to `v` and return its full payload row:
    /// the row the tombstone buffered here hides — the most recent
    /// surviving buffered insert of `v`, else the first main-column row no
    /// earlier tombstone hides — so the row that moves and the row that
    /// disappears are the same row.
    pub fn take_one(&mut self, v: K) -> (Option<Vec<u32>>, OpCost) {
        let (main, inserts, mut cost) = self.point_probe(v);
        let row = match (inserts.last(), main.start) {
            (Some(&i), _) => self.buffered_row(i).to_vec(),
            (None, pos) if pos < main.end => (0..self.payload_width)
                .map(|c| self.main.payload(c, pos))
                .collect(),
            _ => return (None, cost),
        };
        cost.absorb(self.delete(v));
        (Some(row), cost)
    }

    fn maybe_merge(&mut self) -> OpCost {
        if self.delta_keys.len() < self.capacity {
            return OpCost::default();
        }
        self.force_merge()
    }

    /// Merge the delta into the main column immediately.
    pub fn force_merge(&mut self) -> OpCost {
        let (surviving, deletes) = self.net(0..self.delta_keys.len());
        let inserts = surviving
            .into_iter()
            .map(|i| (self.delta_keys[i], self.buffered_row(i).to_vec()))
            .collect();
        self.delta_keys.clear();
        self.delta_ops.clear();
        self.merges += 1;
        self.main.merge(inserts, &deletes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd() -> SortedDelta<u64> {
        SortedDelta::build((1..=8).collect(), Vec::new(), 2, 4)
    }

    #[test]
    fn reads_see_buffered_writes() {
        let mut d = sd();
        d.insert(100, &[]);
        assert_eq!(d.point_count(100).0, 1);
        assert_eq!(d.range_count(50, 200).0, 1);
        d.delete(3);
        assert_eq!(d.point_count(3).0, 0);
        assert_eq!(d.range_count(1, 9).0, 7);
    }

    #[test]
    fn merge_triggers_at_capacity() {
        let mut d = sd();
        d.insert(10, &[]);
        d.insert(11, &[]);
        d.insert(12, &[]);
        assert_eq!(d.merge_count(), 0);
        d.insert(13, &[]); // 4th op hits capacity
        assert_eq!(d.merge_count(), 1);
        assert_eq!(d.delta_len(), 0);
        assert_eq!(d.main().len(), 12);
        assert_eq!(d.point_count(12).0, 1);
    }

    #[test]
    fn update_moves_value() {
        // Q6 on a delta store is take-row → place-row.
        let mut d = sd();
        let (row, _) = d.take_one(5);
        d.insert(50, &row.expect("key 5 is live"));
        assert_eq!(d.point_count(5).0, 0);
        assert_eq!(d.point_count(50).0, 1);
        d.force_merge();
        assert!(d.main().values().contains(&50));
        assert!(!d.main().values().contains(&5));
    }

    /// A row still in the buffer moves with its own payload, and every
    /// read nets the cancelled insert out instead of charging a main row.
    #[test]
    fn take_one_of_a_buffered_row_returns_its_payload() {
        let mut d = SortedDelta::build(vec![1u64, 2, 3], vec![vec![10, 20, 30]], 2, 100);
        d.insert(9, &[90]);
        let (row, _) = d.take_one(9);
        assert_eq!(row, Some(vec![90]));
        assert_eq!(d.point_count(9).0, 0);
        assert_eq!(d.range_sum_payload(0, 100, &[0]).0, 60);
        d.insert(7, &row.unwrap());
        assert_eq!(d.point_rows(7, &[0]).0, vec![vec![90]]);
        assert_eq!(d.take_one(9).0, None);
    }

    /// Reads, the single-row take and the merge agree on which duplicate a
    /// tombstone hides: the first main-column row.
    #[test]
    fn tombstones_hide_main_duplicates_front_first() {
        let mut d = SortedDelta::build(vec![5u64, 5, 5], vec![vec![1, 2, 3]], 2, 100);
        assert_eq!(d.take_one(5).0, Some(vec![1]));
        assert_eq!(d.take_one(5).0, Some(vec![2]));
        assert_eq!(d.point_rows(5, &[0]).0, vec![vec![3]]);
        assert_eq!(d.range_sum_payload(0, 10, &[0]).0, 3);
        assert_eq!(d.replay_sum_where(0, 10, &[0], 0, 0, u32::MAX), -3);
        d.force_merge();
        assert_eq!(d.main().to_parts(), (vec![5], vec![vec![3]]));
    }

    #[test]
    fn len_estimate_tracks_ops() {
        let mut d = sd();
        assert_eq!(d.len_estimate(), 8);
        d.insert(9, &[]);
        d.delete(1);
        assert_eq!(d.len_estimate(), 8);
    }

    #[test]
    fn buffer_stays_sorted_and_insert_pays_shift() {
        let mut d = SortedDelta::build((1u64..=8).collect(), Vec::new(), 2, 1000);
        // Filling from the high end forces shifts for low keys.
        for k in (20..40u64).rev() {
            d.insert(k, &[]);
        }
        let c = d.insert(10, &[]); // must shift all 20 buffered entries
        assert!(
            c.seq_writes > 0,
            "ordered insertion must pay a shift: {c:?}"
        );
        assert!(d.delta_len() == 21);
        // Buffer sorted → range counting via binary search stays exact.
        assert_eq!(d.range_count(10, 40).0, 21);
    }

    #[test]
    fn deletes_hide_buffered_inserts_in_order() {
        let mut d = sd();
        d.insert(100, &[]);
        d.insert(100, &[]);
        d.delete(100);
        assert_eq!(d.point_count(100).0, 1);
        d.delete(100);
        assert_eq!(d.point_count(100).0, 0);
    }

    #[test]
    fn merge_cost_scales_with_main_size() {
        let mut small = SortedDelta::build((1..=8).collect::<Vec<u64>>(), Vec::new(), 2, 1);
        let mut large = SortedDelta::build((1..=80).collect::<Vec<u64>>(), Vec::new(), 2, 1);
        let cs = small.insert(0, &[]);
        let cl = large.insert(0, &[]);
        assert!(cl.seq_writes > cs.seq_writes, "merge must touch whole main");
    }

    #[test]
    fn range_sum_payload_accounts_for_delta() {
        let mut d = SortedDelta::build(vec![1u64, 2, 3], vec![vec![10, 20, 30]], 2, 100);
        d.insert(4, &[40]);
        d.delete(2);
        let (sum, _) = d.range_sum_payload(1, 5, &[0]);
        assert_eq!(sum, 10 + 30 + 40);
    }

    #[test]
    fn replay_sum_where_cancels_buffered_inserts() {
        let mut d = SortedDelta::build(vec![1u64, 2, 3], vec![vec![10, 20, 30]], 2, 100);
        d.insert(4, &[40]);
        d.delete(4); // cancels the buffered insert, not a main row
        let corr = d.replay_sum_where(0, 10, &[0], 0, 0, u32::MAX);
        assert_eq!(corr, 0);
    }
}

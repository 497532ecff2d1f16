//! Fully sorted column — the `Sorted` baseline of §7.
//!
//! State-of-the-art analytical engines "store columns either sorted based
//! on a sort key ... or following insertion order" (§2). [`SortedColumn`]
//! is the former without any write optimization: reads are fast (binary
//! search + contiguous scan) but every insert/delete must memmove the tail
//! of the column, which is what makes this layout collapse under hybrid
//! workloads (Fig. 12).

use crate::ops::OpCost;
use crate::value::ColumnValue;

/// `keys` and their row-aligned payload `cols` co-sorted by key, stably
/// (rows with equal keys keep their input order); `None` when the keys are
/// already sorted, which one pass decides, so sorted input is never copied.
pub fn sort_rows_by_key<K: Ord + Copy>(
    keys: &[K],
    cols: &[impl AsRef<[u32]>],
) -> Option<(Vec<K>, Vec<Vec<u32>>)> {
    if keys.is_sorted() {
        return None;
    }
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&i| keys[i]);
    let gather = |src: &[u32]| perm.iter().map(|&i| src[i]).collect();
    Some((
        perm.iter().map(|&i| keys[i]).collect(),
        cols.iter().map(|c| gather(c.as_ref())).collect(),
    ))
}

/// A dense, fully sorted column with slot-aligned payload columns.
#[derive(Debug, Clone)]
pub struct SortedColumn<K: ColumnValue> {
    data: Vec<K>,
    payload_cols: Vec<Vec<u32>>,
    /// Values per block, for cost accounting.
    values_per_block: usize,
}

impl<K: ColumnValue> SortedColumn<K> {
    /// Build from raw values (sorted internally) and optional payload
    /// columns, co-sorted by key ([`sort_rows_by_key`]).
    pub fn build(
        mut values: Vec<K>,
        mut payload_cols: Vec<Vec<u32>>,
        values_per_block: usize,
    ) -> Self {
        assert!(values_per_block > 0);
        for c in &payload_cols {
            assert_eq!(c.len(), values.len(), "payload column length mismatch");
        }
        if let Some((keys, cols)) = sort_rows_by_key(&values, &payload_cols) {
            (values, payload_cols) = (keys, cols);
        }
        Self {
            data: values,
            payload_cols,
            values_per_block,
        }
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sorted values.
    #[inline]
    pub fn values(&self) -> &[K] {
        &self.data
    }

    /// Heap bytes resident for the key column plus payload columns
    /// (allocated capacity).
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<K>()
            + self
                .payload_cols
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// Read one payload attribute.
    pub fn payload(&self, col: usize, pos: usize) -> u32 {
        self.payload_cols[col][pos]
    }

    /// Gather selected payload columns of one row (HAP Q1 projectivity).
    pub fn gather_row(&self, pos: usize, cols: &[usize]) -> Vec<u32> {
        cols.iter().map(|&c| self.payload_cols[c][pos]).collect()
    }

    /// Physically scan the block(s) spanning positions `[from, to)` with a
    /// tight loop — the engine reads at block granularity ("no further
    /// navigation structure within a block", §4.4), so even a sorted column
    /// consumes whole blocks after the zonemap probe.
    fn scan_blocks(&self, from: usize, to: usize, cost: &mut OpCost) {
        if self.data.is_empty() {
            cost.random_reads += 1;
            return;
        }
        let vpb = self.values_per_block;
        let from = from.min(self.data.len().saturating_sub(1));
        let to = to.clamp(from + 1, self.data.len());
        let b0 = from / vpb;
        let b1 = (to - 1) / vpb;
        let start = b0 * vpb;
        let end = ((b1 + 1) * vpb).min(self.data.len());
        let mut acc = 0u64;
        for &x in &self.data[start..end] {
            acc = acc.wrapping_add(x.to_ordered_u64());
        }
        std::hint::black_box(acc);
        cost.random_reads += 1;
        cost.seq_reads += (b1 - b0) as u64;
        cost.values_scanned += (end - start) as u64;
    }

    /// Point query: zonemap-style probe to the covering block, then a
    /// tight-loop scan of that block. Returns the contiguous index range of
    /// matches.
    pub fn point_query(&self, v: K) -> (std::ops::Range<usize>, OpCost) {
        let lo = self.data.partition_point(|&x| x < v);
        let hi = self.data.partition_point(|&x| x <= v);
        let mut cost = OpCost::default();
        cost.index_probes += 1;
        self.scan_blocks(lo, hi.max(lo + 1), &mut cost);
        (lo..hi, cost)
    }

    /// Range query over `[lo, hi)`; returns the qualifying index range.
    /// The first and last blocks of the range are physically filtered,
    /// mirroring the partitioned path.
    pub fn range_query(&self, lo: K, hi: K) -> (std::ops::Range<usize>, OpCost) {
        let a = self.data.partition_point(|&x| x < lo);
        let b = self.data.partition_point(|&x| x < hi);
        let mut cost = OpCost::default();
        cost.index_probes += 1;
        // Filter the boundary blocks.
        self.scan_blocks(a, a + 1, &mut cost);
        if b > a {
            self.scan_blocks(b - 1, b, &mut cost);
            cost.seq_reads += (b - a).div_ceil(self.values_per_block) as u64;
        }
        cost.values_scanned += (b - a) as u64;
        (a..b, cost)
    }

    /// Count rows in `[lo, hi)`.
    pub fn range_count(&self, lo: K, hi: K) -> (u64, OpCost) {
        let (r, c) = self.range_query(lo, hi);
        (r.len() as u64, c)
    }

    /// Sum payload columns over `[lo, hi)`.
    pub fn range_sum_payload(&self, lo: K, hi: K, cols: &[usize]) -> (u64, OpCost) {
        let (r, mut cost) = self.range_query(lo, hi);
        let mut sum = 0u64;
        for &c in cols {
            sum += self.payload_cols[c][r.clone()]
                .iter()
                .map(|&v| u64::from(v))
                .sum::<u64>();
        }
        cost.seq_reads += (cols.len() * r.len().div_ceil(self.values_per_block)) as u64;
        (sum, cost)
    }

    /// Insert preserving sort order: a `memmove` of everything after the
    /// insertion point — the cost that delta stores exist to avoid.
    pub fn insert(&mut self, v: K, payload: &[u32]) -> OpCost {
        assert_eq!(payload.len(), self.payload_cols.len(), "payload arity");
        let pos = self.data.partition_point(|&x| x < v);
        let moved = self.data.len() - pos;
        self.data.insert(pos, v);
        for (c, &pv) in self.payload_cols.iter_mut().zip(payload) {
            c.insert(pos, pv);
        }
        OpCost {
            random_writes: 1,
            seq_writes: moved.div_ceil(self.values_per_block) as u64,
            ..OpCost::default()
        }
    }

    /// Delete all values equal to `v`, compacting the column.
    pub fn delete(&mut self, v: K) -> (u64, OpCost) {
        let (r, mut cost) = self.point_query(v);
        let removed = r.len();
        if removed > 0 {
            let moved = self.data.len() - r.end;
            self.data.drain(r.clone());
            for c in &mut self.payload_cols {
                c.drain(r.clone());
            }
            cost.random_writes += 1;
            cost.seq_writes += moved.div_ceil(self.values_per_block) as u64;
        }
        (removed as u64, cost)
    }

    /// Remove the first value equal to `v` and return its full payload row
    /// — the single-row counterpart of [`SortedColumn::delete`] (which
    /// drains every match), used when a row migrates to another chunk.
    pub fn take_one(&mut self, v: K) -> (Option<Vec<u32>>, OpCost) {
        let (r, mut cost) = self.point_query(v);
        if r.is_empty() {
            return (None, cost);
        }
        let pos = r.start;
        let row: Vec<u32> = self.payload_cols.iter().map(|c| c[pos]).collect();
        let moved = self.data.len() - pos;
        self.data.remove(pos);
        for c in &mut self.payload_cols {
            c.remove(pos);
        }
        cost.random_writes += 1;
        cost.seq_writes += moved.div_ceil(self.values_per_block) as u64;
        (Some(row), cost)
    }

    /// Bulk-merge sorted `(key, payload-row)` pairs and remove keys in
    /// `deletes` — the delta-merge primitive used by [`crate::SortedDelta`].
    pub fn merge(&mut self, mut inserts: Vec<(K, Vec<u32>)>, deletes: &[K]) -> OpCost {
        let mut cost = OpCost::default();
        // One sequential pass over the whole column (re-sort merge).
        cost.seq_reads = self.len().div_ceil(self.values_per_block) as u64;
        cost.seq_writes = cost.seq_reads;
        inserts.sort_by_key(|(k, _)| *k);
        let mut delete_multiset: std::collections::BTreeMap<K, usize> =
            std::collections::BTreeMap::new();
        for &d in deletes {
            *delete_multiset.entry(d).or_default() += 1;
        }
        let old_data = std::mem::take(&mut self.data);
        let old_payload = std::mem::take(&mut self.payload_cols);
        let width = old_payload.len();
        let mut new_data = Vec::with_capacity(old_data.len() + inserts.len());
        let mut new_payload: Vec<Vec<u32>> = (0..width)
            .map(|_| Vec::with_capacity(old_data.len() + inserts.len()))
            .collect();
        let mut ins = inserts.into_iter().peekable();
        for (i, k) in old_data.iter().copied().enumerate() {
            while ins.peek().is_some_and(|(ik, _)| *ik <= k) {
                let (ik, row) = ins.next().expect("peeked");
                new_data.push(ik);
                for (c, v) in new_payload.iter_mut().zip(&row) {
                    c.push(*v);
                }
            }
            if let Some(cnt) = delete_multiset.get_mut(&k) {
                if *cnt > 0 {
                    *cnt -= 1;
                    continue;
                }
            }
            new_data.push(k);
            for (c, col) in new_payload.iter_mut().zip(&old_payload) {
                c.push(col[i]);
            }
        }
        for (ik, row) in ins {
            new_data.push(ik);
            for (c, v) in new_payload.iter_mut().zip(&row) {
                c.push(*v);
            }
        }
        self.data = new_data;
        self.payload_cols = new_payload;
        cost
    }

    /// Clone out keys and payload columns.
    pub fn to_parts(&self) -> (Vec<K>, Vec<Vec<u32>>) {
        (self.data.clone(), self.payload_cols.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> SortedColumn<u64> {
        SortedColumn::build(vec![5, 1, 9, 3, 7], Vec::new(), 2)
    }

    #[test]
    fn build_sorts() {
        let c = col();
        assert_eq!(c.values(), &[1, 3, 5, 7, 9]);
    }

    #[test]
    fn rows_co_sort_stably_and_sorted_rows_stay_put() {
        // 256 rows over 4 keys, the row number as payload: equal keys
        // must keep their rows in input order.
        let keys: Vec<u64> = (0..256).map(|i| (i * 7 + i / 5) % 4).collect();
        let rows: Vec<u32> = (0..256).collect();
        let (sorted, cols) = sort_rows_by_key(&keys, &[&rows]).unwrap();
        let mut want: Vec<(u64, u32)> = keys.iter().copied().zip(rows).collect();
        want.sort();
        assert_eq!(sorted, want.iter().map(|w| w.0).collect::<Vec<_>>());
        assert_eq!(cols, [want.iter().map(|w| w.1).collect::<Vec<_>>()]);
        assert!(sort_rows_by_key(&[1u64, 1, 2], &[[5u32, 4, 3]]).is_none());
    }

    #[test]
    fn point_query_finds_range_of_duplicates() {
        let c = SortedColumn::build(vec![2u64, 2, 2, 1, 3], Vec::new(), 2);
        let (r, _) = c.point_query(2);
        assert_eq!(r, 1..4);
        let (r, _) = c.point_query(4);
        assert!(r.is_empty());
    }

    #[test]
    fn range_query_half_open() {
        let c = col();
        let (r, _) = c.range_query(3, 9);
        assert_eq!(&c.values()[r], &[3, 5, 7]);
        assert_eq!(c.range_count(0, 100).0, 5);
    }

    #[test]
    fn insert_keeps_order_and_charges_memmove() {
        let mut c = col();
        let cost = c.insert(4, &[]);
        assert_eq!(c.values(), &[1, 3, 4, 5, 7, 9]);
        // Three values (5,7,9) moved → 2 blocks of 2.
        assert_eq!(cost.seq_writes, 2);
    }

    #[test]
    fn delete_compacts() {
        let mut c = SortedColumn::build(vec![1u64, 2, 2, 3], Vec::new(), 2);
        let (n, _) = c.delete(2);
        assert_eq!(n, 2);
        assert_eq!(c.values(), &[1, 3]);
    }

    #[test]
    fn update_moves_value_with_payload() {
        // Q6 on a sorted column is take-row → place-row.
        let mut c = SortedColumn::build(vec![1u64, 2, 3], vec![vec![10, 20, 30]], 2);
        let (row, _) = c.take_one(2);
        c.insert(9, &row.expect("key 2 is live"));
        assert_eq!(c.values(), &[1, 3, 9]);
        assert_eq!(c.payload(0, 2), 20); // payload followed the key
    }

    #[test]
    fn merge_applies_inserts_and_deletes_in_order() {
        let mut c = SortedColumn::build(vec![1u64, 3, 5, 7], vec![vec![1, 3, 5, 7]], 2);
        c.merge(vec![(4, vec![4]), (0, vec![0]), (9, vec![9])], &[3, 7]);
        assert_eq!(c.values(), &[0, 1, 4, 5, 9]);
        let pays: Vec<u32> = (0..5).map(|i| c.payload(0, i)).collect();
        assert_eq!(pays, vec![0, 1, 4, 5, 9]);
    }

    #[test]
    fn merge_deletes_respect_multiplicity() {
        let mut c = SortedColumn::build(vec![2u64, 2, 2], Vec::new(), 2);
        c.merge(Vec::new(), &[2]);
        assert_eq!(c.values(), &[2, 2]);
        c.merge(Vec::new(), &[2, 2, 2]);
        assert!(c.is_empty());
    }
}

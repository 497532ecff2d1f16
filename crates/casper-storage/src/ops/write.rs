//! Write operations: insert, delete, update (§3, Fig. 4, Fig. 5).
//!
//! A row enters or leaves a partition through exactly two private
//! primitives, both built on the chunk's slot-transfer ripples:
//!
//! * **`find_first` → `remove_first`** takes one row out. `find_first` is
//!   the embedded point query (§4.4): one bounds probe plus a full scan of
//!   the covering partition, charged as such, returning the first live
//!   match in slot order. The scan runs on the read path's SIMD kernels
//!   (the key lane's `first_eq`, which stops at the first matching
//!   sub-chunk).
//!   `remove_first` *returns the row's full payload*, swap-fills the slot
//!   with the partition's last live row (one `move_slot`: a random read and
//!   a random write; a lone random write when the match is already last),
//!   and books the freed slot as a ghost of the source partition. Its
//!   covering bounds stay as they were: they only ever widen. Gathering
//!   the row is not charged, like the payload half of `move_slot`.
//! * **`place`** puts one row in: key and payload row are written into an
//!   already-acquired free slot (one random write), the partition's live
//!   length grows and its covering bounds widen to include it. It is the
//!   only write-path code that stores a payload row, so a row that
//!   `remove_first` handed out cannot reach a slot without its payload.
//!
//! The three operations are compositions of those:
//!
//! * **insert** — `acquire_slot` (a local ghost when one exists; otherwise
//!   ripple a slot in from the nearest donor under the ghost policy, or
//!   from the column tail under the dense policy) → `place`.
//! * **delete** — point-query the target partition (the key lane's
//!   `select_eq_into` collects the matching slots), swap-fill
//!   *every* match out of the live region in ascending slot order, then
//!   either leave the freed slots as ghosts (ghost policy) or ripple each
//!   hole out to the tail (dense).
//! * **update** — `find_first(old)`; inside one partition the key is
//!   overwritten in place, otherwise `remove_first` → a slot from the
//!   target's own ghosts or a *direct* ripple from source to target,
//!   forward or backward (the paper's optimization over
//!   delete-then-insert) → `place` with the carried row.
//! * **take_one** — `find_first` → `remove_first`, then the dense policy's
//!   hole-to-tail ripple: the source half of a move between chunks.

use crate::chunk::{DonorSide, PartitionedChunk};
use crate::error::StorageError;
use crate::ops::OpCost;
use crate::value::ColumnValue;
use crate::UpdatePolicy;

/// Result of a write operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteResult {
    /// Rows affected (0 when a delete/update found no match).
    pub affected: u64,
    /// Access pattern performed.
    pub cost: OpCost,
    /// Partitions whose contents were touched (source..=target span for
    /// ripples); used by the engine for contention accounting.
    pub partitions_touched: u64,
}

impl<K: ColumnValue> PartitionedChunk<K> {
    /// Insert `v` (with an optional payload row — pass `&[]` for key-only
    /// chunks).
    pub fn insert(&mut self, v: K, payload: &[u32]) -> Result<WriteResult, StorageError> {
        if !self.payloads.is_empty() && payload.len() != self.payloads.width() {
            return Err(StorageError::PayloadArity {
                expected: self.payloads.width(),
                got: payload.len(),
            });
        }
        let mut cost = OpCost::default();
        let m = self.locate(v, &mut cost);
        let slot = self.acquire_slot(m, &mut cost)?;
        self.place(m, slot, v, payload, &mut cost);
        Ok(WriteResult {
            affected: 1,
            cost,
            partitions_touched: 1,
        })
    }

    /// Write key `v` and its payload `row` into the free slot `slot`, which
    /// the caller acquired adjacent to partition `m`'s live region, and
    /// book it live: one random write; `m`'s bounds widen to cover `v`.
    fn place(&mut self, m: usize, slot: usize, v: K, row: &[u32], cost: &mut OpCost) {
        self.data.set(slot, v);
        if !self.payloads.is_empty() {
            self.payloads.set_row(slot, row);
        }
        self.stamp(slot);
        cost.random_writes += 1;
        self.parts[m].len += 1;
        self.live += 1;
        self.widen_bounds(m, v);
    }

    /// Acquire a free slot at the end of partition `m`'s live region,
    /// consuming a ghost or rippling one in. The returned slot is booked
    /// into the partition's live region boundary (caller increments `len`).
    fn acquire_slot(&mut self, m: usize, cost: &mut OpCost) -> Result<usize, StorageError> {
        let part = self.parts[m];
        // Fast path: the partition buffers its own ghost slot (Fig. 5) —
        // "inserts use empty slots".
        if part.ghosts > 0 {
            self.parts[m].ghosts -= 1;
            return Ok(part.live_end());
        }
        match self.config.policy {
            UpdatePolicy::Dense => {
                // Ripple from the column tail (Fig. 4a).
                if self.tail_free() == 0 {
                    return Err(StorageError::ChunkFull {
                        capacity: self.data.len(),
                    });
                }
                Ok(self.pull_slot_from_right(m, None, cost))
            }
            UpdatePolicy::Ghost => {
                // Nearest donor first; fall back to the tail. Fetch a block
                // of ghosts per §6.1 so neighbouring inserts benefit too.
                let fetch = self.config.ghost_fetch_block.max(1);
                match self.nearest_donor(m) {
                    Some(DonorSide::Right(j)) => {
                        // Pull up to `fetch` slots: the first feeds the
                        // insert, the rest accumulate as ghosts of `m` so
                        // neighbouring inserts avoid future ripples.
                        let available = self.parts[j].ghosts.min(fetch);
                        let first = self.pull_slot_from_right(m, Some(j), cost);
                        for _ in 1..available {
                            // Book the previous hole as a ghost of `m`
                            // before pulling the next one so the extents
                            // stay consistent.
                            self.parts[m].ghosts += 1;
                            self.pull_slot_from_right(m, Some(j), cost);
                        }
                        Ok(first)
                    }
                    Some(DonorSide::Left(j)) => {
                        // Left donors hand over exactly one slot: the hole
                        // arrives immediately *before* the live region, so
                        // the partition extends leftwards and the new value
                        // is written at its new first slot (partitions are
                        // internally unordered). Block prefetch is a
                        // forward-only optimization.
                        let hole = self.pull_slot_from_left(m, j, cost);
                        self.parts[m].start = hole;
                        Ok(hole)
                    }
                    None => {
                        if self.tail_free() == 0 {
                            return Err(StorageError::ChunkFull {
                                capacity: self.data.len(),
                            });
                        }
                        Ok(self.pull_slot_from_right(m, None, cost))
                    }
                }
            }
        }
    }

    /// Ensure the partition covering `v` buffers at least `count` ghost
    /// slots, pulling them from the nearest donors (or the tail).
    ///
    /// This is the decoupled ghost rippling of §6.1: "we decouple the ghost
    /// value rippling from the transaction since it does not affect
    /// correctness. Hence, even if a transaction is rolled back, the
    /// already completed fetching of ghost values will persist."
    ///
    /// Ghosts are the ghost policy's buffer: a [`UpdatePolicy::Dense`]
    /// chunk keeps none (its ripples assume every partition is dense), so
    /// there the prefetch is a no-op that moves no slot and costs nothing.
    pub fn prefetch_ghosts(&mut self, v: K, count: usize) -> OpCost {
        let mut cost = OpCost::default();
        if self.config.policy == UpdatePolicy::Dense {
            return cost;
        }
        let m = self.locate(v, &mut cost);
        while self.parts[m].ghosts < count {
            match self.nearest_donor(m) {
                Some(DonorSide::Right(j)) if j != m => {
                    self.pull_slot_from_right(m, Some(j), &mut cost);
                    self.parts[m].ghosts += 1;
                }
                Some(DonorSide::Left(j)) if j != m => {
                    let hole = self.pull_slot_from_left(m, j, &mut cost);
                    // The hole lands in front of the live region: rotate one
                    // live value into it so the ghost sits at the end, where
                    // the layout keeps buffer slots.
                    let part = self.parts[m];
                    if part.len > 0 {
                        self.move_slot(part.live_end() - 1, hole, &mut cost);
                    }
                    self.parts[m].start -= 1;
                    self.parts[m].ghosts += 1;
                }
                _ => {
                    if self.tail_free() == 0 {
                        break; // physically out of space: prefetch is best-effort
                    }
                    self.pull_slot_from_right(m, None, &mut cost);
                    self.parts[m].ghosts += 1;
                }
            }
        }
        cost
    }

    /// Delete every live value equal to `v`. Returns the number of rows
    /// removed (`del_card` in the paper's cost analysis).
    pub fn delete(&mut self, v: K) -> WriteResult {
        let mut cost = OpCost::default();
        let m = self.locate(v, &mut cost);
        // The embedded point query (§4.4: "a delete requires a point
        // query").
        self.charge_partition_scan(m, &mut cost);
        let part = self.parts[m];
        let mut removed = 0usize;
        if part.len > 0 && part.covers(v) {
            let mut hits = Vec::new();
            self.data
                .select_eq_into(part.start..part.live_end(), v, &mut hits);
            // Swap-fill matches out of the live region (Fig. 4b: deleted
            // slots move to the end of the partition). Only the current
            // hit's slot is ever overwritten, so every later hit below the
            // shrinking live end still holds `v`; hits at or past it have
            // already been pulled into an earlier hole.
            let mut live_end = part.live_end();
            for pos in hits {
                if pos >= live_end {
                    break;
                }
                loop {
                    live_end -= 1;
                    removed += 1;
                    if pos == live_end {
                        cost.random_writes += 1;
                        break;
                    }
                    self.move_slot(live_end, pos, &mut cost);
                    // The row pulled in from the tail may match as well.
                    if self.data.get(pos) != v {
                        break;
                    }
                }
            }
        }
        if removed == 0 {
            return WriteResult {
                affected: 0,
                cost,
                partitions_touched: 1,
            };
        }
        self.parts[m].len -= removed;
        self.parts[m].ghosts += removed;
        self.live -= removed;
        let mut partitions_touched = 1u64;
        if self.config.policy == UpdatePolicy::Dense {
            // Ripple every hole out to the column tail to restore density.
            for _ in 0..removed {
                self.push_slot_to_tail(m, &mut cost);
            }
            partitions_touched += (self.parts.len() - 1 - m) as u64;
        }
        WriteResult {
            affected: removed as u64,
            cost,
            partitions_touched,
        }
    }

    /// The point query embedded in Q6 and in a single-row take (§4.4):
    /// probe the bounds for `v`'s partition, scan it, and return it with the
    /// slot of the first live match.
    fn find_first(&self, v: K, cost: &mut OpCost) -> (usize, Option<usize>) {
        let m = self.locate(v, cost);
        self.charge_partition_scan(m, cost);
        let part = self.parts[m];
        let mut found = None;
        if part.len > 0 && part.covers(v) {
            found = self.data.first_eq(part.start..part.live_end(), v);
        }
        (m, found)
    }

    /// Take the row `find_first` found at slot `pos` of partition `m` out
    /// of the live region and return its full payload row: the last live
    /// row is swapped into its place (the (RR + 2RW) fixed term of
    /// Eq. 12), the freed slot at the live boundary becomes a ghost of
    /// `m`.
    fn remove_first(&mut self, m: usize, pos: usize, cost: &mut OpCost) -> Vec<u32> {
        let row = self.payloads.row(pos);
        let last = self.parts[m].live_end() - 1;
        if pos != last {
            self.move_slot(last, pos, cost);
        } else {
            cost.random_writes += 1;
        }
        self.parts[m].len -= 1;
        self.parts[m].ghosts += 1;
        self.live -= 1;
        row
    }

    /// Update the first live value equal to `old` to become `new` — the
    /// direct ripple update of §3 ("the shallow index is probed twice to
    /// find the source and the destination partitions, followed by a direct
    /// ripple update between these two partitions"). The row's payload
    /// moves with it.
    pub fn update(&mut self, old: K, new: K) -> Result<WriteResult, StorageError> {
        let mut cost = OpCost::default();
        let (m, found) = self.find_first(old, &mut cost);
        let Some(pos) = found else {
            return Ok(WriteResult {
                affected: 0,
                cost,
                partitions_touched: 1,
            });
        };
        let t = self.locate(new, &mut cost);
        if t == m {
            // Same partition: overwrite in place (unordered internally).
            self.data.set(pos, new);
            self.stamp(pos);
            cost.random_writes += 1;
            self.widen_bounds(m, new);
            return Ok(WriteResult {
                affected: 1,
                cost,
                partitions_touched: 1,
            });
        }
        let row = self.remove_first(m, pos, &mut cost);
        let slot = match self.config.policy {
            UpdatePolicy::Ghost if self.parts[t].ghosts > 0 => {
                // Both sides buffered: no ripple at all (the contention
                // reduction §6.1 highlights).
                self.parts[t].ghosts -= 1;
                self.parts[t].live_end()
            }
            _ => {
                // Direct ripple between source and target, consuming the
                // surplus slot the removal just left in `m`.
                if t > m {
                    let hole = self.pull_slot_from_left(t, m, &mut cost);
                    self.parts[t].start = hole;
                    hole
                } else {
                    self.pull_slot_from_right(t, Some(m), &mut cost)
                }
            }
        };
        self.place(t, slot, new, &row, &mut cost);
        Ok(WriteResult {
            affected: 1,
            cost,
            partitions_touched: (m.abs_diff(t) + 1) as u64,
        })
    }

    /// Remove the first live row equal to `v` and return its full payload
    /// row — the source half of a move between chunks. First match only
    /// (unlike [`PartitionedChunk::delete`], which drains every match), so
    /// the move affects exactly one row even under duplicate keys.
    pub fn take_one(&mut self, v: K) -> (Option<Vec<u32>>, WriteResult) {
        let mut cost = OpCost::default();
        let (m, found) = self.find_first(v, &mut cost);
        let Some(pos) = found else {
            return (
                None,
                WriteResult {
                    affected: 0,
                    cost,
                    partitions_touched: 1,
                },
            );
        };
        let row = self.remove_first(m, pos, &mut cost);
        let mut partitions_touched = 1u64;
        if self.config.policy == UpdatePolicy::Dense {
            self.push_slot_to_tail(m, &mut cost);
            partitions_touched += (self.parts.len() - 1 - m) as u64;
        }
        (
            Some(row),
            WriteResult {
                affected: 1,
                cost,
                partitions_touched,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkConfig;
    use crate::layout::{BlockLayout, ChunkLayout, PartitionSpec};

    fn tiny_layout() -> BlockLayout {
        BlockLayout {
            block_bytes: 16,
            value_width: 8,
        } // 2 values per block
    }

    fn build(
        values: Vec<u64>,
        sizes: &[usize],
        ghosts: &[usize],
        config: ChunkConfig,
    ) -> PartitionedChunk<u64> {
        PartitionedChunk::build(
            values,
            &ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(sizes), ghosts.to_vec()),
            tiny_layout(),
            config,
        )
        .unwrap()
    }

    fn all_values(c: &PartitionedChunk<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = (0..c.partition_count())
            .flat_map(|p| c.partition_values(p).to_vec())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_with_local_ghost_is_one_write() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0, 1, 0, 0],
            ChunkConfig::default(),
        );
        let r = c.insert(4, &[]).unwrap(); // partition 1 covers 3..=4
        assert_eq!(r.affected, 1);
        assert_eq!(r.cost.random_writes, 1);
        assert_eq!(r.cost.random_reads, 0);
        assert_eq!(c.live_len(), 9);
        assert_eq!(c.ghost_total(), 0);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn insert_dense_ripples_from_tail() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0; 4],
            ChunkConfig::dense(),
        );
        let r = c.insert(3, &[]).unwrap(); // partition 1
                                           // Partitions 2 and 3 shift (2 moves) + the value write.
        assert_eq!(r.cost.random_writes, 3);
        assert_eq!(c.live_len(), 9);
        assert_eq!(all_values(&c), vec![1, 2, 3, 3, 4, 5, 6, 7, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn insert_ghost_policy_uses_nearest_donor() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0, 0, 1, 0],
            ChunkConfig::default(),
        );
        let r = c.insert(1, &[]).unwrap(); // partition 0; donor is partition 2
                                           // Ripple over partitions 1 and 2 (2 moves) + value write.
        assert_eq!(r.cost.random_writes, 3);
        assert_eq!(c.ghost_total(), 0);
        assert_eq!(all_values(&c), vec![1, 1, 2, 3, 4, 5, 6, 7, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn insert_ghost_policy_left_donor() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[1, 0, 0, 0],
            ChunkConfig::default(),
        );
        let r = c.insert(8, &[]).unwrap(); // partition 3; donor partition 0
        assert_eq!(r.affected, 1);
        assert_eq!(c.ghost_total(), 0);
        assert_eq!(all_values(&c), vec![1, 2, 3, 4, 5, 6, 7, 8, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn insert_new_maximum_extends_last_partition() {
        let mut c = build((1..=8).collect(), &[2, 2], &[0, 1], ChunkConfig::default());
        c.insert(1000, &[]).unwrap();
        let r = c.point_query(1000);
        assert_eq!(r.positions.len(), 1);
        assert_eq!(r.partition, 1);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn insert_below_minimum_goes_to_first_partition() {
        let mut c = build(
            (10..=17).collect(),
            &[2, 2],
            &[1, 0],
            ChunkConfig::default(),
        );
        c.insert(1, &[]).unwrap();
        let r = c.point_query(1);
        assert_eq!(r.positions.len(), 1);
        assert_eq!(r.partition, 0);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn insert_until_full_errors() {
        let mut c = build((1..=8).collect(), &[2, 2], &[0, 0], ChunkConfig::dense());
        let mut inserted = 0;
        loop {
            match c.insert(4, &[]) {
                Ok(_) => inserted += 1,
                Err(StorageError::ChunkFull { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(inserted < 10_000, "chunk never filled");
        }
        assert_eq!(c.live_len(), 8 + inserted);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn delete_ghost_policy_leaves_ghosts() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0; 4],
            ChunkConfig::default(),
        );
        let r = c.delete(5);
        assert_eq!(r.affected, 1);
        assert_eq!(c.live_len(), 7);
        assert_eq!(c.ghost_total(), 1);
        assert_eq!(c.parts[2].ghosts, 1);
        assert!(c.point_query(5).positions.is_empty());
        c.validate_invariants().unwrap();
    }

    #[test]
    fn delete_dense_ripples_to_tail() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0; 4],
            ChunkConfig::dense(),
        );
        let before_tail = c.tail_free();
        let r = c.delete(3); // partition 1: two trailing partitions shift
        assert_eq!(r.affected, 1);
        assert_eq!(c.ghost_total(), 0);
        assert_eq!(c.tail_free(), before_tail + 1);
        assert_eq!(all_values(&c), vec![1, 2, 4, 5, 6, 7, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn delete_multiple_matches() {
        let mut c = build(
            vec![5, 5, 5, 1, 2, 3, 9, 9],
            &[2, 2],
            &[0, 0],
            ChunkConfig::default(),
        );
        let r = c.delete(5);
        assert_eq!(r.affected, 3);
        assert_eq!(c.live_len(), 5);
        assert!(c.point_query(5).positions.is_empty());
        c.validate_invariants().unwrap();
        // Deleting every value of a partition leaves it empty with its
        // bounds kept; it keeps answering reads and takes inserts again.
        let mut c = build((1..=16).collect(), &[4, 4], &[0, 0], ChunkConfig::default());
        for v in 1..=8u64 {
            assert_eq!(c.delete(v).affected, 1);
        }
        assert_eq!(c.parts[0].len, 0);
        assert_eq!((c.parts[0].min, c.parts[0].max), (1, 8));
        c.validate_invariants().unwrap();
        assert_eq!(c.range_count(0, 100).0, 8);
        assert!(c.point_query(3).positions.is_empty());
        c.insert(4, &[]).unwrap();
        assert_eq!(c.point_query(4).positions.len(), 1);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn delete_missing_value_is_noop_with_cost() {
        let mut c = build((1..=8).collect(), &[2, 2], &[0, 0], ChunkConfig::default());
        let r = c.delete(100);
        assert_eq!(r.affected, 0);
        assert!(r.cost.values_scanned > 0);
        assert_eq!(c.live_len(), 8);
    }

    #[test]
    fn update_same_partition_in_place() {
        let mut c = build((1..=8).collect(), &[2, 2], &[0, 0], ChunkConfig::default());
        let r = c.update(3, 4).unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(r.partitions_touched, 1);
        assert_eq!(all_values(&c), vec![1, 2, 4, 4, 5, 6, 7, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn update_forward_ripple_dense() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0; 4],
            ChunkConfig::dense(),
        );
        // 1 lives in partition 0; 8 maps to partition 3 → forward ripple.
        let r = c.update(1, 8).unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(r.partitions_touched, 4);
        assert_eq!(all_values(&c), vec![2, 3, 4, 5, 6, 7, 8, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn update_backward_ripple_dense() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0; 4],
            ChunkConfig::dense(),
        );
        let r = c.update(8, 1).unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(r.partitions_touched, 4);
        assert_eq!(all_values(&c), vec![1, 1, 2, 3, 4, 5, 6, 7]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn update_ghost_both_sides_avoids_ripple() {
        let mut c = build(
            (1..=8).collect(),
            &[1, 1, 1, 1],
            &[0, 0, 0, 1],
            ChunkConfig::default(),
        );
        let r = c.update(1, 8).unwrap();
        assert_eq!(r.affected, 1);
        // Swap-out write + value write only; no ripple moves.
        assert!(r.cost.random_writes <= 2, "cost was {:?}", r.cost);
        assert_eq!(c.parts[0].ghosts, 1); // source gained a ghost
        assert_eq!(c.parts[3].ghosts, 0); // target consumed its ghost
        assert_eq!(all_values(&c), vec![2, 3, 4, 5, 6, 7, 8, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn update_missing_value_is_noop() {
        let mut c = build((1..=8).collect(), &[2, 2], &[0, 0], ChunkConfig::default());
        let r = c.update(100, 1).unwrap();
        assert_eq!(r.affected, 0);
        assert_eq!(c.live_len(), 8);
    }

    #[test]
    fn insert_with_payload_row() {
        let mut c = PartitionedChunk::build_with_payloads(
            &(1..=8u64).collect::<Vec<_>>(),
            &[(1..=8).map(|k| (k * 10) as u32).collect::<Vec<u32>>()],
            &ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[2, 2]), vec![1, 1]),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        c.insert(3, &[35]).unwrap();
        let r = c.point_query(3);
        assert_eq!(r.positions.len(), 2);
        let vals: Vec<u32> = r
            .positions
            .iter()
            .map(|&p| c.payloads().get(0, p))
            .collect();
        assert!(vals.contains(&30) && vals.contains(&35));
    }

    #[test]
    fn payload_arity_checked_on_insert() {
        let mut c = PartitionedChunk::build_with_payloads(
            &(1..=4u64).collect::<Vec<_>>(),
            &[vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
            &ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[2]), vec![1]),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            c.insert(2, &[9]),
            Err(StorageError::PayloadArity { .. })
        ));
    }

    #[test]
    fn ghost_fetch_block_prefetches_slots() {
        let mut cfg = ChunkConfig::default();
        cfg.ghost_fetch_block = 3;
        let mut c = build((1..=8).collect(), &[1, 1, 1, 1], &[0, 0, 0, 4], cfg);
        c.insert(1, &[]).unwrap();
        // One slot consumed by the insert, two more prefetched as ghosts of
        // partition 0.
        assert_eq!(c.parts[0].ghosts, 2);
        assert_eq!(c.parts[3].ghosts, 1);
        assert_eq!(all_values(&c), vec![1, 1, 2, 3, 4, 5, 6, 7, 8]);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn interleaved_workload_preserves_multiset() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for &policy in &[UpdatePolicy::Ghost, UpdatePolicy::Dense] {
            let mut cfg = ChunkConfig::default();
            cfg.policy = policy;
            cfg.capacity_slack = 0.5;
            let ghosts = if policy == UpdatePolicy::Ghost {
                vec![2, 2, 2, 2]
            } else {
                vec![0, 0, 0, 0]
            };
            let mut c = build(
                (1..=32).map(|x| x * 10).collect(),
                &[4, 4, 4, 4],
                &ghosts,
                cfg,
            );
            let mut reference: Vec<u64> = (1..=32).map(|x| x * 10).collect();
            for _ in 0..300 {
                match rng.gen_range(0..4) {
                    0 => {
                        let v = rng.gen_range(0..400);
                        if c.insert(v, &[]).is_ok() {
                            reference.push(v);
                        }
                    }
                    1 => {
                        let v = rng.gen_range(0..400);
                        let r = c.delete(v);
                        for _ in 0..r.affected {
                            let idx = reference.iter().position(|&x| x == v).unwrap();
                            reference.swap_remove(idx);
                        }
                    }
                    2 => {
                        let old = rng.gen_range(0..400);
                        let new = rng.gen_range(0..400);
                        let r = c.update(old, new).unwrap();
                        if r.affected == 1 {
                            let idx = reference.iter().position(|&x| x == old).unwrap();
                            reference[idx] = new;
                        }
                    }
                    _ => {
                        let v = rng.gen_range(0..400);
                        let got = c.point_query(v).positions.len();
                        let want = reference.iter().filter(|&&x| x == v).count();
                        assert_eq!(got, want, "point query mismatch for {v}");
                    }
                }
                c.validate_invariants()
                    .unwrap_or_else(|e| panic!("invariant violated ({policy:?}): {e}"));
                let mut expect = reference.clone();
                expect.sort_unstable();
                assert_eq!(all_values(&c), expect);
            }
        }
    }

    /// Ghost prefetch is the ghost policy's buffer: on a dense chunk it
    /// moves no slot and books no ghost, so a later dense ripple can never
    /// book a stale ghost slot as live. Every live slot stays inside its
    /// partition's covering range through a mixed dense write stream.
    #[test]
    fn prefetch_on_a_dense_chunk_moves_nothing() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5050);
        let mut c = build(
            (0..1_000).map(|k| k * 10).collect(),
            &[100; 5],
            &[0; 5],
            ChunkConfig::dense(),
        );
        for step in 0..400 {
            let v = rng.gen_range(0..10_500u64);
            match rng.gen_range(0..4) {
                0 => {
                    let slots = c.copy_slots(0..c.slot_count());
                    let parts = c.parts.clone();
                    assert_eq!(c.prefetch_ghosts(v, 2), OpCost::default());
                    assert_eq!(c.copy_slots(0..c.slot_count()), slots);
                    assert_eq!(c.parts, parts, "step {step}: prefetch booked ghosts");
                }
                1 => {
                    if c.insert(v, &[]).is_err() {
                        c.grow(64);
                    }
                }
                2 => {
                    c.delete(v);
                }
                _ => {
                    // A loaded key, so most updates move a row.
                    let old = rng.gen_range(0..1_000u64) * 10;
                    c.update(old, v).expect("update");
                }
            }
            assert_eq!(
                c.ghost_total(),
                0,
                "step {step}: a dense chunk holds ghosts"
            );
            c.validate_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }

    /// The write path's point query as two per-value scalar loops (the
    /// delete swap-fill walk and `find_first`'s `position`), kept verbatim
    /// with the `update` / `take_one` bodies around them: the oracle the
    /// kernel-backed write path must match slot for slot and charge for
    /// charge.
    impl PartitionedChunk<u64> {
        fn delete_ref(&mut self, v: u64) -> WriteResult {
            let mut cost = OpCost::default();
            let m = self.locate(v, &mut cost);
            self.charge_partition_scan(m, &mut cost);
            let part = self.parts[m];
            let mut removed = 0usize;
            if part.len > 0 && part.covers(v) {
                let mut pos = part.start;
                let mut live_end = part.live_end();
                while pos < live_end {
                    if self.data.get(pos) == v {
                        live_end -= 1;
                        if pos != live_end {
                            self.move_slot(live_end, pos, &mut cost);
                        } else {
                            cost.random_writes += 1;
                        }
                        removed += 1;
                    } else {
                        pos += 1;
                    }
                }
            }
            if removed == 0 {
                return WriteResult {
                    affected: 0,
                    cost,
                    partitions_touched: 1,
                };
            }
            self.parts[m].len -= removed;
            self.parts[m].ghosts += removed;
            self.live -= removed;
            let mut partitions_touched = 1u64;
            if self.config.policy == UpdatePolicy::Dense {
                for _ in 0..removed {
                    self.push_slot_to_tail(m, &mut cost);
                }
                partitions_touched += (self.parts.len() - 1 - m) as u64;
            }
            WriteResult {
                affected: removed as u64,
                cost,
                partitions_touched,
            }
        }

        fn find_first_ref(&self, v: u64, cost: &mut OpCost) -> (usize, Option<usize>) {
            let m = self.locate(v, cost);
            self.charge_partition_scan(m, cost);
            let part = self.parts[m];
            let mut found = None;
            if part.len > 0 && part.covers(v) {
                found = (part.start..part.live_end()).find(|&pos| self.data.get(pos) == v);
            }
            (m, found)
        }

        fn update_ref(&mut self, old: u64, new: u64) -> WriteResult {
            let mut cost = OpCost::default();
            let (m, found) = self.find_first_ref(old, &mut cost);
            let Some(pos) = found else {
                return WriteResult {
                    affected: 0,
                    cost,
                    partitions_touched: 1,
                };
            };
            let t = self.locate(new, &mut cost);
            if t == m {
                self.data.set(pos, new);
                self.stamp(pos);
                cost.random_writes += 1;
                self.widen_bounds(m, new);
                return WriteResult {
                    affected: 1,
                    cost,
                    partitions_touched: 1,
                };
            }
            let row = self.remove_first(m, pos, &mut cost);
            let slot = match self.config.policy {
                UpdatePolicy::Ghost if self.parts[t].ghosts > 0 => {
                    self.parts[t].ghosts -= 1;
                    self.parts[t].live_end()
                }
                _ => {
                    if t > m {
                        let hole = self.pull_slot_from_left(t, m, &mut cost);
                        self.parts[t].start = hole;
                        hole
                    } else {
                        self.pull_slot_from_right(t, Some(m), &mut cost)
                    }
                }
            };
            self.place(t, slot, new, &row, &mut cost);
            WriteResult {
                affected: 1,
                cost,
                partitions_touched: (m.abs_diff(t) + 1) as u64,
            }
        }

        fn take_one_ref(&mut self, v: u64) -> (Option<Vec<u32>>, WriteResult) {
            let mut cost = OpCost::default();
            let (m, found) = self.find_first_ref(v, &mut cost);
            let Some(pos) = found else {
                return (
                    None,
                    WriteResult {
                        affected: 0,
                        cost,
                        partitions_touched: 1,
                    },
                );
            };
            let row = self.remove_first(m, pos, &mut cost);
            let mut partitions_touched = 1u64;
            if self.config.policy == UpdatePolicy::Dense {
                self.push_slot_to_tail(m, &mut cost);
                partitions_touched += (self.parts.len() - 1 - m) as u64;
            }
            (
                Some(row),
                WriteResult {
                    affected: 1,
                    cost,
                    partitions_touched,
                },
            )
        }
    }

    #[test]
    fn kernel_write_path_matches_scalar_reference_on_simd_sized_partitions() {
        use crate::kernels::SELECT_SUBCHUNK;
        use rand::prelude::*;
        // 3 sub-chunks + 228 values: both the 64-value lanes and the
        // sub-chunks end in a ragged tail.
        const PART: usize = 3 * SELECT_SUBCHUNK + 228;
        const PARTS: u64 = 4;
        // Key span per partition.
        const SPAN: u64 = 100_000;
        // Odd keys are planted at fixed offsets of every partition; the
        // filler is random even keys (natural duplicates, never a planted
        // key).
        let planted: [(u64, &[usize]); 5] = [
            (1, &[62, 63, 64, 65]),                     // straddles a 64-value lane
            (3, &[1022, 1023, 1024, 1025, 2047, 2048]), // straddles sub-chunks
            (5, &[100, PART - 3, PART - 2, PART - 1]),  // run at the live tail
            (7, &[PART - 10]),                          // ragged tail only
            (9, &[0, 5]),                               // first slot
        ];
        let layout = BlockLayout {
            block_bytes: 400,
            value_width: 8,
        }; // 50 values per block: 66 blocks per partition
        for &policy in &[UpdatePolicy::Ghost, UpdatePolicy::Dense] {
            let mut rng = StdRng::seed_from_u64(27);
            let mut row_id = 0u32;
            let mut next_row = |key: u64| {
                row_id += 1;
                [row_id, key as u32 ^ 0x5A5A]
            };
            let mut slots: Vec<(u64, [u32; 2])> = Vec::new();
            for p in 0..PARTS {
                let base = p * SPAN;
                let mut part: Vec<Option<u64>> = vec![None; PART];
                for &(key, offsets) in &planted {
                    for &off in offsets {
                        part[off] = Some(base + key);
                    }
                }
                for s in part {
                    let key = s.unwrap_or_else(|| base + 2 * rng.gen_range(6..1500u64));
                    slots.push((key, next_row(key)));
                }
            }
            let ghosts = match policy {
                UpdatePolicy::Ghost => vec![4, 0, 7, 2],
                UpdatePolicy::Dense => vec![0; 4],
            };
            let mut config = ChunkConfig::default();
            config.policy = policy;
            config.capacity_slack = 0.1;
            let mut c = PartitionedChunk::build_with_payloads(
                &slots.iter().map(|s| s.0).collect::<Vec<_>>(),
                &(0..2)
                    .map(|col| slots.iter().map(|s| s.1[col]).collect::<Vec<u32>>())
                    .collect::<Vec<_>>(),
                &ChunkLayout::with_ghosts(
                    PartitionSpec::from_block_sizes(&[66; PARTS as usize]),
                    ghosts,
                ),
                layout,
                config,
            )
            .unwrap();
            // The build sorted every partition; lay each one back out in
            // the planned slot order (the same multiset, so the bounds stay
            // exact).
            for (p, rows) in slots.chunks(PART).enumerate() {
                let start = c.parts[p].start;
                assert_eq!(c.parts[p].len, PART);
                for (i, (key, row)) in rows.iter().enumerate() {
                    c.data.set(start + i, *key);
                    c.payloads.set_row(start + i, row);
                }
            }
            c.validate_invariants().unwrap();

            let mut kern = c.clone();
            let mut scal = c;
            // Keys: planted (with duplicates), filler, misses inside a
            // covering range (odd, never planted), and beyond every
            // partition.
            let pick = |rng: &mut StdRng| {
                let base = rng.gen_range(0..PARTS) * SPAN;
                match rng.gen_range(0..4) {
                    0 | 1 => base + planted[rng.gen_range(0..planted.len())].0,
                    2 => base + 2 * rng.gen_range(6..1500u64),
                    _ => [base + 11, PARTS * SPAN + 3][rng.gen_range(0..2usize)],
                }
            };
            for step in 0..800 {
                let ctx = format!("{policy:?} step {step}");
                let (k, s) = match rng.gen_range(0..8) {
                    0..=2 => {
                        let v = pick(&mut rng);
                        (kern.delete(v), scal.delete_ref(v))
                    }
                    3 | 4 => {
                        let (old, new) = (pick(&mut rng), pick(&mut rng));
                        (kern.update(old, new).unwrap(), scal.update_ref(old, new))
                    }
                    5 | 6 => {
                        let v = pick(&mut rng);
                        let (krow, k) = kern.take_one(v);
                        let (srow, s) = scal.take_one_ref(v);
                        assert_eq!(krow, srow, "{ctx}: take_one({v}) row");
                        (k, s)
                    }
                    _ => {
                        let v = pick(&mut rng);
                        let row = next_row(v);
                        let k = kern.insert(v, &row);
                        let s = scal.insert(v, &row);
                        assert_eq!(k.is_ok(), s.is_ok(), "{ctx}: insert({v})");
                        match (k, s) {
                            (Ok(k), Ok(s)) => (k, s),
                            _ => continue,
                        }
                    }
                };
                assert_eq!(k.affected, s.affected, "{ctx}: affected");
                assert_eq!(k.cost, s.cost, "{ctx}: cost");
                assert_eq!(k.partitions_touched, s.partitions_touched, "{ctx}: touched");
                assert!(
                    kern.copy_slots(0..kern.slot_count()) == scal.copy_slots(0..scal.slot_count()),
                    "{ctx}: slots diverged"
                );
                assert!(
                    kern.payloads == scal.payloads,
                    "{ctx}: payload rows diverged"
                );
                assert_eq!(kern.parts, scal.parts, "{ctx}: partitions");
                assert_eq!(kern.live, scal.live, "{ctx}: live");
            }
            kern.validate_invariants().unwrap();
        }
    }
}

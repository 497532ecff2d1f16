//! The range-partitioned column chunk — Casper's physical unit of storage.
//!
//! A [`PartitionedChunk`] owns a fixed-width key column (plus optional
//! payload columns) organized into contiguous range partitions. Each
//! partition holds its live values first (internally *unordered*, §3) and
//! then `ghosts` empty slots (Fig. 5). Partitions are physically adjacent:
//! `parts[p+1].start == parts[p].extent_end()`. Free capacity beyond the
//! last partition forms the column *tail*, which plays the role of the
//! paper's "(already) available empty slot at the end of the column"
//! (Fig. 4a).
//!
//! The key slots are a `KeyLane` (`lane.rs`): 32-bit offsets from a chunk
//! base when the keys span less than 2^32, full width otherwise. The
//! layout geometry and cost accounting do not see the difference; only the
//! bytes a scan streams do.
//!
//! The slot-transfer primitives that implement rippling live here
//! (`pull_slot_from_right` and friends); the public
//! operations built on them (point/range queries, insert, delete, update)
//! are in [`crate::ops`].

use crate::error::StorageError;
use crate::lane::KeyLane;
use crate::layout::{BlockLayout, ChunkLayout, PartitionSpec};
use crate::ops::OpCost;
use crate::partition::PartitionMeta;
use crate::payload::{PayloadOrientation, PayloadSet};
use crate::sorted::sort_rows_by_key;
use crate::value::ColumnValue;
use crate::UpdatePolicy;

/// Slots per write-stamp granule: the unit in which a chunk reports which
/// of its slots were written since a given write mark (a patch record's
/// unit of change).
pub const GRANULE_SLOTS: usize = 64;

/// Free slots a chunk always keeps after its last partition at build time,
/// whatever its [`ChunkConfig::capacity_slack`]: the tail that feeds a
/// ripple-insert once no ghost donor is left.
pub const MIN_TAIL_SLOTS: usize = 64;

/// Build- and run-time configuration of a chunk.
#[derive(Debug, Clone, Copy)]
pub struct ChunkConfig {
    /// How deletes/inserts maintain density (see [`UpdatePolicy`]).
    pub policy: UpdatePolicy,
    /// Extra physical slots reserved after the last partition at build
    /// time, as a fraction of the initial value count (at least
    /// [`MIN_TAIL_SLOTS`]). The tail feeds ripple-inserts when no ghost
    /// donor exists.
    pub capacity_slack: f64,
    /// How many ghost slots to pull per ripple (§6.1: "Casper moves a block
    /// of ghost values every time one is necessary"). The first slot is
    /// consumed by the triggering insert; the rest stay as ghosts of the
    /// target partition.
    pub ghost_fetch_block: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        Self {
            policy: UpdatePolicy::Ghost,
            capacity_slack: 0.05,
            ghost_fetch_block: 1,
        }
    }
}

impl ChunkConfig {
    /// Dense configuration (the paper's non-buffered baselines).
    pub fn dense() -> Self {
        Self {
            policy: UpdatePolicy::Dense,
            ..Self::default()
        }
    }
}

/// A range-partitioned, optionally ghost-buffered column chunk.
#[derive(Debug, Clone)]
pub struct PartitionedChunk<K: ColumnValue> {
    /// Physical key slots. `data.len()` is the chunk's physical capacity;
    /// slots outside every partition extent (the tail) and ghost slots hold
    /// stale values that are never read.
    pub(crate) data: KeyLane<K>,
    /// Partitions in slot and key order. Their covering bounds are the
    /// only copy of each partition's range: `locate` binary-searches them
    /// and the read paths prune on them (the paper's Zonemaps, §6.3).
    pub(crate) parts: Vec<PartitionMeta<K>>,
    pub(crate) payloads: PayloadSet,
    pub(crate) layout: BlockLayout,
    pub(crate) config: ChunkConfig,
    /// Total live values across partitions.
    pub(crate) live: usize,
    /// One stamp per [`GRANULE_SLOTS`]-slot granule of `data`: the write
    /// mark of the last slot write into the granule (0 = not written since
    /// the chunk was built or decoded).
    pub(crate) stamps: Vec<u64>,
    /// Monotone write mark, advanced by every slot write. A granule whose
    /// stamp is above a mark `m` holds a slot written after the chunk was
    /// at `m`; no other granule changed since.
    pub(crate) mark: u64,
}

impl<K: ColumnValue> PartitionedChunk<K> {
    /// Build a chunk from raw (unsorted) values laid out as `layout`
    /// says: its block-granularity partitions, each with its ghost slots.
    pub fn build(
        values: Vec<K>,
        layout: &ChunkLayout,
        blocks: BlockLayout,
        config: ChunkConfig,
    ) -> Result<Self, StorageError> {
        Self::build_with_payloads(&values, &[] as &[&[u32]], layout, blocks, config)
    }

    /// As [`PartitionedChunk::build`], with row-aligned payload columns
    /// (each exactly as long as `values`), stored in `layout.payload()`'s
    /// orientation. Rows are co-sorted by key, stably
    /// ([`sort_rows_by_key`]); rows that arrive sorted are copied once,
    /// straight into their slots.
    pub fn build_with_payloads(
        values: &[K],
        payload_cols: &[impl AsRef<[u32]>],
        layout: &ChunkLayout,
        blocks: BlockLayout,
        config: ChunkConfig,
    ) -> Result<Self, StorageError> {
        for col in payload_cols {
            if col.as_ref().len() != values.len() {
                return Err(StorageError::PayloadArity {
                    expected: values.len(),
                    got: col.as_ref().len(),
                });
            }
        }
        // Duplicate keys end up adjacent, which keeps them in the same
        // partition as §4.1 requires (partition boundaries are at block
        // granularity and blocks are assigned by rank).
        let sorted = sort_rows_by_key(values, payload_cols);
        let (values, cols): (&[K], Vec<&[u32]>) = match &sorted {
            Some((keys, cols)) => (keys, cols.iter().map(Vec::as_slice).collect()),
            None => (values, payload_cols.iter().map(AsRef::as_ref).collect()),
        };
        Self::from_sorted(values, layout, blocks, config, |parts, physical| {
            PayloadSet::placed(&cols, layout.payload(), physical, live_runs(parts))
        })
    }

    /// This chunk's live rows laid out afresh as `layout` says (the
    /// optimizer's rebuild, Fig. 10 step C). Rows are ordered by key, ties
    /// in slot order, exactly as [`PartitionedChunk::extract_live_sorted`]
    /// lists them, and each row is written once, straight from its current
    /// slot into its new one.
    pub fn relayout(
        &self,
        layout: &ChunkLayout,
        config: ChunkConfig,
    ) -> Result<Self, StorageError> {
        let positions = self.live_positions_sorted();
        let sorted: Vec<K> = positions.iter().map(|&p| self.data.get(p)).collect();
        Self::from_sorted(&sorted, layout, self.layout, config, |parts, physical| {
            PayloadSet::gathered(
                &self.payloads,
                layout.payload(),
                physical,
                &positions,
                live_runs(parts),
            )
        })
    }

    /// Build from key-sorted `values`; `payloads(parts, physical)` lays the
    /// payload rows out for the partitions built (sorted row `i` belongs at
    /// the `i`-th live slot, partition by partition).
    fn from_sorted(
        values: &[K],
        layout: &ChunkLayout,
        blocks: BlockLayout,
        config: ChunkConfig,
        payloads: impl FnOnce(&[PartitionMeta<K>], usize) -> PayloadSet,
    ) -> Result<Self, StorageError> {
        if values.is_empty() {
            return Err(StorageError::InvalidSpec {
                reason: "cannot build a chunk from zero values".into(),
            });
        }
        let spec = layout.spec();
        if spec.n_blocks() != blocks.num_blocks(values.len()) {
            return Err(StorageError::InvalidSpec {
                reason: format!(
                    "spec covers {} blocks but {} values need {}",
                    spec.n_blocks(),
                    values.len(),
                    blocks.num_blocks(values.len())
                ),
            });
        }

        let m = values.len();
        // Each partition's value end is its block end, the last partition
        // absorbing the remainder. "Duplicate values should be in the same
        // partition" (§4.1): advance every internal boundary past any run
        // of equal values straddling it. Partitions emptied by the
        // adjustment keep an inherited bound and simply never receive
        // values.
        let vpb = blocks.values_per_block();
        let mut ends: Vec<usize> = spec.ends().iter().map(|&e| (e * vpb).min(m)).collect();
        for i in 0..ends.len().saturating_sub(1) {
            let floor = if i == 0 { 0 } else { ends[i - 1] };
            let mut e = ends[i].max(floor);
            while e > floor && e < m && values[e] == values[e - 1] {
                e += 1;
            }
            ends[i] = e.min(m);
        }
        let slack = ((m as f64 * config.capacity_slack).ceil() as usize).max(MIN_TAIL_SLOTS);
        let physical = m + layout.ghost_total() + slack;

        let mut parts: Vec<PartitionMeta<K>> = Vec::with_capacity(ends.len());
        let mut cursor = 0usize; // physical write position
        let mut consumed = 0usize; // values consumed
        for (&end, &g) in ends.iter().zip(layout.ghosts()) {
            let len = end - consumed;
            let src = &values[consumed..end];
            let (min, max) = if len > 0 {
                (src[0], src[len - 1])
            } else {
                // Degenerate (only possible for a trailing empty partition):
                // inherit the previous bound so the covering ranges stay
                // monotone.
                let prev = parts.last().map_or(K::MIN_VALUE, |p| p.max);
                (prev, prev)
            };
            parts.push(PartitionMeta {
                start: cursor,
                len,
                ghosts: g,
                min,
                max,
            });
            cursor += len + g;
            consumed += len;
        }

        // Stale slots hold the smallest key, inside the key lane's frame.
        let data = KeyLane::from_sorted_runs(values, physical, live_runs(&parts));
        let payloads = payloads(&parts, physical);

        Ok(Self {
            data,
            parts,
            payloads,
            layout: blocks,
            config,
            live: m,
            stamps: vec![0; physical.div_ceil(GRANULE_SLOTS)],
            mark: 0,
        })
    }

    /// Convenience constructor: a single unstructured partition over the
    /// values (the vanilla column-store layout).
    pub fn single_partition(
        values: Vec<K>,
        layout: BlockLayout,
        config: ChunkConfig,
    ) -> Result<Self, StorageError> {
        let n = layout.num_blocks(values.len().max(1));
        Self::build(
            values,
            &ChunkLayout::dense(PartitionSpec::single(n)),
            layout,
            config,
        )
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of live values.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Number of partitions.
    #[inline]
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Partition metadata.
    #[inline]
    pub fn partitions(&self) -> &[PartitionMeta<K>] {
        &self.parts
    }

    /// Total ghost slots currently buffered across all partitions.
    pub fn ghost_total(&self) -> usize {
        self.parts.iter().map(|p| p.ghosts).sum()
    }

    /// Free slots in the tail beyond the last partition's extent.
    pub fn tail_free(&self) -> usize {
        self.data.len() - self.parts.last().map_or(0, |p| p.extent_end())
    }

    /// Grow the physical capacity by `extra` slots ("if no empty slots are
    /// available, the column is expanded", §3). Payload columns grow in
    /// lock-step. Capacity is reserved exactly: an amortized `resize`
    /// would double the chunk's resident memory for a 10 % grow. The new
    /// slots count as written (a patch must carry them).
    pub fn grow(&mut self, extra: usize) {
        let old_len = self.data.len();
        let new_len = old_len + extra;
        self.data.resize(new_len);
        self.payloads.grow_to(new_len);
        self.stamps.resize(new_len.div_ceil(GRANULE_SLOTS), 0);
        for g in old_len / GRANULE_SLOTS..new_len.div_ceil(GRANULE_SLOTS) {
            self.stamp(g * GRANULE_SLOTS);
        }
    }

    /// The block geometry the chunk was built with.
    #[inline]
    pub fn layout(&self) -> BlockLayout {
        self.layout
    }

    /// The update policy in effect.
    #[inline]
    pub fn policy(&self) -> UpdatePolicy {
        self.config.policy
    }

    /// Live values of one partition (unordered), copied out at full width.
    pub fn partition_values(&self, p: usize) -> Vec<K> {
        let m = &self.parts[p];
        self.data.to_vec(m.start..m.live_end())
    }

    /// Access to payload columns (read-only).
    pub fn payloads(&self) -> &PayloadSet {
        &self.payloads
    }

    /// Heap bytes resident for this chunk: slots, partition metadata and
    /// payloads.
    /// Used by the resource governor's budget accounting; an estimate of
    /// allocator-visible memory, not a byte-exact malloc audit.
    pub fn resident_bytes(&self) -> usize {
        self.data.resident_bytes()
            + self.parts.capacity() * std::mem::size_of::<PartitionMeta<K>>()
            + self.payloads.resident_bytes()
            + self.stamps.capacity() * std::mem::size_of::<u64>()
    }

    /// Extract all live rows in sorted key order, payloads column-major —
    /// used when a column is re-chunked in key order; a re-partition of
    /// the chunk itself moves rows directly ([`PartitionedChunk::relayout`]).
    pub fn extract_live_sorted(&self) -> (Vec<K>, Vec<Vec<u32>>) {
        let positions = self.live_positions_sorted();
        let keys = positions.iter().map(|&p| self.data.get(p)).collect();
        let cols = (0..self.payloads.width())
            .map(|c| positions.iter().map(|&p| self.payloads.get(c, p)).collect())
            .collect();
        (keys, cols)
    }

    /// All live keys in sorted order (the key half of
    /// [`PartitionedChunk::extract_live_sorted`], reading no payload).
    pub fn live_keys_sorted(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.live);
        for p in &self.parts {
            keys.extend(self.data.to_vec(p.start..p.live_end()));
        }
        keys.sort_unstable();
        keys
    }

    /// The live slots ordered by key, ties in slot order. Partition `q`'s
    /// live keys all lie above partition `q − 1`'s bound (the separation
    /// [`PartitionedChunk::validate_invariants`] checks) and its slots all
    /// follow, so sorting each partition alone sorts the whole.
    fn live_positions_sorted(&self) -> Vec<usize> {
        let mut keyed: Vec<(K, usize)> = Vec::with_capacity(self.live);
        for p in &self.parts {
            let start = keyed.len();
            keyed.extend((p.start..p.live_end()).map(|pos| (self.data.get(pos), pos)));
            // Slots are distinct, so the unstable sort on (key, slot) is
            // the stable sort by key.
            keyed[start..].sort_unstable();
        }
        debug_assert!(keyed.is_sorted(), "partitions overlap in key order");
        keyed.into_iter().map(|(_, pos)| pos).collect()
    }

    /// How the chunk's payload rows are laid out.
    #[inline]
    pub fn payload_orientation(&self) -> PayloadOrientation {
        self.payloads.orientation()
    }

    /// This chunk with its payload stored in `orientation` (slots, layout
    /// and write stamps unchanged).
    pub fn into_orientation(mut self, orientation: PayloadOrientation) -> Self {
        self.payloads = self.payloads.to_orientation(orientation);
        self
    }

    // ------------------------------------------------------------------
    // Persistence: raw physical state capture/restore
    // ------------------------------------------------------------------

    /// Number of physical slots (the chunk's capacity).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.data.len()
    }

    /// Hand the physical slots in `range` (stale ghost and tail contents
    /// included) to `sink` at full width, as consecutive runs. The
    /// persistence encoder streams them straight into its writer, so a
    /// snapshot needs no intermediate copy of the chunk.
    pub fn read_slots(&self, range: std::ops::Range<usize>, sink: impl FnMut(&[K])) {
        self.data.for_each_run(range, sink);
    }

    /// The physical slots in `range`, copied out at full width.
    pub fn copy_slots(&self, range: std::ops::Range<usize>) -> Vec<K> {
        self.data.to_vec(range)
    }

    /// Whether the key slots are stored as 32-bit offsets from a chunk
    /// base (the `lane.rs` key lane) rather than at full width.
    #[inline]
    pub fn key_lane_is_narrow(&self) -> bool {
        self.data.is_narrow()
    }

    /// This chunk with its key lane forced to full width (tests run one
    /// operation sequence on both forms).
    #[cfg(test)]
    pub(crate) fn with_wide_keys(&self) -> Self {
        Self {
            data: self.data.widened(),
            ..self.clone()
        }
    }

    /// The chunk configuration (persistence).
    #[inline]
    pub fn chunk_config(&self) -> ChunkConfig {
        self.config
    }

    /// The chunk's current write mark (see [`PartitionedChunk::granules_written_since`]).
    #[inline]
    pub fn write_mark(&self) -> u64 {
        self.mark
    }

    /// Ascending indexes of the [`GRANULE_SLOTS`]-slot granules holding a
    /// slot written after the chunk's write mark was `since`. Every other
    /// slot is exactly as it was at `since`; partition metadata may have
    /// changed anywhere.
    pub fn granules_written_since(&self, since: u64) -> impl Iterator<Item = usize> + '_ {
        let stamps = self.stamps.iter().enumerate();
        stamps.filter_map(move |(g, &stamp)| (stamp > since).then_some(g))
    }

    /// Slot range of granule `g`.
    #[inline]
    pub fn granule_slots(&self, g: usize) -> std::ops::Range<usize> {
        g * GRANULE_SLOTS..((g + 1) * GRANULE_SLOTS).min(self.data.len())
    }

    /// Capture the chunk's complete physical state for persistence: slots,
    /// partition metadata, payload rows and configuration.
    /// The capture is bit-exact — restoring it with
    /// [`PartitionedChunk::from_state`] reproduces the same layout without
    /// re-sorting or re-partitioning anything.
    pub fn to_state(&self) -> ChunkState<K> {
        ChunkState {
            data: self.data.to_vec(0..self.data.len()),
            parts: self.parts.clone(),
            payloads: self.payloads.clone(),
            layout: self.layout,
            config: self.config,
            live: self.live,
            write_mark: self.mark,
        }
    }

    /// Restore a chunk from a captured [`ChunkState`].
    ///
    /// Cheap structural length/consistency checks run unconditionally and
    /// surface [`StorageError::Corrupt`]; debug builds additionally run the
    /// full O(M) [`PartitionedChunk::validate_invariants`] sweep over the
    /// recovered chunk, also surfaced as `Corrupt` rather than a panic.
    /// The key lane works out its frame again from the covering bounds of
    /// the non-empty partitions, so a restored chunk may get another base
    /// than it had; its slots read back bit-exactly.
    pub fn from_state(state: ChunkState<K>) -> Result<Self, StorageError> {
        let corrupt = |reason: String| StorageError::Corrupt { reason };
        let k = state.parts.len();
        if k == 0 {
            return Err(corrupt("chunk state has no partitions".into()));
        }
        let mut expected_start = state.parts[0].start;
        let mut live = 0usize;
        for (p, part) in state.parts.iter().enumerate() {
            if part.start != expected_start {
                return Err(corrupt(format!(
                    "partition {p} starts at {} but previous extent ended at {expected_start}",
                    part.start
                )));
            }
            expected_start = part.extent_end();
            live += part.len;
        }
        if expected_start > state.data.len() {
            return Err(corrupt(format!(
                "partitions extend to slot {expected_start} but chunk holds {}",
                state.data.len()
            )));
        }
        if live != state.live {
            return Err(corrupt(format!(
                "live count {live} != recorded {}",
                state.live
            )));
        }
        state
            .payloads
            .check_slots(state.data.len())
            .map_err(corrupt)?;
        let physical = state.data.len();
        let live_span = state
            .parts
            .iter()
            .filter(|p| p.len > 0)
            .map(|p| (p.min, p.max))
            .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)));
        let chunk = Self {
            data: KeyLane::from_slots(state.data, live_span),
            parts: state.parts,
            payloads: state.payloads,
            layout: state.layout,
            config: state.config,
            live: state.live,
            stamps: vec![0; physical.div_ceil(GRANULE_SLOTS)],
            mark: state.write_mark,
        };
        if cfg!(debug_assertions) {
            chunk
                .validate_invariants()
                .map_err(|reason| corrupt(format!("recovered chunk invalid: {reason}")))?;
        }
        Ok(chunk)
    }

    // ------------------------------------------------------------------
    // Slot-transfer primitives (the ripple mechanics of §3 / Fig. 4)
    // ------------------------------------------------------------------

    /// Record a write into `slot`: advance the write mark and stamp the
    /// slot's granule with it. Every path that stores a key or payload
    /// value calls this.
    #[inline]
    pub(crate) fn stamp(&mut self, slot: usize) {
        self.mark += 1;
        self.stamps[slot / GRANULE_SLOTS] = self.mark;
    }

    /// Move one slot's row between physical positions, charging one random
    /// read and one random write (the unit step of every ripple).
    #[inline]
    pub(crate) fn move_slot(&mut self, from: usize, to: usize, cost: &mut OpCost) {
        self.data.copy_slot(from, to);
        self.payloads.move_row(from, to);
        self.stamp(to);
        cost.random_reads += 1;
        cost.random_writes += 1;
    }

    /// Donor on the right gives one slot to partition `m`.
    ///
    /// `donor` is either a partition `j > m` holding at least one ghost
    /// slot, or `None` for the column tail. Every partition in `(m, j]`
    /// shifts right by one slot (one move each, Fig. 4a). Returns the hole
    /// position, which ends up exactly at `parts[m].extent_end()`; the
    /// caller either consumes it (insert) or books it as a ghost of `m`.
    pub(crate) fn pull_slot_from_right(
        &mut self,
        m: usize,
        donor: Option<usize>,
        cost: &mut OpCost,
    ) -> usize {
        debug_assert!(donor.is_none_or(|j| j > m));
        // Acquire the hole: the donor's first ghost slot (the one adjacent
        // to its live values, so the hole can exit through them), or the
        // first tail slot.
        let mut hole = if let Some(j) = donor {
            debug_assert!(self.parts[j].ghosts > 0, "right donor must have ghosts");
            self.parts[j].ghosts -= 1;
            self.parts[j].live_end()
        } else {
            debug_assert!(self.tail_free() > 0, "tail donor requires free capacity");
            self.parts.last().expect("non-empty").extent_end()
        };
        // Walk the hole left over partitions (m, j] (the donor included —
        // its live region must slide right past the slot it gave up); each
        // partition shifts right by one. A partition's first live value
        // moves to its first ghost slot when it has ghosts (keeping live
        // values contiguous) or straight into the traveling hole otherwise.
        let upper = donor.map_or(self.parts.len(), |j| j + 1);
        for t in (m + 1..upper).rev() {
            let part = self.parts[t];
            if part.len > 0 {
                let target = if part.ghosts > 0 {
                    part.live_end()
                } else {
                    hole
                };
                self.move_slot(part.start, target, cost);
            }
            // Even for an empty partition the extent shifts: the hole passes
            // through its (ghost) region for free.
            hole = part.start;
            self.parts[t].start += 1;
        }
        debug_assert_eq!(hole, self.parts[m].extent_end());
        hole
    }

    /// Donor on the left (`j < m`, with at least one ghost slot) gives one
    /// slot to partition `m`. Every partition in `[j+1, m)` shifts left by
    /// one. Returns the hole position `parts[m].start - 1`.
    pub(crate) fn pull_slot_from_left(
        &mut self,
        m: usize,
        donor: usize,
        cost: &mut OpCost,
    ) -> usize {
        debug_assert!(donor < m);
        debug_assert!(self.parts[donor].ghosts > 0, "left donor must have ghosts");
        // The donor's last ghost slot is already adjacent to the next
        // partition; ghost slots are interchangeable, so taking the last one
        // costs no move.
        self.parts[donor].ghosts -= 1;
        let mut hole = self.parts[donor].extent_end(); // post-decrement end
        for t in donor + 1..m {
            let part = self.parts[t];
            if part.len > 0 {
                // Last live value moves into the hole at `start - 1`; the
                // partition's ghost region (if any) slides left with it by
                // ejecting its right-most slot as the new traveling hole.
                self.move_slot(part.live_end() - 1, hole, cost);
            }
            hole = part.extent_end() - 1;
            self.parts[t].start -= 1;
        }
        debug_assert_eq!(hole + 1, self.parts[m].start);
        hole
    }

    /// Partition `m` has one surplus slot booked as its *last ghost*; push
    /// it out to the column tail (the dense-delete ripple of Fig. 4b).
    /// Every partition right of `m` shifts left by one.
    pub(crate) fn push_slot_to_tail(&mut self, m: usize, cost: &mut OpCost) {
        debug_assert!(self.parts[m].ghosts > 0);
        self.parts[m].ghosts -= 1;
        let mut hole = self.parts[m].extent_end();
        for t in m + 1..self.parts.len() {
            let part = self.parts[t];
            if part.len > 0 {
                self.move_slot(part.live_end() - 1, hole, cost);
            }
            hole = part.extent_end() - 1;
            self.parts[t].start -= 1;
        }
    }

    /// Locate the partition responsible for value `v` (§3, §6.3): the
    /// first partition whose upper bound is `>= v`, clamped to the last
    /// one (a value above every bound goes to the final partition, which
    /// then widens its bound). The bounds are monotone
    /// ([`PartitionedChunk::validate_invariants`]), so a binary search of
    /// the partition metadata finds it ([`crate::index::locate`]).
    /// Charges one probe on `cost`.
    #[inline]
    pub(crate) fn locate(&self, v: K, cost: &mut OpCost) -> usize {
        cost.index_probes += 1;
        crate::index::locate(&self.parts, v)
    }

    /// Find the nearest ghost donor for partition `m`: first scanning right
    /// (the paper ripples toward the end of the column), then left; `None`
    /// means "use the tail" (or fail if the tail is exhausted).
    pub(crate) fn nearest_donor(&self, m: usize) -> Option<DonorSide> {
        let right = self.parts[m + 1..]
            .iter()
            .position(|p| p.ghosts > 0)
            .map(|off| m + 1 + off);
        let left = self.parts[..m].iter().rposition(|p| p.ghosts > 0);
        match (right, left) {
            (Some(r), Some(l)) => {
                if r - m <= m - l {
                    Some(DonorSide::Right(r))
                } else {
                    Some(DonorSide::Left(l))
                }
            }
            (Some(r), None) => Some(DonorSide::Right(r)),
            (None, Some(l)) => Some(DonorSide::Left(l)),
            (None, None) => None,
        }
    }

    /// Widen partition `m`'s covering range to include `v`.
    #[inline]
    pub(crate) fn widen_bounds(&mut self, m: usize, v: K) {
        let part = &mut self.parts[m];
        part.min = part.min.min(v);
        part.max = part.max.max(v);
    }

    /// Number of logical blocks a partition's live region spans (cost unit
    /// of the model: a query pays for whole blocks, §4.4).
    #[inline]
    pub(crate) fn live_blocks(&self, p: usize) -> usize {
        let part = &self.parts[p];
        if part.len == 0 {
            return 0;
        }
        let vpb = self.layout.values_per_block();
        (part.live_end() - 1) / vpb - part.start / vpb + 1
    }

    // ------------------------------------------------------------------
    // Invariant checking (used heavily by tests)
    // ------------------------------------------------------------------

    /// Verify all structural invariants; returns a description of the first
    /// violation. Intended for tests and debug assertions — O(M).
    pub fn validate_invariants(&self) -> Result<(), String> {
        if self.parts.is_empty() {
            return Err("no partitions".into());
        }
        let mut expected_start = self.parts[0].start;
        let mut live = 0usize;
        for (p, part) in self.parts.iter().enumerate() {
            if part.start != expected_start {
                return Err(format!(
                    "partition {p} starts at {} but previous extent ended at {expected_start}",
                    part.start
                ));
            }
            expected_start = part.extent_end();
            live += part.len;
            for pos in part.start..part.live_end() {
                let v = self.data.get(pos);
                if !part.covers(v) {
                    return Err(format!(
                        "value {v} at slot {pos} outside partition {p} range [{}, {}]",
                        part.min, part.max
                    ));
                }
            }
            if p > 0 && self.parts[p - 1].max > part.max {
                return Err(format!("partition bounds not monotone at {p}"));
            }
        }
        if live != self.live {
            return Err(format!("live count {live} != recorded {}", self.live));
        }
        if expected_start > self.data.len() {
            return Err("partitions exceed physical capacity".into());
        }
        // Cross-partition separation: every live value of partition q must
        // be strictly greater than the (fixed) upper bound of partition
        // q−1, which is what routing by `locate` guarantees.
        for q in 1..self.parts.len() {
            let prev_bound = self.parts[q - 1].max;
            let part = &self.parts[q];
            for pos in part.start..part.live_end() {
                let v = self.data.get(pos);
                if v <= prev_bound {
                    return Err(format!(
                        "value {v} in partition {q} not above previous bound {prev_bound}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Complete physical state of a [`PartitionedChunk`], as captured by
/// [`PartitionedChunk::to_state`] for persistence and consumed by
/// [`PartitionedChunk::from_state`] on recovery. Everything is raw
/// physical state — including stale ghost/tail slot contents — so a
/// round-trip is bit-exact and needs no re-solve.
#[derive(Debug, Clone)]
pub struct ChunkState<K: ColumnValue> {
    /// Physical slots (capacity included; tail/ghost slots hold stale
    /// values exactly as in memory).
    pub data: Vec<K>,
    /// Partition metadata, physically contiguous.
    pub parts: Vec<PartitionMeta<K>>,
    /// Slot-aligned payload, `data.len()` slots in its own orientation.
    pub payloads: PayloadSet,
    /// Block geometry.
    pub layout: BlockLayout,
    /// Chunk configuration (update policy, slack, ghost fetch block).
    pub config: ChunkConfig,
    /// Total live values across partitions.
    pub live: usize,
    /// The chunk's write mark when the state was captured; a restored
    /// chunk resumes at it with no granule stamped above it.
    pub write_mark: u64,
}

/// The slot ranges holding `parts`' live rows, in slot order.
fn live_runs<K: ColumnValue>(
    parts: &[PartitionMeta<K>],
) -> impl Iterator<Item = std::ops::Range<usize>> + Clone + '_ {
    parts.iter().map(|p| p.start..p.live_end())
}

/// Which side a ghost donor was found on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DonorSide {
    /// Donor partition index right of the target.
    Right(usize),
    /// Donor partition index left of the target.
    Left(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_layout() -> BlockLayout {
        // 2 values per block.
        BlockLayout {
            block_bytes: 16,
            value_width: 8,
        }
    }

    fn build_chunk(values: Vec<u64>, sizes: &[usize], counts: &[usize]) -> PartitionedChunk<u64> {
        let layout =
            ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(sizes), counts.to_vec());
        PartitionedChunk::build(values, &layout, tiny_layout(), ChunkConfig::default())
            .expect("build")
    }

    #[test]
    fn build_sorts_and_partitions() {
        let c = build_chunk(vec![8, 3, 1, 5, 7, 2, 4, 6], &[2, 2], &[0, 0]);
        assert_eq!(c.partition_count(), 2);
        assert_eq!(c.partition_values(0), &[1, 2, 3, 4]);
        assert_eq!(c.partition_values(1), &[5, 6, 7, 8]);
        assert_eq!(c.live_len(), 8);
        c.validate_invariants().unwrap();
    }

    #[test]
    fn build_places_ghosts_between_partitions() {
        let c = build_chunk((1..=8).collect(), &[2, 2], &[2, 1]);
        assert_eq!(c.parts[0].start, 0);
        assert_eq!(c.parts[0].ghosts, 2);
        assert_eq!(c.parts[1].start, 6); // 4 live + 2 ghosts
        assert_eq!(c.ghost_total(), 3);
        c.validate_invariants().unwrap();
    }

    /// Every physical slot of a fresh chunk: live rows co-sorted by key,
    /// equal keys in input order, and every ghost and tail slot holding
    /// the smallest key and zero payload words, whether the rows arrive
    /// shuffled or already sorted.
    #[test]
    fn build_fills_every_slot() {
        let build = |keys: &[u64], col: &[u32]| {
            PartitionedChunk::build_with_payloads(
                keys,
                &[col],
                &ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[1, 2]), vec![1, 2]),
                tiny_layout(),
                ChunkConfig::default(),
            )
            .unwrap()
        };
        let shuffled = build(&[30, 10, 30, 20, 10], &[3, 1, 33, 2, 11]);
        let sorted = build(&[10, 10, 20, 30, 30], &[1, 11, 2, 3, 33]);
        // 5 live rows, 3 ghosts, a 64-slot tail.
        let mut keys = vec![10u64, 10, 10, 20, 30, 30];
        keys.resize(72, 10);
        let mut words = vec![1u32, 11, 0, 2, 3, 33];
        words.resize(72, 0);
        for c in [&shuffled, &sorted] {
            assert_eq!(c.copy_slots(0..c.slot_count()), keys);
            let got: Vec<u32> = (0..c.slot_count())
                .map(|s| c.payloads().get(0, s))
                .collect();
            assert_eq!(got, words);
            assert_eq!(c.resident_bytes(), shuffled.resident_bytes());
        }
    }

    #[test]
    fn build_rejects_wrong_spec_width() {
        // 1 block for 8 values.
        let layout = ChunkLayout::dense(PartitionSpec::from_block_sizes(&[1]));
        let err = PartitionedChunk::build(
            (1u64..=8).collect(),
            &layout,
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::InvalidSpec { .. }));
    }

    #[test]
    fn build_with_payloads_cosorts() {
        let c = PartitionedChunk::build_with_payloads(
            &[40u64, 10, 30, 20],
            &[vec![4, 1, 3, 2]],
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(&[1, 1])),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        assert_eq!(c.partition_values(0), &[10, 20]);
        // Payload must follow its key.
        assert_eq!(c.payloads().get(0, c.parts[0].start), 1);
        assert_eq!(c.payloads().get(0, c.parts[0].start + 1), 2);
        assert_eq!(c.payloads().get(0, c.parts[1].start), 3);
    }

    #[test]
    fn pull_slot_from_tail_shifts_trailing_partitions() {
        let mut c = build_chunk((1..=8).collect(), &[1, 1, 1, 1], &[0, 0, 0, 0]);
        let mut cost = OpCost::default();
        let hole = c.pull_slot_from_right(1, None, &mut cost);
        // Partitions 2 and 3 each shifted right by one → 2 moves.
        assert_eq!(cost.random_writes, 2);
        assert_eq!(hole, c.parts[1].extent_end());
        // All live data preserved.
        let mut all: Vec<u64> = (0..4)
            .flat_map(|p| c.partition_values(p).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..=8).collect::<Vec<u64>>());
        // Write the hole so invariants hold (value within partition 1's range).
        c.data.set(hole, 4);
        c.parts[1].len += 1;
        c.live += 1;
        c.validate_invariants().unwrap();
    }

    #[test]
    fn pull_slot_from_right_ghost_donor() {
        let mut c = build_chunk((1..=8).collect(), &[1, 1, 1, 1], &[0, 0, 0, 3]);
        let mut cost = OpCost::default();
        let hole = c.pull_slot_from_right(0, Some(3), &mut cost);
        assert_eq!(c.parts[3].ghosts, 2);
        // Partitions 1, 2 and the donor's live region shift: 3 moves.
        assert_eq!(cost.random_writes, 3);
        assert_eq!(hole, c.parts[0].extent_end());
        let mut all: Vec<u64> = (0..4)
            .flat_map(|p| c.partition_values(p).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn pull_slot_from_left_ghost_donor() {
        let mut c = build_chunk((1..=8).collect(), &[1, 1, 1, 1], &[2, 0, 0, 0]);
        let mut cost = OpCost::default();
        let hole = c.pull_slot_from_left(3, 0, &mut cost);
        assert_eq!(c.parts[0].ghosts, 1);
        // Partitions 1 and 2 shift left: 2 moves.
        assert_eq!(cost.random_writes, 2);
        assert_eq!(hole + 1, c.parts[3].start);
        let mut all: Vec<u64> = (0..4)
            .flat_map(|p| c.partition_values(p).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn push_slot_to_tail_restores_density() {
        let mut c = build_chunk((1..=8).collect(), &[1, 1, 1, 1], &[0, 0, 0, 0]);
        // Fabricate a surplus ghost in partition 1 by removing a value.
        let le = c.parts[1].live_end();
        c.data.copy_slot(le - 1, c.parts[1].start); // drop one value
        c.parts[1].len -= 1;
        c.parts[1].ghosts += 1;
        c.live -= 1;
        let mut cost = OpCost::default();
        c.push_slot_to_tail(1, &mut cost);
        assert_eq!(cost.random_writes, 2); // partitions 2 and 3 shift left
        assert!(c.tail_free() > 0);
        assert_eq!(c.ghost_total(), 0);
        // Contiguity restored.
        for p in 0..3 {
            assert_eq!(c.parts[p].extent_end(), c.parts[p + 1].start);
        }
    }

    #[test]
    fn nearest_donor_prefers_closer_side() {
        let c = build_chunk((1..=8).collect(), &[1, 1, 1, 1], &[1, 0, 0, 1]);
        assert_eq!(c.nearest_donor(1), Some(DonorSide::Left(0)));
        assert_eq!(c.nearest_donor(2), Some(DonorSide::Right(3)));
        let c = build_chunk((1..=8).collect(), &[1, 1, 1, 1], &[0, 0, 0, 0]);
        assert_eq!(c.nearest_donor(1), None);
    }

    #[test]
    fn extract_live_sorted_round_trips() {
        let c = build_chunk(vec![5, 3, 8, 1, 7, 2, 6, 4], &[2, 2], &[1, 1]);
        let (keys, cols) = c.extract_live_sorted();
        assert_eq!(keys, (1..=8).collect::<Vec<u64>>());
        assert!(cols.is_empty());
    }

    /// A re-layout writes the rows a rebuild from `extract_live_sorted`
    /// would, in either orientation, and reads no payload for the keys.
    #[test]
    fn relayout_matches_extract_and_build() {
        let keys: Vec<u64> = vec![9, 3, 3, 7, 1, 8, 2, 6, 5, 4, 3, 0];
        let cols = vec![
            (0..12).map(|i| i * 10).collect::<Vec<u32>>(),
            (0..12).map(|i| 100 + i).collect(),
        ];
        let build = |keys: &[u64], cols: &[Vec<u32>], layout: &ChunkLayout, config| {
            PartitionedChunk::build_with_payloads(keys, cols, layout, tiny_layout(), config)
                .unwrap()
        };
        // Slot for slot, bound for bound and word for word.
        let same = |got: &PartitionedChunk<u64>, want: &PartitionedChunk<u64>| {
            got.validate_invariants().unwrap();
            assert_eq!(
                got.copy_slots(0..got.slot_count()),
                want.copy_slots(0..want.slot_count())
            );
            assert_eq!(got.parts, want.parts);
            assert_eq!(got.payloads, want.payloads);
            assert_eq!(got.resident_bytes(), want.resident_bytes());
        };
        let rows = PayloadOrientation::Rows;
        let first =
            ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[2, 2, 2]), vec![1, 0, 2]);
        let mut c = build(&keys, &cols, &first, ChunkConfig::default());
        // A row-major build from shuffled rows is the column-major build
        // turned row-major.
        let direct = build(
            &keys,
            &cols,
            &first.clone().with_payload(rows),
            ChunkConfig::default(),
        );
        assert_eq!(direct.payload_orientation(), rows);
        same(&direct, &c.clone().into_orientation(rows));
        c.delete(7);
        c.insert(3, &[77, 777]).unwrap();
        let (keys, cols) = c.extract_live_sorted();
        assert_eq!(c.live_keys_sorted(), keys);
        let layout = ChunkLayout::with_ghosts(PartitionSpec::from_block_sizes(&[3, 3]), vec![2, 1]);
        let want = build(&keys, &cols, &layout, ChunkConfig::dense());
        for o in [PayloadOrientation::Columns, rows] {
            let layout = layout.clone().with_payload(o);
            let got = c.relayout(&layout, ChunkConfig::dense()).unwrap();
            assert_eq!(got.payload_orientation(), o);
            let want = want.clone().into_orientation(o);
            same(&got, &want);
            // So is one from sorted rows.
            same(&build(&keys, &cols, &layout, ChunkConfig::dense()), &want);
        }
    }

    /// The live slots by key, ties in slot order, sorted partition by
    /// partition, through inserts, deletes and updates with duplicate keys.
    #[test]
    fn live_positions_sorted_matches_a_global_sort() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<u64> = (0..400).map(|i| i / 3 * 2).collect();
        let mut c = PartitionedChunk::build(
            keys,
            &ChunkLayout::even(PartitionSpec::from_block_sizes(&[40, 60, 50, 50]), 32),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        let naive = |c: &PartitionedChunk<u64>| {
            let mut keyed: Vec<(u64, usize)> = c
                .parts
                .iter()
                .flat_map(|p| p.start..p.live_end())
                .map(|pos| (c.data.get(pos), pos))
                .collect();
            keyed.sort();
            keyed.into_iter().map(|(_, pos)| pos).collect::<Vec<_>>()
        };
        for step in 0..300 {
            let v = rng.gen_range(0..300u64);
            match step % 3 {
                0 => drop(c.insert(v, &[])),
                1 => drop(c.delete(v)),
                _ => drop(c.update(v, rng.gen_range(0..300))),
            }
            assert_eq!(c.live_positions_sorted(), naive(&c), "step {step}");
        }
    }

    #[test]
    fn live_blocks_counts_block_span() {
        let c = build_chunk((1..=8).collect(), &[2, 2], &[0, 0]);
        // 2 values per block, partitions of 4 values each → 2 blocks.
        assert_eq!(c.live_blocks(0), 2);
        assert_eq!(c.live_blocks(1), 2);
    }

    /// `locate` is the linear definition (the first partition whose max is
    /// at least `v`, else the last) and charges one probe: on partitions
    /// emptied at build (a duplicate run moved across a boundary leaves
    /// degenerate bounds) or by deletes, and after inserts above the
    /// chunk's maximum.
    #[test]
    fn locate_matches_linear_definition() {
        use proptest::prelude::*;
        proptest!(|(mut values in proptest::collection::vec(0u64..40, 4..64),
                    cuts in proptest::collection::vec(1usize..4, 1..12),
                    writes in proptest::collection::vec((any::<bool>(), 0u64..60), 0..40),
                    probes in proptest::collection::vec(0u64..70, 1..30))| {
            values.sort_unstable();
            // Block sizes from `cuts`, the last partition taking the rest.
            let mut left = tiny_layout().num_blocks(values.len());
            let mut sizes = Vec::new();
            for c in cuts {
                if c >= left {
                    break;
                }
                sizes.push(c);
                left -= c;
            }
            sizes.push(left);
            let mut c = build_chunk(values, &sizes, &vec![1; sizes.len()]);
            let linear = |c: &PartitionedChunk<u64>, v: u64| {
                let k = c.parts.len();
                c.parts.iter().position(|p| p.max >= v).unwrap_or(k - 1)
            };
            for (insert, v) in writes {
                if insert {
                    c.insert(v, &[]).expect("insert");
                } else {
                    c.delete(v);
                }
                for &v in &probes {
                    let mut cost = OpCost::default();
                    prop_assert_eq!(c.locate(v, &mut cost), linear(&c, v), "locate({})", v);
                    prop_assert_eq!(cost.index_probes, 1);
                }
            }
        });
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        let c = build_chunk((1..=8).collect(), &[2, 2], &[2, 1]);
        let state = c.to_state();
        let r = PartitionedChunk::from_state(state).expect("restore");
        assert_eq!(
            r.copy_slots(0..r.slot_count()),
            c.copy_slots(0..c.slot_count())
        );
        assert_eq!(r.parts, c.parts);
        assert_eq!(r.live_len(), c.live_len());
        r.validate_invariants().unwrap();
        // The restored chunk routes identically.
        for v in 0..=10u64 {
            let mut cost = OpCost::default();
            assert_eq!(r.locate(v, &mut cost), c.locate(v, &mut cost));
        }
    }

    #[test]
    fn from_state_rejects_corrupt_lengths() {
        let c = build_chunk((1..=8).collect(), &[2, 2], &[0, 0]);
        // Truncated slot array.
        let mut s = c.to_state();
        s.data.truncate(3);
        assert!(matches!(
            PartitionedChunk::from_state(s),
            Err(StorageError::Corrupt { .. })
        ));
        // Live-count mismatch.
        let mut s = c.to_state();
        s.live += 1;
        assert!(matches!(
            PartitionedChunk::from_state(s),
            Err(StorageError::Corrupt { .. })
        ));
    }

    /// A 10 % grow costs ~10 % more memory, not an amortized doubling.
    #[test]
    fn grow_reserves_exactly() {
        let n = 100_000usize;
        let mut c = PartitionedChunk::build_with_payloads(
            &(0..n as u64).collect::<Vec<_>>(),
            &[vec![7u32; n], vec![9u32; n]],
            &ChunkLayout::dense(PartitionSpec::from_block_sizes(&[n / 4, n / 4])),
            tiny_layout(),
            ChunkConfig::default(),
        )
        .expect("build");
        let before = c.resident_bytes();
        c.grow(n / 10);
        let after = c.resident_bytes();
        assert!(
            after as f64 <= 1.11 * before as f64,
            "grow({}) took resident bytes {before} -> {after}",
            n / 10
        );
    }

    /// The stamp invariant: after any mix of writes, every slot whose key
    /// or payload differs from the state at mark `m` (new slots included)
    /// lies in a granule `granules_written_since(m)` reports; a restored
    /// chunk resumes at its captured mark with nothing stamped above it.
    #[test]
    fn granules_written_since_cover_every_changed_slot() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for policy in [UpdatePolicy::Ghost, UpdatePolicy::Dense] {
            let mut config = ChunkConfig::default();
            config.policy = policy;
            let keys: Vec<u64> = (0..2_000).map(|k| k * 10).collect();
            let mut c = PartitionedChunk::build_with_payloads(
                &keys,
                &[keys.iter().map(|&k| k as u32 ^ 5).collect::<Vec<u32>>()],
                &ChunkLayout::with_ghosts(
                    PartitionSpec::from_block_sizes(&[250, 250, 250, 250]),
                    vec![3, 0, 5, 1],
                ),
                tiny_layout(),
                config,
            )
            .expect("build");
            for round in 0..40 {
                let since = c.write_mark();
                let data = c.copy_slots(0..c.slot_count());
                let payloads = c.payloads.clone();
                for _ in 0..rng.gen_range(1..20) {
                    let v = rng.gen_range(0..21_000u64);
                    match rng.gen_range(0..5) {
                        0 => {
                            if c.insert(v, &[v as u32]).is_err() {
                                c.grow(100);
                            }
                        }
                        1 => {
                            c.delete(v);
                        }
                        2 => {
                            c.update(v, rng.gen_range(0..21_000)).expect("update");
                        }
                        3 => {
                            c.take_one(v);
                        }
                        _ => {
                            c.prefetch_ghosts(v, 2);
                        }
                    }
                }
                let written: Vec<usize> = c.granules_written_since(since).collect();
                for slot in 0..c.data.len() {
                    let changed = data.get(slot) != Some(&c.data.get(slot))
                        || slot >= payloads.slot_count()
                        || payloads.get(0, slot) != c.payloads.get(0, slot);
                    if changed {
                        assert!(
                            written.contains(&(slot / GRANULE_SLOTS)),
                            "{policy:?} round {round}: slot {slot} changed unstamped"
                        );
                    }
                }
                c.validate_invariants().unwrap();
            }
            let r = PartitionedChunk::from_state(c.to_state()).expect("restore");
            assert_eq!(r.write_mark(), c.write_mark());
            assert_eq!(r.granules_written_since(r.write_mark()).count(), 0);
        }
    }

    #[test]
    fn single_partition_constructor() {
        let c = PartitionedChunk::single_partition(
            vec![3u64, 1, 2],
            tiny_layout(),
            ChunkConfig::default(),
        )
        .unwrap();
        assert_eq!(c.partition_count(), 1);
        assert_eq!(c.live_len(), 3);
        c.validate_invariants().unwrap();
    }
}

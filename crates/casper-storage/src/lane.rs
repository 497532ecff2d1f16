//! The key lane of a partitioned chunk: its physical slots, stored as a
//! writable frame-of-reference (FOR) lane.
//!
//! The paper's §6.2 FOR codec stores a partition's keys as offsets from a
//! base, and the scan kernels run ~2x faster on a 32-bit offset lane than
//! on plain 64-bit keys. [`KeyLane`] makes that narrow lane the chunk's
//! only key storage:
//!
//! * [`KeyLane::Narrow`] — a chunk base plus one `u32` offset per slot,
//!   offsets taken in [`ColumnValue::to_ordered_u64`] space. A chunk is
//!   narrow when its key type is wider than 4 bytes and its keys span less
//!   than 2^32; the frame is centred on that span ([`frame_base`]), so the
//!   chunk can take keys well outside its current range before it must
//!   widen.
//! * [`KeyLane::Wide`] — today's full-width `Vec<K>`, the fallback.
//!
//! A write whose key falls outside the frame widens the lane in place,
//! once, in O(capacity), and counts `casper_key_lane_widenings_total`. The
//! next rebuild or decode narrows it again if the span allows.
//!
//! This module is the only code that tells the two forms apart. Scans over
//! a narrow lane rebase their predicate into offset space ([`for_rebase`])
//! and then run the generic kernels at `u32`; a wide lane runs them at
//! `K`. The block geometry and every charged `OpCost` are untouched: only
//! the bytes a probe streams shrink.

use crate::kernels::{self, LANE_WIDTH};
use crate::layout::lay_out_runs;
use crate::simd::SimdElem;
use crate::value::ColumnValue;
use casper_obs::CounterDef;
use std::ops::Range;

static OBS_WIDENINGS: CounterDef = CounterDef::new("casper_key_lane_widenings_total");

/// Largest offset a narrow lane stores.
const FRAME_MAX: u64 = u32::MAX as u64;

/// Slots converted per batch when a narrow range is widened for a caller.
const WIDEN_BATCH: usize = 512;

/// Base of the narrow frame for live keys spanning `[min, max]`, or `None`
/// when the key type is 4 bytes or narrower or the span does not fit in
/// 32 bits. The frame is centred on the span: `base = min − (2^32 − 1 −
/// span) / 2`, clamped to the key domain.
fn frame_base<K: ColumnValue>(min: K, max: K) -> Option<u64> {
    let (lo, hi) = (min.to_ordered_u64(), max.to_ordered_u64());
    let span = hi.checked_sub(lo)?;
    if K::WIDTH <= 4 || span > FRAME_MAX {
        return None;
    }
    Some(
        lo.saturating_sub((FRAME_MAX - span) / 2)
            .min(u64::MAX - FRAME_MAX),
    )
}

/// `v`'s offset in the frame at `base`, if it has one.
#[inline]
fn offset_of<K: ColumnValue>(base: u64, v: K) -> Option<u32> {
    let off = v.to_ordered_u64().checked_sub(base)?;
    (off <= FRAME_MAX).then_some(off as u32)
}

/// The key at offset `off` of the frame at `base`.
#[inline]
fn key_at<K: ColumnValue>(base: u64, off: u32) -> K {
    K::from_ordered_u64(base + u64::from(off))
}

/// Rebase `[lo, hi)` into the offset space of the frame at `base`:
/// `Some((lo_off, span))`, or `None` when the range is degenerate or
/// entirely below the base.
#[inline]
fn for_rebase<K: ColumnValue>(base: u64, lo: K, hi: K) -> Option<(u64, u64)> {
    let lo = lo.to_ordered_u64();
    let hi = hi.to_ordered_u64();
    if hi <= lo || hi <= base {
        return None;
    }
    let lo_off = lo.saturating_sub(base);
    Some((lo_off, (hi - base) - lo_off))
}

/// A widened `[lo, lo + span)` offset predicate clamped into `u32`.
///
/// Clamping before the loop keeps the inner compares at full `u32` SIMD
/// density, and establishes the SIMD window contract `lo + span <= 2^32`,
/// which makes the wrapped unsigned compare exact.
enum LanePredicate {
    /// The window misses the lane's domain entirely.
    Empty,
    /// The window covers the lane's whole domain: everything matches.
    All,
    /// Proper window: `x - lo < span` in wrapping `u32` arithmetic.
    Window(u32, u32),
}

#[inline]
fn clamp_predicate(lo: u64, span: u64) -> LanePredicate {
    if span == 0 || lo > FRAME_MAX {
        return LanePredicate::Empty;
    }
    let hi = lo.saturating_add(span);
    if hi > FRAME_MAX {
        // The upper end exceeds the domain: `x >= lo` suffices, expressed
        // as the in-domain window `[lo, MAX]` of span `MAX - lo + 1`
        // (degenerating to All when lo is 0).
        if lo == 0 {
            LanePredicate::All
        } else {
            LanePredicate::Window(lo as u32, (FRAME_MAX - lo + 1) as u32)
        }
    } else {
        LanePredicate::Window(lo as u32, (hi - lo) as u32)
    }
}

/// Count of offsets in `[lo, lo + span)` (dispatched SIMD).
#[inline]
fn count_rebased(lane: &[u32], lo: u64, span: u64) -> u64 {
    match clamp_predicate(lo, span) {
        LanePredicate::Empty => 0,
        LanePredicate::All => lane.len() as u64,
        LanePredicate::Window(l, s) => SimdElem::count_window(lane, l, s),
    }
}

/// Bitmap-evaluate `[lo, lo + span)` over the offsets; always emits
/// `lane.len().div_ceil(64)` words, zeroed when the window misses.
fn bitmap_rebased(lane: &[u32], lo: u64, span: u64, out: &mut Vec<u64>) -> u64 {
    match clamp_predicate(lo, span) {
        LanePredicate::Empty => bitmap_fill_range(lane.len(), 0, 0, out),
        LanePredicate::All => bitmap_fill_range(lane.len(), 0, lane.len(), out),
        LanePredicate::Window(l, s) => SimdElem::bitmap_window(lane, l, s, out),
    }
}

/// Emit `n.div_ceil(64)` bitmap words with exactly bits `[a, b)` set.
fn bitmap_fill_range(n: usize, a: usize, b: usize, out: &mut Vec<u64>) -> u64 {
    debug_assert!(a <= b && b <= n);
    let mask_below = |k: usize| -> u64 {
        if k >= LANE_WIDTH {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    };
    for w in 0..n.div_ceil(LANE_WIDTH) {
        let word_start = w * LANE_WIDTH;
        let lo_bit = a.saturating_sub(word_start).min(LANE_WIDTH);
        let hi_bit = b.saturating_sub(word_start).min(LANE_WIDTH);
        out.push(mask_below(hi_bit) & !mask_below(lo_bit));
    }
    (b - a) as u64
}

/// A chunk's physical key slots (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum KeyLane<K: ColumnValue> {
    /// Keys as `u32` offsets from `base` in ordered-`u64` space.
    Narrow {
        /// Ordered value of offset 0.
        base: u64,
        /// One offset per slot.
        offsets: Vec<u32>,
    },
    /// Keys at full width.
    Wide(Vec<K>),
}

impl<K: ColumnValue> KeyLane<K> {
    /// Store `slots` (stale ghost and tail slots included), narrow when a
    /// frame holds every slot: the frame centred on the live keys' span
    /// `live` when it does, else the one centred on all slots' span.
    pub(crate) fn from_slots(slots: Vec<K>, live: Option<(K, K)>) -> Self {
        let holds = |base: u64| slots.iter().all(|&k| offset_of(base, k).is_some());
        let base = live
            .and_then(|(min, max)| frame_base(min, max))
            .filter(|&base| holds(base))
            .or_else(|| {
                let (min, max) = kernels::min_max(&slots)?;
                frame_base(min, max)
            });
        match base {
            Some(base) => KeyLane::Narrow {
                base,
                offsets: slots
                    .iter()
                    .map(|&k| (k.to_ordered_u64() - base) as u32)
                    .collect(),
            },
            None => KeyLane::Wide(slots),
        }
    }

    /// `physical` slots holding the key-sorted `values`, in order, in the
    /// slot ranges `runs` (ascending and disjoint, as many slots as
    /// `values`), every other slot holding the smallest key: what
    /// [`KeyLane::from_slots`] stores for those slots, each written once.
    /// Every slot lies in the live span, so the lane is narrow exactly when
    /// that span has a frame.
    ///
    /// # Panics
    /// Panics if `values` is empty, or `runs` holds more slots than it or
    /// ends past `physical`.
    pub(crate) fn from_sorted_runs(
        values: &[K],
        physical: usize,
        runs: impl Iterator<Item = Range<usize>>,
    ) -> Self {
        let (min, max) = (values[0], values[values.len() - 1]);
        match frame_base(min, max) {
            Some(base) => {
                let off = |k: K| (k.to_ordered_u64() - base) as u32;
                let offsets = lay_out_runs(physical, 1, off(min), runs, |rows, out| {
                    out.extend(values[rows].iter().map(|&k| off(k)))
                });
                KeyLane::Narrow { base, offsets }
            }
            None => KeyLane::Wide(lay_out_runs(physical, 1, min, runs, |rows, out| {
                out.extend_from_slice(&values[rows])
            })),
        }
    }

    /// A wide copy of this lane (tests compare the two forms).
    #[cfg(test)]
    pub(crate) fn widened(&self) -> Self {
        KeyLane::Wide(self.to_vec(0..self.len()))
    }

    /// Whether the lane stores 32-bit offsets.
    #[inline]
    pub(crate) fn is_narrow(&self) -> bool {
        matches!(self, KeyLane::Narrow { .. })
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            KeyLane::Narrow { offsets, .. } => offsets.len(),
            KeyLane::Wide(keys) => keys.len(),
        }
    }

    /// Heap bytes of the slots: 4 per narrow slot, `size_of::<K>()` per
    /// wide one.
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            KeyLane::Narrow { offsets, .. } => offsets.capacity() * std::mem::size_of::<u32>(),
            KeyLane::Wide(keys) => keys.capacity() * std::mem::size_of::<K>(),
        }
    }

    /// The key in slot `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> K {
        match self {
            KeyLane::Narrow { base, offsets } => key_at(*base, offsets[i]),
            KeyLane::Wide(keys) => keys[i],
        }
    }

    /// Store `v` in slot `i`, widening the lane first when `v` falls
    /// outside a narrow frame.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: K) {
        if let KeyLane::Narrow { base, offsets } = self {
            if let Some(off) = offset_of(*base, v) {
                offsets[i] = off;
                return;
            }
            self.widen();
        }
        match self {
            KeyLane::Wide(keys) => keys[i] = v,
            KeyLane::Narrow { .. } => unreachable!("widened above"),
        }
    }

    /// Copy slot `from` into slot `to`.
    #[inline]
    pub(crate) fn copy_slot(&mut self, from: usize, to: usize) {
        match self {
            KeyLane::Narrow { offsets, .. } => offsets[to] = offsets[from],
            KeyLane::Wide(keys) => keys[to] = keys[from],
        }
    }

    /// Resize to `len` slots, reserving exactly (an amortized `resize`
    /// would double the lane for a 10 % grow). New slots hold the frame's
    /// base (narrow) or `K::default()` (wide).
    pub(crate) fn resize(&mut self, len: usize) {
        match self {
            KeyLane::Narrow { offsets, .. } => {
                offsets.reserve_exact(len.saturating_sub(offsets.len()));
                offsets.resize(len, 0);
            }
            KeyLane::Wide(keys) => {
                keys.reserve_exact(len.saturating_sub(keys.len()));
                keys.resize(len, K::default());
            }
        }
    }

    /// Hand the slots in `range` to `sink` at full width, in order, as one
    /// or more consecutive runs — without copying the whole range.
    pub(crate) fn for_each_run(&self, range: Range<usize>, mut sink: impl FnMut(&[K])) {
        match self {
            KeyLane::Narrow { base, offsets } => {
                let mut buf = [K::default(); WIDEN_BATCH];
                for batch in offsets[range].chunks(WIDEN_BATCH) {
                    for (dst, &off) in buf.iter_mut().zip(batch) {
                        *dst = key_at(*base, off);
                    }
                    sink(&buf[..batch.len()]);
                }
            }
            KeyLane::Wide(keys) => sink(&keys[range]),
        }
    }

    /// The slots in `range`, copied out at full width.
    pub(crate) fn to_vec(&self, range: Range<usize>) -> Vec<K> {
        let mut out = Vec::with_capacity(range.len());
        self.for_each_run(range, |run| out.extend_from_slice(run));
        out
    }

    /// Replace a narrow lane by its wide equivalent (no-op when wide).
    fn widen(&mut self) {
        if let KeyLane::Narrow { base, offsets } = self {
            let mut keys = Vec::with_capacity(offsets.len());
            keys.extend(offsets.iter().map(|&off| key_at::<K>(*base, off)));
            *self = KeyLane::Wide(keys);
            OBS_WIDENINGS.inc();
        }
    }

    // ------------------------------------------------------------------
    // Scans over a slot range: the generic kernels, at u32 on a narrow
    // lane after rebasing the predicate, at K on a wide one.
    // ------------------------------------------------------------------

    /// Append the slot of every key in `range` equal to `v`.
    pub(crate) fn select_eq_into(&self, range: Range<usize>, v: K, out: &mut Vec<usize>) {
        let start = range.start;
        match self {
            KeyLane::Narrow { base, offsets } => {
                if let Some(off) = offset_of(*base, v) {
                    kernels::select_eq_into(&offsets[range], off, start, out);
                }
            }
            KeyLane::Wide(keys) => kernels::select_eq_into(&keys[range], v, start, out),
        }
    }

    /// Slot of the first key in `range` equal to `v`.
    pub(crate) fn first_eq(&self, range: Range<usize>, v: K) -> Option<usize> {
        let start = range.start;
        let found = match self {
            KeyLane::Narrow { base, offsets } => {
                kernels::first_eq(&offsets[range], offset_of(*base, v)?)
            }
            KeyLane::Wide(keys) => kernels::first_eq(&keys[range], v),
        };
        found.map(|i| start + i)
    }

    /// Evaluate `[lo, hi)` over `range` into bitmap words (bit `i` ⇔ slot
    /// `range.start + i`); returns the match count.
    pub(crate) fn select_range_bitmap(
        &self,
        range: Range<usize>,
        lo: K,
        hi: K,
        out: &mut Vec<u64>,
    ) -> u64 {
        match self {
            KeyLane::Narrow { base, offsets } => match for_rebase(*base, lo, hi) {
                Some((lo_off, span)) => bitmap_rebased(&offsets[range], lo_off, span, out),
                None => bitmap_fill_range(range.len(), 0, 0, out),
            },
            KeyLane::Wide(keys) => kernels::select_range_bitmap(&keys[range], lo, hi, out),
        }
    }

    /// Count the keys in `range` that fall in `[lo, hi)`.
    pub(crate) fn count_range(&self, range: Range<usize>, lo: K, hi: K) -> u64 {
        match self {
            KeyLane::Narrow { base, offsets } => for_rebase(*base, lo, hi)
                .map_or(0, |(lo_off, span)| {
                    count_rebased(&offsets[range], lo_off, span)
                }),
            KeyLane::Wide(keys) => kernels::count_range(&keys[range], lo, hi),
        }
    }

    /// Invoke `f(slot, key)` for every set bit of `mask`, bit `i` being
    /// slot `range.start + i`.
    pub(crate) fn for_each_match(
        &self,
        range: Range<usize>,
        mask: &[u64],
        mut f: impl FnMut(usize, K),
    ) {
        let start = range.start;
        match self {
            KeyLane::Narrow { base, offsets } => {
                kernels::for_each_match(&offsets[range], mask, start, |pos, off| {
                    f(pos, key_at(*base, off));
                });
            }
            KeyLane::Wide(keys) => kernels::for_each_match(&keys[range], mask, start, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_fill_range_shapes() {
        let mut out = Vec::new();
        assert_eq!(bitmap_fill_range(130, 63, 66, &mut out), 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], 1u64 << 63);
        assert_eq!(out[1], 0b11);
        assert_eq!(out[2], 0);
        out.clear();
        assert_eq!(bitmap_fill_range(64, 0, 64, &mut out), 64);
        assert_eq!(out, vec![u64::MAX]);
        out.clear();
        assert_eq!(bitmap_fill_range(10, 0, 0, &mut out), 0);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn frame_is_centred_and_clamped() {
        // Small keys: the frame clamps at the bottom of the domain.
        assert_eq!(frame_base(10u64, 4_000_000), Some(0));
        // Large keys: centred on the span.
        let (lo, hi) = (1u64 << 40, (1u64 << 40) + 1_000);
        let base = frame_base(lo, hi).expect("narrow");
        assert_eq!(lo - base, (FRAME_MAX - 1_000) / 2);
        assert!(hi - base <= FRAME_MAX);
        // Top of the domain: the frame ends at u64::MAX.
        assert_eq!(
            frame_base(u64::MAX - 5, u64::MAX),
            Some(u64::MAX - FRAME_MAX)
        );
        // Too wide a span, or a narrow key type: no frame.
        assert_eq!(frame_base(0u64, 1 << 32), None);
        assert_eq!(frame_base(0u64, FRAME_MAX), Some(0));
        assert_eq!(frame_base(0u32, 5), None);
    }

    #[test]
    fn narrow_lane_scans_match_wide() {
        // Keys around `o`, far from both ends of the domain, so probes at
        // 0 and u64::MAX fall outside the narrow frame on either side.
        let o = 1u64 << 40;
        let keys: Vec<u64> = (0..300).map(|i| o - 100 + (i * 37) % 200).collect();
        let narrow = KeyLane::from_slots(keys.clone(), kernels::min_max(&keys));
        assert!(narrow.is_narrow());
        let wide = KeyLane::Wide(keys.clone());
        let r = 17..290;
        assert_eq!(narrow.to_vec(0..keys.len()), keys);
        for v in [o - 100, o - 1, o, o + 42, o + 99, 0, u64::MAX] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            narrow.select_eq_into(r.clone(), v, &mut a);
            wide.select_eq_into(r.clone(), v, &mut b);
            assert_eq!(a, b, "eq {v}");
            assert_eq!(narrow.first_eq(r.clone(), v), wide.first_eq(r.clone(), v));
        }
        for (lo, hi) in [
            (o - 50, o + 50),
            (0, u64::MAX),
            (o + 99, o + 100),
            (o + 5, o - 5),
            (o + 200, o + 300),
        ] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let ma = narrow.select_range_bitmap(r.clone(), lo, hi, &mut a);
            let mb = wide.select_range_bitmap(r.clone(), lo, hi, &mut b);
            assert_eq!((ma, &a), (mb, &b), "[{lo}, {hi})");
            assert_eq!(narrow.count_range(r.clone(), lo, hi), mb);
            let (mut va, mut vb) = (Vec::new(), Vec::new());
            narrow.for_each_match(r.clone(), &a, |p, k| va.push((p, k)));
            wide.for_each_match(r.clone(), &b, |p, k| vb.push((p, k)));
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn out_of_frame_write_widens_once() {
        let mut lane = KeyLane::from_slots(vec![5u64; 100], Some((5, 5)));
        assert!(lane.is_narrow());
        lane.set(3, 7);
        assert!(lane.is_narrow());
        lane.set(4, 1 << 40);
        assert!(!lane.is_narrow());
        assert_eq!(lane.get(3), 7);
        assert_eq!(lane.get(4), 1 << 40);
        assert_eq!(lane.get(99), 5);
        // A decode with the wide key gone narrows again.
        lane.set(4, 9);
        let again = KeyLane::from_slots(lane.to_vec(0..100), Some((5, 9)));
        assert!(again.is_narrow());
        assert_eq!(again.to_vec(0..100), lane.to_vec(0..100));
    }

    #[test]
    fn stale_slots_outside_the_live_frame_keep_their_bits() {
        // A stale slot outside the frame centred on the live keys must
        // survive a decode bit-exactly.
        let live = 1u64 << 40;
        let mut slots = vec![live; 64];
        slots[60] = live + 3_000_000_000;
        let lane = KeyLane::from_slots(slots.clone(), Some((live, live)));
        assert_eq!(lane.to_vec(0..64), slots);
        assert!(
            lane.is_narrow(),
            "all slots span < 2^32: a frame holds them"
        );
        slots[61] = 9u64 << 50;
        let lane = KeyLane::from_slots(slots.clone(), Some((live, live)));
        assert!(!lane.is_narrow());
        assert_eq!(lane.to_vec(0..64), slots);
    }

    /// One seeded operation sequence on a narrow chunk and on the same
    /// chunk forced wide, under both update policies: after every
    /// operation both return the same result and `OpCost` and hold the
    /// same partition metadata, payload rows and decoded keys in
    /// every live region. Keys are drawn at the frame's edges and, after a
    /// while, outside it, so the narrow chunk widens partway through.
    #[test]
    fn narrow_and_wide_chunks_behave_identically() {
        use crate::chunk::{ChunkConfig, PartitionedChunk};
        use crate::ghost::GhostPlan;
        use crate::layout::{BlockLayout, PartitionSpec};
        use crate::ops::PositionsConsumer;
        use crate::UpdatePolicy;
        use rand::prelude::*;

        fn same(n: &PartitionedChunk<u64>, w: &PartitionedChunk<u64>, ctx: &str) {
            assert_eq!(n.parts, w.parts, "{ctx}: partitions");
            assert_eq!(n.live, w.live, "{ctx}: live");
            assert!(n.payloads == w.payloads, "{ctx}: payloads");
            for p in 0..n.partition_count() {
                assert_eq!(
                    n.partition_values(p),
                    w.partition_values(p),
                    "{ctx}: keys of {p}"
                );
            }
        }

        casper_obs::enable();
        let origin = 1u64 << 40;
        let layout = BlockLayout {
            block_bytes: 400,
            value_width: 8,
        }; // 50 keys per block
        for policy in [UpdatePolicy::Ghost, UpdatePolicy::Dense] {
            let mut rng = StdRng::seed_from_u64(33);
            let keys: Vec<u64> = (0..4_000).map(|i| origin + 10 * i).collect();
            let ghosts = match policy {
                UpdatePolicy::Ghost => vec![4, 0, 7, 2],
                UpdatePolicy::Dense => vec![0; 4],
            };
            let mut config = ChunkConfig::default();
            config.policy = policy;
            let mut narrow = PartitionedChunk::build_with_payloads(
                &keys,
                &[keys
                    .iter()
                    .map(|&k| k as u32 ^ 0x5A5A)
                    .collect::<Vec<u32>>()],
                &PartitionSpec::from_block_sizes(&[20; 4]),
                layout,
                &GhostPlan::from_counts(ghosts),
                config,
            )
            .expect("build");
            let KeyLane::Narrow { base, .. } = narrow.data else {
                panic!("{policy:?}: keys spanning 40 k build a narrow lane");
            };
            let mut wide = narrow.with_wide_keys();
            assert!(!wide.key_lane_is_narrow());
            let mut widened_at = None;
            for step in 0..1_500 {
                let ctx = format!("{policy:?} step {step}");
                let draw = |rng: &mut StdRng| match rng.gen_range(0..40) {
                    0 => base,
                    1 => base + FRAME_MAX,
                    2 if step >= 500 => base - 1 - rng.gen_range(0..1_000u64),
                    3 if step >= 500 => base + FRAME_MAX + 1 + rng.gen_range(0..1_000u64),
                    4..=20 => origin + 10 * rng.gen_range(0..4_000u64),
                    _ => origin + rng.gen_range(0..41_000u64),
                };
                let v = draw(&mut rng);
                match rng.gen_range(0..10) {
                    0 | 1 => {
                        let row = [v as u32];
                        let (a, b) = (narrow.insert(v, &row), wide.insert(v, &row));
                        assert_eq!(a.is_ok(), b.is_ok(), "{ctx}: insert");
                        match (a, b) {
                            (Ok(a), Ok(b)) => assert_eq!(a.cost, b.cost, "{ctx}: insert"),
                            _ => {
                                narrow.grow(64);
                                wide.grow(64);
                            }
                        }
                    }
                    2 => {
                        let (a, b) = (narrow.delete(v), wide.delete(v));
                        assert_eq!((a.affected, a.cost), (b.affected, b.cost), "{ctx}: delete");
                    }
                    3 => {
                        // Within the source's neighbourhood (and the
                        // frame), often the same partition.
                        let new = (v + rng.gen_range(0..30u64)).min(base + FRAME_MAX);
                        let (a, b) = (narrow.update(v, new), wide.update(v, new));
                        let (a, b) = (a.expect("update"), b.expect("update"));
                        assert_eq!((a.affected, a.cost), (b.affected, b.cost), "{ctx}: update");
                    }
                    4 => {
                        let new = draw(&mut rng);
                        let (a, b) = (narrow.update(v, new), wide.update(v, new));
                        let (a, b) = (a.expect("update"), b.expect("update"));
                        assert_eq!((a.affected, a.cost), (b.affected, b.cost), "{ctx}: move");
                    }
                    5 => {
                        let (ra, a) = narrow.take_one(v);
                        let (rb, b) = wide.take_one(v);
                        assert_eq!((ra, a.cost), (rb, b.cost), "{ctx}: take_one");
                    }
                    6 => {
                        let extra = rng.gen_range(1..100);
                        narrow.grow(extra);
                        wide.grow(extra);
                    }
                    7 => {
                        let (a, b) = (narrow.point_query(v), wide.point_query(v));
                        assert_eq!((a.positions, a.cost), (b.positions, b.cost), "{ctx}: point");
                    }
                    8 => {
                        let hi = draw(&mut rng);
                        let (lo, hi) = (v.min(hi), v.max(hi));
                        assert_eq!(
                            narrow.range_count(lo, hi),
                            wide.range_count(lo, hi),
                            "{ctx}: count"
                        );
                        assert_eq!(
                            narrow.range_sum_payload(lo, hi, &[0]),
                            wide.range_sum_payload(lo, hi, &[0]),
                            "{ctx}: sum"
                        );
                        let (mut pa, mut pb) =
                            (PositionsConsumer::default(), PositionsConsumer::default());
                        let (a, b) = (
                            narrow.range_query(lo, hi, &mut pa),
                            wide.range_query(lo, hi, &mut pb),
                        );
                        assert_eq!((a.matched, a.cost), (b.matched, b.cost), "{ctx}: range");
                        assert_eq!((pa.positions, pa.runs), (pb.positions, pb.runs), "{ctx}");
                    }
                    _ => {
                        let (a, b) = (narrow.prefetch_ghosts(v, 2), wide.prefetch_ghosts(v, 2));
                        assert_eq!(a, b, "{ctx}: prefetch");
                    }
                }
                same(&narrow, &wide, &ctx);
                if widened_at.is_none() && !narrow.key_lane_is_narrow() {
                    widened_at = Some(step);
                }
            }
            narrow.validate_invariants().unwrap();
            let at =
                widened_at.unwrap_or_else(|| panic!("{policy:?}: the narrow chunk never widened"));
            assert!(
                at >= 500,
                "{policy:?}: widened at step {at}, inside the frame"
            );
        }
        let registry = casper_obs::registry().expect("engaged above");
        assert!(registry.counter("casper_key_lane_widenings_total").get() > 0);
    }

    #[test]
    fn narrow_slots_cost_four_bytes() {
        let keys: Vec<u64> = (0..1000).collect();
        let narrow = KeyLane::from_slots(keys.clone(), Some((0, 999)));
        assert_eq!(narrow.resident_bytes(), 4000);
        assert_eq!(KeyLane::Wide(keys).resident_bytes(), 8000);
    }
}

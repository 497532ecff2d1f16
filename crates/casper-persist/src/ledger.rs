//! The per-chunk durable-state ledger of a [`crate::DurableTable`]: for
//! every chunk, the record the current manifest holds for it, the column
//! version that record is clean at, and — if the chunk is quarantined —
//! why.
//!
//! The engine's per-chunk version counters are monotone for the life of a
//! column, re-layouts included, so "is chunk *i* dirty?" is one comparison
//! against the version captured with its record — and this module is the
//! only place that makes it. Everything the durability layer decides per
//! chunk (encode, reuse, evict, heal, quarantine, freeze) is a predicate
//! here; a chunk index past the ledger's end has no record yet and is
//! simply dirty, so a re-layout that changes the chunk count needs no
//! case of its own.
//!
//! A record is a chain (full record + patches). Whether the next
//! checkpoint may *extend* a dirty chunk's chain with a patch rather than
//! replace it is one more predicate here, [`Ledger::patch_base`].

use crate::incremental::ChunkEntry;
use std::collections::BTreeSet;

/// What a chunk's durable record is good for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clean {
    /// The record is the chunk exactly as it stood at this value of its
    /// column version counter.
    At(u64),
    /// A scrub pass found a record of the chain damaged while the chunk
    /// was resident: whatever the counter says, re-encode the chunk whole
    /// from memory.
    Damaged,
}

#[derive(Debug, Default)]
struct Slot {
    /// `None`: no committed checkpoint has covered this chunk yet.
    record: Option<(ChunkEntry, Clean)>,
    /// Why nothing may be encoded from this chunk: its record is damaged
    /// and it was never hydrated (hydration would fail the CRC), or a query
    /// panicked mid-mutation and left suspect memory. Checkpoints keep
    /// re-pointing at the last durable record.
    quarantine: Option<String>,
}

/// Per-chunk durable state, indexed like the column's chunks.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    slots: Vec<Slot>,
}

impl Ledger {
    /// Whether chunk `i`, now at column version `version`, differs from
    /// its durable record: it has none yet, the record is known damaged,
    /// or the chunk was written since the record was captured.
    pub(crate) fn dirty(&self, i: usize, version: u64) -> bool {
        !matches!(
            self.slots.get(i),
            Some(Slot { record: Some((_, Clean::At(v))), .. }) if *v == version
        )
    }

    /// Whether the next checkpoint serializes chunk `i` from memory.
    pub(crate) fn encodable(&self, i: usize, version: u64) -> bool {
        self.dirty(i, version) && self.quarantine_reason(i).is_none()
    }

    /// The record chunk `i`'s slot may be re-pointed at — `Some` iff the
    /// chunk is clean and not quarantined. That is what makes a chunk
    /// *healable* after a query panic and, while hydrated, *evictable*:
    /// the record is byte-identical to the memory being dropped.
    pub(crate) fn repointable(&self, i: usize, version: u64) -> Option<&ChunkEntry> {
        if self.dirty(i, version) || self.quarantine_reason(i).is_some() {
            return None;
        }
        self.record(i)
    }

    /// The first quarantined chunk that is also dirty, with its reason.
    /// Checkpointing is unsound while one exists: it may not be encoded
    /// (suspect memory), and re-pointing at its record would let the
    /// manifest's WAL watermark claim writes the record lacks —
    /// acked-then-lost on the next reopen. Such a chunk freezes checkpoint
    /// progress instead; the WAL chain keeps growing and a reopen
    /// reconstructs the chunk from its last good record plus replay.
    pub(crate) fn freezing(&self, versions: &[u64]) -> Option<(usize, &str)> {
        self.quarantined()
            .find(|&(i, _)| versions.get(i).is_some_and(|&v| self.dirty(i, v)))
    }

    /// How many of the column's chunks the next checkpoint would find
    /// dirty.
    pub(crate) fn dirty_count(&self, versions: &[u64]) -> usize {
        let dirty = versions
            .iter()
            .enumerate()
            .filter(|&(i, &v)| self.dirty(i, v));
        dirty.count()
    }

    /// The chain the next checkpoint may extend with a patch of chunk `i`
    /// — `Some` iff its record is intact and was captured at or after
    /// `rebuilt_at`, the version the chunk's store was last built at from
    /// scratch (a chain of an older layout cannot be patched, only
    /// replaced). Whether the chunk is dirty is [`Ledger::encodable`]'s
    /// question.
    pub(crate) fn patch_base(&self, i: usize, rebuilt_at: u64) -> Option<&ChunkEntry> {
        match self.slots.get(i)?.record.as_ref()? {
            (entry, Clean::At(v)) if *v >= rebuilt_at => Some(entry),
            _ => None,
        }
    }

    /// Chunk `i`'s durable record, if a checkpoint has covered it.
    pub(crate) fn record(&self, i: usize) -> Option<&ChunkEntry> {
        self.slots.get(i)?.record.as_ref().map(|(entry, _)| entry)
    }

    /// Distinct segment files the durable record chains live in.
    pub(crate) fn segments(&self) -> BTreeSet<u64> {
        let entries = self.slots.iter().filter_map(|s| s.record.as_ref());
        let records = entries.flat_map(|(entry, _)| entry.records());
        records.map(|r| r.seg).collect()
    }

    /// Quarantined chunk indexes with their reasons, in chunk order.
    pub(crate) fn quarantined(&self) -> impl Iterator<Item = (usize, &str)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, s)| Some((i, s.quarantine.as_deref()?)))
    }

    fn quarantine_reason(&self, i: usize) -> Option<&str> {
        self.slots.get(i)?.quarantine.as_deref()
    }

    /// Quarantine chunk `i` (the first reason given sticks).
    pub(crate) fn quarantine(&mut self, i: usize, reason: String) {
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Slot::default);
        }
        self.slots[i].quarantine.get_or_insert(reason);
    }

    /// Chunk `i`'s record failed verification while the chunk is resident:
    /// it stays dirty until a checkpoint replaces that record.
    pub(crate) fn mark_damaged(&mut self, i: usize) {
        if let Some((_, clean)) = self.slots.get_mut(i).and_then(|s| s.record.as_mut()) {
            *clean = Clean::Damaged;
        }
    }

    /// A checkpoint committed: `entries` are its manifest's records and
    /// `captured[i]` the column version chunk `i` was captured at. A chain
    /// known damaged stays so while the manifest's chain still holds every
    /// record of it (the chunk looked clean at capture and was reused, or a
    /// patch was appended in flight); any other chain starts from a full
    /// record encoded from memory or was CRC-verified on copy. Quarantine
    /// outlives checkpoints.
    pub(crate) fn commit(&mut self, entries: Vec<ChunkEntry>, captured: &[u64]) {
        let mut old = std::mem::take(&mut self.slots).into_iter();
        let slots = entries.into_iter().zip(captured).map(|(entry, &version)| {
            let old = old.next().unwrap_or_default();
            let clean = match old.record {
                Some((prev, Clean::Damaged)) if entry.extends(&prev) => Clean::Damaged,
                _ => Clean::At(version),
            };
            Slot {
                record: Some((entry, clean)),
                quarantine: old.quarantine,
            }
        });
        self.slots = slots.collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::Record;

    fn record(seg: u64) -> Record {
        Record {
            seg,
            offset: 16,
            len: 100,
            crc: 7,
        }
    }

    fn entry(seg: u64) -> ChunkEntry {
        ChunkEntry::full(record(seg), 64, seg, 0)
    }

    /// Six chunk states × the four per-chunk predicates, with the answers
    /// `capture` / `evict_pass` / `contain_panic` / `dirty_quarantined`
    /// gave when each compared version counters on its own.
    #[test]
    fn truth_table() {
        let mut ledger = Ledger::default();
        ledger.commit((1..=5).map(entry).collect(), &[3, 3, 3, 3, 3]);
        // Chunk 1 was written since; chunk 2's record was found damaged
        // while resident; chunk 3's while never hydrated (quarantined,
        // clean); chunk 4 panicked after a write (quarantined, dirty);
        // chunk 5 does not exist in the ledger (a re-layout added it).
        let versions = [3, 4, 3, 3, 4, 0];
        ledger.mark_damaged(2);
        ledger.quarantine(3, "damaged record, never hydrated".to_string());
        ledger.quarantine(4, "query panicked".to_string());

        // (state, dirty, encodable, repointable [= healable, and evictable
        // while hydrated], freezes checkpoints)
        let want = [
            ("clean", false, false, true, false),
            ("written since", true, true, false, false),
            ("damaged record, resident", true, true, false, false),
            ("damaged record, never hydrated", false, false, false, false),
            ("panic-quarantined, dirty", true, false, false, true),
            ("index past the end", true, true, false, false),
        ];
        for (i, (state, dirty, encodable, repointable, freezes)) in want.into_iter().enumerate() {
            let v = versions[i];
            assert_eq!(ledger.dirty(i, v), dirty, "{state}: dirty");
            assert_eq!(ledger.encodable(i, v), encodable, "{state}: encodable");
            assert_eq!(
                ledger.repointable(i, v).is_some(),
                repointable,
                "{state}: repointable"
            );
            // With every earlier chunk at its clean version, is this the
            // chunk that freezes checkpoints?
            let mut upto = vec![3; i];
            upto.push(v);
            let frozen_by = ledger.freezing(&upto).map(|(chunk, _)| chunk);
            assert_eq!(frozen_by == Some(i), freezes, "{state}: freezes");
        }
        assert_eq!(ledger.dirty_count(&versions), 4);
        assert_eq!(ledger.freezing(&versions).map(|(i, _)| i), Some(4));
        assert_eq!(ledger.segments().len(), 5);
        let quarantined: Vec<usize> = ledger.quarantined().map(|(i, _)| i).collect();
        assert_eq!(quarantined, [3, 4]);
    }

    /// A damage mark survives exactly the commits that keep pointing at
    /// the damaged record, whether it landed before capture or while the
    /// job was in flight.
    #[test]
    fn damage_outlives_a_commit_that_reused_the_record() {
        let mut ledger = Ledger::default();
        ledger.commit(vec![entry(1), entry(1)], &[0, 0]);
        ledger.mark_damaged(0);
        ledger.mark_damaged(1);
        // A stale finding (no such record) marks nothing.
        ledger.mark_damaged(9);
        // Chunk 0 was re-encoded into segment 2; chunk 1 was reused.
        ledger.commit(vec![entry(2), entry(1)], &[0, 0]);
        assert!(!ledger.dirty(0, 0), "a fresh record heals");
        assert!(ledger.dirty(1, 0), "the damaged record is still referenced");
        // A quarantine past the end (a panic in a chunk no checkpoint has
        // covered) is kept, and survives the commit that first covers it.
        ledger.quarantine(2, "first".to_string());
        ledger.quarantine(2, "second".to_string());
        assert!(ledger.dirty(2, 0) && !ledger.encodable(2, 0));
        ledger.commit(vec![entry(3), entry(3), entry(3)], &[0, 0, 1]);
        assert_eq!(ledger.quarantined().collect::<Vec<_>>(), [(2, "first")]);
        assert!(!ledger.dirty(1, 0) && ledger.repointable(2, 1).is_none());
    }

    /// Which chains a patch may extend: an intact record captured at or
    /// after the chunk's last rebuild. A damage mark survives a patch
    /// appended in flight (the damaged record is still in the chain) and
    /// is cleared by a fresh full record.
    #[test]
    fn patch_base_needs_an_intact_chain_of_the_current_layout() {
        let mut ledger = Ledger::default();
        ledger.commit(vec![entry(1), entry(1)], &[4, 4]);
        assert!(ledger.patch_base(0, 4).is_some(), "captured at the rebuild");
        assert!(ledger.patch_base(0, 0).is_some(), "captured after it");
        assert!(ledger.patch_base(0, 5).is_none(), "rebuilt since capture");
        assert!(ledger.patch_base(2, 0).is_none(), "no record yet");

        ledger.mark_damaged(0);
        assert!(ledger.patch_base(0, 0).is_none(), "damaged: write whole");
        let mut patched = entry(1);
        patched.patches.push(record(2));
        ledger.commit(vec![patched, entry(3)], &[5, 5]);
        assert!(ledger.dirty(0, 5), "the patch kept the damaged record");
        assert_eq!(ledger.segments().into_iter().collect::<Vec<_>>(), [1, 2, 3]);
        ledger.commit(vec![entry(4), entry(3)], &[6, 5]);
        assert!(!ledger.dirty(0, 6) && ledger.patch_base(0, 0).is_some());
    }
}

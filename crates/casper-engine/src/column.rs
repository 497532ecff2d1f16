//! Chunked columns: the engine's horizontal unit of scale.
//!
//! "Each column is not a single contiguous column; instead, it is a
//! collection of column chunks, each one stored and managed separately"
//! (§7). Ordered modes range-partition the key domain across chunks (a
//! fence per chunk routes operations); the `NoOrder` baseline has no
//! ordering invariant, so its reads and deletes must broadcast to every
//! chunk — which is precisely why it loses on point-query workloads.
//!
//! # Shared-read concurrency
//!
//! Chunks are held as [`Arc<ChunkSlot>`]: a sealed chunk is an immutable
//! shared value that any number of reader threads can scan without
//! coordination. Writers keep `&mut` access through [`ChunkedColumn`] —
//! when a chunk's `Arc` is shared with a published snapshot the writer
//! clones it first (copy-on-write) and mutates the fresh copy, then
//! republishes. Every write goes through one entry point,
//! [`ChunkedColumn::apply_writes`], which applies a run of writes serially
//! and publishes once at its end: one write for `Table::execute`, a whole
//! write set for a transaction commit. Readers obtain an
//! [`Arc<ColumnSnapshot>`] from the column's [`SnapshotCell`] (one pin per
//! query) and run Q1/Q2/Q3/`q3_sum_where` against it lock-free;
//! reclamation is plain `Arc` refcounting — the last pin of a superseded
//! snapshot frees it. See `docs/concurrency.md` for the full protocol.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::exec::parallel_map;
use crate::governor::QueryCtx;
use crate::modes::{EngineConfig, LayoutMode};
use crate::table::{QueryOutput, QueryResult};
use casper_core::FrequencyModel;
use casper_obs::CounterDef;
use casper_storage::ghost::GhostPlan;
use casper_storage::{
    sort_rows_by_key, BlockLayout, ChunkConfig, OpCost, PartitionSpec, PartitionedChunk,
    PayloadOrientation, SortedColumn, SortedDelta, StorageError, UpdatePolicy, MIN_TAIL_SLOTS,
};
use casper_workload::HapQuery;
use parking_lot::Mutex;

// Telemetry sites. Each is one relaxed atomic load while telemetry is
// disengaged (see `casper_obs`); metric names are the catalog entries in
// `docs/observability.md`.
static OBS_HYDRATIONS: CounterDef = CounterDef::new("casper_chunk_hydrations_total");
static OBS_COW_COPIES: CounterDef = CounterDef::new("casper_write_cow_chunk_copies_total");
static OBS_PUBLISHES: CounterDef = CounterDef::new("casper_snapshot_publishes_total");
static OBS_CHUNKS_ROUTED: CounterDef = CounterDef::new("casper_query_chunks_routed_total");
static OBS_CHUNKS_PRUNED: CounterDef = CounterDef::new("casper_query_chunks_pruned_total");

/// Record one read's chunk routing: `routed` chunks were scanned out of
/// `total`.
fn note_routed(routed: usize, total: usize) {
    OBS_CHUNKS_ROUTED.add(routed as u64);
    if routed < total {
        OBS_CHUNKS_PRUNED.add((total - routed) as u64);
    }
}

/// Storage behind one chunk, depending on the layout mode.
#[derive(Debug, Clone)]
pub enum ChunkStore {
    /// Range-partitioned chunk (NoOrder/Equi/EquiGV/Casper).
    Partitioned(PartitionedChunk<u64>),
    /// Fully sorted chunk (Sorted).
    Sorted(SortedColumn<u64>),
    /// Sorted chunk with a delta buffer (StateOfArt).
    Delta(SortedDelta<u64>),
}

impl ChunkStore {
    /// Live row count.
    pub fn len(&self) -> usize {
        match self {
            ChunkStore::Partitioned(c) => c.live_len(),
            ChunkStore::Sorted(c) => c.len(),
            ChunkStore::Delta(c) => c.len_estimate(),
        }
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes this decoded store keeps resident (slots, indexes,
    /// payloads) — the governor's budget unit.
    pub fn resident_bytes(&self) -> usize {
        match self {
            ChunkStore::Partitioned(c) => c.resident_bytes(),
            ChunkStore::Sorted(c) => c.resident_bytes(),
            ChunkStore::Delta(c) => c.resident_bytes(),
        }
    }

    /// How the store lays out its payload rows: a partitioned chunk's own
    /// orientation; the sorted designs keep theirs column-major.
    pub(crate) fn payload_orientation(&self) -> PayloadOrientation {
        match self {
            ChunkStore::Partitioned(p) => p.payload_orientation(),
            ChunkStore::Sorted(_) | ChunkStore::Delta(_) => PayloadOrientation::Columns,
        }
    }

    /// Q1: the `cols` payload attributes of every live row with key `v`.
    fn point_rows(&self, v: u64, cols: &[usize]) -> (Vec<Vec<u32>>, OpCost) {
        match self {
            ChunkStore::Partitioned(p) => {
                let r = p.point_query(v);
                let rows = r.positions.into_iter();
                let rows = rows.map(|pos| p.payloads().gather_row(pos, cols));
                (rows.collect(), r.cost)
            }
            ChunkStore::Sorted(s) => {
                let (range, cost) = s.point_query(v);
                (range.map(|pos| s.gather_row(pos, cols)).collect(), cost)
            }
            ChunkStore::Delta(d) => d.point_rows(v, cols),
        }
    }

    /// Q2: count of live rows with key in `[lo, hi)`.
    fn range_count(&self, lo: u64, hi: u64) -> (u64, OpCost) {
        match self {
            ChunkStore::Partitioned(p) => p.range_count(lo, hi),
            ChunkStore::Sorted(s) => s.range_count(lo, hi),
            ChunkStore::Delta(d) => d.range_count(lo, hi),
        }
    }

    /// Q3: sum of the `cols` payload columns over rows with key in
    /// `[lo, hi)`.
    fn range_sum(&self, lo: u64, hi: u64, cols: &[usize]) -> (u64, OpCost) {
        match self {
            ChunkStore::Partitioned(p) => p.range_sum_payload(lo, hi, cols),
            ChunkStore::Sorted(s) => s.range_sum_payload(lo, hi, cols),
            ChunkStore::Delta(d) => d.range_sum_payload(lo, hi, cols),
        }
    }

    /// The §6.4 multi-column scan: sum `sum_cols` over rows whose key lies
    /// in `[lo, hi)` and whose `pred_col` attribute lies in
    /// `[pred_lo, pred_hi)`. `block_bytes` prices the payload passes.
    #[allow(clippy::too_many_arguments)]
    fn range_sum_where(
        &self,
        lo: u64,
        hi: u64,
        sum_cols: &[usize],
        pred_col: usize,
        pred_lo: u32,
        pred_hi: u32,
        block_bytes: usize,
    ) -> (u64, OpCost) {
        // A sorted store's rows in `range`: the sum of their `sum_cols`
        // where the predicate attribute passes.
        let sorted_sum = |s: &SortedColumn<u64>, range: std::ops::Range<usize>| -> u64 {
            let rows = range.filter(|&pos| (pred_lo..pred_hi).contains(&s.payload(pred_col, pos)));
            let row = |pos| {
                sum_cols
                    .iter()
                    .map(|&c| u64::from(s.payload(c, pos)))
                    .sum::<u64>()
            };
            rows.map(row).sum()
        };
        match self {
            ChunkStore::Partitioned(p) => {
                let mut pc = casper_storage::ops::PositionsConsumer::default();
                let r = p.range_query(lo, hi, &mut pc);
                let mut cost = r.cost;
                let payloads = p.payloads();
                let positions = pc.positions.iter().copied();
                let positions = positions.chain(pc.runs.iter().flat_map(|r| r.clone()));
                let (sum, passed) =
                    payloads.sum_where(positions, sum_cols, pred_col, pred_lo..pred_hi);
                // One sequential pass over the predicate attribute plus the
                // summed ones for the qualifying rows, in blocks of 4-byte
                // words: one column per attribute column-major, the
                // qualifying rows whole row-major.
                cost.seq_reads += payloads.scan_blocks(1 + sum_cols.len(), passed, block_bytes);
                (sum, cost)
            }
            ChunkStore::Sorted(s) => {
                let (range, mut cost) = s.range_query(lo, hi);
                cost.seq_reads += cost.seq_reads * (1 + sum_cols.len() as u64);
                (sorted_sum(s, range), cost)
            }
            ChunkStore::Delta(d) => {
                // Evaluate the main column, then replay the delta buffer —
                // the read-path overhead delta stores impose (§1).
                let (range, cost) = d.main().range_query(lo, hi);
                let sum = i128::from(sorted_sum(d.main(), range))
                    + d.replay_sum_where(lo, hi, sum_cols, pred_col, pred_lo, pred_hi);
                (sum.max(0) as u64, cost)
            }
        }
    }

    /// Every live row, sorted by key: keys plus column-major payloads (the
    /// optimizer's input; a delta store is read as if merged).
    pub(crate) fn live_sorted(&self) -> (Vec<u64>, Vec<Vec<u32>>) {
        match self {
            ChunkStore::Partitioned(p) => p.extract_live_sorted(),
            ChunkStore::Sorted(s) => s.to_parts(),
            ChunkStore::Delta(d) => {
                let mut d = d.clone();
                d.force_merge();
                d.main().to_parts()
            }
        }
    }

    /// Q4: insert a row, growing a full partitioned chunk once ("if no
    /// empty slots are available, the column is expanded", §3) by one
    /// reserve: `slack` × its live rows, at least [`MIN_TAIL_SLOTS`].
    fn insert(&mut self, key: u64, payload: &[u32], slack: f64) -> Result<OpCost, StorageError> {
        match self {
            ChunkStore::Partitioned(p) => match p.insert(key, payload) {
                Ok(r) => Ok(r.cost),
                Err(StorageError::ChunkFull { .. }) => {
                    let extra = (p.live_len() as f64 * slack).ceil() as usize;
                    p.grow(extra.max(MIN_TAIL_SLOTS));
                    Ok(p.insert(key, payload)?.cost)
                }
                Err(e) => Err(e),
            },
            ChunkStore::Sorted(s) => Ok(s.insert(key, payload)),
            ChunkStore::Delta(d) => Ok(d.insert(key, payload)),
        }
    }

    /// Q5: delete every row with key `v`.
    fn delete(&mut self, v: u64) -> (u64, OpCost) {
        match self {
            ChunkStore::Partitioned(p) => {
                let r = p.delete(v);
                (r.affected, r.cost)
            }
            ChunkStore::Sorted(s) => s.delete(v),
            ChunkStore::Delta(d) => {
                // One tombstone per live row (a tombstone hides one row).
                let (n, mut cost) = d.point_count(v);
                for _ in 0..n {
                    cost.absorb(d.delete(v));
                }
                (n, cost)
            }
        }
    }

    /// Take exactly one row with key `v` out of the store, returning its
    /// full payload row. Every store removes only one match, so duplicates
    /// survive a move.
    fn take_one(&mut self, v: u64) -> (Option<Vec<u32>>, OpCost) {
        match self {
            ChunkStore::Partitioned(p) => {
                let (row, r) = p.take_one(v);
                (row, r.cost)
            }
            ChunkStore::Sorted(s) => s.take_one(v),
            ChunkStore::Delta(d) => d.take_one(v),
        }
    }

    /// Q6, the single definition: move one row with key `old` to key `new`
    /// inside this store, payload included. A partitioned chunk ripples
    /// directly between the two partitions (§3); every other store takes
    /// the row out and places it back under the new key.
    fn update(&mut self, old: u64, new: u64, slack: f64) -> Result<(u64, OpCost), StorageError> {
        if let ChunkStore::Partitioned(p) = self {
            let r = p.update(old, new)?;
            return Ok((r.affected, r.cost));
        }
        let (row, mut cost) = self.take_one(old);
        let Some(row) = row else {
            return Ok((0, cost));
        };
        cost.absorb(self.insert(new, &row, slack)?);
        Ok((1, cost))
    }

    /// Apply one write whose keys all route to this store — the one
    /// per-chunk applier behind [`ChunkedColumn::apply_writes`]. A full
    /// partitioned chunk grows by `slack` × its live rows. Returns
    /// `(rows_affected, cost)`.
    fn apply(&mut self, op: WriteOp<'_>, slack: f64) -> Result<(u64, OpCost), StorageError> {
        match op {
            WriteOp::Insert { key, payload } => self.insert(key, payload, slack).map(|c| (1, c)),
            WriteOp::Delete { key } => Ok(self.delete(key)),
            WriteOp::Update { old, new } => self.update(old, new, slack),
        }
    }
}

/// One chunk position's access record, the one count of how much traffic
/// the chunk gets: the FM drift gauges and the governor's victim order
/// both read it. Every slot standing for the same position shares the
/// record — its copy-on-write successors, the lazy slot an eviction or a
/// re-point leaves, every published snapshot — so a reader of an older
/// snapshot counts where the writer does. Padded to a cache line:
/// neighbouring chunks are hit by different reader threads in the same
/// instant.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ChunkAccess {
    /// Reads and writes routed to the chunk since its layout was installed.
    observed: AtomicU64,
    /// The installed layout's Frequency Model `total_mass()`, as `f64`
    /// bits: the access count the layout was solved for.
    predicted: AtomicU64,
    /// `observed` at the governor's last budget check; written only by
    /// [`ChunkSlot::take_recent_accesses`].
    seen: AtomicU64,
}

/// Deferred chunk loader: reads, checksum-verifies and decodes the store
/// from its persisted segment on first touch. A `Fn`, so a failed load
/// (a transient read error) can be retried by the next touch.
pub type ChunkLoader = Box<dyn Fn() -> Result<ChunkStore, StorageError> + Send + Sync>;

/// One chunk position of a column: either an already-decoded [`ChunkStore`]
/// or a pending loader over a persisted segment (lazy restore: the
/// segments are open, and each record is read and verified at first
/// touch), which hydrates in place on first access.
///
/// Hydration works through `&self` — a `OnceLock` fill — so every holder of
/// the same `Arc<ChunkSlot>` (the writer column *and* any published
/// [`ColumnSnapshot`]) observes the decoded store the moment it lands, with
/// no republish needed. Only the live row count is known eagerly; `len`
/// serves it without forcing the decode.
pub struct ChunkSlot {
    store: OnceLock<ChunkStore>,
    lazy: Mutex<Option<ChunkLoader>>,
    live: usize,
    access: Arc<ChunkAccess>,
}

impl ChunkSlot {
    /// Wrap an already-decoded store.
    pub fn new(store: ChunkStore) -> Self {
        let live = store.len();
        let cell = OnceLock::new();
        let _ = cell.set(store);
        Self {
            store: cell,
            lazy: Mutex::new(None),
            live,
            access: Arc::default(),
        }
    }

    /// Wrap a deferred loader; `live` is the store's live row count
    /// (served by [`ChunkSlot::len`] before hydration).
    pub fn new_lazy(live: usize, loader: ChunkLoader) -> Self {
        Self {
            store: OnceLock::new(),
            lazy: Mutex::new(Some(loader)),
            live,
            access: Arc::default(),
        }
    }

    /// The decoded store, hydrating from the persisted segment on first
    /// call. Checksum/decoding damage surfaces as [`StorageError::Corrupt`],
    /// a failed read as [`StorageError::Io`]. The loader is kept until a
    /// load succeeds, so every touch after a failure tries again.
    pub fn get(&self) -> Result<&ChunkStore, StorageError> {
        if let Some(s) = self.store.get() {
            return Ok(s);
        }
        let mut lazy = self.lazy.lock();
        if let Some(s) = self.store.get() {
            return Ok(s);
        }
        // Only `new_lazy` builds an unhydrated slot, and its loader is
        // dropped only once the store is set.
        let loader = lazy.as_ref().expect("an unhydrated slot keeps its loader");
        let store = loader()?;
        OBS_HYDRATIONS.inc();
        if store.len() != self.live {
            return Err(StorageError::Corrupt {
                reason: format!(
                    "segment decodes to {} live rows but the manifest says {}",
                    store.len(),
                    self.live
                ),
            });
        }
        // The loader may hold open segment handles; they go with it.
        *lazy = None;
        Ok(self.store.get_or_init(move || store))
    }

    /// The decoded store if this slot is already hydrated.
    pub fn store_opt(&self) -> Option<&ChunkStore> {
        self.store.get()
    }

    /// Count one read or write routed to this chunk.
    #[inline]
    fn note_access(&self) {
        self.access.observed.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads and writes routed to this chunk position since its layout
    /// was installed (by load, restore or re-layout).
    pub fn accesses(&self) -> u64 {
        self.access.observed.load(Ordering::Relaxed)
    }

    /// The access count the installed layout's Frequency Model predicted;
    /// 0 until a layout is solved for the chunk.
    pub fn predicted_accesses(&self) -> f64 {
        f64::from_bits(self.access.predicted.load(Ordering::Relaxed))
    }

    /// Accesses since the previous call, which starts a new interval: the
    /// recent access mass the governor's eviction pass orders victims by.
    /// Called once per budget check, by that check only.
    pub fn take_recent_accesses(&self) -> u64 {
        let now = self.accesses();
        let seen = self.access.seen.load(Ordering::Relaxed);
        self.access.seen.store(now, Ordering::Relaxed);
        now.saturating_sub(seen)
    }

    /// Resident heap bytes of the decoded store; 0 while unhydrated (a
    /// pending loader keeps no decoded data alive).
    pub fn resident_bytes(&self) -> usize {
        self.store.get().map_or(0, ChunkStore::resident_bytes)
    }

    /// Whether the store has been decoded from its segment.
    pub fn is_hydrated(&self) -> bool {
        self.store.get().is_some()
    }

    /// Live row count (known without hydration).
    pub fn len(&self) -> usize {
        self.store.get().map_or(self.live, ChunkStore::len)
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable store access through a slot `Arc` the column has made
    /// unique (it copy-on-writes shared slots before calling), hydrating
    /// first.
    fn unique_store(slot: &mut Arc<Self>) -> Result<&mut ChunkStore, StorageError> {
        let slot = Arc::get_mut(slot).ok_or_else(|| StorageError::Corrupt {
            reason: "chunk slot still shared after copy-on-write".to_string(),
        })?;
        slot.get()?;
        slot.store.get_mut().ok_or_else(|| StorageError::Corrupt {
            reason: "hydrated slot lost its store".to_string(),
        })
    }
}

impl std::fmt::Debug for ChunkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkSlot")
            .field("live", &self.len())
            .field("hydrated", &self.is_hydrated())
            .finish()
    }
}

/// One column's state at a publish point — the chunk `Arc`s, the routing
/// fences, the engine configuration — and the whole read side over it.
/// The live [`ChunkedColumn`] holds exactly one of these (and dereferences
/// to it); publishing clones it. Readers scan a published clone lock-free
/// on any number of threads; a writer that has published a newer snapshot
/// never mutates these chunks (copy-on-write), so the data a pin observes
/// is stable for the pin's lifetime. Every read hydrates the slots it
/// routes to (serially, before the parallel scan) and surfaces decode
/// damage as a typed error.
#[derive(Debug, Clone)]
pub struct ColumnSnapshot {
    chunks: Vec<Arc<ChunkSlot>>,
    /// Inclusive upper key fence per chunk (ordered modes); `None` for
    /// `NoOrder`, which broadcasts.
    fences: Option<Vec<u64>>,
    config: EngineConfig,
    payload_width: usize,
}

impl ColumnSnapshot {
    /// Split rows into `config.chunk_values`-sized stores of the
    /// configured mode. Ordered modes co-sort globally first (a no-op for
    /// rows that arrive sorted), so chunks partition the key domain behind
    /// one fence each. Each chunk is built from its slice of the rows, the
    /// chunks in parallel on `config.threads`.
    fn build(mut keys: Vec<u64>, mut payload_cols: Vec<Vec<u32>>, config: EngineConfig) -> Self {
        assert!(!keys.is_empty(), "cannot load an empty column");
        for c in &payload_cols {
            assert_eq!(c.len(), keys.len(), "payload column length mismatch");
        }
        let ordered = config.mode != LayoutMode::NoOrder;
        if ordered {
            if let Some((sorted, cols)) = sort_rows_by_key(&keys, &payload_cols) {
                (keys, payload_cols) = (sorted, cols);
            }
        }
        let per = config.chunk_values.max(1);
        let rows: Vec<Range<usize>> = (0..keys.len())
            .step_by(per)
            .map(|start| start..(start + per).min(keys.len()))
            .collect();
        let fences = rows.iter().map(|r| keys[r.end - 1]).collect();
        let chunks = parallel_map(&rows, config.threads, |_, range| {
            let payloads: Vec<&[u32]> = payload_cols.iter().map(|c| &c[range.clone()]).collect();
            Arc::new(ChunkSlot::new(build_chunk(
                &keys[range.clone()],
                &payloads,
                &config,
            )))
        });
        Self {
            chunks,
            fences: ordered.then_some(fences),
            config,
            payload_width: payload_cols.len(),
        }
    }

    /// Total live rows.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|s| s.len()).sum()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Payload column count.
    pub fn payload_width(&self) -> usize {
        self.payload_width
    }

    /// Immutable chunk access (optimizer, persistence, tests). Slots
    /// dereference to their store via [`ChunkSlot::get`] (hydrating) or
    /// [`ChunkSlot::store_opt`].
    pub fn chunks(&self) -> &[Arc<ChunkSlot>] {
        &self.chunks
    }

    /// Inclusive per-chunk upper key fences (`None` for `NoOrder`, which
    /// broadcasts). Exposed for persistence.
    pub fn fences(&self) -> Option<&[u64]> {
        self.fences.as_deref()
    }

    /// Resident heap bytes across all hydrated chunk stores (the
    /// governor's budget measure). A cheap walk: unhydrated slots report
    /// zero without decoding anything.
    pub fn resident_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.resident_bytes()).sum()
    }

    /// Route a key to its owning chunk (`None` = broadcast column).
    /// Public for panic attribution: a governed query that panics on a
    /// point-shaped operation reports the chunk it routed to.
    pub fn route_for(&self, key: u64) -> Option<usize> {
        self.fences
            .as_ref()
            .map(|f| f.partition_point(|&b| b < key).min(f.len() - 1))
    }

    /// Start each chunk's access window for a layout solved against `fms`,
    /// one model per chunk: `observed` and `seen` go to 0 and `predicted`
    /// to the model's total mass. Models for another chunk count describe
    /// another chunking and seed nothing.
    pub(crate) fn start_access_windows(&self, fms: &[FrequencyModel]) {
        if fms.len() != self.chunks.len() {
            return;
        }
        for (slot, fm) in self.chunks.iter().zip(fms) {
            let access = &slot.access;
            access.observed.store(0, Ordering::Relaxed);
            access.seen.store(0, Ordering::Relaxed);
            let predicted = fm.total_mass().to_bits();
            access.predicted.store(predicted, Ordering::Relaxed);
        }
    }

    /// Decode chunk `i` from its segment if it has not hydrated yet.
    /// Checksum/decoding damage surfaces as [`StorageError::Corrupt`];
    /// hydration does not mark the chunk dirty.
    pub fn hydrate_chunk(&self, i: usize) -> Result<(), StorageError> {
        self.chunks[i].get().map(|_| ())
    }

    /// Hydrate every remaining unloaded chunk.
    pub fn hydrate_all(&self) -> Result<(), StorageError> {
        for i in 0..self.chunks.len() {
            self.hydrate_chunk(i)?;
        }
        Ok(())
    }

    /// Pre-flight for all-or-nothing callers (a transaction's write set):
    /// hydrate the chunks write `q` routes to, so decode damage surfaces
    /// before anything is applied. Single queries need no pre-flight —
    /// reads hydrate the slots they scan and writes the chunk they mutate.
    pub fn hydrate_for_query(&self, q: &HapQuery) -> Result<(), StorageError> {
        use casper_core::Op;
        match q.key_op() {
            Op::Point(v) | Op::Insert(v) | Op::Delete(v) => self.hydrate_key(v),
            Op::Update(old, new) => {
                self.hydrate_key(old)?;
                self.hydrate_key(new)
            }
            Op::Range(..) => Ok(()),
        }
    }

    /// Hydrate the chunk owning `v` (all chunks for broadcast columns).
    fn hydrate_key(&self, v: u64) -> Result<(), StorageError> {
        match self.route_for(v) {
            Some(c) => self.hydrate_chunk(c),
            None => self.hydrate_all(),
        }
    }
}

/// The publication point readers subscribe to: holds the current
/// [`ColumnSnapshot`] behind a mutex that is only ever held for a pointer
/// clone (pin) or a pointer store (publish) — an arc-swap built from std
/// parts, chosen over an epoch scheme because `Arc` refcounts already give
/// deferred reclamation without a third-party crate (see
/// `docs/concurrency.md`).
pub struct SnapshotCell {
    current: Mutex<Arc<ColumnSnapshot>>,
    version: AtomicU64,
}

impl SnapshotCell {
    fn new(snapshot: ColumnSnapshot) -> Self {
        Self {
            current: Mutex::new(Arc::new(snapshot)),
            version: AtomicU64::new(0),
        }
    }

    /// Pin the current snapshot: one mutex-protected pointer clone, after
    /// which the reader runs entirely lock-free against immutable chunks.
    pub fn pin(&self) -> Arc<ColumnSnapshot> {
        self.current.lock().clone()
    }

    /// Monotone publish counter (one tick per publish: one per write, one
    /// per committed transaction).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn publish(&self, snapshot: ColumnSnapshot) {
        *self.current.lock() = Arc::new(snapshot);
        self.version.fetch_add(1, Ordering::Release);
        OBS_PUBLISHES.inc();
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("version", &self.version())
            .finish()
    }
}

/// A key column split into range chunks, with slot-aligned payload columns
/// inside each chunk: the current [`ColumnSnapshot`] (which it dereferences
/// to — the read side is defined once, there) plus the write side.
#[derive(Debug)]
pub struct ChunkedColumn {
    state: ColumnSnapshot,
    /// Per-chunk modification counters: every write, ripple or optimizer
    /// re-layout that touches a chunk bumps its counter, so a persistence layer can diff two counter
    /// snapshots and enumerate exactly the chunks dirtied in between
    /// (incremental checkpointing). Hydration does **not** bump — decoding
    /// a persisted chunk changes nothing logically. Monotone for the life
    /// of the column: a re-layout that changes the chunk count starts every
    /// new counter above all old ones ([`Self::convert_to_ordered`]).
    versions: Vec<u64>,
    /// Per chunk, the version at which its store was last built from rows
    /// (load, restore, re-layout) rather than written in place. A durable
    /// record captured at a lower version describes another physical
    /// layout: it can be replaced, never extended ([`Self::rebuilt_at`]).
    rebuilt: Vec<u64>,
    /// Engaged lazily by the first [`ChunkedColumn::snapshot_cell`] call;
    /// until then every chunk `Arc` is unique and writes mutate in place
    /// with zero copy-on-write cost (the serial-execution fast path).
    snapshots: OnceLock<Arc<SnapshotCell>>,
}

impl std::ops::Deref for ChunkedColumn {
    type Target = ColumnSnapshot;

    fn deref(&self) -> &ColumnSnapshot {
        &self.state
    }
}

impl ChunkedColumn {
    /// Load a column: keys plus column-major payloads (each payload column
    /// exactly as long as `keys`).
    pub fn load(keys: Vec<u64>, payload_cols: Vec<Vec<u32>>, config: EngineConfig) -> Self {
        let state = ColumnSnapshot::build(keys, payload_cols, config);
        Self {
            versions: vec![0; state.chunks.len()],
            rebuilt: vec![0; state.chunks.len()],
            state,
            snapshots: OnceLock::new(),
        }
    }

    /// Reassemble a column from restored chunk slots (snapshot recovery).
    /// The chunks arrive exactly as they were persisted — already
    /// partitioned and ghost-buffered — so no re-sort or re-partition
    /// happens here. `fms` are the Frequency Models the persisted layout
    /// was solved for; one per chunk seeds each chunk's predicted
    /// accesses ([`ChunkSlot::predicted_accesses`]).
    ///
    /// # Panics
    /// Panics when `chunks` is empty or `fences` disagrees with the chunk
    /// count (persist callers validate first and surface typed errors).
    pub fn from_restored(
        chunks: Vec<ChunkSlot>,
        fences: Option<Vec<u64>>,
        config: EngineConfig,
        payload_width: usize,
        fms: &[FrequencyModel],
    ) -> Self {
        assert!(!chunks.is_empty(), "a column needs at least one chunk");
        if let Some(f) = &fences {
            assert_eq!(f.len(), chunks.len(), "one fence per chunk");
        }
        let state = ColumnSnapshot {
            chunks: chunks.into_iter().map(Arc::new).collect(),
            fences,
            config,
            payload_width,
        };
        state.start_access_windows(fms);
        Self {
            versions: vec![0; state.chunks.len()],
            rebuilt: vec![0; state.chunks.len()],
            state,
            snapshots: OnceLock::new(),
        }
    }

    /// Re-chunk an unordered (`NoOrder`) column in key order, in place:
    /// every live row is re-loaded into `Casper`-mode chunks that
    /// range-partition the key domain. The column keeps its identity —
    /// the engaged [`SnapshotCell`] (readers see the conversion as one
    /// more publish) and its version history: whatever the new chunk count
    /// is, every new counter starts strictly above the largest the column
    /// has ever held, so each rebuilt chunk reads as written-since against
    /// any earlier counter snapshot. Same publish contract as
    /// [`ChunkedColumn::evict_chunk`]: the caller publishes once its pass
    /// is over (publishing here would share every new slot with a snapshot
    /// and make the optimizer's rebuild copy-on-write the whole table).
    pub(crate) fn convert_to_ordered(&mut self) -> Result<(), StorageError> {
        let rows = self.len();
        let mut keys = Vec::with_capacity(rows);
        let mut cols = vec![Vec::with_capacity(rows); self.state.payload_width];
        for slot in &self.state.chunks {
            let (k, p) = slot.get()?.live_sorted();
            keys.extend(k);
            for (dst, src) in cols.iter_mut().zip(p) {
                dst.extend(src);
            }
        }
        let mut config = self.state.config;
        config.mode = LayoutMode::Casper;
        self.state = ColumnSnapshot::build(keys, cols, config);
        let floor = self.versions.iter().max().map_or(0, |v| v + 1);
        self.versions = vec![floor; self.state.chunks.len()];
        self.rebuilt = self.versions.clone();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshot publication
    // ------------------------------------------------------------------

    /// The column's publication cell, engaging snapshot mode on first call
    /// (from then on every write republishes). Readers clone the returned
    /// `Arc` and [`SnapshotCell::pin`] per query.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell> {
        self.snapshots
            .get_or_init(|| Arc::new(SnapshotCell::new(self.state.clone())))
            .clone()
    }

    /// Publish the current state to readers. A no-op until
    /// [`ChunkedColumn::snapshot_cell`] has engaged snapshot mode; after
    /// that it is one `Vec` of `Arc` clones plus a pointer store. Writes
    /// publish on their own; callers of [`ChunkedColumn::evict_chunk`] /
    /// [`ChunkedColumn::repoint_chunk`] publish once per pass.
    pub fn publish(&self) {
        if let Some(cell) = self.snapshots.get() {
            cell.publish(self.state.clone());
        }
    }

    // ------------------------------------------------------------------
    // Dirty tracking + lazy hydration
    // ------------------------------------------------------------------

    /// Per-chunk modification counters (parallel to [`Self::chunks`]).
    /// A persistence layer snapshots this at checkpoint time; a chunk is
    /// dirty iff its counter differs from the snapshot.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Per-chunk rebuild versions (parallel to [`Self::versions`]): the
    /// version each chunk's store was last built at from scratch. A
    /// persistence layer may extend a chunk's record with the slots written
    /// since only if the record was captured at or above this version.
    pub fn rebuilt_at(&self) -> &[u64] {
        &self.rebuilt
    }

    /// Record a modification of chunk `i` (write, ripple, storage-mode
    /// change or re-layout).
    #[inline]
    fn touch(&mut self, i: usize) {
        self.versions[i] += 1;
    }

    /// Demote hydrated chunk `i` back to an unloaded lazy slot re-pointed
    /// at its persisted record (`loader` decodes it on next touch).
    /// Returns `false` (consuming nothing) when the slot is not hydrated.
    ///
    /// The old `Arc<ChunkSlot>` is only *unlinked*, not freed: published
    /// snapshots and in-flight pins keep it alive until their refcounts
    /// drop — which is exactly what keeps concurrent readers correct while
    /// the governor evicts underneath them. The chunk's version is **not**
    /// bumped (its logical content is unchanged; eviction must not dirty
    /// it for the incremental checkpointer). Callers are responsible for
    /// eligibility (clean + persisted + not quarantined) and must
    /// [`ChunkedColumn::publish`] once per eviction pass so new pins
    /// stop holding the hydrated copies.
    pub fn evict_chunk(&mut self, i: usize, loader: ChunkLoader) -> bool {
        if !self.state.chunks[i].is_hydrated() {
            return false;
        }
        let live = self.state.chunks[i].len();
        self.replace_slot(i, ChunkSlot::new_lazy(live, loader));
        true
    }

    /// Replace chunk `i`'s slot with a fresh lazy slot of `live` rows
    /// backed by `loader`, regardless of the old slot's hydration state.
    /// This is the panic-containment primitive: after a query panics in a
    /// clean, persisted chunk, the suspect in-memory state (or a poisoned
    /// lazy slot) is discarded and the chunk re-points at its last durable
    /// record. Same version / publish contract as
    /// [`ChunkedColumn::evict_chunk`].
    pub fn repoint_chunk(&mut self, i: usize, live: usize, loader: ChunkLoader) {
        self.replace_slot(i, ChunkSlot::new_lazy(live, loader));
    }

    /// Put `slot` at chunk position `i`, where it takes over the
    /// position's access record.
    fn replace_slot(&mut self, i: usize, mut slot: ChunkSlot) {
        slot.access = Arc::clone(&self.state.chunks[i].access);
        self.state.chunks[i] = Arc::new(slot);
    }

    /// Make chunk `i` uniquely owned and hydrated: when its `Arc` is shared
    /// with a published snapshot, clone the store into a fresh slot
    /// (copy-on-write) so the snapshot's copy stays frozen.
    fn ensure_unique(&mut self, i: usize) -> Result<(), StorageError> {
        self.state.chunks[i].get()?;
        if Arc::get_mut(&mut self.state.chunks[i]).is_none() {
            let cloned = self.state.chunks[i].get()?.clone();
            self.replace_slot(i, ChunkSlot::new(cloned));
            OBS_COW_COPIES.inc();
        }
        Ok(())
    }

    /// Mutable access to chunk `i`'s store, hydrating and copy-on-writing
    /// as needed. Does **not** bump the version — callers [`Self::touch`]
    /// on logical modification.
    fn chunk_mut(&mut self, i: usize) -> Result<&mut ChunkStore, StorageError> {
        self.ensure_unique(i)?;
        ChunkSlot::unique_store(&mut self.state.chunks[i])
    }

    /// Mutable access to every chunk store (optimizer rebuild).
    /// Conservatively marks every chunk dirty and rebuilt: the optimizer
    /// rewrites stores through the returned borrows, which give no way to
    /// observe which ones it touched.
    pub(crate) fn chunks_mut(&mut self) -> Result<Vec<&mut ChunkStore>, StorageError> {
        for i in 0..self.state.chunks.len() {
            self.ensure_unique(i)?;
        }
        for v in &mut self.versions {
            *v += 1;
        }
        self.rebuilt = self.versions.clone();
        let slots = self.state.chunks.iter_mut();
        slots.map(ChunkSlot::unique_store).collect()
    }

    /// Best-effort ghost prefetch for `key`'s owning chunk (§6.1 decoupled
    /// rippling): routes the key, skips unhydrated or non-partitioned
    /// stores, and dirties only the chunk it actually touches — a
    /// transactional insert must not mark the whole table dirty for the
    /// incremental checkpointer. Unpublished: a prefetch moves no row, so
    /// the commit's one publish covers it.
    pub(crate) fn prefetch_ghosts_for_key(&mut self, key: u64, count: usize) {
        let target = match self.route_for(key) {
            // Ordered column: prefetch only into the owning chunk, and only
            // if it is a hydrated partitioned store — planting ghosts for
            // an out-of-range key in some other chunk would dirty (and
            // re-checkpoint) a chunk that logically did not change.
            Some(routed) => matches!(
                self.state.chunks.get(routed).and_then(|s| s.store_opt()),
                Some(ChunkStore::Partitioned(_))
            )
            .then_some(routed),
            // NoOrder broadcasts: fall back to the first partitioned
            // chunk, matching the historical best-effort behavior.
            None => self
                .chunks
                .iter()
                .position(|c| matches!(c.store_opt(), Some(ChunkStore::Partitioned(_)))),
        };
        if let Some(i) = target {
            if let Ok(ChunkStore::Partitioned(chunk)) = self.chunk_mut(i) {
                // Prefetch may move slots, so the chunk is physically
                // dirty.
                chunk.prefetch_ghosts(key, count);
                self.touch(i);
            }
        }
    }

    fn maybe_raise_fence(&mut self, chunk: usize, key: u64) {
        if let Some(f) = self.state.fences.as_mut() {
            if key > f[chunk] {
                f[chunk] = key;
            }
        }
    }

    /// The one write entry point: apply `ops` (Q4/Q5/Q6) in order, calling
    /// `landed(i, (rows_affected, cost))` as op `i` lands, then publish to
    /// readers exactly once — after the first error too, since the ops
    /// before it have landed. Q6 moves the first row with key `old`; a
    /// cross-chunk Q6 takes exactly one row out of the source chunk, so
    /// duplicates survive as they do inside one chunk.
    pub(crate) fn apply_writes<'o>(
        &mut self,
        ops: impl IntoIterator<Item = WriteOp<'o>>,
        mut landed: impl FnMut(usize, (u64, OpCost)),
    ) -> Result<(), StorageError> {
        let out = ops.into_iter().enumerate().try_for_each(|(i, op)| {
            landed(i, self.apply_write_serial(op)?);
            Ok(())
        });
        self.publish();
        out
    }

    /// Apply one write operation, unpublished: route it, then hand it to
    /// the owning chunk's [`ChunkStore::apply`]. Only what spans chunks is
    /// decided here — the `NoOrder` broadcast and the cross-chunk Q6.
    fn apply_write_serial(&mut self, op: WriteOp<'_>) -> Result<(u64, OpCost), StorageError> {
        let (old, new) = match op {
            WriteOp::Insert { key, payload } => {
                // Refused here for every store kind, before any store sees
                // the row: a sorted store would panic on it, and a delta
                // buffer would keep it until a read of the row panicked.
                let expected = self.state.payload_width;
                if payload.len() != expected {
                    return Err(StorageError::PayloadArity {
                        expected,
                        got: payload.len(),
                    });
                }
                let chunk = self.route_for(key).unwrap_or_else(|| {
                    // NoOrder: append to the last chunk with capacity.
                    self.state
                        .chunks
                        .iter()
                        .rposition(|c| match c.store_opt() {
                            Some(ChunkStore::Partitioned(p)) => {
                                p.tail_free() > 0 || p.ghost_total() > 0
                            }
                            _ => true,
                        })
                        .unwrap_or(self.state.chunks.len() - 1)
                });
                return self.apply_in_chunk(chunk, op);
            }
            // A delete's source and target are the same key.
            WriteOp::Delete { key } => (key, key),
            WriteOp::Update { old, new } => (old, new),
        };
        match (self.route_for(old), self.route_for(new)) {
            (Some(from), Some(to)) if from == to => self.apply_in_chunk(from, op),
            (Some(from), Some(to)) => {
                // Cross-chunk Q6: move exactly one row — take the first
                // match out of the source chunk (duplicates stay put) and
                // insert it under the new key. The target hydrates first:
                // once the row has left the source, a target that fails to
                // decode would lose it.
                self.state.chunks[to].get()?;
                self.state.chunks[from].note_access();
                let (row, mut cost) = self.chunk_mut(from)?.take_one(old);
                let Some(row) = row else {
                    return Ok((0, cost));
                };
                self.touch(from);
                let payload = &row[..];
                let (_, c2) = self.apply_in_chunk(to, WriteOp::Insert { key: new, payload })?;
                cost.absorb(c2);
                Ok((1, cost))
            }
            _ => {
                // NoOrder broadcasts: a delete visits every chunk; an
                // update is local to the first chunk that holds the key.
                let mut total = (0u64, OpCost::default());
                for c in 0..self.state.chunks.len() {
                    let (n, cost) = self.apply_in_chunk(c, op)?;
                    total.0 += n;
                    total.1.absorb(cost);
                    if n > 0 && matches!(op, WriteOp::Update { .. }) {
                        break;
                    }
                }
                Ok(total)
            }
        }
    }

    /// Apply `op`, whose keys all route to chunk `c`, through the chunk's
    /// [`ChunkStore::apply`]; a chunk whose rows changed is marked dirty
    /// and its fence follows the largest key placed in it.
    fn apply_in_chunk(&mut self, c: usize, op: WriteOp<'_>) -> Result<(u64, OpCost), StorageError> {
        self.state.chunks[c].note_access();
        let slack = self.state.config.capacity_slack;
        let out = self.chunk_mut(c)?.apply(op, slack)?;
        if out.0 > 0 {
            self.touch(c);
        }
        if let WriteOp::Insert { key, .. } | WriteOp::Update { new: key, .. } = op {
            self.maybe_raise_fence(c, key);
        }
        Ok(out)
    }
}

/// The read path, shared by construction: the live [`ChunkedColumn`] runs
/// these on its current state and a reader on a published clone of it.
impl ColumnSnapshot {
    /// Execute read query `q` — the one Q1/Q2/Q3 dispatcher. Q1 gathers the
    /// first `k` payload attributes (clamped to the column's arity) of
    /// every row with key `v` (ordered modes probe exactly one chunk;
    /// `NoOrder` broadcasts), Q2 counts and Q3 sums the first `k` payload
    /// columns over rows with key in `[vs, ve)`, chunk-parallel when the
    /// range spans several chunks. `ctx` is checked at every chunk
    /// boundary (a default context is two `None` tests); a write query is
    /// rejected with [`StorageError::InvalidSpec`].
    pub fn read(&self, q: &HapQuery, ctx: &QueryCtx) -> Result<QueryOutput, StorageError> {
        let cols = |k: usize| (0..k.min(self.payload_width)).collect::<Vec<usize>>();
        let (result, cost) = match q {
            HapQuery::Q1 { v, k } => {
                let (rows, cost) = self.q1_point(*v, &cols(*k), ctx)?;
                (QueryResult::Rows(rows), cost)
            }
            HapQuery::Q2 { vs, ve } => {
                let (n, cost) = self.scan_chunks(*vs, *ve, ctx, |s| s.range_count(*vs, *ve))?;
                (QueryResult::Count(n), cost)
            }
            HapQuery::Q3 { vs, ve, k } => {
                let cols = cols(*k);
                let (sum, cost) =
                    self.scan_chunks(*vs, *ve, ctx, |s| s.range_sum(*vs, *ve, &cols))?;
                (QueryResult::Sum(sum), cost)
            }
            HapQuery::Q4 { .. } | HapQuery::Q5 { .. } | HapQuery::Q6 { .. } => {
                return Err(StorageError::InvalidSpec {
                    reason: "write query on a read-only path".to_string(),
                })
            }
        };
        Ok(QueryOutput { result, cost })
    }

    fn q1_point(
        &self,
        v: u64,
        cols: &[usize],
        ctx: &QueryCtx,
    ) -> Result<(Vec<Vec<u32>>, OpCost), StorageError> {
        let targets: Vec<&ChunkStore> = match self.route_for(v) {
            Some(c) => {
                ctx.check()?;
                note_routed(1, self.chunks.len());
                self.chunks[c].note_access();
                vec![self.chunks[c].get()?]
            }
            None => {
                note_routed(self.chunks.len(), self.chunks.len());
                let mut t = Vec::with_capacity(self.chunks.len());
                for s in &self.chunks {
                    ctx.check()?;
                    s.note_access();
                    t.push(s.get()?);
                }
                t
            }
        };
        let results = parallel_map(&targets, self.config.threads, |_, store| {
            store.point_rows(v, cols)
        });
        let mut cost = OpCost::default();
        let mut rows = Vec::new();
        for (mut r, c) in results {
            rows.append(&mut r);
            cost.absorb(c);
        }
        Ok((rows, cost))
    }

    /// Multi-column range query (§6.4, the TPC-H Q6 shape): sum `sum_cols`
    /// over rows whose key lies in `[lo, hi)` *and* whose `pred_col`
    /// payload value lies in `[pred_lo, pred_hi)`.
    ///
    /// "Casper evaluates the first (typically the most selective) filter
    /// and retrieves the qualifying positions to evaluate the subsequent
    /// filters."
    ///
    /// A `pred_col` or `sum_cols` entry past the payload's width is
    /// [`StorageError::InvalidSpec`], before any chunk is routed.
    pub(crate) fn q3_sum_where(
        &self,
        lo: u64,
        hi: u64,
        sum_cols: &[usize],
        pred_col: usize,
        pred_lo: u32,
        pred_hi: u32,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, StorageError> {
        let width = self.payload_width;
        if let Some(c) = std::iter::once(&pred_col)
            .chain(sum_cols)
            .find(|&&c| c >= width)
        {
            return Err(StorageError::InvalidSpec {
                reason: format!("payload attribute {c} of a table of {width}"),
            });
        }
        let block_bytes = self.config.block_bytes;
        let (sum, cost) = self.scan_chunks(lo, hi, ctx, |store| {
            store.range_sum_where(lo, hi, sum_cols, pred_col, pred_lo, pred_hi, block_bytes)
        })?;
        Ok(QueryOutput {
            result: QueryResult::Sum(sum),
            cost,
        })
    }

    /// Run `f` over every chunk overlapping `[lo, hi)`, in parallel when
    /// profitable, and total the per-chunk `(value, cost)` pairs. Routed
    /// slots hydrate serially before the parallel scan. The deadline/cancel
    /// context is honored at both kinds of chunk boundary: once per slot
    /// in the serial hydration loop, and once per chunk inside the
    /// parallel phase.
    fn scan_chunks(
        &self,
        lo: u64,
        hi: u64,
        ctx: &QueryCtx,
        f: impl Fn(&ChunkStore) -> (u64, OpCost) + Sync,
    ) -> Result<(u64, OpCost), StorageError> {
        let mut targets: Vec<&ChunkStore> = Vec::new();
        match (&self.fences, self.route_for(lo)) {
            (Some(fences), Some(first)) => {
                for c in first..self.chunks.len() {
                    // A chunk may overlap if its predecessor's fence is
                    // below `hi`.
                    if c > first && fences[c - 1] >= hi {
                        break;
                    }
                    ctx.check()?;
                    self.chunks[c].note_access();
                    targets.push(self.chunks[c].get()?);
                }
                note_routed(targets.len(), self.chunks.len());
            }
            _ => {
                for s in &self.chunks {
                    ctx.check()?;
                    s.note_access();
                    targets.push(s.get()?);
                }
                note_routed(self.chunks.len(), self.chunks.len());
            }
        }
        // Expiry and cancellation are sticky, so once one worker observes
        // the interrupt every later chunk stands down at its own check.
        let results = parallel_map(&targets, self.config.threads, |_, store| {
            ctx.check().map(|()| f(store))
        });
        let mut total = (0u64, OpCost::default());
        for r in results {
            let (n, cost) = r?;
            total.0 += n;
            total.1.absorb(cost);
        }
        Ok(total)
    }
}

/// One write operation for [`ChunkedColumn::apply_writes`] (the Q4/Q5/Q6
/// stream element). Payloads are borrowed from the query, so handing a
/// transaction's write set to the column allocates nothing per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteOp<'a> {
    /// Q4: insert a row.
    Insert {
        /// Key of the new row.
        key: u64,
        /// Payload attributes (must match the column's payload arity).
        payload: &'a [u32],
    },
    /// Q5: delete every row with this key.
    Delete {
        /// Key to delete.
        key: u64,
    },
    /// Q6: update the first row with key `old` to key `new`.
    Update {
        /// Existing key.
        old: u64,
        /// Replacement key.
        new: u64,
    },
}

impl<'a> WriteOp<'a> {
    /// The write a query performs, borrowing its payload; `None` for the
    /// read queries Q1–Q3.
    pub(crate) fn from_query(q: &'a HapQuery) -> Option<Self> {
        match q {
            HapQuery::Q4 { key, payload } => Some(WriteOp::Insert { key: *key, payload }),
            HapQuery::Q5 { v } => Some(WriteOp::Delete { key: *v }),
            HapQuery::Q6 { v, vnew } => Some(WriteOp::Update {
                old: *v,
                new: *vnew,
            }),
            HapQuery::Q1 { .. } | HapQuery::Q2 { .. } | HapQuery::Q3 { .. } => None,
        }
    }
}

/// Build one chunk's store for the configured mode.
fn build_chunk(keys: &[u64], payloads: &[&[u32]], config: &EngineConfig) -> ChunkStore {
    let layout = BlockLayout::new::<u64>(config.block_bytes);
    let vpb = layout.values_per_block();
    let len = keys.len();
    let n_blocks = layout.num_blocks(len);
    let owned = || (keys.to_vec(), payloads.iter().map(|c| c.to_vec()).collect());
    match config.mode {
        LayoutMode::Sorted => {
            let (keys, payloads) = owned();
            ChunkStore::Sorted(SortedColumn::build(keys, payloads, vpb))
        }
        LayoutMode::StateOfArt => {
            let (keys, payloads) = owned();
            ChunkStore::Delta(SortedDelta::build(
                keys,
                payloads,
                vpb,
                ((len as f64 * config.delta_frac) as usize).max(16),
            ))
        }
        LayoutMode::NoOrder => {
            let chunk_config = ChunkConfig {
                ghost_fetch_block: 1,
                ..dense_config(config)
            };
            ChunkStore::Partitioned(
                PartitionedChunk::build_with_payloads(
                    keys,
                    payloads,
                    &PartitionSpec::single(n_blocks),
                    layout,
                    &GhostPlan::none(1),
                    chunk_config,
                )
                .expect("single-partition build cannot fail"),
            )
        }
        LayoutMode::Equi | LayoutMode::EquiGV | LayoutMode::Casper => {
            let k = config.equi_partitions.min(n_blocks).max(1);
            let spec = PartitionSpec::equi_width(n_blocks, k);
            // Equi is dense and keeps its slack as a tail; the ghost modes
            // spread the whole reserve evenly as ghosts (the paper's
            // Equi-GV) until the optimizer places it by Eq. 18.
            let (ghosts, chunk_config) = if config.mode == LayoutMode::Equi {
                (GhostPlan::none(k), dense_config(config))
            } else {
                let reserve = reserve_slots(len, config.ghost_budget_frac, config);
                (GhostPlan::even(k, reserve), ghost_config(config))
            };
            ChunkStore::Partitioned(
                PartitionedChunk::build_with_payloads(
                    keys,
                    payloads,
                    &spec,
                    layout,
                    &ghosts,
                    chunk_config,
                )
                .expect("equi build cannot fail"),
            )
        }
    }
}

/// A dense chunk's build configuration: no ghosts, a `capacity_slack` tail.
fn dense_config(config: &EngineConfig) -> ChunkConfig {
    ChunkConfig {
        policy: UpdatePolicy::Dense,
        capacity_slack: config.capacity_slack,
        ghost_fetch_block: config.ghost_fetch_block,
    }
}

/// A ghost-policy chunk's build configuration: its reserve is placed as
/// ghosts, so the tail keeps only [`MIN_TAIL_SLOTS`].
fn ghost_config(config: &EngineConfig) -> ChunkConfig {
    ChunkConfig {
        policy: UpdatePolicy::Ghost,
        capacity_slack: 0.0,
        ghost_fetch_block: config.ghost_fetch_block,
    }
}

/// The empty slots a ghost-policy chunk of `len` live rows holds as ghosts:
/// the `ghost_frac` ghost budget plus the `capacity_slack` reserve a dense
/// chunk would park in its tail, less the [`MIN_TAIL_SLOTS`] tail every
/// chunk keeps. A chunk therefore has as many physical slots whether its
/// reserve sits in the tail or among its partitions.
pub(crate) fn reserve_slots(len: usize, ghost_frac: f64, config: &EngineConfig) -> usize {
    let ghosts = (len as f64 * ghost_frac).ceil() as usize;
    let slack = ((len as f64 * config.capacity_slack).ceil() as usize).max(MIN_TAIL_SLOTS);
    ghosts + slack - MIN_TAIL_SLOTS
}

/// Rebuild a partitioned chunk with a new layout decision (used by the
/// optimizer): `ghosts` is the chunk's whole empty-slot reserve, the tail
/// keeps [`MIN_TAIL_SLOTS`], and the payload is laid out in
/// `orientation`. A partitioned chunk's rows move straight from their old
/// slots to their new ones ([`PartitionedChunk::relayout`]). Requires a
/// hydrated store.
pub(crate) fn rebuild_partitioned(
    store: &ChunkStore,
    seg: &PartitionSpec,
    ghosts: &GhostPlan,
    config: &EngineConfig,
    orientation: PayloadOrientation,
) -> ChunkStore {
    let chunk = match store {
        ChunkStore::Partitioned(p) => p.relayout(seg, ghosts, ghost_config(config), orientation),
        ChunkStore::Sorted(_) | ChunkStore::Delta(_) => {
            let layout = BlockLayout::new::<u64>(config.block_bytes);
            let (keys, payloads) = store.live_sorted();
            PartitionedChunk::build_with_payloads(
                &keys,
                &payloads,
                seg,
                layout,
                ghosts,
                ghost_config(config),
            )
            .map(|c| c.into_orientation(orientation))
        }
    };
    ChunkStore::Partitioned(chunk.expect("rebuild with solver output cannot fail"))
}

/// Expose a chunk's block fences for Frequency-Model capture: the first key
/// of each logical block of its sorted live data. Requires a hydrated
/// store.
pub(crate) fn chunk_block_fences(store: &ChunkStore, block_bytes: usize) -> Vec<u64> {
    let layout = BlockLayout::new::<u64>(block_bytes);
    let vpb = layout.values_per_block();
    let keys = match store {
        ChunkStore::Partitioned(p) => p.live_keys_sorted(),
        ChunkStore::Sorted(s) => s.values().to_vec(),
        ChunkStore::Delta(_) => store.live_sorted().0,
    };
    keys.chunks(vpb).map(|c| c[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read/write shorthands over the two entry points under test.
    fn q1(col: &ChunkedColumn, v: u64) -> Vec<Vec<u32>> {
        match col.read(&HapQuery::Q1 { v, k: 1 }, &QueryCtx::default()) {
            Ok(QueryOutput {
                result: QueryResult::Rows(rows),
                ..
            }) => rows,
            other => panic!("Q1 returned {other:?}"),
        }
    }

    fn q2(col: &ChunkedColumn, vs: u64, ve: u64) -> u64 {
        let out = col.read(&HapQuery::Q2 { vs, ve }, &QueryCtx::default());
        out.unwrap().result.scalar()
    }

    fn snap_q2(snap: &ColumnSnapshot, vs: u64, ve: u64) -> u64 {
        let out = snap.read(&HapQuery::Q2 { vs, ve }, &QueryCtx::default());
        out.unwrap().result.scalar()
    }

    /// One write through [`ChunkedColumn::apply_writes`]:
    /// `(rows_affected, cost)`.
    fn write(col: &mut ChunkedColumn, op: WriteOp<'_>) -> (u64, OpCost) {
        let mut out = (0, OpCost::default());
        col.apply_writes([op], |_, r| out = r).unwrap();
        out
    }

    fn insert(col: &mut ChunkedColumn, key: u64, payload: &[u32]) {
        write(col, WriteOp::Insert { key, payload });
    }

    fn update(col: &mut ChunkedColumn, old: u64, new: u64) -> u64 {
        write(col, WriteOp::Update { old, new }).0
    }

    fn load(mode: LayoutMode, rows: u64) -> ChunkedColumn {
        let keys: Vec<u64> = (0..rows).map(|i| i * 2).collect();
        let payload: Vec<u32> = keys.iter().map(|&k| (k % 1000) as u32).collect();
        let mut config = EngineConfig::small(mode);
        config.chunk_values = 1024;
        ChunkedColumn::load(keys, vec![payload], config)
    }

    /// Like `load`, but key 10 appears three times (the duplicate-key
    /// regression fixture).
    fn load_with_duplicates(mode: LayoutMode, rows: u64) -> ChunkedColumn {
        let mut keys: Vec<u64> = (0..rows).map(|i| i * 2).collect();
        keys.push(10);
        keys.push(10);
        let payload: Vec<u32> = keys.iter().map(|&k| (k % 1000) as u32).collect();
        let mut config = EngineConfig::small(mode);
        config.chunk_values = 1024;
        ChunkedColumn::load(keys, vec![payload], config)
    }

    #[test]
    fn a_full_chunk_grows_by_one_reserve() {
        // One Equi-GV chunk of 8,192 rows: 82 + 410 − 64 = 428 ghosts and
        // a 64-slot tail, so the 493rd fresh key finds it full.
        let keys: Vec<u64> = (0..8192).map(|i| i * 2).collect();
        let mut config = EngineConfig::small(LayoutMode::EquiGV);
        config.chunk_values = 8192;
        let mut col = ChunkedColumn::load(keys, Vec::new(), config);
        let slots = |col: &ChunkedColumn| match col.chunks()[0].store_opt() {
            Some(ChunkStore::Partitioned(p)) => p.slot_count(),
            _ => panic!("Equi-GV chunks are partitioned"),
        };
        assert_eq!(slots(&col), 8192 + 428 + 64);
        for i in 0..492 {
            insert(&mut col, 2 * i + 1, &[]);
        }
        assert_eq!(slots(&col), 8684);
        // Full: grow by 5 % of the 8,684 live rows, not 10 % of capacity.
        insert(&mut col, 985, &[]);
        assert_eq!(slots(&col), 8684 + 435);
        assert_eq!(col.len(), 8685);
    }

    #[test]
    fn load_splits_into_chunks() {
        for mode in LayoutMode::all() {
            let col = load(mode, 4000);
            assert_eq!(col.chunk_count(), 4, "{mode:?}");
            assert_eq!(col.len(), 4000, "{mode:?}");
        }
    }

    #[test]
    fn q1_finds_rows_in_every_mode() {
        for mode in LayoutMode::all() {
            let col = load(mode, 4000);
            let rows = q1(&col, 2468);
            assert_eq!(rows.len(), 1, "{mode:?}");
            assert_eq!(rows[0], vec![(2468 % 1000) as u32], "{mode:?}");
            let rows = q1(&col, 2469);
            assert!(rows.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn q2_counts_match_in_every_mode() {
        for mode in LayoutMode::all() {
            let col = load(mode, 4000);
            let n = q2(&col, 100, 300);
            assert_eq!(n, 100, "{mode:?}"); // even keys in [100, 300)
            let n = q2(&col, 0, 8000);
            assert_eq!(n, 4000, "{mode:?}");
        }
    }

    #[test]
    fn q3_sums_payload_in_every_mode() {
        for mode in LayoutMode::all() {
            let col = load(mode, 4000);
            let q = HapQuery::Q3 {
                vs: 0,
                ve: 20,
                k: 1,
            };
            let sum = col.read(&q, &QueryCtx::default()).unwrap().result.scalar();
            // Keys 0..18 even: payloads k % 1000 = k.
            let want: u64 = (0..10).map(|i| i * 2).sum();
            assert_eq!(sum, want, "{mode:?}");
        }
    }

    #[test]
    fn q4_q5_q6_round_trip_in_every_mode() {
        for mode in LayoutMode::all() {
            let mut col = load(mode, 4000);
            insert(&mut col, 101, &[7]);
            let rows = q1(&col, 101);
            assert_eq!(rows, vec![vec![7]], "{mode:?} insert");
            let (n, _) = write(&mut col, WriteOp::Delete { key: 101 });
            assert_eq!(n, 1, "{mode:?} delete");
            assert!(q1(&col, 101).is_empty(), "{mode:?}");
            let n = update(&mut col, 200, 201);
            assert_eq!(n, 1, "{mode:?} update");
            let rows = q1(&col, 201);
            assert_eq!(rows.len(), 1, "{mode:?} updated row");
            assert_eq!(rows[0], vec![200], "{mode:?} payload follows update");
            assert_eq!(col.len(), 4000, "{mode:?} len conserved");
        }
    }

    /// Q6 carries the row in every mode when it stays inside one chunk and
    /// crosses partitions — for a pre-loaded row and for a row inserted
    /// since the last delta merge (`StateOfArt` still buffers it).
    #[test]
    fn in_chunk_update_carries_the_row_in_every_mode() {
        for mode in LayoutMode::all() {
            let mut col = load(mode, 4000);
            // Chunk 0 holds keys 0..=2046 in two partitions.
            assert_eq!(col.route_for(10), col.route_for(2003), "{mode:?}");
            assert_eq!(update(&mut col, 10, 2001), 1, "{mode:?} pre-loaded");
            assert_eq!(q1(&col, 2001), vec![vec![10]], "{mode:?} pre-loaded");
            insert(&mut col, 11, &[77]);
            assert_eq!(update(&mut col, 11, 2003), 1, "{mode:?} buffered");
            assert_eq!(q1(&col, 2003), vec![vec![77]], "{mode:?} buffered");
            assert!(
                q1(&col, 10).is_empty() && q1(&col, 11).is_empty(),
                "{mode:?}"
            );
            let q = HapQuery::Q3 {
                vs: 2001,
                ve: 2004,
                k: 1,
            };
            let sum = col.read(&q, &QueryCtx::default()).unwrap().result.scalar();
            assert_eq!(sum, 10 + 2 + 77, "{mode:?} sums see the moved rows");
            assert_eq!(col.len(), 4001, "{mode:?} len conserved");
        }
    }

    #[test]
    fn cross_chunk_update_moves_row() {
        for mode in LayoutMode::all() {
            let mut col = load(mode, 4000);
            // Key 10 lives in chunk 0; 7001 belongs to the last chunk.
            let n = update(&mut col, 10, 7001);
            assert_eq!(n, 1, "{mode:?}");
            assert!(q1(&col, 10).is_empty(), "{mode:?}");
            let rows = q1(&col, 7001);
            assert_eq!(rows.len(), 1, "{mode:?}");
            assert_eq!(rows[0], vec![10], "{mode:?} payload moved");
        }
    }

    /// Regression: a cross-chunk Q6 used to fall back to `q5_delete(old)`
    /// (which removes *every* row with the key) before re-inserting one
    /// row, silently destroying duplicates. It must move exactly one row,
    /// matching the single-chunk path.
    #[test]
    fn cross_chunk_update_preserves_duplicate_keys() {
        for mode in LayoutMode::all() {
            let mut col = load_with_duplicates(mode, 4000);
            assert_eq!(q1(&col, 10).len(), 3, "{mode:?}");
            let before = col.len();
            // Key 10 lives in chunk 0; 7001 belongs to the last chunk.
            let n = update(&mut col, 10, 7001);
            assert_eq!(n, 1, "{mode:?} affected");
            let survivors = q1(&col, 10);
            assert_eq!(survivors.len(), 2, "{mode:?} duplicates must survive");
            let moved = q1(&col, 7001);
            assert_eq!(moved.len(), 1, "{mode:?} exactly one row moved");
            assert_eq!(moved[0], vec![10], "{mode:?} payload moved");
            assert_eq!(col.len(), before, "{mode:?} row count conserved");
        }
    }

    #[test]
    fn inserts_above_all_fences_route_to_last_chunk() {
        for mode in LayoutMode::all() {
            let mut col = load(mode, 4000);
            insert(&mut col, 1_000_001, &[9]);
            let rows = q1(&col, 1_000_001);
            assert_eq!(rows.len(), 1, "{mode:?}");
        }
    }

    #[test]
    fn q2_spanning_all_chunks_uses_parallel_path() {
        let col = load(LayoutMode::Casper, 8000);
        let n = q2(&col, 0, u64::MAX);
        assert_eq!(n, 8000);
    }

    #[test]
    fn snapshot_pins_are_isolated_from_later_writes() {
        for mode in LayoutMode::all() {
            let mut col = load(mode, 4000);
            let cell = col.snapshot_cell();
            let v0 = cell.version();
            let before = cell.pin();
            insert(&mut col, 101, &[7]);
            // The old pin still counts the pre-write state...
            assert_eq!(snap_q2(&before, 0, u64::MAX), 4000, "{mode:?}");
            // ...while a fresh pin observes the published write.
            assert!(cell.version() > v0, "{mode:?} publish ticked");
            let after = cell.pin();
            assert_eq!(snap_q2(&after, 0, u64::MAX), 4001, "{mode:?}");
            let q = HapQuery::Q1 { v: 101, k: 1 };
            let out = after.read(&q, &QueryCtx::default()).unwrap();
            assert_eq!(out.result, QueryResult::Rows(vec![vec![7]]));
        }
    }

    #[test]
    fn batch_publishes_once_at_the_end() {
        let mut col = load(LayoutMode::Casper, 4000);
        let cell = col.snapshot_cell();
        let v0 = cell.version();
        let payload = [1u32];
        let ops = (0..10).map(|i| WriteOp::Insert {
            key: 100 + i,
            payload: &payload,
        });
        let mut landed = Vec::new();
        col.apply_writes(ops, |i, (n, _)| landed.push((i, n)))
            .unwrap();
        let want: Vec<(usize, u64)> = (0..10).map(|i| (i, 1)).collect();
        assert_eq!(landed, want, "one report per op, in order");
        assert_eq!(cell.version(), v0 + 1, "one publish per run");
        assert_eq!(snap_q2(&cell.pin(), 0, u64::MAX), 4010);
    }

    /// A run that fails part-way still publishes exactly once, carrying
    /// the ops that landed before the failure and none after it.
    #[test]
    fn failed_run_publishes_the_landed_prefix_once() {
        let healthy = load(LayoutMode::Casper, 1000); // one chunk, keys 0..=1998
        let store = healthy.chunks()[0].get().unwrap().clone();
        let broken = ChunkSlot::new_lazy(
            10,
            Box::new(|| {
                Err(StorageError::Corrupt {
                    reason: "injected decode failure".to_string(),
                })
            }),
        );
        let slots = vec![ChunkSlot::new(store), broken];
        let fences = Some(vec![1998, 5000]);
        let mut col = ChunkedColumn::from_restored(slots, fences, *healthy.config(), 1, &[]);
        let cell = col.snapshot_cell();
        let v0 = cell.version();
        let payload = [1u32];
        let ops = [101, 3001, 103].map(|key| WriteOp::Insert {
            key,
            payload: &payload,
        });
        let mut landed = Vec::new();
        let out = col.apply_writes(ops, |i, _| landed.push(i));
        assert!(matches!(out, Err(StorageError::Corrupt { .. })), "{out:?}");
        assert_eq!(landed, vec![0], "only the op before the failure landed");
        assert_eq!(cell.version(), v0 + 1, "one publish on the error path");
        let pin = cell.pin();
        assert_eq!(
            snap_q2(&pin, 0, 1000),
            501,
            "the landed insert is published"
        );
        assert_eq!(snap_q2(&pin, 103, 104), 0, "nothing after the failure");
    }

    #[test]
    fn failed_lazy_hydration_surfaces_typed_error() {
        let slot = ChunkSlot::new_lazy(
            7,
            Box::new(|| {
                Err(StorageError::Corrupt {
                    reason: "injected decode failure".to_string(),
                })
            }),
        );
        assert_eq!(slot.len(), 7, "live count served without hydration");
        assert!(matches!(
            slot.get(),
            Err(StorageError::Corrupt { ref reason }) if reason.contains("injected")
        ));
        // The loader is kept: the next touch tries again, and fails the
        // same way.
        assert!(matches!(
            slot.get(),
            Err(StorageError::Corrupt { ref reason }) if reason.contains("injected")
        ));
    }

    #[test]
    fn lazy_hydration_validates_live_count() {
        let col = load(LayoutMode::Casper, 100);
        let store = col.chunks()[0].get().unwrap().clone();
        let slot = ChunkSlot::new_lazy(55, Box::new(move || Ok(store.clone())));
        assert!(matches!(
            slot.get(),
            Err(StorageError::Corrupt { ref reason }) if reason.contains("manifest says 55")
        ));
    }

    /// FM drift sees writes: a chunk's access record counts every write
    /// routed to it, as it counts every read. The FM a layout is solved
    /// for records writes too (its total mass is the predicted side), so
    /// a write-only stream must move the observed count.
    #[test]
    fn serial_writes_feed_fm_drift() {
        use crate::optimize::{optimize_table, OptimizeOptions};
        use casper_workload::{HapSchema, Mix, MixKind};
        let schema = HapSchema::narrow();
        let mix = Mix::new(MixKind::HybridPointSkewed, schema, 4096);
        let mut config = EngineConfig::small(LayoutMode::Casper);
        config.chunk_values = 1024; // four chunks over keys 0..=8190
        let mut table = crate::Table::load_from_generator(mix.generator(), config);
        let sample = mix.generate(400, 1);
        optimize_table(&mut table, &sample, &OptimizeOptions::default());
        let observed =
            |table: &crate::Table, chunk: usize| table.column().chunks()[chunk].accesses();
        let target = table.column().route_for(5001).expect("ordered column");
        assert_eq!(
            observed(&table, target),
            0,
            "the re-layout starts a new window"
        );

        // A write-only stream inside one chunk: inserts of odd keys, one
        // in-chunk update and one delete — no read touches the column.
        let mut writes: Vec<HapQuery> = (0..20u64)
            .map(|i| {
                let key = 5001 + 2 * i;
                HapQuery::Q4 {
                    key,
                    payload: schema.payload_row(key),
                }
            })
            .collect();
        writes.push(HapQuery::Q6 {
            v: 5001,
            vnew: 5003 + 2 * 20,
        });
        writes.push(HapQuery::Q5 { v: 5003 });
        for q in &writes {
            let key = match *q {
                HapQuery::Q4 { key, .. } => key,
                HapQuery::Q5 { v } | HapQuery::Q6 { v, .. } => v,
                _ => unreachable!("write-only stream"),
            };
            assert_eq!(table.column().route_for(key), Some(target), "{q:?}");
            assert_eq!(table.execute(q).expect("write").result.scalar(), 1, "{q:?}");
        }
        assert_eq!(
            observed(&table, target),
            writes.len() as u64,
            "one observed access per write routed to the chunk"
        );
        for chunk in (0..table.column().chunk_count()).filter(|&c| c != target) {
            assert_eq!(observed(&table, chunk), 0, "chunk {chunk} saw no traffic");
        }
    }

    /// A chunk's access record accumulates one count per routed query
    /// until a re-layout starts a new window, which zeroes it and installs
    /// the chunk's predicted count from the Frequency Model it solved.
    #[test]
    fn observed_accumulates_and_predictions_reset_the_window() {
        use crate::optimize::{optimize_table, OptimizeOptions};
        let keys: Vec<u64> = (0..4000).map(|i| i * 2).collect();
        let mut config = EngineConfig::small(LayoutMode::Casper);
        config.chunk_values = 1024;
        let schema = casper_workload::HapSchema { payload_cols: 0 };
        let mut table = crate::Table::load(schema, keys, Vec::new(), config);
        let point = |v| HapQuery::Q1 { v, k: 0 };
        for _ in 0..15 {
            table.execute(&point(10)).unwrap();
        }
        let chunk = |t: &crate::Table, i: usize| {
            let slot = &t.column().chunks()[i];
            (slot.accesses(), slot.predicted_accesses())
        };
        assert_eq!(chunk(&table, 0), (15, 0.0));
        assert_eq!(chunk(&table, 3), (0, 0.0));
        let sample: Vec<HapQuery> = (0..40).map(|i| point(7000 + i)).collect();
        let report = optimize_table(&mut table, &sample, &OptimizeOptions::default());
        for (i, fm) in report.fms.iter().enumerate() {
            assert_eq!(chunk(&table, i), (0, fm.total_mass()), "chunk {i}");
        }
        assert!(
            chunk(&table, 3).1 > 0.0,
            "the sample's traffic is predicted"
        );
        table.execute(&point(10)).unwrap();
        assert_eq!(chunk(&table, 0).0, 1);
    }

    /// Each table owns its chunks' access records: traffic on one table's
    /// chunk 0 never shows in another's.
    #[test]
    fn two_tables_keep_separate_access_records() {
        let mut a = load(LayoutMode::Casper, 4000);
        let mut b = load(LayoutMode::Casper, 4000);
        for _ in 0..3 {
            q1(&a, 10);
        }
        insert(&mut a, 11, &[1]);
        for _ in 0..5 {
            q1(&b, 12);
        }
        assert_eq!(a.chunks()[0].accesses(), 4);
        assert_eq!(b.chunks()[0].accesses(), 5);
        // The records follow the chunk through copy-on-write and publish.
        let pin = b.snapshot_cell().pin();
        insert(&mut b, 13, &[1]);
        snap_q2(&pin, 0, 100);
        assert_eq!(b.chunks()[0].accesses(), 7);
        assert_eq!(a.chunks()[0].accesses(), 4);
    }

    /// Every query class counts exactly one access per chunk it routes to
    /// (4 chunks: keys 0..=2046, 2048..=4094, 4096..=6142, 6144..=7998).
    #[test]
    fn each_routed_chunk_counts_one_access_per_query() {
        let payload = vec![7u32];
        let rows: [(HapQuery, [u64; 4]); 8] = [
            (HapQuery::Q1 { v: 10, k: 1 }, [1, 0, 0, 0]),
            (HapQuery::Q2 { vs: 100, ve: 200 }, [1, 0, 0, 0]),
            (
                HapQuery::Q3 {
                    vs: 2100,
                    ve: 2200,
                    k: 1,
                },
                [0, 1, 0, 0],
            ),
            (HapQuery::Q2 { vs: 1000, ve: 5000 }, [1, 1, 1, 0]),
            (HapQuery::Q4 { key: 4101, payload }, [0, 0, 1, 0]),
            (HapQuery::Q5 { v: 6200 }, [0, 0, 0, 1]),
            (
                HapQuery::Q6 {
                    v: 4100,
                    vnew: 4103,
                },
                [0, 0, 1, 0],
            ),
            (HapQuery::Q6 { v: 10, vnew: 7001 }, [1, 0, 0, 1]),
        ];
        for (q, want) in rows {
            let keys: Vec<u64> = (0..4000).map(|i| i * 2).collect();
            let payload: Vec<u32> = keys.iter().map(|&k| (k % 1000) as u32).collect();
            let mut config = EngineConfig::small(LayoutMode::Casper);
            config.chunk_values = 1024;
            let schema = casper_workload::HapSchema { payload_cols: 1 };
            let mut table = crate::Table::load(schema, keys, vec![payload], config);
            table.execute(&q).expect("query");
            let chunks = table.column().chunks();
            let got: Vec<u64> = chunks.iter().map(|s| s.accesses()).collect();
            assert_eq!(got, want, "{q:?}");
        }
    }
}

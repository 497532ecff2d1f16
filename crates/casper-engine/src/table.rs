//! HAP tables: a key column plus payload columns, executing Q1–Q6.
//!
//! The table is the engine's user-facing object: load a schema-ful dataset,
//! execute [`casper_workload::HapQuery`] instances, and receive results
//! with block-access costs attached. It is also the unit the optimizer
//! re-layouts (§6.4: "Casper can be easily integrated into existing
//! systems" — this is the generic storage-engine API surface).

use std::sync::Arc;
use std::time::Instant;

use crate::column::{ChunkedColumn, ColumnSnapshot, SnapshotCell, WriteOp};
use crate::governor::{Governor, QueryCtx};
use crate::modes::EngineConfig;
use casper_obs::{CounterDef, HistogramDef};
use casper_storage::{OpCost, StorageError};
use casper_workload::{HapQuery, HapSchema, WorkloadGenerator};

// Per-query-class telemetry families, indexed by `HapQuery::index`. Inert
// (one relaxed load) while telemetry is disengaged.
static OBS_QUERY_LATENCY: [HistogramDef; 6] = [
    HistogramDef::new("casper_query_latency_ns{class=\"q1\"}"),
    HistogramDef::new("casper_query_latency_ns{class=\"q2\"}"),
    HistogramDef::new("casper_query_latency_ns{class=\"q3\"}"),
    HistogramDef::new("casper_query_latency_ns{class=\"q4\"}"),
    HistogramDef::new("casper_query_latency_ns{class=\"q5\"}"),
    HistogramDef::new("casper_query_latency_ns{class=\"q6\"}"),
];
static OBS_QUERY_ROWS: [CounterDef; 6] = [
    CounterDef::new("casper_query_rows_scanned_total{class=\"q1\"}"),
    CounterDef::new("casper_query_rows_scanned_total{class=\"q2\"}"),
    CounterDef::new("casper_query_rows_scanned_total{class=\"q3\"}"),
    CounterDef::new("casper_query_rows_scanned_total{class=\"q4\"}"),
    CounterDef::new("casper_query_rows_scanned_total{class=\"q5\"}"),
    CounterDef::new("casper_query_rows_scanned_total{class=\"q6\"}"),
];

/// Per-query timer, armed only while telemetry is engaged: records the
/// class latency histogram and rows-scanned counter on completion.
struct QueryTimer {
    start: Instant,
    class: usize,
    /// Multiplier applied to the rows-scanned counter (1 on the exact
    /// mutable path, [`READ_SAMPLE`] on the sampled reader path).
    scale: u64,
}

/// Reader-path sampling factor: [`TableReader::execute`] times one query
/// in this many per thread. A snapshot read can be a sub-microsecond
/// point lookup, and two clock reads plus histogram updates on every one
/// would cost several percent of the hot path — sampling keeps the
/// enabled overhead inside the ≤2% budget (`obs.overhead_ratio`) while the
/// latency quantiles stay statistically faithful. Rows-scanned totals
/// from sampled queries are scaled back up (an estimate, labelled so in
/// `docs/observability.md`); the mutable [`Table::execute`] path records
/// every query exactly.
const READ_SAMPLE: u32 = 16;

thread_local! {
    static READ_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl QueryTimer {
    #[inline]
    fn start(q: &HapQuery) -> Option<Self> {
        casper_obs::enabled().then(|| Self {
            start: Instant::now(),
            class: q.index(),
            scale: 1,
        })
    }

    /// Sampled variant for the reader hot path: arms the timer for one
    /// query in [`READ_SAMPLE`] per thread.
    #[inline]
    fn start_sampled(q: &HapQuery) -> Option<Self> {
        if !casper_obs::enabled() {
            return None;
        }
        let due = READ_TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v % READ_SAMPLE == 0
        });
        due.then(|| Self {
            start: Instant::now(),
            class: q.index(),
            scale: u64::from(READ_SAMPLE),
        })
    }

    fn finish(timer: Option<Self>, out: &QueryOutput) {
        if let Some(t) = timer {
            OBS_QUERY_LATENCY[t.class].record(t.start.elapsed().as_nanos() as u64);
            OBS_QUERY_ROWS[t.class].add(out.cost.values_scanned * t.scale);
        }
    }
}

/// Result payload of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Q1: materialized rows (selected payload attributes).
    Rows(Vec<Vec<u32>>),
    /// Q2: count.
    Count(u64),
    /// Q3: sum.
    Sum(u64),
    /// Q4/Q5/Q6: rows affected.
    Affected(u64),
}

impl QueryResult {
    /// The scalar the result carries (row count / count / sum / affected).
    pub fn scalar(&self) -> u64 {
        match self {
            QueryResult::Rows(r) => r.len() as u64,
            QueryResult::Count(n) | QueryResult::Sum(n) | QueryResult::Affected(n) => *n,
        }
    }
}

/// A query result with its storage-level access pattern.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result payload.
    pub result: QueryResult,
    /// Block accesses performed.
    pub cost: OpCost,
}

/// A loaded HAP table.
#[derive(Debug)]
pub struct Table {
    column: ChunkedColumn,
    schema: HapSchema,
}

impl Table {
    /// Load a table from a workload generator's initial dataset.
    pub fn load_from_generator(gen: &WorkloadGenerator, config: EngineConfig) -> Self {
        Self::load(
            gen.schema(),
            gen.initial_keys(),
            gen.initial_payload_columns(),
            config,
        )
    }

    /// Load a table from explicit keys + column-major payloads.
    pub fn load(
        schema: HapSchema,
        keys: Vec<u64>,
        payload_cols: Vec<Vec<u32>>,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(
            payload_cols.len(),
            schema.payload_cols,
            "payload arity must match the schema"
        );
        Self {
            column: ChunkedColumn::load(keys, payload_cols, config),
            schema,
        }
    }

    /// Reassemble a table around an already-restored column (snapshot
    /// recovery; see `ChunkedColumn::from_restored`).
    pub fn from_restored(schema: HapSchema, column: ChunkedColumn) -> Self {
        assert_eq!(
            column.payload_width(),
            schema.payload_cols,
            "restored column arity must match the schema"
        );
        Self { column, schema }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.column.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// The schema.
    pub fn schema(&self) -> HapSchema {
        self.schema
    }

    /// The underlying chunked key column.
    pub fn column(&self) -> &ChunkedColumn {
        &self.column
    }

    /// Mutable access for the optimizer.
    pub fn column_mut(&mut self) -> &mut ChunkedColumn {
        &mut self.column
    }

    /// Decode every chunk still awaiting hydration from a persisted
    /// segment (no-op on ordinary tables). See
    /// [`ColumnSnapshot::hydrate_all`].
    pub fn hydrate_all(&self) -> Result<(), StorageError> {
        self.column.hydrate_all()
    }

    /// A shared read handle over this table: readers on other threads pin
    /// the column's published snapshot once per query and scan it
    /// lock-free, while this table keeps executing writes. The handle
    /// stays valid for the table's lifetime; each pin observes the most
    /// recent write or committed transaction in full (never a torn
    /// commit).
    pub fn reader(&self) -> TableReader {
        TableReader {
            cell: self.column.snapshot_cell(),
            governor: None,
        }
    }

    /// Execute one HAP query with a context that never interrupts. On a
    /// lazily-restored table (segments open, each record read and verified
    /// at first touch) restore-time laziness is invisible here: a chunk
    /// pays its read and decode once, on the first query that touches it
    /// and succeeds.
    pub fn execute(&mut self, q: &HapQuery) -> Result<QueryOutput, StorageError> {
        self.execute_with(q, &QueryCtx::default())
    }

    /// Execute one HAP query under a deadline/cancel context. Expiry
    /// unwinds as [`StorageError::DeadlineExceeded`] /
    /// [`StorageError::Cancelled`] without touching shared state: reads
    /// check at every chunk boundary and abandon their scan, writes are
    /// checked *before* dispatch (a point write that has started is
    /// cheaper to finish than to abort half-applied).
    ///
    /// The table is the ungoverned core: admission control and panic
    /// isolation attach one layer up, where a governor can be observed
    /// ([`TableReader::with_governor`], `DurableOptions.governor`).
    pub fn execute_with(
        &mut self,
        q: &HapQuery,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, StorageError> {
        let timer = QueryTimer::start(q);
        let out = match WriteOp::from_query(q) {
            None => self.column.read(q, ctx)?,
            Some(op) => {
                ctx.check()?;
                let (mut affected, mut cost) = (0, OpCost::default());
                self.column
                    .apply_writes([op], |_, r| (affected, cost) = r)?;
                QueryOutput {
                    result: QueryResult::Affected(affected),
                    cost,
                }
            }
        };
        QueryTimer::finish(timer, &out);
        Ok(out)
    }

    /// Multi-column range query (§6.4, the TPC-H Q6 shape): sum `sum_cols`
    /// over rows with key in `[lo, hi)` whose `pred_col` payload lies in
    /// `[pred_lo, pred_hi)`. Corrupt persisted chunks surface as
    /// [`StorageError::Corrupt`], same as [`Table::execute`].
    ///
    /// `&self`: hydration goes through the shared `ChunkSlot` fill (the
    /// same `&self` path `TableReader` uses), so this works on a shared
    /// borrow — the historical `&mut self` requirement was a persistence
    /// workaround that no longer exists.
    pub fn multi_column_sum(
        &self,
        lo: u64,
        hi: u64,
        sum_cols: &[usize],
        pred_col: usize,
        pred_lo: u32,
        pred_hi: u32,
    ) -> Result<QueryOutput, StorageError> {
        let ctx = QueryCtx::default();
        self.column
            .q3_sum_where(lo, hi, sum_cols, pred_col, pred_lo, pred_hi, &ctx)
    }
}

/// A concurrent read handle over a [`Table`]: `Send`-able to any number of
/// reader threads, each of which pins the column's published snapshot once
/// per query and scans it lock-free while the owning table keeps writing.
///
/// Only read queries (Q1/Q2/Q3) execute here — write queries return
/// [`StorageError::InvalidSpec`], since a snapshot is immutable by
/// construction.
#[derive(Debug, Clone)]
pub struct TableReader {
    cell: Arc<SnapshotCell>,
    /// Attached by [`TableReader::with_governor`]: when present, every
    /// query is admitted through its slot gate and panic-isolated.
    governor: Option<Arc<Governor>>,
}

impl TableReader {
    /// Attach a shared [`Governor`]: from here on every query on this
    /// handle takes part in admission control and panic isolation.
    pub fn with_governor(mut self, governor: Arc<Governor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// The attached governor, if any.
    pub fn governor(&self) -> Option<&Arc<Governor>> {
        self.governor.as_ref()
    }

    /// Pin the currently published snapshot (one lightweight pointer
    /// clone); the returned snapshot is stable for its lifetime.
    pub fn pin(&self) -> Arc<ColumnSnapshot> {
        self.cell.pin()
    }

    /// Monotone publish counter (one tick per write, one per committed
    /// transaction).
    pub fn version(&self) -> u64 {
        self.cell.version()
    }

    /// Execute one read query against the current snapshot with a context
    /// that never interrupts.
    pub fn execute(&self, q: &HapQuery) -> Result<QueryOutput, StorageError> {
        self.execute_with(q, &QueryCtx::default())
    }

    /// Execute one read query against the current snapshot, `ctx` checked
    /// at chunk boundaries; governed iff a governor is attached (see
    /// [`TableReader::with_governor`]).
    pub fn execute_with(&self, q: &HapQuery, ctx: &QueryCtx) -> Result<QueryOutput, StorageError> {
        self.governed(|| {
            // Sampled: a snapshot read can be sub-microsecond, and a clock
            // pair on every one would dominate it — the sampled timer and
            // the routed/pruned counters carry the read-path telemetry.
            let timer = QueryTimer::start_sampled(q);
            let out = self.pin().read(q, ctx)?;
            QueryTimer::finish(timer, &out);
            Ok(out)
        })
    }

    /// Multi-column predicated sum against the current snapshot (see
    /// [`Table::multi_column_sum`]), governed like
    /// [`TableReader::execute_with`].
    pub fn multi_column_sum(
        &self,
        lo: u64,
        hi: u64,
        sum_cols: &[usize],
        pred_col: usize,
        pred_lo: u32,
        pred_hi: u32,
    ) -> Result<QueryOutput, StorageError> {
        let ctx = QueryCtx::default();
        self.governed(|| {
            self.pin()
                .q3_sum_where(lo, hi, sum_cols, pred_col, pred_lo, pred_hi, &ctx)
        })
    }

    /// The one governed read step: with a governor attached `read` is
    /// admitted through its slot gate (shed as
    /// [`StorageError::Overloaded`]) and panic-isolated; a snapshot read
    /// cannot attribute a panic to a chunk the live column could
    /// quarantine, so [`StorageError::Panicked`] carries no chunk here.
    /// Without one it passes straight through.
    fn governed<T>(
        &self,
        read: impl FnOnce() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        match &self.governor {
            Some(gov) => gov.run(false, None, read),
            None => read(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ChunkStore;
    use crate::modes::LayoutMode;
    use casper_storage::PartitionedChunk;
    use casper_workload::{KeyDist, Mix, MixKind};

    fn table(mode: LayoutMode) -> Table {
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 2000, KeyDist::Uniform);
        Table::load_from_generator(&gen, EngineConfig::small(mode))
    }

    /// Loading rows that arrive sorted skips the co-sort; loading the same
    /// rows shuffled sorts them. Both must build the same table in every
    /// mode: chunk for chunk the same physical state (slots, stale ones
    /// included, partitions, payload words, key lane form, write
    /// stamps), the same fences, and the same resident bytes, which is what
    /// the reserved capacity of every vector adds up to.
    #[test]
    fn sorted_and_shuffled_loads_build_the_same_table() {
        use rand::prelude::*;
        let gen = WorkloadGenerator::new(HapSchema::narrow(), 5000, KeyDist::Uniform);
        let (keys, cols) = (gen.initial_keys(), gen.initial_payload_columns());
        let shuffled = |rng: &mut StdRng, window: usize| {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            for w in order.chunks_mut(window) {
                for i in (1..w.len()).rev() {
                    w.swap(i, rng.gen_range(0..=i));
                }
            }
            let cols: Vec<Vec<u32>> = cols
                .iter()
                .map(|c| order.iter().map(|&i| c[i]).collect())
                .collect();
            (order.iter().map(|&i| keys[i]).collect::<Vec<u64>>(), cols)
        };
        let mut rng = StdRng::seed_from_u64(7);
        for mode in LayoutMode::all() {
            let mut config = EngineConfig::small(mode);
            config.chunk_values = 1024;
            let load =
                |(k, c): (Vec<u64>, Vec<Vec<u32>>)| Table::load(HapSchema::narrow(), k, c, config);
            let sorted = load((keys.clone(), cols.clone()));
            // Shuffled within each chunk's rows (every mode sees the same
            // row set per chunk) and, where chunks are cut in key order,
            // across the whole table.
            let mut inputs = vec![shuffled(&mut rng, config.chunk_values)];
            if mode != LayoutMode::NoOrder {
                inputs.push(shuffled(&mut rng, keys.len()));
            }
            for input in inputs {
                let (a, b) = (sorted.column(), load(input));
                let b = b.column();
                assert_eq!(a.chunk_count(), 5, "{mode:?}");
                assert_eq!(a.chunk_count(), b.chunk_count(), "{mode:?}");
                assert_eq!(a.fences(), b.fences(), "{mode:?}");
                assert_eq!(a.resident_bytes(), b.resident_bytes(), "{mode:?}");
                for (i, (x, y)) in a.chunks().iter().zip(b.chunks()).enumerate() {
                    let (x, y) = (x.get().unwrap(), y.get().unwrap());
                    if let (ChunkStore::Partitioned(x), ChunkStore::Partitioned(y)) = (x, y) {
                        let state = |c: &PartitionedChunk<u64>| format!("{:?}", c.to_state());
                        assert_eq!(state(x), state(y), "{mode:?} chunk {i}");
                    }
                    assert_eq!(format!("{x:?}"), format!("{y:?}"), "{mode:?} chunk {i}");
                }
            }
        }
    }

    fn execute_serial(t: &mut Table, queries: &[HapQuery]) -> Vec<QueryOutput> {
        queries.iter().map(|q| t.execute(q).unwrap()).collect()
    }

    #[test]
    fn q1_projects_k_columns() {
        let mut t = table(LayoutMode::Casper);
        let out = t.execute(&HapQuery::Q1 { v: 100, k: 3 }).unwrap();
        if let QueryResult::Rows(rows) = out.result {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].len(), 3);
            assert_eq!(rows[0], HapSchema::narrow().payload_row(100)[..3].to_vec());
        } else {
            panic!("wrong result kind");
        }
    }

    #[test]
    fn q2_count_is_exact() {
        let mut t = table(LayoutMode::Casper);
        let out = t.execute(&HapQuery::Q2 { vs: 0, ve: 1000 }).unwrap();
        assert_eq!(out.result, QueryResult::Count(500));
    }

    #[test]
    fn q3_sum_matches_reference() {
        let mut t = table(LayoutMode::Casper);
        let out = t
            .execute(&HapQuery::Q3 {
                vs: 0,
                ve: 100,
                k: 2,
            })
            .unwrap();
        let want: u64 = (0..50u64)
            .map(|i| {
                let row = HapSchema::narrow().payload_row(i * 2);
                u64::from(row[0]) + u64::from(row[1])
            })
            .sum();
        assert_eq!(out.result, QueryResult::Sum(want));
    }

    #[test]
    fn write_queries_affect_rows() {
        let mut t = table(LayoutMode::Casper);
        let key = 4001;
        let payload = HapSchema::narrow().payload_row(key);
        t.execute(&HapQuery::Q4 { key, payload }).unwrap();
        assert_eq!(t.len(), 2001);
        let out = t.execute(&HapQuery::Q5 { v: key }).unwrap();
        assert_eq!(out.result, QueryResult::Affected(1));
        assert_eq!(t.len(), 2000);
        let out = t.execute(&HapQuery::Q6 { v: 200, vnew: 201 }).unwrap();
        assert_eq!(out.result, QueryResult::Affected(1));
    }

    #[test]
    fn all_modes_agree_on_results() {
        // The six layouts are different physical designs of the same
        // logical table: a mixed workload must produce identical results.
        let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 2000);
        let queries = mix.generate(400, 99);
        let mut outputs: Vec<Vec<u64>> = Vec::new();
        for mode in LayoutMode::all() {
            let mut t = table(mode);
            let outs = execute_serial(&mut t, &queries);
            outputs.push(outs.iter().map(|o| o.result.scalar()).collect());
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1], "modes disagree on query results");
        }
    }

    #[test]
    fn multi_column_sum_agrees_across_modes() {
        // Reference: recompute from the deterministic payload generator.
        let schema = HapSchema::narrow();
        let want: u64 = (0..2000u64)
            .map(|i| i * 2)
            .filter(|&k| (300..900).contains(&k))
            .map(|k| {
                let row = schema.payload_row(k);
                if (100..60000).contains(&row[2]) {
                    u64::from(row[0]) + u64::from(row[1])
                } else {
                    0
                }
            })
            .sum();
        for mode in LayoutMode::all() {
            let mut t = table(mode);
            // Dirty the delta/ghost paths a little first.
            t.execute(&HapQuery::Q4 {
                key: 301,
                payload: schema.payload_row(301),
            })
            .unwrap();
            t.execute(&HapQuery::Q5 { v: 301 }).unwrap();
            let out = t
                .multi_column_sum(300, 900, &[0, 1], 2, 100, 60000)
                .unwrap();
            assert_eq!(out.result, QueryResult::Sum(want), "{mode:?}");
        }
    }

    /// The §6.4 multi-column scan reads each chunk's payload in its own
    /// orientation: a row-major table and its column-major twin return the
    /// same sum, the same key-side cost, and each the payload blocks of its
    /// orientation: three 4 KB columns of the qualifying rows column-major,
    /// their 60-byte rows row-major.
    #[test]
    fn multi_column_sum_is_charged_per_orientation() {
        use crate::column::ChunkStore;
        use casper_storage::PayloadOrientation;
        let schema = HapSchema::narrow();
        let (pred, words_per_block) = (100..60000, 4096 / 4);
        let passed = (0..2000u64)
            .map(|i| schema.payload_row(i * 2)[2])
            .filter(|p| pred.contains(p))
            .count();
        let cols = table(LayoutMode::Casper);
        let mut rows = table(LayoutMode::Casper);
        for store in rows.column_mut().chunks_mut().unwrap() {
            let ChunkStore::Partitioned(p) = store else {
                panic!("Casper chunks are partitioned");
            };
            *p = p.clone().into_orientation(PayloadOrientation::Rows);
        }
        rows.column_mut().publish();
        let sum = |t: &Table| t.multi_column_sum(0, 4000, &[0, 1], 2, pred.start, pred.end);
        let (c, r) = (sum(&cols).unwrap(), sum(&rows).unwrap());
        assert_eq!(c.result, r.result);
        let col_blocks = 3 * passed.div_ceil(words_per_block);
        let row_blocks = (passed * 15 * 4).div_ceil(4096);
        assert!(passed > 0 && col_blocks != row_blocks, "{passed} rows");
        let key_side = |cost: OpCost, payload: usize| OpCost {
            seq_reads: cost.seq_reads - payload as u64,
            ..cost
        };
        assert_eq!(key_side(c.cost, col_blocks), key_side(r.cost, row_blocks));
    }

    /// Regression: `multi_column_sum` used to `.expect()` on hydration
    /// failure, panicking the process on a corrupt persisted chunk. It now
    /// propagates the typed error like `execute`.
    #[test]
    fn multi_column_sum_surfaces_corrupt_chunk_as_error() {
        use crate::column::{ChunkSlot, ChunkedColumn};
        let schema = HapSchema::narrow();
        let slot = ChunkSlot::new_lazy(
            100,
            Box::new(|| {
                Err(StorageError::Corrupt {
                    reason: "checksum mismatch (injected)".to_string(),
                })
            }),
        );
        let column = ChunkedColumn::from_restored(
            vec![slot],
            None,
            EngineConfig::small(LayoutMode::NoOrder),
            schema.payload_cols,
            &[],
        );
        let t = Table::from_restored(schema, column);
        let out = t.multi_column_sum(0, 1000, &[0, 1], 2, 0, u32::MAX);
        assert!(matches!(
            out,
            Err(StorageError::Corrupt { ref reason }) if reason.contains("injected")
        ));
    }

    #[test]
    fn reader_handle_serves_reads_and_rejects_writes() {
        let mut t = table(LayoutMode::Casper);
        let reader = t.reader();
        let out = reader.execute(&HapQuery::Q2 { vs: 0, ve: 1000 }).unwrap();
        assert_eq!(out.result, QueryResult::Count(500));
        let key = 4001;
        let payload = HapSchema::narrow().payload_row(key);
        t.execute(&HapQuery::Q4 { key, payload }).unwrap();
        // The write published: a fresh pin sees it.
        let out = reader.execute(&HapQuery::Q1 { v: key, k: 1 }).unwrap();
        assert_eq!(out.result.scalar(), 1);
        assert!(matches!(
            reader.execute(&HapQuery::Q5 { v: key }),
            Err(StorageError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn read_only_workload_preserves_len() {
        let mut t = table(LayoutMode::EquiGV);
        let before = t.len();
        for v in (0..4000).step_by(7) {
            t.execute(&HapQuery::Q1 { v, k: 1 }).unwrap();
            t.execute(&HapQuery::Q2 { vs: v, ve: v + 50 }).unwrap();
        }
        assert_eq!(t.len(), before);
    }
}

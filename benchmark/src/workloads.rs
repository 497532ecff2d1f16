//! The four workloads: what they run, at what size, and why each exists.
//!
//! Every workload is a closed loop with one client: the next operation is
//! issued when the previous one returns, which is how the paper's driver and
//! every caller of `Table::execute(&mut self)` works. Op counts per
//! repetition are fixed; `--seconds` only decides how many fresh,
//! identically built tables the stream is replayed on.

use casper_engine::{EngineConfig, LayoutMode};
use casper_workload::{HapQuery, HapSchema, Mix, MixKind};

/// Operations in the Casper training sample (drawn with `seed + 1`). The
/// solver's partition count is a step function of the sampled histogram, so
/// the sample is kept large enough that the step rarely moves with the seed.
pub const TRAIN_OPS: usize = 100_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    kind: MixKind,
    /// The stream is the mix without its 1 % Q6: a cross-partition Q6 loses
    /// the moved row's payload at this commit (see README, "Known defect"),
    /// and every later Q3 over that key would be a failed operation. The
    /// defect is reported by [`q6_payload_probe`] instead.
    without_q6: bool,
    /// Rows in the initial load.
    pub rows: u64,
    /// Values per column chunk.
    pub chunk_values: usize,
    /// Operations per repetition.
    pub ops: usize,
    /// Runs through `DurableTable` (see `durable::options`).
    pub durable: bool,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    // The paper's headline mix (Fig. 12 col. 1, Fig. 13a). Point reads and
    // ghost-slot inserts on a hot set that fits cache: per-op engine overhead
    // and the storage point path (index probe, partition scan, ripple)
    // dominate; range kernels and persistence do nothing here.
    Workload {
        name: "hybrid_point",
        why: "Paper headline mix Q1 49/Q4 50/Q6 1, skewed-recent: engine per-op overhead and the storage point path; range kernels and persist idle",
        kind: MixKind::HybridPointSkewed,
        without_q6: false,
        rows: 2_000_000,
        chunk_values: 1 << 20,
        ops: 200_000,
        durable: false,
    },
    // Same write path as hybrid_point, but ~97 % of time is Q3: SIMD range
    // sums, zone maps and compressed fragments. A kernel gain shows here and
    // not in hybrid_point; a write-path change that decodes fragments shows
    // here as a read cost.
    Workload {
        name: "hybrid_range",
        why: "Q3 49/Q4 50 skewed-recent: ~97% of time in range-sum kernels, zone maps, compressed fragments; same write path as hybrid_point",
        kind: MixKind::HybridRangeSkewed,
        without_q6: true,
        rows: 2_000_000,
        chunk_values: 1 << 20,
        ops: 100_000,
        durable: false,
    },
    // The storage layer the other way round (paper's UDI2): ripple, ghost
    // consumption and delete only, uniform keys so the working set exceeds
    // cache. It has no reads, so a read-path gain bought with write cost or
    // with more ghosts shows here and in mem_bytes_per_row.
    Workload {
        name: "update_uniform",
        why: "UDI2 Q4 80/Q5 19/Q6 1 uniform, no reads: ripple, ghost use, delete on a beyond-cache working set; read gains paid for by writes show here",
        kind: MixKind::UpdateOnlyUniform,
        without_q6: false,
        rows: 2_000_000,
        chunk_values: 1 << 20,
        ops: 100_000,
        durable: false,
    },
    // The hybrid_point mix through DurableTable::execute under group commit
    // (one real fsync per 256 writes): every write is encoded and staged in
    // the WAL, batches seal, and a checkpoint cycle is due about every
    // 10 000 writes, ten times per repetition, on the background thread.
    // Persist takes about half of the run; the three in-memory workloads
    // bypass it. Small chunks give incremental checkpoints something to
    // skip. One fsync per write is not timed here because it would time the
    // shared host's disk (see durable::GROUP_COMMIT).
    Workload {
        name: "durable_hybrid",
        why: "hybrid_point mix via DurableTable, group commit of 256 writes per fsync, background checkpoints: WAL staging, seals, checkpoints; in-memory workloads bypass persist",
        kind: MixKind::HybridPointSkewed,
        without_q6: false,
        rows: 1_000_000,
        chunk_values: 65_536,
        ops: 200_000,
        durable: true,
    },
];

/// The table the Q6 payload probe runs on: one chunk, so that every Q6 the
/// probe issues stays inside a chunk and takes `PartitionedChunk::update`.
const Q6_PROBE: Workload = Workload {
    name: "q6_probe",
    why: "",
    kind: MixKind::HybridRangeSkewed,
    without_q6: false,
    rows: 65_536,
    chunk_values: 65_536,
    ops: 0,
    durable: false,
};

/// Moves the Q6 payload probe makes.
pub const Q6_PROBE_MOVES: u64 = 64;

/// The Q6 payload probe's table and stream: [`Q6_PROBE_MOVES`] times, move
/// one loaded row from the lower half of the key domain to a fresh key in
/// the upper half (a different partition of the same chunk in every
/// partitioned layout), then sum the payload of exactly the moved key. The
/// Q3s the engine gets wrong are the defect's count. Not seeded: only the
/// training sample, hence the layout, differs between seeds.
pub fn q6_payload_probe() -> (Workload, Vec<HapQuery>) {
    let rows = Q6_PROBE.rows;
    let k = Q6_PROBE.mix().generator().projectivity;
    let stream = (0..Q6_PROBE_MOVES)
        .flat_map(|i| {
            let v = 2 * (i * rows / (2 * Q6_PROBE_MOVES));
            let vnew = v + rows + 1;
            let moved = HapQuery::Q3 {
                vs: vnew,
                ve: vnew + 1,
                k,
            };
            [HapQuery::Q6 { v, vnew }, moved]
        })
        .collect();
    (Q6_PROBE, stream)
}

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--quick` variant: same shape, 64 k rows, a few seconds in total.
    /// Smoke numbers are not comparable with full ones.
    pub fn quick(mut self) -> Workload {
        self.rows = 65_536;
        self.chunk_values = self.chunk_values.min(16_384);
        self.ops = (self.ops / 8).max(2_000);
        self
    }

    /// The named mix over this workload's table.
    pub fn mix(&self) -> Mix {
        Mix::new(self.kind, HapSchema::narrow(), self.rows)
    }

    /// Engine configuration: the paper's set-up (narrow schema, 16 KB
    /// blocks, 0.1 % ghosts) with two worker threads because the sandbox has
    /// two cores.
    pub fn engine_config(&self, mode: LayoutMode) -> EngineConfig {
        EngineConfig {
            mode,
            chunk_values: self.chunk_values,
            threads: 2,
            ..EngineConfig::default()
        }
    }

    /// Prefix of the stream replayed on the baseline layout modes (side
    /// experiments that only need a ratio).
    pub fn side_ops(&self) -> usize {
        self.ops / 4
    }

    /// `n` operations of this workload for `seed`. The same seed gives the
    /// same stream; only this vector ever reaches the engine.
    pub fn stream(&self, mix: &Mix, n: usize, seed: u64) -> Vec<HapQuery> {
        if !self.without_q6 {
            return mix.generate(n, seed);
        }
        // Oversample by the Q6 share, then cut to length.
        let mut s = mix.generate(n + n / 50 + 16, seed);
        s.retain(|q| !matches!(q, HapQuery::Q6 { .. }));
        s.truncate(n);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_counts(s: &[HapQuery]) -> [usize; 6] {
        let mut c = [0; 6];
        for q in s {
            c[q.index()] += 1;
        }
        c
    }

    #[test]
    fn streams_are_seeded_sized_and_shaped() {
        for w in WORKLOADS.map(Workload::quick) {
            let mix = w.mix();
            let a = w.stream(&mix, 5_000, 7);
            assert_eq!(a.len(), 5_000, "{}", w.name);
            assert_eq!(a, w.stream(&mix, 5_000, 7), "{} repeats", w.name);
            assert_ne!(a, w.stream(&mix, 5_000, 8), "{} varies", w.name);
            let c = class_counts(&a);
            assert!(c[3] > 0, "{} has inserts", w.name);
        }
    }

    #[test]
    fn hybrid_range_has_no_q6_and_update_uniform_is_udi2_as_generated() {
        let w = Workload::by_name("hybrid_range").unwrap().quick();
        let c = class_counts(&w.stream(&w.mix(), 5_000, 1));
        assert_eq!(c[5], 0);
        assert!(c[2] > 2_000 && c[3] > 2_000);
        let w = Workload::by_name("update_uniform").unwrap().quick();
        let s = w.stream(&w.mix(), 5_000, 1);
        assert_eq!(s, w.mix().generate(5_000, 1));
        assert!(s.iter().all(|q| !q.is_read()), "UDI2 has no reads");
    }

    #[test]
    fn the_q6_probe_moves_loaded_rows_across_the_domain() {
        let (w, stream) = q6_payload_probe();
        assert_eq!(stream.len() as u64, 2 * Q6_PROBE_MOVES);
        for pair in stream.chunks(2) {
            let [HapQuery::Q6 { v, vnew }, HapQuery::Q3 { vs, ve, .. }] = pair else {
                panic!("a move, then a sum over the moved key: {pair:?}");
            };
            assert!(v % 2 == 0 && *v < w.rows, "a loaded key in the lower half");
            assert!(vnew % 2 == 1 && *vnew > w.rows && *vnew < 2 * w.rows);
            assert_eq!((*vs, *ve), (*vnew, *vnew + 1));
        }
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200, "{} why fits the contract", w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }
}

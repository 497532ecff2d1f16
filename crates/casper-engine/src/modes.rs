//! The six operation modes of the evaluation (§7) and engine configuration.
//!
//! "Casper integrates all tested column layout strategies. In particular,
//! Casper has six distinct operation modes": a plain column store, a sorted
//! column, the sorted-plus-delta state of the art, equi-width partitioning
//! with and without ghost values, and Casper proper (workload-optimized
//! partitions plus Eq. 18 ghost distribution).

/// Column layout strategy (§7 "Experimental Methodology").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutMode {
    /// Plain column store: insertion order, no structure (one partition per
    /// chunk, appends at the tail).
    NoOrder,
    /// Fully sorted column; reads binary-search, writes memmove.
    Sorted,
    /// Sorted column + global delta store — the state-of-the-art baseline.
    StateOfArt,
    /// Equi-width partitioned chunks, no ghost values.
    Equi,
    /// Equi-width partitioned chunks with evenly spread ghost values.
    EquiGV,
    /// Workload-optimized partitioning and ghost distribution.
    Casper,
}

impl LayoutMode {
    /// All modes in the paper's presentation order.
    pub fn all() -> [LayoutMode; 6] {
        [
            LayoutMode::Casper,
            LayoutMode::EquiGV,
            LayoutMode::Equi,
            LayoutMode::StateOfArt,
            LayoutMode::Sorted,
            LayoutMode::NoOrder,
        ]
    }

    /// Display label matching the figures.
    pub fn label(&self) -> &'static str {
        match self {
            LayoutMode::NoOrder => "No Order",
            LayoutMode::Sorted => "Sorted",
            LayoutMode::StateOfArt => "State-of-art",
            LayoutMode::Equi => "Equi",
            LayoutMode::EquiGV => "Equi-GV",
            LayoutMode::Casper => "Casper",
        }
    }

    /// Whether this mode stores chunks as partitioned columns.
    pub fn is_partitioned(&self) -> bool {
        matches!(
            self,
            LayoutMode::NoOrder | LayoutMode::Equi | LayoutMode::EquiGV | LayoutMode::Casper
        )
    }
}

/// Engine configuration (defaults follow the paper's experimental setup:
/// 1M-value chunks, 16 KB blocks, a 0.1% ghost budget). A ghost-policy
/// chunk places its ghost budget and its `capacity_slack` as one reserve
/// of empty slots, about 5.1% of its live rows by default
/// (`column::reserve_slots`).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Layout strategy.
    pub mode: LayoutMode,
    /// Block size in bytes (16 KB in most experiments).
    pub block_bytes: usize,
    /// Values per column chunk (1M in the paper).
    pub chunk_values: usize,
    /// Partition count for the `Equi`/`EquiGV` baselines; also the
    /// fairness cap on Casper's partition count ("we allow Casper to have
    /// as many partitions as the equi-width partitioning schemes", §7).
    /// The default (256 over a 1M-value chunk of 512 16KB-blocks) gives the
    /// baselines ~2-block partitions, comparable to the sorted designs'
    /// block-granular reads.
    pub equi_partitions: usize,
    /// Ghost-value budget as a fraction of the data size (0.1% in Fig. 12).
    /// It is not the whole placed reserve: `EquiGV` (and `Casper` before
    /// its first optimization) spreads it evenly together with
    /// `capacity_slack`, as one reserve of ghosts of about 5.1% of live
    /// rows at the defaults (`column::reserve_slots`).
    pub ghost_budget_frac: f64,
    /// Delta-store capacity as a fraction of the chunk size (`StateOfArt`).
    /// Small enough that merges amortize into short runs, as in real delta
    /// stores, which merge continuously.
    pub delta_frac: f64,
    /// Empty-slot reserve per chunk beyond live rows and the ghost budget,
    /// as a fraction of its live rows. `Equi` and `NoOrder` keep it as a
    /// tail after the last partition. The ghost-policy modes place it as
    /// ghosts with the ghost budget, one reserve, keeping only a
    /// `MIN_TAIL_SLOTS` tail: `EquiGV` evenly, Casper by Eq. 18 across the
    /// whole column (`OptimizeOptions::ghost_budget_frac`). A full chunk
    /// grows by this fraction of its live rows.
    pub capacity_slack: f64,
    /// Worker threads for chunk-parallel operations.
    pub threads: usize,
    /// Ghost slots fetched per ripple (§6.1 block fetching).
    pub ghost_fetch_block: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: LayoutMode::Casper,
            block_bytes: 16 * 1024,
            chunk_values: 1 << 20,
            equi_partitions: 256,
            ghost_budget_frac: 0.001,
            delta_frac: 0.002,
            capacity_slack: 0.05,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            ghost_fetch_block: 8,
        }
    }
}

impl EngineConfig {
    /// Config for a given mode with all other defaults.
    pub fn for_mode(mode: LayoutMode) -> Self {
        Self {
            mode,
            ..Self::default()
        }
    }

    /// Small-footprint config for tests: 4 KB blocks, 4K-value chunks.
    pub fn small(mode: LayoutMode) -> Self {
        Self {
            mode,
            block_bytes: 4096,
            chunk_values: 4096,
            equi_partitions: 8,
            ghost_budget_frac: 0.01,
            threads: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_modes() {
        assert_eq!(LayoutMode::all().len(), 6);
        let labels: std::collections::HashSet<_> =
            LayoutMode::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn partitioned_classification() {
        assert!(LayoutMode::Casper.is_partitioned());
        assert!(LayoutMode::NoOrder.is_partitioned());
        assert!(!LayoutMode::Sorted.is_partitioned());
        assert!(!LayoutMode::StateOfArt.is_partitioned());
    }

    #[test]
    fn defaults_match_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.block_bytes, 16 * 1024);
        assert_eq!(c.chunk_values, 1 << 20);
        assert!((c.ghost_budget_frac - 0.001).abs() < 1e-12);
        assert!(c.threads >= 1);
    }
}

//! Ghost-value allocation (§4.6, Eq. 18).
//!
//! "The operations that can benefit from having ghost values in the
//! partitions they target are inserts and updates. ... The distribution of
//! ghost values for block i ... uses the data movement per block as a
//! result of inserts and updates (`dm_part(i)`), as well as the total data
//! movement (`dm_tot`), to distribute ghost values proportionally to the
//! performance benefit they offer":
//!
//! ```text
//! GValloc(i) = dm_part(i) / dm_tot · GVtot
//! ```
//!
//! We aggregate `dm` per partition (inserts plus incoming updates, both
//! ripple directions) and round with the largest-remainder method so the
//! counts sum to exactly the budget.
//!
//! The budget is the column's: [`split_column_budget`] applies the same
//! rule across a column's chunks first, so the chunks that take the
//! inserts hold the empty slots, and [`allocate_ghosts`] then splits each
//! chunk's share across its partitions. Because both splits follow the
//! same demand, every partition's reserve covers the same share `G/D` of
//! its own inserts and incoming updates, and [`uncovered_share`] is the
//! rest: the share of them that still ripple.

use crate::fm::FrequencyModel;
use casper_storage::PartitionSpec;

/// Distribute `total` slots proportionally to non-negative `weights`
/// using the largest-remainder method, so the counts sum to exactly
/// `total`: Eq. 18's `GValloc(i) = dm_part(i) / dm_tot · GVtot`, rounded.
/// A zero weight vector spreads `total` evenly, the first `total % n`
/// entries getting one extra slot.
fn largest_remainder(weights: &[f64], total: usize) -> Vec<usize> {
    assert!(!weights.is_empty());
    debug_assert!(weights.iter().all(|&w| w >= 0.0));
    let n = weights.len();
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return (0..n)
            .map(|i| total / n + usize::from(i < total % n))
            .collect();
    }
    let mut counts = Vec::with_capacity(n);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let exact = w / sum * total as f64;
        let floor = exact.floor() as usize;
        assigned += floor;
        counts.push(floor);
        remainders.push((i, exact - floor as f64));
    }
    // Hand the leftover slots to the largest fractional remainders.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for &(i, _) in remainders.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

/// Data movement attracted by each partition: Σ over its blocks of
/// `in + utf + utb` (every insert and every incoming update needs a slot in
/// the worst case, §4.6).
fn data_movement_per_partition(fm: &FrequencyModel, seg: &PartitionSpec) -> Vec<f64> {
    assert_eq!(fm.n_blocks(), seg.n_blocks(), "block count mismatch");
    seg.block_ranges()
        .map(|r| r.map(|i| fm.ins[i] + fm.utf[i] + fm.utb[i]).sum())
        .collect()
}

/// Total data movement a chunk's Frequency Model records: Σ over its
/// blocks of `in + utf + utb`.
fn data_movement(fm: &FrequencyModel) -> f64 {
    (0..fm.n_blocks())
        .map(|i| fm.ins[i] + fm.utf[i] + fm.utb[i])
        .sum()
}

/// Eq. 18 at column scope: split a column's `budget` of empty slots across
/// its chunks in proportion to each chunk's `data_movement`. A sample
/// with no data movement anywhere splits by chunk size (`sizes`, live rows
/// per chunk), so every chunk keeps its share of the reserve.
pub fn split_column_budget(fms: &[FrequencyModel], sizes: &[usize], budget: usize) -> Vec<usize> {
    assert_eq!(fms.len(), sizes.len(), "one size per chunk");
    let mut weights: Vec<f64> = fms.iter().map(data_movement).collect();
    if weights.iter().sum::<f64>() <= 0.0 {
        weights = sizes.iter().map(|&n| n as f64).collect();
    }
    largest_remainder(&weights, budget)
}

/// Distribute `budget` ghost slots over the partitions of `seg`
/// proportionally to the data movement they receive (Eq. 18): one count
/// per partition.
pub fn allocate_ghosts(fm: &FrequencyModel, seg: &PartitionSpec, budget: usize) -> Vec<usize> {
    largest_remainder(&data_movement_per_partition(fm, seg), budget)
}

/// The share of `fm`'s slot demand `D = Σ(in + utf + utb)` that a budget
/// of `G` ghost slots placed by [`allocate_ghosts`] leaves uncovered:
/// `ρ = max(0, 1 − G/D)`, and 0 when `D = 0`. Each partition receives the
/// same share `G/D` of its own demand, whatever the boundaries, so `ρ` is
/// the same in every partition.
pub fn uncovered_share(fm: &FrequencyModel, budget: usize) -> f64 {
    let demand = data_movement(fm);
    if demand <= 0.0 {
        return 0.0;
    }
    (1.0 - budget as f64 / demand).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_sums_inserts_and_incoming_updates() {
        let mut fm = FrequencyModel::new(4);
        fm.ins = vec![1.0, 0.0, 0.0, 3.0];
        fm.utf = vec![0.0, 2.0, 0.0, 0.0];
        fm.utb = vec![0.0, 0.0, 4.0, 0.0];
        let seg = PartitionSpec::new(vec![2, 4]);
        let dm = data_movement_per_partition(&fm, &seg);
        assert_eq!(dm, vec![3.0, 7.0]);
    }

    #[test]
    fn allocation_is_proportional_and_exact() {
        let mut fm = FrequencyModel::new(4);
        fm.ins = vec![1.0, 0.0, 0.0, 3.0];
        let seg = PartitionSpec::new(vec![2, 4]);
        assert_eq!(allocate_ghosts(&fm, &seg, 100), vec![25, 75]);
    }

    #[test]
    fn no_movement_spreads_evenly() {
        let fm = FrequencyModel::new(6);
        let seg = PartitionSpec::new(vec![2, 4, 6]);
        assert_eq!(allocate_ghosts(&fm, &seg, 9), vec![3, 3, 3]);
    }

    #[test]
    fn update_heavy_partition_gets_the_budget() {
        // All updates land in the last partition → it should receive
        // (nearly) the whole budget.
        let mut fm = FrequencyModel::new(8);
        fm.udb = vec![0.0; 8];
        fm.udb[0] = 10.0;
        fm.utb = vec![0.0; 8];
        fm.utb[7] = 10.0;
        let seg = PartitionSpec::new(vec![4, 8]);
        assert_eq!(allocate_ghosts(&fm, &seg, 10), vec![0, 10]);
    }

    #[test]
    fn column_budget_follows_data_movement() {
        // Chunk 1 takes three times chunk 0's inserts and updates in; chunk
        // 2 takes none.
        let mut fms = vec![
            FrequencyModel::new(4),
            FrequencyModel::new(4),
            FrequencyModel::new(2),
        ];
        fms[0].ins = vec![1.0, 0.0, 0.0, 1.0];
        fms[1].ins = vec![2.0, 0.0, 0.0, 0.0];
        fms[1].utf = vec![0.0, 1.0, 0.0, 0.0];
        fms[1].utb = vec![0.0, 0.0, 3.0, 0.0];
        fms[2].pq = vec![9.0, 9.0];
        let split = split_column_budget(&fms, &[4000, 4000, 2000], 1000);
        assert_eq!(split, vec![250, 750, 0]);
        assert_eq!(split.iter().sum::<usize>(), 1000);
        // Each chunk's share then follows Eq. 18 inside the chunk.
        let seg = PartitionSpec::new(vec![1, 4]);
        assert_eq!(allocate_ghosts(&fms[1], &seg, split[1]), vec![250, 500]);
        // Rounding still sums to the column's budget exactly.
        let split = split_column_budget(&fms, &[4000, 4000, 2000], 1001);
        assert_eq!(split.iter().sum::<usize>(), 1001);
        assert_eq!(split[2], 0);
    }

    #[test]
    fn column_budget_without_movement_splits_by_size() {
        let mut fms = vec![FrequencyModel::new(4), FrequencyModel::new(2)];
        fms[0].pq = vec![1.0; 4];
        fms[1].sc = vec![3.0; 2];
        assert_eq!(
            split_column_budget(&fms, &[6000, 2000], 800),
            vec![600, 200]
        );
        assert_eq!(split_column_budget(&fms, &[6000, 2000], 0), vec![0, 0]);
    }

    #[test]
    fn uncovered_share_is_the_demand_the_budget_leaves() {
        let mut fm = FrequencyModel::new(4);
        fm.ins = vec![10.0, 0.0, 0.0, 20.0];
        fm.utf = vec![0.0, 6.0, 0.0, 0.0];
        fm.utb = vec![0.0, 0.0, 4.0, 0.0];
        fm.de = vec![50.0; 4]; // deletes demand no slot
        assert_eq!(uncovered_share(&fm, 0), 1.0);
        assert_eq!(uncovered_share(&fm, 10), 0.75);
        assert_eq!(uncovered_share(&fm, 40), 0.0);
        assert_eq!(uncovered_share(&fm, 400), 0.0);
        // No demand: nothing to ripple, whatever the budget.
        assert_eq!(uncovered_share(&FrequencyModel::new(4), 0), 0.0);
    }

    #[test]
    fn zero_budget_zero_plan() {
        let mut fm = FrequencyModel::new(2);
        fm.ins = vec![5.0, 5.0];
        let seg = PartitionSpec::new(vec![1, 2]);
        assert_eq!(allocate_ghosts(&fm, &seg, 0), vec![0, 0]);
    }

    #[test]
    fn proportional_sums_to_total() {
        assert_eq!(largest_remainder(&[1.0, 2.0, 1.0], 8), vec![2, 4, 2]);
    }

    #[test]
    fn proportional_largest_remainder() {
        // Exact shares: 3.33, 3.33, 3.33 → floors 3,3,3, one leftover goes
        // to the largest remainder (ties broken by sort stability).
        let counts = largest_remainder(&[1.0, 1.0, 1.0], 10);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c == 3 || c == 4));
    }

    #[test]
    fn proportional_zero_weights_falls_back_to_even() {
        assert_eq!(largest_remainder(&[0.0, 0.0], 5), vec![3, 2]);
    }

    #[test]
    fn proptest_proportional_invariants() {
        use proptest::prelude::*;
        proptest!(|(weights in proptest::collection::vec(0.0f64..100.0, 1..40),
                    total in 0usize..500)| {
            let counts = largest_remainder(&weights, total);
            prop_assert_eq!(counts.iter().sum::<usize>(), total);
            prop_assert_eq!(counts.len(), weights.len());
        });
    }
}

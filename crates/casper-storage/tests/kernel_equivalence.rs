//! Property tests: the branchless kernel read paths (pruning on partition
//! bounds) must return results identical to the retained scalar reference
//! paths, over arbitrary partitionings, ghost counts and write histories —
//! and their `OpCost` must stay within the scalar path's block-access
//! envelope (pruning may only ever remove block accesses, and an unpruned
//! scan must charge exactly what the scalar scan charges).

use casper_storage::kernels;
use casper_storage::ops::PositionsConsumer;
use casper_storage::value::ColumnValue;
use casper_storage::{
    BlockLayout, ChunkConfig, ChunkLayout, PartitionSpec, PartitionedChunk, UpdatePolicy,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Delete(u64),
    Update(u64, u64),
}

/// Q3 projections: one column, all four, and a reordered subset.
const COL_SETS: [&[usize]; 3] = [&[0], &[0, 1, 2, 3], &[3, 1]];

/// The payload row stored with key `k`: four lanes with distinct contents,
/// so summing the wrong column changes the result.
fn row_of(k: u64) -> Vec<u32> {
    vec![
        (k % 251) as u32,
        (k * 7 + 1) as u32,
        (k ^ 0x5A5) as u32 + 1000,
        (k * k % 65_521) as u32,
    ]
}

/// Transpose rows into slot-aligned payload lanes.
fn lanes_of(keys: &[u64]) -> Vec<Vec<u32>> {
    (0..4)
        .map(|c| keys.iter().map(|&k| row_of(k)[c]).collect())
        .collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..600).prop_map(Op::Insert),
        (0u64..600).prop_map(Op::Delete),
        (0u64..600, 0u64..600).prop_map(|(a, b)| Op::Update(a, b)),
    ]
}

fn build_chunk(
    initial: Vec<u64>,
    sizes: Vec<usize>,
    ghosts: Vec<usize>,
    policy: UpdatePolicy,
    ops: Vec<Op>,
) -> PartitionedChunk<u64> {
    let layout = BlockLayout {
        block_bytes: 32,
        value_width: 8,
    }; // 4 values per block
    let n_blocks = layout.num_blocks(initial.len());
    let mut block_sizes = Vec::new();
    let mut left = n_blocks;
    for &s in &sizes {
        if left == 0 {
            break;
        }
        let take = s.clamp(1, left);
        block_sizes.push(take);
        left -= take;
    }
    if left > 0 {
        block_sizes.push(left);
    }
    let spec = PartitionSpec::from_block_sizes(&block_sizes);
    let k = spec.partition_count();
    let plan = ChunkLayout::with_ghosts(
        spec,
        (0..k)
            .map(|i| {
                if policy == UpdatePolicy::Ghost {
                    ghosts.get(i).copied().unwrap_or(0) % 4
                } else {
                    0
                }
            })
            .collect(),
    );
    let payloads = lanes_of(&initial);
    let mut chunk = PartitionedChunk::build_with_payloads(
        &initial,
        &payloads,
        &plan,
        layout,
        ChunkConfig {
            policy,
            capacity_slack: 1.0,
            ghost_fetch_block: 2,
        },
    )
    .expect("build");
    for op in ops {
        match op {
            Op::Insert(v) => {
                let _ = chunk.insert(v, &row_of(v));
            }
            Op::Delete(v) => {
                let _ = chunk.delete(v);
            }
            Op::Update(a, b) => {
                let _ = chunk.update(a, b);
            }
        }
    }
    chunk
        .validate_invariants()
        .expect("invariants (incl. bounds covering) after the write history");
    chunk
}

fn check_equivalence(chunk: &PartitionedChunk<u64>, probes: &[u64]) -> Result<(), TestCaseError> {
    for &v in probes {
        // Point query: identical positions; cost matches scalar exactly
        // when the partition's bounds could not prune, and touches no
        // block when they could.
        let kern = chunk.point_query(v);
        let scal = chunk.point_query_scalar(v);
        prop_assert_eq!(&kern.positions, &scal.positions, "point({})", v);
        prop_assert_eq!(kern.partition, scal.partition);
        let part = chunk.partitions()[kern.partition];
        if part.len > 0 && part.covers(v) {
            prop_assert_eq!(kern.cost, scal.cost, "unpruned point({}) cost drifted", v);
        } else {
            prop_assert_eq!(kern.cost.total_block_accesses(), 0, "pruned point({})", v);
        }
    }
    for w in probes.windows(2) {
        let (lo, hi) = (w[0].min(w[1]), w[0].max(w[1]));
        // Count: same result, no more block accesses than scalar.
        let (nk, ck) = chunk.range_count(lo, hi);
        let (ns, cs) = chunk.range_count_scalar(lo, hi);
        prop_assert_eq!(nk, ns, "count[{}, {})", lo, hi);
        prop_assert!(ck.total_block_accesses() <= cs.total_block_accesses());

        // Positions: kernel consumer output (runs + positions) must cover
        // exactly the scalar qualifying multiset of slots.
        let mut pk = PositionsConsumer::default();
        let rk = chunk.range_query(lo, hi, &mut pk);
        let mut ps = PositionsConsumer::default();
        let rs = chunk.range_query_scalar(lo, hi, &mut ps);
        prop_assert_eq!(rk.matched, rs.matched);
        let mut slots_k: Vec<usize> = pk.positions.clone();
        slots_k.extend(pk.runs.iter().flat_map(|r| r.clone()));
        slots_k.sort_unstable();
        let mut slots_s: Vec<usize> = ps.positions.clone();
        slots_s.extend(ps.runs.iter().flat_map(|r| r.clone()));
        slots_s.sort_unstable();
        prop_assert_eq!(slots_k, slots_s, "select[{}, {})", lo, hi);

        check_sums(chunk, lo, hi, ck == cs)?;
    }
    Ok(())
}

/// Q3 over every column set: the bitmap-masked sums equal the scalar
/// gather, and the cost obeys the file's rule — never more block accesses
/// than scalar, and exactly scalar's when nothing was pruned. Sum and
/// count walk the same partitions and the sum adds the same payload term
/// on both sides, so `unpruned` is "the count charged exactly what scalar
/// did".
fn check_sums(
    chunk: &PartitionedChunk<u64>,
    lo: u64,
    hi: u64,
    unpruned: bool,
) -> Result<(), TestCaseError> {
    for cols in COL_SETS {
        let (sum_k, cost_k) = chunk.range_sum_payload(lo, hi, cols);
        let (sum_s, cost_s) = chunk.range_sum_payload_scalar(lo, hi, cols);
        prop_assert_eq!(sum_k, sum_s, "sum{:?}[{}, {})", cols, lo, hi);
        prop_assert!(
            cost_k.total_block_accesses() <= cost_s.total_block_accesses(),
            "sum{:?}[{}, {}) kernel cost {:?} > scalar {:?}",
            cols,
            lo,
            hi,
            cost_k,
            cost_s
        );
        if unpruned {
            prop_assert_eq!(
                cost_k,
                cost_s,
                "unpruned sum{:?}[{}, {}) cost drifted",
                cols,
                lo,
                hi
            );
        }
    }
    Ok(())
}

/// Q3 at the storage layer on partitions of 3 × 64 values plus an 8-value
/// ragged tail, reshuffled by delete + re-insert so matches scatter: 0 %
/// (all-zero words, masked sums skipped), ~20 % (sparse SIMD words),
/// all but the maximum (dense words) and 100 % (blind runs) selectivity,
/// per partition and across partitions.
#[test]
fn q3_multi_column_sums_reach_every_word_class() {
    const PART: u64 = 200; // values per partition: 3 full words + 8
    let keys: Vec<u64> = (0..3 * PART).map(|i| 2 * i).collect();
    let layout = BlockLayout {
        block_bytes: 64,
        value_width: 8,
    }; // 8 values per block, 25 blocks per partition
    let mut chunk = PartitionedChunk::build_with_payloads(
        &keys,
        &lanes_of(&keys),
        &ChunkLayout::with_ghosts(
            PartitionSpec::from_block_sizes(&[25, 25, 25]),
            vec![4, 4, 4],
        ),
        layout,
        ChunkConfig::default(),
    )
    .expect("build");
    for &k in keys.iter().step_by(7) {
        assert_eq!(chunk.delete(k).affected, 1);
        chunk.insert(k, &row_of(k)).expect("re-insert");
    }
    chunk.validate_invariants().expect("invariants");
    // Per partition p (keys base..base + 398, even): the four
    // selectivities, then one range across all three and the whole chunk.
    let mut queries = Vec::new();
    for p in 0..3 {
        let b = 2 * PART * p;
        queries.extend([
            (b + 1, b + 2, 0),               // gap in the bounds: no match
            (b + 100, b + 180, 40),          // ~20 %
            (b, b + 2 * PART - 2, PART - 1), // all but the maximum
            (b, b + 2 * PART, PART),         // bounds inside: blind
        ]);
    }
    queries.push((100, 4 * PART + 300, 150 + PART + 150));
    queries.push((0, 6 * PART, 3 * PART));

    // The word classes the masked kernels must handle are all present.
    for (qi, &(lo, hi, _)) in queries.iter().take(12).enumerate() {
        let live = chunk.partition_values(qi / 4);
        assert_eq!(live.len() as u64, PART);
        let mut mask = Vec::new();
        kernels::select_range_bitmap(&live, lo, hi, &mut mask);
        assert_eq!(mask.len(), 4);
        match qi % 4 {
            0 => assert!(mask.iter().all(|&w| w == 0)),
            1 => assert!(mask[..3].iter().any(|&w| w != 0 && w != u64::MAX)),
            2 => assert!(mask[..3].contains(&u64::MAX) && mask[3] != 0),
            _ => {}
        }
    }

    for &(lo, hi, want) in &queries {
        let (n, ck) = chunk.range_count(lo, hi);
        assert_eq!(n, want, "count [{lo}, {hi})");
        let unpruned = ck == chunk.range_count_scalar(lo, hi).1;
        check_sums(&chunk, lo, hi, unpruned).expect("plain chunk");
    }
}

/// `kernels::first_eq` (the write path's find-first) is
/// `iter().position` with an early exit, on every lane shape the
/// 64-value words and 1024-value sub-chunks can split: a match at the
/// first and last slot of a word and of a sub-chunk, only in the ragged
/// tail, with a later duplicate, none at all, and unaligned slice starts.
fn check_first_eq<K: ColumnValue>() {
    const LEN: usize = 2 * 1024 + 100; // two sub-chunks + a ragged tail
    let (fill, hit) = (K::from_ordered_u64(1), K::from_ordered_u64(7));
    assert_eq!(kernels::first_eq(&[], hit), None);
    let mut lanes = vec![vec![fill; LEN]];
    for off in [0, 63, 64, 1023, 1024, 2047, LEN - 30, LEN - 1] {
        let mut lane = vec![fill; LEN];
        lane[off] = hit;
        lanes.push(lane.clone());
        lane[LEN - 1] = hit;
        lane[(off + 1).min(LEN - 1)] = hit;
        lanes.push(lane);
    }
    for lane in &lanes {
        for start in [0, 1, 3, 7, 64, 1025] {
            let s = &lane[start..];
            assert_eq!(
                kernels::first_eq(s, hit),
                s.iter().position(|&x| x == hit),
                "width {} start {start}",
                K::WIDTH
            );
        }
    }
}

#[test]
fn first_eq_matches_position_at_every_width() {
    check_first_eq::<u32>();
    check_first_eq::<u64>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_scalar_ghost_policy(
        initial in proptest::collection::vec(0u64..500, 8..150),
        sizes in proptest::collection::vec(1usize..6, 1..8),
        ghosts in proptest::collection::vec(0usize..4, 0..8),
        ops in proptest::collection::vec(op_strategy(), 0..60),
        probes in proptest::collection::vec(0u64..620, 2..40),
    ) {
        let chunk = build_chunk(initial, sizes, ghosts, UpdatePolicy::Ghost, ops);
        check_equivalence(&chunk, &probes)?;
    }

    #[test]
    fn kernels_match_scalar_dense_policy(
        initial in proptest::collection::vec(0u64..500, 8..150),
        sizes in proptest::collection::vec(1usize..6, 1..8),
        ops in proptest::collection::vec(op_strategy(), 0..60),
        probes in proptest::collection::vec(0u64..620, 2..40),
    ) {
        let chunk = build_chunk(initial, sizes, vec![], UpdatePolicy::Dense, ops);
        check_equivalence(&chunk, &probes)?;
    }
}

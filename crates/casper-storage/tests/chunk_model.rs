//! Model-based property test: a `PartitionedChunk` under arbitrary
//! interleavings of the five operations must behave exactly like a plain
//! multiset of rows, for both update policies, arbitrary partitionings and
//! ghost counts, while never violating its structural invariants. Every row
//! carries a unique id in its one payload column, so a ripple that moves a
//! key without its payload shows up as a `(key, id)` mismatch.

use casper_storage::{
    BlockLayout, ChunkConfig, ChunkLayout, PartitionSpec, PartitionedChunk, UpdatePolicy,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Action {
    Insert(u64),
    Delete(u64),
    Update(u64, u64),
    Point(u64),
    RangeCount(u64, u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..500).prop_map(Action::Insert),
        (0u64..500).prop_map(Action::Delete),
        (0u64..500, 0u64..500).prop_map(|(a, b)| Action::Update(a, b)),
        (0u64..500).prop_map(Action::Point),
        (0u64..500, 0u64..500).prop_map(|(a, b)| Action::RangeCount(a.min(b), a.max(b))),
    ]
}

fn run_model(
    initial: Vec<u64>,
    sizes: Vec<usize>,
    ghosts: Vec<usize>,
    policy: UpdatePolicy,
    actions: Vec<Action>,
) -> Result<(), TestCaseError> {
    let layout = BlockLayout {
        block_bytes: 32,
        value_width: 8,
    }; // 4 values per block
    let n_blocks = layout.num_blocks(initial.len());
    // Re-scale the size vector to cover exactly n_blocks.
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
    let chunk_layout = ChunkLayout::with_ghosts(
        spec,
        (0..k)
            .map(|i| ghosts.get(i).copied().unwrap_or(0) % 4)
            .collect(),
    );
    let config = ChunkConfig {
        policy,
        capacity_slack: 1.0,
        ghost_fetch_block: 2,
    };
    let ids: Vec<u32> = (0..initial.len() as u32).collect();
    let mut chunk =
        PartitionedChunk::build_with_payloads(&initial, &[&ids], &chunk_layout, layout, config)
            .expect("build");
    let mut model: Vec<(u64, u32)> = initial.into_iter().zip(ids).collect();
    let mut next_id = model.len() as u32;

    for a in actions {
        match a {
            Action::Insert(v) => {
                if chunk.insert(v, &[next_id]).is_ok() {
                    model.push((v, next_id));
                }
                next_id += 1;
            }
            Action::Delete(v) => {
                let r = chunk.delete(v);
                let want = model.iter().filter(|&&(k, _)| k == v).count() as u64;
                prop_assert_eq!(r.affected, want, "delete({}) cardinality", v);
                model.retain(|&(k, _)| k != v);
            }
            Action::Update(old, new) => {
                // Which duplicate moves is the chunk's choice (first in slot
                // order): read it off as the id that left `old`.
                let before = ids_at(&chunk, old);
                let r = chunk.update(old, new).expect("update");
                let after = ids_at(&chunk, old);
                prop_assert_eq!(r.affected, u64::from(!before.is_empty()));
                if old != new {
                    if let Some(&moved) = before.iter().find(|id| !after.contains(id)) {
                        let row = model.iter_mut().find(|r| **r == (old, moved));
                        row.expect("moved row is in the model").0 = new;
                    }
                }
            }
            Action::Point(v) => {
                let got = chunk.point_query(v).positions.len();
                let want = model.iter().filter(|&&(k, _)| k == v).count();
                prop_assert_eq!(got, want, "point({})", v);
            }
            Action::RangeCount(lo, hi) => {
                let (got, _) = chunk.range_count(lo, hi);
                let want = model.iter().filter(|&&(k, _)| lo <= k && k < hi).count() as u64;
                prop_assert_eq!(got, want, "range[{}, {})", lo, hi);
            }
        }
        if let Err(e) = chunk.validate_invariants() {
            return Err(TestCaseError::fail(format!("invariant violated: {e}")));
        }
        // Row-for-row equality after every action: keys and their payloads.
        let (keys, cols) = chunk.extract_live_sorted();
        let mut live: Vec<(u64, u32)> = keys.into_iter().zip(cols[0].iter().copied()).collect();
        live.sort_unstable();
        model.sort_unstable();
        prop_assert_eq!(&live, &model, "rows diverged after {:?}", a);
    }
    Ok(())
}

/// Ids (payload column 0) of the live rows with key `v`.
fn ids_at(chunk: &PartitionedChunk<u64>, v: u64) -> Vec<u32> {
    let positions = chunk.point_query(v).positions;
    positions
        .into_iter()
        .map(|p| chunk.payloads().get(0, p))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunk_behaves_like_multiset_ghost_policy(
        initial in proptest::collection::vec(0u64..500, 8..120),
        sizes in proptest::collection::vec(1usize..6, 1..8),
        ghosts in proptest::collection::vec(0usize..4, 0..8),
        actions in proptest::collection::vec(action_strategy(), 1..60),
    ) {
        run_model(initial, sizes, ghosts, UpdatePolicy::Ghost, actions)?;
    }

    #[test]
    fn chunk_behaves_like_multiset_dense_policy(
        initial in proptest::collection::vec(0u64..500, 8..120),
        sizes in proptest::collection::vec(1usize..6, 1..8),
        actions in proptest::collection::vec(action_strategy(), 1..60),
    ) {
        run_model(initial, sizes, vec![], UpdatePolicy::Dense, actions)?;
    }

    #[test]
    fn dense_policy_keeps_zero_ghosts(
        initial in proptest::collection::vec(0u64..200, 8..60),
        actions in proptest::collection::vec(action_strategy(), 1..40),
    ) {
        let layout = BlockLayout { block_bytes: 32, value_width: 8 };
        let n = layout.num_blocks(initial.len());
        let spec = PartitionSpec::equi_width(n, 4.min(n));
        let mut chunk = PartitionedChunk::build(
            initial,
            &ChunkLayout::dense(spec),
            layout,
            ChunkConfig::dense(),
        ).expect("build");
        for a in actions {
            match a {
                Action::Insert(v) => { let _ = chunk.insert(v, &[]); }
                Action::Delete(v) => { let _ = chunk.delete(v); }
                Action::Update(a, b) => { let _ = chunk.update(a, b); }
                _ => {}
            }
            prop_assert_eq!(chunk.ghost_total(), 0, "dense chunks never hold ghosts");
        }
    }
}

//! FM drift sees writes: the drift table's observed side counts every chunk
//! a write routes to, as it counts every chunk a read routes to. The FM a
//! layout is solved for records writes too (`set_predicted` installs its
//! total mass), so a write-only stream must move the observed count.
//!
//! This is its own test binary because the drift table is process-global
//! and keyed by chunk index: no other test may read, write or optimize in
//! this process while the counts are taken.

use casper_engine::optimize::{optimize_table, OptimizeOptions};
use casper_engine::{EngineConfig, LayoutMode, Table};
use casper_workload::{HapQuery, HapSchema, Mix, MixKind};

#[test]
fn serial_writes_feed_fm_drift() {
    let reg = casper_obs::enable();
    let schema = HapSchema::narrow();
    let mix = Mix::new(MixKind::HybridPointSkewed, schema, 4096);
    let mut config = EngineConfig::small(LayoutMode::Casper);
    config.chunk_values = 1024; // four chunks over keys 0..=8190
    let mut table = Table::load_from_generator(mix.generator(), config);
    let sample = mix.generate(400, 1);
    optimize_table(&mut table, &sample, &OptimizeOptions::default());
    let observed = |chunk: usize| {
        let entries = reg.drift().entries();
        entries
            .iter()
            .find(|e| e.chunk == chunk)
            .map_or(0, |e| e.observed)
    };
    let target = table.column().route_for(5001).expect("ordered column");
    assert_eq!(observed(target), 0, "the re-layout starts a new window");

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
        observed(target),
        writes.len() as u64,
        "one observed access per write routed to the chunk"
    );
    for chunk in (0..table.column().chunk_count()).filter(|&c| c != target) {
        assert_eq!(observed(chunk), 0, "chunk {chunk} saw no traffic");
    }
}

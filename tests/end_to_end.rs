//! Cross-crate integration tests: workload generation → engine execution →
//! layout optimization → verification, spanning all five crates through
//! the facade.

use casper::engine::optimize::{capture_per_chunk, optimize_table, OptimizeOptions};
use casper::engine::{EngineConfig, LayoutMode, Table};
use casper::workload::{HapQuery, HapSchema, Mix, MixKind};

fn small_config(mode: LayoutMode) -> EngineConfig {
    let mut c = EngineConfig::small(mode);
    c.chunk_values = 2048;
    c
}

/// A brute-force logical reference model of the HAP table.
struct Reference {
    rows: Vec<(u64, Vec<u32>)>,
}

impl Reference {
    fn load(gen: &casper::workload::WorkloadGenerator) -> Self {
        let keys = gen.initial_keys();
        let cols = gen.initial_payload_columns();
        let rows = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, cols.iter().map(|c| c[i]).collect()))
            .collect();
        Self { rows }
    }

    fn execute(&mut self, q: &HapQuery) -> u64 {
        match q {
            HapQuery::Q1 { v, .. } => self.rows.iter().filter(|(k, _)| k == v).count() as u64,
            HapQuery::Q2 { vs, ve } => self
                .rows
                .iter()
                .filter(|(k, _)| (*vs..*ve).contains(k))
                .count() as u64,
            HapQuery::Q3 { vs, ve, k } => self
                .rows
                .iter()
                .filter(|(key, _)| (*vs..*ve).contains(key))
                .map(|(_, row)| row[..*k].iter().map(|&v| u64::from(v)).sum::<u64>())
                .sum(),
            HapQuery::Q4 { key, payload } => {
                self.rows.push((*key, payload.clone()));
                1
            }
            HapQuery::Q5 { v } => {
                let before = self.rows.len();
                self.rows.retain(|(k, _)| k != v);
                (before - self.rows.len()) as u64
            }
            HapQuery::Q6 { v, vnew } => match self.rows.iter_mut().find(|(k, _)| k == v) {
                Some(row) => {
                    row.0 = *vnew;
                    1
                }
                None => 0,
            },
        }
    }
}

#[test]
fn every_mode_matches_the_reference_model() {
    let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 4096);
    let queries = mix.generate(600, 2024);
    for mode in LayoutMode::all() {
        let mut table = Table::load_from_generator(mix.generator(), small_config(mode));
        let mut reference = Reference::load(mix.generator());
        for (i, q) in queries.iter().enumerate() {
            let got = table.execute(q).expect("execute").result.scalar();
            let want = reference.execute(q);
            assert_eq!(got, want, "{mode:?} diverged at query {i}: {q:?}");
        }
        assert_eq!(table.len(), reference.rows.len(), "{mode:?} row count");
    }
}

/// Load `mix` in `mode`; Casper additionally trains on a fresh sample from
/// the same mix and re-lays out before the measured stream.
fn build_table(mix: &Mix, mode: LayoutMode) -> Table {
    let config = small_config(mode);
    let mut table = Table::load_from_generator(mix.generator(), config);
    if mode == LayoutMode::Casper {
        let opts = OptimizeOptions {
            ghost_budget_frac: config.ghost_budget_frac,
            threads: config.threads,
            ..OptimizeOptions::default()
        };
        optimize_table(&mut table, &mix.generate(200, 43), &opts);
    }
    table
}

/// Sum of every result scalar, one query at a time.
fn serial_checksum(table: &mut Table, queries: &[HapQuery]) -> u64 {
    queries.iter().fold(0u64, |acc, q| {
        acc.wrapping_add(table.execute(q).expect("execute").result.scalar())
    })
}

#[test]
fn checksums_agree_across_modes() {
    let mix = Mix::new(MixKind::HybridPointSkewed, HapSchema::narrow(), 4096);
    let queries = mix.generate(200, 42);
    let reference = serial_checksum(&mut build_table(&mix, LayoutMode::Sorted), &queries);
    for mode in [
        LayoutMode::Casper,
        LayoutMode::EquiGV,
        LayoutMode::Equi,
        LayoutMode::StateOfArt,
        LayoutMode::NoOrder,
    ] {
        let got = serial_checksum(&mut build_table(&mix, mode), &queries);
        assert_eq!(got, reference, "{mode:?} diverged");
    }
}

#[test]
fn optimized_layout_matches_reference_under_continued_writes() {
    let mix = Mix::new(MixKind::UpdateOnlySkewed, HapSchema::narrow(), 4096);
    let mut table = Table::load_from_generator(mix.generator(), small_config(LayoutMode::Casper));
    let mut reference = Reference::load(mix.generator());
    // Train and re-layout mid-stream, then keep writing.
    let warm = mix.generate(300, 1);
    for q in &warm {
        let got = table.execute(q).expect("warm").result.scalar();
        let want = reference.execute(q);
        assert_eq!(got, want);
    }
    let sample = mix.generate(500, 2);
    optimize_table(&mut table, &sample, &OptimizeOptions::default());
    let cont = mix.generate(400, 3);
    for (i, q) in cont.iter().enumerate() {
        let got = table.execute(q).expect("cont").result.scalar();
        let want = reference.execute(q);
        assert_eq!(got, want, "diverged at post-optimize query {i}: {q:?}");
    }
}

#[test]
fn capture_covers_all_chunks_of_a_real_table() {
    let mix = Mix::new(MixKind::ReadOnlyUniform, HapSchema::narrow(), 8192);
    let table = Table::load_from_generator(mix.generator(), small_config(LayoutMode::Casper));
    assert!(table.column().chunk_count() >= 4);
    let sample = mix.generate(2000, 5);
    let fms = capture_per_chunk(&table, &sample);
    assert_eq!(fms.len(), table.column().chunk_count());
    // Uniform reads must leave mass in every chunk.
    for (i, fm) in fms.iter().enumerate() {
        assert!(
            fm.total_mass() > 0.0,
            "chunk {i} received no captured accesses"
        );
        fm.validate().expect("captured model is valid");
    }
}

#[test]
fn multi_column_q6_analog_consistent_across_modes() {
    let mix = Mix::new(MixKind::HybridRangeSkewed, HapSchema::narrow(), 4096);
    let mut reference: Option<u64> = None;
    for mode in LayoutMode::all() {
        let table = Table::load_from_generator(mix.generator(), small_config(mode));
        let out = table
            .multi_column_sum(1000, 5000, &[0, 1], 2, 0, 50_000)
            .unwrap();
        let sum = out.result.scalar();
        match reference {
            None => reference = Some(sum),
            Some(want) => assert_eq!(sum, want, "{mode:?} multi-column sum diverged"),
        }
    }
}

//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. A self-test fails when
//! `BENCHMARK.json` and these tables disagree.

use crate::json::Json;

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the engine sees. Same names on every workload, so only
/// what every workload has: `update_uniform` has no reads, and read latency
/// is therefore per-layer (`engine.read_p50_us`). Throughput gates it where
/// reads are the time: 97 % and more on `hybrid_point` and `hybrid_range`.
pub const END_TO_END: &[MetricDef] = &[
    // load + optimize (+ DurableTable::create_from_table on durable_hybrid);
    // median over the run's fresh tables.
    e2e("setup_s", "s", "lower", 0.25),
    // Measured stream on the Casper layout; median over the fresh tables.
    e2e("throughput_ops_s", "ops/s", "higher", 0.25),
    // Q4/Q5/Q6 per-op latency over the pooled samples of all tables; on
    // durable_hybrid a write applied and staged in the WAL (the batch's
    // seal lands on one write in 256).
    e2e("write_p50_us", "us", "lower", 0.25),
    // column().resident_bytes() / live rows after the run: the space leg of
    // the read / write / space triangle. Repeats exactly for a given seed.
    e2e("mem_bytes_per_row", "B", "lower", 0.10),
];

/// Single-layer metrics from the traced run. Ungated. A metric that does not
/// apply to a workload (persist.* off `durable_hybrid`, a query class the
/// mix lacks) is reported as 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.generate_s", "s", "lower"),
    // casper-core: Frequency Model capture and the layout solve.
    layer("core.fm_capture_s", "s", "lower"),
    layer("core.solve_s", "s", "lower"),
    layer("core.partitions", "count", "higher"),
    layer("core.ghost_slots", "count", "lower"),
    layer("core.est_cost_ns", "ns", "lower"),
    layer("core.compressed_partitions", "count", "higher"),
    // Measured storage-rung ns / nanos_of(OpCost) under calibrate(quick()).
    layer("core.model_residual.q1", "ratio", "lower"),
    layer("core.model_residual.q2", "ratio", "lower"),
    layer("core.model_residual.q3", "ratio", "lower"),
    layer("core.model_residual.q4", "ratio", "lower"),
    layer("core.model_residual.q5", "ratio", "lower"),
    layer("core.model_residual.q6", "ratio", "lower"),
    // casper-storage: direct PartitionedChunk calls on cloned chunk stores.
    layer("storage.busy_s", "s", "lower"),
    layer("storage.q1_ns_p50", "ns", "lower"),
    layer("storage.q2_ns_p50", "ns", "lower"),
    layer("storage.q3_ns_p50", "ns", "lower"),
    layer("storage.q4_ns_p50", "ns", "lower"),
    layer("storage.q5_ns_p50", "ns", "lower"),
    layer("storage.q6_ns_p50", "ns", "lower"),
    layer("storage.random_reads", "count", "lower"),
    layer("storage.random_writes", "count", "lower"),
    layer("storage.seq_reads", "count", "lower"),
    layer("storage.seq_writes", "count", "lower"),
    layer("storage.index_probes", "count", "lower"),
    layer("storage.values_scanned", "count", "lower"),
    layer("storage.scanned_per_result", "ratio", "lower"),
    layer("storage.scan_ns_per_value", "ns", "lower"),
    layer("storage.partitions_touched_per_write", "ratio", "lower"),
    layer("storage.zone_pruned_share", "ratio", "higher"),
    layer("storage.compressed_hit_share", "ratio", "higher"),
    // Q3 results the cross-partition Q6 payload defect corrupts on a small
    // unfiltered hybrid-range probe; 0 once the defect is fixed.
    layer("storage.q6_payload_probe_failed", "count", "lower"),
    // casper-engine: Table::execute on a twin, minus the storage rung.
    layer("engine.busy_s", "s", "lower"),
    layer("engine.q1_self_ns_p50", "ns", "lower"),
    layer("engine.q2_self_ns_p50", "ns", "lower"),
    layer("engine.q3_self_ns_p50", "ns", "lower"),
    layer("engine.q4_self_ns_p50", "ns", "lower"),
    layer("engine.q5_self_ns_p50", "ns", "lower"),
    layer("engine.q6_self_ns_p50", "ns", "lower"),
    layer("engine.self_share", "ratio", "lower"),
    layer("engine.load_s", "s", "lower"),
    layer("engine.rebuild_s", "s", "lower"),
    layer("engine.chunks_routed_per_read", "ratio", "lower"),
    layer("engine.cow_copies", "count", "lower"),
    layer("engine.read_samples", "count", "higher"),
    layer("engine.write_samples", "count", "higher"),
    // Q1/Q2/Q3 latency of the top rung, pooled over the climbs.
    layer("engine.read_p50_us", "us", "lower"),
    // Tail latency of the top rung, pooled over the climbs. Ungated: p99 sits
    // in the cold partitions, whose boundaries move with the training sample
    // (10-20 % from seed to seed), and p99.9 does not repeat within a tenth
    // on a shared box at all.
    layer("engine.read_p99_us", "us", "lower"),
    layer("engine.write_p99_us", "us", "lower"),
    layer("engine.read_p999_us", "us", "lower"),
    layer("engine.write_p999_us", "us", "lower"),
    layer("engine.calibrate.rr_ns", "ns", "lower"),
    layer("engine.calibrate.rw_ns", "ns", "lower"),
    layer("engine.calibrate.sr_ns", "ns", "lower"),
    layer("engine.calibrate.sw_ns", "ns", "lower"),
    // Baseline layouts on a prefix of the same stream, same model check.
    layer("engine.mode.soa.throughput_ops_s", "ops/s", "higher"),
    layer("engine.mode.equi.throughput_ops_s", "ops/s", "higher"),
    layer("engine.mode.equigv.throughput_ops_s", "ops/s", "higher"),
    layer("engine.mode.soa.ops_failed", "count", "lower"),
    // Fig. 12's normalised number. Ungated, so that speeding up the baseline
    // is never a "regression".
    layer("engine.casper_vs_soa", "ratio", "higher"),
    // casper-persist (durable_hybrid only): DurableTable::execute minus the
    // engine rung, and Wal::stage + Wal::seal alone.
    layer("persist.busy_s", "s", "lower"),
    layer("persist.create_s", "s", "lower"),
    layer("persist.write_self_us_p50", "us", "lower"),
    layer("persist.read_self_ns_p50", "ns", "lower"),
    layer("persist.wal_stage_ns_p50", "ns", "lower"),
    layer("persist.wal_seal_us_p50", "us", "lower"),
    layer("persist.wal_seal_us_p99", "us", "lower"),
    layer("persist.fsyncs", "count", "lower"),
    layer("persist.wal_bytes", "B", "lower"),
    layer("persist.checkpoints", "count", "higher"),
    layer("persist.checkpoint_full_s", "s", "lower"),
    layer("persist.checkpoint_incr_s", "s", "lower"),
    layer("persist.commit_stall_us_max", "us", "lower"),
    layer("persist.write_amp", "ratio", "lower"),
    layer("persist.space_amp", "ratio", "lower"),
    layer("persist.open_s", "s", "lower"),
    layer("persist.first_query_us", "us", "lower"),
    layer("persist.replayed_ops", "count", "lower"),
    layer("persist.acked_lost", "count", "lower"),
    // Cost of looking: casper-obs engaged, and the harness's own spans.
    layer("obs.overhead_ratio", "ratio", "higher"),
    layer("obs.harness_overhead_ratio", "ratio", "higher"),
];

/// Measured values, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`. The name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        assert!(
            !self.0.iter().any(|(n, _)| *n == def.name),
            "metric `{name}` set twice"
        );
        self.0.push((def.name, value));
    }

    /// Render exactly the metrics of `defs`, in catalogue order. An
    /// end-to-end metric must have been measured; a per-layer metric that
    /// does not apply to the workload reads 0.
    pub fn render(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let value = self.0.iter().find(|(n, _)| *n == d.name).map(|&(_, v)| v);
            let value = match (value, d.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric `{}` was not measured", d.name),
            };
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_fits_the_contract() {
        let legal = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal(d.name, "_.-", 64), "name {}", d.name);
            assert!(legal(d.unit, "_/%.-", 16), "unit of {}", d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(names.insert(d.name), "{} is defined twice", d.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn unmeasured_layer_metrics_read_zero() {
        let mut m = Metrics::default();
        m.set("persist.fsyncs", 3.0);
        let out = m.render(PER_LAYER);
        assert_eq!(out.members().len(), PER_LAYER.len());
        let v = |n: &str| out.get(n).unwrap().get("value").unwrap().as_f64().unwrap();
        assert_eq!(v("persist.fsyncs"), 3.0);
        assert_eq!(v("persist.open_s"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn unmeasured_end_to_end_metric_is_a_bug() {
        Metrics::default().render(END_TO_END);
    }
}

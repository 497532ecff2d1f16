//! Point-in-time snapshots of the registry and their Prometheus-text /
//! JSON renderings.

use crate::hist::HistogramSnapshot;
use crate::registry::Registry;
use std::fmt::Write as _;

/// A consistent point-in-time view of every registered metric.
///
/// Counters and histogram totals are monotone across captures (each atomic
/// only grows, and histogram totals are derived from the bucket reads
/// themselves — see [`crate::Histogram::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` in name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Capture the registry's current state.
    pub fn capture(reg: &Registry) -> Self {
        let mut snap = Self::default();
        reg.for_each_counter(|name, c| snap.counters.push((name.to_owned(), c.get())));
        reg.for_each_gauge(|name, g| snap.gauges.push((name.to_owned(), g.get())));
        reg.for_each_histogram(|name, h| snap.histograms.push((name.to_owned(), h.snapshot())));
        snap
    }

    /// Value of a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Sum of every counter whose name starts with `prefix` (handy for
    /// labeled families: `casper_query_total{class="q1"}` …).
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Prometheus text exposition. Histograms are rendered as summary-style
    /// series (`_count`, `_sum`, and `{quantile=…}` gauges from the
    /// log₂-bucket estimate).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        let type_line = |out: &mut String, name: &str, kind: &str, last: &mut String| {
            let base = name.split('{').next().unwrap_or(name);
            if base != last {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last.clear();
                last.push_str(base);
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter", &mut last_base);
            let _ = writeln!(out, "{name} {v}");
        }
        last_base.clear();
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge", &mut last_base);
            let _ = writeln!(out, "{name} {v}");
        }
        last_base.clear();
        for (name, h) in &self.histograms {
            type_line(&mut out, name, "summary", &mut last_base);
            let (base, labels) = split_labels(name);
            let series = |suffix: &str, extra_labels: &str| {
                let mut all = String::new();
                all.push_str(labels);
                if !labels.is_empty() && !extra_labels.is_empty() {
                    all.push(',');
                }
                all.push_str(extra_labels);
                if all.is_empty() {
                    format!("{base}{suffix}")
                } else {
                    format!("{base}{suffix}{{{all}}}")
                }
            };
            let _ = writeln!(out, "{} {}", series("_count", ""), h.count());
            let _ = writeln!(out, "{} {}", series("_sum", ""), h.sum);
            for q in [0.5, 0.99, 0.999] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(out, "{} {v}", series("", &format!("quantile=\"{q}\"")));
                }
            }
        }
        out
    }

    /// Handwritten JSON rendering (the workspace is offline — no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"counters\": {{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {v}{comma}", escape(name));
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"gauges\": {{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {v}{comma}", escape(name));
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"histograms\": {{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \
                 \"p999\": {}, \"max\": {}}}{comma}",
                escape(name),
                h.count(),
                h.sum,
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.quantile(0.999).unwrap_or(0),
                h.max_bound().unwrap_or(0),
            );
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Split `name{labels}` into `(name, labels)`; labels are empty for plain
/// names.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn render_contains_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("casper_test_events_total{class=\"q1\"}").add(3);
        reg.gauge("casper_test_level").set(2.0);
        reg.histogram("casper_test_ns").record(1000);
        let snap = MetricsSnapshot::capture(&reg);
        let text = snap.to_prometheus_text();
        assert!(text.contains("# TYPE casper_test_events_total counter"));
        assert!(text.contains("casper_test_events_total{class=\"q1\"} 3"));
        assert!(text.contains("# TYPE casper_test_level gauge"));
        assert!(text.contains("casper_test_ns_count 1"));
        assert!(text.contains("quantile=\"0.99\""));
        let json = snap.to_json();
        assert!(json.contains("\"casper_test_events_total{class=\\\"q1\\\"}\": 3"));
    }

    #[test]
    fn accessors_find_by_name_and_family() {
        let reg = Registry::new();
        reg.counter("fam_total{k=\"a\"}").add(1);
        reg.counter("fam_total{k=\"b\"}").add(2);
        reg.gauge("g").set(1.5);
        let snap = MetricsSnapshot::capture(&reg);
        assert_eq!(snap.counter("fam_total{k=\"b\"}"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.counter_family("fam_total"), 3);
        assert_eq!(snap.gauge("g"), Some(1.5));
    }

    #[test]
    fn labels_split_correctly() {
        assert_eq!(split_labels("a_total"), ("a_total", ""));
        assert_eq!(split_labels("a_total{x=\"1\"}"), ("a_total", "x=\"1\""));
    }
}

//! `compare a.jsonl b.jsonl`: per workload and end-to-end metric, the ratio
//! `b / a` with its base, the bound, and a verdict.
//!
//! Both files hold the standard output of one or more end-to-end runs of
//! this benchmark (two lines per run; traced runs in the file are skipped).
//! A side's value is the median over its runs of a workload. Its spread is
//! the distance between the quartiles of those runs as a share of their
//! median when there are at least [`RUNS_FOR_SPREAD`], and otherwise the
//! widest spread any of its runs saw between its own fresh tables. A metric
//! whose spread on either side is wider than its bound cannot resolve a
//! change of the bound's size: it is `unresolved` whatever the ratio says.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use std::fmt::Write as _;

/// Runs of one workload a side needs before the spread is taken between
/// runs instead of inside them.
const RUNS_FOR_SPREAD: usize = 4;

/// One end-to-end run: its `what was run` line and its result line.
struct Run {
    info: Json,
    result: Json,
}

impl Run {
    fn workload(&self) -> &str {
        match self.info.get("workload") {
            Some(Json::Str(name)) => name,
            _ => "?",
        }
    }

    fn count(&self, key: &str) -> Result<f64, String> {
        self.result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("a run of `{}` lacks `{key}`", self.workload()))
    }

    fn metric(&self, name: &str) -> Result<f64, String> {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("a run of `{}` lacks `{name}`", self.workload()))
    }

    /// The spread between this run's own tables.
    fn own_spread(&self, name: &str) -> Result<f64, String> {
        self.info
            .get("notes")
            .and_then(|n| n.get(&format!("spread.{name}")))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("a run of `{}` lacks `spread.{name}`", self.workload()))
    }
}

/// The end-to-end runs in one file, refusing smoke runs.
fn runs(side: &str, text: &str) -> Result<Vec<Run>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let mut out = Vec::new();
    while let Some(line) = lines.next() {
        let parse = |l: &str| Json::parse(l).map_err(|e| format!("the {side} file: {e}"));
        let info = parse(line)?;
        let result = parse(
            lines
                .next()
                .ok_or_else(|| format!("the {side} file ends inside a run"))?,
        )?;
        if info.get("workload").is_none() || result.get("metrics").is_none() {
            return Err(format!(
                "the {side} file is not the output of benchmark runs"
            ));
        }
        if info.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "the {side} file holds a --quick smoke run: refusing to compare"
            ));
        }
        if info.get("trace").and_then(Json::as_bool) == Some(false) {
            out.push(Run { info, result });
        }
    }
    if out.is_empty() {
        return Err(format!("the {side} file holds no end-to-end run"));
    }
    Ok(out)
}

/// Median and spread of one metric over one side's runs of a workload.
fn side_value(runs: &[&Run], name: &str) -> Result<(f64, f64), String> {
    let values = runs
        .iter()
        .map(|r| r.metric(name))
        .collect::<Result<Vec<_>, _>>()?;
    let spread = if runs.len() >= RUNS_FOR_SPREAD {
        quartile_spread(&values).expect("at least two runs")
    } else {
        runs.iter()
            .map(|r| r.own_spread(name))
            .try_fold(0.0f64, |widest, s| s.map(|s| widest.max(s)))?
    };
    Ok((median(&values).expect("at least one run"), spread))
}

/// Compare two files of runs. `Err` explains why they cannot be compared.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let (a, b) = (runs("first", a)?, runs("second", b)?);
    let host = a[0].info.get("host");
    if let Some(other) = a.iter().chain(&b).find(|r| r.info.get("host") != host) {
        return Err(format!(
            "host fingerprints differ:\n  {}\n  {}",
            host.map_or("?".into(), Json::render),
            other.info.get("host").map_or("?".into(), Json::render)
        ));
    }
    let mut names: Vec<&str> = Vec::new();
    for r in &a {
        if !names.contains(&r.workload()) {
            names.push(r.workload());
        }
    }
    let mut out = String::new();
    let mut verdicts = [0usize; 3];
    for name in names {
        fn of<'a>(side: &'a [Run], name: &str) -> Vec<&'a Run> {
            side.iter().filter(|r| r.workload() == name).collect()
        }
        let (ra, rb) = (of(&a, name), of(&b, name));
        if rb.is_empty() {
            return Err(format!("the second file lacks workload `{name}`"));
        }
        let _ = writeln!(out, "{name}");
        for (side, runs) in [("a", &ra), ("b", &rb)] {
            let sum = |key: &str| runs.iter().map(|r| r.count(key)).sum::<Result<f64, _>>();
            let (failed, attempted) = (sum("failed")?, sum("attempted")?);
            let _ = writeln!(
                out,
                "  {side}: {} run(s), ops_failed {failed} of {attempted} ({:.4} %)",
                runs.len(),
                100.0 * failed / attempted,
            );
        }
        for d in END_TO_END {
            let ((va, spread_a), (vb, spread_b)) =
                (side_value(&ra, d.name)?, side_value(&rb, d.name)?);
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            // How much worse b is than a, as a share of a.
            let worse_by = match d.better {
                "lower" => vb / va - 1.0,
                _ => 1.0 - vb / va,
            };
            let verdict = if spread_a.max(spread_b) > bound {
                2
            } else if worse_by > bound {
                1
            } else {
                0
            };
            verdicts[verdict] += 1;
            let _ = writeln!(
                out,
                "  {:<18} {:>14.4} / {:>14.4} {:<5} = {:>7.4}  bound {:.2}  spread {:.3} / {:.3}  {}",
                d.name,
                vb,
                va,
                d.unit,
                vb / va,
                bound,
                spread_b,
                spread_a,
                ["ok", "worse", "unresolved"][verdict],
            );
        }
    }
    let _ = writeln!(
        out,
        "{} ok, {} worse, {} unresolved",
        verdicts[0], verdicts[1], verdicts[2]
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end run's two output lines. `spread` is the run's own
    /// table-to-table spread of throughput; `None` leaves the note out.
    fn run(smoke: bool, trace: bool, throughput: f64, spread: Option<f64>) -> String {
        let metrics = Json::obj(END_TO_END.iter().map(|d| {
            let v = if d.name == "throughput_ops_s" {
                throughput
            } else {
                10.0
            };
            (d.name, Json::obj([("value", Json::Num(v))]))
        }));
        let notes = Json::obj(END_TO_END.iter().filter_map(|d| {
            let s = if d.name == "throughput_ops_s" {
                spread?
            } else {
                0.01
            };
            Some((format!("spread.{}", d.name), Json::Num(s)))
        }));
        let info = Json::obj([
            ("workload", Json::str("w")),
            ("trace", Json::Bool(trace)),
            ("smoke", Json::Bool(smoke)),
            ("host", Json::str("h")),
            ("notes", notes),
        ]);
        let result = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(0.0)),
            ("metrics", metrics),
        ]);
        format!("{}\n{}\n", info.render(), result.render())
    }

    fn e2e(throughput: f64, spread: f64) -> String {
        run(false, false, throughput, Some(spread))
    }

    #[test]
    fn refuses_smoke_runs_and_files_without_runs() {
        let smoke = run(true, false, 1.0, Some(0.0));
        let err = compare(&smoke, &e2e(1.0, 0.0)).unwrap_err();
        assert!(err.contains("smoke"), "{err}");
        assert!(compare(&e2e(1.0, 0.0), &smoke).is_err());
        // Traced runs are skipped; a file of nothing else has nothing to compare.
        let traced = run(false, true, 1.0, Some(0.0));
        assert!(compare(&traced, &e2e(1.0, 0.0)).is_err());
        assert!(compare("", &e2e(1.0, 0.0)).is_err());
        assert!(compare("{}\n", &e2e(1.0, 0.0)).is_err());
    }

    #[test]
    fn a_missing_spread_note_is_an_error() {
        let err = compare(&e2e(1.0, 0.0), &run(false, false, 1.0, None)).unwrap_err();
        assert!(err.contains("spread.throughput_ops_s"), "{err}");
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let n = END_TO_END.len();
        let base = e2e(1000.0, 0.01);
        let text = compare(&base, &e2e(1040.0, 0.01)).unwrap();
        assert!(
            text.contains(&format!("{n} ok, 0 worse, 0 unresolved")),
            "{text}"
        );
        // Throughput is better-higher: 30 % lower is worse, 20 % higher is fine.
        let text = compare(&base, &e2e(700.0, 0.01)).unwrap();
        assert!(
            text.contains(&format!("{} ok, 1 worse, 0 unresolved", n - 1)),
            "{text}"
        );
        let text = compare(&base, &e2e(1200.0, 0.01)).unwrap();
        assert!(
            text.contains(&format!("{n} ok, 0 worse, 0 unresolved")),
            "{text}"
        );
        // A side whose own tables spread wider than the bound resolves
        // nothing: not a large difference, and not a small one either.
        for b in [700.0, 1010.0] {
            for (sa, sb) in [(0.3, 0.01), (0.01, 0.3)] {
                let text = compare(&e2e(1000.0, sa), &e2e(b, sb)).unwrap();
                assert!(
                    text.contains(&format!("{} ok, 0 worse, 1 unresolved", n - 1)),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn four_runs_a_side_take_medians_and_the_spread_between_runs() {
        let many = |values: [f64; 4], own: f64| values.map(|v| e2e(v, own)).concat();
        // Tight between runs: the medians (1000 vs 690) decide, whatever the
        // runs' own tables spread by.
        let a = many([990.0, 1000.0, 1000.0, 1010.0], 0.9);
        let text = compare(&a, &many([680.0, 690.0, 690.0, 700.0], 0.9)).unwrap();
        assert!(
            text.contains("4 run(s)") && text.contains("1 worse, 0 unresolved"),
            "{text}"
        );
        // Wide between runs: unresolved although each run's own tables agree.
        let text = compare(&a, &many([500.0, 900.0, 1100.0, 1500.0], 0.0)).unwrap();
        assert!(text.contains("0 worse, 1 unresolved"), "{text}");
    }
}

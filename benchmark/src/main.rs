//! The repository's benchmark: the paper's hybrid-workload number, end to
//! end and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! casper-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! casper-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! One run is one workload in one mode and prints two lines: what was run
//! (host fingerprint, seed, sizes, notes), then the result object. Without
//! `--workload` every workload runs; without `--trace`, both modes. A file
//! of such lines (`>>` as many runs as you like) is what `compare` reads.

mod compare;
mod durable;
mod e2e;
mod harness;
mod host;
mod json;
mod ladder;
mod metrics;
mod model;
#[cfg(test)]
mod selftest;
mod stats;
mod workloads;

use casper_engine::LayoutMode;
use harness::Inputs;
use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise;
/// `BENCHMARK.json` hands the same number to `--seconds`.
const RUN_SECONDS: u64 = 25;

struct Args {
    /// `None`: every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: end to end, then traced.
    trace: Option<bool>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                // The contract's run_seconds is a whole number from 1 to 60.
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// One workload in one mode: two lines on standard output, the second of
/// which is the result object the driver reads.
fn run(w: Workload, trace: bool, args: &Args) {
    let w = if args.quick { w.quick() } else { w };
    let inputs = Inputs::prepare(w, args.seed);
    // The defect that keeps Q6 out of `hybrid_range`, reported beside
    // `failed` in either mode (see README, "Known defect").
    let probe_failed = harness::q6_payload_probe_failed(LayoutMode::Casper, args.seed);
    let mut o = if trace {
        let path = harness::scratch_root().join(format!("trace-{}.jsonl", w.name));
        ladder::run(&inputs, probe_failed, args.seconds, &path)
    } else {
        e2e::run(&inputs, args.seconds)
    };
    o.notes
        .push(("q6_payload_probe_failed".to_string(), probe_failed as f64));
    o.notes.push((
        "q6_payload_probe_moves".to_string(),
        workloads::Q6_PROBE_MOVES as f64,
    ));
    let info = Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("host", host::fingerprint()),
        (
            "sizes",
            Json::obj([
                ("rows", Json::Num(w.rows as f64)),
                ("chunk_values", Json::Num(w.chunk_values as f64)),
                ("ops_per_repetition", Json::Num(w.ops as f64)),
                ("side_ops", Json::Num(w.side_ops() as f64)),
                ("train_ops", Json::Num(workloads::TRAIN_OPS as f64)),
            ]),
        ),
        (
            "notes",
            Json::obj(o.notes.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
        ),
    ]);
    println!("{}", info.render());
    let defs = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(o.correct)),
            ("attempted", Json::Num(o.attempted as f64)),
            ("failed", Json::Num(o.failed as f64)),
            ("metrics", o.metrics.render(defs)),
        ])
        .render()
    );
}

fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let load = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    print!("{}", compare::compare(&load(a)?, &load(b)?)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("compare") => Err("usage: compare A.jsonl B.jsonl".to_string()),
        _ => parse_args(&args).map(|parsed| {
            let workloads = parsed.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
            for w in workloads {
                for trace in parsed.trace.map_or(vec![false, true], |t| vec![t]) {
                    run(w, trace, &parsed);
                }
            }
        }),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("casper-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::MetricDef;

    /// `BENCHMARK.json` as the catalogues define it.
    fn manifest() -> Json {
        let metric = |d: &MetricDef| {
            let mut members = vec![
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better)),
            ];
            members.extend(d.bound.map(|b| ("bound", Json::Num(b))));
            Json::obj(members)
        };
        let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
        Json::obj([
            ("command", strs(&["bash", "benchmark/run.sh"])),
            ("paths", strs(&["benchmark"])),
            ("run_seconds", Json::Num(RUN_SECONDS as f64)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(END_TO_END.iter().map(metric).collect()),
            ),
            (
                "per_layer",
                Json::Arr(PER_LAYER.iter().map(metric).collect()),
            ),
        ])
    }

    #[test]
    fn committed_manifest_matches_the_catalogues() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "BENCHMARK.json and the catalogues in workloads.rs / metrics.rs disagree; \
             the catalogues say:\n{}",
            manifest().render()
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload hybrid_point --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.map(|w| w.name), ok.seed, ok.seconds, ok.trace),
            (Some("hybrid_point"), 7, 3.0, Some(true))
        );
        let defaults = a("").unwrap();
        assert!(defaults.workload.is_none() && !defaults.quick);
        assert_eq!((defaults.seed, defaults.trace), (42, None));
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--workload nope",
            "--frobnicate",
        ] {
            assert!(a(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}

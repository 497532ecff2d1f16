//! Machine-readable per-PR performance trajectory.
//!
//! The `scan_ops` bench emits `BENCH_scan.json` at the workspace root
//! after its criterion groups run — the single source of truth for kernel
//! perf: one entry per kernel × lane width (plain u64 *and* the packed
//! compressed lanes) with the dispatched-SIMD and forced-scalar
//! ns/element, effective GB/s, and the speedup — so per-PR perf can be
//! tracked without parsing bench stdout.
//!
//! Measurements are best-of-N wall-clock over a closure returning a `u64`
//! checksum (black-boxed so the work cannot be elided). In `--test` smoke
//! mode every measurement runs a single reduced-size iteration: CI uses
//! that to check both dispatch paths build, run, and agree — the JSON is
//! still written, flagged `"smoke": true` so trend tooling can skip it.

use casper_storage::compress::dictionary::PackedCodes;
use casper_storage::compress::for_delta::PackedOffsets;
use casper_storage::compress::{Dictionary, ForBlock, Rle};
use casper_storage::kernels::{self, compressed};
use casper_storage::simd::portable;
use casper_storage::ColumnValue;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured kernel data point.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Kernel name (e.g. `select_range_bitmap`, `for_count_range`).
    pub kernel: String,
    /// Lane element width in bits (64 for plain u64 lanes, 8/16/32 for
    /// packed compressed lanes).
    pub width_bits: u32,
    /// Lane length in values (or *runs*, for per-run kernels — see
    /// [`Entry::unit`]).
    pub rows: usize,
    /// Dispatched-path nanoseconds per element (or per run).
    pub ns_per_elem: f64,
    /// What one "element" is: `"elem"` for kernels scanning a decoded or
    /// packed lane, `"run"` for kernels whose cost is per *run* (RLE
    /// arithmetic never touches the decoded lane).
    pub unit: &'static str,
    /// Effective scan bandwidth of the dispatched path in GB/s
    /// (`rows * width_bits / 8` bytes over the measured time). `None` for
    /// per-run kernels: they read run metadata, not the lane, so a
    /// lane-bytes-over-time "bandwidth" is meaningless (the old report
    /// claimed ~10^5 GB/s here).
    pub gbps: Option<f64>,
    /// Baseline nanoseconds per element: the portable fallback of *this*
    /// binary — i.e. the same loops the shipped artifact runs under
    /// `CASPER_FORCE_SCALAR=1`, compiler-auto-vectorized at the baseline
    /// ISA (SSE2 on x86-64). This is what the binary would do without the
    /// dispatch layer; it is NOT the historical `target-cpu=native`
    /// auto-vectorized build (reproduce that with `cargo native-bench` —
    /// on an AVX-512 host the native-autovec u64 loops land close to the
    /// dispatched kernels, while the packed u8/u16 compressed-lane wins
    /// remain).
    pub scalar_ns_per_elem: f64,
    /// `scalar_ns_per_elem / ns_per_elem`.
    pub speedup: f64,
}

impl Entry {
    /// Build an entry from the two measured per-element times.
    pub fn new(
        kernel: impl Into<String>,
        width_bits: u32,
        rows: usize,
        ns_per_elem: f64,
        scalar_ns_per_elem: f64,
    ) -> Self {
        let bytes = rows as f64 * f64::from(width_bits) / 8.0;
        let total_ns = ns_per_elem * rows as f64;
        Self {
            kernel: kernel.into(),
            width_bits,
            rows,
            ns_per_elem,
            unit: "elem",
            gbps: (total_ns > 0.0).then_some(bytes / total_ns),
            scalar_ns_per_elem,
            speedup: if ns_per_elem > 0.0 {
                scalar_ns_per_elem / ns_per_elem
            } else {
                0.0
            },
        }
    }

    /// An entry for a kernel whose work is proportional to *runs*, not
    /// elements (RLE run arithmetic): reports ns per run and omits the
    /// bandwidth figure entirely.
    pub fn per_run(kernel: impl Into<String>, runs: usize, ns_per_run: f64) -> Self {
        Self {
            kernel: kernel.into(),
            width_bits: 64,
            rows: runs,
            ns_per_elem: ns_per_run,
            unit: "run",
            gbps: None,
            scalar_ns_per_elem: ns_per_run,
            speedup: 1.0,
        }
    }
}

/// Whether this bench invocation is a `--test` smoke run.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Time `f` (which returns a checksum, black-boxed) and report nanoseconds
/// per element: best of `reps` timed runs after one warm-up call.
pub fn time_per_elem(rows: usize, reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as f64;
        best = best.min(ns);
    }
    best / rows.max(1) as f64
}

/// Measure the plain-lane kernels (u64 keys, the HAP key-column shape) at
/// ~1.5% selectivity: dispatched SIMD vs the portable fallback, asserted
/// bit-identical before timing.
pub fn plain_entries(rows: usize, reps: usize) -> Vec<Entry> {
    let keys: Vec<u64> = (0..rows as u64).map(|v| v * 2).collect();
    let payload: Vec<u32> = (0..rows as u32).map(|k| k % 997).collect();
    let lo = rows as u64 / 2;
    let hi = lo + (rows as u64 * 2) / 64; // ~1.5% of the domain
    let span = hi - lo;
    let target = keys[rows / 3];
    let bits = u64::lane_bits(&keys);

    // Agreement tripwires (run on every invocation, including smoke).
    assert_eq!(
        kernels::count_range(&keys, lo, hi),
        portable::count_window(bits, lo, span),
        "count_range dispatch vs portable"
    );
    let (mut mask_d, mut mask_p) = (Vec::new(), Vec::new());
    kernels::select_range_bitmap(&keys, lo, hi, &mut mask_d);
    portable::bitmap_window(bits, lo, span, &mut mask_p);
    assert_eq!(mask_d, mask_p, "select_range_bitmap dispatch vs portable");
    assert_eq!(
        kernels::sum_payload_masked(&payload, &mask_d),
        portable::sum_payload_masked(&payload, &mask_p),
        "sum_payload_masked dispatch vs portable"
    );
    assert_eq!(
        kernels::count_eq(&keys, target),
        portable::count_eq(bits, target)
    );
    assert_eq!(
        kernels::min_max(&keys),
        Some(portable::min_max_flipped(bits, 0))
    );

    let mut out = Vec::new();
    out.push(Entry::new(
        "count_range",
        64,
        rows,
        time_per_elem(rows, reps, || kernels::count_range(&keys, lo, hi)),
        time_per_elem(rows, reps, || portable::count_window(bits, lo, span)),
    ));
    let mut mask = Vec::with_capacity(rows / 64 + 1);
    out.push(Entry::new(
        "select_range_bitmap",
        64,
        rows,
        time_per_elem(rows, reps, || {
            mask.clear();
            kernels::select_range_bitmap(&keys, lo, hi, &mut mask)
        }),
        time_per_elem(rows, reps, || {
            mask.clear();
            portable::bitmap_window(bits, lo, span, &mut mask)
        }),
    ));
    // Q3's filtered-partition shape: the key predicate once into a bitmap,
    // then one masked sum over a payload lane.
    out.push(Entry::new(
        "sum_payload_masked",
        64,
        rows,
        time_per_elem(rows, reps, || {
            mask.clear();
            kernels::select_range_bitmap(&keys, lo, hi, &mut mask);
            kernels::sum_payload_masked(&payload, &mask)
        }),
        time_per_elem(rows, reps, || {
            mask.clear();
            portable::bitmap_window(bits, lo, span, &mut mask);
            portable::sum_payload_masked(&payload, &mask)
        }),
    ));
    out.push(Entry::new(
        "count_eq",
        64,
        rows,
        time_per_elem(rows, reps, || kernels::count_eq(&keys, target)),
        time_per_elem(rows, reps, || portable::count_eq(bits, target)),
    ));
    out.push(Entry::new(
        "min_max",
        64,
        rows,
        time_per_elem(rows, reps, || {
            kernels::min_max(&keys).map_or(0, |(a, b)| a ^ b)
        }),
        time_per_elem(rows, reps, || {
            let (a, b) = portable::min_max_flipped(bits, 0);
            a ^ b
        }),
    ));
    out
}

/// Measure the point-probe kernels — every delete's `select_eq_into` and
/// every Q6 / take-one `first_eq` scan one partition with them — over the
/// plain u64 key lane and over the same keys as a partitioned chunk's
/// 32-bit offset lane. Each probe scans the whole lane: the
/// `select_eq_into` target sits a third in, the `first_eq` target last.
/// Baselines: the portable collect pass over the whole lane, and the
/// `iter().position` loop `first_eq` replaced.
pub fn point_probe_entries(rows: usize, reps: usize) -> Vec<Entry> {
    let keys: Vec<u64> = (0..rows as u64).map(|v| v * 2).collect();
    // The key lane's image of the same keys: offsets from a base of 0.
    let offsets: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
    let mut out = Vec::new();
    macro_rules! probe_entries {
        ($label:expr, $bits:expr, $lane:expr, $t:ty) => {{
            let lane: &[$t] = $lane;
            let (hit, last) = (lane[rows / 3], lane[rows - 1]);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            kernels::select_eq_into(lane, hit, 0, &mut got);
            portable::select_eq_positions(lane, hit, 0, &mut want);
            let want: Vec<usize> = want.iter().map(|&p| p as usize).collect();
            assert_eq!(got, want, "{} select_eq_into dispatch vs portable", $label);
            let position = |t: $t| lane.iter().position(|&x| x == t);
            assert_eq!(kernels::first_eq(lane, last), position(last), "{}", $label);
            let mut positions: Vec<usize> = Vec::with_capacity(16);
            let mut scratch: Vec<u32> = Vec::with_capacity(16);
            out.push(Entry::new(
                format!("{}select_eq_into", $label),
                $bits,
                rows,
                time_per_elem(rows, reps, || {
                    positions.clear();
                    kernels::select_eq_into(lane, hit, 0, &mut positions);
                    positions.len() as u64
                }),
                time_per_elem(rows, reps, || {
                    scratch.clear();
                    portable::select_eq_positions(lane, hit, 0, &mut scratch)
                }),
            ));
            out.push(Entry::new(
                format!("{}first_eq", $label),
                $bits,
                rows,
                time_per_elem(rows, reps, || {
                    kernels::first_eq(lane, last).map_or(0, |p| p as u64)
                }),
                time_per_elem(rows, reps, || position(last).map_or(0, |p| p as u64)),
            ));
        }};
    }
    probe_entries!("", 64, &keys, u64);
    probe_entries!("key_lane_u32_", 32, &offsets, u32);
    out
}

/// Measure the compressed kernels over FoR lanes at every packed width,
/// dictionary lanes at u8/u16 code widths, and the (deliberately scalar)
/// RLE run arithmetic. Baseline is the portable fallback over the same
/// packed lane with the same rebased window.
pub fn compressed_entries(rows: usize, reps: usize) -> Vec<Entry> {
    let mut out = Vec::new();

    // FoR: the data span selects the offset width (§6.2 partitioning
    // synergy — narrow partitions → narrow offsets).
    for (label, bits, domain) in [
        ("for_u8", 8u32, 200u64),
        ("for_u16", 16, 60_000),
        ("for_u32", 32, 3_000_000_000),
    ] {
        let base = 5_000_000u64;
        let data: Vec<u64> = (0..rows as u64)
            .map(|i| base + i.wrapping_mul(2_654_435_761) % domain)
            .collect();
        let frag = ForBlock::encode(&data);
        assert_eq!(frag.width().bytes() as u32 * 8, bits, "{label} width");
        let lo = base + domain / 4;
        let hi = lo + domain / 32; // ~3% of the domain
        let lo_off = lo - base;
        let span = hi - lo;
        let want = data.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
        assert_eq!(compressed::for_count_range(&frag, lo, hi), want, "{label}");

        macro_rules! lane_entries {
            ($lane:expr, $t:ty) => {{
                let lane: &[$t] = $lane;
                let (l, s) = (lo_off as $t, span as $t);
                assert_eq!(portable::count_window(lane, l, s), want, "{label} portable");
                out.push(Entry::new(
                    format!("{label}_count_range"),
                    bits,
                    rows,
                    time_per_elem(rows, reps, || compressed::for_count_range(&frag, lo, hi)),
                    time_per_elem(rows, reps, || portable::count_window(lane, l, s)),
                ));
                let mut mask = Vec::with_capacity(rows / 64 + 1);
                out.push(Entry::new(
                    format!("{label}_select_range_bitmap"),
                    bits,
                    rows,
                    time_per_elem(rows, reps, || {
                        mask.clear();
                        compressed::for_select_range_bitmap(&frag, lo, hi, &mut mask)
                    }),
                    time_per_elem(rows, reps, || {
                        mask.clear();
                        portable::bitmap_window(lane, l, s, &mut mask)
                    }),
                ));
            }};
        }
        match frag.offsets() {
            PackedOffsets::U8(v) => lane_entries!(v, u8),
            PackedOffsets::U16(v) => lane_entries!(v, u16),
            PackedOffsets::U32(v) => lane_entries!(v, u32),
            PackedOffsets::U64(v) => lane_entries!(v, u64),
        }
    }

    // Dictionary: cardinality selects the code width.
    for (label, bits, cardinality) in [("dict_u8", 8u32, 200u64), ("dict_u16", 16, 50_000)] {
        let data: Vec<u64> = (0..rows as u64)
            .map(|i| i.wrapping_mul(2_654_435_761) % cardinality * 300)
            .collect();
        let frag = Dictionary::encode(&data);
        let lo = cardinality * 300 / 4;
        let hi = lo + cardinality * 300 / 32;
        let want = data.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
        assert_eq!(compressed::dict_count_range(&frag, lo, hi), want, "{label}");
        let lo_c = u64::from(frag.lower_bound_code(lo));
        let span_c = u64::from(frag.lower_bound_code(hi)) - lo_c;

        macro_rules! lane_entry {
            ($lane:expr, $t:ty) => {{
                let lane: &[$t] = $lane;
                let (l, s) = (lo_c as $t, span_c as $t);
                out.push(Entry::new(
                    format!("{label}_count_range"),
                    bits,
                    rows,
                    time_per_elem(rows, reps, || compressed::dict_count_range(&frag, lo, hi)),
                    time_per_elem(rows, reps, || portable::count_window(lane, l, s)),
                ));
            }};
        }
        match frag.codes() {
            PackedCodes::U8(v) => lane_entry!(v, u8),
            PackedCodes::U16(v) => lane_entry!(v, u16),
            PackedCodes::U32(v) => lane_entry!(v, u32),
        }
    }

    // RLE stays scalar (two binary searches + prefix-sum subtraction, no
    // per-value work to vectorize) but is benchmarked so regressions show.
    // Its cost is per *run*, and it never touches the decoded lane — so
    // the honest figures are ns/run with no bandwidth (the old per-element
    // accounting divided a handful of binary-search probes by a million
    // rows and reported ~10^5 GB/s).
    {
        let mut data: Vec<u64> = (0..rows as u64).map(|i| i % 4096 * 300).collect();
        data.sort_unstable();
        let frag = Rle::encode(&data);
        let runs = frag.runs().len();
        let ns_per_run = time_per_elem(runs, reps, || {
            compressed::rle_count_range(&frag, 30_000, 600_000)
        });
        out.push(Entry::per_run("rle_count_range", runs, ns_per_run));
    }

    out
}

/// Version of the shared `BENCH_*.json` shape: every trajectory file
/// (`BENCH_scan`, `BENCH_persist`, `BENCH_concurrent`, `BENCH_robust`,
/// `BENCH_obs`) opens with the same header — `bench`,
/// `bench_schema_version`, `smoke` — emitted by one helper, so trend
/// tooling can dispatch on one field instead of sniffing each file's
/// shape. Bump when the common header or a per-file schema changes
/// incompatibly.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Open a trajectory JSON object with the shared header fields.
fn emit_header(out: &mut String, bench: &str, smoke: bool) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{bench}\",");
    let _ = writeln!(out, "  \"bench_schema_version\": {BENCH_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
}

/// Write a finished trajectory document to `<workspace root>/<file>`.
fn emit_file(file: &str, out: &str) {
    let path = workspace_rooted(file);
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("[trajectory] wrote {}", path.display()),
        Err(e) => eprintln!("[trajectory] could not write {}: {e}", path.display()),
    }
}

/// Resolve `file` against the workspace root: cargo runs bench binaries
/// with the *package* directory as cwd, so climb until `Cargo.lock` is
/// found (falls back to cwd-relative if it never is).
fn workspace_rooted(file: &str) -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    for _ in 0..4 {
        if dir.join("Cargo.lock").exists() {
            return dir.join(file);
        }
        if !dir.pop() {
            break;
        }
    }
    std::path::PathBuf::from(file)
}

/// Serialize entries to `<workspace root>/<file>`. Handwritten JSON — the
/// workspace is offline, no serde.
pub fn write_json(file: &str, bench: &str, smoke: bool, entries: &[Entry]) {
    let mut out = String::new();
    emit_header(&mut out, bench, smoke);
    let _ = writeln!(
        out,
        "  \"simd_level\": \"{}\",",
        casper_storage::simd::level().label()
    );
    let _ = writeln!(
        out,
        "  \"scalar_baseline\": \"portable fallback of this binary \
         (CASPER_FORCE_SCALAR=1, baseline-ISA autovec)\","
    );
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let gbps = e
            .gbps
            .map_or(String::new(), |g| format!("\"gbps\": {g:.3}, "));
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"width_bits\": {}, \"rows\": {}, \"unit\": \"{}\", \
             \"ns_per_{}\": {:.4}, {}\
             \"scalar_ns_per_{}\": {:.4}, \"speedup\": {:.2}}}{comma}",
            e.kernel,
            e.width_bits,
            e.rows,
            e.unit,
            e.unit,
            e.ns_per_elem,
            gbps,
            e.unit,
            e.scalar_ns_per_elem,
            e.speedup
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    emit_file(file, &out);
}

/// One named scalar metric for the durability trajectory
/// (`BENCH_persist.json`).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (e.g. `incremental_checkpoint_ms`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label (`ms`, `us`, `ratio`, …).
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric row.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Serialize named metrics to `<workspace root>/<file>` — the durability
/// counterpart of [`write_json`], emitted by the `recovery_time` bench so
/// the perf trajectory covers checkpoints and restore, not just scans.
pub fn write_metrics_json(
    file: &str,
    bench: &str,
    smoke: bool,
    context: &[(&str, u64)],
    metrics: &[Metric],
) {
    let mut out = String::new();
    emit_header(&mut out, bench, smoke);
    for (k, v) in context {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    let _ = writeln!(out, "  \"metrics\": [");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"value\": {:.4}, \"unit\": \"{}\"}}{comma}",
            m.name, m.value, m.unit
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    emit_file(file, &out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_derives_bandwidth_and_speedup() {
        // 1M u64 values at 1 ns/elem = 8 bytes/ns = 8 GB/s.
        let e = Entry::new("count_range", 64, 1 << 20, 1.0, 3.5);
        assert!((e.gbps.expect("lane kernels report bandwidth") - 8.0).abs() < 1e-9);
        assert!((e.speedup - 3.5).abs() < 1e-9);
        // Per-run kernels report no bandwidth at all.
        let r = Entry::per_run("rle_count_range", 4096, 2.0);
        assert_eq!(r.gbps, None);
        assert_eq!(r.unit, "run");
        assert_eq!(r.rows, 4096);
    }

    #[test]
    fn json_shape_is_parsable_ish() {
        let e = Entry::new("k", 8, 100, 0.5, 1.0);
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"kernel\": \"{}\", \"speedup\": {:.2}}}",
            e.kernel, e.speedup
        );
        assert!(s.contains("\"speedup\": 2.00"));
    }

    #[test]
    fn shared_header_carries_schema_version() {
        let mut out = String::new();
        emit_header(&mut out, "scan_ops", true);
        assert!(out.contains("\"bench\": \"scan_ops\""));
        assert!(out.contains(&format!("\"bench_schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(out.contains("\"smoke\": true"));
    }

    #[test]
    fn timing_returns_finite_positive() {
        let v: Vec<u64> = (0..1000).collect();
        let ns = time_per_elem(v.len(), 2, || v.iter().sum());
        assert!(ns.is_finite() && ns >= 0.0);
    }
}

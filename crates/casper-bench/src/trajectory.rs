//! Machine-readable kernel trajectory.
//!
//! A full `scan_ops` bench run writes `BENCH_scan.json` at the workspace
//! root after its criterion groups run — the single record of kernel
//! perf: one entry per kernel × lane width (plain u64 *and* a partitioned
//! chunk's 32-bit key lane) with the dispatched-SIMD and forced-scalar
//! ns/element, effective GB/s, and the speedup — so per-PR perf can be
//! tracked without parsing bench stdout.
//!
//! Measurements are best-of-N wall-clock over a closure returning a `u64`
//! checksum (black-boxed so the work cannot be elided). In `--test` smoke
//! mode every measurement runs a single reduced-size iteration: CI uses
//! that to check both dispatch paths build, run, and agree. A smoke run
//! writes no file, so the committed `BENCH_scan.json` is always a full run.

use casper_storage::kernels;
use casper_storage::simd::portable;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured kernel data point.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Kernel name (e.g. `select_range_bitmap`,
    /// `key_lane_u32_count_range`).
    pub kernel: String,
    /// Lane element width in bits (64 for plain u64 lanes, 32 for the key
    /// lane's offsets).
    pub width_bits: u32,
    /// Lane length in values.
    pub rows: usize,
    /// Dispatched-path nanoseconds per element.
    pub ns_per_elem: f64,
    /// Effective scan bandwidth of the dispatched path in GB/s
    /// (`rows * width_bits / 8` bytes over the measured time); `None` when
    /// the measured time rounds to zero.
    pub gbps: Option<f64>,
    /// Baseline nanoseconds per element: the portable fallback of *this*
    /// binary — i.e. the same loops the shipped artifact runs under
    /// `CASPER_FORCE_SCALAR=1`, compiler-auto-vectorized at the baseline
    /// ISA (SSE2 on x86-64). This is what the binary would do without the
    /// dispatch layer; it is NOT the historical `target-cpu=native`
    /// auto-vectorized build (reproduce that with `cargo native-bench` —
    /// on an AVX-512 host the native-autovec u64 loops land close to the
    /// dispatched kernels).
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
            gbps: (total_ns > 0.0).then_some(bytes / total_ns),
            scalar_ns_per_elem,
            speedup: if ns_per_elem > 0.0 {
                scalar_ns_per_elem / ns_per_elem
            } else {
                0.0
            },
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

    // Agreement tripwires (run on every invocation, including smoke).
    assert_eq!(
        kernels::count_range(&keys, lo, hi),
        portable::count_window(&keys, lo, span),
        "count_range dispatch vs portable"
    );
    let (mut mask_d, mut mask_p) = (Vec::new(), Vec::new());
    kernels::select_range_bitmap(&keys, lo, hi, &mut mask_d);
    portable::bitmap_window(&keys, lo, span, &mut mask_p);
    assert_eq!(mask_d, mask_p, "select_range_bitmap dispatch vs portable");
    assert_eq!(
        kernels::sum_payload_masked(&payload, &mask_d),
        portable::sum_payload_masked(&payload, &mask_p),
        "sum_payload_masked dispatch vs portable"
    );
    assert_eq!(
        kernels::count_eq(&keys, target),
        portable::count_eq(&keys, target)
    );
    assert_eq!(kernels::min_max(&keys), Some(portable::min_max(&keys)));

    let mut out = Vec::new();
    out.push(Entry::new(
        "count_range",
        64,
        rows,
        time_per_elem(rows, reps, || kernels::count_range(&keys, lo, hi)),
        time_per_elem(rows, reps, || portable::count_window(&keys, lo, span)),
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
            portable::bitmap_window(&keys, lo, span, &mut mask)
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
            portable::bitmap_window(&keys, lo, span, &mut mask);
            portable::sum_payload_masked(&payload, &mask)
        }),
    ));
    out.push(Entry::new(
        "count_eq",
        64,
        rows,
        time_per_elem(rows, reps, || kernels::count_eq(&keys, target)),
        time_per_elem(rows, reps, || portable::count_eq(&keys, target)),
    ));
    out.push(Entry::new(
        "min_max",
        64,
        rows,
        time_per_elem(rows, reps, || {
            kernels::min_max(&keys).map_or(0, |(a, b)| a ^ b)
        }),
        time_per_elem(rows, reps, || {
            let (a, b) = portable::min_max(&keys);
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

/// Measure the key lane's range filter: the `[lo, hi)` count and bitmap
/// select a partitioned chunk runs over its 32-bit offsets after rebasing
/// the predicate, at ~3% selectivity over offsets spanning 3·10^9. The
/// lane goes through the public kernels at `u32`, as
/// [`point_probe_entries`] does; the baseline is the portable window loop
/// over the same lane.
pub fn key_lane_range_entries(rows: usize, reps: usize) -> Vec<Entry> {
    let domain = 3_000_000_000u64;
    let lane: Vec<u32> = (0..rows as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % domain) as u32)
        .collect();
    let lo = (domain / 4) as u32;
    let hi = lo + (domain / 32) as u32;
    let span = hi - lo;
    let want = lane.iter().filter(|&&x| lo <= x && x < hi).count() as u64;
    assert_eq!(kernels::count_range(&lane, lo, hi), want, "count_range");
    assert_eq!(portable::count_window(&lane, lo, span), want, "portable");
    let mut mask = Vec::with_capacity(rows / 64 + 1);
    vec![
        Entry::new(
            "key_lane_u32_count_range",
            32,
            rows,
            time_per_elem(rows, reps, || kernels::count_range(&lane, lo, hi)),
            time_per_elem(rows, reps, || portable::count_window(&lane, lo, span)),
        ),
        Entry::new(
            "key_lane_u32_select_range_bitmap",
            32,
            rows,
            time_per_elem(rows, reps, || {
                mask.clear();
                kernels::select_range_bitmap(&lane, lo, hi, &mut mask)
            }),
            time_per_elem(rows, reps, || {
                mask.clear();
                portable::bitmap_window(&lane, lo, span, &mut mask)
            }),
        ),
    ]
}

/// Version of the `BENCH_scan.json` shape: the header (`bench`,
/// `bench_schema_version`) and the entry fields. Bump when either changes
/// incompatibly. Version 3 dropped the `smoke` flag: smoke runs write
/// nothing.
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// Open a trajectory JSON object with its header fields.
fn emit_header(out: &mut String, bench: &str) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{bench}\",");
    let _ = writeln!(out, "  \"bench_schema_version\": {BENCH_SCHEMA_VERSION},");
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
pub fn write_json(file: &str, bench: &str, entries: &[Entry]) {
    let mut out = String::new();
    emit_header(&mut out, bench);
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
            "    {{\"kernel\": \"{}\", \"width_bits\": {}, \"rows\": {}, \"unit\": \"elem\", \
             \"ns_per_elem\": {:.4}, {}\
             \"scalar_ns_per_elem\": {:.4}, \"speedup\": {:.2}}}{comma}",
            e.kernel, e.width_bits, e.rows, e.ns_per_elem, gbps, e.scalar_ns_per_elem, e.speedup
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    let path = workspace_rooted(file);
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("[trajectory] wrote {}", path.display()),
        Err(e) => eprintln!("[trajectory] could not write {}: {e}", path.display()),
    }
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
        emit_header(&mut out, "scan_ops");
        assert!(out.contains("\"bench\": \"scan_ops\""));
        assert!(out.contains(&format!("\"bench_schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(!out.contains("smoke"), "smoke runs write no file");
    }

    #[test]
    fn timing_returns_finite_positive() {
        let v: Vec<u64> = (0..1000).collect();
        let ns = time_per_elem(v.len(), 2, || v.iter().sum());
        assert!(ns.is_finite() && ns >= 0.0);
    }
}

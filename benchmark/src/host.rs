//! The host fingerprint stamped on every output: numbers measured on
//! different hosts, SIMD levels or compilers are not comparable.

use crate::json::Json;

/// `nproc`, the scan kernels' dispatch level and the compiler version.
pub fn fingerprint() -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("simd", Json::str(casper_storage::simd::level().label())),
        ("rustc", Json::str(rustc)),
    ])
}

#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it; every argument goes to
# the program. Nothing but the program's own output reaches standard output.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--quick] > a.jsonl       every workload, both modes
#   benchmark/run.sh compare a.jsonl b.jsonl
#
# Builds into $CARGO_TARGET_DIR when set (a relative path is relative to the
# current directory, as for cargo), else into <repo>/target/benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/casper-benchmark" "$@"

#!/usr/bin/env bash
# benchmark/compare.sh a.jsonl b.jsonl
#
# Per workload and end-to-end metric: the ratio b / a with its base, the
# bound, each side's spread, and ok / worse / unresolved, plus each side's
# ops_failed share. Both files hold the standard output of benchmark runs
# (`benchmark/run.sh ... >> FILE`, as many runs as you like; a side's value
# is the median over its runs). --quick (smoke) runs and runs from different
# hosts are refused.
set -euo pipefail
[ "$#" -eq 2 ] || { echo "usage: $0 a.jsonl b.jsonl" >&2; exit 2; }
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$1" "$2"

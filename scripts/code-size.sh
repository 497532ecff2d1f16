#!/usr/bin/env bash
# Count the library code of each crate under crates/*/src: code lines
# (not blank, not a `//` comment line, not inside a `#[cfg(test)]` item,
# not under a `tests/` directory) and `pub` items (a code line that starts
# `pub fn`, `pub struct`, `enum`, `trait`, `const`, `static`, `type`, `mod`
# or `use`; `pub(crate)` and `pub unsafe fn` are not counted). Prints one
# row per crate and the total.
#
#   scripts/code-size.sh [repo-root]
set -euo pipefail
root="${1:-.}"
cd "$root"
printf '%-16s %7s %5s\n' crate lines pub
for dir in crates/*/src; do
    find "$dir" -name '*.rs' -not -path '*/tests/*' | sort | xargs awk '
        FNR == 1 { skip = 0; depth = 0; armed = 0 }
        {
            line = $0
            if (skip) {
                depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth <= 0 && (index($0, "}") || index($0, ";"))) skip = 0
                next
            }
            if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) { armed = 1; next }
            if (armed) {
                if (line ~ /^[[:space:]]*(#\[|\/\/|$)/) next
                armed = 0
                depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth > 0 || !index($0, ";") && !index($0, "}")) skip = 1
                next
            }
            if (line ~ /^[[:space:]]*$/ || line ~ /^[[:space:]]*\/\//) next
            lines++
            if (line ~ /^[[:space:]]*pub[[:space:]]+(fn|struct|enum|trait|const|static|type|mod|use)[[:space:]]/) pubs++
        }
        END { printf "%d %d\n", lines, pubs }
    ' | { read -r l p; printf '%-16s %7d %5d\n' "$(basename "$(dirname "$dir")")" "$l" "$p"; }
done | awk '{ print; l += $2; p += $3 } END { printf "%-16s %7d %5d\n", "total", l, p }'

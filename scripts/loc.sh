#!/usr/bin/env bash
# Non-test line count of the library crates: for every `.rs` file under
# `crates/*/src`, the lines before the file's first `#[cfg(test)]` that are
# neither blank nor a `//` comment (leading spaces ignored). Prints one line
# per crate and the total. A figure for ROADMAP.md and CHANGES.md; no gate
# reads it. Run from anywhere in the repo: `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [ -d "$dir/src" ] || continue
    count="$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ')"
    printf '%-12s %6d\n' "$crate" "$count"
    total=$((total + count))
done
printf '%-12s %6d\n' "total" "$total"

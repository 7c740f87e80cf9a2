#!/usr/bin/env bash
# Non-test line count of the library crates: for every `.rs` file under
# `crates/*/src`, the lines before the file's first `#[cfg(test)]` that are
# neither blank nor a `//` comment (leading spaces ignored). Prints one line
# per crate and the total. Then the knob count: the `pub` fields of each
# public config struct below (one line each, a struct that no longer exists
# is skipped), and their total. Figures for ROADMAP.md and CHANGES.md; no
# gate reads them. Run from anywhere in the repo: `scripts/loc.sh`.
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

echo
knobs=0
for name in PipelineConfig RecordConfig ReplayConfig MachineConfig RasConfig DurableLogConfig \
    FarmConfig CostModel FaultPlan; do
    count="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="$name" '
        $0 ~ "^pub struct " name " [{]" { inside = 1; depth = 1; found = 1; next }
        !inside { next }
        /^[[:space:]]*\/\// { next }
        depth == 1 && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { n++ }
        {
            depth += gsub(/[{]/, "{") - gsub(/[}]/, "}")
            if (depth == 0) inside = 0
        }
        END { if (found) print n + 0 }
    ')"
    [ -n "$count" ] || continue
    printf '%-18s %3d\n' "$name" "$count"
    knobs=$((knobs + count))
done
printf '%-18s %3d\n' "knobs" "$knobs"

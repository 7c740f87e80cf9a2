#!/usr/bin/env bash
# Alternating-order A/B pairs of the repository benchmark between two
# checkouts of this repository (a parent and a change):
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [FIRST_SEED]
#
# Pair i runs WORKLOAD once in each tree with seed FIRST_SEED + i (default
# 42) and `--seconds 12`, through the command each tree's BENCHMARK.json
# declares; even pairs run the parent first, odd pairs the change first, so
# a drift in host speed does not favour one side. Each tree's runs are
# appended to one run set (`--append`) in a fresh temporary directory,
# whose path is printed first. After each pair it prints both runs'
# normalized and raw `session_p50_ms` and `sessions_per_s` and their host
# probe medians; at the end, each side's medians, the parent's quartiles
# and how many pairs the change won on each normalized figure, then the
# change tree's `benchmark --compare` of the two run sets. Runs take about
# 15-25 s each on a 2-vCPU host. No gate runs this script.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [FIRST_SEED]" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
first="${5:-42}"
out="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
echo "run sets and logs: $out"

# The benchmark command of a tree, as its BENCHMARK.json declares it (one
# line, arguments without spaces).
command_of() {
    sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' "$1/BENCHMARK.json" | tr -d '",'
}

for tree in "$parent" "$change"; do
    (cd "$tree" && cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml --bin benchmark)
done

# run SIDE TREE SEED: one run appended to SIDE's run set; its log is kept.
run() {
    local side="$1" tree="$2" seed="$3"
    # shellcheck disable=SC2046
    (cd "$tree" && $(command_of "$tree") --workload "$workload" --seed "$seed" --seconds 12 --trace 0 \
        --append "$out/$side.jsonl" >"$out/$side-$seed.log" 2>&1)
    local line
    line="$(tail -n 1 "$out/$side.jsonl")"
    case "$line" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *) echo "warning: $side seed $seed was not correct or had failures (see $out/$side-$seed.log)" >&2 ;;
    esac
}

# get LINE KEY raw|norm: one figure of a run-set line.
get() {
    case "$3" in
        raw) sed -n "s/.*\"raw\": {[^}]*\"$2\":\([^,}]*\).*/\1/p" <<<"$1" ;;
        norm) sed -n "s/.*\"metrics\":{.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" <<<"$1" ;;
    esac
}

# The per-run figures, in print order: name, key, raw|norm.
figures=(
    "p50 session_p50_ms norm"
    "p50_raw session_p50_ms raw"
    "per_s sessions_per_s norm"
    "per_s_raw sessions_per_s raw"
    "probe host_probe_ms raw"
)

# row LINE: the figures of one run, tab-separated.
row() {
    local f name key kind vals=()
    for f in "${figures[@]}"; do
        read -r name key kind <<<"$f"
        vals+=("$(get "$1" "$key" "$kind")")
    done
    (IFS=$'\t'; echo "${vals[*]}")
}

printf 'pair\tseed\tside\tp50\tp50_raw\tper_s\tper_s_raw\tprobe\n'
: >"$out/rows.tsv"
for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
    for side in parent change; do
        r="$(row "$(grep "\"seed\": $seed," "$out/$side.jsonl" | tail -n 1)")"
        printf '%s\t%s\t%s\t%s\n' "$i" "$seed" "$side" "$r" | tee -a "$out/rows.tsv" |
            awk -F'\t' '{printf "%s\t%s\t%s", $1, $2, $3; for (k = 4; k <= NF; k++) printf "\t%.2f", $k; print ""}'
    done
done

# Medians, the parent's quartiles (linear interpolation between order
# statistics) and the change's wins on the normalized figures.
awk -F'\t' '
    function q(arr, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 < n ? arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo]) : arr[lo]
    }
    function sorted(src, n, dst,    i, j, t) {
        for (i = 0; i < n; i++) dst[i] = src[i]
        for (i = 1; i < n; i++) for (j = i; j > 0 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
    }
    BEGIN { split("p50 p50_raw per_s per_s_raw probe", names, " ") }
    {
        s = $3; n = (s == "parent") ? np++ : nc++
        for (k = 1; k <= 5; k++) v[s, k, n] = $(k + 3)
        pair = $1
        for (k = 1; k <= 5; k++) byp[pair, s, k] = $(k + 3)
        pairs[pair] = 1
    }
    END {
        printf "\nfigure\tparent_med\tchange_med\tchange/parent\tparent_q1\tparent_q3\tchange_wins\n"
        for (k = 1; k <= 5; k++) {
            for (i = 0; i < np; i++) a[i] = v["parent", k, i]
            for (i = 0; i < nc; i++) b[i] = v["change", k, i]
            sorted(a, np, sa); sorted(b, nc, sb)
            wins = 0; total = 0
            for (p in pairs) {
                if ((p, "parent", k) in byp && (p, "change", k) in byp) {
                    total++
                    lower_better = (k <= 2)
                    if (lower_better ? byp[p, "change", k] < byp[p, "parent", k] : byp[p, "change", k] > byp[p, "parent", k]) wins++
                }
            }
            pm = q(sa, np, 0.5); cm = q(sb, nc, 0.5)
            w = (k == 5) ? "-" : wins "/" total
            printf "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n", names[k], pm, cm, cm / pm, q(sa, np, 0.25), q(sa, np, 0.75), w
        }
    }' "$out/rows.tsv"

echo
# shellcheck disable=SC2046
(cd "$change" && $(command_of "$change") --compare "$out/parent.jsonl" "$out/change.jsonl")

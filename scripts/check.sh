#!/usr/bin/env bash
# Local CI: format, lint, test. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# The suite asserts report identity between serial pipelines and span
# replay on the replay farm's worker pool, and the farm fault matrix runs
# two pool workers; on a single-core host that pool gets no real
# parallelism and the wall-clock claims go unexercised. Refuse unless
# explicitly overridden.
cores="$(nproc)"
if [ "$cores" -lt 2 ] && [ "${RNR_ALLOW_SINGLE_CORE:-0}" != "1" ]; then
    echo "check.sh: only $cores core available; the replay farm's span workers need >= 2" >&2
    echo "check.sh: set RNR_ALLOW_SINGLE_CORE=1 to run anyway" >&2
    exit 1
fi

# Per-gate wall-clock accounting: every gate runs under `timed <name> cmd…`
# and a summary table prints at the end (also on failure, so a hung or slow
# gate is identifiable from the partial table).
gate_names=()
gate_secs=()
timed() {
    local name="$1"
    shift
    local start end
    start=$(date +%s.%N)
    "$@"
    end=$(date +%s.%N)
    gate_names+=("$name")
    gate_secs+=("$(echo "$end $start" | awk '{printf "%.1f", $1 - $2}')")
}
summary() {
    echo
    echo "check.sh gate wall-clock:"
    local i total=0
    for i in "${!gate_names[@]}"; do
        printf '  %-22s %8ss\n' "${gate_names[$i]}" "${gate_secs[$i]}"
        total=$(echo "$total ${gate_secs[$i]}" | awk '{printf "%.1f", $1 + $2}')
    done
    printf '  %-22s %8ss\n' "total" "$total"
}
trap summary EXIT

timed fmt cargo fmt --all --check
timed clippy cargo clippy --workspace --all-targets --offline -- -D warnings

# Doc gate: every public item is documented (the crates set
# `#![warn(missing_docs)]`) and no rustdoc warning — broken intra-doc link,
# bad code-block language, ambiguous reference — lands on main.
timed doc env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# `--no-fail-fast` runs every test target even after one fails, so a red
# gate lists every failure instead of hiding the targets after the first.
timed tests cargo test --workspace -q --offline --no-fail-fast

# Examples gate: the four walkthroughs assert their own outcomes (a benign
# run verifies clean, the §6 attack is convicted, the JOP/DOS detectors
# fire, forensics passes repeat), and the benign scan replays the five paper
# workloads over seeds 0-99, failing on any pipeline error, unverified
# replay or attack verdict and naming the (workload, seed).
run_examples() {
    local example
    for example in quickstart kernel_rop detectors replay_forensics benign_scan; do
        echo "example: $example"
        cargo run --release -q --offline --example "$example" >/dev/null
    done
}
timed examples run_examples

# Figures gate: `all` prints every paper table and figure (217 lines,
# about 1.5 s), deterministically; its stdout must match the committed
# golden output, so a change that moves a figure has to re-bless the file
# and say which figure moved and why. `all` runs the sibling figure
# binaries from its own directory, so they are built first, and the run
# uses the default length (`RNR_BENCH_INSNS` unset). With
# `RNR_REGEN_GOLDEN=1` the gate rewrites the file instead of diffing (the
# tests gate reads the same variable and rewrites `segment_v2.bin`).
figures() {
    local golden=tests/fixtures/figures.txt out
    local all="${CARGO_TARGET_DIR:-target}/release/all"
    cargo build --release -q --offline -p rnr-bench --bins
    if [ "${RNR_REGEN_GOLDEN:-0}" = "1" ]; then
        env -u RNR_BENCH_INSNS "$all" >"$golden"
        return
    fi
    out="$(mktemp)"
    env -u RNR_BENCH_INSNS "$all" >"$out"
    if ! diff -u "$golden" "$out"; then
        rm -f "$out"
        echo "figures: output differs from $golden (RNR_REGEN_GOLDEN=1 re-blesses it)" >&2
        return 1
    fi
    rm -f "$out"
}
timed figures figures

# Fault-matrix gate: run the attack pipeline under every seeded fault
# scenario — transport, replay, and AR-supervisor faults, plus the durable
# segment store's disk scenarios (torn write, bit rot, missing segment,
# short read, failed fsync, each forcing the CR's disk-first refetch).
# Fails if any recoverable scenario's report differs from the fault-free
# run (or shows no recovery activity), if a disk scenario's writer reports
# other than its one planned disk fault, or if the unrecoverable scenario
# does anything but fail with a structured error. Ends with the two
# adversarial guests: the self-modifying JIT workload under the superblock
# trace engine, and the VRT-armed heap-overflow attack (conviction and
# false-positive dismissal must survive every knob and heal). Durable
# scenarios write to per-scenario temp dirs, removed on success.
timed fault-matrix cargo run --release -q -p rnr-bench --bin fault_matrix --offline

# Farm fault matrix, the span half of the matrix (only the farm replays
# spans): every seeded scenario as a two-session fleet on a two-worker
# pool, the attack session cut into three spans beside a one-span sibling.
# Replay/AR faults must heal byte-identically beside an undisturbed quiet
# sibling; transport scenarios must be inert (the farm records
# sequentially — there is no wire); each disk scenario on the attack
# session's own store must leave the clean report with exactly its planned
# disk fault; budget exhaustion must fail its session with a typed error
# and leave the sibling untouched; a farm-owned durable root must lay down
# one segment store per session; and the JIT and VRT guests must report on
# spans as they do serially, superblocks on and off.
timed fault-matrix-farm cargo run --release -q -p rnr-bench --bin fault_matrix --offline -- --farm

# Perf gate: rerun the attack-pipeline comparison and fail if the reports
# diverge across configurations (baseline, block engine only, optimized),
# or if the overall speedup regresses >20% below the committed
# BENCH_pipeline.json figure. Superblocks are held to report identity only
# (DESIGN.md §12). Never rewrites the committed file. Host-conditional
# gates print "gate skipped: <reason>" when this box cannot exercise them.
timed pipeline-speed cargo run --release -q -p rnr-bench --bin pipeline_speed --offline -- --check

# Fleet throughput gate: farm-vs-serial report identity always; the ≥1.3x
# fleet speedup floor applies on 4+ core hosts (skipped with a printed
# reason below that).
timed farm-speed cargo run --release -q -p rnr-bench --bin farm_speed --offline -- --check

# Benchmark package gate: build the standalone benchmark (it is not a
# workspace member, so `cargo test --workspace` never compiles it) and run
# its unit tests, so an API change that breaks it fails here.
timed benchmark cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Benchmark smoke gate: one short traced run per workload. The traced run's
# drift guard checks that the benchmark's own copies of the pipeline's
# config helpers (`record_config`, `replay_config`, `ar_replay_config`;
# its `span_seed_cadence` mirrors a helper the pipeline no longer has,
# and seed capture never changes a report) still reproduce each session's
# report, and every session's verdicts are checked against its workload. The benchmark exits
# 0 even when a session is incorrect, so the gate reads the result line.
bench_smoke() {
    local w last
    for w in rop_attack compute_verify net_durable alarm_storm jit_smc fleet; do
        echo "benchmark smoke: $w"
        last="$(cargo run --release -q --offline --manifest-path benchmark/Cargo.toml --bin benchmark -- \
            --workload "$w" --seconds 1 --trace 1 | tail -n 1)"
        if ! grep -q '"correct":true' <<<"$last" || ! grep -Eq '"failed":0[,}]' <<<"$last"; then
            echo "benchmark smoke: $w: incorrect or failed sessions: ${last:0:200}" >&2
            return 1
        fi
    done
}
timed benchmark-smoke bench_smoke

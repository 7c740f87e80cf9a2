//! # rnr-bench: the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation (§7–§8); each
//! regenerates the corresponding rows/series on the simulator. See
//! DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
//! results.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — ROP/JOP/DOS detector examples |
//! | `table2` | Table 2 — system configuration |
//! | `table3` | Table 3 — benchmarks and parameters |
//! | `fig5` | Figure 5 — recording overhead + breakdown |
//! | `fig6` | Figure 6 — log rate and BackRAS bandwidth |
//! | `fig7` | Figure 7 — checkpointing replay overhead + breakdown |
//! | `fig8` | Figure 8 — kernel false alarms (suppressed vs passed) |
//! | `fig9` | Figure 9 — alarm replay slowdown |
//! | `fig10` | Figure 10 / §6 — the mounted kernel ROP attack |
//! | `sec84` | §8.4 — detection window, log size, checkpoints |
//! | `all` | Everything above, writing `experiments.md` |
//!
//! Scale the run length with `RNR_BENCH_INSNS` (default 1,500,000 guest
//! instructions per run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rnr_hypervisor::{RecordConfig, RecordMode, RecordOutcome, Recorder, VmSpec};
use rnr_log::{Category, FaultPlan};
use rnr_machine::CallRetTrap;
use rnr_replay::{ReplayConfig, ReplayOutcome, Replayer, VIRTUAL_HZ};
use rnr_safe::PipelineConfig;
use rnr_workloads::{Workload, WorkloadParams};

/// Default guest instructions per measured run.
pub const DEFAULT_INSNS: u64 = 1_500_000;

/// The shared seed for all harness runs (results are deterministic).
pub const SEED: u64 = 42;

/// Run length, overridable via `RNR_BENCH_INSNS`.
pub fn run_insns() -> u64 {
    std::env::var("RNR_BENCH_INSNS").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_INSNS)
}

/// Records `workload` in `mode` for the harness run length.
///
/// # Panics
///
/// Panics on recording failures (harness runs are expected to succeed).
pub fn record(workload: Workload, mode: RecordMode) -> RecordOutcome {
    record_insns(workload, mode, run_insns())
}

/// Records with an explicit instruction budget.
///
/// # Panics
///
/// Panics on recording failures.
pub fn record_insns(workload: Workload, mode: RecordMode, insns: u64) -> RecordOutcome {
    let spec = workload.spec(mode.is_pv());
    let out = Recorder::new(&spec, RecordConfig::new(mode, SEED, insns)).expect("mode matches kernel").run();
    assert!(out.fault.is_none(), "{}: guest fault {:?}", workload.label(), out.fault);
    out
}

/// Replays a recording with the given checkpoint interval (cycles) and
/// call/return trapping.
///
/// # Panics
///
/// Panics on replay divergence (the determinism guarantee).
pub fn replay(
    workload: Workload,
    rec: &RecordOutcome,
    interval: Option<u64>,
    callret: CallRetTrap,
) -> ReplayOutcome {
    let spec = workload.spec(false);
    let cfg = ReplayConfig {
        checkpoint_interval: interval,
        callret,
        collect_cases: interval.is_some(),
        ..ReplayConfig::default()
    };
    let mut r = Replayer::new(&spec, Arc::clone(&rec.log), cfg);
    r.verify_against(rec.final_digest);
    let out = r.run().unwrap_or_else(|e| panic!("{}: replay failed: {e}", workload.label()));
    assert_eq!(out.verified, Some(true), "{}: digest mismatch", workload.label());
    out
}

/// Converts virtual cycles to virtual seconds.
pub fn secs(cycles: u64) -> f64 {
    cycles as f64 / VIRTUAL_HZ as f64
}

/// Converts a byte count over a cycle span to MB/s of virtual time.
pub fn mb_per_sec(bytes: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    (bytes as f64 / (1024.0 * 1024.0)) / secs(cycles)
}

/// The per-class overhead categories of Figures 5(b)/7(b), in print order.
pub const BREAKDOWN: [Category; 5] =
    [Category::Rdtsc, Category::PioMmio, Category::Interrupt, Category::Network, Category::Ras];

/// A minimal fixed-width table printer (the figures are tables of numbers).
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Prints a section banner plus the table.
pub fn emit(title: &str, table: &Table) {
    println!("\n## {title}\n");
    println!("{}", table.to_markdown());
}

/// All workloads in figure order.
pub fn workloads() -> [Workload; 5] {
    Workload::ALL
}

/// Host CPU cores available to the harness (thread-pool sizing input,
/// shared by every wall-clock binary so "the host" means the same thing in
/// each committed figure).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Milliseconds elapsed since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `p`-th percentile (0–100) of an ascending-sorted sample, by
/// nearest-rank.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    assert!(!sorted_ms.is_empty(), "percentile of empty sample");
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Wall-clock estimator over repeated runs of a deterministic pipeline.
/// Shared by `pipeline_speed`, `farm_speed`, and the fault matrix so every
/// committed figure and gate uses the same statistics.
#[derive(Clone, Copy)]
pub enum Estimator {
    /// Best-of-N: least contaminated by scheduler noise; used for the
    /// published figures (both configurations use it, so it stays fair).
    Best(usize),
    /// Median-of-N: robust to a single outlier in either direction; used by
    /// the `--check` regression gates so one lucky (or unlucky) run can't
    /// flip them.
    Median(usize),
}

impl Estimator {
    /// How many repeats to run.
    pub fn repeats(self) -> usize {
        match self {
            Estimator::Best(n) | Estimator::Median(n) => n,
        }
    }

    /// Where the estimate sits in an ascending-sorted sample of `n`.
    pub fn index(self, n: usize) -> usize {
        match self {
            Estimator::Best(_) => 0,
            Estimator::Median(_) => n / 2,
        }
    }

    /// The estimate over an ascending-sorted sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn pick(self, sorted: &[f64]) -> f64 {
        sorted[self.index(sorted.len())]
    }
}

/// The standard mounted-attack guest (`mount_kernel_rop` over the demo
/// parameters) every attack-driven harness uses.
///
/// # Panics
///
/// Panics if the attack cannot be mounted (fixed inputs; cannot happen).
pub fn attack_spec() -> VmSpec {
    let (spec, _plan) =
        rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
    spec
}

/// The attack-pipeline configuration shared by the fault matrix, the farm
/// harness, and the equivalence tests: 900k instructions at the RepChk0.125
/// interval — long enough to exercise alarms, escalation, and a confirmed
/// ROP verdict.
pub fn attack_session_config(plan: FaultPlan) -> PipelineConfig {
    PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        fault_plan: plan,
        ..PipelineConfig::default()
    }
}

/// Asserts two `PipelineReport::to_json()` documents are byte-identical —
/// the report-identity contract every wall-clock knob (and the replay farm)
/// must uphold. On mismatch, points at the first differing line.
///
/// # Panics
///
/// Panics when the reports differ.
pub fn assert_reports_identical(context: &str, expected: &str, got: &str) {
    if expected == got {
        return;
    }
    let diff = expected
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (e, g))| e != g)
        .map(|(n, (e, g))| format!("first differing line {}: expected `{e}`, got `{g}`", n + 1))
        .unwrap_or_else(|| "documents differ only in length".to_string());
    panic!("{context}: reports must be byte-identical; {diff}");
}

/// Repository-root path of the committed wall-clock figures every perf gate
/// reads and the measurement binaries update.
pub const BENCH_PIPELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

/// Replaces or appends `key` in a JSON object value, preserving the order of
/// the other entries. Lets `pipeline_speed` and `farm_speed` each own their
/// slice of `BENCH_pipeline.json` and be rerun in either order.
///
/// # Panics
///
/// Panics when `doc` is not a JSON object.
pub fn set_json_key(doc: &mut serde_json::Value, key: &str, value: serde_json::Value) {
    let serde_json::Value::Object(entries) = doc else {
        panic!("BENCH document must be a JSON object");
    };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => entries.push((key.to_string(), value)),
    }
}

/// Removes and returns `key` from a JSON object value (`None` when absent or
/// when `doc` is not an object).
pub fn take_json_key(doc: &mut serde_json::Value, key: &str) -> Option<serde_json::Value> {
    let serde_json::Value::Object(entries) = doc else { return None };
    let at = entries.iter().position(|(k, _)| k == key)?;
    Some(entries.remove(at).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a"));
        assert!(md.contains("| 1"));
        assert_eq!(md.lines().count(), 3);
    }

    #[test]
    fn unit_conversions() {
        assert!((secs(VIRTUAL_HZ) - 1.0).abs() < 1e-9);
        assert!((mb_per_sec(1024 * 1024, VIRTUAL_HZ) - 1.0).abs() < 1e-9);
        assert_eq!(mb_per_sec(100, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_arity_checked() {
        Table::new(&["a"]).row(vec![]);
    }

    #[test]
    fn estimator_statistics() {
        let sorted = [1.0, 2.0, 9.0];
        assert_eq!(Estimator::Best(3).pick(&sorted), 1.0);
        assert_eq!(Estimator::Median(3).pick(&sorted), 2.0);
        assert_eq!(Estimator::Median(4).index(4), 2);
        assert_eq!(Estimator::Median(3).repeats(), 3);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 50.0), 20.0);
        assert_eq!(percentile(&sorted, 95.0), 40.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn identical_reports_pass() {
        assert_reports_identical("t", "{\n1\n}", "{\n1\n}");
    }

    #[test]
    #[should_panic(expected = "first differing line 2")]
    fn differing_reports_point_at_the_line() {
        assert_reports_identical("t", "{\n1\n}", "{\n2\n}");
    }
}

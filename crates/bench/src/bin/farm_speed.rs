//! Replay-farm fleet throughput: N concurrent sessions on the shared
//! global worker pool vs the same N pipelines run serially (DESIGN.md §14).
//! Like `pipeline_speed`, this binary measures *host* time — every
//! session's report is asserted byte-identical between the farm and its
//! serial reference, which is what makes the wall-clock comparison fair.
//!
//! Updates the `farm` key of `BENCH_pipeline.json` at the repository root
//! (read-modify-write; every other key is owned by `pipeline_speed` and
//! left untouched).
//!
//! With `--check`, runs a reduced comparison and gates:
//! * per-session report identity between farm and serial runs (always);
//! * fleet speedup ≥ 1.3x over serial on hosts with 4+ cores. Smaller
//!   hosts print `gate skipped: <reason>` instead: on 1 core the pool has
//!   one worker, which runs the serial pass's work one item at a time, so
//!   there is no parallelism to gate; on 2–3 cores the speedup read
//!   0.86–1.60x from run to run on a shared 2-vCPU host, too wide a spread
//!   for a floor that must not flake.

use std::time::Instant;

use rnr_bench::{
    assert_reports_identical, attack_session_config, attack_spec, cores, emit, ms, percentile, set_json_key,
    Estimator, Table, BENCH_PIPELINE_PATH,
};
use rnr_log::FaultPlan;
use rnr_safe::{Farm, FarmConfig, Pipeline, PipelineConfig, SessionSpec};
use rnr_workloads::Workload;

/// The measured fleet: one alarm-storming attack session beside five quiet
/// workloads of assorted lengths, so the scheduler has genuinely uneven
/// lanes to balance.
fn fleet_sessions() -> Vec<SessionSpec> {
    let quiet = |name: &str, workload: Workload, insns: u64| {
        let config = PipelineConfig { duration_insns: insns, ..PipelineConfig::default() };
        SessionSpec::new(name, workload.spec(false), config)
    };
    vec![
        SessionSpec::new("attack", attack_spec(), attack_session_config(FaultPlan::default())),
        quiet("mysql", Workload::Mysql, 600_000),
        quiet("make", Workload::Make, 500_000),
        quiet("jit", Workload::Jit, 400_000),
        quiet("radiosity", Workload::Radiosity, 500_000),
        quiet("fileio", Workload::Fileio, 400_000),
    ]
}

/// One serial pass: every session run to completion as its own
/// [`Pipeline`], one after another, on the calling thread. Returns the
/// per-session report JSONs (in fleet order) and the total wall-clock.
fn serial_pass(sessions: &[SessionSpec]) -> (Vec<String>, f64) {
    let t = Instant::now();
    let reports = sessions
        .iter()
        .map(|s| {
            Pipeline::new(s.vm.clone(), s.config.clone())
                .run()
                .unwrap_or_else(|e| panic!("serial session {}: {e}", s.name))
                .to_json()
        })
        .collect();
    (reports, ms(t))
}

/// One farm pass over the same sessions. Returns the per-session report
/// JSONs (fleet order), per-session latencies, total retired instructions,
/// and the fleet wall-clock.
fn farm_pass(farm: &Farm, sessions: &[SessionSpec]) -> (Vec<String>, Vec<f64>, u64, f64) {
    let report = farm.run(sessions);
    let mut jsons = Vec::with_capacity(report.sessions.len());
    let mut latencies = Vec::with_capacity(report.sessions.len());
    let mut retired = 0u64;
    for outcome in &report.sessions {
        let r = outcome.result.as_ref().unwrap_or_else(|e| panic!("farm session {}: {e}", outcome.name));
        retired += r.record.retired;
        jsons.push(r.to_json());
        latencies.push(outcome.wall_ms);
    }
    (jsons, latencies, retired, report.wall_ms)
}

/// The committed fleet figures.
#[derive(Debug, serde::Serialize)]
struct FarmBench {
    sessions: usize,
    workers: usize,
    /// Serial and farm times of the pair whose ratio is `speedup`.
    serial_ms: f64,
    farm_ms: f64,
    /// Estimator's pick over per-pair serial/farm ratios (load swings hit
    /// both members of an interleaved pair, so they cancel out of the
    /// ratio).
    speedup: f64,
    sessions_per_sec: f64,
    aggregate_insns_per_sec: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    reports_identical: bool,
}

/// Measures the fleet comparison: serial and farm passes interleaved in
/// pairs, per-session identity asserted on every pair.
fn fleet_comparison(estimator: Estimator) -> FarmBench {
    let sessions = fleet_sessions();
    let workers = cores();
    let farm = Farm::new(FarmConfig { workers, ..FarmConfig::default() });
    let mut pairs = Vec::new();
    let mut last = None;
    for _ in 0..estimator.repeats() {
        let (serial_jsons, serial_ms) = serial_pass(&sessions);
        let (farm_jsons, latencies, retired, farm_ms) = farm_pass(&farm, &sessions);
        for (i, (serial, farm)) in serial_jsons.iter().zip(&farm_jsons).enumerate() {
            let context = format!("farm session `{}`", sessions[i].name);
            assert_reports_identical(&context, serial, farm);
        }
        pairs.push((serial_ms, farm_ms));
        last = Some((latencies, retired));
    }
    let ratio = |&(serial_ms, farm_ms): &(f64, f64)| serial_ms / farm_ms;
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (serial_ms, farm_ms) = pairs[estimator.index(pairs.len())];
    let (mut latencies, retired) = last.expect("at least one repeat");
    latencies.sort_by(f64::total_cmp);
    FarmBench {
        sessions: sessions.len(),
        workers,
        serial_ms,
        farm_ms,
        speedup: serial_ms / farm_ms,
        sessions_per_sec: sessions.len() as f64 / (farm_ms / 1e3),
        aggregate_insns_per_sec: retired as f64 / (farm_ms / 1e3),
        latency_p50_ms: percentile(&latencies, 50.0),
        latency_p95_ms: percentile(&latencies, 95.0),
        reports_identical: true,
    }
}

/// `--check`: CI gate. Identity is asserted inside the comparison on every
/// pair; the speedup floor only applies on hosts with 4+ cores.
fn check() {
    let bench = fleet_comparison(Estimator::Median(3));
    println!(
        "check: reports_identical={} fleet speedup {:.2}x (median pair: farm {:.0} ms vs serial {:.0} ms, {} workers)",
        bench.reports_identical, bench.speedup, bench.farm_ms, bench.serial_ms, bench.workers
    );
    let n = cores();
    if n >= 4 {
        if bench.speedup < 1.3 {
            eprintln!(
                "check FAILED: fleet speedup {:.2}x below the 1.3x floor on a {n}-core host",
                bench.speedup
            );
            std::process::exit(1);
        }
        println!("check: fleet speedup {:.2}x >= 1.3x floor", bench.speedup);
    } else {
        let why = if n == 1 {
            "1 core: a one-worker pool runs the serial pass's work one item at a time, so there is no parallelism to gate"
        } else {
            "2-3 cores: on a shared 2-vCPU host the speedup read 0.86-1.60x from run to run, too wide for a floor"
        };
        println!("check: gate skipped: fleet speedup floor ({why})");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }
    let bench = fleet_comparison(Estimator::Median(5));

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["sessions".into(), bench.sessions.to_string()]);
    t.row(vec!["pool workers".into(), bench.workers.to_string()]);
    t.row(vec!["serial total".into(), format!("{:.1} ms", bench.serial_ms)]);
    t.row(vec!["farm total".into(), format!("{:.1} ms", bench.farm_ms)]);
    t.row(vec!["fleet speedup".into(), format!("{:.2}x", bench.speedup)]);
    t.row(vec!["sessions/sec".into(), format!("{:.2}", bench.sessions_per_sec)]);
    t.row(vec!["aggregate insns/sec".into(), format!("{:.3}M", bench.aggregate_insns_per_sec / 1e6)]);
    t.row(vec!["session latency p50".into(), format!("{:.1} ms", bench.latency_p50_ms)]);
    t.row(vec!["session latency p95".into(), format!("{:.1} ms", bench.latency_p95_ms)]);
    emit("Replay farm: fleet vs serial (byte-identical per-session reports)", &t);

    // Read-modify-write: only the `farm` key belongs to this binary.
    let mut doc: serde_json::Value = std::fs::read_to_string(BENCH_PIPELINE_PATH)
        .ok()
        .and_then(|old| serde_json::from_str(&old).ok())
        .unwrap_or_else(|| serde_json::json!({}));
    set_json_key(&mut doc, "farm", serde_json::to_value(&bench));
    std::fs::write(BENCH_PIPELINE_PATH, serde_json::to_string_pretty(&doc).expect("doc serializes"))
        .expect("write BENCH_pipeline.json");
    println!("updated `farm` in {BENCH_PIPELINE_PATH}");
}

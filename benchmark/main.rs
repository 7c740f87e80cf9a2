//! The repository benchmark: six closed-loop session workloads, end-to-end
//! metrics from an untraced run, and a per-layer breakdown from a traced
//! run. See README.md beside this file.
//!
//! ```text
//! benchmark --workload <name> [--seed S] [--seconds N] [--trace 0|1]
//!           [--trace-out <path>] [--append <run-set>]
//! benchmark --compare <run-set A> <run-set B> [--bench-json <path>]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

#![forbid(unsafe_code)]

mod closed_loop;
mod compare;
mod layers;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rnr_replay::VIRTUAL_HZ;
use serde_json::Value;

use closed_loop::{measure, reference_check, run_op};
use probe::HostProbe;
use report::{result_json, END_TO_END, PER_LAYER};
use stats::{median, nearest_rank, p90, P90_MIN_SAMPLES};
use workloads::{Bench, Kind};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Closed-loop operations each set-up runs before timing starts.
const WARMUP_OPS: u64 = 2;

/// Sessions rerun under the reference configuration after the timed phase
/// (for `fleet`, the whole first batch).
const REFERENCE_SESSIONS: u64 = 2;

/// The measured phase stops here even short of its sample floor, so that
/// even on a very slow host a run ends within three minutes. On the hosts
/// the workloads are sized for, `--seconds` ends it long before.
const MEASURE_CAP: Duration = Duration::from_secs(120);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    append: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bench_json: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 12.0,
        trace: false,
        trace_out: None,
        append: None,
        compare: None,
        bench_json: PathBuf::from("BENCHMARK.json"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--append" => args.append = Some(value()?.into()),
            "--bench-json" => args.bench_json = value()?.into(),
            "--compare" => {
                let a = value()?;
                let b = it.next().ok_or("--compare needs two run sets")?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A directory for durable logs, inside the working directory, removed
/// when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".benchmark-scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        let _ = std::fs::remove_dir(".benchmark-scratch");
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 =
        status.lines().find(|l| l.starts_with("VmHWM:"))?.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one run reports on its last line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Raw wall-clock values of the normalized metrics, the host probe's
    /// median as `host_probe_ms`, and `peak_rss_mb`. Not in the result line;
    /// `--append` writes them to the run set, where `--compare` judges all
    /// but the last too.
    raw: Vec<(&'static str, f64)>,
}

/// Reports every failure on stderr, with the session's seed.
fn report_failures(failures: &[String]) {
    for f in failures {
        eprintln!("FAILED {f}");
    }
}

/// Builds the workload's guests and runs the warm-up operations, with seeds
/// below the measured range. Returns the built workload and any failures.
fn set_up(kind: Kind, pools: usize, seed0: u64, scratch: &Path) -> (Bench, Vec<String>) {
    let bench = Bench::new(kind, pools, scratch);
    let warm0 = seed0.wrapping_sub(WARMUP_OPS * kind.sessions_per_op());
    let failures = (0..WARMUP_OPS)
        .flat_map(|op| run_op(&bench, op, warm0))
        .filter_map(|d| d.failure.map(|f| format!("warm-up seed {}: {f}", d.seed)))
        .collect();
    (bench, failures)
}

/// The untraced run: end-to-end metrics.
fn untraced(kind: Kind, args: &Args, scratch: &Path) -> Result<RunResult, String> {
    let pools = nproc();
    let mut probe = HostProbe::new();
    let mut setups = Vec::new();
    let mut setup_probes = Vec::new();
    let mut failures = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (b, f) = set_up(kind, pools, args.seed, scratch);
        setups.push(t.elapsed().as_secs_f64());
        setup_probes.push(probe.sample());
        failures.extend(f);
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    let t = Instant::now();
    let measured = measure(&bench, &mut probe, args.seed, args.seconds, P90_MIN_SAMPLES, MEASURE_CAP);
    let measured_s = t.elapsed().as_secs_f64();
    let sessions = &measured.sessions;
    if sessions.len() < P90_MIN_SAMPLES {
        return Err(format!(
            "only {} sessions in {:?}; a p90 needs {P90_MIN_SAMPLES}",
            sessions.len(),
            MEASURE_CAP
        ));
    }
    let t = Instant::now();
    let reference_n = if kind == Kind::Fleet { workloads::FLEET_BATCH } else { REFERENCE_SESSIONS };
    let mismatches = reference_check(&bench, args.seed, sessions, reference_n);
    println!(
        "phases: set-ups {} s, measured {measured_s:.2} s, reference check {:.2} s",
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" / "),
        t.elapsed().as_secs_f64()
    );

    let mut failed_seeds: Vec<u64> =
        sessions.iter().filter(|d| d.failure.is_some()).map(|d| d.seed).collect();
    failed_seeds.extend(mismatches.iter().map(|(seed, _)| *seed));
    failed_seeds.sort_unstable();
    failed_seeds.dedup();
    failures.extend(
        sessions.iter().filter_map(|d| d.failure.as_ref().map(|f| format!("session seed {}: {f}", d.seed))),
    );
    failures.extend(mismatches.into_iter().map(|(seed, m)| format!("session seed {seed}: {m}")));
    report_failures(&failures);

    // Host times, raw and scaled to the reference host per operation.
    let scales = probe::scales(&measured.probes);
    let (mut raw, mut norm) = (Vec::new(), Vec::new());
    let (mut raw_wall_s, mut norm_wall_s) = (0.0, 0.0);
    let mut done = sessions.iter();
    for (&(wall_ms, n), scale) in measured.ops.iter().zip(&scales) {
        raw_wall_s += wall_ms / 1e3;
        norm_wall_s += wall_ms * scale / 1e3;
        for d in done.by_ref().take(n) {
            raw.push(d.latency_ms);
            norm.push(d.latency_ms * scale);
        }
    }
    raw.sort_by(f64::total_cmp);
    norm.sort_by(f64::total_cmp);
    let setup_norm: Vec<f64> = setups.iter().zip(probe::scales(&setup_probes)).map(|(t, s)| t * s).collect();
    let retired = sessions.iter().map(|d| d.retired).sum::<u64>() as f64;
    let verdicts = sessions.iter().map(|d| d.verdicts).sum::<usize>() as f64;
    let windows: Vec<f64> = sessions.iter().filter_map(|d| d.window_vcycles).map(|c| c as f64).collect();
    let attempted = sessions.len() as u64;
    let failed = failed_seeds.len() as u64;
    let n = attempted as f64;
    let rss = peak_rss_mb().ok_or("VmHWM unavailable in /proc/self/status")?;
    // (normalized, raw, samples) per end-to-end metric, in END_TO_END order.
    let rows = [
        (nearest_rank(&norm, 50.0), nearest_rank(&raw, 50.0), sessions.len()),
        (p90(&norm).expect("sample floor checked above"), p90(&raw).expect("sample floor"), sessions.len()),
        (n / norm_wall_s, n / raw_wall_s, sessions.len()),
        (retired / norm_wall_s / 1e6, retired / raw_wall_s / 1e6, sessions.len()),
        (median(&setup_norm).expect("set-ups ran"), median(&setups).expect("set-ups ran"), SETUP_REPS),
    ];

    println!("| metric | value | raw wall clock | unit | samples |");
    println!("|---|---|---|---|---|");
    for ((name, unit), (value, raw, samples)) in END_TO_END.iter().zip(rows) {
        println!("| {name} | {value:.4} | {raw:.4} | {unit} | {samples} |");
    }
    println!(
        "| verdicts_per_s | {:.4} | {:.4} | 1/s | {attempted} |",
        verdicts / norm_wall_s,
        verdicts / raw_wall_s
    );
    match median(&windows) {
        Some(w) => println!(
            "| detection_window_vms | {:.4} | (simulated) | virtual ms | {} |",
            w * 1e3 / VIRTUAL_HZ as f64,
            windows.len()
        ),
        None => println!("| detection_window_vms | - | (simulated) | virtual ms | 0 |"),
    }
    println!("| failed_ratio | {:.4} | | fraction | {attempted} |", failed as f64 / n);
    println!("| peak_rss_mb | {rss:.4} | {rss:.4} | MB | 1 |");
    let probe_ms = median(&measured.probes).expect("operations ran");
    println!(
        "host probe: median {probe_ms:.4} ms over {} operations (reference {} ms)",
        measured.probes.len(),
        probe::REFERENCE_PROBE_MS
    );
    let metrics =
        END_TO_END.iter().zip(rows).map(|((name, unit), (value, _, _))| (*name, *unit, value)).collect();
    let raw = END_TO_END
        .iter()
        .zip(rows)
        .map(|((name, _), (_, raw, _))| (*name, raw))
        .chain([("host_probe_ms", probe_ms), ("peak_rss_mb", rss)])
        .collect();
    Ok(RunResult { correct: failures.is_empty(), attempted, failed, metrics, raw })
}

/// The traced run: per-layer metrics, and the spans if asked for.
fn traced(kind: Kind, args: &Args, scratch: &Path) -> Result<RunResult, String> {
    let (bench, mut failures) = set_up(kind, nproc(), args.seed, scratch);
    let run = layers::traced_run(&bench, args.seed, args.seconds, scratch);
    // A session can fail several checks; it counts once.
    let mut failed_seeds: Vec<u64> = run.failures.iter().map(|(seed, _)| *seed).collect();
    failed_seeds.sort_unstable();
    failed_seeds.dedup();
    failures.extend(run.failures.into_iter().map(|(_, f)| f));
    report_failures(&failures);
    let metrics: Vec<_> = PER_LAYER.iter().map(|(n, u)| (*n, *u, run.metrics[n])).collect();
    println!("| metric | value | unit |");
    println!("|---|---|---|");
    for (name, unit, value) in &metrics {
        println!("| {name} | {value:.4} | {unit} |");
    }
    if let Some(path) = &args.trace_out {
        let values = metrics.iter().map(|(n, _, v)| (n.to_string(), Value::F64(*v))).collect();
        let doc = Value::Object(vec![
            ("workload".into(), Value::String(args.workload.clone().unwrap_or_default())),
            ("seed".into(), Value::U64(args.seed)),
            ("metrics".into(), Value::Object(values)),
            ("spans".into(), trace::spans_json(&run.spans)),
        ]);
        std::fs::write(path, serde_json::to_string(&doc).expect("trace serializes"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {} spans to {}", run.spans.len(), path.display());
    }
    let failed = failed_seeds.len() as u64;
    Ok(RunResult { correct: failures.is_empty(), attempted: run.attempted, failed, metrics, raw: Vec::new() })
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    if let Some((a, b)) = &args.compare {
        let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()));
        let bounds = compare::parse_bounds(&read(&args.bench_json)?)?;
        let (a, b) = (compare::parse_run_set(&read(a)?)?, compare::parse_run_set(&read(b)?)?);
        return if compare::compare(&bounds, &a, &b) {
            Ok(())
        } else {
            Err("B regressed beyond a bound".into())
        };
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let kind = Kind::parse(name)
        .ok_or_else(|| format!("unknown workload `{name}`; one of {}", workloads::NAMES.join(", ")))?;
    let pools = nproc();
    println!(
        "workload {name} seed {} trace {} | host: nproc {pools}, cpu {} | pools: spans {pools}, alarm replayers {pools}, farm {pools}",
        args.seed,
        u8::from(args.trace),
        cpu_model()
    );
    let scratch = Scratch::new().map_err(|e| format!("creating the scratch directory: {e}"))?;
    let run = if args.trace { traced(kind, args, &scratch.0)? } else { untraced(kind, args, &scratch.0)? };
    drop(scratch);
    let line = result_json(run.correct, run.attempted, run.failed, &run.metrics);
    let run_s = started.elapsed().as_secs_f64();
    println!("run: {run_s:.2} s");
    if let Some(path) = &args.append {
        let raw = run.raw.iter().map(|(n, v)| (n.to_string(), Value::F64(*v))).collect();
        let raw = serde_json::to_string(&Value::Object(raw)).expect("raw values serialize");
        let record = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"run_s\": {run_s}, \"raw\": {raw}, \"result\": {line}}}\n",
            args.seed,
            u8::from(args.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(&args, started));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&["--workload", "fleet", "--seed", "7", "--seconds", "10", "--trace", "1"]).unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args(&["--workload", "jit_smc"]).unwrap();
        assert_eq!((d.seed, d.trace), (42, false));
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}

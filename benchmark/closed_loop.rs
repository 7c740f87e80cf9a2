//! The closed loop: one client, and the next operation starts only after
//! the previous one returned. An operation is one session, or one `fleet`
//! batch of eight sessions on the farm.

use std::time::{Duration, Instant};

use rnr_safe::{Farm, FarmConfig, Pipeline, PipelineReport, SessionSpec};

use crate::probe::HostProbe;
use crate::workloads::{check_verdicts, first_difference, reference_config, Bench, Kind, Session};

/// One finished session.
#[derive(Debug)]
pub struct Done {
    pub seed: u64,
    /// Session start to its report; in `fleet`, farm start to the session's
    /// completion, so queueing is included.
    pub latency_ms: f64,
    pub retired: u64,
    pub verdicts: usize,
    /// §8.4 detection window in virtual cycles, for attack sessions.
    pub window_vcycles: Option<u64>,
    pub json: String,
    /// Why the session failed, if it did.
    pub failure: Option<String>,
}

impl Done {
    fn new(session: &Session, latency_ms: f64, result: Result<PipelineReport, String>) -> Done {
        let seed = session.config.seed;
        match result {
            Ok(report) => Done {
                seed,
                latency_ms,
                retired: report.record.retired,
                verdicts: report.resolutions.len(),
                window_vcycles: report.detection.as_ref().map(|d| d.window_cycles),
                json: report.to_json(),
                failure: check_verdicts(session, &report).err(),
            },
            Err(e) => Done {
                seed,
                latency_ms,
                retired: 0,
                verdicts: 0,
                window_vcycles: None,
                json: String::new(),
                failure: Some(e),
            },
        }
    }
}

/// Removes a session's durable store, so every session starts from an
/// empty directory and leaves nothing behind.
pub fn clear_durable(session: &Session) {
    if let Some(d) = &session.config.durable_log {
        let _ = std::fs::remove_dir_all(&d.dir);
    }
}

/// Runs one session on its own pipeline; only `Pipeline::run` is timed.
pub fn run_session(session: &Session) -> Done {
    clear_durable(session);
    let pipeline = Pipeline::new(session.spec.clone(), session.config.clone());
    let t = Instant::now();
    let result = pipeline.run();
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    clear_durable(session);
    Done::new(session, latency_ms, result.map_err(|e| e.to_string()))
}

/// Runs sessions as one farm batch on `pools` workers.
pub fn run_farm(sessions: &[Session], pools: usize) -> Vec<Done> {
    sessions.iter().for_each(clear_durable);
    let farm = Farm::new(FarmConfig { workers: pools, ..FarmConfig::default() });
    let specs: Vec<SessionSpec> =
        sessions.iter().map(|s| SessionSpec::new(s.name, s.spec.clone(), s.config.clone())).collect();
    let report = farm.run(&specs);
    sessions.iter().for_each(clear_durable);
    sessions
        .iter()
        .zip(report.sessions)
        .map(|(s, o)| Done::new(s, o.wall_ms, o.result.map_err(|e| e.to_string())))
        .collect()
}

/// The sessions of closed-loop operation `op`: session `i` of the loop is
/// seeded `seed0 + i`.
pub fn op_sessions(bench: &Bench, op: u64, seed0: u64) -> Vec<Session> {
    let per = bench.kind.sessions_per_op();
    (op * per..(op + 1) * per).map(|i| bench.session(i, seed0.wrapping_add(i))).collect()
}

/// Runs closed-loop operation `op`.
pub fn run_op(bench: &Bench, op: u64, seed0: u64) -> Vec<Done> {
    let sessions = op_sessions(bench, op, seed0);
    if bench.kind == Kind::Fleet {
        run_farm(&sessions, bench.pools)
    } else {
        sessions.iter().map(run_session).collect()
    }
}

/// What the measured phase produced.
#[derive(Debug)]
pub struct Measured {
    pub sessions: Vec<Done>,
    /// Per operation: its wall time in ms and how many sessions it ran.
    pub ops: Vec<(f64, usize)>,
    /// The host probe taken right after each operation, in ms.
    pub probes: Vec<f64>,
}

/// Runs operations from `seed0` until `seconds` have passed and at least
/// `min_sessions` sessions are done, or `cap` has passed, probing the host
/// after each.
pub fn measure(
    bench: &Bench,
    probe: &mut HostProbe,
    seed0: u64,
    seconds: f64,
    min_sessions: usize,
    cap: Duration,
) -> Measured {
    let start = Instant::now();
    let mut m = Measured { sessions: Vec::new(), ops: Vec::new(), probes: Vec::new() };
    let mut op = 0;
    while (start.elapsed().as_secs_f64() < seconds || m.sessions.len() < min_sessions)
        && start.elapsed() < cap
    {
        let t = Instant::now();
        let done = run_op(bench, op, seed0);
        m.ops.push((t.elapsed().as_secs_f64() * 1e3, done.len()));
        m.sessions.extend(done);
        m.probes.push(probe.sample());
        op += 1;
    }
    m
}

/// Reruns the first `n` measured sessions solo under the reference
/// configuration; returns the seed and a message for each report that is
/// not byte-identical to the measured one.
pub fn reference_check(bench: &Bench, seed0: u64, measured: &[Done], n: u64) -> Vec<(u64, String)> {
    let mut mismatches = Vec::new();
    for (i, timed) in (0..n).zip(measured) {
        let seed = seed0.wrapping_add(i);
        let session = bench.session(i, seed);
        let reference = Session { config: reference_config(&session.config), ..session };
        let solo = run_session(&reference);
        if let Some(f) = solo.failure {
            mismatches.push((seed, format!("reference run failed: {f}")));
        } else if solo.json != timed.json {
            let at = first_difference(&solo.json, &timed.json);
            mismatches.push((seed, format!("report differs from the reference configuration's at {at}")));
        }
    }
    mismatches
}

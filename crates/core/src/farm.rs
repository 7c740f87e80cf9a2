//! The replay farm: many concurrent sessions on one shared worker pool
//! (DESIGN.md §14).
//!
//! A [`Farm`] is a fleet manager. Each [`SessionSpec`] is one full RnR-Safe
//! pipeline — record → checkpointing replay → alarm replay — but instead of
//! every session privately owning recorder threads, span workers, and an AR
//! pool, the farm multiplexes **one** global bounded pool (sized from the
//! host's cores) across all of them. Session phases are decomposed into
//! unified work items — `Record`, one `CrSpan` per span, `Finalize`, one
//! `ArCase` per checkpoint shared by escalated alarms (one alarm-replay pass
//! of the session's alarm phase, the same one [`Pipeline`](crate::Pipeline)
//! drives, resolves that checkpoint's cases) — and a deterministic
//! round-robin scheduler drains them so an alarm-storming session cannot
//! starve its quiet siblings. Every VM a work item builds owns its decode,
//! block and trace caches.
//!
//! **Invariance:** a farm of N sessions produces per-session
//! [`PipelineReport`]s byte-identical (via `to_json()`) to N serial
//! [`Pipeline`](crate::Pipeline) runs of the same specs, for every pool
//! size, interleaving, and per-session knob corner. This falls out of the
//! spine the farm is built on: recording is sequential (streaming is a
//! wall-clock-only knob, and seed capture is pure reads), span replay folds
//! index-keyed results in span order regardless of execution order, and
//! the alarm phase files each case's outcome in its own slot — nothing the
//! scheduler decides can reach a report. Failures are isolated the same way: a
//! session whose pipeline fails (a refused recording, a divergence, an
//! unrecoverable fault) or whose work panics fails with a structured
//! [`FarmError`] while its siblings' reports stay untouched.

mod scheduler;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use rnr_hypervisor::{RecordOutcome, VmSpec};
use rnr_log::{DurableLogConfig, TransportStats};
use rnr_replay::{
    assemble_spans, plan_spans, pool, run_planned_span, ReplayConfig, ReplayError, ReplayOutcome, SpanDone,
    SpanJob,
};

use crate::pipeline::{
    ar_replay_config, finish_report, panic_text, record_config, recorder_for, replay_config, run_recorder,
    AlarmPhase, ArStats,
};
use crate::{AlarmResolution, FailedCase, PipelineConfig, PipelineError, PipelineReport};

use scheduler::{Scheduler, WorkItem, WorkKind};

/// A fleet-unique session identifier (the session's position in the batch
/// submitted to [`Farm::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One session the farm will run: a name, a workload spec and its
/// pipeline configuration.
#[derive(Debug)]
pub struct SessionSpec {
    /// Caller-chosen session name (reported in [`SessionOutcome`]; need not
    /// be unique, but [`FarmReport::session`] returns the first match).
    pub name: String,
    /// The guest to record and replay.
    pub vm: VmSpec,
    /// The session's pipeline knobs. The farm honours everything that can
    /// reach the report (seed, duration, RAS capacity, checkpoint interval,
    /// cost model, fault plan, …). It always records sequentially and cuts
    /// the recording into spans by its own cadence rule, and it resolves
    /// alarm cases on the shared pool, so `streaming` and `ar_workers` do
    /// not apply here; the report is byte-identical either way.
    pub config: PipelineConfig,
}

impl SessionSpec {
    /// A session named `name` over `vm`, run under `config`.
    pub fn new(name: impl Into<String>, vm: VmSpec, config: PipelineConfig) -> SessionSpec {
        SessionSpec { name: name.into(), vm, config }
    }
}

/// Farm-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct FarmConfig {
    /// Global pool size; `0` sizes it to the host's available parallelism.
    /// Wall-clock only: reports are byte-identical for every pool size.
    pub workers: usize,
    /// Root directory for per-session durable stores. A session whose own
    /// `config.durable_log` is unset gets
    /// `<root>/session-<id>` ([DESIGN.md §13] segment store); sessions that
    /// set their own path keep it.
    pub durable_root: Option<PathBuf>,
}

/// How a fleet session failed. Sibling sessions are unaffected — each
/// [`SessionOutcome`] carries its own result.
#[derive(Debug)]
pub enum FarmError {
    /// The session's own pipeline failed (recording setup, guest fault,
    /// replay divergence, failed verification).
    Pipeline(PipelineError),
    /// A pooled worker panicked while executing this session's work; the
    /// panic was caught and confined to the session.
    WorkerPanicked {
        /// The session whose work item panicked.
        session: SessionId,
        /// Best-effort panic message.
        detail: String,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::Pipeline(e) => write!(f, "pipeline failed: {e}"),
            FarmError::WorkerPanicked { session, detail } => {
                write!(f, "farm worker panicked on session {session}: {detail}")
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for FarmError {
    fn from(e: PipelineError) -> FarmError {
        FarmError::Pipeline(e)
    }
}

/// One session's result and wall-clock accounting.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The session's fleet identifier.
    pub id: SessionId,
    /// The session's caller-chosen name.
    pub name: String,
    /// The session's report, or the structured reason it failed.
    pub result: Result<PipelineReport, FarmError>,
    /// Milliseconds from farm start to this session's completion
    /// (scheduling latency included).
    pub wall_ms: f64,
}

/// What [`Farm::run`] returns: every session's outcome, in submission
/// order, plus fleet wall-clock.
#[derive(Debug)]
pub struct FarmReport {
    /// Per-session outcomes, indexed by submission order.
    pub sessions: Vec<SessionOutcome>,
    /// Total fleet wall-clock in milliseconds.
    pub wall_ms: f64,
}

impl FarmReport {
    /// The first session named `name`, if any.
    pub fn session(&self, name: &str) -> Option<&SessionOutcome> {
        self.sessions.iter().find(|s| s.name == name)
    }

    /// True when every session produced a report.
    pub fn all_ok(&self) -> bool {
        self.sessions.iter().all(|s| s.result.is_ok())
    }
}

/// The fleet manager. Construct once, then [`Farm::run`] batches of
/// sessions on the shared pool.
#[derive(Debug, Clone, Default)]
pub struct Farm {
    config: FarmConfig,
}

impl Farm {
    /// A farm with `config`.
    pub fn new(config: FarmConfig) -> Farm {
        Farm { config }
    }

    /// Runs every session to completion on the shared pool and returns all
    /// outcomes. Never fails as a whole: per-session failures are carried
    /// in each [`SessionOutcome::result`].
    pub fn run(&self, sessions: &[SessionSpec]) -> FarmReport {
        let started = Instant::now();
        if sessions.is_empty() {
            return FarmReport { sessions: Vec::new(), wall_ms: 0.0 };
        }
        let workers = match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            w => w,
        };
        let fleet = Fleet::new(sessions, &self.config, workers, started);
        pool::drain(workers, &|| fleet.next_task());
        let state = fleet.state.into_inner().expect("fleet lock");
        let outcomes = state
            .phases
            .into_iter()
            .zip(state.latencies)
            .enumerate()
            .map(|(s, (phase, wall_ms))| {
                let id = SessionId(s as u32);
                let result = match phase {
                    Phase::Done(result) => *result,
                    // Unreachable by construction (a session not Done always
                    // has work queued or in flight, so the pool cannot drain
                    // before it is), but never panic the report.
                    _ => Err(FarmError::WorkerPanicked {
                        session: id,
                        detail: "farm bug: the pool drained before the session finished".to_string(),
                    }),
                };
                SessionOutcome { id, name: sessions[s].name.clone(), result, wall_ms }
            })
            .collect();
        FarmReport { sessions: outcomes, wall_ms: started.elapsed().as_secs_f64() * 1e3 }
    }
}

/// Farm span cadence, one per fleet: no span is longer than half a
/// worker's share of the fleet's instructions, `Σ duration_insns / (2 ×
/// workers)`, floored at 15k so tiny fleets don't drown in restore
/// overhead. Graham's list-scheduling bound (makespan ≤ W/P + longest
/// item) then keeps the fleet's CR within 1.5× of a perfect split, and a
/// session is cut only where whole sessions cannot balance the pool by
/// themselves. Wall-clock only — seed capture is pure reads and span
/// count never reaches a report.
fn farm_span_cadence(sessions: &[SessionSpec], workers: usize) -> u64 {
    let total = sessions.iter().fold(0u64, |sum, s| sum.saturating_add(s.config.duration_insns));
    let halves = u64::try_from(workers.max(1)).unwrap_or(u64::MAX).saturating_mul(2);
    (total / halves).max(15_000)
}

/// Per-session configuration, derived once when the fleet is built.
struct SessionPlan {
    replay_cfg: ReplayConfig,
    ar_cfg: ReplayConfig,
    durable: Option<DurableLogConfig>,
}

/// Where one session is in its record → replay → finalize → resolve life
/// cycle. Holds the phase's index-keyed result slots; the borrow parameter
/// is the fleet's borrow of the session specs (the alarm phase replays
/// against a session's `VmSpec`).
enum Phase<'s> {
    /// Waiting for / executing its `Record` item.
    Recording,
    /// CR spans in flight.
    Replaying(Box<ReplayPhase>),
    /// Span results moved into a `Finalize` (or final report-assembly)
    /// task; transient.
    Finalizing,
    /// Alarm cases in flight.
    Resolving(Box<ResolvePhase<'s>>),
    /// Terminal.
    Done(Box<Result<PipelineReport, FarmError>>),
}

struct ReplayPhase {
    rec: RecordOutcome,
    jobs: Arc<Vec<SpanJob>>,
    slots: Vec<Option<Result<SpanDone, ReplayError>>>,
    remaining: usize,
}

/// What `Finalize` hands back and the resolve phase holds: the verified
/// recording and CR, and the session's alarm phase, one `ArCase` item per
/// pass.
struct ResolvePhase<'s> {
    rec: RecordOutcome,
    cr_out: ReplayOutcome,
    cr_stats: rnr_machine::BlockStats,
    alarms: Arc<AlarmPhase<'s>>,
}

/// Every case's outcome and the alarm phase's recovery accounting.
type Resolved = (Vec<Result<AlarmResolution, FailedCase>>, ArStats);

/// A work item's result, computed OUTSIDE the fleet lock and applied under
/// it.
enum Executed<'s> {
    Recorded(Box<Result<RecordOutcome, FarmError>>),
    Span(usize, Box<Result<SpanDone, ReplayError>>),
    Finalized(Result<Box<ResolvePhase<'s>>, FarmError>),
    /// An `ArCase` item's pass ran; the item that ran the last pass carries
    /// the outcomes.
    Resolved(Option<Box<Resolved>>),
}

struct FleetState<'s> {
    phases: Vec<Phase<'s>>,
    sched: Scheduler,
    inflight: usize,
    latencies: Vec<f64>,
}

/// The live fleet: immutable per-session plans plus the locked mutable
/// state the pool workers coordinate through.
struct Fleet<'s> {
    sessions: &'s [SessionSpec],
    plans: Vec<SessionPlan>,
    /// The fleet's span cadence (`farm_span_cadence`), shared by every
    /// session.
    cadence: u64,
    state: Mutex<FleetState<'s>>,
    cvar: Condvar,
    started: Instant,
}

impl<'s> Fleet<'s> {
    fn new(sessions: &'s [SessionSpec], config: &FarmConfig, workers: usize, started: Instant) -> Fleet<'s> {
        let plans = sessions
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                let replay_cfg = replay_config(&spec.config);
                let ar_cfg = ar_replay_config(&replay_cfg);
                let durable = spec.config.durable_log.clone().or_else(|| {
                    config
                        .durable_root
                        .as_ref()
                        .map(|root| DurableLogConfig::new(root.join(format!("session-{s}"))))
                });
                SessionPlan { replay_cfg, ar_cfg, durable }
            })
            .collect();
        let mut sched = Scheduler::new(sessions.len());
        for s in 0..sessions.len() {
            sched.enqueue(WorkItem { session: s, kind: WorkKind::Record, index: 0 });
        }
        Fleet {
            sessions,
            plans,
            cadence: farm_span_cadence(sessions, workers),
            state: Mutex::new(FleetState {
                phases: (0..sessions.len()).map(|_| Phase::Recording).collect(),
                sched,
                inflight: 0,
                latencies: vec![0.0; sessions.len()],
            }),
            cvar: Condvar::new(),
            started,
        }
    }

    /// The pool's pull hook: the next task, blocking while other workers'
    /// in-flight items might queue more, `None` once nothing is queued and
    /// nothing is in flight (only an in-flight item queues new work).
    fn next_task(&self) -> Option<pool::Task<'_>> {
        let mut st = self.state.lock().expect("fleet lock");
        loop {
            if let Some(item) = st.sched.next() {
                st.inflight += 1;
                return Some(self.build_task(&mut st, item));
            }
            if st.inflight == 0 {
                return None;
            }
            st = self.cvar.wait(st).expect("fleet lock");
        }
    }

    /// Packages `item` as a pool task: a payload that runs OUTSIDE the
    /// fleet lock (all the heavy guest re-execution), then a short
    /// apply-under-lock epilogue. Panics in the payload are caught and
    /// confined to the item's session.
    fn build_task<'a>(&'a self, st: &mut FleetState<'s>, item: WorkItem) -> pool::Task<'a> {
        let s = item.session;
        let payload: Box<dyn FnOnce() -> Executed<'s> + Send + 'a> = match item.kind {
            WorkKind::Record => Box::new(move || Executed::Recorded(Box::new(self.record_session(s)))),
            WorkKind::CrSpan => {
                let Phase::Replaying(rp) = &st.phases[s] else {
                    unreachable!("span dispatched outside replay phase")
                };
                let jobs = Arc::clone(&rp.jobs);
                let k = item.index;
                Box::new(move || {
                    let result =
                        run_planned_span(&self.sessions[s].vm, &self.plans[s].replay_cfg, None, &jobs[k]);
                    Executed::Span(k, Box::new(result))
                })
            }
            WorkKind::Finalize => {
                // Finalize owns the whole replay phase (its slots are
                // complete); move it into the task.
                let phase = std::mem::replace(&mut st.phases[s], Phase::Finalizing);
                let Phase::Replaying(rp) = phase else {
                    unreachable!("finalize dispatched outside replay phase")
                };
                Box::new(move || Executed::Finalized(self.finalize_session(s, *rp)))
            }
            WorkKind::ArCase => {
                let Phase::Resolving(rs) = &st.phases[s] else {
                    unreachable!("case dispatched outside resolve phase")
                };
                let alarms = Arc::clone(&rs.alarms);
                let g = item.index;
                Box::new(move || Executed::Resolved(alarms.run_pass(g).then(|| Box::new(alarms.finish()))))
            }
        };
        Box::new(move || {
            let executed = catch_unwind(AssertUnwindSafe(payload));
            let mut st = self.state.lock().expect("fleet lock");
            match executed {
                Ok(executed) => self.apply(&mut st, s, executed),
                Err(payload) => {
                    let err = FarmError::WorkerPanicked {
                        session: SessionId(s as u32),
                        detail: panic_text(payload.as_ref()),
                    };
                    self.finish(&mut st, s, Err(err));
                }
            }
            st.inflight -= 1;
            self.cvar.notify_all();
        })
    }

    /// Record payload: sequential recording with the farm's span cadence
    /// and the session's durable store.
    fn record_session(&self, s: usize) -> Result<RecordOutcome, FarmError> {
        let spec = &self.sessions[s];
        let rc = record_config(&spec.config, Some(self.cadence));
        let recorder = recorder_for(&spec.vm, rc, self.plans[s].durable.as_ref(), &spec.config.fault_plan)?;
        Ok(run_recorder(recorder)?)
    }

    /// Finalize payload: seam-check and fold the finished spans, verify the
    /// final digest, and move the escalated cases into the session's alarm
    /// phase.
    fn finalize_session(&self, s: usize, rp: ReplayPhase) -> Result<Box<ResolvePhase<'s>>, FarmError> {
        // Borrow the spec through the fleet's `'s` sessions slice (not
        // through `&self`): the alarm phase keeps it for the resolve phase.
        let sessions: &'s [SessionSpec] = self.sessions;
        let spec = &sessions[s];
        let results: Vec<Result<SpanDone, ReplayError>> =
            rp.slots.into_iter().map(|slot| slot.unwrap_or(Err(ReplayError::UnexpectedEndOfLog))).collect();
        let par = assemble_spans(
            &spec.vm,
            &self.plans[s].replay_cfg,
            None,
            rp.rec.log.records(),
            &rp.jobs,
            results,
            Some(rp.rec.final_digest),
            TransportStats::default(),
        )
        .map_err(|e| FarmError::Pipeline(PipelineError::Replay(e)))?;
        if par.outcome.verified != Some(true) {
            return Err(FarmError::Pipeline(PipelineError::VerificationFailed));
        }
        let mut cr_out = par.outcome;
        let alarms = AlarmPhase::new(
            &spec.vm,
            Arc::clone(&rp.rec.log),
            self.plans[s].ar_cfg.clone(),
            &spec.config.fault_plan,
            std::mem::take(&mut cr_out.alarm_cases),
        );
        Ok(Box::new(ResolvePhase {
            rec: rp.rec,
            cr_out,
            cr_stats: par.block_stats,
            alarms: Arc::new(alarms),
        }))
    }

    /// Applies a payload's result under the fleet lock: stores it in its
    /// index-keyed slot and advances the session's phase when the slot set
    /// completes. Results for already-terminated sessions are dropped.
    fn apply(&self, st: &mut FleetState<'s>, s: usize, executed: Executed<'s>) {
        if matches!(st.phases[s], Phase::Done(_)) {
            return; // A straggler for a session that already failed.
        }
        match executed {
            Executed::Recorded(recorded) => match *recorded {
                Err(e) => self.finish(st, s, Err(e)),
                Ok(rec) => {
                    let jobs =
                        Arc::new(plan_spans(&rec.log, &rec.span_seeds, &self.sessions[s].config.fault_plan));
                    let n = jobs.len();
                    for k in 0..n {
                        st.sched.enqueue(WorkItem { session: s, kind: WorkKind::CrSpan, index: k });
                    }
                    st.phases[s] = Phase::Replaying(Box::new(ReplayPhase {
                        rec,
                        jobs,
                        slots: (0..n).map(|_| None).collect(),
                        remaining: n,
                    }));
                }
            },
            Executed::Span(k, result) => {
                let Phase::Replaying(rp) = &mut st.phases[s] else { return };
                if rp.slots[k].is_none() {
                    rp.remaining -= 1;
                }
                rp.slots[k] = Some(*result);
                if rp.remaining == 0 {
                    st.sched.enqueue(WorkItem { session: s, kind: WorkKind::Finalize, index: 0 });
                }
            }
            Executed::Finalized(Err(e)) => self.finish(st, s, Err(e)),
            Executed::Finalized(Ok(rs)) => {
                let passes = rs.alarms.passes();
                if passes == 0 {
                    let resolved = rs.alarms.finish();
                    self.report(st, s, *rs, resolved);
                    return;
                }
                for g in 0..passes {
                    st.sched.enqueue(WorkItem { session: s, kind: WorkKind::ArCase, index: g });
                }
                st.phases[s] = Phase::Resolving(rs);
            }
            Executed::Resolved(None) => {}
            Executed::Resolved(Some(resolved)) => {
                let phase = std::mem::replace(&mut st.phases[s], Phase::Finalizing);
                let Phase::Resolving(rs) = phase else {
                    unreachable!("cases resolved outside resolve phase")
                };
                self.report(st, s, *rs, *resolved);
            }
        }
    }

    /// Assembles session `s`'s report from its resolve phase and alarm
    /// outcomes, and terminates the session with it.
    fn report(&self, st: &mut FleetState<'s>, s: usize, rs: ResolvePhase<'s>, (outcomes, ar): Resolved) {
        let spec = &self.sessions[s];
        let report =
            finish_report(spec.vm.name.clone(), &spec.config, &rs.rec, &rs.cr_out, rs.cr_stats, outcomes, ar);
        self.finish(st, s, Ok(report));
    }

    /// Terminates session `s` (idempotent): stamps its latency and drops
    /// its queued work. The calling task's epilogue wakes the pool.
    fn finish(&self, st: &mut FleetState<'s>, s: usize, result: Result<PipelineReport, FarmError>) {
        if matches!(st.phases[s], Phase::Done(_)) {
            return;
        }
        st.phases[s] = Phase::Done(Box::new(result));
        st.latencies[s] = self.started.elapsed().as_secs_f64() * 1e3;
        st.sched.clear_session(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use rnr_attacks::mount_kernel_rop;
    use rnr_hypervisor::RecordError;
    use rnr_workloads::{Workload, WorkloadParams};

    fn quick(name: &str, workload: Workload, insns: u64) -> SessionSpec {
        let config = PipelineConfig { duration_insns: insns, ..PipelineConfig::default() };
        SessionSpec::new(name, workload.spec(false), config)
    }

    fn serial_json(workload: Workload, config: &PipelineConfig) -> String {
        Pipeline::new(workload.spec(false), config.clone()).run().unwrap().to_json()
    }

    /// Spans a session of `insns` is cut into at `cadence`, ignoring how
    /// far past each multiple of the cadence the recorder's seed lands.
    fn spans(insns: u64, cadence: u64) -> u64 {
        insns.div_ceil(cadence)
    }

    fn fleet_of(lengths: &[u64]) -> Vec<SessionSpec> {
        lengths.iter().map(|&insns| quick("s", Workload::Make, insns)).collect()
    }

    #[test]
    fn benchmark_fleet_replays_each_session_as_one_span() {
        let mut lengths = vec![900_000];
        lengths.extend([600_000; 7]);
        let cadence = farm_span_cadence(&fleet_of(&lengths), 2);
        assert_eq!(cadence, 1_275_000);
        assert!(lengths.iter().all(|&insns| spans(insns, cadence) == 1));
    }

    #[test]
    fn lone_session_is_cut_to_half_a_worker_share() {
        let cadence = farm_span_cadence(&fleet_of(&[2_500_000]), 2);
        assert_eq!(cadence, 625_000);
        assert_eq!(spans(2_500_000, cadence), 4);
    }

    #[test]
    fn only_the_session_too_long_to_balance_is_cut() {
        let cadence = farm_span_cadence(&fleet_of(&[10_000_000, 100_000]), 2);
        assert!(spans(10_000_000, cadence) >= 4, "cadence {cadence}");
        assert_eq!(spans(100_000, cadence), 1, "cadence {cadence}");
    }

    #[test]
    fn cadence_is_floored_and_never_zero() {
        assert_eq!(farm_span_cadence(&fleet_of(&[10_000, 10_000]), 2), 15_000);
        assert_eq!(farm_span_cadence(&[], 1), 15_000);
        for workers in [0, 1, 64] {
            let cadence = farm_span_cadence(&fleet_of(&[900_000, 600_000]), workers);
            assert!(cadence >= 15_000, "workers={workers}: cadence {cadence}");
        }
        assert_eq!(farm_span_cadence(&fleet_of(&[900_000, 600_000]), 1), 750_000);
        assert_eq!(farm_span_cadence(&fleet_of(&[u64::MAX, u64::MAX]), 1), u64::MAX / 2);
    }

    /// Spans the farm replays each session of `sessions` as on `workers`:
    /// one more than the seeds its `Record` item captures.
    fn recorded_spans(sessions: &[SessionSpec], workers: usize) -> Vec<usize> {
        let fleet = Fleet::new(sessions, &FarmConfig::default(), workers, Instant::now());
        (0..sessions.len()).map(|s| fleet.record_session(s).unwrap().span_seeds.len() + 1).collect()
    }

    /// The fleets of `tests/pipeline_equivalence.rs` must keep running both
    /// one-span and multi-span sessions; a rule change that drops either
    /// shape fails here first.
    #[test]
    fn equivalence_fleets_cover_one_and_multi_span_sessions() {
        let pair = [quick("jit", Workload::Jit, 200_000), quick("mysql", Workload::Mysql, 200_000)];
        assert_eq!(recorded_spans(&pair, 1), [1, 1]);
        let three = recorded_spans(&pair, 3);
        assert!(three.iter().all(|&n| n > 1), "{three:?}");
        let (attack, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        let attack_cfg = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ..PipelineConfig::default()
        };
        let storm = [
            SessionSpec::new("attack", attack, attack_cfg),
            quick("jit", Workload::Jit, 250_000),
            quick("make", Workload::Make, 250_000),
        ];
        assert_eq!(recorded_spans(&storm, 2), [3, 1, 1]);
    }

    #[test]
    fn farm_reports_match_serial_pipelines() {
        let make_cfg = PipelineConfig { duration_insns: 150_000, ..PipelineConfig::default() };
        let mysql_cfg = PipelineConfig { duration_insns: 120_000, ..PipelineConfig::default() };
        let expected_make = serial_json(Workload::Make, &make_cfg);
        let expected_mysql = serial_json(Workload::Mysql, &mysql_cfg);
        for workers in [1, 3] {
            let farm = Farm::new(FarmConfig { workers, ..FarmConfig::default() });
            let report = farm.run(&[
                SessionSpec::new("make", Workload::Make.spec(false), make_cfg.clone()),
                SessionSpec::new("mysql", Workload::Mysql.spec(false), mysql_cfg.clone()),
            ]);
            assert!(report.all_ok(), "workers={workers}: {report:?}");
            let got_make = report.session("make").unwrap().result.as_ref().unwrap().to_json();
            let got_mysql = report.session("mysql").unwrap().result.as_ref().unwrap().to_json();
            assert_eq!(got_make, expected_make, "workers={workers}");
            assert_eq!(got_mysql, expected_mysql, "workers={workers}");
            assert!(report.wall_ms > 0.0);
            assert!(report.sessions.iter().all(|s| s.wall_ms > 0.0));
        }
    }

    #[test]
    fn refused_session_fails_without_touching_sibling() {
        let expected = serial_json(
            Workload::Make,
            &PipelineConfig { duration_insns: 150_000, ..PipelineConfig::default() },
        );
        for workers in [1, 2] {
            // A paravirtual kernel, which the default `RecordMode::Rec`
            // refuses before recording a single instruction.
            let refused = SessionSpec::new(
                "refused",
                Workload::Mysql.spec(true),
                PipelineConfig { duration_insns: 120_000, ..PipelineConfig::default() },
            );
            let farm = Farm::new(FarmConfig { workers, ..FarmConfig::default() });
            let report = farm.run(&[refused, quick("quiet", Workload::Make, 150_000)]);
            let failed = report.session("refused").unwrap();
            assert_eq!(failed.id, SessionId(0), "workers={workers}");
            match &failed.result {
                Err(FarmError::Pipeline(PipelineError::Record(RecordError::KernelModeMismatch {
                    want_pv: false,
                }))) => {}
                other => panic!("workers={workers}: expected a refused recording, got {other:?}"),
            }
            let quiet = report.session("quiet").unwrap().result.as_ref().unwrap();
            assert_eq!(quiet.to_json(), expected, "workers={workers}");
            assert!(!quiet.recovery.any(), "workers={workers}");
        }
    }

    #[test]
    fn farm_error_display_names_the_session() {
        let panicked = FarmError::WorkerPanicked { session: SessionId(3), detail: "boom".to_string() };
        let text = panicked.to_string();
        assert!(text.contains("s3"), "{text}");
        assert!(text.contains("boom"), "{text}");
        let refused =
            FarmError::Pipeline(PipelineError::Record(RecordError::KernelModeMismatch { want_pv: true }));
        let text = refused.to_string();
        assert!(text.contains("paravirtual"), "{text}");
    }
}

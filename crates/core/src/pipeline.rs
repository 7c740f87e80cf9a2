//! The full RnR-Safe pipeline: record → checkpointing replay → alarm replay.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rnr_hypervisor::{RecordConfig, RecordError, RecordMode, RecordOutcome, Recorder, VmSpec};
use rnr_log::{
    log_channel_with, Category, DurableLogConfig, DurableWriter, FaultPlan, InputLog, LogSource,
    DEFAULT_BATCH,
};
use rnr_machine::{BlockStats, CostModel};
use rnr_ras::RasConfig;
use rnr_replay::{
    checkpoint_groups, pool, AlarmCase, AlarmReplayer, ArPass, ReplayConfig, ReplayError, ReplayOutcome,
    Replayer, Verdict, VIRTUAL_HZ,
};

/// Attempts the AR supervisor makes per alarm case before giving up and
/// shipping a partial report.
const MAX_CASE_ATTEMPTS: u32 = 3;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Seed for all host non-determinism.
    pub seed: u64,
    /// Guest instructions to record.
    pub duration_insns: u64,
    /// RAS capacity.
    pub ras_capacity: usize,
    /// Checkpoint interval in virtual seconds (the paper's `RepChkN`
    /// naming: 1.0 = RepChk1). `None` replays without periodic checkpoints.
    pub checkpoint_interval_secs: Option<f64>,
    /// Checkpoints retained (window + 2, §8.4).
    pub retain: usize,
    /// Cycle cost model shared by recorder and replayers.
    pub costs: CostModel,
    /// Stall the recorded VM at the first alarm (§3's risk-tolerance knob)
    /// instead of letting it continue while the replayers investigate.
    pub stall_on_alarm: bool,
    /// Resolve escalated alarms on parallel alarm replayers ("our design
    /// allows running multiple ARs concurrently", §6).
    pub parallel_alarm_replay: bool,
    /// Alarm-replayer pool size when `parallel_alarm_replay` is set; `0`
    /// sizes the pool to the host's available parallelism. Resolution order
    /// (and therefore the report) is deterministic for any pool size.
    pub ar_workers: usize,
    /// Run the CR concurrently with the recorder, consuming the input log
    /// as a live stream (the paper's deployment: recording and replay
    /// proceed in parallel on separate machines, §4). `false` records to
    /// completion first and then replays the finished log. Either way the
    /// CR is the serial [`Replayer`]; the report is identical.
    pub streaming: bool,
    /// Use the predecoded instruction cache in the recorder and all
    /// replayers (wall-clock optimization; virtual cycles, digests, and
    /// verdicts are identical either way).
    pub decode_cache: bool,
    /// Execute whole cached basic blocks between event horizons in the
    /// recorder and all replayers (wall-clock optimization; virtual cycles,
    /// digests, and verdicts are identical either way).
    pub block_engine: bool,
    /// Chain hot blocks into superblock traces in the recorder and all
    /// replayers (wall-clock optimization; virtual cycles, digests, and
    /// verdicts are identical either way). Requires `block_engine`.
    pub superblocks: bool,
    /// Does nothing: the pipeline always verifies with the serial CR, and
    /// only the replay farm cuts spans (DESIGN.md §11). Kept only because
    /// the frozen repository benchmark sets it; deleted at the next change
    /// to `benchmark/`.
    pub parallel_spans: usize,
    /// Deterministic fault injections (transport damage, injected
    /// divergences, AR panics/kills). Empty by default; with an empty plan
    /// the pipeline's logs, digests, verdicts, and `to_json()` output are
    /// byte-identical to a run without any fault machinery.
    pub fault_plan: FaultPlan,
    /// Persist the recording to a durable segment store (DESIGN.md §13) and
    /// back the CR's refetch recovery with it: damaged or dropped spans are
    /// re-read from sealed segments first, falling back to the recorder's
    /// in-memory retained store. The plan's disk faults are injected against
    /// this store. Resilience-only knob — the report is byte-identical with
    /// persistence on or off.
    pub durable_log: Option<DurableLogConfig>,
    /// Arm the Variable Record Table memory-safety detector on the recorded
    /// VM (DESIGN.md §15) and give the alarm replayers its parameters for
    /// precise classification. `None` records without the second detector
    /// family.
    pub vrt: Option<rnr_vrt::VrtParams>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            seed: 42,
            duration_insns: 1_000_000,
            ras_capacity: RasConfig::DEFAULT_CAPACITY,
            checkpoint_interval_secs: Some(1.0),
            retain: 8,
            costs: CostModel::default(),
            stall_on_alarm: false,
            parallel_alarm_replay: true,
            ar_workers: 0,
            streaming: true,
            decode_cache: true,
            block_engine: true,
            superblocks: true,
            parallel_spans: 0,
            fault_plan: FaultPlan::default(),
            durable_log: None,
            vrt: None,
        }
    }
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The recorder rejected the spec/mode combination.
    Record(RecordError),
    /// The guest faulted during recording.
    GuestFault(rnr_machine::FaultKind),
    /// Replay failed or diverged.
    Replay(ReplayError),
    /// The replayed state did not match the recording.
    VerificationFailed,
    /// The recorder thread panicked; the payload is the panic message.
    RecorderPanicked(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Record(e) => write!(f, "recording setup failed: {e}"),
            PipelineError::GuestFault(k) => write!(f, "guest fault while recording: {k:?}"),
            PipelineError::Replay(e) => write!(f, "replay failed: {e}"),
            PipelineError::VerificationFailed => write!(f, "replayed state diverged from the recording"),
            PipelineError::RecorderPanicked(msg) => write!(f, "recorder thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RecordError> for PipelineError {
    fn from(e: RecordError) -> PipelineError {
        PipelineError::Record(e)
    }
}

impl From<ReplayError> for PipelineError {
    fn from(e: ReplayError) -> PipelineError {
        PipelineError::Replay(e)
    }
}

/// Summary of the recording phase.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RecordSummary {
    /// Workload name.
    pub workload: String,
    /// Virtual cycles of the monitored recording.
    pub cycles: u64,
    /// Guest instructions retired.
    pub retired: u64,
    /// ROP alarms inserted into the log.
    pub alarms: usize,
    /// Input log size in bytes (uncompressed, exact).
    pub log_bytes: u64,
    /// Log bytes that are network payloads (Figure 6(a) dominant class).
    pub network_log_bytes: u64,
    /// BackRAS save/restore traffic in bytes (Figure 6(b)).
    pub backras_bytes: u64,
    /// Guest kernel context switches.
    pub context_switches: u64,
    /// True when the stall-on-alarm policy stopped the recorded VM.
    pub stalled: bool,
    /// Final guest privilege flag (non-zero = escalation happened).
    pub priv_flag: u64,
}

/// Summary of the checkpointing-replay phase.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplaySummary {
    /// Virtual cycles of the replay.
    pub cycles: u64,
    /// True when the final state digest matched the recording.
    pub verified: bool,
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// Maximum checkpoints retained at once.
    pub checkpoints_live_max: usize,
    /// Alarms seen in the log.
    pub alarms_seen: u64,
    /// Underflow alarms cancelled by evict matching (§4.6.2).
    pub underflows_cancelled: u64,
    /// Alarms escalated to alarm replayers.
    pub alarms_escalated: usize,
}

/// A serializable verdict summary.
#[derive(Debug, Clone, serde::Serialize)]
pub enum VerdictSummary {
    /// Benign, with the false-positive class: `matched-evict`,
    /// `imperfect-nesting`, or `hardware-capacity` from the RAS family;
    /// `coarse-bounds`, `evicted-region`, or `stale-frame` from the VRT
    /// family (DESIGN.md §15).
    FalsePositive {
        /// The false-positive class label.
        class: String,
    },
    /// A confirmed ROP attack.
    RopAttack {
        /// Symbol of the vulnerable procedure.
        vulnerable: Option<String>,
        /// First gadget address.
        first_gadget: u64,
        /// Number of payload words decoded from the stack.
        chain_len: usize,
        /// Thread that executed the hijacked return.
        tid: u64,
    },
    /// A confirmed memory-safety violation (VRT family, DESIGN.md §15):
    /// `heap-overflow` or `use-after-return`.
    MemoryViolation {
        /// The violation class label.
        class: String,
        /// First byte of the offending store.
        addr: u64,
        /// The escaped allocation (`[base, len]`), when one exists.
        region: Option<(u64, u64)>,
        /// Thread that executed the store.
        tid: u64,
    },
}

/// One resolved alarm.
#[derive(Debug)]
pub struct AlarmResolution {
    /// The recorded alarm.
    pub at_insn: u64,
    /// Cycle at which the recording logged it.
    pub at_cycle: u64,
    /// The CR's own virtual clock when it escalated the alarm (its measured
    /// position behind the recorded execution).
    pub cr_cycle: u64,
    /// The serializable summary.
    pub summary: VerdictSummary,
    /// The full verdict (reports, gadget chains).
    pub verdict: Verdict,
    /// Alarm-replay cycles spent resolving it.
    pub ar_cycles: u64,
    /// Block-cache counters of the alarm-replay pass that resolved it,
    /// reported on the last case that pass resolved and zero on its others,
    /// so the sum over resolutions counts every pass once (wall-clock
    /// diagnostics only).
    pub ar_block_stats: rnr_machine::BlockStats,
}

/// The §8.4 detection-window analysis for the first confirmed attack.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DetectionWindow {
    /// Virtual cycle when the recording logged the alarm.
    pub alarm_at_cycle: u64,
    /// The CR's measured lag behind the recording at the alarm, in virtual
    /// cycles: its own clock when it consumed the alarm record minus the
    /// recording's clock when it logged it.
    pub cr_lag_cycles: u64,
    /// Window between the alarm and the AR's confirmation, in virtual
    /// cycles: the CR's measured lag at the alarm plus the AR's resolution
    /// time (recording and replay run concurrently on separate machines).
    pub window_cycles: u64,
    /// Same, in virtual seconds.
    pub window_secs: f64,
    /// Log bytes generated during the window (at the recording's log rate).
    pub log_bytes_in_window: u64,
    /// Checkpoints that must be retained to cover the window (+2, §8.4).
    pub checkpoints_needed: u64,
}

/// An alarm case the supervisor could not resolve after every retry. The
/// rest of the report still ships — one failed alarm never discards the
/// other verdicts.
#[derive(Debug, Clone)]
pub struct FailedCase {
    /// Index of the alarm record in the input log.
    pub alarm_index: usize,
    /// Retired-instruction count of the alarm.
    pub at_insn: u64,
    /// Resolution attempts made.
    pub attempts: u32,
    /// The last error or panic message.
    pub error: String,
}

/// What the pipeline's fault-recovery machinery did during one run. All
/// zeros on a clean run; excluded from [`PipelineReport::to_json`] like
/// `block_stats`, because recovery activity is a wall-clock/transport
/// matter that must never change the report.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Checkpoint rewinds performed by the CR.
    pub cr_rewinds: u64,
    /// Instructions the CR re-executed across rewinds.
    pub cr_rewound_insns: u64,
    /// Divergence-quarantined spans re-executed with the block engine off.
    pub block_fallback_spans: u64,
    /// Transport-level detections and healings (checksum failures,
    /// re-fetched batches, healed reorders, virtual-time backoff).
    pub transport: rnr_log::TransportStats,
    /// The CR's rewind trail, in order.
    pub rewind_trail: Vec<rnr_replay::RewindStep>,
    /// AR case retries beyond each first attempt.
    pub ar_case_retries: u64,
    /// AR panics caught and isolated by the supervisor.
    pub ar_panics_caught: u64,
    /// AR pool workers lost (their cases were re-resolved inline).
    pub ar_workers_lost: u64,
    /// Cases that stayed unresolved after every retry (partial report).
    pub failed_cases: Vec<FailedCase>,
    /// What the recorder's durable writer persisted, with the planned disk
    /// faults it injected and the write and sync errors it swallowed (all
    /// zero without `durable_log`).
    pub disk: rnr_log::DiskWriteStats,
}

impl RecoveryReport {
    /// True when any fault was detected, healed, or worked around. Of the
    /// disk counters only injected faults and swallowed I/O errors count:
    /// a clean durable run seals segments too.
    pub fn any(&self) -> bool {
        self.cr_rewinds > 0
            || self.block_fallback_spans > 0
            || self.transport.faults_detected > 0
            || self.transport.duplicates_dropped > 0
            || self.transport.reorders_healed > 0
            || self.transport.batches_refetched > 0
            || self.ar_case_retries > 0
            || self.ar_panics_caught > 0
            || self.ar_workers_lost > 0
            || !self.failed_cases.is_empty()
            || self.disk.faults_injected > 0
            || self.disk.io_errors > 0
    }
}

/// The full pipeline report.
#[derive(Debug)]
pub struct PipelineReport {
    /// Recording summary.
    pub record: RecordSummary,
    /// Checkpointing-replay summary.
    pub replay: ReplaySummary,
    /// Per-alarm resolutions, in log order.
    pub resolutions: Vec<AlarmResolution>,
    /// Detection window of the first confirmed attack, if any.
    pub detection: Option<DetectionWindow>,
    /// Basic-block cache counters summed over the recorder, the CR, and
    /// every alarm replayer. Wall-clock diagnostics only — deliberately NOT
    /// part of [`PipelineReport::to_json`], which must stay byte-identical
    /// across wall-clock knobs.
    pub block_stats: rnr_machine::BlockStats,
    /// Fault-recovery activity. Like `block_stats`, deliberately NOT part
    /// of [`PipelineReport::to_json`]: a recovered run's report is
    /// byte-identical to a fault-free run's.
    pub recovery: RecoveryReport,
}

impl PipelineReport {
    /// Number of alarms confirmed as real attacks.
    pub fn attacks_confirmed(&self) -> usize {
        self.resolutions.iter().filter(|r| r.verdict.is_attack()).count()
    }

    /// Number of alarms resolved as false positives by the alarm replayer.
    pub fn false_positives_resolved(&self) -> usize {
        self.resolutions.len() - self.attacks_confirmed()
    }

    /// A machine-readable JSON summary (reports, EXPERIMENTS.md generation).
    pub fn to_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct Doc<'a> {
            record: &'a RecordSummary,
            replay: &'a ReplaySummary,
            verdicts: Vec<&'a VerdictSummary>,
            detection: &'a Option<DetectionWindow>,
        }
        serde_json::to_string_pretty(&Doc {
            record: &self.record,
            replay: &self.replay,
            verdicts: self.resolutions.iter().map(|r| &r.summary).collect(),
            detection: &self.detection,
        })
        .expect("report serializes")
    }
}

/// The end-to-end RnR-Safe pipeline over one workload.
#[derive(Debug)]
pub struct Pipeline {
    spec: VmSpec,
    config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline over `spec`.
    pub fn new(spec: VmSpec, config: PipelineConfig) -> Pipeline {
        Pipeline { spec, config }
    }

    /// Records, replays with verification, and resolves every alarm.
    ///
    /// # Errors
    ///
    /// Fails on recording setup errors, guest faults, replay divergence, or
    /// failed final-state verification.
    pub fn run(&self) -> Result<PipelineReport, PipelineError> {
        let cfg = &self.config;
        let rc = record_config(cfg, None);
        let replay_cfg = replay_config(cfg);
        // Phases 1 + 2: monitored recording and checkpointing replay —
        // concurrent (the CR consumes the log as a live stream) or
        // sequential, with identical results.
        let (rec, cr_out, cr_block_stats) = self.record_and_replay(rc, &replay_cfg)?;
        // Phase 3: alarm replay for every escalated case — one pass per
        // checkpoint resolves the cases that share it, on a bounded,
        // supervised worker pool when configured ("multiple ARs… in
        // parallel", §6). Each case is resolved under `catch_unwind` with
        // bounded retries; a killed worker's abandoned case is re-resolved
        // inline. Results land in per-case slots, so the report stays
        // deterministic for every pool size.
        let resolver = CaseResolver::new(
            &self.spec,
            Arc::clone(&rec.log),
            ar_replay_config(&replay_cfg),
            &cfg.fault_plan,
        );
        let cases = &cr_out.alarm_cases;
        let groups = checkpoint_groups(cases);
        let kill_at = cfg.fault_plan.kill_ar_worker_at_case.filter(|&k| k < cases.len());
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<AlarmResolution, FailedCase>>>> =
            Mutex::new(cases.iter().map(|_| None).collect());
        let (resolver_ref, groups_ref, slots_ref) = (&resolver, &groups, &slots);
        pool::drain(ar_worker_count(cfg, groups.len()), &|| {
            let g = next.fetch_add(1, Ordering::Relaxed);
            (g < groups_ref.len()).then(|| {
                Box::new(move || {
                    // The fault plan may kill the worker that draws a case's
                    // group: that case is abandoned unresolved, and the
                    // supervisor fills the hole below.
                    let group: Vec<usize> =
                        groups_ref[g].iter().copied().filter(|&i| Some(i) != kill_at).collect();
                    let resolved = resolver_ref.resolve_group(cases, &group);
                    let mut slots = slots_ref.lock().expect("case slots");
                    for (i, result) in resolved {
                        slots[i] = Some(result);
                    }
                }) as pool::Task<'_>
            })
        });
        // Abandoned cases are regrouped and re-resolved inline — the report
        // never silently drops a verdict.
        let mut slots = slots.into_inner().expect("case slots");
        for group in &groups {
            let holes: Vec<usize> = group.iter().copied().filter(|&i| slots[i].is_none()).collect();
            for (i, result) in resolver.resolve_group(cases, &holes) {
                slots[i] = Some(result);
            }
        }
        let outcomes = slots.into_iter().map(|slot| slot.expect("every case resolved")).collect();
        let (retries, panics) = resolver.counters();
        let ar = ArStats { retries, panics, workers_lost: u64::from(kill_at.is_some()) };
        Ok(finish_report(self.spec.name.clone(), cfg, &rec, &cr_out, cr_block_stats, outcomes, ar))
    }

    /// Phases 1 + 2: the monitored recording and the checkpointing replay.
    ///
    /// Streaming, the recorder publishes each record to a live stream as it
    /// is logged and the serial CR consumes the stream on this thread,
    /// trailing the recording (§4: recording and replay proceed in
    /// parallel); otherwise the serial CR replays the finished log. Either
    /// way its final digest is checked against the recording's once both are
    /// done. A recorder panic takes precedence over a guest fault, and both
    /// over whatever truncated-log error they induced in the CR. Returns the
    /// recording, the CR outcome, and the CR's block-cache counters.
    fn record_and_replay(
        &self,
        rc: RecordConfig,
        replay_cfg: &ReplayConfig,
    ) -> Result<(RecordOutcome, ReplayOutcome, BlockStats), PipelineError> {
        let cfg = &self.config;
        let mut recorder = recorder_for(&self.spec, rc, cfg.durable_log.as_ref(), &cfg.fault_plan)?;
        let (rec, cr_result) = if cfg.streaming {
            let (sink, stream) = log_channel_with(DEFAULT_BATCH, &cfg.fault_plan);
            recorder.stream_to(sink);
            let (rec, cr_result) = std::thread::scope(|scope| {
                let handle = scope.spawn(move || run_recorder(recorder));
                let cr_result = serial_cr(&self.spec, LogSource::from(stream), replay_cfg);
                (handle.join().expect("recorder panics are caught in-thread"), cr_result)
            });
            (rec?, cr_result)
        } else {
            let rec = run_recorder(recorder)?;
            let cr_result = serial_cr(&self.spec, LogSource::Complete(Arc::clone(&rec.log)), replay_cfg);
            (rec, cr_result)
        };
        let (mut cr_out, cr_stats) = cr_result?;
        cr_out.verified = Some(cr_out.final_digest == rec.final_digest);
        if cr_out.verified != Some(true) {
            return Err(PipelineError::VerificationFailed);
        }
        Ok((rec, cr_out, cr_stats))
    }
}

/// The serial checkpointing replay over `source`. Returns the outcome and
/// its block-cache counters.
fn serial_cr(
    spec: &VmSpec,
    source: LogSource,
    replay_cfg: &ReplayConfig,
) -> Result<(ReplayOutcome, BlockStats), ReplayError> {
    let out = Replayer::new(spec, source, replay_cfg.clone()).run()?;
    let stats = out.vm().block_stats();
    Ok((out, stats))
}

/// The recorder configuration a [`PipelineConfig`] implies. `span_cadence`
/// arms seed capture for the farm's span replay; seed capture is pure reads,
/// so the recording is byte-identical whether or not it is set.
pub(crate) fn record_config(cfg: &PipelineConfig, span_cadence: Option<u64>) -> RecordConfig {
    let mut rc = RecordConfig::new(RecordMode::Rec, cfg.seed, cfg.duration_insns);
    rc.ras_capacity = cfg.ras_capacity;
    rc.costs = cfg.costs;
    rc.stall_on_alarm = cfg.stall_on_alarm;
    rc.decode_cache = cfg.decode_cache;
    rc.block_engine = cfg.block_engine;
    rc.superblocks = cfg.superblocks;
    rc.span_seed_every_insns = span_cadence;
    rc.vrt = cfg.vrt.clone();
    rc
}

/// The CR configuration a [`PipelineConfig`] implies. The CR is supervised:
/// it retains recovery points and heals transport faults and transient
/// divergences by rewinding to the last good checkpoint (recovery activity
/// never changes the report — see [`RecoveryReport`]).
pub(crate) fn replay_config(cfg: &PipelineConfig) -> ReplayConfig {
    ReplayConfig {
        checkpoint_interval: cfg.checkpoint_interval_secs.map(|s| (s * VIRTUAL_HZ as f64) as u64),
        retain: cfg.retain,
        ras_capacity: cfg.ras_capacity,
        costs: cfg.costs,
        decode_cache: cfg.decode_cache,
        block_engine: cfg.block_engine,
        superblocks: cfg.superblocks,
        resilient: true,
        fault_plan: cfg.fault_plan.clone(),
        durable_log: cfg.durable_log.clone(),
        vrt: cfg.vrt.clone(),
        ..ReplayConfig::default()
    }
}

/// The alarm replayers' configuration, scrubbed from the CR's: the plan's
/// injections target the CR and must not re-fire during alarm replay, and
/// an AR surfaces divergence as evidence instead of healing it.
pub(crate) fn ar_replay_config(replay_cfg: &ReplayConfig) -> ReplayConfig {
    ReplayConfig {
        resilient: false,
        fault_plan: FaultPlan::default(),
        durable_log: None,
        ..replay_cfg.clone()
    }
}

/// A recorder for `spec`, attached, when a `durable_log` knob is set, to a
/// durable segment writer — the one persistence path, in every mode — that
/// injects the plan's disk faults.
pub(crate) fn recorder_for(
    spec: &VmSpec,
    rc: RecordConfig,
    durable: Option<&DurableLogConfig>,
    plan: &FaultPlan,
) -> Result<Recorder, PipelineError> {
    let mut recorder = Recorder::new(spec, rc)?;
    if let Some(d) = durable {
        let writer = DurableWriter::create(d.clone(), plan)
            .map_err(|e| PipelineError::Record(RecordError::DurableLog(e.to_string())))?;
        recorder.persist_to(writer);
    }
    Ok(recorder)
}

/// Records to completion, with recorder panics caught and guest faults
/// surfaced as structured errors.
pub(crate) fn run_recorder(recorder: Recorder) -> Result<RecordOutcome, PipelineError> {
    let rec = catch_unwind(AssertUnwindSafe(move || recorder.run()))
        .map_err(|payload| PipelineError::RecorderPanicked(panic_text(payload.as_ref())))?;
    match rec.fault {
        Some(fault) => Err(PipelineError::GuestFault(fault)),
        None => Ok(rec),
    }
}

/// The supervised alarm resolver shared by [`Pipeline::run`] and the replay
/// farm: one [`AlarmReplayer`] over the finished recording, one pass per
/// checkpoint group, a bounded retry loop per case under `catch_unwind`,
/// and the fault plan's AR injections (panic, transient divergence) fired
/// on first attempts only. Thread-safe: any number of workers may call
/// [`CaseResolver::resolve_group`] concurrently; retry/panic accounting is
/// atomic.
pub(crate) struct CaseResolver<'a> {
    ar: AlarmReplayer<'a>,
    panic_case: Option<usize>,
    divergence_case: Option<usize>,
    retries: AtomicU64,
    panics: AtomicU64,
}

impl<'a> CaseResolver<'a> {
    /// A resolver over `log` with the scrubbed AR config (see
    /// [`ar_replay_config`]); `plan` supplies the AR-targeted injections.
    pub(crate) fn new(
        spec: &'a VmSpec,
        log: Arc<InputLog>,
        ar_cfg: ReplayConfig,
        plan: &FaultPlan,
    ) -> CaseResolver<'a> {
        CaseResolver {
            ar: AlarmReplayer::new(spec, log).with_config(ar_cfg),
            panic_case: plan.ar_panic_case,
            divergence_case: plan.ar_divergence_case,
            retries: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Resolves the cases `group` indexes — one checkpoint's cases, in log
    /// order (see [`checkpoint_groups`]) — on one alarm-replay pass, and
    /// returns each case index with its outcome. A case that fails (an
    /// error or a caught panic) keeps the verdicts before it; its retry
    /// starts a new pass from its checkpoint, which then carries on with
    /// the rest of the group. A case that stays unresolved after every
    /// attempt ships as a [`FailedCase`] instead of discarding the rest of
    /// the report. Each pass's block-cache counters are reported once, on
    /// the last case it resolved.
    pub(crate) fn resolve_group(
        &self,
        cases: &[AlarmCase],
        group: &[usize],
    ) -> Vec<(usize, Result<AlarmResolution, FailedCase>)> {
        let mut out: Vec<(usize, Result<AlarmResolution, FailedCase>)> = Vec::with_capacity(group.len());
        let mut pass: Option<ArPass<'_>> = None;
        // The `out` slot of the last case the live pass resolved.
        let mut last: Option<usize> = None;
        for &i in group {
            let case = &cases[i];
            let mut last_error = String::new();
            let mut resolved = None;
            for attempt in 0..MAX_CASE_ATTEMPTS {
                if attempt > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                match catch_unwind(AssertUnwindSafe(|| self.attempt(&mut pass, i, case, attempt))) {
                    Ok(Ok(resolution)) => {
                        resolved = Some(resolution);
                        break;
                    }
                    Ok(Err(msg)) => last_error = msg,
                    Err(payload) => {
                        self.panics.fetch_add(1, Ordering::Relaxed);
                        last_error = format!("panic: {}", panic_text(payload.as_ref()));
                    }
                }
                // A failed case leaves the pass at an unknown point: the
                // retry, or the next case, starts a new one.
                pass = None;
                last = None;
            }
            let Some(mut resolution) = resolved else {
                out.push((
                    i,
                    Err(FailedCase {
                        alarm_index: i,
                        at_insn: case.at_insn(),
                        attempts: MAX_CASE_ATTEMPTS,
                        error: last_error,
                    }),
                ));
                continue;
            };
            resolution.ar_block_stats =
                pass.as_ref().expect("a resolved case leaves its pass live").block_stats();
            if let Some((_, Ok(previous))) = last.and_then(|k| out.get_mut(k)) {
                previous.ar_block_stats = BlockStats::default();
            }
            last = Some(out.len());
            out.push((i, Ok(resolution)));
        }
        out
    }

    /// One attempt at case `i` on the live pass, starting a pass from the
    /// case's checkpoint when none is live.
    fn attempt<'p>(
        &'p self,
        pass: &mut Option<ArPass<'p>>,
        i: usize,
        case: &AlarmCase,
        attempt: u32,
    ) -> Result<AlarmResolution, String> {
        // Injections fire on the first attempt only: a retry of the
        // same case models the transient fault having cleared.
        if attempt == 0 && self.panic_case == Some(i) {
            panic!("injected alarm-replayer panic (fault plan)");
        }
        if attempt == 0 && self.divergence_case == Some(i) {
            return Err("injected transient alarm-replay divergence (fault plan)".to_string());
        }
        let live = pass.get_or_insert_with(|| self.ar.pass(&case.checkpoint));
        let (verdict, ar_cycles) = live.resolve_next(case).map_err(|e| e.to_string())?;
        Ok(AlarmResolution {
            at_insn: case.at_insn(),
            at_cycle: case.at_cycle(),
            cr_cycle: case.cr_cycle,
            summary: summarize(&verdict),
            verdict,
            ar_cycles,
            ar_block_stats: BlockStats::default(),
        })
    }

    /// (retries, panics) accounting so far.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.retries.load(Ordering::Relaxed), self.panics.load(Ordering::Relaxed))
    }
}

/// AR-phase recovery accounting for [`finish_report`].
pub(crate) struct ArStats {
    pub(crate) retries: u64,
    pub(crate) panics: u64,
    pub(crate) workers_lost: u64,
}

/// Assembles the final [`PipelineReport`] from the three phases' outputs.
/// Shared by [`Pipeline::run`] and the replay farm so both produce
/// byte-identical reports from identical phase results. `outcomes` must be
/// in alarm-case order.
pub(crate) fn finish_report(
    workload: String,
    cfg: &PipelineConfig,
    rec: &RecordOutcome,
    cr_out: &ReplayOutcome,
    cr_block_stats: BlockStats,
    outcomes: Vec<Result<AlarmResolution, FailedCase>>,
    ar: ArStats,
) -> PipelineReport {
    let mut resolutions = Vec::with_capacity(outcomes.len());
    let mut failed_cases = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(resolution) => resolutions.push(resolution),
            Err(failed) => failed_cases.push(failed),
        }
    }
    let detection = detection_window(cfg, rec, &resolutions);
    let mut block_stats = rec.block_stats;
    block_stats.merge(&cr_block_stats);
    for r in &resolutions {
        block_stats.merge(&r.ar_block_stats);
    }
    let recovery = RecoveryReport {
        cr_rewinds: cr_out.recovery.rewinds,
        cr_rewound_insns: cr_out.recovery.rewound_insns,
        block_fallback_spans: cr_out.recovery.block_fallback_spans,
        transport: cr_out.recovery.transport,
        rewind_trail: cr_out.recovery.trail.clone(),
        ar_case_retries: ar.retries,
        ar_panics_caught: ar.panics,
        ar_workers_lost: ar.workers_lost,
        failed_cases,
        disk: rec.disk,
    };
    PipelineReport {
        record: RecordSummary {
            workload,
            cycles: rec.cycles,
            retired: rec.retired,
            alarms: rec.alarms,
            log_bytes: rec.log.total_bytes(),
            network_log_bytes: rec.log.bytes_for(Category::Network),
            backras_bytes: rec.ras_counters.backras_bytes(),
            context_switches: rec.context_switches,
            stalled: rec.stalled,
            priv_flag: rec.priv_flag,
        },
        replay: ReplaySummary {
            cycles: cr_out.cycles,
            verified: cr_out.verified == Some(true),
            checkpoints_taken: cr_out.checkpoints_taken,
            checkpoints_live_max: cr_out.checkpoints_live_max,
            alarms_seen: cr_out.alarms_seen,
            underflows_cancelled: cr_out.underflows_cancelled,
            alarms_escalated: cr_out.alarm_cases.len(),
        },
        resolutions,
        detection,
        block_stats,
        recovery,
    }
}

/// Pool size for the alarm-replay phase: 1 unless parallel alarm replay is
/// on, else the configured size (0 = the host's available parallelism),
/// never more than there are checkpoint groups.
fn ar_worker_count(cfg: &PipelineConfig, groups: usize) -> usize {
    if !cfg.parallel_alarm_replay || groups <= 1 {
        return 1;
    }
    let configured = if cfg.ar_workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.ar_workers
    };
    configured.clamp(1, groups)
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn summarize(verdict: &Verdict) -> VerdictSummary {
    match verdict {
        Verdict::FalsePositive(kind) => VerdictSummary::FalsePositive {
            class: match kind {
                rnr_replay::FalsePositiveKind::MatchedEvict => "matched-evict".to_string(),
                rnr_replay::FalsePositiveKind::ImperfectNesting { .. } => "imperfect-nesting".to_string(),
                rnr_replay::FalsePositiveKind::HardwareCapacity => "hardware-capacity".to_string(),
                rnr_replay::FalsePositiveKind::CoarseBounds => "coarse-bounds".to_string(),
                rnr_replay::FalsePositiveKind::EvictedRegion => "evicted-region".to_string(),
                rnr_replay::FalsePositiveKind::StaleFrame => "stale-frame".to_string(),
            },
        },
        Verdict::RopAttack(report) => VerdictSummary::RopAttack {
            vulnerable: report.vulnerable_symbol.clone(),
            first_gadget: report.actual_target,
            chain_len: report.gadget_chain.len(),
            tid: report.tid.0,
        },
        Verdict::HeapOverflow(report) => VerdictSummary::MemoryViolation {
            class: "heap-overflow".to_string(),
            addr: report.addr,
            region: report.region,
            tid: report.tid.0,
        },
        Verdict::UseAfterReturn(report) => VerdictSummary::MemoryViolation {
            class: "use-after-return".to_string(),
            addr: report.addr,
            region: report.region,
            tid: report.tid.0,
        },
    }
}

fn detection_window(
    cfg: &PipelineConfig,
    rec: &RecordOutcome,
    resolutions: &[AlarmResolution],
) -> Option<DetectionWindow> {
    let first_attack = resolutions.iter().find(|r| r.verdict.is_attack())?;
    // The CR runs concurrently with recording; its lag at the alarm is
    // measured directly — its own clock position when it consumed the alarm
    // record, minus the recording's clock when it logged it.
    let cr_lag = first_attack.cr_cycle.saturating_sub(first_attack.at_cycle);
    let window_cycles = cr_lag + first_attack.ar_cycles;
    let log_rate = rec.log.total_bytes() as f64 / rec.cycles.max(1) as f64;
    let interval = cfg.checkpoint_interval_secs.map(|s| (s * VIRTUAL_HZ as f64) as u64).unwrap_or(VIRTUAL_HZ);
    Some(DetectionWindow {
        alarm_at_cycle: first_attack.at_cycle,
        cr_lag_cycles: cr_lag,
        window_cycles,
        window_secs: window_cycles as f64 / VIRTUAL_HZ as f64,
        log_bytes_in_window: (log_rate * window_cycles as f64) as u64,
        checkpoints_needed: window_cycles.div_ceil(interval.max(1)) + 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_attacks::mount_kernel_rop;
    use rnr_workloads::{Workload, WorkloadParams};

    #[test]
    fn benign_pipeline_verifies_and_clears_alarms() {
        let spec = Workload::Mysql.spec(false);
        let cfg = PipelineConfig { duration_insns: 250_000, ..PipelineConfig::default() };
        let report = Pipeline::new(spec, cfg).run().unwrap();
        assert!(report.replay.verified);
        assert_eq!(report.attacks_confirmed(), 0);
        assert_eq!(report.record.priv_flag, 0);
        assert!(report.detection.is_none());
        // The JSON report round-trips through serde.
        let json = report.to_json();
        assert!(json.contains("\"workload\""));
    }

    #[test]
    fn attack_pipeline_confirms_rop_and_measures_window() {
        let (spec, plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        let cfg = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(spec, cfg).run().unwrap();
        assert!(report.attacks_confirmed() >= 1, "{:?}", report.replay);
        let attack = report.resolutions.iter().find(|r| r.verdict.is_attack()).unwrap();
        match &attack.summary {
            VerdictSummary::RopAttack { vulnerable, first_gadget, .. } => {
                assert_eq!(vulnerable.as_deref(), Some("proc_msg"));
                assert_eq!(*first_gadget, plan.g1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let window = report.detection.expect("attack implies a detection window");
        assert!(window.window_cycles > 0);
        assert!(window.checkpoints_needed >= 2);
        // The recorded run escalated privilege (continue policy)...
        assert_eq!(report.record.priv_flag, 0x1337);
    }

    /// A pass's block counters land once, on the last case it resolved, so
    /// `PipelineReport::block_stats` sums every alarm-replay VM once — also
    /// when a mid-pass failure restarts the pass.
    #[test]
    fn each_pass_reports_its_block_counters_once() {
        let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        let cfg = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ..PipelineConfig::default()
        };
        let replay_cfg = replay_config(&cfg);
        let rec = Recorder::new(&spec, record_config(&cfg, None)).unwrap().run();
        let cases = Replayer::new(&spec, Arc::clone(&rec.log), replay_cfg.clone()).run().unwrap().alarm_cases;
        let group: Vec<usize> = (0..cases.len()).collect();
        assert_eq!(checkpoint_groups(&cases), vec![group.clone()], "the attack's cases share one checkpoint");
        let ar_cfg = ar_replay_config(&replay_cfg);
        let builds = |plan: FaultPlan| -> Vec<u64> {
            let resolver = CaseResolver::new(&spec, Arc::clone(&rec.log), ar_cfg.clone(), &plan);
            let out = resolver.resolve_group(&cases, &group);
            assert_eq!(out.iter().map(|(i, _)| *i).collect::<Vec<_>>(), group);
            out.into_iter().map(|(_, r)| r.expect("the case resolves").ar_block_stats.builds).collect()
        };
        let ar = AlarmReplayer::new(&spec, Arc::clone(&rec.log)).with_config(ar_cfg.clone());
        let mut whole = ar.pass(&cases[0].checkpoint);
        for case in &cases {
            whole.resolve_next(case).unwrap();
        }
        assert_eq!(builds(FaultPlan::default()), vec![0, 0, whole.block_stats().builds]);
        // A panic at case 1 ends the first pass after case 0; the retry's
        // pass resolves cases 1 and 2.
        let restarted = builds(FaultPlan { ar_panic_case: Some(1), ..FaultPlan::default() });
        assert!(restarted[0] > 0 && restarted[1] == 0 && restarted[2] > 0, "{restarted:?}");
    }

    #[test]
    fn pipeline_error_display() {
        let e = PipelineError::VerificationFailed;
        assert!(e.to_string().contains("diverged"));
    }
}

//! The deterministic replay engine.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnr_hypervisor::{verification_digest, CycleAttribution, DiskDevice, Introspector, VmSpec};
use rnr_isa::Addr;
use rnr_log::{AlarmInfo, Category, LogCursor, LogSource, Record, VrtAlarmInfo};
use rnr_machine::{
    CallRetTrap, CostModel, Digest, Exit, ExitControls, FaultKind, FinishIo, GuestVm, MachineConfig,
    RunBudget, IRQ_DISK, PORT_CONSOLE, PORT_DISK_ADDR, PORT_DISK_CMD, PORT_DISK_COUNT, PORT_DISK_SECTOR,
};
use rnr_ras::{BackRasTable, RasConfig, ShadowOutcome, ShadowRas, ThreadId};

use crate::book::AlarmBook;
use crate::{Checkpoint, CheckpointStore};

/// Replay engine configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Checkpoint every this many virtual cycles (`None` = `RepNoChk`).
    pub checkpoint_interval: Option<u64>,
    /// Checkpoints retained (window + 2, §8.4).
    pub retain: usize,
    /// Call/return trapping: `None` for the CR, `KernelOnly` for the
    /// paper's kernel-ROP alarm replayer timing (Figure 9), `All` when the
    /// software RAS must observe every return.
    pub callret: CallRetTrap,
    /// Cycle cost model (must match the recording's).
    pub costs: CostModel,
    /// RAS capacity (must match the recording's).
    pub ras_capacity: usize,
    /// Collect unresolved alarms as [`AlarmCase`]s (the CR behaviour).
    pub collect_cases: bool,
    /// Return-instruction PCs belonging to known non-local-unwind routines
    /// (`longjmp` implementations), identified from the binary images; the
    /// software RAS treats them as stack unwinds, not hijacks (§4.5).
    pub nesting_ret_sites: Vec<Addr>,
    /// Use the predecoded instruction cache (wall-clock optimization; never
    /// changes virtual cycles or digests).
    pub decode_cache: bool,
    /// Execute whole cached basic blocks between event horizons (wall-clock
    /// optimization; never changes virtual cycles or digests).
    pub block_engine: bool,
    /// Chain hot blocks into superblock traces (wall-clock optimization;
    /// never changes virtual cycles or digests). Requires `block_engine`.
    pub superblocks: bool,
    /// Sample the guest PC every `n` retired instructions — a heavier
    /// instrumentation level for re-running alarm replayers ("with
    /// increasing levels of instrumentation", §4.6.2) and for the DOS
    /// replay role ("the replay analyzes the code that has dominated the
    /// system's execution time", Table 1).
    pub profile_sample_every: Option<u64>,
    /// Recover from transport faults and transient divergences by rewinding
    /// to the last retained checkpoint and re-requesting the span (the CR's
    /// deployment posture). Off by default: alarm replayers and the tamper
    /// tests want divergence surfaced immediately.
    pub resilient: bool,
    /// Deterministic fault injections for this replay (empty = none).
    pub fault_plan: rnr_log::FaultPlan,
    /// Does nothing: no replayer reads it, and span replay is driven by the
    /// replay farm's scheduler (DESIGN.md §11). Kept only because the frozen
    /// repository benchmark sets it; deleted at the next change to
    /// `benchmark/`.
    pub parallel_spans: usize,
    /// Back a streaming source's refetch recovery with the durable segment
    /// store at this config's directory (DESIGN.md §13): damaged or dropped
    /// spans are re-read from sealed segments first, falling back to the
    /// recorder's in-memory retained store. Resilience-only knob — never
    /// changes cycles, digests, or the report.
    pub durable_log: Option<rnr_log::DurableLogConfig>,
    /// VRT hardware parameters of the recording (granule, watched ranges),
    /// for the alarm replayer's precise memory-safety classification
    /// (DESIGN.md §15). Never arms a replay VM — replay VMs are always
    /// unarmed, so VRT alarms come from the log only. `None` falls back to
    /// [`rnr_vrt::VrtParams::default`].
    pub vrt: Option<rnr_vrt::VrtParams>,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            checkpoint_interval: Some(crate::VIRTUAL_HZ),
            retain: 8,
            callret: CallRetTrap::None,
            costs: CostModel::default(),
            ras_capacity: RasConfig::DEFAULT_CAPACITY,
            collect_cases: true,
            nesting_ret_sites: Vec::new(),
            decode_cache: true,
            block_engine: true,
            superblocks: true,
            profile_sample_every: None,
            resilient: false,
            fault_plan: rnr_log::FaultPlan::default(),
            parallel_spans: 0,
            durable_log: None,
            vrt: None,
        }
    }
}

/// Per-record trace entry a span worker leaves behind for the parallel-replay
/// fold (`crate::parallel`): worker-relative cycles plus the pages and disk
/// blocks dirtied since the previous mark. The fold turns these deltas into
/// the serial CR's absolute clock, checkpoint schedule, and checkpoint costs.
#[derive(Debug, Clone)]
pub(crate) struct SpanMark {
    /// Global log index of the record just consumed; `None` for the entry
    /// mark (epoch baseline) and the post-seam tail mark.
    pub record: Option<usize>,
    /// Retired instructions at the mark.
    pub retired: u64,
    /// Worker-local virtual cycles at the mark (workers start at cycle 0).
    pub cycles: u64,
    /// Pages dirtied since the previous mark.
    pub dirty_pages: Vec<usize>,
    /// Disk blocks dirtied since the previous mark.
    pub dirty_blocks: Vec<usize>,
}

/// What [`Replayer::run_span`] returns: the worker's outcome plus the seam
/// digest and the per-record marks the fold consumes.
#[derive(Debug)]
pub(crate) struct SpanRun {
    /// Architectural digest at the worker's starting state (its seam with
    /// the previous span).
    pub start_digest: Digest,
    /// Per-record marks, starting with the entry mark.
    pub marks: Vec<SpanMark>,
    /// The worker's replay outcome (cycles are worker-relative).
    pub outcome: ReplayOutcome,
}

/// A JOP alarm lifted from the log (Table 1, row 2), for replay-side
/// verification against the full function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JopCase {
    /// Thread running the indirect branch.
    pub tid: rnr_ras::ThreadId,
    /// PC of the indirect branch or call.
    pub branch_pc: Addr,
    /// The resolved target.
    pub target: Addr,
    /// Retired-instruction count at the alarm.
    pub at_insn: u64,
    /// Virtual cycle at the alarm.
    pub at_cycle: u64,
}

/// Which detector family raised an escalated alarm, with its payload.
///
/// Both families share the escalation machinery end to end — checkpoints,
/// the AR worker pool, span-parallel case collection, the farm's AR lane —
/// so a case carries its detector-specific payload behind one type.
#[derive(Debug, Clone, Copy)]
pub enum CaseKind {
    /// A RAS return misprediction — the ROP detector (§4.5).
    Ras(AlarmInfo),
    /// A Variable Record Table memory-safety alarm (DESIGN.md §15).
    Vrt(VrtAlarmInfo),
}

impl CaseKind {
    /// Retired-instruction count at the alarm.
    pub fn at_insn(&self) -> u64 {
        match self {
            CaseKind::Ras(info) => info.at_insn,
            CaseKind::Vrt(info) => info.at_insn,
        }
    }

    /// Virtual cycle at the alarm.
    pub fn at_cycle(&self) -> u64 {
        match self {
            CaseKind::Ras(info) => info.at_cycle,
            CaseKind::Vrt(info) => info.at_cycle,
        }
    }

    /// Thread running when the alarm fired.
    pub fn tid(&self) -> ThreadId {
        match self {
            CaseKind::Ras(info) => info.tid,
            CaseKind::Vrt(info) => info.tid,
        }
    }
}

/// An alarm the CR could not discard, packaged for an alarm replayer.
#[derive(Debug, Clone)]
pub struct AlarmCase {
    /// The checkpoint immediately preceding the alarm, shared with the
    /// CR's checkpoint store and every other case it serves.
    pub checkpoint: Arc<Checkpoint>,
    /// The alarm itself, tagged by detector family.
    pub kind: CaseKind,
    /// Index of the alarm record in the input log.
    pub alarm_index: usize,
    /// The CR's own virtual clock when it processed the alarm record — the
    /// measured CR position behind the recorded execution, used for the §8.4
    /// detection window.
    pub cr_cycle: u64,
}

impl AlarmCase {
    /// Retired-instruction count at the alarm.
    pub fn at_insn(&self) -> u64 {
        self.kind.at_insn()
    }

    /// Virtual cycle at the alarm.
    pub fn at_cycle(&self) -> u64 {
        self.kind.at_cycle()
    }
}

/// Replay failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The replayed execution diverged from the log.
    Divergence {
        /// Retired instructions at the divergence.
        at_insn: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// The guest faulted during replay.
    GuestFault(FaultKind),
    /// The log ended without an `End` marker.
    UnexpectedEndOfLog,
    /// The log transport detected corruption, truncation, or a sequence
    /// anomaly that has not (yet) been healed.
    Transport(rnr_log::CodecError),
    /// Recovery was attempted and exhausted: the named fault persisted
    /// through every rewind/re-request the policy allows.
    Unrecoverable {
        /// The fault that could not be healed.
        fault: Box<ReplayError>,
        /// Every rewind the replayer performed before giving up.
        trail: Vec<RewindStep>,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Divergence { at_insn, detail } => {
                write!(f, "replay diverged at instruction {at_insn}: {detail}")
            }
            ReplayError::GuestFault(k) => write!(f, "guest fault during replay: {k:?}"),
            ReplayError::UnexpectedEndOfLog => write!(f, "input log ended without an End marker"),
            ReplayError::Transport(e) => write!(f, "log transport fault: {e}"),
            ReplayError::Unrecoverable { fault, trail } => {
                write!(f, "unrecoverable after {} rewind(s): {fault}", trail.len())
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// One checkpoint rewind performed during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewindStep {
    /// Retired-instruction count when the fault surfaced.
    pub at_insn: u64,
    /// The checkpoint instruction count rewound to.
    pub to_insn: u64,
    /// Id of the checkpoint restored.
    pub checkpoint_id: u64,
    /// The fault that forced the rewind.
    pub reason: String,
}

/// What recovery did during one replay run (all zeros when nothing faulted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayRecovery {
    /// Checkpoint rewinds performed.
    pub rewinds: u64,
    /// Instructions re-executed across all rewinds.
    pub rewound_insns: u64,
    /// Divergence-quarantined spans re-executed with the block engine off.
    pub block_fallback_spans: u64,
    /// Transport-level detections and healings.
    pub transport: rnr_log::TransportStats,
    /// The rewind trail, in order.
    pub trail: Vec<RewindStep>,
}

impl ReplayRecovery {
    /// True when any fault was detected, healed, or worked around.
    pub fn any(&self) -> bool {
        self.rewinds > 0
            || self.block_fallback_spans > 0
            || self.transport.faults_detected > 0
            || self.transport.duplicates_dropped > 0
            || self.transport.reorders_healed > 0
            || self.transport.batches_refetched > 0
    }
}

/// A shadow-RAS anomaly observed at a trapped return (alarm replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowEventKind {
    /// Underflow that matched an evict record (benign).
    UnderflowMatched,
    /// Underflow with no matching evict record.
    UnderflowUnexplained,
    /// Mismatch explained by unwinding to a live frame (setjmp/longjmp).
    MismatchUnwound {
        /// Frames discarded by the unwind.
        frames: usize,
    },
    /// Mismatch with no live frame matching the target.
    MismatchUnexplained {
        /// The shadow prediction.
        predicted: Addr,
    },
    /// Whitelisted return to an illegal target.
    WhitelistViolation,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ShadowEvent {
    pub at_insn: u64,
    pub ret_pc: Addr,
    #[allow(dead_code)]
    pub actual: Addr,
    pub kind: ShadowEventKind,
}

/// Results of a replay run.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Total virtual cycles spent replaying (from the engine's start point).
    pub cycles: u64,
    /// Retired instructions at the end.
    pub retired: u64,
    /// Final architectural digest (compare with the recording's).
    pub final_digest: Digest,
    /// True if `expected_digest` was provided and matched.
    pub verified: Option<bool>,
    /// Overhead attribution (Figure 7(b), including the `Chk` bucket).
    pub attribution: CycleAttribution,
    /// Checkpoints taken / retained high-water mark.
    pub checkpoints_taken: u64,
    /// Maximum checkpoints simultaneously retained.
    pub checkpoints_live_max: usize,
    /// Alarm records encountered.
    pub alarms_seen: u64,
    /// Underflow alarms cancelled by evict matching (§4.6.2).
    pub underflows_cancelled: u64,
    /// Alarms needing an alarm replayer.
    pub alarm_cases: Vec<AlarmCase>,
    /// JOP alarms found in the log (Table 1, row 2).
    pub jop_cases: Vec<JopCase>,
    /// Call/return traps taken (alarm-replay timing driver, Figure 9).
    pub callret_traps: u64,
    /// Console output reproduced by the replayed guest.
    pub console: Vec<u8>,
    /// What fault recovery did during this run (all zeros when clean).
    pub recovery: ReplayRecovery,
    /// PC-sample histogram (`pc -> samples`), when profiling was enabled.
    pub profile: std::collections::HashMap<Addr, u64>,
    /// The VM at the stop point.
    pub(crate) vm: GuestVm,
}

impl ReplayOutcome {
    /// The guest VM at the stop point, for state auditing (§3.2). Exposes
    /// registers, memory, and introspectable kernel structures.
    pub fn vm(&self) -> &GuestVm {
        &self.vm
    }
}

/// The deterministic replayer (both CR and AR are configurations of it).
#[derive(Debug)]
pub struct Replayer {
    vm: GuestVm,
    disk: DiskDevice,
    console: Vec<u8>,
    intro: Introspector,
    backras: BackRasTable,
    current_tid: ThreadId,
    dying: Option<ThreadId>,
    source: LogSource,
    cursor: LogCursor,
    store: CheckpointStore,
    book: AlarmBook,
    attribution: CycleAttribution,
    landing: StdRng,
    cfg: ReplayConfig,
    last_checkpoint_cycle: u64,
    start_cycles: u64,
    cases: Vec<AlarmCase>,
    callret_traps: u64,
    shadow: Option<ShadowRas>,
    shadow_events: Vec<ShadowEvent>,
    expected_digest: Option<Digest>,
    stop_after_record: Option<usize>,
    stop_at_insn: Option<u64>,
    next_checkpoint_id: u64,
    profile: std::collections::HashMap<Addr, u64>,
    next_sample: u64,
    /// Side-state snapshot matching the latest checkpoint, for in-place
    /// rewinds (resilient mode only).
    recovery_point: Option<Box<RecoveryPoint>>,
    recovery: ReplayRecovery,
    /// Retired count of the last recovered fault + attempts at that point.
    last_fault_insn: Option<u64>,
    same_point_attempts: u32,
    /// Block engine disabled for the current span after a divergence.
    block_quarantined: bool,
    injected_cr_fired: bool,
    injected_block_fired: bool,
    /// Leave a [`SpanMark`] after every consumed record (parallel span
    /// workers; mutually exclusive with checkpointing).
    span_trace: bool,
    span_marks: Vec<SpanMark>,
}

/// Everything [`Replayer::rewind`] needs beyond the [`Checkpoint`] itself:
/// the replayer-level accumulators that the checkpoint (sized for alarm
/// replay) does not carry. Captured at every checkpoint in resilient mode,
/// so a rewound span never contains a checkpoint boundary.
#[derive(Debug, Clone)]
struct RecoveryPoint {
    checkpoint: Arc<Checkpoint>,
    /// The replayer's own table *without* the checkpoint's extra
    /// save of the running thread's RAS — exact continuation state.
    backras: BackRasTable,
    attribution: CycleAttribution,
    landing: StdRng,
    book: AlarmBook,
    cases_len: usize,
    callret_traps: u64,
    console_len: usize,
    shadow_events_len: usize,
    last_checkpoint_cycle: u64,
    next_checkpoint_id: u64,
    next_sample: u64,
    profile: std::collections::HashMap<Addr, u64>,
}

/// Seed of the deterministic model for asynchronous-event landing overshoot
/// (the §7.3 single-stepping).
const LANDING_SEED: u64 = 0x1a5d;
/// Total checkpoint rewinds a resilient replay may perform.
const MAX_REWINDS: u64 = 16;
/// Recovery attempts allowed for a fault recurring at one instruction.
const MAX_ATTEMPTS_PER_POINT: u32 = 3;

impl Replayer {
    /// A replayer starting from the initial VM state (the CR, §4.6.1).
    ///
    /// The log may be a complete [`Arc<InputLog>`](std::sync::Arc) or a live
    /// [`rnr_log::LogStream`] fed by a still-running recorder — replay is
    /// identical either way; a streaming source simply blocks when it
    /// catches up to the recorder.
    pub fn new(spec: &VmSpec, log: impl Into<LogSource>, cfg: ReplayConfig) -> Replayer {
        let mut images = vec![spec.kernel.image().clone()];
        images.extend(spec.extra_images.iter().cloned());
        images.push(spec.boot.to_image());
        let image_refs: Vec<&rnr_isa::Image> = images.iter().collect();
        let disk = DiskDevice::new(VmSpec::DEFAULT_DISK, spec.disk_seed);
        let mut r = Self::build(spec, &image_refs, disk, log.into(), cfg);
        r.vm.set_entry(spec.kernel.entry());
        r
    }

    /// A replayer resuming from a checkpoint (the AR, §4.6.2, and a span
    /// worker from its seed). When `shadow` is true, a software unbounded
    /// multithreaded RAS is modeled from the checkpoint's BackRAS.
    ///
    /// The restore marks every page dirty and nothing drains the marks: a
    /// replayer with a checkpoint interval pays for them in its first
    /// checkpoint, and alarm-replay cycles count that cost.
    pub fn from_checkpoint(
        spec: &VmSpec,
        log: impl Into<LogSource>,
        cfg: ReplayConfig,
        checkpoint: &Checkpoint,
        shadow: bool,
    ) -> Replayer {
        // An empty disk: the restore puts the checkpoint's in place, so no
        // boot image is built only to be replaced.
        let mut r = Self::build(spec, &[], DiskDevice::new(0, 0), log.into(), cfg);
        r.restore(checkpoint);
        r.book = AlarmBook::resume(checkpoint.evict_store.clone());
        r.start_cycles = checkpoint.at_cycle;
        r.last_checkpoint_cycle = checkpoint.at_cycle;
        if shadow {
            let current = checkpoint.current_tid;
            let entry = checkpoint.backras.load(current);
            r.shadow = Some(ShadowRas::from_backras(
                &checkpoint.backras,
                current,
                entry.entries(),
                spec.kernel.whitelists(),
            ));
        }
        r
    }

    /// A replayer over a replay VM loaded with `images`, with `disk` as its
    /// disk: the one construction [`Replayer::new`] and
    /// [`Replayer::from_checkpoint`] share.
    fn build(
        spec: &VmSpec,
        images: &[&rnr_isa::Image],
        disk: DiskDevice,
        mut source: LogSource,
        cfg: ReplayConfig,
    ) -> Replayer {
        let machine = MachineConfig {
            syscall_entry: spec.kernel.syscall_entry(),
            ras: RasConfig::replay(cfg.ras_capacity),
            exits: ExitControls { rdtsc_exiting: true, evict_exiting: false, callret_trap: cfg.callret },
            costs: cfg.costs,
            decode_cache: cfg.decode_cache,
            block_engine: cfg.block_engine,
            superblocks: cfg.superblocks,
            ..MachineConfig::default()
        };
        let mut vm = GuestVm::new(machine, images);
        vm.cpu_mut().ras.set_whitelists(spec.kernel.whitelists());
        let intro = Introspector::new(&spec.kernel);
        if let Some(d) = cfg.durable_log.as_ref() {
            source.attach_durable(&d.dir);
        }
        vm.add_breakpoint(intro.switch_sp_trap());
        vm.add_breakpoint(intro.thread_create_trap());
        vm.add_breakpoint(intro.thread_exit_trap());
        let landing = StdRng::seed_from_u64(LANDING_SEED);
        Replayer {
            vm,
            disk,
            console: Vec::new(),
            intro,
            backras: BackRasTable::new(),
            current_tid: ThreadId(1),
            dying: None,
            cursor: LogCursor::new(0),
            source,
            store: CheckpointStore::new(cfg.retain),
            book: AlarmBook::default(),
            attribution: CycleAttribution::new(),
            landing,
            last_checkpoint_cycle: 0,
            start_cycles: 0,
            cases: Vec::new(),
            callret_traps: 0,
            shadow: None,
            shadow_events: Vec::new(),
            expected_digest: None,
            stop_after_record: None,
            stop_at_insn: None,
            next_checkpoint_id: 0,
            profile: std::collections::HashMap::new(),
            next_sample: cfg.profile_sample_every.unwrap_or(0),
            recovery_point: None,
            recovery: ReplayRecovery::default(),
            last_fault_insn: None,
            same_point_attempts: 0,
            block_quarantined: false,
            injected_cr_fired: false,
            injected_block_fired: false,
            span_trace: false,
            span_marks: Vec::new(),
            cfg,
        }
    }

    /// Puts every component of `cp` in place: pages, processor state,
    /// counters, disk, BackRAS, threads and log position. Pages and blocks
    /// are taken by reference, swapping only the pointers that differ. The
    /// page restore marks every page dirty; each caller keeps its own rule
    /// for those marks.
    fn restore(&mut self, cp: &Checkpoint) {
        self.vm.mem_mut().restore_pages(&cp.mem_pages);
        self.vm.cpu_mut().restore_state(&cp.cpu);
        self.vm.restore_counters(cp.at_insn, cp.at_cycle);
        self.disk.restore(&cp.disk);
        self.backras = cp.backras.clone();
        self.current_tid = cp.current_tid;
        self.dying = cp.dying;
        self.cursor = cp.cursor;
    }

    /// The replayer's state as a [`Checkpoint`] with no replay-side history
    /// ([`Checkpoint::capture`]), sharing `base`'s unwritten chunks; callers
    /// that charge or account a checkpoint close the dirty-tracking epoch
    /// first.
    pub(crate) fn capture(&self, base: Option<&Checkpoint>) -> Checkpoint {
        Checkpoint::capture(
            &self.vm,
            &self.disk,
            &self.backras,
            self.current_tid,
            self.dying,
            self.cursor,
            base,
        )
    }

    /// Closes the dirty-tracking epoch of memory and disk, returning the
    /// pages and blocks written since it opened and the copy-on-write
    /// faults taken.
    pub(crate) fn end_epoch(&mut self) -> (Vec<usize>, Vec<usize>, u64) {
        let pages = self.vm.mem_mut().begin_epoch();
        let cow_faults = self.vm.mem_mut().take_cow_faults();
        let blocks = self.disk.store_mut().begin_epoch();
        (pages, blocks, cow_faults)
    }

    /// Arms final-state verification against the recording's digest.
    pub fn verify_against(&mut self, digest: Digest) {
        self.expected_digest = Some(digest);
    }

    /// Stops after the log record at `index` has been consumed (the alarm
    /// replayer's "replay until the alarm marker", §4.6.2).
    pub fn stop_after_record(&mut self, index: usize) {
        self.stop_after_record = Some(index);
    }

    /// Stops at (or just past) retired-instruction count `insn` — the §3.2
    /// execution-auditing entry point: "an execution context can be
    /// replayed to audit the code and data state". The stop is exact before
    /// every record that carries an instruction count (asynchronous events,
    /// alarms, the end); a synchronous data record in flight may overshoot
    /// to its trapping instruction.
    pub fn stop_at_insn(&mut self, insn: u64) {
        self.stop_at_insn = Some(insn);
    }

    /// Runs the replay to the end of the log (or the configured stop point).
    ///
    /// In resilient mode ([`ReplayConfig::resilient`]), transport faults
    /// and transient divergences trigger recovery — rewind to the latest
    /// retained checkpoint, re-request the damaged span from the recorder's
    /// retained log, re-execute — before any error is surfaced.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Divergence`] when the execution does not match
    /// the log — which, under RnR's determinism guarantee, indicates a bug
    /// or tampering, not a tolerable condition — and
    /// [`ReplayError::Unrecoverable`] when resilient-mode recovery was
    /// exhausted without healing the fault.
    pub fn run(mut self) -> Result<ReplayOutcome, ReplayError> {
        if self.cfg.collect_cases {
            // The initial checkpoint: alarms before the first interval need
            // a base to replay from.
            self.take_checkpoint();
        }
        loop {
            match self.drive() {
                Ok(()) => return Ok(self.finish()),
                Err(e) => self.try_recover(e)?,
            }
        }
    }

    /// The main replay loop; returns `Ok(())` at the end of the log or a
    /// configured stop point, and bubbles every fault to [`Replayer::run`]
    /// for the recovery decision.
    fn drive(&mut self) -> Result<(), ReplayError> {
        loop {
            self.check_injected_faults()?;
            if let Some(stop) = self.stop_after_record {
                if self.cursor.index() > stop {
                    return Ok(());
                }
            }
            if let Some(stop) = self.stop_at_insn {
                if self.vm.retired() >= stop {
                    return Ok(());
                }
                // Do not run past the audit point for records with a known
                // injection/arrival instruction.
                let idx = self.cursor.index();
                let next = self.source.try_get(idx).map_err(ReplayError::Transport)?;
                if let Some(at) = next.and_then(rnr_log::Record::at_insn) {
                    if at > stop {
                        self.run_to(stop)?;
                        return Ok(());
                    }
                }
            }
            let index = self.cursor.index();
            let record = match self.source.try_get(index) {
                Ok(Some(r)) => r.clone(),
                Ok(None) => return Err(ReplayError::UnexpectedEndOfLog),
                Err(e) => return Err(ReplayError::Transport(e)),
            };
            match record {
                Record::End { at_insn, .. } => {
                    self.run_to(at_insn)?;
                    self.cursor.advance();
                    if self.span_trace {
                        self.push_span_mark(Some(index));
                    }
                    return Ok(());
                }
                Record::Evict { .. } | Record::Alarm(_) | Record::JopAlarm { .. } | Record::VrtAlarm(_) => {
                    // Reach the alarm point first: the alarm replayer's
                    // software RAS must observe the mispredicting return
                    // itself ("consuming the input log until it reaches the
                    // alarm marker", §4.6.2). Evict records carry no point.
                    if let Some(at) = record.at_insn() {
                        self.run_to(at)?;
                    }
                    self.cursor.advance();
                    let shadow_matched = self.shadow_matched(&record);
                    if let Some(kind) = self.book.on_record(&record, shadow_matched) {
                        if self.cfg.collect_cases {
                            let checkpoint = self
                                .store
                                .before(kind.at_insn())
                                .cloned()
                                .expect("initial checkpoint always exists");
                            self.cases.push(AlarmCase {
                                checkpoint,
                                kind,
                                alarm_index: index,
                                cr_cycle: self.vm.cycles(),
                            });
                        }
                    }
                }
                Record::Interrupt { irq, at_insn } => {
                    self.run_to(at_insn)?;
                    self.charge_landing();
                    if irq == IRQ_DISK {
                        if self.disk.in_flight().is_none() {
                            return Err(self.diverge("disk interrupt with no in-flight operation"));
                        }
                        self.disk.complete(&mut self.vm);
                    }
                    self.vm
                        .inject_interrupt(irq)
                        .map_err(|e| self.diverge_msg(format!("interrupt injection failed: {e}")))?;
                    self.cursor.advance();
                }
                Record::Dma { addr, data, at_insn, .. } => {
                    self.run_to(at_insn)?;
                    let bytes = data.len() as u64;
                    self.vm
                        .mem_mut()
                        .write_bytes(addr, &data)
                        .map_err(|_| self.diverge_msg(format!("DMA outside guest memory at {addr:#x}")))?;
                    self.charge(Category::Network, self.cfg.costs.log_per_word * bytes.div_ceil(8));
                    self.cursor.advance();
                }
                Record::Rdtsc { value } => {
                    match self.run_to_sync()? {
                        Exit::Rdtsc { rd } => {
                            self.charge(Category::Rdtsc, self.cfg.costs.vmexit);
                            self.vm.finish_io(FinishIo::Read { rd, value });
                        }
                        other => return Err(self.diverge_msg(format!("expected rdtsc exit, got {other:?}"))),
                    }
                    self.cursor.advance();
                }
                Record::PioIn { port, value } => {
                    match self.run_to_sync()? {
                        Exit::PioIn { rd, port: p } if p == port => {
                            self.charge(Category::PioMmio, self.cfg.costs.vmexit);
                            self.vm.finish_io(FinishIo::Read { rd, value });
                        }
                        other => {
                            return Err(self.diverge_msg(format!("expected in({port:#x}), got {other:?}")))
                        }
                    }
                    self.cursor.advance();
                }
                Record::MmioRead { addr, value } => {
                    match self.run_to_sync()? {
                        Exit::MmioRead { rd, addr: a } if a == addr => {
                            self.charge(Category::PioMmio, self.cfg.costs.vmexit);
                            self.vm.finish_io(FinishIo::Read { rd, value });
                        }
                        other => {
                            return Err(
                                self.diverge_msg(format!("expected mmio read {addr:#x}, got {other:?}"))
                            )
                        }
                    }
                    self.cursor.advance();
                }
            }
            self.maybe_checkpoint();
            if self.span_trace {
                self.push_span_mark(Some(index));
            }
        }
    }

    /// Runs this replayer as one span worker of a parallel CR: consume the
    /// records before `records_end` (all remaining records when `None` — the
    /// final span, which ends at the log's `End` marker), then run to the
    /// `seam` instruction where the next span's seed was captured, leaving a
    /// [`SpanMark`] after every record plus a tail mark at the seam.
    pub(crate) fn run_span(
        mut self,
        records_end: Option<usize>,
        seam: Option<u64>,
    ) -> Result<SpanRun, ReplayError> {
        let start_digest = verification_digest(&self.vm, &self.disk);
        self.span_trace = true;
        // Entry mark: drains the epoch noise of construction/restore and
        // baselines dirty tracking. For the first span this is exactly what
        // the serial CR's initial checkpoint would have drained.
        self.push_span_mark(None);
        if let Some(end) = records_end {
            if end > self.cursor.index() {
                self.stop_after_record = Some(end - 1);
                self.drive()?;
            }
        } else {
            self.drive()?;
        }
        if let Some(s) = seam {
            self.run_to(s)?;
            // A fault-plan injection point inside the record-free tail must
            // still fire in this span's worker, as it would have in the
            // serial drive loop.
            self.check_injected_faults()?;
            self.push_span_mark(None);
        }
        let marks = std::mem::take(&mut self.span_marks);
        Ok(SpanRun { start_digest, marks, outcome: self.finish() })
    }

    /// Drives until the record at `index` has been consumed, without
    /// finishing — the parallel fold's checkpoint-materialization pass and
    /// each alarm-replay pass call this repeatedly with ascending indices.
    /// Stops early, with `Ok`, at the log's `End` marker.
    pub(crate) fn drive_to_record(&mut self, index: usize) -> Result<(), ReplayError> {
        self.stop_after_record = Some(index);
        self.drive()
    }

    /// Decoded-block statistics of this replayer's VM (wall-clock
    /// diagnostics for the parallel orchestrator and alarm-replay passes).
    pub(crate) fn block_stats(&self) -> rnr_machine::BlockStats {
        self.vm.block_stats()
    }

    /// The VM at the current stop point (alarm forensics reads its state).
    pub(crate) fn vm(&self) -> &GuestVm {
        &self.vm
    }

    /// Shadow-RAS anomalies observed so far (alarm replay only).
    pub(crate) fn shadow_events(&self) -> &[ShadowEvent] {
        &self.shadow_events
    }

    /// Index of the next log record to consume.
    pub(crate) fn position(&self) -> usize {
        self.cursor.index()
    }

    /// Virtual cycles replayed since the engine's start point — what
    /// [`ReplayOutcome::cycles`] reports when the run finishes here.
    pub(crate) fn cycles_replayed(&self) -> u64 {
        self.vm.cycles() - self.start_cycles
    }

    /// Advances the landing RNG past `draws` asynchronous-event landings, so
    /// a mid-log span worker observes exactly the draws the serial CR would
    /// have at its position. Each `Record::Interrupt` consumes exactly one
    /// bounded draw, so the draw count is the interrupt-record count before
    /// the span.
    pub(crate) fn skip_landing_draws(&mut self, draws: u64) {
        for _ in 0..draws {
            let _ = self.landing.gen_range(1..=self.cfg.costs.replay_max_steps.max(1));
        }
    }

    /// Does nothing: the replayer decodes into its own VM's cache. Kept
    /// only because the frozen repository benchmark calls it; deleted at
    /// the next change to `benchmark/`.
    pub fn attach_shared_cache(&mut self, _shared: std::sync::Arc<rnr_machine::SharedPageCache>) {}

    fn push_span_mark(&mut self, record: Option<usize>) {
        let (dirty_pages, dirty_blocks, _) = self.end_epoch();
        self.span_marks.push(SpanMark {
            record,
            retired: self.vm.retired(),
            cycles: self.vm.cycles(),
            dirty_pages,
            dirty_blocks,
        });
    }

    fn finish(mut self) -> ReplayOutcome {
        let final_digest = verification_digest(&self.vm, &self.disk);
        let mut recovery = std::mem::take(&mut self.recovery);
        recovery.transport = self.source.transport_stats();
        ReplayOutcome {
            cycles: self.cycles_replayed(),
            retired: self.vm.retired(),
            final_digest,
            verified: self.expected_digest.map(|d| d == final_digest),
            attribution: std::mem::take(&mut self.attribution),
            checkpoints_taken: self.store.taken(),
            checkpoints_live_max: self.store.max_live(),
            alarms_seen: self.book.alarms_seen,
            underflows_cancelled: self.book.cancelled,
            alarm_cases: std::mem::take(&mut self.cases),
            jop_cases: std::mem::take(&mut self.book.jop_cases),
            callret_traps: self.callret_traps,
            console: std::mem::take(&mut self.console),
            recovery,
            profile: std::mem::take(&mut self.profile),
            vm: self.vm,
        }
    }

    /// Fires the fault plan's replay-level injections (transient CR
    /// divergence, block-engine divergence) exactly once each. The fired
    /// flags are deliberately *not* rolled back by a rewind — a healed
    /// transient fault must not re-fire, or recovery would loop forever.
    fn check_injected_faults(&mut self) -> Result<(), ReplayError> {
        if let Some(at) = self.cfg.fault_plan.cr_divergence_at_insn {
            if !self.injected_cr_fired && self.vm.retired() >= at {
                self.injected_cr_fired = true;
                return Err(self.diverge("injected transient divergence (fault plan)"));
            }
        }
        if let Some(at) = self.cfg.fault_plan.block_divergence_at_insn {
            if !self.injected_block_fired && self.vm.retired() >= at {
                self.injected_block_fired = true;
                return Err(self.diverge("injected block-engine divergence (fault plan)"));
            }
        }
        Ok(())
    }

    /// The recovery decision: heal and rewind, or surface the fault.
    ///
    /// Recoverable faults (resilient mode only) are transport faults —
    /// healed by re-requesting the span from the recorder's retained log —
    /// and divergences, treated as transient and re-executed from the last
    /// checkpoint (with the block engine quarantined for the span, since a
    /// block-engine bug is one plausible cause). Bounded: a fault that
    /// recurs at the same instruction [`MAX_ATTEMPTS_PER_POINT`] times, or
    /// more than [`MAX_REWINDS`] rewinds overall, becomes
    /// [`ReplayError::Unrecoverable`] carrying the rewind trail.
    fn try_recover(&mut self, err: ReplayError) -> Result<(), ReplayError> {
        let retriable = matches!(err, ReplayError::Transport(_) | ReplayError::Divergence { .. });
        if !self.cfg.resilient || !retriable || self.recovery_point.is_none() {
            return Err(err);
        }
        let at = self.vm.retired();
        if self.last_fault_insn == Some(at) {
            self.same_point_attempts += 1;
        } else {
            self.last_fault_insn = Some(at);
            self.same_point_attempts = 1;
        }
        if self.recovery.rewinds >= MAX_REWINDS || self.same_point_attempts > MAX_ATTEMPTS_PER_POINT {
            return Err(self.unrecoverable(err));
        }
        if let ReplayError::Transport(_) = &err {
            // Re-request the damaged frame (bounded retries, backoff in
            // virtual time) before re-executing the span.
            if let Err(c) = self.source.recover() {
                return Err(self.unrecoverable(ReplayError::Transport(c)));
            }
        }
        if matches!(err, ReplayError::Divergence { .. }) && self.vm.block_engine_enabled() {
            // Graceful degradation: re-execute the failed span stepped; the
            // next checkpoint lifts the quarantine.
            self.vm.set_block_engine(false);
            self.block_quarantined = true;
            self.recovery.block_fallback_spans += 1;
        }
        let step = self.rewind(&err.to_string());
        self.recovery.rewinds += 1;
        self.recovery.rewound_insns += step.at_insn.saturating_sub(step.to_insn);
        self.recovery.trail.push(step);
        Ok(())
    }

    fn unrecoverable(&mut self, fault: ReplayError) -> ReplayError {
        ReplayError::Unrecoverable { fault: Box::new(fault), trail: self.recovery.trail.clone() }
    }

    /// In-place rewind to the latest recovery point: restores the VM (warm
    /// page restore — unchanged pages stay `Arc`-shared), the disk, and
    /// every replayer-level accumulator, so re-execution is bit-identical
    /// to a run that never faulted.
    fn rewind(&mut self, reason: &str) -> RewindStep {
        let rp = self.recovery_point.clone().expect("try_recover checked the recovery point");
        let cp = &rp.checkpoint;
        let from = self.vm.retired();
        self.restore(cp);
        // Discard the restore's epoch noise (restore marks every page dirty
        // and may count CoW activity): the re-executed span must observe
        // exactly the fault-free run's dirtying, or checkpoint costs would
        // drift.
        self.end_epoch();
        // The live table, without the checkpoint's fold of the running RAS.
        self.backras = rp.backras.clone();
        self.book = rp.book.clone();
        self.attribution = rp.attribution.clone();
        self.landing = rp.landing.clone();
        self.cases.truncate(rp.cases_len);
        self.callret_traps = rp.callret_traps;
        self.console.truncate(rp.console_len);
        self.shadow_events.truncate(rp.shadow_events_len);
        self.last_checkpoint_cycle = rp.last_checkpoint_cycle;
        self.next_checkpoint_id = rp.next_checkpoint_id;
        self.next_sample = rp.next_sample;
        self.profile = rp.profile.clone();
        RewindStep { at_insn: from, to_insn: cp.at_insn, checkpoint_id: cp.id, reason: reason.to_string() }
    }

    fn diverge(&self, detail: &str) -> ReplayError {
        ReplayError::Divergence { at_insn: self.vm.retired(), detail: detail.to_string() }
    }

    fn diverge_msg(&self, detail: String) -> ReplayError {
        ReplayError::Divergence { at_insn: self.vm.retired(), detail }
    }

    fn charge(&mut self, category: Category, cycles: u64) {
        self.vm.add_cycles(cycles);
        self.attribution.charge(category, cycles);
    }

    /// The §7.3 asynchronous-event landing: arm a performance counter, take
    /// the overshoot, single-step back to the exact instruction — modeled
    /// as 1..=max single-step VM exits.
    fn charge_landing(&mut self) {
        let steps = self.landing.gen_range(1..=self.cfg.costs.replay_max_steps.max(1));
        let cost = steps * self.cfg.costs.replay_step;
        self.charge(Category::Interrupt, cost);
    }

    /// Whether this alarm replayer's shadow RAS already matched `record`'s
    /// underflow against an evict record at the trapped return itself.
    fn shadow_matched(&self, record: &Record) -> bool {
        let Record::Alarm(info) = record else { return false };
        self.shadow.is_some()
            && self.shadow_events.last().is_some_and(|e| {
                e.at_insn == info.at_insn
                    && e.ret_pc == info.mispredict.ret_pc
                    && matches!(e.kind, ShadowEventKind::UnderflowMatched)
            })
    }

    fn maybe_checkpoint(&mut self) {
        if let Some(interval) = self.cfg.checkpoint_interval {
            if self.vm.cycles() - self.last_checkpoint_cycle >= interval {
                self.take_checkpoint();
            }
        }
    }

    fn take_checkpoint(&mut self) {
        if self.block_quarantined {
            // The quarantined span reached a clean checkpoint: lift the
            // stepped-execution fallback.
            self.vm.set_block_engine(true);
            self.block_quarantined = false;
        }
        let (pages, blocks, cow_faults) = self.end_epoch();
        let (dirty_pages, dirty_blocks) = (pages.len(), blocks.len());
        let cost = self.cfg.costs.checkpoint(dirty_pages as u64, dirty_blocks as u64, cow_faults);
        self.vm.add_cycles(cost);
        self.attribution.charge_checkpoint(cost);
        let checkpoint = Arc::new(Checkpoint {
            id: self.next_checkpoint_id,
            at_cycle: self.vm.cycles(),
            evict_store: self.book.evicts().clone(),
            dirty_pages,
            dirty_blocks,
            ..self.capture(self.store.latest().map(Arc::as_ref))
        });
        self.next_checkpoint_id += 1;
        self.last_checkpoint_cycle = self.vm.cycles();
        if self.cfg.resilient {
            self.recovery_point = Some(Box::new(RecoveryPoint {
                checkpoint: Arc::clone(&checkpoint),
                backras: self.backras.clone(),
                attribution: self.attribution.clone(),
                landing: self.landing.clone(),
                book: self.book.clone(),
                cases_len: self.cases.len(),
                callret_traps: self.callret_traps,
                console_len: self.console.len(),
                shadow_events_len: self.shadow_events.len(),
                last_checkpoint_cycle: self.last_checkpoint_cycle,
                next_checkpoint_id: self.next_checkpoint_id,
                next_sample: self.next_sample,
                profile: self.profile.clone(),
            }));
        }
        self.store.push(checkpoint);
    }

    /// Runs until exactly `target` instructions have retired, servicing
    /// breakpoints, device-output exits, and call/return traps on the way.
    fn run_to(&mut self, target: u64) -> Result<(), ReplayError> {
        if self.vm.retired() > target {
            return Err(self.diverge_msg(format!(
                "already past target instruction {target} (at {})",
                self.vm.retired()
            )));
        }
        loop {
            // With profiling on, stop early at sampling points.
            let stop = self.next_profile_stop(Some(target));
            let exit = self.vm.run(RunBudget::until(stop));
            if matches!(exit, Exit::BudgetExhausted) && stop < target {
                self.take_profile_sample();
                continue;
            }
            match exit {
                Exit::BudgetExhausted => return Ok(()),
                Exit::Halt => {
                    if self.vm.retired() == target {
                        return Ok(());
                    }
                    return Err(self.diverge("guest halted before the next event's instruction count"));
                }
                other => self.handle_intermediate(other)?,
            }
        }
    }

    /// Runs until a synchronous-data exit (rdtsc / pio-in / mmio-read).
    fn run_to_sync(&mut self) -> Result<Exit, ReplayError> {
        loop {
            let stop = self.next_profile_stop(None);
            let exit = self
                .vm
                .run(RunBudget { until_retired: (stop != u64::MAX).then_some(stop), until_cycles: None });
            match exit {
                Exit::BudgetExhausted => self.take_profile_sample(),
                Exit::Rdtsc { .. } | Exit::PioIn { .. } | Exit::MmioRead { .. } => return Ok(exit),
                Exit::Halt => return Err(self.diverge("guest halted while a data record was pending")),
                other => self.handle_intermediate(other)?,
            }
        }
    }

    /// The next instruction count to pause at for a profile sample, bounded
    /// by `target` when given. `u64::MAX` means "no sampling stop".
    fn next_profile_stop(&mut self, target: Option<u64>) -> u64 {
        let Some(step) = self.cfg.profile_sample_every else {
            return target.unwrap_or(u64::MAX);
        };
        if self.next_sample <= self.vm.retired() {
            self.next_sample = self.vm.retired() + step.max(1);
        }
        match target {
            Some(t) => self.next_sample.min(t),
            None => self.next_sample,
        }
    }

    /// Exits that replay handles locally, without consuming log records.
    fn handle_intermediate(&mut self, exit: Exit) -> Result<(), ReplayError> {
        let costs = self.cfg.costs;
        match exit {
            Exit::PioOut { port, value } => {
                self.charge(Category::PioMmio, costs.vmexit);
                match port {
                    PORT_DISK_SECTOR | PORT_DISK_ADDR | PORT_DISK_COUNT | PORT_DISK_CMD => {
                        self.disk.handle_out(port, value, 0);
                    }
                    PORT_CONSOLE => self.console.push(value as u8),
                    _ => {} // NIC transmit: outputs need no replay effect
                }
                self.vm.finish_io(FinishIo::Write);
            }
            Exit::MmioWrite { .. } => {
                self.charge(Category::PioMmio, costs.vmexit);
                self.vm.finish_io(FinishIo::Write);
            }
            Exit::Breakpoint { pc } => self.handle_breakpoint(pc),
            Exit::CallTrap { ret_addr, .. } => {
                self.callret_traps += 1;
                self.charge(Category::Other, costs.callret_trap);
                // After a retired call, sp names the slot holding ret_addr.
                let slot = self.vm.cpu().sp();
                if let Some(shadow) = self.shadow.as_mut() {
                    shadow.on_call(ret_addr, slot);
                }
            }
            Exit::RetTrap { ret_pc, target } => {
                self.callret_traps += 1;
                self.charge(Category::Other, costs.callret_trap);
                self.handle_shadow_ret(ret_pc, target);
            }
            Exit::Fault(kind) => return Err(ReplayError::GuestFault(kind)),
            other => {
                return Err(self.diverge_msg(format!("unexpected exit {other:?}")));
            }
        }
        Ok(())
    }

    fn handle_shadow_ret(&mut self, ret_pc: Addr, actual: Addr) {
        // After a retired ret, sp sits one word above the popped slot.
        let slot = self.vm.cpu().sp().wrapping_sub(8);
        let at_insn = self.vm.retired();
        if self.cfg.nesting_ret_sites.contains(&ret_pc) {
            // A known longjmp-style routine: fix the software RAS by
            // discarding the frames the unwind skipped (§4.5).
            let frames = self.shadow.as_mut().map_or(0, |s| s.on_nesting_ret(slot));
            self.shadow_events.push(ShadowEvent {
                at_insn,
                ret_pc,
                actual,
                kind: ShadowEventKind::MismatchUnwound { frames },
            });
            return;
        }
        let Some(shadow) = self.shadow.as_mut() else { return };
        let kind = match shadow.on_ret(ret_pc, actual, slot) {
            ShadowOutcome::Hit { .. } | ShadowOutcome::Whitelisted => return,
            ShadowOutcome::WhitelistViolation { .. } => ShadowEventKind::WhitelistViolation,
            ShadowOutcome::Underflow { .. } => {
                if self.book.match_evict(shadow.current_thread(), actual) {
                    ShadowEventKind::UnderflowMatched
                } else {
                    ShadowEventKind::UnderflowUnexplained
                }
            }
            ShadowOutcome::Mismatch { predicted, .. } => ShadowEventKind::MismatchUnexplained { predicted },
        };
        self.shadow_events.push(ShadowEvent { at_insn, ret_pc, actual, kind });
    }

    fn take_profile_sample(&mut self) {
        let step = self.cfg.profile_sample_every.unwrap_or(0).max(1);
        *self.profile.entry(self.vm.cpu().pc).or_insert(0) += 1;
        self.next_sample = self.vm.retired() + step;
    }

    fn handle_breakpoint(&mut self, pc: Addr) {
        let costs = self.cfg.costs;
        if pc == self.intro.switch_sp_trap() {
            let next = self.intro.next_thread_at_switch(&self.vm).unwrap_or(self.current_tid);
            let prev = self.current_tid;
            // Read before the BackRAS update clears it: the shadow RAS must
            // drop the dead thread's stack too.
            let killed = self.dying == Some(prev);
            if let Some(saved) = self.vm.cpu_mut().ras.save_backras() {
                if killed {
                    self.backras.remove(prev);
                    self.dying = None;
                } else {
                    self.backras.save(prev, saved);
                }
            }
            let entry = self.backras.load(next);
            self.vm.cpu_mut().ras.restore_backras(&entry);
            self.charge(Category::Ras, costs.vmexit + costs.ras_save + costs.ras_restore);
            if let Some(shadow) = self.shadow.as_mut() {
                if killed {
                    shadow.kill_thread(prev);
                }
                shadow.context_switch(next);
            }
            self.current_tid = next;
        } else if pc == self.intro.thread_create_trap() {
            let tid = self.intro.thread_at_commit(&self.vm);
            self.backras.allocate(tid);
            if let Some(shadow) = self.shadow.as_mut() {
                shadow.start_thread(tid);
            }
            self.charge(Category::Ras, costs.vmexit);
        } else if pc == self.intro.thread_exit_trap() {
            let tid = self.intro.thread_at_commit(&self.vm);
            self.dying = Some(tid);
            if let Some(shadow) = self.shadow.as_mut() {
                shadow.kill_thread(tid);
            }
            self.charge(Category::Ras, costs.vmexit);
        }
        self.vm.skip_breakpoint_once();
    }
}

//! The monitored-recording event loop (§3.1, §7).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use rnr_guest::layout;
use rnr_isa::Reg;
use rnr_log::{
    encode_frame, AlarmInfo, Category, DiskWriteStats, DurableWriter, InputLog, LogCursor, LogSink, Record,
    VrtAlarmInfo, DEFAULT_BATCH, MAX_FRAME_AGE_INSNS,
};
use rnr_machine::{
    CallRetTrap, CostModel, Digest, Exit, ExitControls, FaultKind, FinishIo, MachineConfig, SharedPageCache,
    IRQ_DISK, IRQ_NIC, IRQ_TIMER, MMIO_NIC_RX_LEN, MMIO_NIC_RX_PENDING, MMIO_NIC_RX_POP, PORT_CONSOLE,
    PORT_DISK_ADDR, PORT_DISK_CMD, PORT_DISK_COUNT, PORT_DISK_SECTOR, PORT_NIC_TX_ADDR, PORT_NIC_TX_CMD,
    PORT_NIC_TX_LEN, PORT_RNG, PORT_VRT_BASE, PORT_VRT_CMD, PORT_VRT_LEN, VRT_CMD_DECLARE, VRT_CMD_RETIRE,
};
use rnr_ras::{AttributionReport, RasAttribution, RasConfig, RasCounters, ThreadId};
use rnr_vrt::VrtParams;

use crate::{
    Checkpoint, CycleAttribution, GuestHost, NicDevice, NondetSource, PacketInjection, ThreadEvent, VmSpec,
};

/// The four recording setups of Figure 5(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RecordMode {
    /// No recording, paravirtual drivers (`NoRecPV`).
    NoRecPv,
    /// No recording, emulated (hypervisor-mediated) I/O (`NoRec`).
    NoRec,
    /// Recording without RAS save/restore at context switches (`RecNoRAS`).
    RecNoRas,
    /// Full monitored recording (`Rec`).
    Rec,
}

impl RecordMode {
    /// True if the input log is produced.
    pub fn is_recording(self) -> bool {
        matches!(self, RecordMode::RecNoRas | RecordMode::Rec)
    }

    /// True if the BackRAS extension (context-switch save/restore + the
    /// whitelists + alarms) is active.
    pub fn has_ras_extension(self) -> bool {
        self == RecordMode::Rec
    }

    /// True if the guest must be a paravirtual kernel.
    pub fn is_pv(self) -> bool {
        self == RecordMode::NoRecPv
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            RecordMode::NoRecPv => "NoRecPV",
            RecordMode::NoRec => "NoRec",
            RecordMode::RecNoRas => "RecNoRAS",
            RecordMode::Rec => "Rec",
        }
    }
}

/// Recorder configuration.
#[derive(Debug, Clone)]
pub struct RecordConfig {
    /// Recording setup.
    pub mode: RecordMode,
    /// Seed for all host non-determinism.
    pub seed: u64,
    /// Stop after this many retired guest instructions.
    pub until_retired: u64,
    /// Trap every call/return and run the lockstep counterfactual RAS
    /// analysis of Figure 8 (the paper's QEMU-emulation functional
    /// environment, §7.2). Only meaningful with [`RecordMode::Rec`].
    pub functional_ras_analysis: bool,
    /// Use the predecoded instruction cache (wall-clock optimization; never
    /// changes virtual cycles or digests).
    pub decode_cache: bool,
    /// Execute whole cached basic blocks between event horizons (wall-clock
    /// optimization; never changes virtual cycles, the log, or digests).
    pub block_engine: bool,
    /// Chain hot blocks into superblock traces (wall-clock optimization;
    /// never changes virtual cycles, the log, or digests). Requires
    /// `block_engine`.
    pub superblocks: bool,
    /// RAS capacity (the paper simulates 48).
    pub ras_capacity: usize,
    /// Cycle cost model.
    pub costs: CostModel,
    /// Program the hardware JOP table (Table 1, row 2) with the `n` most
    /// common functions of the guest images (`None` disables JOP alarms).
    /// `Some(usize::MAX)` tracks every function.
    pub jop_common_functions: Option<usize>,
    /// Stall the recorded VM at the first alarm instead of continuing
    /// ("depending on the risk tolerance of the workload, the recorded VM
    /// may be stopped until the alarm is analyzed, or allowed to continue",
    /// §3). With the §6 attack this halts the guest *before* any gadget
    /// executes.
    pub stall_on_alarm: bool,
    /// Capture a span seed, a [`Checkpoint`] with no replay-side history,
    /// roughly every this many retired instructions, cutting the log into
    /// spans a parallel checkpointing replayer can verify concurrently.
    /// [`Checkpoint::capture`] is pure reads plus `Arc` clones of the
    /// copy-on-write pages, so the log, its transport frames, cycles, and
    /// digests are byte-for-byte identical with seeding on or off. `None`
    /// disables capture.
    pub span_seed_every_insns: Option<u64>,
    /// Arm the Variable Record Table memory-safety detector (DESIGN.md §15)
    /// with these parameters. `None` leaves the recorded VM unarmed; replay
    /// VMs are *always* unarmed, so VRT alarms reach the replayer only
    /// through the log.
    pub vrt: Option<VrtParams>,
}

impl RecordConfig {
    /// Full recording with default costs.
    pub fn new(mode: RecordMode, seed: u64, until_retired: u64) -> RecordConfig {
        RecordConfig {
            mode,
            seed,
            until_retired,
            functional_ras_analysis: false,
            decode_cache: true,
            block_engine: true,
            superblocks: true,
            ras_capacity: RasConfig::DEFAULT_CAPACITY,
            costs: CostModel::default(),
            jop_common_functions: None,
            stall_on_alarm: false,
            span_seed_every_insns: None,
            vrt: None,
        }
    }
}

/// Errors before or during recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The spec's kernel flavour does not match the mode (PV vs emulated).
    KernelModeMismatch {
        /// Whether the mode wants a PV kernel.
        want_pv: bool,
    },
    /// The durable log store could not be created (I/O error message).
    DurableLog(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::KernelModeMismatch { want_pv } => {
                write!(
                    f,
                    "recording mode requires a {} kernel",
                    if *want_pv { "paravirtual" } else { "standard" }
                )
            }
            RecordError::DurableLog(msg) => write!(f, "durable log store: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Results of a recorded (or baseline) run.
#[derive(Debug, Clone)]
pub struct RecordOutcome {
    /// The input log (empty for non-recording modes), shared so replayers
    /// can attach without copying it.
    pub log: Arc<InputLog>,
    /// Total virtual cycles — the execution-time measure of every figure.
    pub cycles: u64,
    /// Retired guest instructions (the work measure held constant across
    /// modes).
    pub retired: u64,
    /// Digest of the final architectural state (VM + disk), for replay
    /// verification.
    pub final_digest: Digest,
    /// Overhead cycles attributed per event class (Figure 5(b)).
    pub attribution: CycleAttribution,
    /// RAS hardware counters (Figure 6(b) bandwidth, Figure 8 inputs).
    pub ras_counters: RasCounters,
    /// Number of ROP alarms inserted into the log.
    pub alarms: usize,
    /// Console output captured from the guest.
    pub console: Vec<u8>,
    /// Frames the guest transmitted.
    pub tx_frames: usize,
    /// The counterfactual false-alarm attribution (Figure 8), when
    /// `functional_ras_analysis` was on.
    pub fig8: Option<AttributionReport>,
    /// Guest fault that ended the run early, if any.
    pub fault: Option<FaultKind>,
    /// Final value of the guest's privilege flag (non-zero = the §6 attack
    /// escalated before detection/response).
    pub priv_flag: u64,
    /// Completed guest operations (sum of the per-thread counters at
    /// `layout::OPS_BASE`) — the fixed-work measure for mode comparisons.
    pub ops: u64,
    /// True when the run was stopped by the stall-on-alarm policy.
    pub stalled: bool,
    /// Guest kernel context switches observed at the interposition trap.
    pub context_switches: u64,
    /// Cycle timestamps of context switches, one per switch (feeds the
    /// Table 1 DOS watchdog).
    pub switch_trace: Vec<u64>,
    /// Basic-block cache counters (wall-clock diagnostics, never part of
    /// the verified report).
    pub block_stats: rnr_machine::BlockStats,
    /// Span seeds captured during recording (empty unless
    /// [`RecordConfig::span_seed_every_insns`] was set): checkpoints whose
    /// cursor is the number of records emitted before capture.
    pub span_seeds: Vec<Checkpoint>,
    /// What the durable writer persisted, and the disk faults and swallowed
    /// I/O errors it saw (all zero without [`Recorder::persist_to`]).
    pub disk: DiskWriteStats,
}

/// The recording hypervisor: drives one guest VM to an instruction budget,
/// emulating devices, injecting interrupts, and (in recording modes)
/// producing the input log.
#[derive(Debug)]
pub struct Recorder {
    host: GuestHost,
    config: RecordConfig,
    nondet: NondetSource,
    nic: NicDevice,
    log: FramedLog,
    pending_irqs: VecDeque<u8>,
    next_timer: u64,
    timer_period: u64,
    next_packet: Option<u64>,
    net: crate::NetProfile,
    injections: VecDeque<PacketInjection>,
    fig8: Option<RasAttribution>,
    vrt_base: u64,
    vrt_len: u64,
    alarms: usize,
    fault: Option<FaultKind>,
    stalled: bool,
    switch_trace: Vec<u64>,
    span_seeds: Vec<Checkpoint>,
    next_seed_at: u64,
}

impl Recorder {
    /// Prepares a recorder for `spec` under `config`.
    ///
    /// # Errors
    ///
    /// Fails if the spec's kernel flavour (PV vs emulated I/O) does not
    /// match the mode.
    pub fn new(spec: &VmSpec, config: RecordConfig) -> Result<Recorder, RecordError> {
        if spec.kernel.is_paravirtual() != config.mode.is_pv() {
            return Err(RecordError::KernelModeMismatch { want_pv: config.mode.is_pv() });
        }
        let mode = config.mode;
        let ras = if mode.has_ras_extension() {
            RasConfig::extended(config.ras_capacity)
        } else {
            // Baselines and the RecNoRAS ablation: no BackRAS, no alarms.
            let mut r = RasConfig::replay(config.ras_capacity);
            r.backras_enabled = false;
            r
        };
        let exits = ExitControls {
            rdtsc_exiting: mode.is_recording(),
            evict_exiting: mode.has_ras_extension(),
            callret_trap: if config.functional_ras_analysis { CallRetTrap::All } else { CallRetTrap::None },
        };
        let jop_table = config.jop_common_functions.map(|limit| crate::jop_table_from_spec(spec, limit));
        let machine = MachineConfig {
            syscall_entry: spec.kernel.syscall_entry(),
            ras,
            exits,
            jop_table,
            vrt: config.vrt.clone(),
            costs: config.costs,
            decode_cache: config.decode_cache,
            block_engine: config.block_engine,
            superblocks: config.superblocks,
        };
        let mut host = GuestHost::boot(spec, machine);
        if mode.has_ras_extension() {
            host.arm_traps();
        }
        let fig8 = config
            .functional_ras_analysis
            .then(|| RasAttribution::new(config.ras_capacity, spec.kernel.whitelists(), ThreadId(1)));
        let mut nondet = NondetSource::new(config.seed);
        let next_timer = spec.timer_period + nondet.timer_jitter(spec.timer_period);
        let next_packet = spec.net.mean_interarrival.map(|m| nondet.packet_gap(m));
        Ok(Recorder {
            host,
            nondet,
            nic: NicDevice::new(),
            log: FramedLog::default(),
            pending_irqs: VecDeque::new(),
            next_timer,
            timer_period: spec.timer_period,
            next_packet,
            net: spec.net.clone(),
            injections: spec.net.injections.iter().cloned().collect(),
            fig8,
            vrt_base: 0,
            vrt_len: 0,
            alarms: 0,
            fault: None,
            stalled: false,
            switch_trace: Vec::new(),
            span_seeds: Vec::new(),
            next_seed_at: config.span_seed_every_insns.unwrap_or(u64::MAX),
            config,
        })
    }

    /// Attaches a live sink: the recorder sends it every frame it cuts
    /// (full batch, frame age), so a concurrent checkpointing replayer can
    /// consume the stream while recording is still in progress.
    pub fn stream_to(&mut self, sink: LogSink) {
        self.log.sink = Some(sink);
        self.log.connect();
    }

    /// Attaches a durable segment-store writer (DESIGN.md §13): every frame
    /// the recorder cuts goes to the store before it reaches a live sink,
    /// and the writer's thread seals a segment every `frames_per_segment`
    /// frames and when recording finishes. Resilience only; the log,
    /// cycles, and digests are byte-for-byte identical with or without it.
    pub fn persist_to(&mut self, writer: DurableWriter) {
        self.log.durable = Some(writer);
        self.log.connect();
    }

    /// Does nothing: the recorder decodes into its own VM's cache. Kept
    /// only because the frozen repository benchmark calls it; deleted at
    /// the next change to `benchmark/`.
    pub fn attach_shared_cache(&mut self, _shared: Arc<SharedPageCache>) {}

    /// Appends a record to the log, cutting a frame when it fills.
    fn emit(&mut self, rec: Record) {
        self.log.push(rec, self.host.vm.retired());
    }

    /// Runs to the instruction budget and returns the outcome.
    pub fn run(mut self) -> RecordOutcome {
        let until = self.config.until_retired;
        loop {
            self.service_due_events();
            self.try_inject_pending();
            // Span seeds are captured only at quiescent loop tops: no
            // pending interrupt, no fault, budget not yet exhausted. At such
            // a point every emitted record is fully serviced, so (at_record,
            // at_insn) is a consistent cut of the execution.
            let retired = self.host.vm.retired();
            if self.config.mode.is_recording()
                && retired >= self.next_seed_at
                && retired < until
                && self.pending_irqs.is_empty()
                && self.fault.is_none()
                && !self.stalled
            {
                let cursor = LogCursor::new(self.log.records.len());
                let seed = Checkpoint::capture(&self.host, cursor, self.span_seeds.last());
                self.span_seeds.push(seed);
                self.next_seed_at =
                    retired.saturating_add(self.config.span_seed_every_insns.unwrap_or(u64::MAX));
            }
            if retired >= until || self.fault.is_some() || self.stalled {
                break;
            }
            self.log.cut_if_aged(retired);
            let deadline = self.next_event_cycle();
            let exit = self
                .host
                .vm
                .run(rnr_machine::RunBudget { until_retired: Some(until), until_cycles: Some(deadline) });
            self.handle_exit(exit);
        }
        if self.config.mode.is_recording() {
            self.emit(Record::End { at_insn: self.host.vm.retired(), at_cycle: self.host.vm.cycles() });
        }
        let disk = self.log.finish();
        if let Some(f) = self.fig8.as_mut() {
            f.add_instructions(self.host.vm.retired());
        }
        let final_digest = self.host.digest();
        RecordOutcome {
            cycles: self.host.vm.cycles(),
            retired: self.host.vm.retired(),
            final_digest,
            ras_counters: *self.host.vm.cpu().ras.counters(),
            alarms: self.alarms,
            tx_frames: self.nic.tx_frames().len(),
            fig8: self.fig8.as_ref().map(RasAttribution::report),
            fault: self.fault,
            stalled: self.stalled,
            priv_flag: self.host.intro().priv_flag(&self.host.vm),
            ops: (0..rnr_guest::layout::MAX_THREADS as u64)
                .map(|slot| {
                    self.host.vm.mem().read_u64(rnr_guest::layout::OPS_BASE + (slot + 1) * 8).unwrap_or(0)
                })
                .sum(),
            context_switches: self.switch_trace.len() as u64,
            block_stats: self.host.vm.block_stats(),
            switch_trace: self.switch_trace,
            console: self.host.console,
            span_seeds: self.span_seeds,
            disk,
            log: Arc::new(std::mem::take(&mut self.log.records)),
            attribution: self.host.attribution,
        }
    }

    fn next_event_cycle(&self) -> u64 {
        let mut next = self.next_timer;
        if let Some(op) = self.host.disk.in_flight().filter(|_| !self.disk_irq_raised()) {
            next = next.min(op.complete_at);
        }
        if let Some(p) = self.next_packet {
            next = next.min(p);
        }
        if let Some(inj) = self.injections.front() {
            next = next.min(inj.at_cycle);
        }
        next
    }

    fn service_due_events(&mut self) {
        let now = self.host.vm.cycles();
        // Timer.
        while self.next_timer <= now {
            self.pending_irqs.push_back(IRQ_TIMER);
            self.next_timer += self.timer_period + self.nondet.timer_jitter(self.timer_period);
        }
        // Disk completion: raise the interrupt once. The DMA itself lands
        // when the interrupt is delivered (`try_inject_pending`), which is
        // where replay performs it — at the `Interrupt` record — so a guest
        // that is masked, or a recording that stops, in between sees the
        // same memory in both.
        if self.host.disk.in_flight().is_some_and(|op| op.complete_at <= now) && !self.disk_irq_raised() {
            self.pending_irqs.push_back(IRQ_DISK);
        }
        // Benign packet arrivals.
        while let Some(at) = self.next_packet {
            if at > now {
                break;
            }
            let payload = self.nondet.benign_packet(&self.net);
            self.nic.enqueue_rx(payload);
            self.next_packet = self.net.mean_interarrival.map(|m| at + self.nondet.packet_gap(m));
        }
        // Crafted injections.
        while self.injections.front().is_some_and(|i| i.at_cycle <= now) {
            let inj = self.injections.pop_front().expect("front checked");
            self.nic.enqueue_rx(inj.payload);
        }
        self.try_deliver_nic();
    }

    fn try_deliver_nic(&mut self) {
        if let Some(frame) = self.nic.deliver(&mut self.host.vm) {
            if self.config.mode.is_recording() {
                let rec = Record::Dma {
                    source: rnr_log::DmaSource::Nic,
                    addr: layout::NIC_RX_BUF,
                    data: frame,
                    at_insn: self.host.vm.retired(),
                };
                self.host.charge(Category::Network, self.config.costs.log_append(rec.encoded_len()));
                self.emit(rec);
            }
            self.pending_irqs.push_back(IRQ_NIC);
        }
    }

    fn try_inject_pending(&mut self) {
        while let Some(&irq) = self.pending_irqs.front() {
            if !self.host.vm.can_inject() {
                self.host.vm.request_interrupt_window();
                return;
            }
            if irq == IRQ_DISK && self.host.disk.in_flight().is_some() {
                self.host.disk.complete(&mut self.host.vm);
            }
            match self.host.vm.inject_interrupt(irq) {
                Ok(()) => {
                    self.pending_irqs.pop_front();
                    if self.config.mode.is_recording() {
                        let rec = Record::Interrupt { irq, at_insn: self.host.vm.retired() };
                        self.host.charge(
                            Category::Interrupt,
                            self.config.costs.vmexit + self.config.costs.log_append(rec.encoded_len()),
                        );
                        self.emit(rec);
                    } else {
                        self.host.charge(Category::Interrupt, self.config.costs.irq_virtualized);
                    }
                }
                Err(rnr_machine::InjectError::BadVector(_)) => {
                    // Before the guest installs its IVT (early boot): drop.
                    self.pending_irqs.pop_front();
                }
                Err(_) => {
                    self.host.vm.request_interrupt_window();
                    return;
                }
            }
        }
    }

    /// True while a finished disk operation's interrupt awaits delivery.
    fn disk_irq_raised(&self) -> bool {
        self.pending_irqs.contains(&IRQ_DISK)
    }

    fn handle_exit(&mut self, exit: Exit) {
        let costs = self.config.costs;
        let recording = self.config.mode.is_recording();
        match exit {
            Exit::BudgetExhausted | Exit::InterruptWindow => {}
            Exit::Halt => {
                // Idle guest: fast-forward virtual time to the next event.
                let next = self.next_event_cycle().max(self.host.vm.cycles() + 1);
                let now = self.host.vm.cycles();
                self.host.vm.add_cycles(next - now);
            }
            Exit::Rdtsc { rd } => {
                let value = self.host.vm.cycles() + self.nondet.tsc_jitter();
                self.host.charge(Category::Rdtsc, costs.vmexit);
                if recording {
                    let rec = Record::Rdtsc { value };
                    self.host.charge(Category::Rdtsc, costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
                self.host.vm.finish_io(FinishIo::Read { rd, value });
            }
            Exit::PioIn { rd, port } => {
                let value = match port {
                    PORT_RNG => self.nondet.rng_port(),
                    _ => 0,
                };
                self.host.charge(Category::PioMmio, costs.vmexit);
                if recording {
                    let rec = Record::PioIn { port, value };
                    self.host.charge(Category::PioMmio, costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
                self.host.vm.finish_io(FinishIo::Read { rd, value });
            }
            Exit::PioOut { port, value } => {
                self.host.charge(Category::PioMmio, costs.vmexit);
                match port {
                    PORT_DISK_SECTOR | PORT_DISK_ADDR | PORT_DISK_COUNT | PORT_DISK_CMD
                        if self.host.disk.handle_out(port, value, 0) =>
                    {
                        // A command write started an operation; latch writes
                        // fall through to the arm below.
                        let op = self.host.disk.in_flight().expect("just started");
                        let latency = self.nondet.disk_latency(
                            op.count.max(1),
                            costs.disk_latency_base,
                            costs.disk_latency_per_sector,
                        );
                        self.host.disk.set_complete_at(self.host.vm.cycles() + latency);
                    }
                    PORT_NIC_TX_ADDR | PORT_NIC_TX_LEN | PORT_NIC_TX_CMD => {
                        self.nic.handle_out(port, value, &self.host.vm);
                    }
                    PORT_CONSOLE => self.host.console.push(value as u8),
                    // VRT doorbells: deterministic guest-visible no-ops (no
                    // readable state, no interrupt), so no log records — the
                    // replayer's generic PioOut arm charges the same vmexit
                    // and keeps cycle parity.
                    PORT_VRT_BASE => self.vrt_base = value,
                    PORT_VRT_LEN => self.vrt_len = value,
                    PORT_VRT_CMD => match value {
                        VRT_CMD_DECLARE => self.host.vm.vrt_declare(self.vrt_base, self.vrt_len),
                        VRT_CMD_RETIRE => self.host.vm.vrt_retire(self.vrt_base),
                        _ => {}
                    },
                    _ => {}
                }
                self.host.vm.finish_io(FinishIo::Write);
            }
            Exit::MmioRead { rd, addr } => {
                let value = match addr {
                    MMIO_NIC_RX_PENDING => self.nic.rx_pending() as u64 + (self.nic.mailbox_len() > 0) as u64,
                    MMIO_NIC_RX_LEN => self.nic.mailbox_len(),
                    _ => 0,
                };
                self.host.charge(Category::PioMmio, costs.vmexit);
                if recording {
                    let rec = Record::MmioRead { addr, value };
                    self.host.charge(Category::PioMmio, costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
                self.host.vm.finish_io(FinishIo::Read { rd, value });
            }
            Exit::MmioWrite { addr, value: _ } => {
                self.host.charge(Category::PioMmio, costs.vmexit);
                if addr == MMIO_NIC_RX_POP {
                    self.nic.pop_mailbox();
                }
                self.host.vm.finish_io(FinishIo::Write);
                if addr == MMIO_NIC_RX_POP {
                    self.try_deliver_nic();
                }
            }
            Exit::Vmcall => self.handle_vmcall(),
            Exit::Breakpoint { pc } => self.handle_breakpoint(pc),
            Exit::RasEvict { evicted, ret_addr } => {
                if let Some(f) = self.fig8.as_mut() {
                    f.on_call(ret_addr);
                }
                if recording {
                    let rec = Record::Evict { tid: self.host.current_tid(), addr: evicted };
                    self.host.charge(Category::Ras, costs.vmexit + costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
            }
            Exit::JopAlarm { branch_pc, target } => {
                self.alarms += 1;
                if self.config.stall_on_alarm {
                    self.stalled = true;
                }
                if recording {
                    let rec = Record::JopAlarm {
                        tid: self.host.current_tid(),
                        branch_pc,
                        target,
                        at_insn: self.host.vm.retired(),
                        at_cycle: self.host.vm.cycles(),
                    };
                    self.host.charge(Category::Ras, costs.vmexit + costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
            }
            Exit::VrtAlarm { kind, addr } => {
                self.alarms += 1;
                if self.config.stall_on_alarm {
                    self.stalled = true;
                }
                if recording {
                    let rec = Record::VrtAlarm(VrtAlarmInfo {
                        tid: self.host.current_tid(),
                        kind,
                        addr,
                        at_insn: self.host.vm.retired(),
                        at_cycle: self.host.vm.cycles(),
                    });
                    self.host.charge(Category::Ras, costs.vmexit + costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
            }
            Exit::RasMispredict(m) => {
                self.alarms += 1;
                if self.config.stall_on_alarm {
                    self.stalled = true;
                }
                if let Some(f) = self.fig8.as_mut() {
                    f.on_ret(m.ret_pc, m.actual);
                }
                if recording {
                    let rec = Record::Alarm(AlarmInfo {
                        tid: self.host.current_tid(),
                        mispredict: m,
                        at_insn: self.host.vm.retired(),
                        at_cycle: self.host.vm.cycles(),
                    });
                    self.host.charge(Category::Ras, costs.vmexit + costs.log_append(rec.encoded_len()));
                    self.emit(rec);
                }
            }
            Exit::CallTrap { ret_addr, .. } => {
                if let Some(f) = self.fig8.as_mut() {
                    f.on_call(ret_addr);
                }
            }
            Exit::RetTrap { ret_pc, target } => {
                if let Some(f) = self.fig8.as_mut() {
                    f.on_ret(ret_pc, target);
                }
            }
            Exit::Fault(kind) => {
                self.fault = Some(kind);
            }
        }
    }

    fn handle_vmcall(&mut self) {
        let costs = self.config.costs;
        let op = self.host.vm.cpu().reg(Reg::R1);
        let a2 = self.host.vm.cpu().reg(Reg::R2);
        let a3 = self.host.vm.cpu().reg(Reg::R3);
        let a4 = self.host.vm.cpu().reg(Reg::R4);
        self.host.charge(Category::PioMmio, costs.pv_hypercall);
        let result = match op {
            layout::pv::DISK_READ | layout::pv::DISK_WRITE => {
                let cmd = if op == layout::pv::DISK_READ {
                    rnr_machine::DISK_CMD_READ
                } else {
                    rnr_machine::DISK_CMD_WRITE
                };
                self.host.disk.handle_out(PORT_DISK_SECTOR, a2, 0);
                self.host.disk.handle_out(PORT_DISK_ADDR, a3, 0);
                self.host.disk.handle_out(PORT_DISK_COUNT, a4, 0);
                self.host.disk.handle_out(PORT_DISK_CMD, cmd, 0);
                self.host.disk.complete(&mut self.host.vm);
                // PV avoids the per-access exits and overlaps/merges
                // requests (virtio-style queueing): model as half the
                // effective device latency, still far from free.
                let latency = self.nondet.disk_latency(
                    a4.max(1),
                    costs.disk_latency_base,
                    costs.disk_latency_per_sector,
                );
                self.host.vm.add_cycles(latency / 2);
                0
            }
            layout::pv::NET_RECV => {
                // Blocking poll: fast-forward to the next arrival if idle.
                if self.nic.rx_pending() == 0 {
                    if let Some(at) = self.next_arrival_cycle() {
                        let now = self.host.vm.cycles();
                        if at > now {
                            self.host.vm.add_cycles(at - now);
                        }
                        self.service_net_arrivals();
                    }
                }
                match self.nic.take_rx() {
                    Some(mut frame) => {
                        let padded = frame.len().div_ceil(32) * 32;
                        frame.resize(padded.min(layout::NIC_MTU), 0);
                        let len = frame.len() as u64;
                        let _ = self.host.vm.mem_mut().write_bytes(a2, &frame);
                        len
                    }
                    None => u64::MAX,
                }
            }
            layout::pv::NET_TX => {
                self.nic.handle_out(PORT_NIC_TX_ADDR, a2, &self.host.vm);
                self.nic.handle_out(PORT_NIC_TX_LEN, a3, &self.host.vm);
                self.nic.handle_out(PORT_NIC_TX_CMD, 1, &self.host.vm);
                0
            }
            _ => u64::MAX,
        };
        self.host.vm.finish_io(FinishIo::Read { rd: Reg::R1, value: result });
    }

    fn next_arrival_cycle(&self) -> Option<u64> {
        match (self.next_packet, self.injections.front().map(|i| i.at_cycle)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn service_net_arrivals(&mut self) {
        let now = self.host.vm.cycles();
        while let Some(at) = self.next_packet {
            if at > now {
                break;
            }
            let payload = self.nondet.benign_packet(&self.net);
            self.nic.enqueue_rx(payload);
            self.next_packet = self.net.mean_interarrival.map(|m| at + self.nondet.packet_gap(m));
        }
        while self.injections.front().is_some_and(|i| i.at_cycle <= now) {
            let inj = self.injections.pop_front().expect("front checked");
            self.nic.enqueue_rx(inj.payload);
        }
    }

    /// Feeds an interposition trap's thread event to the switch trace and
    /// the Figure 8 analysis; the host keeps the BackRAS. The switch is
    /// stamped with the cycle before its exit is charged.
    fn handle_breakpoint(&mut self, pc: rnr_isa::Addr) {
        let now = self.host.vm.cycles();
        match self.host.on_breakpoint(pc) {
            Some(ThreadEvent::Switch { next, .. }) => {
                self.switch_trace.push(now);
                if let Some(f) = self.fig8.as_mut() {
                    f.on_context_switch(next);
                }
            }
            Some(ThreadEvent::Exited(tid)) => {
                if let Some(f) = self.fig8.as_mut() {
                    f.on_thread_exit(tid);
                }
            }
            Some(ThreadEvent::Created(_)) | None => {}
        }
    }
}

/// The recorder's input log and the one place it is framed. A frame closes
/// when it holds [`DEFAULT_BATCH`] records, and at the first loop top once
/// its oldest record is [`MAX_FRAME_AGE_INSNS`] old, so the CR trails a
/// sparse log instead of waiting for the recording to end. Span seeds
/// never cut a frame, so a recording's frames are the same with seeding on
/// or off. A cut encodes the frame once and hands the same bytes to the
/// durable writer, then to the live sink, so disk and wire sequence
/// numbers are equal. With both outputs attached the writer publishes its
/// seal mark to the sink's stream, so a refetch never races a seal.
/// Without either output nothing is framed.
#[derive(Debug, Default)]
struct FramedLog {
    records: InputLog,
    /// Records already cut into frames; the rest is the pending frame.
    framed: usize,
    /// Sequence number of the pending frame.
    next_seq: u64,
    /// Retired instructions when the pending frame's oldest record was
    /// logged; `None` while no frame is pending.
    opened_at: Option<u64>,
    durable: Option<DurableWriter>,
    sink: Option<LogSink>,
}

impl FramedLog {
    /// Appends `rec`, logged at `retired` instructions, and cuts the
    /// pending frame once it is full.
    fn push(&mut self, rec: Record, retired: u64) {
        self.records.push(rec);
        if self.durable.is_none() && self.sink.is_none() {
            return;
        }
        self.opened_at.get_or_insert(retired);
        if self.records.len() - self.framed >= DEFAULT_BATCH {
            self.cut();
        }
    }

    /// Connects the durable writer's seal mark to the sink's stream once
    /// both are attached.
    fn connect(&mut self) {
        if let (Some(writer), Some(sink)) = (self.durable.as_mut(), self.sink.as_ref()) {
            writer.connect(sink);
        }
    }

    /// Cuts the pending frame once its oldest record is
    /// [`MAX_FRAME_AGE_INSNS`] old at `retired` instructions.
    fn cut_if_aged(&mut self, retired: u64) {
        if self.opened_at.is_some_and(|at| retired - at >= MAX_FRAME_AGE_INSNS) {
            self.cut();
        }
    }

    fn cut(&mut self) {
        if let Some((seq, frame)) = self.cut_to_disk() {
            if let Some(sink) = self.sink.as_mut() {
                sink.send(seq, frame);
            }
        }
    }

    /// Encodes the pending frame and appends it to the durable writer;
    /// returns it, with its sequence number, for the live sink. A frame
    /// reaches disk when the writer's thread seals its segment, so most
    /// frames are sent before they are on disk: a refetch of a frame whose
    /// segment was handed to the thread waits for that seal, and one of
    /// the segment the writer still fills falls back to the sink's
    /// retained copy.
    fn cut_to_disk(&mut self) -> Option<(u64, Bytes)> {
        self.opened_at = None;
        // Outputs first: once `Recorder::run` has taken the outputs and the
        // records, `framed` lies past the records' end.
        if self.durable.is_none() && self.sink.is_none() {
            return None;
        }
        let records = &self.records.records()[self.framed..];
        if records.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        let frame = encode_frame(seq, records);
        if let Some(writer) = self.durable.as_mut() {
            writer.append(seq, records, frame.clone());
        }
        self.next_seq += 1;
        self.framed = self.records.len();
        Some((seq, frame))
    }

    /// Cuts the last frame and seals the store, joining the writer's
    /// thread, before the sink sends that frame and hangs up: a refetch of
    /// the tail must find it on disk (with any planned damage already
    /// applied). Returns what the writer persisted.
    fn finish(&mut self) -> DiskWriteStats {
        let last = self.cut_to_disk();
        let disk = self.durable.take().map(DurableWriter::finish).unwrap_or_default();
        if let Some(mut sink) = self.sink.take() {
            if let Some((seq, frame)) = last {
                sink.send(seq, frame);
            }
            sink.finish();
        }
        disk
    }
}

impl Drop for FramedLog {
    /// A recorder that unwinds still cuts, seals and sends its last frame,
    /// disk first.
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_guest::KernelBuilder;
    use rnr_log::{log_channel, DurableLogConfig, DurableStore, FaultPlan};

    /// A recorder dropped before its end — as an unwinding one is — keeps
    /// its uncut frame: the reopened store and the stream both hold it.
    #[test]
    fn dropped_recorder_seals_and_sends_its_uncut_frame() {
        let dir = std::env::temp_dir().join(format!("rnr-recorder-drop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = VmSpec::new(KernelBuilder::new().build(), "bare");
        let mut recorder = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 1, 1_000)).unwrap();
        recorder
            .persist_to(DurableWriter::create(DurableLogConfig::new(&dir), &FaultPlan::default()).unwrap());
        let (sink, stream) = log_channel(&FaultPlan::default());
        recorder.stream_to(sink);
        let records: Vec<Record> = (0..3).map(|value| Record::Rdtsc { value }).collect();
        assert!(records.len() < DEFAULT_BATCH);
        for record in &records {
            recorder.emit(record.clone());
        }
        drop(recorder);
        let store = DurableStore::open(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let store = store.unwrap();
        assert!(store.scan().clean(), "{:?}", store.scan());
        assert_eq!(store.frame_count(), 1);
        assert_eq!(store.frame(0).unwrap(), &records[..]);
        assert_eq!(stream.into_log().records(), &records[..]);
    }
}

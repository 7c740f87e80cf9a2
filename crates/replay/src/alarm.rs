//! The alarm replayer: resolve an alarm into a false positive, a
//! characterized ROP attack (§4.6.2, §6), or — for the VRT detector family
//! (DESIGN.md §15) — a characterized memory-safety violation.

use std::collections::BTreeMap;
use std::sync::Arc;

use rnr_guest::layout;
use rnr_hypervisor::{GuestHost, VmSpec};
use rnr_isa::{disasm, Addr, Opcode};
use rnr_log::{AlarmInfo, InputLog, Record, VrtAlarmInfo};
use rnr_machine::{BlockStats, CallRetTrap};
use rnr_ras::ThreadId;
use rnr_vrt::{coverage, VrtKind};

use crate::engine::{ShadowEvent, ShadowEventKind};
use crate::{AlarmCase, CaseKind, Checkpoint, ReplayConfig, ReplayError, Replayer};

/// Why an alarm was *not* an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FalsePositiveKind {
    /// RAS underflow whose target matched the thread's latest evict record
    /// (§4.5/§4.6.2).
    MatchedEvict,
    /// Imperfect procedure nesting (setjmp/longjmp-style unwind, §4.5).
    ImperfectNesting {
        /// Stack frames the unwind discarded.
        unwound_frames: usize,
    },
    /// The unbounded software RAS predicted the return correctly: the alarm
    /// was an artifact of the bounded hardware RAS.
    HardwareCapacity,
    /// VRT: the store hit a live allocation's partial head/tail granule —
    /// coverage rounding (the table watches whole granules only) made the
    /// hardware blind to the region's exact bounds (DESIGN.md §15).
    CoarseBounds,
    /// VRT: the store hit a live allocation whose table entry had been
    /// capacity-evicted, so the hardware no longer knew the region existed.
    EvictedRegion,
    /// VRT: the store hit a returned-frame watch window that no longer
    /// described dead stack — the frame bytes were live again (reuse by a
    /// deeper call, or a longjmp unwound past the bookkeeping).
    StaleFrame,
}

/// One decoded element of the attacker's stack payload.
#[derive(Debug, Clone)]
pub struct GadgetUse {
    /// Stack slot address the word was read from.
    pub stack_addr: Addr,
    /// The word itself.
    pub value: u64,
    /// Nearest kernel symbol, when the word points into the kernel image.
    pub symbol: Option<String>,
    /// Disassembly of the gadget (up to and including its terminating
    /// control transfer), when the word points at decodable kernel text.
    pub listing: Option<String>,
}

/// The §6 attack characterization: "how was the attack possible", "who
/// attacked the machine", "what did the attacker do".
#[derive(Debug, Clone)]
pub struct RopReport {
    /// Thread executing the hijacked return.
    pub tid: ThreadId,
    /// PC of the hijacked return instruction.
    pub ret_pc: Addr,
    /// Symbol of the vulnerable procedure containing the return.
    pub vulnerable_symbol: Option<String>,
    /// Where control actually went: the first gadget.
    pub actual_target: Addr,
    /// The legitimate return address (top of the simulated RAS) — the call
    /// site of the vulnerable procedure.
    pub call_site: Option<Addr>,
    /// The gadget chain decoded from the corrupted stack.
    pub gadget_chain: Vec<GadgetUse>,
    /// Retired-instruction count of the attack point.
    pub at_insn: u64,
    /// Virtual cycle of the attack point.
    pub at_cycle: u64,
    /// Live guest threads at the attack point (`(tid, state)`).
    pub threads: Vec<(ThreadId, u64)>,
    /// The guest privilege flag at the attack point — still clean, because
    /// the state "has not been polluted by the execution of any gadget".
    pub priv_flag_at_alarm: u64,
}

impl std::fmt::Display for RopReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ROP attack: return at {:#x} ({}) hijacked to {:#x}",
            self.ret_pc,
            self.vulnerable_symbol.as_deref().unwrap_or("?"),
            self.actual_target
        )?;
        writeln!(f, "  thread: {}; call site: {:?}", self.tid, self.call_site.map(|a| format!("{a:#x}")))?;
        writeln!(f, "  at instruction {}, cycle {}", self.at_insn, self.at_cycle)?;
        writeln!(f, "  stack payload:")?;
        for g in &self.gadget_chain {
            writeln!(
                f,
                "    [{:#x}] {:#018x}  {:<16} {}",
                g.stack_addr,
                g.value,
                g.symbol.as_deref().unwrap_or("-"),
                g.listing.as_deref().unwrap_or("(data)")
            )?;
        }
        Ok(())
    }
}

/// The memory-safety violation characterization (DESIGN.md §15): where the
/// offending store landed, which allocation it escaped, and the machine
/// context at the alarm point.
#[derive(Debug, Clone)]
pub struct MemReport {
    /// Thread executing the offending store.
    pub tid: ThreadId,
    /// Which VRT watch family fired.
    pub kind: VrtKind,
    /// First byte of the offending store.
    pub addr: Addr,
    /// The nearest live allocation at or below `addr` (`(base, len)`), when
    /// one exists — for a heap overflow, the allocation that was overrun.
    pub region: Option<(Addr, u64)>,
    /// The stack pointer at the alarm point.
    pub sp_at_alarm: Addr,
    /// Retired-instruction count of the violation.
    pub at_insn: u64,
    /// Virtual cycle of the violation.
    pub at_cycle: u64,
    /// Live guest threads at the violation (`(tid, state)`).
    pub threads: Vec<(ThreadId, u64)>,
    /// The guest privilege flag at the alarm point.
    pub priv_flag_at_alarm: u64,
}

impl std::fmt::Display for MemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let family = match self.kind {
            VrtKind::Heap => "heap overflow",
            VrtKind::Stack => "use-after-return",
        };
        writeln!(f, "memory-safety violation ({family}): store to {:#x}", self.addr)?;
        match self.region {
            Some((base, len)) => {
                writeln!(f, "  escaped allocation: [{:#x}, {:#x}) ({len} bytes)", base, base + len)?
            }
            None => writeln!(f, "  no live allocation near the store")?,
        }
        writeln!(f, "  thread: {}; sp at alarm: {:#x}", self.tid, self.sp_at_alarm)?;
        writeln!(f, "  at instruction {}, cycle {}", self.at_insn, self.at_cycle)?;
        Ok(())
    }
}

/// Outcome of alarm resolution.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Benign: the alarm is discarded.
    FalsePositive(FalsePositiveKind),
    /// A real ROP attack, fully characterized.
    RopAttack(Box<RopReport>),
    /// A real heap overflow: the store landed outside every precisely-live
    /// allocation (DESIGN.md §15).
    HeapOverflow(Box<MemReport>),
    /// A real use-after-return: the store landed in dead stack, below the
    /// stack pointer at the alarm point (DESIGN.md §15).
    UseAfterReturn(Box<MemReport>),
}

impl Verdict {
    /// True for every attack verdict ([`Verdict::RopAttack`],
    /// [`Verdict::HeapOverflow`], [`Verdict::UseAfterReturn`]).
    pub fn is_attack(&self) -> bool {
        matches!(self, Verdict::RopAttack(_) | Verdict::HeapOverflow(_) | Verdict::UseAfterReturn(_))
    }
}

/// The alarm replayer (§4.6.2): replays from the checkpoint preceding an
/// alarm, trapping every call and return to model an unbounded multithreaded
/// software RAS, and classifies the alarm.
#[derive(Debug)]
pub struct AlarmReplayer<'a> {
    spec: &'a VmSpec,
    log: Arc<InputLog>,
    config: ReplayConfig,
}

impl<'a> AlarmReplayer<'a> {
    /// An alarm replayer over the given recording.
    pub fn new(spec: &'a VmSpec, log: Arc<InputLog>) -> AlarmReplayer<'a> {
        let config = ReplayConfig {
            checkpoint_interval: None,
            callret: CallRetTrap::All,
            collect_cases: false,
            nesting_ret_sites: nesting_sites(spec),
            ..ReplayConfig::default()
        };
        AlarmReplayer { spec, log, config }
    }

    /// Does nothing: each alarm replay decodes into its own VM's cache.
    /// Kept only because the frozen repository benchmark calls it; deleted
    /// at the next change to `benchmark/`.
    pub fn with_shared_cache(self, _shared: Arc<rnr_machine::SharedPageCache>) -> AlarmReplayer<'a> {
        self
    }

    /// Overrides the replay configuration (cost model, RAS capacity, ...).
    pub fn with_config(mut self, config: ReplayConfig) -> AlarmReplayer<'a> {
        let sites = if config.nesting_ret_sites.is_empty() {
            nesting_sites(self.spec)
        } else {
            config.nesting_ret_sites.clone()
        };
        self.config = ReplayConfig {
            callret: CallRetTrap::All,
            collect_cases: false,
            nesting_ret_sites: sites,
            ..config
        };
        self
    }

    /// An alarm-replay pass from `checkpoint` (§4.6.2, Fig. 9): one
    /// replayer, trapping every call and return to model the software RAS,
    /// that resolves the cases sharing this checkpoint in log order through
    /// [`ArPass::resolve_next`].
    pub fn pass(&self, checkpoint: &Checkpoint) -> ArPass<'_> {
        let replayer = Replayer::from_checkpoint(
            self.spec,
            Arc::clone(&self.log),
            self.config.clone(),
            checkpoint,
            true,
        );
        ArPass { ar: self, replayer }
    }

    /// Resolves one alarm case on its own pass: replays from its checkpoint
    /// to the alarm marker and classifies the violation — a RAS
    /// misprediction through the software shadow RAS, a VRT memory-safety
    /// alarm against the guest's precise allocation state. Returns the
    /// verdict and the virtual cycles replayed from the checkpoint to the
    /// alarm (the per-alarm cost of Fig. 9 and the §8.4 window).
    ///
    /// # Errors
    ///
    /// Propagates replay divergence/fault errors, and rejects a case whose
    /// `alarm_index` does not name its alarm record (see
    /// [`ArPass::resolve_next`]).
    pub fn resolve(&self, case: &AlarmCase) -> Result<(Verdict, u64), ReplayError> {
        self.pass(&case.checkpoint).resolve_next(case)
    }

    /// Classifies a VRT memory-safety alarm by pure geometry against the
    /// replayed guest state at the alarm point (DESIGN.md §15): the kernel's
    /// precise allocation table says exactly which heap regions were live,
    /// and the replayed stack pointer says exactly where the live stack
    /// ended. The hardware's noisy rules (capacity eviction, coarse granule
    /// rounding, stale frame windows) are each refuted — or confirmed — from
    /// that precise state.
    fn classify_vrt(&self, alarm: &VrtAlarmInfo, host: &GuestHost) -> Verdict {
        let vm = &host.vm;
        let params = self.config.vrt.clone().unwrap_or_default();
        let addr = alarm.addr;
        match alarm.kind {
            VrtKind::Heap => {
                // Walk the kernel's precise allocation table in replayed
                // guest memory; unlike the bounded hardware table it is
                // never evicted and never rounded.
                let mut nearest: Option<(Addr, u64)> = None;
                for slot in 0..layout::VRT_HEAP_SLOTS as u64 {
                    let entry = layout::VRT_ALLOC_TABLE + slot * 16;
                    let (Ok(base), Ok(len)) = (vm.mem().read_u64(entry), vm.mem().read_u64(entry + 8)) else {
                        continue;
                    };
                    if len == 0 {
                        continue;
                    }
                    if base <= addr && nearest.is_none_or(|(b, _)| b < base) {
                        nearest = Some((base, len));
                    }
                    if !(base..base + len).contains(&addr) {
                        continue;
                    }
                    // The store hit a precisely-live allocation: a false
                    // positive either way — the only question is which noisy
                    // hardware rule caused it.
                    let (lo, hi) = coverage(base, len, params.granule);
                    let fp = if (lo..hi).contains(&addr) {
                        FalsePositiveKind::EvictedRegion
                    } else {
                        FalsePositiveKind::CoarseBounds
                    };
                    return Verdict::FalsePositive(fp);
                }
                Verdict::HeapOverflow(Box::new(self.build_mem_report(alarm, host, nearest)))
            }
            VrtKind::Stack => {
                let sp = vm.cpu().sp();
                if addr < sp {
                    // Below the live stack at the alarm point: the store
                    // went through a pointer into a dead frame.
                    Verdict::UseAfterReturn(Box::new(self.build_mem_report(alarm, host, None)))
                } else {
                    Verdict::FalsePositive(FalsePositiveKind::StaleFrame)
                }
            }
        }
    }

    fn build_mem_report(
        &self,
        alarm: &VrtAlarmInfo,
        host: &GuestHost,
        region: Option<(Addr, u64)>,
    ) -> MemReport {
        let (vm, intro) = (&host.vm, host.intro());
        MemReport {
            tid: alarm.tid,
            kind: alarm.kind,
            addr: alarm.addr,
            region,
            sp_at_alarm: vm.cpu().sp(),
            at_insn: alarm.at_insn,
            at_cycle: alarm.at_cycle,
            threads: intro.thread_table(vm),
            priv_flag_at_alarm: intro.priv_flag(vm),
        }
    }

    fn classify(&self, alarm: &AlarmInfo, host: &GuestHost, events: &[ShadowEvent]) -> Verdict {
        let event =
            events.iter().rev().find(|e| e.at_insn == alarm.at_insn && e.ret_pc == alarm.mispredict.ret_pc);
        match event.map(|e| e.kind) {
            // The software RAS predicted this return correctly: bounded-
            // hardware artifact.
            None => Verdict::FalsePositive(FalsePositiveKind::HardwareCapacity),
            Some(ShadowEventKind::UnderflowMatched) => {
                Verdict::FalsePositive(FalsePositiveKind::MatchedEvict)
            }
            Some(ShadowEventKind::MismatchUnwound { frames }) => {
                Verdict::FalsePositive(FalsePositiveKind::ImperfectNesting { unwound_frames: frames })
            }
            Some(ShadowEventKind::UnderflowUnexplained) | Some(ShadowEventKind::WhitelistViolation) => {
                Verdict::RopAttack(Box::new(self.build_report(alarm, host, None)))
            }
            Some(ShadowEventKind::MismatchUnexplained { predicted }) => {
                Verdict::RopAttack(Box::new(self.build_report(alarm, host, Some(predicted))))
            }
        }
    }

    fn build_report(&self, alarm: &AlarmInfo, host: &GuestHost, predicted: Option<Addr>) -> RopReport {
        let (vm, intro) = (&host.vm, host.intro());
        let image = self.spec.kernel.image();
        let sp = vm.cpu().sp();
        // Decode the attacker's payload: walk the stack words above the
        // consumed return slot (Figure 10(f)).
        let mut chain = Vec::new();
        for i in 0..12u64 {
            let stack_addr = sp + i * 8;
            let Ok(value) = vm.mem().read_u64(stack_addr) else { break };
            let in_text = value >= image.base() && value < image.end();
            let listing = in_text.then(|| self.gadget_listing(value)).flatten();
            let symbol = in_text.then(|| image.symbolize(value).map(|(s, _)| s.to_string())).flatten();
            chain.push(GadgetUse { stack_addr, value, symbol, listing });
        }
        RopReport {
            tid: alarm.tid,
            ret_pc: alarm.mispredict.ret_pc,
            vulnerable_symbol: image.symbolize(alarm.mispredict.ret_pc).map(|(s, _)| s.to_string()),
            actual_target: alarm.mispredict.actual,
            call_site: predicted.or(alarm.mispredict.predicted),
            gadget_chain: chain,
            at_insn: alarm.at_insn,
            at_cycle: alarm.at_cycle,
            threads: intro.thread_table(vm),
            priv_flag_at_alarm: intro.priv_flag(vm),
        }
    }

    /// Disassembles a gadget: instructions from `addr` up to and including
    /// the first control transfer (bounded at 6).
    fn gadget_listing(&self, addr: Addr) -> Option<String> {
        let image = self.spec.kernel.image();
        let mut lines = Vec::new();
        let mut pc = addr;
        for _ in 0..6 {
            let insn = image.decode_at(pc).ok()?;
            lines.push(disasm(&insn));
            if insn.op.is_control_flow() || insn.op == Opcode::Hlt {
                break;
            }
            pc += 8;
        }
        Some(lines.join("; "))
    }
}

/// One alarm-replay pass: a replayer started from one checkpoint that
/// resolves the cases sharing it in log order. It stops at each alarm
/// record, classifies the alarm there, and continues. A replay stopped after
/// a record and then resumed is the same replay, so each verdict and each
/// cycle count equals what [`AlarmReplayer::resolve`] gives for that case
/// alone; the host just stops re-executing the shared prefix.
#[derive(Debug)]
pub struct ArPass<'a> {
    ar: &'a AlarmReplayer<'a>,
    replayer: Replayer,
}

impl ArPass<'_> {
    /// Replays on to `case`'s alarm record and classifies it. Returns the
    /// verdict and the virtual cycles replayed from the pass's checkpoint to
    /// the alarm. Cases must come in ascending `alarm_index`.
    ///
    /// # Errors
    ///
    /// Propagates replay divergence/fault errors. Returns
    /// [`ReplayError::Divergence`] when `alarm_index` lies before the pass's
    /// position, when the log ends before it, or when the record there is
    /// not the case's alarm (an `Alarm` for a RAS case, a `VrtAlarm` for a
    /// VRT case, at the case's instruction count) — classifying whatever
    /// state such a record leaves would be a silent wrong verdict.
    pub fn resolve_next(&mut self, case: &AlarmCase) -> Result<(Verdict, u64), ReplayError> {
        let index = case.alarm_index;
        if index < self.replayer.position() {
            let at = self.replayer.position();
            return Err(
                self.misaligned(case, format!("record {index} lies before the pass (at record {at})"))
            );
        }
        let names_alarm = match (self.ar.log.records().get(index), &case.kind) {
            (Some(Record::Alarm(info)), CaseKind::Ras(_)) => info.at_insn == case.at_insn(),
            (Some(Record::VrtAlarm(info)), CaseKind::Vrt(_)) => info.at_insn == case.at_insn(),
            _ => false,
        };
        if !names_alarm {
            return Err(self.misaligned(case, format!("record {index} is not the case's alarm")));
        }
        self.replayer.drive_to_record(index)?;
        if self.replayer.position() != index + 1 {
            return Err(self.misaligned(case, format!("the log ended before record {index}")));
        }
        let host = &self.replayer.host;
        let verdict = match &case.kind {
            CaseKind::Ras(info) => self.ar.classify(info, host, self.replayer.shadow_events()),
            CaseKind::Vrt(info) => self.ar.classify_vrt(info, host),
        };
        Ok((verdict, self.replayer.cycles_replayed()))
    }

    /// Block-cache counters of the pass's VM so far (wall-clock diagnostics).
    pub fn block_stats(&self) -> BlockStats {
        self.replayer.host.vm.block_stats()
    }

    fn misaligned(&self, case: &AlarmCase, detail: String) -> ReplayError {
        ReplayError::Divergence {
            at_insn: self.replayer.host.vm.retired(),
            detail: format!("alarm case at instruction {}: {detail}", case.at_insn()),
        }
    }
}

/// Groups alarm cases for alarm-replay passes: indices into `cases` (in log
/// order, as the CR emits them), one group per checkpoint id, groups in
/// checkpoint order. Cases with different checkpoints never share a group:
/// a pass from an earlier checkpoint seeds its shadow RAS earlier, which can
/// change a verdict (a hardware-capacity dismissal against an underflow,
/// say).
pub fn checkpoint_groups(cases: &[AlarmCase]) -> Vec<Vec<usize>> {
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, case) in cases.iter().enumerate() {
        groups.entry(case.checkpoint.id).or_default().push(i);
    }
    groups.into_values().collect()
}

/// Finds the return instructions of known non-local-unwind routines in the
/// guest images (the `longjmp` of the user runtime). Real deployments get
/// these from symbol tables the same way.
fn nesting_sites(spec: &VmSpec) -> Vec<Addr> {
    let mut sites = Vec::new();
    for image in std::iter::once(spec.kernel.image()).chain(spec.extra_images.iter()) {
        if let Some(start) = image.symbol("u_longjmp") {
            let mut pc = start;
            while let Ok(insn) = image.decode_at(pc) {
                if insn.op == Opcode::Ret {
                    sites.push(pc);
                    break;
                }
                pc += 8;
            }
        }
    }
    sites
}

/// Replay-side verdict for a JOP alarm (Table 1, row 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JopVerdict {
    /// The target is a function entry in the *full* table: the hardware's
    /// common-function subset simply did not know it — a false positive.
    FalsePositive,
    /// Illegal even against every function in the images: a control-flow
    /// hijack into a function body.
    JopAttack,
}

/// Resolves a JOP alarm against the full function table of the guest
/// images ("the replay verifies the same conditions for the less common
/// functions", Table 1).
pub fn resolve_jop(spec: &VmSpec, case: &crate::JopCase) -> JopVerdict {
    let full = rnr_hypervisor::jop_table_from_spec(spec, usize::MAX);
    if full.is_legal(case.branch_pc, case.target) {
        JopVerdict::FalsePositive
    } else {
        JopVerdict::JopAttack
    }
}

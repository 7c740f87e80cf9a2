//! The guest VM: interpreter loop, exits, interrupt injection.

use std::fmt;

use rnr_isa::{Addr, Image, Instruction, Opcode, Reg};
use rnr_ras::RasOutcome;

use crate::digest::Fnv1a;
use crate::icache::{
    BlockCache, BlockInfo, BlockStats, TraceBody, TraceOp, TracePage, TRACE_HEAT, TRACE_MAX_OPS,
    TRACE_MAX_PAGES,
};
use crate::{
    is_mmio, CallRetTrap, Cpu, Digest, Exit, ExitControls, FaultKind, FinishIo, MachineConfig, MemError,
    Memory, Mode,
};

/// Run budget for [`GuestVm::run`].
///
/// `until_retired` is an *absolute* retired-instruction count: the replayers
/// use it to stop exactly at an asynchronous event's injection point (§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Stop (with [`Exit::BudgetExhausted`]) once the retired-instruction
    /// counter reaches this value. `None` runs until another exit occurs.
    pub until_retired: Option<u64>,
    /// Stop once the cycle counter reaches this value (device-event
    /// deadlines in the hypervisor's virtual-time event loop).
    pub until_cycles: Option<u64>,
}

impl RunBudget {
    /// Run until `count` total instructions have retired.
    pub fn until(count: u64) -> RunBudget {
        RunBudget { until_retired: Some(count), until_cycles: None }
    }

    /// Run until the cycle counter reaches `cycles`.
    pub fn until_cycles(cycles: u64) -> RunBudget {
        RunBudget { until_retired: None, until_cycles: Some(cycles) }
    }

    /// No instruction or cycle bound.
    pub fn unbounded() -> RunBudget {
        RunBudget::default()
    }
}

/// Error from [`GuestVm::inject_interrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The guest has interrupts disabled; request an interrupt window.
    Disabled,
    /// The IVT entry for this IRQ is zero (kernel not initialized).
    BadVector(u8),
    /// The guest stack could not hold the interrupt frame.
    MemFault,
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::Disabled => write!(f, "guest interrupts disabled"),
            InjectError::BadVector(irq) => write!(f, "no handler installed for irq {irq}"),
            InjectError::MemFault => write!(f, "interrupt frame push faulted"),
        }
    }
}

impl std::error::Error for InjectError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingIo {
    rd: Option<Reg>,
}

/// The simulated guest machine: CPU + memory, driven by a hypervisor.
///
/// See the crate docs for the exit model. The VM is deterministic: given the
/// same initial images and the same sequence of hypervisor actions
/// ([`GuestVm::finish_io`], [`GuestVm::inject_interrupt`], breakpoint
/// manipulation), two VMs retire identical instruction streams and end in
/// identical architectural states ([`GuestVm::digest`]).
#[derive(Debug, Clone)]
pub struct GuestVm {
    cpu: Cpu,
    mem: Memory,
    config: MachineConfig,
    icache: BlockCache,
    cycles: u64,
    retired: u64,
    // Breakpoints and armed skips are tiny sets (the hypervisor installs
    // three interposition traps); linear scans beat hashing on the
    // every-instruction fast path.
    breakpoints: Vec<Addr>,
    skip_bp_at: Vec<Addr>,
    pending_io: Option<PendingIo>,
    interrupt_window: bool,
    // The Variable Record Table memory-safety detector (DESIGN.md §15).
    // Armed on recording VMs only; replay VMs take VRT alarms from the log.
    vrt: Option<rnr_vrt::VrtUnit>,
}

impl GuestVm {
    /// Builds a VM, loads `images` into guest memory, and resets the CPU to
    /// kernel mode at address 0 (call [`GuestVm::set_entry`] next).
    ///
    /// # Panics
    ///
    /// Panics if an image does not fit in guest memory.
    pub fn new(config: MachineConfig, images: &[&Image]) -> GuestVm {
        let mut mem = Memory::new(MachineConfig::MEM_BYTES);
        for image in images {
            mem.write_bytes(image.base(), image.bytes()).expect("image must fit in guest memory");
        }
        let cpu = Cpu::new(0, config.ras);
        let vrt = config.vrt.clone().map(rnr_vrt::VrtUnit::new);
        GuestVm {
            cpu,
            mem,
            config,
            vrt,
            icache: BlockCache::new(),
            cycles: 0,
            retired: 0,
            breakpoints: Vec::new(),
            skip_bp_at: Vec::new(),
            pending_io: None,
            interrupt_window: false,
        }
    }

    /// VRT doorbell (hypervisor device emulation): a guest region went
    /// live. No-op on unarmed VMs.
    pub fn vrt_declare(&mut self, base: Addr, len: u64) {
        if let Some(vrt) = &mut self.vrt {
            vrt.declare(base, len);
        }
    }

    /// VRT doorbell (hypervisor device emulation): the region declared at
    /// `base` was freed. No-op on unarmed VMs.
    pub fn vrt_retire(&mut self, base: Addr) {
        if let Some(vrt) = &mut self.vrt {
            vrt.retire(base);
        }
    }

    /// The VRT's diagnostic counters, if the VM is armed.
    pub fn vrt_counters(&self) -> Option<&rnr_vrt::VrtCounters> {
        self.vrt.as_ref().map(|v| v.counters())
    }

    /// Sets the CPU entry point.
    pub fn set_entry(&mut self, entry: Addr) {
        self.cpu.pc = entry;
    }

    /// The CPU state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU state (hypervisor privilege).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Guest memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable guest memory (hypervisor privilege: DMA, introspection).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Mutable access to the exit controls (the hypervisor reprograms the
    /// VMCS between recording and replay).
    pub fn exit_controls_mut(&mut self) -> &mut ExitControls {
        &mut self.config.exits
    }

    /// Elapsed virtual cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Charges hypervisor-side costs (VM exits, logging, ...) to the clock.
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Retired instruction count.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Restores the retired-instruction and cycle counters (hypervisor
    /// privilege: used when resuming a VM from a checkpoint, so absolute
    /// instruction counts in the input log stay meaningful).
    pub fn restore_counters(&mut self, retired: u64, cycles: u64) {
        self.retired = retired;
        self.cycles = cycles;
    }

    /// Installs a breakpoint: the instruction at `pc` exits *before*
    /// executing (context-switch interposition, §5.2.1).
    pub fn add_breakpoint(&mut self, pc: Addr) {
        if !self.breakpoints.contains(&pc) {
            self.breakpoints.push(pc);
        }
    }

    /// Removes a breakpoint.
    pub fn remove_breakpoint(&mut self, pc: Addr) {
        self.breakpoints.retain(|&bp| bp != pc);
    }

    /// Resume helper: the next execution of the *current* instruction does
    /// not re-trigger its breakpoint (single-step-over). Skips are pinned to
    /// their trapped PCs and independent of each other: if an interrupt is
    /// injected before the instruction re-executes, its skip stays armed
    /// until control returns there — even across other breakpoints trapping
    /// in between — so no breakpoint double-fires or leaks onto other code.
    pub fn skip_breakpoint_once(&mut self) {
        if !self.skip_bp_at.contains(&self.cpu.pc) {
            self.skip_bp_at.push(self.cpu.pc);
        }
    }

    /// Asks for an [`Exit::InterruptWindow`] as soon as the guest can accept
    /// an interrupt.
    pub fn request_interrupt_window(&mut self) {
        self.interrupt_window = true;
    }

    /// True if an interrupt can be injected right now.
    pub fn can_inject(&self) -> bool {
        self.cpu.interrupts_enabled && self.pending_io.is_none()
    }

    /// Injects external interrupt `irq`: pushes the return frame and jumps
    /// to the IVT handler, clearing `halted`.
    ///
    /// # Errors
    ///
    /// Fails if interrupts are disabled, the IVT slot is empty, or the frame
    /// push faults.
    pub fn inject_interrupt(&mut self, irq: u8) -> Result<(), InjectError> {
        if !self.can_inject() {
            return Err(InjectError::Disabled);
        }
        let handler = self
            .mem
            .read_u64(MachineConfig::IVT_BASE + irq as u64 * 8)
            .map_err(|_| InjectError::BadVector(irq))?;
        if handler == 0 {
            return Err(InjectError::BadVector(irq));
        }
        let flags = self.cpu.mode.to_bits() | (self.cpu.interrupts_enabled as u64) << 1;
        self.push(self.cpu.pc).map_err(|_| InjectError::MemFault)?;
        self.push(flags).map_err(|_| InjectError::MemFault)?;
        self.cpu.interrupts_enabled = false;
        self.cpu.mode = Mode::Kernel;
        self.cpu.halted = false;
        self.cpu.pc = handler;
        Ok(())
    }

    /// Completes a trapped I/O instruction (see [`FinishIo`]).
    ///
    /// # Panics
    ///
    /// Panics if no I/O exit is pending or the completion kind mismatches —
    /// both are hypervisor bugs.
    pub fn finish_io(&mut self, finish: FinishIo) {
        let pending = self.pending_io.take().expect("finish_io without a pending I/O exit");
        match (pending.rd, finish) {
            (Some(rd), FinishIo::Read { rd: frd, value }) => {
                assert_eq!(rd, frd, "completion register mismatch");
                self.cpu.set_reg(rd, value);
            }
            (None, FinishIo::Write) => {}
            (p, f) => panic!("I/O completion kind mismatch: pending {p:?}, finish {f:?}"),
        }
        self.cpu.pc += 8;
        self.retire();
    }

    /// Architectural-state digest (CPU + memory; the hypervisor combines it
    /// with its disk digest). Memory enters as one hash per page, in page
    /// order, memoized in the shared [`Page`](crate::Page): a page already
    /// hashed by any digest in the process — the recorder's, a seed's, a
    /// checkpoint's — is not read again, so a digest costs O(pages written
    /// since) rather than 4 MiB. Any differing word changes its page's hash
    /// (each lane and fold step is a bijection), and any differing page
    /// hash changes the digest (each FNV step is injective).
    pub fn digest(&self) -> Digest {
        let mut h = Fnv1a::new();
        for r in Reg::ALL {
            h.update_u64(self.cpu.reg(r));
        }
        h.update_u64(self.cpu.pc);
        h.update_u64(self.cpu.mode.to_bits());
        h.update_u64(self.cpu.interrupts_enabled as u64);
        h.update_u64(self.cpu.halted as u64);
        for page in self.mem.pages() {
            h.update_u64(page.hash());
        }
        h.finish()
    }

    /// Wall-clock counters of the basic-block cache (hits/builds/flushes).
    pub fn block_stats(&self) -> BlockStats {
        self.icache.stats()
    }

    fn retire(&mut self) {
        self.retired += 1;
        self.cycles += self.config.costs.insn;
    }

    fn push(&mut self, value: u64) -> Result<(), MemError> {
        let sp = self.cpu.sp().wrapping_sub(8);
        self.mem.write_u64(sp, value)?;
        self.cpu.set_sp(sp);
        Ok(())
    }

    fn pop(&mut self) -> Result<u64, MemError> {
        let sp = self.cpu.sp();
        let v = self.mem.read_u64(sp)?;
        self.cpu.set_sp(sp.wrapping_add(8));
        Ok(v)
    }

    fn callret_trapped(&self) -> bool {
        match self.config.exits.callret_trap {
            CallRetTrap::None => false,
            CallRetTrap::KernelOnly => self.cpu.mode == Mode::Kernel,
            CallRetTrap::All => true,
        }
    }

    /// Runs until an exit or until the budget is exhausted.
    ///
    /// With the block engine on, execution proceeds in *event-horizon*
    /// batches: the checks above the horizon — budget, halt, interrupt
    /// window — are evaluated once per block instead of once per
    /// instruction, and whole cached basic blocks retire with a single
    /// counter bump. Every knob involved is wall-clock-only: the retired
    /// stream, virtual cycles, and exit sequence are byte-identical to the
    /// single-step interpreter.
    pub fn run(&mut self, budget: RunBudget) -> Exit {
        assert!(self.pending_io.is_none(), "run() with unfinished I/O exit");
        let blocks = self.block_engine_enabled();
        loop {
            if let Some(limit) = budget.until_retired {
                if self.retired >= limit {
                    return Exit::BudgetExhausted;
                }
            }
            if let Some(limit) = budget.until_cycles {
                if self.cycles >= limit {
                    return Exit::BudgetExhausted;
                }
            }
            if self.cpu.halted {
                return Exit::Halt;
            }
            if self.interrupt_window && self.cpu.interrupts_enabled {
                self.interrupt_window = false;
                return Exit::InterruptWindow;
            }
            if blocks {
                match self.run_block(budget) {
                    Ok(true) => continue,
                    Ok(false) => {} // no block here: single-step below
                    Err(exit) => return exit,
                }
            }
            if let Some(exit) = self.step() {
                return exit;
            }
        }
    }

    /// Whether [`GuestVm::run`] executes whole basic blocks (the
    /// block-engine knob, as last set).
    pub fn block_engine_enabled(&self) -> bool {
        self.config.block_engine
    }

    /// Toggles block execution at runtime. Replay recovery uses this to
    /// quarantine the block engine after a divergence: the failed span is
    /// re-executed single-stepped (bit-exact by construction), and blocks
    /// are re-enabled once a checkpoint proves the span clean. Purely a
    /// wall-clock knob — virtual cycles and digests never depend on it.
    pub fn set_block_engine(&mut self, on: bool) {
        self.config.block_engine = on;
    }

    /// The event horizon: how many instructions may retire before a budget
    /// limit is reached, given the checks at the top of [`GuestVm::run`]
    /// already passed (so both limits are strictly ahead).
    #[inline]
    fn horizon_insns(&self, budget: RunBudget) -> u64 {
        let mut max = u64::MAX;
        if let Some(limit) = budget.until_retired {
            max = limit - self.retired;
        }
        if let Some(limit) = budget.until_cycles {
            let icost = self.config.costs.insn;
            if icost == 1 {
                // Unit cost (the default): this runs once per chained block,
                // so dodge the division.
                max = max.min(limit - self.cycles);
            } else if icost > 0 {
                // Stop once `cycles >= limit`: exactly ceil(room / icost)
                // instructions fit before that.
                max = max.min((limit - self.cycles).div_ceil(icost));
            }
        }
        max
    }

    /// Whether a budget limit has been reached (the stop conditions at the
    /// top of [`GuestVm::run`]).
    #[inline]
    fn budget_exhausted(&self, budget: RunBudget) -> bool {
        budget.until_retired.is_some_and(|l| self.retired >= l)
            || budget.until_cycles.is_some_and(|l| self.cycles >= l)
    }

    /// Executes a *chain* of cached basic blocks starting at the current PC,
    /// staying inside `budget`.
    ///
    /// Each block in the chain is bounded by the event horizon (recomputed
    /// after every block, since terminals may charge extra cycles); the
    /// chain ends when the budget runs out, the CPU halts, an interrupt
    /// window opens, or the next PC has no executable block.
    ///
    /// Returns `Ok(true)` when progress was made (the caller re-checks its
    /// exit conditions), `Ok(false)` when no block is executable at the
    /// current PC and the caller must single-step (unaligned PC, undecodable
    /// entry, or a breakpoint / armed skip at the entry itself), and
    /// `Err(exit)` when execution raised an exit — with counters and PC
    /// positioned exactly as the single-step interpreter would leave them.
    fn run_block(&mut self, budget: RunBudget) -> Result<bool, Exit> {
        // Breakpoint span prefilter: one [min, max] range over all aligned
        // breakpoints and armed skips, computed once per chain. Blocks that
        // don't intersect it (the overwhelmingly common case — trap
        // addresses sit in a handful of kernel pages) skip the exact scan.
        let bp_span = {
            let mut lo = u64::MAX;
            let mut hi = 0;
            for &bp in self.breakpoints.iter().chain(self.skip_bp_at.iter()) {
                if bp & 7 == 0 {
                    lo = lo.min(bp);
                    hi = hi.max(bp);
                }
            }
            (lo <= hi).then_some((lo, hi))
        };
        let icost = self.config.costs.insn;
        let traces = self.config.superblocks;
        let mut progressed = false;
        loop {
            let pc = self.cpu.pc;
            if pc & 7 != 0 {
                // Hijacked-return targets fall back to stepping.
                return Ok(progressed);
            }
            // Superblock dispatch: a hot head with a valid trace executes
            // the longest event-horizon-safe prefix of the chain in one
            // call. Only when not even the head op may run (a breakpoint
            // or armed skip sits on it) does execution fall through to the
            // block path, which hands such PCs to step().
            if traces {
                if let Some(body) = self.icache.trace_at(pc, &self.mem) {
                    let prefix = self.trace_prefix(&body, budget, bp_span);
                    if prefix > 0 {
                        self.icache.note_trace_hit();
                        self.exec_trace(&body, prefix, icost)?;
                        progressed = true;
                        if self.budget_exhausted(budget)
                            || self.cpu.halted
                            || (self.interrupt_window && self.cpu.interrupts_enabled)
                        {
                            return Ok(true);
                        }
                        continue;
                    }
                    self.icache.note_trace_fallback();
                }
            }
            let info = match self.icache.block_info(pc, &self.mem) {
                Some(info) => info,
                None => match self.build_block(pc) {
                    Some(info) => info,
                    None => return Ok(progressed),
                },
            };
            let block_len = info.len as u64;
            let mut exec = block_len.min(self.horizon_insns(budget));
            // Breakpoint hoisting: find the nearest breakpoint or armed
            // skip inside the block once, instead of scanning per
            // instruction. Block PCs are aligned, so unaligned entries can
            // never match.
            if let Some((lo, hi)) = bp_span {
                let end = pc + 8 * block_len;
                if pc <= hi && lo < end {
                    let mut nearest = u64::MAX;
                    for &bp in self.breakpoints.iter().chain(self.skip_bp_at.iter()) {
                        if bp & 7 == 0 && (pc..end).contains(&bp) {
                            nearest = nearest.min((bp - pc) / 8);
                        }
                    }
                    if nearest == 0 {
                        // step() owns breakpoint/skip semantics.
                        return Ok(progressed);
                    }
                    exec = exec.min(nearest);
                }
            }
            let run_terminal = info.has_terminal && exec == block_len;
            let straight = exec - u64::from(run_terminal);

            let page = (pc as usize) / crate::mem::PAGE_SIZE;
            let base_slot = (pc as usize % crate::mem::PAGE_SIZE) / 8;
            let base_version = self.mem.page_version(page);
            let mut done: u64 = 0;
            let mut smc = false;
            while done < straight {
                let insn = self.icache.slot_insn(page, base_slot + done as usize);
                let is_store = matches!(insn.op, Opcode::St | Opcode::St8 | Opcode::Push);
                if let Err(exit) = self.exec_straight(insn) {
                    if matches!(exit, Exit::VrtAlarm { .. }) {
                        // The alarming store *retired* (the write landed):
                        // commit it before exiting, like `execute`. The SMC
                        // version check is safely skipped — the next
                        // dispatch revalidates the page.
                        done += 1;
                    }
                    // Commit partial progress: all other exits from
                    // straight-line instructions (faults, MMIO) do not
                    // retire the instruction, exactly like `execute`.
                    self.cpu.pc = pc + 8 * done;
                    self.retired += done;
                    self.cycles += icost * done;
                    return Err(exit);
                }
                done += 1;
                if is_store && self.mem.page_version(page) != base_version {
                    // The block overwrote its own page (self-modifying
                    // code): commit what retired and rebuild against the
                    // new bytes.
                    smc = true;
                    break;
                }
            }
            // The single per-block counter bump.
            self.cpu.pc = pc + 8 * done;
            self.retired += done;
            self.cycles += icost * done;

            if run_terminal && !smc {
                // Terminals (control flow, privileged/IO, interrupt flags)
                // retire through `execute`, like a stepped instruction. The
                // cached decode is still valid — any store that patched
                // this page was caught by the version check above.
                let tpc = self.cpu.pc;
                let insn = self.icache.slot_insn(page, base_slot + straight as usize);
                if let Some(exit) = self.execute(tpc, insn) {
                    return Err(exit);
                }
                if traces {
                    // Profile the block-exit edge; at the heat threshold,
                    // chain a superblock from this head.
                    if let Some(heat) = self.icache.record_edge(page, base_slot, self.cpu.pc) {
                        if heat == TRACE_HEAT {
                            self.build_trace(pc);
                        }
                    }
                }
            }
            progressed = true;
            // Chain into the next block only while none of the run-loop
            // exit conditions can fire.
            if self.budget_exhausted(budget)
                || self.cpu.halted
                || (self.interrupt_window && self.cpu.interrupts_enabled)
            {
                return Ok(true);
            }
        }
    }

    /// How many leading trace ops may execute right now: a trace never
    /// retires past a budget horizon, and never runs an op whose PC holds
    /// a breakpoint or armed skip (step() owns those semantics). Because
    /// every op boundary is a valid commit point (`ops[i].expect` is the
    /// architectural PC after op `i`), an event horizon that cuts through
    /// the trace truncates the dispatch instead of rejecting it — exactly
    /// like the block engine's hoisted `exec = min(horizon, nearest)`.
    /// Returns 0 when the head op itself can't run (fall back to blocks).
    #[inline]
    fn trace_prefix(&self, body: &TraceBody, budget: RunBudget, bp_span: Option<(u64, u64)>) -> usize {
        let mut n = (body.ops.len() as u64).min(self.horizon_insns(budget)) as usize;
        if let Some((lo, hi)) = bp_span {
            if body.min_pc <= hi && lo <= body.max_pc {
                // Armed PCs are few; resolve each to its first op index
                // with a binary search instead of scanning every op.
                for &bp in self.breakpoints.iter().chain(self.skip_bp_at.iter()) {
                    if let Some(i) = body.first_op_at(bp) {
                        n = n.min(i);
                    }
                }
            }
        }
        n
    }

    /// A partial or full trace commit: position the PC and bump the
    /// counters for `done` retirements in one step.
    #[inline(always)]
    fn trace_commit(&mut self, pc: Addr, done: u64, icost: u64) {
        self.cpu.pc = pc;
        self.retired += done;
        self.cycles += icost * done;
        self.icache.note_trace_insns(done);
    }

    /// Executes one superblock: a single dispatch retiring up to `limit`
    /// leading trace ops with one counter commit on the hot path. Each op
    /// dispatches once, on its opcode: register-result ops and branches run
    /// their rule ([`alu`], [`branch_taken`]) in their own arm, and the
    /// other ops call the memory and control core every engine shares.
    /// Early exits — faults, MMIO, detector exits, mispredicted guards,
    /// self-modification of a constituent page — commit partial progress
    /// with PC and counters exactly where the block engine and `execute`
    /// would leave them.
    // Out of line: one call covers up to `TRACE_MAX_OPS` ops, and inlined
    // into `run_block` the loop shared that function's registers and kept
    // its op counter, next PC and instruction on the stack (on a 2-vCPU
    // x86-64 host, Radiosity 6M recording took 16.3 ms of thread CPU
    // inlined and 12.9 ms out of line).
    #[inline(never)]
    fn exec_trace(&mut self, body: &TraceBody, limit: usize, icost: u64) -> Result<(), Exit> {
        use Opcode::*;
        for (i, op) in body.ops[..limit].iter().enumerate() {
            // The ops this dispatch retired before `op`.
            let done = i as u64;
            let insn = op.insn;
            // The PC after `op`; a control transfer that moves it off
            // `op.expect` side-exits below.
            let mut next = op.expect;
            match insn.op {
                Nop => {}
                Mov => self.exec_alu(Mov, insn),
                MovImm => self.exec_alu(MovImm, insn),
                Add => self.exec_alu(Add, insn),
                Sub => self.exec_alu(Sub, insn),
                Mul => self.exec_alu(Mul, insn),
                Divu => self.exec_alu(Divu, insn),
                And => self.exec_alu(And, insn),
                Or => self.exec_alu(Or, insn),
                Xor => self.exec_alu(Xor, insn),
                Shl => self.exec_alu(Shl, insn),
                Shr => self.exec_alu(Shr, insn),
                Addi => self.exec_alu(Addi, insn),
                Andi => self.exec_alu(Andi, insn),
                Ori => self.exec_alu(Ori, insn),
                Xori => self.exec_alu(Xori, insn),
                Shli => self.exec_alu(Shli, insn),
                Shri => self.exec_alu(Shri, insn),
                Muli => self.exec_alu(Muli, insn),
                MovHi => self.exec_mov_hi(insn),
                Ld | Ld8 | Pop => {
                    if let Err(exit) = self.exec_straight(insn) {
                        // Faults and MMIO reads do not retire the
                        // instruction.
                        self.trace_commit(op.pc, done, icost);
                        return Err(exit);
                    }
                }
                St | St8 | Push => {
                    if let Err(exit) = self.exec_straight(insn) {
                        if matches!(exit, Exit::VrtAlarm { .. }) {
                            // The alarming store retired: commit it at the
                            // next op's PC. The constituent-page write check
                            // is safely skipped — the next lookup
                            // revalidates every page.
                            self.trace_commit(op.expect, done + 1, icost);
                            return Err(exit);
                        }
                        // Faults and MMIO writes do not retire the
                        // instruction.
                        self.trace_commit(op.pc, done, icost);
                        return Err(exit);
                    }
                    // Stores don't write registers, so the effective
                    // address recomputes exactly.
                    let (lo, hi) = match insn.op {
                        St8 => {
                            let a = self.cpu.reg(insn.rs1).wrapping_add(insn.imm as i64 as u64);
                            (a, a)
                        }
                        St => {
                            let a = self.cpu.reg(insn.rs1).wrapping_add(insn.imm as i64 as u64);
                            (a, a.wrapping_add(7))
                        }
                        // Push: sp already points at the written slot.
                        _ => (self.cpu.sp(), self.cpu.sp().wrapping_add(7)),
                    };
                    if body.write_hits_ops(lo, hi) {
                        // The store patched a constituent page: commit what
                        // retired and let the next lookup rebuild against
                        // the new bytes.
                        self.trace_commit(op.expect, done + 1, icost);
                        return Ok(());
                    }
                }
                Jmp => next = insn.target(),
                Beq => next = self.branch_next(Beq, op.pc, insn),
                Bne => next = self.branch_next(Bne, op.pc, insn),
                Blt => next = self.branch_next(Blt, op.pc, insn),
                Bge => next = self.branch_next(Bge, op.pc, insn),
                Bltu => next = self.branch_next(Bltu, op.pc, insn),
                Bgeu => next = self.branch_next(Bgeu, op.pc, insn),
                Call | CallR | Ret | JmpR => {
                    let (to, raised) = match self.exec_control(op.pc, insn) {
                        Ok(v) => v,
                        Err(fault) => {
                            self.trace_commit(op.pc, done, icost);
                            return Err(fault);
                        }
                    };
                    next = to;
                    if let Some(exit) = raised {
                        // Detector and trap exits retire the transfer first,
                        // like `execute`.
                        self.trace_commit(next, done + 1, icost);
                        return Err(exit);
                    }
                    if matches!(insn.op, Call | CallR)
                        && body.write_hits_ops(self.cpu.sp(), self.cpu.sp().wrapping_add(7))
                    {
                        // The return-address push landed in a constituent
                        // page (at `next` whether or not the guard held).
                        self.trace_commit(next, done + 1, icost);
                        return Ok(());
                    }
                }
                Hlt | Rdtsc | In | Out | Vmcall | Syscall | Sysret | Iret | Cli | Sti => {
                    unreachable!("trace formation never admits {:?}", insn.op)
                }
            }
            if next != op.expect {
                // The profiled direction or target mispredicted: side-exit
                // at the architecturally correct PC.
                self.trace_commit(next, done + 1, icost);
                return Ok(());
            }
        }
        // The prefix retired: the single counter commit. A horizon-cut
        // dispatch (`limit < ops.len()`) continues at the next op's PC —
        // `ops[i].expect` is `ops[i + 1].pc` by construction.
        let cont = if limit < body.ops.len() { body.ops[limit].pc } else { body.end_pc };
        self.trace_commit(cont, limit as u64, icost);
        Ok(())
    }

    /// Chains cached blocks from the hot head `head` into a superblock:
    /// straight-line runs flatten in, direct jumps and calls chain
    /// statically, conditional branches follow the profiled direction, and
    /// rets/indirect branches follow the profiled target behind a runtime
    /// guard. Loops unroll through the head until [`TRACE_MAX_OPS`].
    /// Formation stops at any opcode that could change the halt/interrupt
    /// state, observe cycles, or exit to the hypervisor (`Rdtsc`, IO,
    /// syscalls, ...): those stay on the block/step path.
    fn build_trace(&mut self, head: Addr) {
        use std::sync::Arc;
        let mut ops: Vec<TraceOp> = Vec::with_capacity(TRACE_MAX_OPS);
        let mut pages: Vec<TracePage> = Vec::new();
        let mut blocks = 0u32;
        let mut pc = head;
        loop {
            if ops.len() >= TRACE_MAX_OPS || pc & 7 != 0 {
                break;
            }
            let info = match self.icache.block_info(pc, &self.mem) {
                Some(info) => info,
                None => match self.build_block(pc) {
                    Some(info) => info,
                    None => break,
                },
            };
            if ops.len() + info.len as usize > TRACE_MAX_OPS {
                break;
            }
            let page = (pc as usize) / crate::mem::PAGE_SIZE;
            let base_slot = (pc as usize % crate::mem::PAGE_SIZE) / 8;
            if !pages.iter().any(|p| p.index == page) {
                if pages.len() == TRACE_MAX_PAGES {
                    break;
                }
                match self.mem.page_arc(page) {
                    Some(arc) => pages.push(TracePage::new(page, Arc::clone(arc))),
                    None => break,
                }
            }
            let straight = u64::from(info.len) - u64::from(info.has_terminal);
            for k in 0..straight {
                let insn = self.icache.slot_insn(page, base_slot + k as usize);
                let opc = pc + 8 * k;
                ops.push(TraceOp { pc: opc, insn, expect: opc + 8 });
            }
            if !info.has_terminal {
                // Truncated at the page boundary: chain straight across it
                // (undecodable bytes stop the walk on the next iteration).
                blocks += 1;
                pc += 8 * straight;
                continue;
            }
            let tpc = pc + 8 * straight;
            let insn = self.icache.slot_insn(page, base_slot + straight as usize);
            // The terminal's successor: static for direct jumps and calls,
            // the profiled edge otherwise. A branch edge that matches
            // neither side (never observed) and every non-control terminal
            // end the trace before the terminal, which then runs on the
            // block/step path.
            let observed = || self.icache.observed_succ(page, base_slot);
            let succ = match insn.op {
                Opcode::Jmp | Opcode::Call => Some(insn.target()),
                Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::Bltu | Opcode::Bgeu => {
                    observed().filter(|&s| s == insn.target() || s == tpc + 8)
                }
                Opcode::Ret | Opcode::CallR | Opcode::JmpR => observed(),
                _ => None,
            };
            let Some(next) = succ else {
                pc = tpc;
                break;
            };
            ops.push(TraceOp { pc: tpc, insn, expect: next });
            blocks += 1;
            pc = next;
        }
        if blocks < 2 || ops.len() < 2 {
            // Nothing chained beyond the head block — a trace would only
            // re-label block dispatch. Stop profiling this head.
            self.icache.mark_untraceable(head);
            return;
        }
        // Mark every slot an op decodes from: the body's self-modification
        // checks are exact, so data writes elsewhere in these pages don't
        // kill the trace. Every op's page is in `pages` by construction.
        for op in &ops {
            let pg = (op.pc as usize) / crate::mem::PAGE_SIZE;
            let slot = (op.pc as usize % crate::mem::PAGE_SIZE) / 8;
            if let Some(p) = pages.iter_mut().find(|p| p.index == pg) {
                p.mark_slot(slot);
            }
        }
        let mut pcs: Vec<(Addr, u32)> = ops.iter().enumerate().map(|(i, op)| (op.pc, i as u32)).collect();
        // Stable on pc: ties keep ascending op order, so dedup retains the
        // first occurrence of every unrolled PC.
        pcs.sort_by_key(|&(p, _)| p);
        pcs.dedup_by_key(|&mut (p, _)| p);
        let (min_pc, max_pc) = (pcs[0].0, pcs.last().expect("non-empty").0);
        let body = Arc::new(TraceBody { ops, end_pc: pc, pages, min_pc, max_pc, pcs });
        self.icache.install_trace(head, body, &self.mem);
    }

    /// Decodes and caches the basic block starting at `pc` (aligned), or
    /// finds it still cached once a stale page re-stamps.
    ///
    /// Blocks end at the first terminator (any non-straight-line
    /// instruction, included in the block), at the page boundary, or just
    /// before undecodable bytes. Returns `None` when not even one
    /// instruction decodes — the stepping path raises the proper fault.
    fn build_block(&mut self, pc: Addr) -> Option<BlockInfo> {
        // A lookup also misses when only the page's version moved; if the
        // page's decoded words all still hold, the block is still there.
        if self.icache.restamp(pc, &self.mem) {
            if let Some(info) = self.icache.block_info(pc, &self.mem) {
                return Some(info);
            }
        }
        let mut insns: Vec<Instruction> = Vec::with_capacity(16);
        let mut has_terminal = false;
        let mut cur = pc;
        loop {
            let mut fetch = [0u8; 8];
            if self.mem.read_bytes(cur, &mut fetch).is_err() {
                break;
            }
            let Ok(insn) = Instruction::decode(&fetch) else { break };
            insns.push(insn);
            if !is_straight(insn.op) {
                has_terminal = true;
                break;
            }
            cur += 8;
            if (cur as usize).is_multiple_of(crate::mem::PAGE_SIZE) {
                break;
            }
        }
        let len = u16::try_from(insns.len()).expect("blocks fit in a page");
        if len == 0 {
            return None;
        }
        let info = BlockInfo { len, has_terminal };
        self.icache.insert_block(pc, &insns, info, &self.mem);
        Some(info)
    }

    /// Executes one straight-line (non-terminal) instruction without
    /// advancing the PC or retiring — the block and trace executors batch
    /// those, and [`GuestVm::execute`] retires one at a time. An
    /// `Err(Exit::VrtAlarm)` store retired (the write landed); every other
    /// `Err` did not.
    // Forced inline, like `exec_control`: every engine's hot loop calls it,
    // and out of line its `Result` returns through memory (measured 6-28%
    // slower replay).
    #[inline(always)]
    fn exec_straight(&mut self, insn: Instruction) -> Result<(), Exit> {
        use Opcode::*;
        let imm_s = insn.imm as i64 as u64; // sign-extended immediate
        let rs1 = self.cpu.reg(insn.rs1);
        let rs2 = self.cpu.reg(insn.rs2);
        match insn.op {
            Nop => {}
            Mov => self.exec_alu(Mov, insn),
            MovImm => self.exec_alu(MovImm, insn),
            Add => self.exec_alu(Add, insn),
            Sub => self.exec_alu(Sub, insn),
            Mul => self.exec_alu(Mul, insn),
            Divu => self.exec_alu(Divu, insn),
            And => self.exec_alu(And, insn),
            Or => self.exec_alu(Or, insn),
            Xor => self.exec_alu(Xor, insn),
            Shl => self.exec_alu(Shl, insn),
            Shr => self.exec_alu(Shr, insn),
            Addi => self.exec_alu(Addi, insn),
            Andi => self.exec_alu(Andi, insn),
            Ori => self.exec_alu(Ori, insn),
            Xori => self.exec_alu(Xori, insn),
            Shli => self.exec_alu(Shli, insn),
            Shri => self.exec_alu(Shri, insn),
            Muli => self.exec_alu(Muli, insn),
            MovHi => self.exec_mov_hi(insn),
            Ld | Ld8 => {
                let addr = rs1.wrapping_add(imm_s);
                if is_mmio(addr) {
                    self.pending_io = Some(PendingIo { rd: Some(insn.rd) });
                    return Err(Exit::MmioRead { rd: insn.rd, addr });
                }
                let value = if insn.op == Ld {
                    match self.mem.read_u64(addr) {
                        Ok(v) => v,
                        Err(_) => return Err(Exit::Fault(FaultKind::BadMemory { addr })),
                    }
                } else {
                    match self.mem.read_u8(addr) {
                        Ok(v) => v as u64,
                        Err(_) => return Err(Exit::Fault(FaultKind::BadMemory { addr })),
                    }
                };
                self.cpu.set_reg(insn.rd, value);
            }
            St | St8 => {
                let addr = rs1.wrapping_add(imm_s);
                if is_mmio(addr) {
                    self.pending_io = Some(PendingIo { rd: None });
                    return Err(Exit::MmioWrite { addr, value: rs2 });
                }
                let res = if insn.op == St {
                    self.mem.write_u64(addr, rs2)
                } else {
                    self.mem.write_u8(addr, rs2 as u8)
                };
                if res.is_err() {
                    return Err(Exit::Fault(FaultKind::BadMemory { addr }));
                }
                let sp = self.cpu.sp();
                if let Some(vrt) = &mut self.vrt {
                    if let Some(kind) = vrt.on_store(addr, sp) {
                        // Unlike faults, this store retired (the write
                        // landed); every caller commits it.
                        return Err(Exit::VrtAlarm { kind, addr });
                    }
                }
            }
            Push => {
                if self.push(rs1).is_err() {
                    return Err(Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp().wrapping_sub(8) }));
                }
                let sp = self.cpu.sp();
                if let Some(vrt) = &mut self.vrt {
                    vrt.note_sp(sp);
                }
            }
            Pop => match self.pop() {
                Ok(v) => self.cpu.set_reg(insn.rd, v),
                Err(_) => return Err(Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp() })),
            },
            // The block builder never classifies these as straight-line.
            Hlt | Call | CallR | Ret | Jmp | JmpR | Beq | Bne | Blt | Bge | Bltu | Bgeu | Rdtsc | In
            | Out | Vmcall | Syscall | Sysret | Iret | Cli | Sti => {
                unreachable!("terminal opcode {:?} inside a straight-line run", insn.op)
            }
        }
        Ok(())
    }

    /// Writes register-result opcode `op`'s [`alu`] value to `insn.rd`.
    /// `op` is `insn.op`, passed as a constant by the caller's own arm for
    /// it, so each arm compiles to its one operation.
    #[inline(always)]
    fn exec_alu(&mut self, op: Opcode, insn: Instruction) {
        let value = alu(op, self.cpu.reg(insn.rs1), self.cpu.reg(insn.rs2), insn.imm);
        self.cpu.set_reg(insn.rd, value);
    }

    /// `MovHi`: the immediate replaces the high half of `rd`. It is the one
    /// register-result opcode that reads its destination, so it stays out
    /// of [`alu`].
    #[inline(always)]
    fn exec_mov_hi(&mut self, insn: Instruction) {
        let low = self.cpu.reg(insn.rd) & 0xffff_ffff;
        self.cpu.set_reg(insn.rd, low | (insn.imm as u32 as u64) << 32);
    }

    /// The PC after conditional branch `op` at `pc`: its target when
    /// [`branch_taken`], else the next slot. `op` is `insn.op`, passed as a
    /// constant like [`GuestVm::exec_alu`]'s.
    #[inline(always)]
    fn branch_next(&self, op: Opcode, pc: Addr, insn: Instruction) -> Addr {
        if branch_taken(op, self.cpu.reg(insn.rs1), self.cpu.reg(insn.rs2)) {
            insn.target()
        } else {
            pc + 8
        }
    }

    /// Executes one instruction; returns an exit if one was raised.
    fn step(&mut self) -> Option<Exit> {
        let pc = self.cpu.pc;
        if self.take_skip(pc) {
            // Armed single-step-over: fall through to execution.
        } else if self.breakpoints.contains(&pc) {
            return Some(Exit::Breakpoint { pc });
        }
        let insn = match self.fetch_decode(pc) {
            Ok(i) => i,
            Err(exit) => return Some(exit),
        };
        self.execute(pc, insn)
    }

    /// Consumes an armed single-step-over for `pc`, if any.
    #[inline]
    fn take_skip(&mut self, pc: Addr) -> bool {
        if self.skip_bp_at.is_empty() {
            return false;
        }
        match self.skip_bp_at.iter().position(|&a| a == pc) {
            Some(i) => {
                self.skip_bp_at.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// The instruction at `pc`: from the decode cache when enabled and warm,
    /// otherwise fetched from memory, decoded, and (when enabled) cached.
    #[inline]
    fn fetch_decode(&mut self, pc: Addr) -> Result<Instruction, Exit> {
        if self.config.decode_cache {
            if let Some(insn) = self.icache.get(pc, &self.mem) {
                return Ok(insn);
            }
        }
        let mut fetch = [0u8; 8];
        if self.mem.read_bytes(pc, &mut fetch).is_err() {
            return Err(Exit::Fault(FaultKind::BadMemory { addr: pc }));
        }
        let insn = match Instruction::decode(&fetch) {
            Ok(i) => i,
            Err(_) => return Err(Exit::Fault(FaultKind::BadInstruction { pc })),
        };
        if self.config.decode_cache {
            self.icache.insert(pc, insn, &self.mem);
        }
        Ok(insn)
    }

    /// Executes one control transfer (`Call`/`CallR`/`Ret`/`Jmp`/`JmpR` or
    /// a conditional branch) at `pc` without retiring it. `Ok` carries the
    /// next PC and any detector or trap exit, raised after the instruction
    /// retires; `Err` is a fault, and the instruction does not retire.
    #[inline(always)]
    fn exec_control(&mut self, pc: Addr, insn: Instruction) -> Result<(Addr, Option<Exit>), Exit> {
        use Opcode::*;
        let rs1 = self.cpu.reg(insn.rs1);
        match insn.op {
            Call | CallR => {
                let target = if insn.op == Call { insn.target() } else { rs1 };
                let ret_addr = pc + 8;
                if self.push(ret_addr).is_err() {
                    return Err(Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp().wrapping_sub(8) }));
                }
                let outcome = self.cpu.ras.on_call(ret_addr);
                let sp = self.cpu.sp();
                if let Some(vrt) = &mut self.vrt {
                    vrt.on_call(sp);
                }
                let mut exit = if insn.op == CallR { self.jop_alarm(pc, target) } else { None };
                if exit.is_none() {
                    if let RasOutcome::Evicted(evicted) = outcome {
                        if self.config.exits.evict_exiting {
                            exit = Some(Exit::RasEvict { evicted, ret_addr });
                        }
                    }
                }
                if exit.is_none() && self.callret_trapped() {
                    exit = Some(Exit::CallTrap { ret_addr, pc });
                }
                Ok((target, exit))
            }
            Ret => {
                let target =
                    self.pop().map_err(|_| Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp() }))?;
                let outcome = self.cpu.ras.on_ret(pc, target);
                if let Some(vrt) = &mut self.vrt {
                    vrt.on_ret();
                }
                let mut exit = None;
                if let RasOutcome::Mispredict(m) = outcome {
                    if self.cpu.ras.alarms_enabled() {
                        exit = Some(Exit::RasMispredict(m));
                    }
                }
                if exit.is_none() && self.callret_trapped() {
                    exit = Some(Exit::RetTrap { ret_pc: pc, target });
                }
                Ok((target, exit))
            }
            Jmp => Ok((insn.target(), None)),
            JmpR => Ok((rs1, self.jop_alarm(pc, rs1))),
            Beq => Ok((self.branch_next(Beq, pc, insn), None)),
            Bne => Ok((self.branch_next(Bne, pc, insn), None)),
            Blt => Ok((self.branch_next(Blt, pc, insn), None)),
            Bge => Ok((self.branch_next(Bge, pc, insn), None)),
            Bltu => Ok((self.branch_next(Bltu, pc, insn), None)),
            Bgeu => Ok((self.branch_next(Bgeu, pc, insn), None)),
            _ => unreachable!("non-control opcode {:?} executed as a control transfer", insn.op),
        }
    }

    /// The JOP alarm for an indirect transfer from `pc` to `target` that the
    /// hardware indirect-branch table rejects (Table 1, row 2).
    #[inline]
    fn jop_alarm(&self, pc: Addr, target: Addr) -> Option<Exit> {
        let table = self.config.jop_table.as_ref()?;
        (!table.is_legal(pc, target)).then_some(Exit::JopAlarm { branch_pc: pc, target })
    }

    /// Executes and retires one instruction (the single-step interpreter,
    /// and block terminals); returns an exit if one was raised.
    fn execute(&mut self, pc: Addr, insn: Instruction) -> Option<Exit> {
        use Opcode::*;
        // Privilege check for kernel-only instructions.
        if self.cpu.mode == Mode::User && matches!(insn.op, Hlt | In | Out | Vmcall | Iret | Cli | Sti) {
            return Some(Exit::Fault(FaultKind::Privilege { pc }));
        }

        let mut next_pc = pc + 8;
        let mut exit = None;

        match insn.op {
            op if is_straight(op) => {
                match self.exec_straight(insn) {
                    Ok(()) => {}
                    // Retire-then-exit: the write landed.
                    Err(alarm @ Exit::VrtAlarm { .. }) => exit = Some(alarm),
                    Err(fault) => return Some(fault),
                }
            }
            Hlt => {
                self.cpu.halted = true;
                self.cpu.pc = next_pc;
                self.retire();
                return Some(Exit::Halt);
            }
            Rdtsc => {
                if self.config.exits.rdtsc_exiting {
                    self.pending_io = Some(PendingIo { rd: Some(insn.rd) });
                    return Some(Exit::Rdtsc { rd: insn.rd });
                }
                // Native execution: the TSC is the cycle counter.
                self.cpu.set_reg(insn.rd, self.cycles);
            }
            In => {
                self.pending_io = Some(PendingIo { rd: Some(insn.rd) });
                return Some(Exit::PioIn { rd: insn.rd, port: insn.imm as u16 });
            }
            Out => {
                self.pending_io = Some(PendingIo { rd: None });
                return Some(Exit::PioOut { port: insn.imm as u16, value: self.cpu.reg(insn.rs1) });
            }
            Vmcall => {
                self.pending_io = Some(PendingIo { rd: Some(Reg::R1) });
                return Some(Exit::Vmcall);
            }
            Syscall => {
                let flags = self.cpu.mode.to_bits() | (self.cpu.interrupts_enabled as u64) << 1;
                if self.push(pc + 8).is_err() || self.push(flags).is_err() {
                    return Some(Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp() }));
                }
                self.cpu.set_reg(Reg::R15, insn.imm as u32 as u64);
                self.cpu.mode = Mode::Kernel;
                next_pc = self.config.syscall_entry;
            }
            Sysret | Iret => {
                let flags = match self.pop() {
                    Ok(v) => v,
                    Err(_) => return Some(Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp() })),
                };
                let target = match self.pop() {
                    Ok(v) => v,
                    Err(_) => return Some(Exit::Fault(FaultKind::BadMemory { addr: self.cpu.sp() })),
                };
                self.cpu.mode = Mode::from_bits(flags);
                if insn.op == Iret {
                    self.cpu.interrupts_enabled = flags & 2 != 0;
                }
                next_pc = target;
            }
            Cli => self.cpu.interrupts_enabled = false,
            Sti => self.cpu.interrupts_enabled = true,
            _ => match self.exec_control(pc, insn) {
                Ok((next, raised)) => (next_pc, exit) = (next, raised),
                Err(fault) => return Some(fault),
            },
        }

        self.cpu.pc = next_pc;
        self.retire();
        exit
    }
}

/// True for instructions that neither transfer control, touch privileged /
/// device state, nor change the interrupt flag — the block builder packs
/// runs of these; everything else terminates a block. Cli/Sti terminate so
/// an armed interrupt window opening mid-run is observed at exactly the same
/// retirement point as in the single-step interpreter.
fn is_straight(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Nop | Mov
            | MovImm
            | MovHi
            | Add
            | Sub
            | Mul
            | Divu
            | And
            | Or
            | Xor
            | Shl
            | Shr
            | Addi
            | Andi
            | Ori
            | Xori
            | Shli
            | Shri
            | Muli
            | Ld
            | St
            | Ld8
            | St8
            | Push
            | Pop
    )
}

/// The value register-result opcode `op` writes to `rd`, from its source
/// registers `a` (`rs1`) and `b` (`rs2`) and its immediate: the one place
/// each of these 18 effects is written. Every dispatcher — the stepper,
/// block bodies and traces — calls it with a constant `op` from that
/// opcode's own arm, so each arm compiles to just its operation.
#[inline(always)]
fn alu(op: Opcode, a: u64, b: u64, imm: i32) -> u64 {
    use Opcode::*;
    let imm_s = imm as i64 as u64; // sign-extended immediate
    match op {
        Mov => a,
        MovImm => imm_s,
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Divu => a.checked_div(b).unwrap_or(u64::MAX),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a << (b & 63),
        Shr => a >> (b & 63),
        Addi => a.wrapping_add(imm_s),
        Andi => a & imm_s,
        Ori => a | imm_s,
        Xori => a ^ imm_s,
        Shli => a << (imm as u32 & 63),
        Shri => a >> (imm as u32 & 63),
        Muli => a.wrapping_mul(imm_s),
        _ => unreachable!("{op:?} is not a register-result opcode"),
    }
}

/// Whether conditional branch `op` is taken on `a` (`rs1`) and `b` (`rs2`):
/// the one place each branch condition is written, called like [`alu`]
/// with a constant `op` from the branch's own arm.
#[inline(always)]
fn branch_taken(op: Opcode, a: u64, b: u64) -> bool {
    use Opcode::*;
    match op {
        Beq => a == b,
        Bne => a != b,
        Blt => (a as i64) < (b as i64),
        Bge => (a as i64) >= (b as i64),
        Bltu => a < b,
        Bgeu => a >= b,
        _ => unreachable!("{op:?} is not a conditional branch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_isa::Assembler;
    use rnr_ras::RasConfig;

    fn vm_with(build: impl FnOnce(&mut Assembler)) -> GuestVm {
        let mut asm = Assembler::new(0x1000);
        build(&mut asm);
        let image = asm.assemble().unwrap();
        let mut config = MachineConfig::default();
        config.exits.rdtsc_exiting = false;
        let mut vm = GuestVm::new(config, &[&image]);
        vm.set_entry(0x1000);
        vm.cpu_mut().set_sp(0x8_0000);
        vm
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut vm = vm_with(|a| {
            a.movi(Reg::R1, 20);
            a.movi(Reg::R2, 22);
            a.add(Reg::R3, Reg::R1, Reg::R2);
            a.hlt();
        });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm.cpu().reg(Reg::R3), 42);
        assert_eq!(vm.retired(), 4);
        assert!(vm.cpu().halted);
    }

    #[test]
    fn call_ret_round_trip_no_alarm() {
        let mut vm = vm_with(|a| {
            a.call("f");
            a.hlt();
            a.label("f");
            a.movi(Reg::R1, 7);
            a.ret();
        });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm.cpu().reg(Reg::R1), 7);
        assert_eq!(vm.cpu().ras.counters().hits, 1);
        assert_eq!(vm.cpu().ras.counters().mispredictions(), 0);
    }

    #[test]
    fn corrupted_return_address_raises_mispredict_exit() {
        let mut vm = vm_with(|a| {
            a.call("f");
            a.label("dead_end");
            a.hlt();
            a.label("f");
            // Overwrite the on-stack return address, like a buffer overflow.
            a.movi(Reg::R1, 0x1000);
            a.st(Reg::SP, 0, Reg::R1);
            a.ret();
        });
        match vm.run(RunBudget::unbounded()) {
            Exit::RasMispredict(m) => {
                assert_eq!(m.actual, 0x1000);
                assert_eq!(m.predicted, Some(0x1008));
            }
            other => panic!("unexpected exit {other:?}"),
        }
        // Execution continued at the actual (attacker) target.
        assert_eq!(vm.cpu().pc, 0x1000);
    }

    #[test]
    fn budget_stops_exactly() {
        let mut vm = vm_with(|a| {
            a.label("spin");
            a.addi(Reg::R1, Reg::R1, 1);
            a.jmp("spin");
        });
        assert_eq!(vm.run(RunBudget::until(7)), Exit::BudgetExhausted);
        assert_eq!(vm.retired(), 7);
        assert_eq!(vm.run(RunBudget::until(7)), Exit::BudgetExhausted);
        assert_eq!(vm.retired(), 7);
    }

    #[test]
    fn rdtsc_native_vs_trapped() {
        let mut vm = vm_with(|a| {
            a.rdtsc(Reg::R1);
            a.hlt();
        });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm.cpu().reg(Reg::R1), 0); // cycles at fetch time

        let mut vm2 = vm_with(|a| {
            a.rdtsc(Reg::R1);
            a.hlt();
        });
        vm2.exit_controls_mut().rdtsc_exiting = true;
        assert_eq!(vm2.run(RunBudget::unbounded()), Exit::Rdtsc { rd: Reg::R1 });
        vm2.finish_io(FinishIo::Read { rd: Reg::R1, value: 0x5555 });
        assert_eq!(vm2.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm2.cpu().reg(Reg::R1), 0x5555);
    }

    #[test]
    fn pio_exits_and_completes() {
        let mut vm = vm_with(|a| {
            a.movi(Reg::R2, 0xbeef);
            a.pio_out(0x30, Reg::R2);
            a.pio_in(Reg::R3, 0x40);
            a.hlt();
        });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::PioOut { port: 0x30, value: 0xbeef });
        vm.finish_io(FinishIo::Write);
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::PioIn { rd: Reg::R3, port: 0x40 });
        vm.finish_io(FinishIo::Read { rd: Reg::R3, value: 9 });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm.cpu().reg(Reg::R3), 9);
    }

    #[test]
    fn mmio_access_exits() {
        let mut vm = vm_with(|a| {
            a.movi64(Reg::R1, crate::MMIO_NIC_RX_PENDING);
            a.ld(Reg::R2, Reg::R1, 0);
            a.hlt();
        });
        match vm.run(RunBudget::unbounded()) {
            Exit::MmioRead { rd, addr } => {
                assert_eq!(rd, Reg::R2);
                assert_eq!(addr, crate::MMIO_NIC_RX_PENDING);
            }
            other => panic!("unexpected {other:?}"),
        }
        vm.finish_io(FinishIo::Read { rd: Reg::R2, value: 3 });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm.cpu().reg(Reg::R2), 3);
    }

    #[test]
    fn user_mode_privilege_fault() {
        let mut vm = vm_with(|a| {
            a.cli();
        });
        vm.cpu_mut().mode = Mode::User;
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Fault(FaultKind::Privilege { pc: 0x1000 }));
    }

    #[test]
    fn syscall_and_sysret() {
        let entry = 0x1000 + 8;
        let mut vm = {
            let mut asm = Assembler::new(0x1000);
            asm.jmp("user");
            asm.label("entry");
            asm.mov(Reg::R5, Reg::R15);
            asm.sysret();
            asm.label("user");
            asm.syscall(42);
            asm.hlt();
            let image = asm.assemble().unwrap();
            let mut config = MachineConfig { syscall_entry: entry, ..MachineConfig::default() };
            config.exits.rdtsc_exiting = false;
            let mut vm = GuestVm::new(config, &[&image]);
            vm.set_entry(0x1000);
            vm.cpu_mut().set_sp(0x8_0000);
            vm
        };
        vm.cpu_mut().mode = Mode::User;
        // User-mode hlt after sysret faults with Privilege; that proves the
        // mode round-tripped through syscall/sysret.
        let user_hlt_pc = vm.config().syscall_entry + 16 + 8;
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Fault(FaultKind::Privilege { pc: user_hlt_pc }));
        assert_eq!(vm.cpu().reg(Reg::R5), 42);
        assert_eq!(vm.cpu().mode, Mode::User);
        // Syscall/sysret never touch the RAS.
        assert_eq!(vm.cpu().ras.counters().calls, 0);
        assert_eq!(vm.cpu().ras.counters().rets, 0);
    }

    #[test]
    fn interrupt_injection_and_iret() {
        let mut vm = vm_with(|a| {
            a.label("main");
            a.sti();
            a.movi(Reg::R1, 1);
            a.label("loop");
            a.jmp("loop");
            a.label("handler");
            a.movi(Reg::R2, 99);
            a.iret();
        });
        // Install the IVT entry for IRQ 0.
        let handler = 0x1000 + 3 * 8;
        let ivt = MachineConfig::IVT_BASE;
        vm.mem_mut().write_u64(ivt, handler).unwrap();
        assert_eq!(vm.run(RunBudget::until(5)), Exit::BudgetExhausted);
        assert!(vm.can_inject());
        vm.inject_interrupt(0).unwrap();
        let sp_in_handler = vm.cpu().sp();
        assert_eq!(vm.cpu().pc, handler);
        assert!(!vm.cpu().interrupts_enabled);
        assert_eq!(vm.run(RunBudget::until(vm.retired() + 2)), Exit::BudgetExhausted);
        // After iret: interrupts re-enabled, back in the loop.
        assert!(vm.cpu().interrupts_enabled);
        assert_eq!(vm.cpu().reg(Reg::R2), 99);
        assert_eq!(vm.cpu().sp(), sp_in_handler + 16);
    }

    #[test]
    fn interrupt_rejected_when_disabled() {
        let mut vm = vm_with(|a| {
            a.nop();
            a.hlt();
        });
        assert_eq!(vm.inject_interrupt(0), Err(InjectError::Disabled));
    }

    #[test]
    fn interrupt_window_exit_on_sti() {
        let mut vm = vm_with(|a| {
            a.nop();
            a.sti();
            a.nop();
            a.hlt();
        });
        vm.request_interrupt_window();
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::InterruptWindow);
        assert!(vm.cpu().interrupts_enabled);
        // Window consumed; next run continues to halt.
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
    }

    #[test]
    fn breakpoint_exits_before_instruction_and_skips_once() {
        let mut vm = vm_with(|a| {
            a.movi(Reg::R1, 1);
            a.movi(Reg::R2, 2);
            a.hlt();
        });
        vm.add_breakpoint(0x1008);
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Breakpoint { pc: 0x1008 });
        assert_eq!(vm.cpu().reg(Reg::R2), 0); // not yet executed
        vm.skip_breakpoint_once();
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(vm.cpu().reg(Reg::R2), 2);
    }

    #[test]
    fn callret_trap_kernel_only() {
        let build = |a: &mut Assembler| {
            a.call("f");
            a.hlt();
            a.label("f");
            a.ret();
        };
        let mut vm = vm_with(build);
        vm.exit_controls_mut().callret_trap = CallRetTrap::KernelOnly;
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::CallTrap { ret_addr: 0x1008, pc: 0x1000 });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::RetTrap { ret_pc: 0x1010, target: 0x1008 });
        assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);

        // In user mode with KernelOnly, no traps fire.
        let mut vm = vm_with(build);
        vm.exit_controls_mut().callret_trap = CallRetTrap::KernelOnly;
        vm.cpu_mut().mode = Mode::User;
        // hlt faults in user mode; check we got there without traps.
        let r = vm.run(RunBudget::unbounded());
        assert!(matches!(r, Exit::Fault(FaultKind::Privilege { .. })), "{r:?}");
    }

    #[test]
    fn evict_exit_on_ras_overflow() {
        let mut asm = Assembler::new(0x1000);
        // Recursive function that calls itself `r1` times.
        asm.movi(Reg::R1, 5);
        asm.call("rec");
        asm.hlt();
        asm.label("rec");
        asm.movi(Reg::R2, 0);
        asm.beq(Reg::R1, Reg::R2, "done");
        asm.addi(Reg::R1, Reg::R1, -1);
        asm.call("rec");
        asm.label("done");
        asm.ret();
        let image = asm.assemble().unwrap();
        let mut config = MachineConfig::default();
        config.exits.rdtsc_exiting = false;
        config.ras = RasConfig::extended(2);
        let mut vm = GuestVm::new(config, &[&image]);
        vm.set_entry(0x1000);
        vm.cpu_mut().set_sp(0x8_0000);
        // Depth reaches 6 > 2: evict exits fire.
        let mut evicts = 0;
        let mut underflows = 0;
        loop {
            match vm.run(RunBudget::unbounded()) {
                Exit::RasEvict { .. } => evicts += 1,
                Exit::RasMispredict(m) => {
                    assert_eq!(m.kind, rnr_ras::MispredictKind::Underflow);
                    underflows += 1;
                }
                Exit::Halt => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(evicts, 4);
        assert_eq!(underflows, 4);
        // All returns went to the right place despite mispredictions.
        assert_eq!(vm.cpu().reg(Reg::R1), 0);
    }

    #[test]
    fn self_modifying_code_invalidates_decode_cache() {
        // The first pass executes (and caches) `movi r2, 11`, then patches
        // that very instruction to `movi r2, 22` and jumps back to it. The
        // store bumps the page version, so the second pass must re-decode.
        let patched =
            u64::from_le_bytes(Instruction::new(Opcode::MovImm, Reg::R2, Reg::R0, Reg::R0, 22).encode());
        let build = move |a: &mut Assembler| {
            a.label("patchme");
            a.movi(Reg::R2, 11);
            a.movi(Reg::R6, 0);
            a.bne(Reg::R3, Reg::R6, "done");
            a.movi(Reg::R3, 1);
            a.movi64(Reg::R5, patched);
            a.movi64(Reg::R4, 0x1000);
            a.st(Reg::R4, 0, Reg::R5);
            a.jmp("patchme");
            a.label("done");
            a.hlt();
        };
        let run = |decode_cache: bool, block_engine: bool| {
            let mut vm = vm_with(build);
            vm.config.decode_cache = decode_cache;
            vm.config.block_engine = block_engine;
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
            vm
        };
        let fresh = run(false, false);
        for (dc, be) in [(true, false), (false, true), (true, true)] {
            let vm = run(dc, be);
            assert_eq!(vm.cpu().reg(Reg::R2), 22, "stale decode executed (dc={dc}, be={be})");
            assert_eq!(vm.digest(), fresh.digest());
            assert_eq!(vm.retired(), fresh.retired());
            assert_eq!(vm.cycles(), fresh.cycles());
        }
    }

    #[test]
    fn decode_cache_does_not_change_execution() {
        let build = |a: &mut Assembler| {
            a.movi(Reg::R1, 50);
            a.label("loop");
            a.st(Reg::SP, -64, Reg::R1);
            a.addi(Reg::R1, Reg::R1, -1);
            a.movi(Reg::R2, 0);
            a.bne(Reg::R1, Reg::R2, "loop");
            a.hlt();
        };
        let mut cached = vm_with(build);
        let mut fresh = vm_with(build);
        fresh.config.decode_cache = false;
        fresh.config.block_engine = false;
        assert_eq!(cached.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(fresh.run(RunBudget::unbounded()), Exit::Halt);
        assert_eq!(cached.digest(), fresh.digest());
        assert_eq!(cached.cycles(), fresh.cycles());
        assert_eq!(cached.retired(), fresh.retired());
        let stats = cached.block_stats();
        assert!(stats.hits > 0, "the loop re-enters a cached block: {stats:?}");
    }

    #[test]
    fn block_engine_budgets_stop_exactly_mid_block() {
        // A long straight-line run: the retired and cycle budgets both land
        // in the middle of the cached block and must stop at exactly the
        // same points as the single-step interpreter.
        let build = |a: &mut Assembler| {
            for i in 0..64 {
                a.movi(Reg::R1, i);
            }
            a.hlt();
        };
        let mut blocked = vm_with(build);
        let mut stepped = vm_with(build);
        stepped.config.block_engine = false;
        for vm in [&mut blocked, &mut stepped] {
            assert_eq!(vm.run(RunBudget::until(10)), Exit::BudgetExhausted);
            assert_eq!(vm.retired(), 10);
            assert_eq!(vm.run(RunBudget::until_cycles(25)), Exit::BudgetExhausted);
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        }
        assert_eq!(blocked.retired(), stepped.retired());
        assert_eq!(blocked.cycles(), stepped.cycles());
        assert_eq!(blocked.digest(), stepped.digest());
    }

    #[test]
    fn block_engine_respects_mid_block_breakpoint_and_skip() {
        let build = |a: &mut Assembler| {
            a.movi(Reg::R1, 1);
            a.movi(Reg::R2, 2);
            a.movi(Reg::R3, 3);
            a.hlt();
        };
        let mut blocked = vm_with(build);
        let mut stepped = vm_with(build);
        stepped.config.block_engine = false;
        for vm in [&mut blocked, &mut stepped] {
            vm.add_breakpoint(0x1010);
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Breakpoint { pc: 0x1010 });
            assert_eq!(vm.cpu().reg(Reg::R3), 0, "breakpointed instruction not yet executed");
            vm.skip_breakpoint_once();
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
        }
        assert_eq!(blocked.retired(), stepped.retired());
        assert_eq!(blocked.cycles(), stepped.cycles());
        assert_eq!(blocked.digest(), stepped.digest());
    }

    #[test]
    fn block_engine_handles_unaligned_entry_pc() {
        // A hijacked return can land mid-instruction: hand-place decodable
        // instructions at an unaligned address and enter there. The block
        // engine must fall back to single-stepping with identical results.
        let insn_at =
            |op, rd, imm| u64::from_le_bytes(Instruction::new(op, rd, Reg::R0, Reg::R0, imm).encode());
        let run = |block_engine: bool| {
            let mut vm = vm_with(|a| {
                a.hlt();
            });
            vm.config.block_engine = block_engine;
            vm.mem_mut().write_u64(0x2004, insn_at(Opcode::MovImm, Reg::R1, 77)).unwrap();
            vm.mem_mut().write_u64(0x200c, insn_at(Opcode::Jmp, Reg::R0, 0x1000)).unwrap();
            vm.set_entry(0x2004);
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
            vm
        };
        let blocked = run(true);
        let stepped = run(false);
        assert_eq!(blocked.cpu().reg(Reg::R1), 77);
        assert_eq!(blocked.retired(), stepped.retired());
        assert_eq!(blocked.cycles(), stepped.cycles());
        assert_eq!(blocked.digest(), stepped.digest());
    }

    #[test]
    fn digest_changes_with_state() {
        let mut vm = vm_with(|a| {
            a.movi(Reg::R1, 1);
            a.hlt();
        });
        let d0 = vm.digest();
        vm.run(RunBudget::unbounded());
        let d1 = vm.digest();
        assert_ne!(d0, d1);
        vm.mem_mut().write_u8(0x2000, 1).unwrap();
        assert_ne!(vm.digest(), d1);
    }

    #[test]
    fn identical_runs_have_identical_digests() {
        let build = |a: &mut Assembler| {
            a.movi(Reg::R1, 100);
            a.label("loop");
            a.st(Reg::SP, -64, Reg::R1);
            a.addi(Reg::R1, Reg::R1, -1);
            a.movi(Reg::R2, 0);
            a.bne(Reg::R1, Reg::R2, "loop");
            a.hlt();
        };
        let mut a = vm_with(build);
        let mut b = vm_with(build);
        a.run(RunBudget::unbounded());
        b.run(RunBudget::unbounded());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.retired(), b.retired());
    }

    /// A loop hot enough to cross the trace-heat threshold many times over.
    fn hot_loop(iters: i32) -> impl Fn(&mut Assembler) + Copy {
        move |a: &mut Assembler| {
            a.movi(Reg::R1, iters);
            a.movi(Reg::R2, 0);
            a.label("loop");
            a.st(Reg::SP, -64, Reg::R1);
            a.addi(Reg::R3, Reg::R3, 5);
            a.addi(Reg::R1, Reg::R1, -1);
            a.bne(Reg::R1, Reg::R2, "loop");
            a.hlt();
        }
    }

    /// Three engines over the same program must agree exactly.
    fn assert_engines_agree(build: impl Fn(&mut Assembler) + Copy) -> BlockStats {
        let run = |block: bool, sb: bool| {
            let mut vm = vm_with(build);
            vm.config.block_engine = block;
            vm.config.superblocks = sb;
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
            vm
        };
        let traced = run(true, true);
        let blocked = run(true, false);
        let stepped = run(false, false);
        for vm in [&blocked, &stepped] {
            assert_eq!(traced.digest(), vm.digest());
            assert_eq!(traced.retired(), vm.retired());
            assert_eq!(traced.cycles(), vm.cycles());
        }
        traced.block_stats()
    }

    #[test]
    fn superblocks_match_stepped_on_hot_loop() {
        let stats = assert_engines_agree(hot_loop(500));
        assert!(stats.trace_builds > 0, "hot head crossed the heat threshold: {stats:?}");
        assert!(stats.trace_hits > 0, "trace re-dispatched: {stats:?}");
    }

    #[test]
    fn superblocks_match_stepped_on_hot_call_ret() {
        let stats = assert_engines_agree(|a| {
            a.movi(Reg::R1, 300);
            a.movi(Reg::R2, 0);
            a.label("loop");
            a.call("f");
            a.addi(Reg::R1, Reg::R1, -1);
            a.bne(Reg::R1, Reg::R2, "loop");
            a.hlt();
            a.label("f");
            a.addi(Reg::R4, Reg::R4, 1);
            a.ret();
        });
        assert!(stats.trace_hits > 0, "call/ret chain traced: {stats:?}");
    }

    #[test]
    fn superblock_smc_invalidates_whole_trace() {
        // The loop patches one of its own instructions after the trace is
        // hot: every constituent-page bump must flush the trace and the
        // partial commit must match single-stepping exactly.
        let patched =
            u64::from_le_bytes(Instruction::new(Opcode::MovImm, Reg::R5, Reg::R0, Reg::R0, 9).encode());
        let stats = assert_engines_agree(move |a| {
            a.movi(Reg::R1, 300);
            a.movi(Reg::R2, 0);
            a.movi64(Reg::R6, patched);
            a.movi(Reg::R8, 100);
            a.label("loop");
            a.label("patchme");
            a.movi(Reg::R5, 4);
            // Patch the hot loop's own body exactly once, long after the
            // trace has formed (iteration counts down from 300; the store
            // fires at 100).
            a.bne(Reg::R1, Reg::R8, "skip");
            a.lea(Reg::R7, "patchme");
            a.st(Reg::R7, 0, Reg::R6);
            a.label("skip");
            a.addi(Reg::R1, Reg::R1, -1);
            a.bne(Reg::R1, Reg::R2, "loop");
            a.hlt();
        });
        assert!(stats.trace_flushes > 0, "self-patching flushed the trace: {stats:?}");
        assert!(stats.trace_builds >= 2, "the head re-heats and rebuilds after the flush: {stats:?}");
    }

    #[test]
    fn superblock_budget_cuts_dispatch_to_a_prefix() {
        // Tiny retired budgets land mid-trace on every dispatch: the
        // horizon-cut prefix must stop at exactly the same instruction
        // as the stepped engine.
        let run = |sb: bool| {
            let mut vm = vm_with(hot_loop(400));
            vm.config.block_engine = sb;
            vm.config.superblocks = sb;
            let mut stop = 0;
            loop {
                stop += 7;
                match vm.run(RunBudget::until(stop)) {
                    Exit::BudgetExhausted => assert_eq!(vm.retired(), stop),
                    Exit::Halt => return vm,
                    other => panic!("unexpected exit {other:?}"),
                }
            }
        };
        let traced = run(true);
        let stepped = run(false);
        assert_eq!(traced.digest(), stepped.digest());
        assert_eq!(traced.retired(), stepped.retired());
        assert_eq!(traced.cycles(), stepped.cycles());
        let stats = traced.block_stats();
        assert!(stats.trace_hits > 0, "prefix dispatches still count as hits: {stats:?}");
    }

    #[test]
    fn superblock_respects_breakpoint_inside_trace() {
        // Warm the trace, then drop a breakpoint on an op in its middle:
        // the dispatch prefix must stop short and step() must fire the
        // breakpoint at exactly the stepped engine's instruction count.
        let run = |sb: bool| {
            let mut vm = vm_with(hot_loop(400));
            vm.config.block_engine = sb;
            vm.config.superblocks = sb;
            assert_eq!(vm.run(RunBudget::until(1000)), Exit::BudgetExhausted);
            // The `addi r3` op inside the loop body (entry 0x1000, two
            // movi, then the loop's store at 0x1010 and addi at 0x1018).
            vm.add_breakpoint(0x1018);
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Breakpoint { pc: 0x1018 });
            let at_bp = vm.retired();
            vm.skip_breakpoint_once();
            vm.remove_breakpoint(0x1018);
            assert_eq!(vm.run(RunBudget::unbounded()), Exit::Halt);
            (vm, at_bp)
        };
        let (traced, traced_bp) = run(true);
        let (stepped, stepped_bp) = run(false);
        assert_eq!(traced_bp, stepped_bp);
        assert_eq!(traced.digest(), stepped.digest());
        assert_eq!(traced.retired(), stepped.retired());
        assert_eq!(traced.cycles(), stepped.cycles());
    }

    #[test]
    fn superblock_knob_is_wall_clock_only_on_indirect_code() {
        // Indirect jumps whose target alternates: the trace's
        // expected-target guard mispredicts on every other iteration and
        // must side-exit with exact partial commits.
        assert_engines_agree(|a| {
            a.movi(Reg::R1, 400);
            a.movi(Reg::R2, 0);
            a.label("loop");
            a.andi(Reg::R4, Reg::R1, 1);
            a.lea(Reg::R5, "even");
            a.lea(Reg::R6, "odd");
            a.bne(Reg::R4, Reg::R2, "go_odd");
            a.jmpr(Reg::R5);
            a.label("go_odd");
            a.jmpr(Reg::R6);
            a.label("even");
            a.addi(Reg::R3, Reg::R3, 2);
            a.jmp("next");
            a.label("odd");
            a.addi(Reg::R3, Reg::R3, 3);
            a.label("next");
            a.addi(Reg::R1, Reg::R1, -1);
            a.bne(Reg::R1, Reg::R2, "loop");
            a.hlt();
        });
    }

    // Memoized page hashes: the digests must equal references that hash
    // raw bytes with no memo, after any sequence of writes, snapshots,
    // restores, image fills and clones.

    fn raw_page_hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update_words(bytes);
        h.finish().0
    }

    fn reference_vm_digest(vm: &GuestVm) -> Digest {
        let mut h = Fnv1a::new();
        for r in Reg::ALL {
            h.update_u64(vm.cpu.reg(r));
        }
        h.update_u64(vm.cpu.pc);
        h.update_u64(vm.cpu.mode.to_bits());
        h.update_u64(vm.cpu.interrupts_enabled as u64);
        h.update_u64(vm.cpu.halted as u64);
        for page in vm.mem.pages() {
            h.update_u64(raw_page_hash(&page[..]));
        }
        h.finish()
    }

    fn reference_disk_digest(disk: &crate::BlockStore) -> Digest {
        let mut h = Fnv1a::new();
        for block in disk.snapshot(None).blocks().iter() {
            h.update_u64(raw_page_hash(&block[..]));
        }
        h.finish()
    }

    const MEMO_PAGES: u64 = 6;
    const MEMO_BLOCKS: usize = 4;

    #[derive(Debug, Clone)]
    enum StateOp {
        U8(u64, u8),
        U64(u64, u64),
        // Up to two pages of one byte value: crosses page boundaries.
        Bytes(u64, usize, u8),
        Sector(u64, u8),
        Snapshot,
        Restore(usize),
        Fill(u64),
        Clone,
        Check,
    }

    fn state_op() -> impl proptest::Strategy<Value = StateOp> {
        use proptest::prelude::*;
        let span = MEMO_PAGES * crate::PAGE_SIZE as u64;
        let sectors = (MEMO_BLOCKS * crate::BlockStore::SECTORS_PER_BLOCK) as u64;
        prop_oneof![
            3 => (0..span, any::<u8>()).prop_map(|(a, v)| StateOp::U8(a, v)),
            3 => (0..span, any::<u64>()).prop_map(|(a, v)| StateOp::U64(a, v)),
            2 => (0..span, 1..2 * crate::PAGE_SIZE, any::<u8>()).prop_map(|(a, n, v)| StateOp::Bytes(a, n, v)),
            3 => (0..sectors, any::<u8>()).prop_map(|(s, v)| StateOp::Sector(s, v)),
            2 => Just(StateOp::Snapshot),
            2 => any::<usize>().prop_map(StateOp::Restore),
            1 => (0..3u64).prop_map(StateOp::Fill),
            1 => Just(StateOp::Clone),
            3 => Just(StateOp::Check),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24, ..Default::default() })]

        #[test]
        fn memoized_digests_match_unmemoized_reference(
            ops in proptest::collection::vec(state_op(), 1..40),
        ) {
            let mut vm = GuestVm::new(MachineConfig::default(), &[]);
            let mut disk = crate::BlockStore::new(MEMO_BLOCKS * crate::PAGE_SIZE);
            let mut snaps = vec![(vm.mem().snapshot_pages(), disk.snapshot(None))];
            let mut clones: Vec<(GuestVm, Digest)> = Vec::new();
            for op in ops {
                match op {
                    StateOp::U8(a, v) => vm.mem_mut().write_u8(a, v).unwrap(),
                    StateOp::U64(a, v) => vm.mem_mut().write_u64(a, v).unwrap(),
                    StateOp::Bytes(a, n, v) => vm.mem_mut().write_bytes(a, &vec![v; n]).unwrap(),
                    StateOp::Sector(s, v) => disk.write_sector(s, &[v; crate::SECTOR_SIZE]).unwrap(),
                    StateOp::Snapshot => {
                        let (pages, blocks) = snaps.last().expect("the first snapshot is never popped");
                        let snap = (vm.mem().snapshot(Some(pages)), disk.snapshot(Some(blocks)));
                        snaps.push(snap);
                    }
                    StateOp::Restore(i) => {
                        let (pages, blocks) = &snaps[i % snaps.len()];
                        vm.mem_mut().restore_pages(pages);
                        disk.restore(blocks);
                    }
                    StateOp::Fill(seed) => disk.fill_deterministic(seed),
                    StateOp::Clone => {
                        let clone = vm.clone();
                        let digest = reference_vm_digest(&clone);
                        clones.push((clone, digest));
                    }
                    StateOp::Check => {
                        proptest::prop_assert_eq!(vm.digest(), reference_vm_digest(&vm));
                        proptest::prop_assert_eq!(disk.digest(), reference_disk_digest(&disk));
                    }
                }
            }
            proptest::prop_assert_eq!(vm.digest(), reference_vm_digest(&vm));
            proptest::prop_assert_eq!(disk.digest(), reference_disk_digest(&disk));
            // A clone shares every page with the VM it was cloned from;
            // the VM's later writes must not reach the clone's digest.
            for (clone, at_clone) in &clones {
                proptest::prop_assert_eq!(clone.digest(), *at_clone);
            }
        }
    }

    #[test]
    fn flipping_any_sampled_bit_of_any_page_changes_the_digest() {
        let mut vm = GuestVm::new(MachineConfig::default(), &[]);
        for page in 0..vm.mem().page_count() as u64 {
            vm.mem_mut().write_u64(page * crate::PAGE_SIZE as u64, page.wrapping_mul(0x9e37_79b9)).unwrap();
        }
        let base = vm.digest();
        assert_eq!(base, reference_vm_digest(&vm));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for page in 0..vm.mem().page_count() {
            for _ in 0..2 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bit = (x % (crate::PAGE_SIZE as u64 * 8)) as usize;
                let addr = (page * crate::PAGE_SIZE + bit / 8) as u64;
                let byte = vm.mem().read_u8(addr).unwrap();
                vm.mem_mut().write_u8(addr, byte ^ (1 << (bit % 8))).unwrap();
                assert_ne!(vm.digest(), base, "page {page} bit {bit} did not change the digest");
                vm.mem_mut().write_u8(addr, byte).unwrap();
                assert_eq!(vm.digest(), base, "page {page}: restoring the bit must restore the digest");
            }
        }
    }

    #[test]
    fn a_write_after_another_thread_hashed_the_page_changes_only_the_writer() {
        let mut reader = GuestVm::new(MachineConfig::default(), &[]);
        reader.mem_mut().write_u64(0x3000, 5).unwrap();
        let mut writer = reader.clone();
        assert!(std::sync::Arc::ptr_eq(reader.mem().page_arc(3).unwrap(), writer.mem().page_arc(3).unwrap()));
        let (hashed_tx, hashed_rx) = std::sync::mpsc::channel();
        let (wrote_tx, wrote_rx) = std::sync::mpsc::channel();
        let (reader_digests, writer_digests) = std::thread::scope(|s| {
            let (reader, writer) = (&reader, &mut writer);
            let reader = s.spawn(move || {
                let before = reader.digest();
                hashed_tx.send(()).unwrap();
                wrote_rx.recv().unwrap();
                (before, reader.digest())
            });
            let writer = s.spawn(move || {
                // The reader has hashed every page, the shared one included.
                hashed_rx.recv().unwrap();
                let before = writer.digest();
                writer.mem_mut().write_u64(0x3000, 6).unwrap();
                let after = writer.digest();
                wrote_tx.send(()).unwrap();
                (before, after)
            });
            (reader.join().unwrap(), writer.join().unwrap())
        });
        assert_eq!(reader_digests.0, reader_digests.1, "the reader's digest must not see the write");
        assert_eq!(reader_digests.1, reference_vm_digest(&reader));
        assert_eq!(writer_digests.0, reader_digests.0);
        assert_ne!(writer_digests.1, writer_digests.0, "the writer's digest must see its write");
        assert_eq!(writer_digests.1, reference_vm_digest(&writer));
    }
}

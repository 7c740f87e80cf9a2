//! VM exits and their controls.

use rnr_isa::{Addr, Reg};
use rnr_ras::Mispredict;

/// When call/return instructions trap to the hypervisor.
///
/// The alarm replayer "traps at every call and return instruction, inducing
/// VM exits and transferring control to the hypervisor" (§4.6.2); its
/// measured slowdown "directly relates to how many *kernel* call and return
/// instructions were executed" (§8.3.2), hence the kernel-only variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum CallRetTrap {
    /// Never trap (recording and checkpointing replay).
    #[default]
    None,
    /// Trap calls/returns executed in kernel mode (kernel-ROP alarm replay).
    KernelOnly,
    /// Trap all calls/returns (full-system alarm replay).
    All,
}

/// The VMCS-style execution controls (§5.1, §7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExitControls {
    /// Trap `rdtsc` (recording needs the value logged; baselines run it
    /// natively off the cycle counter).
    pub rdtsc_exiting: bool,
    /// Trap when the RAS is about to evict an entry (§4.5). Recording only.
    pub evict_exiting: bool,
    /// Call/return trapping for the alarm replayer.
    pub callret_trap: CallRetTrap,
}

impl Default for ExitControls {
    /// Defaults to the *recording* configuration: rdtsc and evictions trap.
    fn default() -> ExitControls {
        ExitControls { rdtsc_exiting: true, evict_exiting: true, callret_trap: CallRetTrap::None }
    }
}

/// Guest faults (treated as guest bugs / attack side effects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// Memory access outside guest physical memory.
    BadMemory {
        /// Faulting address.
        addr: Addr,
    },
    /// Fetch of an undecodable instruction.
    BadInstruction {
        /// PC of the fetch.
        pc: Addr,
    },
    /// A privileged instruction executed in user mode.
    Privilege {
        /// PC of the instruction.
        pc: Addr,
    },
}

/// Reasons control returned from the guest to the hypervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// The instruction/cycle budget given to [`GuestVm::run`](crate::GuestVm::run)
    /// was exhausted (not a guest-visible event).
    BudgetExhausted,
    /// `hlt` executed: the guest idles until an interrupt.
    Halt,
    /// The guest enabled interrupts while an interrupt window was requested.
    InterruptWindow,
    /// Trapped `rdtsc`; complete with [`FinishIo::Read`].
    Rdtsc {
        /// Destination register.
        rd: Reg,
    },
    /// Trapped port read; complete with [`FinishIo::Read`].
    PioIn {
        /// Destination register.
        rd: Reg,
        /// Port number.
        port: u16,
    },
    /// Trapped port write; complete with [`FinishIo::Write`].
    PioOut {
        /// Port number.
        port: u16,
        /// Value written.
        value: u64,
    },
    /// Trapped MMIO load; complete with [`FinishIo::Read`].
    MmioRead {
        /// Destination register.
        rd: Reg,
        /// Guest physical address.
        addr: Addr,
    },
    /// Trapped MMIO store; complete with [`FinishIo::Write`].
    MmioWrite {
        /// Guest physical address.
        addr: Addr,
        /// Value written.
        value: u64,
    },
    /// Paravirtual hypercall; request in `r1..r4`, complete with
    /// [`FinishIo::Read`] targeting `r1`.
    Vmcall,
    /// A call overflowed the RAS and this entry is about to be evicted
    /// (§4.5). The instruction has retired; resume directly.
    RasEvict {
        /// The evicted return address.
        evicted: Addr,
        /// The return address the overflowing call pushed.
        ret_addr: Addr,
    },
    /// A return mispredicted — the ROP alarm trigger. The instruction has
    /// retired (execution continues at the *actual* target); resume directly.
    RasMispredict(Mispredict),
    /// An indirect branch/call violated the hardware JOP table (Table 1,
    /// row 2). The instruction has retired; resume directly.
    JopAlarm {
        /// PC of the indirect branch or call.
        branch_pc: Addr,
        /// The illegal resolved target.
        target: Addr,
    },
    /// A store tripped the Variable Record Table's noisy memory-safety
    /// rules (DESIGN.md §15). The instruction has retired (the write
    /// landed); resume directly.
    VrtAlarm {
        /// Which watch window fired.
        kind: rnr_vrt::VrtKind,
        /// First byte of the offending store.
        addr: Addr,
    },
    /// A breakpointed instruction is about to execute (context-switch
    /// interposition, §5.2.1). Resume with
    /// [`GuestVm::skip_breakpoint_once`](crate::GuestVm::skip_breakpoint_once).
    Breakpoint {
        /// PC of the trapped instruction.
        pc: Addr,
    },
    /// A trapped call retired (alarm replay); `ret_addr` was pushed.
    CallTrap {
        /// The pushed return address.
        ret_addr: Addr,
        /// PC of the call instruction.
        pc: Addr,
    },
    /// A trapped return retired (alarm replay).
    RetTrap {
        /// PC of the return instruction.
        ret_pc: Addr,
        /// The resolved actual target.
        target: Addr,
    },
    /// The guest faulted.
    Fault(FaultKind),
}

/// Completion actions for exits that interrupted an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishIo {
    /// Provide the result of a trapped read (`rdtsc`, `in`, MMIO load,
    /// `vmcall` return value).
    Read {
        /// Destination register.
        rd: Reg,
        /// The value to deliver.
        value: u64,
    },
    /// Acknowledge a trapped write (`out`, MMIO store).
    Write,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_controls_are_recording() {
        let c = ExitControls::default();
        assert!(c.rdtsc_exiting && c.evict_exiting);
        assert_eq!(c.callret_trap, CallRetTrap::None);
    }
}

//! The guest microkernel, assembled programmatically.
//!
//! See the crate docs for the design rationale. The kernel is deliberately
//! Linux-shaped where the paper depends on Linux details: a single
//! stack-switch instruction inside `context_switch` (the hypervisor's trap
//! point), a non-procedural return with exactly three legal targets, thread
//! ID reuse, and a recursive network-driver copy path.

use rnr_isa::{Addr, Assembler, Image, Reg};
use rnr_machine::{
    MachineConfig, DISK_CMD_READ, DISK_CMD_WRITE, MMIO_NIC_RX_LEN, MMIO_NIC_RX_POP, PORT_CONSOLE,
    PORT_DISK_ADDR, PORT_DISK_CMD, PORT_DISK_COUNT, PORT_DISK_SECTOR, PORT_NIC_TX_ADDR, PORT_NIC_TX_CMD,
    PORT_NIC_TX_LEN, PORT_RNG, PORT_VRT_BASE, PORT_VRT_CMD, PORT_VRT_LEN, VRT_CMD_DECLARE, VRT_CMD_RETIRE,
};
use rnr_ras::Whitelists;

use crate::layout::{self, state, sys, tcb};

use Reg::{R1, R15, R2, R3, R5, R6, R7, R8, R9};

const SP: Reg = Reg::SP;

/// Builds the guest kernel image.
///
/// ```
/// use rnr_guest::KernelBuilder;
/// let kernel = KernelBuilder::new().build();
/// assert!(kernel.image().len() > 0);
/// assert_eq!(kernel.whitelists().ret_len(), 1); // one non-procedural return
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelBuilder {
    pv: bool,
}

impl KernelBuilder {
    /// A builder for the standard (fully emulated I/O) kernel.
    pub fn new() -> KernelBuilder {
        KernelBuilder::default()
    }

    /// Selects paravirtual I/O (`vmcall`-based drivers) — the `NoRecPV`
    /// baseline of Figure 5(a). Recording requires hypervisor-mediated I/O,
    /// so PV kernels are never recorded.
    pub fn paravirtual(mut self, pv: bool) -> KernelBuilder {
        self.pv = pv;
        self
    }

    /// Assembles the kernel.
    ///
    /// # Panics
    ///
    /// Panics on internal assembly errors (undefined labels), which are
    /// kernel construction bugs.
    pub fn build(&self) -> KernelImage {
        let mut a = Assembler::new(layout::KERNEL_BASE);
        emit_boot(&mut a);
        emit_scheduler(&mut a);
        emit_thread_mgmt(&mut a);
        emit_syscall_entry(&mut a, self.pv);
        emit_syscall_handlers(&mut a);
        emit_pv_handlers(&mut a);
        emit_irq_handlers(&mut a);
        emit_net_queue(&mut a);
        emit_string_and_msg(&mut a);
        emit_heap(&mut a);
        emit_misc(&mut a);
        emit_data(&mut a, self.pv);
        let image = a.assemble().expect("kernel assembly must succeed");
        KernelImage { image, pv: self.pv }
    }
}

/// An assembled kernel plus the hypervisor's symbol contract.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KernelImage {
    image: Image,
    pv: bool,
}

impl KernelImage {
    /// The raw binary image (loaded at [`layout::KERNEL_BASE`]).
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// True if this kernel uses paravirtual I/O.
    pub fn is_paravirtual(&self) -> bool {
        self.pv
    }

    /// Boot entry point.
    pub fn entry(&self) -> Addr {
        self.image.require_symbol("kernel_main")
    }

    /// The syscall entry point (programmed into the machine config).
    pub fn syscall_entry(&self) -> Addr {
        self.image.require_symbol("syscall_entry")
    }

    /// PC of the single stack-switch instruction inside `context_switch` —
    /// where the hypervisor sets its interposition trap (§5.2.1).
    pub fn switch_sp_trap(&self) -> Addr {
        self.image.require_symbol("cs_switch_sp")
    }

    /// PC of the non-procedural return ending a context switch (the one
    /// entry of the `RetWhitelist`, §4.4).
    pub fn nonproc_ret(&self) -> Addr {
        self.image.require_symbol("cs_nonproc_ret")
    }

    /// The three legal targets of the non-procedural return (`TarWhitelist`):
    /// resume an existing task, finish a fork, start a kernel thread.
    pub fn whitelist_targets(&self) -> [Addr; 3] {
        [
            self.image.require_symbol("resume_point"),
            self.image.require_symbol("ret_from_fork"),
            self.image.require_symbol("ret_from_kthread"),
        ]
    }

    /// The whitelists the hypervisor programs into the RAS hardware, found
    /// "by analyzing the binary image of the guest kernel" (§4.4).
    pub fn whitelists(&self) -> Whitelists {
        Whitelists::from_addrs([self.nonproc_ret()], self.whitelist_targets())
    }

    /// Trap PC for thread creation (next thread's ID is in `r1`).
    pub fn thread_create_trap(&self) -> Addr {
        self.image.require_symbol("thread_create_commit")
    }

    /// Trap PC for thread exit (dying thread's ID is in `r1`).
    pub fn thread_exit_trap(&self) -> Addr {
        self.image.require_symbol("thread_exit_commit")
    }

    /// Guest address of the `task_struct` array (introspection).
    pub fn task_structs(&self) -> Addr {
        self.image.require_symbol("task_structs")
    }

    /// Guest address of the `current` task pointer.
    pub fn current_ptr(&self) -> Addr {
        self.image.require_symbol("current")
    }

    /// Guest address of the privilege flag the §6 attack escalates.
    pub fn priv_flag(&self) -> Addr {
        self.image.require_symbol("priv_flag")
    }

    /// Guest address of the kernel function-pointer table (the attacker's
    /// source for the `grant_root` pointer).
    pub fn kfunc_table(&self) -> Addr {
        self.image.require_symbol("kfunc_table")
    }

    /// Address of the `grant_root` routine itself.
    pub fn grant_root(&self) -> Addr {
        self.image.require_symbol("grant_root")
    }

    /// Guest address of the kernel oops counter.
    pub fn oops_count(&self) -> Addr {
        self.image.require_symbol("oops_count")
    }

    /// Address of the vulnerable `proc_msg` routine (for reports).
    pub fn proc_msg(&self) -> Addr {
        self.image.require_symbol("proc_msg")
    }
}

fn zero(a: &mut Assembler, r: Reg) {
    a.movi(r, 0);
}

fn load_global(a: &mut Assembler, rd: Reg, label: &str) {
    a.lea(R15, label);
    a.ld(rd, R15, 0);
}

fn store_global_reg(a: &mut Assembler, label: &str, rs: Reg) {
    a.lea(R15, label);
    a.st(R15, 0, rs);
}

fn emit_boot(a: &mut Assembler) {
    a.label("kernel_main");
    // Boot stack: slot 0 (the idle/boot thread).
    a.movi(SP, layout::stack_top(0) as i32);
    // task_structs[0] = { state: RUNNABLE, tid: 1, kind: kernel }.
    a.lea(R5, "task_structs");
    a.movi(R6, state::RUNNABLE as i32);
    a.st(R5, tcb::STATE, R6);
    a.movi(R6, 1);
    a.st(R5, tcb::TID, R6);
    a.st(R5, tcb::KIND, R6);
    store_global_reg(a, "current", R5);
    // Install the IVT.
    a.movi(R5, MachineConfig::IVT_BASE as i32);
    a.lea(R6, "irq_timer");
    a.st(R5, 0, R6);
    a.lea(R6, "irq_disk");
    a.st(R5, 8, R6);
    a.lea(R6, "irq_nic");
    a.st(R5, 16, R6);
    // Spawn the boot-table threads. r10..r12 are free in the boot context.
    a.movi(Reg::R10, layout::BOOT_TABLE as i32);
    a.ld(Reg::R11, Reg::R10, 0); // count
    zero(a, Reg::R12); // i
    a.label("boot_loop");
    a.bgeu(Reg::R12, Reg::R11, "boot_done");
    a.muli(R5, Reg::R12, 16);
    a.add(R5, R5, Reg::R10);
    a.ld(R1, R5, 8); // entry
    a.ld(R2, R5, 16); // kind
    a.call("thread_create");
    a.addi(Reg::R12, Reg::R12, 1);
    a.jmp("boot_loop");
    a.label("boot_done");
    a.sti();
    a.label("idle_loop");
    a.hlt();
    a.jmp("idle_loop");
}

fn emit_scheduler(a: &mut Assembler) {
    // schedule(): pick the next runnable thread round-robin; slot 0 (idle)
    // runs only when nothing else can. Clobbers r1-r3, r5-r9, r15.
    a.label("schedule");
    a.cli();
    load_global(a, R1, "current"); // prev tcb
    a.lea(R5, "task_structs");
    a.sub(R6, R1, R5);
    a.movi(R7, layout::TCB_STRIDE as i32);
    a.divu(R6, R6, R7); // prev slot
    a.movi(R7, 1); // i
    a.label("sched_scan");
    a.movi(R8, layout::MAX_THREADS as i32);
    a.bgeu(R7, R8, "sched_no_other");
    a.add(R9, R6, R7); // s = slot + i
    a.divu(R2, R9, R8);
    a.muli(R2, R2, layout::MAX_THREADS as i32);
    a.sub(R9, R9, R2); // s %= MAX
    zero(a, R8);
    a.beq(R9, R8, "sched_next_i"); // never pick idle in the scan
    a.muli(R2, R9, layout::TCB_STRIDE as i32);
    a.add(R2, R2, R5); // candidate tcb
    a.ld(R8, R2, tcb::STATE);
    a.movi(R3, state::RUNNABLE as i32);
    a.beq(R8, R3, "sched_check");
    a.label("sched_next_i");
    a.addi(R7, R7, 1);
    a.jmp("sched_scan");
    a.label("sched_no_other");
    // Nothing else runnable: keep running prev if it still can, else idle.
    a.ld(R8, R1, tcb::STATE);
    a.movi(R3, state::RUNNABLE as i32);
    a.beq(R8, R3, "sched_same");
    a.mov(R2, R5); // &task_structs[0]: the idle thread
    a.label("sched_check");
    a.beq(R2, R1, "sched_same");
    store_global_reg(a, "current", R2);
    a.jmp("context_switch");
    a.label("sched_same");
    a.sti();
    a.ret();

    // context_switch(r1 = prev tcb, r2 = next tcb). Reached by JUMP, not
    // call: the final `ret` has no matching call — the paper's
    // non-procedural return (§4.4).
    a.label("context_switch");
    a.push(Reg::R10);
    a.push(Reg::R11);
    a.push(Reg::R12);
    a.push(Reg::R13);
    a.lea(R15, "resume_point");
    a.push(R15); // manual return-address push: no RAS entry
    a.st(R1, tcb::SP, SP);
    a.ld(R15, R2, tcb::SP);
    a.label("cs_switch_sp");
    a.mov(SP, R15); // THE stack-switch instruction: hypervisor trap point
    a.label("cs_nonproc_ret");
    a.ret(); // whitelisted: resume_point | ret_from_fork | ret_from_kthread
    a.label("resume_point");
    a.pop(Reg::R13);
    a.pop(Reg::R12);
    a.pop(Reg::R11);
    a.pop(Reg::R10);
    a.sti();
    a.ret();

    // First activation of a forked user thread.
    a.label("ret_from_fork");
    load_global(a, R15, "current");
    a.ld(R5, R15, tcb::ENTRY);
    a.sti();
    a.push(R5); // sysret target
    a.movi(R6, 3); // flags: user mode | interrupts enabled
    a.push(R6);
    a.sysret();

    // First activation of a kernel thread.
    a.label("ret_from_kthread");
    load_global(a, R15, "current");
    a.ld(R5, R15, tcb::ENTRY);
    a.sti();
    a.jmpr(R5);
}

fn emit_thread_mgmt(a: &mut Assembler) {
    // thread_create(r1 = entry, r2 = kind) -> r1 = tid | -1.
    a.label("thread_create");
    a.lea(R15, "task_structs");
    a.movi(R5, 1); // slot
    a.label("tc_scan");
    a.movi(R6, layout::MAX_THREADS as i32);
    a.bgeu(R5, R6, "tc_fail");
    a.muli(R6, R5, layout::TCB_STRIDE as i32);
    a.add(R6, R6, R15); // &ts[slot]
    a.ld(R7, R6, tcb::STATE);
    zero(a, R8);
    a.beq(R7, R8, "tc_found");
    a.addi(R5, R5, 1);
    a.jmp("tc_scan");
    a.label("tc_found");
    a.addi(R9, R5, 1); // tid = slot + 1 (IDs are reused, §5.2.2)
    a.st(R6, tcb::TID, R9);
    a.st(R6, tcb::ENTRY, R1);
    a.st(R6, tcb::KIND, R2);
    // Craft the initial stack: one word, the non-procedural return target.
    a.muli(R7, R9, layout::STACK_SIZE as i32); // (slot + 1) * STACK_SIZE
    a.movi(R8, layout::STACKS_BASE as i32);
    a.add(R7, R7, R8);
    a.addi(R7, R7, -8);
    zero(a, R8);
    a.bne(R2, R8, "tc_kthread");
    a.lea(R8, "ret_from_fork");
    a.jmp("tc_stack");
    a.label("tc_kthread");
    a.lea(R8, "ret_from_kthread");
    a.label("tc_stack");
    a.st(R7, 0, R8);
    a.st(R6, tcb::SP, R7);
    a.movi(R8, state::RUNNABLE as i32);
    a.st(R6, tcb::STATE, R8);
    a.mov(R1, R9);
    a.label("thread_create_commit"); // hypervisor trap: r1 = new tid
    a.nop();
    a.ret();
    a.label("tc_fail");
    a.movi(R1, -1);
    a.ret();

    // sys_exit: free the slot, notify the hypervisor, schedule away.
    // Runs with interrupts disabled so the free/notify/switch sequence is
    // atomic — a preemption after `state = FREE` would abandon the thread
    // before the hypervisor's exit trap fires.
    a.label("sys_exit");
    a.cli();
    load_global(a, R5, "current");
    a.ld(R1, R5, tcb::TID);
    zero(a, R6);
    a.st(R5, tcb::STATE, R6);
    a.label("thread_exit_commit"); // hypervisor trap: r1 = dying tid
    a.nop();
    a.call("schedule"); // never returns (thread is not runnable)
    a.label("exit_spin");
    a.jmp("exit_spin");
}

fn emit_syscall_entry(a: &mut Assembler, _pv: bool) {
    a.label("syscall_entry");
    // The hardware leaves the syscall number in the scratch register r15.
    a.movi(R5, sys::COUNT as i32);
    a.bgeu(R15, R5, "sys_bad");
    a.push(R1); // preserve arg 1 across the table walk
    a.call("kaudit_enter"); // accounting helper chain (Linux-like call depth)
    a.lea(R1, "syscall_table");
    a.muli(R5, R15, 8);
    a.add(R1, R1, R5); // &table[nr]
    a.call("fetch_handler"); // r9 = handler
    a.pop(R1);
    a.callr(R9); // dispatch (genuine indirect call; also the G3 gadget)
    a.push(R1); // preserve the handler's return value
    a.call("kaudit_exit");
    a.pop(R1);
    a.sysret();
    a.label("sys_bad");
    a.movi(R1, -1);
    a.sysret();

    // fetch_handler(r1 = table slot) -> r9. Its body is the G2 gadget
    // (`ld r9,[r1]; ret`) of the Figure 10 chain.
    a.label("fetch_handler");
    a.ld(R9, R1, 0);
    a.ret();

    // Syscall accounting: a small helper-call chain on entry and exit,
    // standing in for the audit/tracing/refcount call depth of a real
    // kernel's syscall path (this density drives Figure 9's alarm-replay
    // slowdown). Clobbers r5-r8 only.
    a.label("kaudit_enter");
    a.call("kstat_bump");
    a.call("kquota_note");
    a.call("kctx_note");
    a.ret();
    a.label("kaudit_exit");
    a.call("kstat_bump");
    a.call("kctx_note");
    a.ret();
    a.label("kstat_bump");
    a.call("kstat_inc");
    a.call("kstat_sync");
    a.ret();
    a.label("kstat_inc");
    a.lea(R8, "kstat_syscalls");
    a.ld(R5, R8, 0);
    a.addi(R5, R5, 1);
    a.st(R8, 0, R5);
    a.ret();
    a.label("kstat_sync");
    a.lea(R8, "kstat_syscalls");
    a.ld(R5, R8, 0);
    a.andi(R5, R5, 0xff);
    a.ret();
    a.label("kquota_note");
    a.call("kstat_bump");
    a.lea(R8, "kstat_syscalls");
    a.ld(R5, R8, 0);
    a.andi(R5, R5, 0x3f);
    a.ret();
    a.label("kctx_note");
    a.call("kstat_bump");
    a.lea(R8, "load_avg");
    a.ld(R5, R8, 0);
    a.shri(R5, R5, 1);
    a.ret();
}

fn emit_syscall_handlers(a: &mut Assembler) {
    // sys_yield.
    a.label("sys_yield");
    a.call("schedule");
    a.movi(R1, 0);
    a.ret();

    // sys_gettime: the trapped-and-logged rdtsc of Figure 5(b).
    a.label("sys_gettime");
    a.rdtsc(R1);
    a.ret();

    // sys_rand: hardware random source (non-deterministic, logged).
    a.label("sys_rand");
    a.pio_in(R1, PORT_RNG);
    a.ret();

    // sys_log(r1 = byte).
    a.label("sys_log");
    a.pio_out(PORT_CONSOLE, R1);
    a.movi(R1, 0);
    a.ret();

    // sys_getpid.
    a.label("sys_getpid");
    load_global(a, R5, "current");
    a.ld(R1, R5, tcb::TID);
    a.ret();

    // sys_spawn(r1 = entry, r2 = kind).
    a.label("sys_spawn");
    a.call("thread_create");
    a.ret();

    // sys_read(r1 = sector, r2 = buf, r3 = count): acquire the controller
    // (one operation in flight), program it, block until the completion
    // interrupt. The claim/submit/block sequence runs with interrupts
    // disabled to exclude lost wakeups; `schedule`'s resume path re-enables.
    a.label("sys_read");
    a.push(R1);
    a.mov(R1, R2);
    a.call("validate_buf");
    a.pop(R1);
    a.movi(R9, DISK_CMD_READ as i32);
    a.jmp("disk_claim");

    // sys_write: same flow, write command.
    a.label("sys_write");
    a.push(R1);
    a.mov(R1, R2);
    a.call("validate_buf");
    a.pop(R1);
    a.movi(R9, DISK_CMD_WRITE as i32);
    a.label("disk_claim");
    a.cli();
    load_global(a, R5, "disk_busy");
    zero(a, R6);
    a.beq(R5, R6, "disk_claimed");
    // Controller busy: sleep on the disk wait queue; the completion
    // interrupt wakes every disk waiter and we retry the claim. The request
    // registers must survive the scheduler.
    a.push(R1);
    a.push(R2);
    a.push(R3);
    a.push(R9);
    load_global(a, R5, "current");
    a.movi(R6, state::BLOCKED as i32);
    a.st(R5, tcb::STATE, R6);
    a.movi(R6, layout::wait::DISK as i32);
    a.st(R5, tcb::WAIT, R6);
    a.call("schedule"); // re-enables interrupts on resume
    a.pop(R9);
    a.pop(R3);
    a.pop(R2);
    a.pop(R1);
    a.jmp("disk_claim");
    a.label("disk_claimed");
    a.movi(R6, 1);
    store_global_reg(a, "disk_busy", R6);
    // Register as the waiter and block BEFORE submitting, still under cli,
    // so the completion interrupt can never race the block.
    load_global(a, R5, "current");
    a.movi(R6, state::BLOCKED as i32);
    a.st(R5, tcb::STATE, R6);
    a.movi(R6, layout::wait::DISK as i32);
    a.st(R5, tcb::WAIT, R6);
    store_global_reg(a, "disk_waiter", R5);
    a.mov(R5, R9);
    a.call("disk_submit");
    a.call("schedule");
    a.movi(R1, 0);
    a.ret();

    // disk_submit(r1 = sector, r2 = buf, r3 = count, r5 = command).
    a.label("disk_submit");
    a.pio_out(PORT_DISK_SECTOR, R1);
    a.pio_out(PORT_DISK_ADDR, R2);
    a.pio_out(PORT_DISK_COUNT, R3);
    a.pio_out(PORT_DISK_CMD, R5);
    a.ret();

    // sys_netrecv(r1 = dst buffer) -> r1 = frame length. The empty-check
    // and block are atomic w.r.t. the NIC interrupt (cli), and the NIC
    // handler wakes *all* net waiters, so multiple server threads can block
    // here concurrently.
    a.label("sys_netrecv");
    a.push(Reg::R10);
    a.mov(Reg::R10, R1);
    a.label("nr_loop");
    a.cli();
    a.mov(R1, Reg::R10);
    a.call("pktq_get");
    a.movi(R5, -1);
    a.bne(R1, R5, "nr_done");
    load_global(a, R5, "current");
    a.movi(R6, state::BLOCKED as i32);
    a.st(R5, tcb::STATE, R6);
    a.movi(R6, layout::wait::NET as i32);
    a.st(R5, tcb::WAIT, R6);
    a.call("schedule");
    a.jmp("nr_loop");
    a.label("nr_done");
    a.sti();
    a.pop(Reg::R10);
    a.ret();

    // sys_nettx(r1 = buf, r2 = len): fire-and-forget transmit.
    a.label("sys_nettx");
    a.push(R1);
    a.mov(R1, R2);
    a.call("validate_buf");
    a.pop(R1);
    a.pio_out(PORT_NIC_TX_ADDR, R1);
    a.pio_out(PORT_NIC_TX_LEN, R2);
    a.movi(R5, 1);
    a.pio_out(PORT_NIC_TX_CMD, R5);
    a.movi(R1, 0);
    a.ret();

    // sys_procmsg(r1 = message): the vulnerable path of §6.
    a.label("sys_procmsg");
    a.call("proc_msg");
    a.movi(R1, 0);
    a.ret();

    // sys_oops: exercise the kernel bug-recovery path.
    a.label("sys_oops");
    a.jmp("kassert_fail");

    // validate_buf(r1 = addr): cheap range check (helper-call density).
    a.label("validate_buf");
    a.movi(R5, 0x40_0000);
    a.bltu(R1, R5, "vb_ok");
    a.movi(R1, 0);
    a.label("vb_ok");
    a.ret();
}

fn emit_pv_handlers(a: &mut Assembler) {
    // Paravirtual variants: one vmcall replaces the PIO/MMIO dance.
    a.label("sys_read_pv");
    a.mov(Reg::R4, R3);
    a.mov(R3, R2);
    a.mov(R2, R1);
    a.movi(R1, layout::pv::DISK_READ as i32);
    a.vmcall();
    a.ret();

    a.label("sys_write_pv");
    a.mov(Reg::R4, R3);
    a.mov(R3, R2);
    a.mov(R2, R1);
    a.movi(R1, layout::pv::DISK_WRITE as i32);
    a.vmcall();
    a.ret();

    a.label("sys_netrecv_pv");
    a.push(Reg::R10);
    a.mov(Reg::R10, R1);
    a.label("nrp_loop");
    a.movi(R1, layout::pv::NET_RECV as i32);
    a.mov(R2, Reg::R10);
    a.vmcall(); // blocking poll: hypervisor advances virtual time
    a.movi(R5, -1);
    a.bne(R1, R5, "nrp_done");
    a.call("schedule");
    a.jmp("nrp_loop");
    a.label("nrp_done");
    a.pop(Reg::R10);
    a.ret();

    a.label("sys_nettx_pv");
    a.mov(R3, R2);
    a.mov(R2, R1);
    a.movi(R1, layout::pv::NET_TX as i32);
    a.vmcall();
    a.ret();
}

/// Registers interrupt handlers save around their body (they interrupt
/// arbitrary code, so every clobbered register must be preserved).
const IRQ_SAVED: [Reg; 10] = [R1, R2, R3, Reg::R4, R5, R6, R7, R8, R9, R15];

fn irq_prologue(a: &mut Assembler) {
    for r in IRQ_SAVED {
        a.push(r);
    }
}

fn irq_epilogue(a: &mut Assembler) {
    for r in IRQ_SAVED.iter().rev() {
        a.pop(*r);
    }
    a.iret();
}

fn emit_irq_handlers(a: &mut Assembler) {
    // Timer: bookkeeping + preemptive round-robin.
    a.label("irq_timer");
    irq_prologue(a);
    a.lea(R15, "tick_count");
    a.ld(R5, R15, 0);
    a.addi(R5, R5, 1);
    a.st(R15, 0, R5);
    a.call("timer_tick_work");
    a.call("schedule");
    irq_epilogue(a);

    a.label("timer_tick_work");
    a.call("update_load");
    a.call("check_quota");
    a.ret();

    a.label("update_load");
    a.lea(R15, "load_avg");
    a.ld(R5, R15, 0);
    a.shri(R6, R5, 3);
    a.sub(R5, R5, R6);
    a.addi(R5, R5, 16);
    a.st(R15, 0, R5);
    a.ret();

    a.label("check_quota");
    a.lea(R15, "tick_count");
    a.ld(R5, R15, 0);
    a.andi(R5, R5, 0xff);
    a.ret();

    // Disk completion: release the controller and wake every thread on the
    // disk wait queue (the operation's owner plus queued claimers).
    a.label("irq_disk");
    irq_prologue(a);
    zero(a, R6);
    store_global_reg(a, "disk_waiter", R6);
    store_global_reg(a, "disk_busy", R6);
    a.lea(R5, "task_structs");
    zero(a, R6); // slot
    a.label("id_scan");
    a.movi(R7, layout::MAX_THREADS as i32);
    a.bgeu(R6, R7, "id_done");
    a.muli(R7, R6, layout::TCB_STRIDE as i32);
    a.add(R7, R7, R5);
    a.ld(R8, R7, tcb::STATE);
    a.movi(R9, state::BLOCKED as i32);
    a.bne(R8, R9, "id_next");
    a.ld(R8, R7, tcb::WAIT);
    a.movi(R9, layout::wait::DISK as i32);
    a.bne(R8, R9, "id_next");
    zero(a, R8);
    a.st(R7, tcb::WAIT, R8);
    a.movi(R8, state::RUNNABLE as i32);
    a.st(R7, tcb::STATE, R8);
    a.label("id_next");
    a.addi(R6, R6, 1);
    a.jmp("id_scan");
    a.label("id_done");
    a.call("schedule");
    irq_epilogue(a);

    // NIC receive: read the frame length over MMIO (logged), copy the
    // mailbox into the kernel packet queue — recursively, which is what
    // drives RAS underflows under heavy network load (Figure 8, apache) —
    // pop the mailbox, wake the waiter.
    a.label("irq_nic");
    irq_prologue(a);
    a.movi64(R5, MMIO_NIC_RX_LEN);
    a.ld(R6, R5, 0); // MMIO read: VM exit, value logged
    a.movi(R1, layout::NIC_RX_BUF as i32);
    a.mov(R2, R6);
    a.call("pktq_put");
    a.movi64(R5, MMIO_NIC_RX_POP);
    a.movi(R6, 1);
    a.st(R5, 0, R6); // MMIO write: pops the device mailbox
                     // Wake every thread blocked on the network (several server workers may
                     // be waiting at once).
    a.lea(R5, "task_structs");
    zero(a, R6); // slot
    a.label("in_scan");
    a.movi(R7, layout::MAX_THREADS as i32);
    a.bgeu(R6, R7, "in_done");
    a.muli(R7, R6, layout::TCB_STRIDE as i32);
    a.add(R7, R7, R5); // &ts[slot]
    a.ld(R8, R7, tcb::STATE);
    a.movi(R9, state::BLOCKED as i32);
    a.bne(R8, R9, "in_next");
    a.ld(R8, R7, tcb::WAIT);
    a.movi(R9, layout::wait::NET as i32);
    a.bne(R8, R9, "in_next");
    zero(a, R8);
    a.st(R7, tcb::WAIT, R8);
    a.movi(R8, state::RUNNABLE as i32);
    a.st(R7, tcb::STATE, R8);
    a.label("in_next");
    a.addi(R6, R6, 1);
    a.jmp("in_scan");
    a.label("in_done");
    a.call("schedule");
    irq_epilogue(a);
}

fn emit_net_queue(a: &mut Assembler) {
    const SLOT_STRIDE: i32 = 8 + layout::NIC_MTU as i32; // len word + data

    // pktq_put(r1 = src, r2 = len): enqueue a frame. Saves/restores its
    // first argument — the `pop r1; ret` epilogue is the G1 gadget.
    a.label("pktq_put");
    a.push(R1);
    a.lea(R15, "pktq_head");
    a.ld(R5, R15, 0); // head
    a.ld(R6, R15, 8); // tail
    a.sub(R7, R6, R5);
    a.movi(R8, 8);
    a.bgeu(R7, R8, "pp_out"); // queue full: drop
    a.divu(R9, R6, R8);
    a.muli(R9, R9, 8);
    a.sub(R9, R6, R9); // tail % 8
    a.muli(R9, R9, SLOT_STRIDE);
    a.lea(R8, "pktq_slots");
    a.add(R9, R9, R8); // &slot
    a.st(R9, 0, R2); // length
    a.mov(R3, R2);
    a.addi(R2, R9, 8); // dst
    a.call("pkt_copy_rec");
    a.lea(R15, "pktq_head");
    a.ld(R6, R15, 8);
    a.addi(R6, R6, 1);
    a.st(R15, 8, R6); // tail++
    a.label("pp_out");
    a.pop(R1);
    a.ret();

    // pkt_copy_rec(r1 = src, r2 = dst, r3 = len): 32 bytes per frame, then
    // recurse. `len` is always a multiple of 32 (the device pads frames).
    a.label("pkt_copy_rec");
    zero(a, R5);
    a.beq(R3, R5, "pcr_done");
    for off in (0..32).step_by(8) {
        a.ld(R5, R1, off);
        a.st(R2, off, R5);
    }
    a.addi(R1, R1, 32);
    a.addi(R2, R2, 32);
    a.addi(R3, R3, -32);
    a.call("pkt_copy_rec");
    a.label("pcr_done");
    a.ret();

    // pktq_get(r1 = dst) -> r1 = len | -1: dequeue into a caller buffer.
    a.label("pktq_get");
    a.lea(R15, "pktq_head");
    a.ld(R5, R15, 0); // head
    a.ld(R6, R15, 8); // tail
    a.beq(R5, R6, "pg_empty");
    a.movi(R7, 8);
    a.divu(R8, R5, R7);
    a.muli(R8, R8, 8);
    a.sub(R8, R5, R8); // head % 8
    a.muli(R8, R8, SLOT_STRIDE);
    a.lea(R7, "pktq_slots");
    a.add(R8, R8, R7); // &slot
    a.ld(R3, R8, 0); // len
    a.addi(R2, R8, 8); // src
    a.push(R3);
    a.call("kmemcpy");
    a.pop(R3);
    a.lea(R15, "pktq_head");
    a.ld(R5, R15, 0);
    a.addi(R5, R5, 1);
    a.st(R15, 0, R5); // head++
    a.mov(R1, R3);
    a.ret();
    a.label("pg_empty");
    a.movi(R1, -1);
    a.ret();

    // kmemcpy(r1 = dst, r2 = src, r3 = len): iterative word copy;
    // preserves its arguments.
    a.label("kmemcpy");
    zero(a, R5);
    a.label("km_loop");
    a.bgeu(R5, R3, "km_done");
    a.add(R6, R2, R5);
    a.ld(R7, R6, 0);
    a.add(R6, R1, R5);
    a.st(R6, 0, R7);
    a.addi(R5, R5, 8);
    a.jmp("km_loop");
    a.label("km_done");
    a.ret();
}

fn emit_string_and_msg(a: &mut Assembler) {
    // kstrcpy(r1 = dst, r2 = src): word-at-a-time copy, stops after the
    // first zero word. NO BOUNDS CHECK — the §6 vulnerability.
    a.label("kstrcpy");
    zero(a, R6);
    a.label("ks_loop");
    a.ld(R5, R2, 0);
    a.st(R1, 0, R5);
    a.beq(R5, R6, "ks_done");
    a.addi(R1, R1, 8);
    a.addi(R2, R2, 8);
    a.jmp("ks_loop");
    a.label("ks_done");
    a.ret();

    // proc_msg(r1 = message): copies into a 128-byte stack buffer, then
    // digests it. This is the `Vulnerable` procedure of Figure 10.
    a.label("proc_msg");
    a.addi(SP, SP, -128);
    a.mov(R2, R1); // src
    a.mov(R1, SP); // dst: the stack buffer
    a.call("kstrcpy");
    a.mov(R1, SP);
    a.call("msg_digest");
    a.addi(SP, SP, 128);
    a.ret(); // return address sits right above the buffer

    // msg_digest(r1 = buf) -> r1: xor of the 16 buffer words.
    a.label("msg_digest");
    zero(a, R5);
    zero(a, R6);
    a.movi(R7, 128);
    a.label("md_loop");
    a.bgeu(R6, R7, "md_done");
    a.add(R8, R1, R6);
    a.ld(R9, R8, 0);
    a.xor(R5, R5, R9);
    a.addi(R6, R6, 8);
    a.jmp("md_loop");
    a.label("md_done");
    a.mov(R1, R5);
    a.ret();
}

fn emit_heap(a: &mut Assembler) {
    // The kernel heap (DESIGN.md §15): a fixed-stride slot allocator over
    // [KHEAP_BASE, KHEAP_END). Each live allocation is recorded twice — in
    // the *precise* allocation table the alarm replayer introspects, and in
    // the bounded/rounded hardware VRT via the doorbell ports. Bases carry a
    // deterministic sub-granule jitter so allocations start mid-granule,
    // exercising the VRT's coarse-bounds rounding on benign edge writes.

    // sys_alloc(r1 = len) -> r1 = base, or -1 on bad length / heap full.
    a.label("sys_alloc");
    a.movi(R5, 1);
    a.bltu(R1, R5, "al_bad"); // len == 0
    a.movi(R5, (layout::VRT_MAX_ALLOC - layout::VRT_GRANULE) as i32 + 1);
    a.bgeu(R1, R5, "al_bad"); // too big for a slot (jitter included)
    a.cli();
    // jitter = (alloc_seq++ * 8) & (GRANULE - 8): 0,8,...,56.
    a.lea(R8, "alloc_seq");
    a.ld(R6, R8, 0);
    a.addi(R7, R6, 1);
    a.st(R8, 0, R7);
    a.muli(R6, R6, 8);
    a.andi(R6, R6, (layout::VRT_GRANULE - 8) as i32);
    // First-fit scan of the precise table (len word == 0 means free).
    a.movi(R5, layout::VRT_ALLOC_TABLE as i32); // entry pointer
    zero(a, R7); // slot index
    a.label("al_scan");
    a.movi(R8, layout::VRT_HEAP_SLOTS as i32);
    a.bgeu(R7, R8, "al_full");
    a.ld(R8, R5, 8);
    zero(a, R9);
    a.beq(R8, R9, "al_found");
    a.addi(R5, R5, 16);
    a.addi(R7, R7, 1);
    a.jmp("al_scan");
    a.label("al_found");
    // base = KHEAP_BASE + slot * STRIDE + jitter.
    a.muli(R8, R7, layout::VRT_HEAP_SLOT_STRIDE as i32);
    a.movi(R9, layout::KHEAP_BASE as i32);
    a.add(R8, R8, R9);
    a.add(R8, R8, R6);
    // Precise table entry, then the hardware doorbell.
    a.st(R5, 0, R8);
    a.st(R5, 8, R1);
    a.pio_out(PORT_VRT_BASE, R8);
    a.pio_out(PORT_VRT_LEN, R1);
    a.movi(R9, VRT_CMD_DECLARE as i32);
    a.pio_out(PORT_VRT_CMD, R9);
    a.sti();
    a.mov(R1, R8);
    a.ret();
    a.label("al_full");
    a.sti();
    a.label("al_bad");
    a.movi(R1, -1);
    a.ret();

    // sys_free(r1 = base): clear the precise-table entry and retire the
    // hardware VRT entry. Unknown bases (double free, never allocated) are
    // ignored — the retire doorbell is a no-op for evicted entries anyway.
    a.label("sys_free");
    a.cli();
    a.movi(R5, layout::VRT_ALLOC_TABLE as i32);
    zero(a, R7);
    a.label("fr_scan");
    a.movi(R8, layout::VRT_HEAP_SLOTS as i32);
    a.bgeu(R7, R8, "fr_done");
    a.ld(R8, R5, 0);
    a.bne(R8, R1, "fr_next");
    a.ld(R8, R5, 8);
    zero(a, R9);
    a.beq(R8, R9, "fr_next"); // stale base in a freed slot
    zero(a, R8);
    a.st(R5, 0, R8);
    a.st(R5, 8, R8);
    a.pio_out(PORT_VRT_BASE, R1);
    a.movi(R9, VRT_CMD_RETIRE as i32);
    a.pio_out(PORT_VRT_CMD, R9);
    a.jmp("fr_done");
    a.label("fr_next");
    a.addi(R5, R5, 16);
    a.addi(R7, R7, 1);
    a.jmp("fr_scan");
    a.label("fr_done");
    a.sti();
    a.movi(R1, 0);
    a.ret();
}

fn emit_misc(a: &mut Assembler) {
    // grant_root: privilege escalation target of the §6 attack. Reachable
    // only through the kernel function table.
    a.label("grant_root");
    a.lea(R15, "priv_flag");
    a.movi(R5, 0x1337);
    a.st(R15, 0, R5);
    a.ret();

    // kassert_fail: recoverable-bug path — terminate the current thread,
    // orphaning its RAS entries (§4.1's imperfect-nesting source).
    a.label("kassert_fail");
    a.cli();
    a.movi(R5, b'!' as i32);
    a.pio_out(PORT_CONSOLE, R5);
    a.lea(R15, "oops_count");
    a.ld(R5, R15, 0);
    a.addi(R5, R5, 1);
    a.st(R15, 0, R5);
    load_global(a, R5, "current");
    a.ld(R1, R5, tcb::TID);
    zero(a, R6);
    a.st(R5, tcb::STATE, R6);
    a.jmp("thread_exit_commit");
}

fn emit_data(a: &mut Assembler, pv: bool) {
    a.align(8);
    a.label("current");
    a.word(0);
    a.label("tick_count");
    a.word(0);
    a.label("load_avg");
    a.word(0);
    a.label("kstat_syscalls");
    a.word(0);
    a.label("disk_waiter");
    a.word(0);
    a.label("disk_busy");
    a.word(0);
    a.label("oops_count");
    a.word(0);
    a.label("alloc_seq");
    a.word(0);
    a.label("priv_flag");
    a.word(0);
    // Packet queue: head, tail, then 8 slots of (len, data[MTU]).
    a.label("pktq_head");
    a.word(0);
    a.word(0); // tail, at pktq_head + 8
    a.label("pktq_slots");
    a.space(8 * (8 + layout::NIC_MTU));
    // Task structs.
    a.label("task_structs");
    a.space(layout::MAX_THREADS * layout::TCB_STRIDE as usize);
    // Syscall dispatch table, indexed by syscall number.
    a.label("syscall_table");
    a.word_label("sys_exit");
    a.word_label("sys_yield");
    a.word_label(if pv { "sys_read_pv" } else { "sys_read" });
    a.word_label(if pv { "sys_write_pv" } else { "sys_write" });
    a.word_label(if pv { "sys_netrecv_pv" } else { "sys_netrecv" });
    a.word_label(if pv { "sys_nettx_pv" } else { "sys_nettx" });
    a.word_label("sys_gettime");
    a.word_label("sys_spawn");
    a.word_label("sys_log");
    a.word_label("sys_rand");
    a.word_label("sys_getpid");
    a.word_label("sys_procmsg");
    a.word_label("sys_oops");
    a.word_label("sys_alloc");
    a.word_label("sys_free");
    // Kernel service registry (the attacker's pointer source).
    a.label("kfunc_table");
    a.word_label("grant_root");
    a.word_label("kassert_fail");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_isa::{Instruction, Opcode};

    #[test]
    fn kernel_assembles_with_contract_symbols() {
        let k = KernelBuilder::new().build();
        assert!(k.image().len() > 4096);
        // All contract symbols resolve.
        let _ = (
            k.entry(),
            k.syscall_entry(),
            k.switch_sp_trap(),
            k.nonproc_ret(),
            k.whitelist_targets(),
            k.thread_create_trap(),
            k.thread_exit_trap(),
            k.task_structs(),
            k.current_ptr(),
            k.priv_flag(),
            k.kfunc_table(),
            k.grant_root(),
            k.oops_count(),
            k.proc_msg(),
        );
    }

    #[test]
    fn nonproc_ret_is_a_ret_instruction() {
        let k = KernelBuilder::new().build();
        let insn = k.image().decode_at(k.nonproc_ret()).unwrap();
        assert_eq!(insn.op, Opcode::Ret);
    }

    #[test]
    fn switch_sp_trap_moves_into_sp() {
        let k = KernelBuilder::new().build();
        let insn = k.image().decode_at(k.switch_sp_trap()).unwrap();
        assert_eq!(insn.op, Opcode::Mov);
        assert_eq!(insn.rd, Reg::SP);
        assert_eq!(insn.rs1, Reg::R15);
    }

    #[test]
    fn whitelists_have_one_ret_three_targets() {
        let k = KernelBuilder::new().build();
        let wl = k.whitelists();
        assert_eq!(wl.ret_len(), 1);
        assert_eq!(wl.target_len(), 3);
        assert!(wl.is_whitelisted_ret(k.nonproc_ret()));
        for t in k.whitelist_targets() {
            assert!(wl.is_whitelisted_target(t));
        }
    }

    #[test]
    fn syscall_table_points_at_handlers() {
        let k = KernelBuilder::new().build();
        let table = k.image().require_symbol("syscall_table");
        let base = k.image().base();
        let bytes = k.image().bytes();
        let slot = |i: u64| {
            let off = (table - base + i * 8) as usize;
            u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
        };
        assert_eq!(slot(sys::GETTIME as u64), k.image().require_symbol("sys_gettime"));
        assert_eq!(slot(sys::PROCMSG as u64), k.image().require_symbol("sys_procmsg"));
        // Every slot decodes to real code (first instruction decodes).
        for i in 0..sys::COUNT as u64 {
            let target = slot(i);
            assert!(Instruction::decode(&bytes[(target - base) as usize..]).is_ok());
        }
    }

    #[test]
    fn pv_kernel_swaps_io_handlers() {
        let std = KernelBuilder::new().build();
        let pv = KernelBuilder::new().paravirtual(true).build();
        assert!(pv.is_paravirtual());
        let slot = |k: &KernelImage, i: u32| {
            let table = k.image().require_symbol("syscall_table");
            let off = (table - k.image().base() + i as u64 * 8) as usize;
            u64::from_le_bytes(k.image().bytes()[off..off + 8].try_into().unwrap())
        };
        assert_eq!(slot(&pv, sys::READ), pv.image().require_symbol("sys_read_pv"));
        assert_eq!(slot(&std, sys::READ), std.image().require_symbol("sys_read"));
        // Non-I/O syscalls identical.
        assert_eq!(
            slot(&pv, sys::GETTIME) - pv.image().base(),
            slot(&std, sys::GETTIME) - std.image().base()
        );
    }

    #[test]
    fn kfunc_table_first_slot_is_grant_root() {
        let k = KernelBuilder::new().build();
        let table = k.kfunc_table();
        let off = (table - k.image().base()) as usize;
        let ptr = u64::from_le_bytes(k.image().bytes()[off..off + 8].try_into().unwrap());
        assert_eq!(ptr, k.grant_root());
    }

    #[test]
    fn gadget_donors_exist() {
        // The Figure 10 chain needs: pop r1; ret (G1), ld r9,[r1]; ret (G2),
        // callr r9 (G3). All three must exist as genuine code.
        let k = KernelBuilder::new().build();
        let insns: Vec<_> = k.image().iter_insns().collect();
        let mut g1 = false;
        let mut g2 = false;
        let mut g3 = false;
        for w in insns.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            if a.op == Opcode::Pop && a.rd == R1 && b.op == Opcode::Ret {
                g1 = true;
            }
            if a.op == Opcode::Ld && a.rd == R9 && a.rs1 == R1 && a.imm == 0 && b.op == Opcode::Ret {
                g2 = true;
            }
            if a.op == Opcode::CallR && a.rs1 == R9 {
                g3 = true;
            }
        }
        assert!(g1, "missing pop r1; ret gadget");
        assert!(g2, "missing ld r9,[r1]; ret gadget");
        assert!(g3, "missing callr r9 gadget");
    }

    #[test]
    fn kernel_fits_below_nic_buffer() {
        let k = KernelBuilder::new().build();
        assert!(k.image().end() <= layout::NIC_RX_BUF, "kernel end {:#x}", k.image().end());
    }
}

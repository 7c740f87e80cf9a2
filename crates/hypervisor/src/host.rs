//! The guest host: one VM with the hypervisor state kept around it (§4.3,
//! §5.2), the same for the recorder and for every replayer.

use rnr_isa::{Addr, Image};
use rnr_log::Category;
use rnr_machine::{Digest, Fnv1a, GuestVm, MachineConfig};
use rnr_ras::{BackRasTable, ThreadId};

use crate::{Checkpoint, CycleAttribution, DiskDevice, Introspector, VmSpec};

/// What one interposition trap did to the guest's threads, for the role
/// that hosts the VM to feed its own analysis (the recorder's Figure 8
/// counterfactual RAS and switch trace, an alarm replayer's shadow RAS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadEvent {
    /// The kernel switched stacks from `prev` to `next`; `killed` when
    /// `prev` had exited, so its BackRAS entry was dropped.
    Switch {
        /// The thread switched away from.
        prev: ThreadId,
        /// The thread switched to.
        next: ThreadId,
        /// `prev` had exited and will never run again.
        killed: bool,
    },
    /// The kernel committed the creation of this thread.
    Created(ThreadId),
    /// The kernel committed the exit of this thread; it is dying until the
    /// next switch away from it.
    Exited(ThreadId),
}

/// One guest VM and what the hypervisor keeps around it: its disk and
/// console, the kernel introspector, the BackRAS table with the running and
/// dying thread, and the cycle attribution. The recorder and every replayer
/// each hold one, so the BackRAS protocol at the kernel's stack-switch,
/// thread-create and thread-exit points (§4.3, §5.2.1–5.2.2) and the
/// guest's half of a checkpoint (Figure 4) are written once.
#[derive(Debug)]
pub struct GuestHost {
    /// The guest VM.
    pub vm: GuestVm,
    /// Its virtual disk.
    pub disk: DiskDevice,
    /// Bytes the guest wrote to its console port.
    pub console: Vec<u8>,
    /// Overhead cycles charged per event class (Figures 5(b) and 7(b)).
    pub attribution: CycleAttribution,
    intro: Introspector,
    pub(crate) backras: BackRasTable,
    pub(crate) current_tid: ThreadId,
    pub(crate) dying: Option<ThreadId>,
}

impl GuestHost {
    /// A freshly booted guest: `spec`'s kernel, extra and boot images loaded
    /// into a VM built from `machine`, at the kernel's entry point, with its
    /// initial disk image.
    pub fn boot(spec: &VmSpec, machine: MachineConfig) -> GuestHost {
        let boot = spec.boot.to_image();
        let mut images = spec.images();
        images.push(&boot);
        let mut host =
            GuestHost::build(spec, machine, &images, DiskDevice::new(VmSpec::DEFAULT_DISK, spec.disk_seed));
        host.vm.set_entry(spec.kernel.entry());
        host
    }

    /// An empty guest with no images and an empty disk, for a checkpoint to
    /// be restored over ([`GuestHost::restore`]): no boot image is built only
    /// to be replaced.
    pub fn empty(spec: &VmSpec, machine: MachineConfig) -> GuestHost {
        GuestHost::build(spec, machine, &[], DiskDevice::new(0, 0))
    }

    fn build(spec: &VmSpec, machine: MachineConfig, images: &[&Image], disk: DiskDevice) -> GuestHost {
        let mut vm = GuestVm::new(machine, images);
        vm.cpu_mut().ras.set_whitelists(spec.kernel.whitelists());
        GuestHost {
            vm,
            disk,
            console: Vec::new(),
            attribution: CycleAttribution::new(),
            intro: Introspector::new(&spec.kernel),
            backras: BackRasTable::new(),
            current_tid: ThreadId(1),
            dying: None,
        }
    }

    /// Sets breakpoints on the three interposition points, whose exits
    /// [`GuestHost::on_breakpoint`] handles.
    pub fn arm_traps(&mut self) {
        for pc in
            [self.intro.switch_sp_trap(), self.intro.thread_create_trap(), self.intro.thread_exit_trap()]
        {
            self.vm.add_breakpoint(pc);
        }
    }

    /// Handles a breakpoint exit at `pc` and steps over it. At an
    /// interposition trap it keeps the BackRAS, charges the exit to
    /// [`Category::Ras`] and returns what happened to the threads; any other
    /// PC returns `None`.
    ///
    /// At a stack switch the outgoing thread's RAS is saved into its BackRAS
    /// entry, or the entry is dropped if the thread exited, and the incoming
    /// thread's is loaded. Creation keeps an existing entry: the create trap
    /// can fire late, after the new thread already ran and was switched out
    /// (DESIGN.md §4, "Thread interposition").
    pub fn on_breakpoint(&mut self, pc: Addr) -> Option<ThreadEvent> {
        let costs = self.vm.config().costs;
        let event = if pc == self.intro.switch_sp_trap() {
            let next = self.intro.next_thread_at_switch(&self.vm).unwrap_or(self.current_tid);
            let prev = self.current_tid;
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
            self.current_tid = next;
            Some(ThreadEvent::Switch { prev, next, killed })
        } else if pc == self.intro.thread_create_trap() {
            let tid = self.intro.thread_at_commit(&self.vm);
            self.backras.allocate(tid);
            self.charge(Category::Ras, costs.vmexit);
            Some(ThreadEvent::Created(tid))
        } else if pc == self.intro.thread_exit_trap() {
            let tid = self.intro.thread_at_commit(&self.vm);
            self.dying = Some(tid);
            self.charge(Category::Ras, costs.vmexit);
            Some(ThreadEvent::Exited(tid))
        } else {
            None
        };
        self.vm.skip_breakpoint_once();
        event
    }

    /// Adds `cycles` to the guest's clock and to `category`'s attribution.
    pub fn charge(&mut self, category: Category, cycles: u64) {
        self.vm.add_cycles(cycles);
        self.attribution.charge(category, cycles);
    }

    /// Puts the guest half of `cp` in place: pages, processor state,
    /// counters, disk, BackRAS and threads. The log position is the
    /// replayer's. Pages and blocks are taken by reference, swapping only the
    /// pointers that differ; the page restore marks every page dirty, and
    /// each caller keeps its own rule for those marks.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.vm.mem_mut().restore_pages(&cp.mem_pages);
        self.vm.cpu_mut().restore_state(&cp.cpu);
        self.vm.restore_counters(cp.at_insn, cp.at_cycle);
        self.disk.restore(&cp.disk);
        self.backras = cp.backras.clone();
        self.current_tid = cp.current_tid;
        self.dying = cp.dying;
    }

    /// Closes the dirty-tracking epoch of memory and disk, returning the
    /// pages and blocks written since it opened and the copy-on-write faults
    /// taken.
    pub fn end_epoch(&mut self) -> (Vec<usize>, Vec<usize>, u64) {
        let pages = self.vm.mem_mut().begin_epoch();
        let cow_faults = self.vm.mem_mut().take_cow_faults();
        let blocks = self.disk.store_mut().begin_epoch();
        (pages, blocks, cow_faults)
    }

    /// The verification digest: the VM digest (CPU and memory) combined with
    /// the disk digest. The recorder's final digest and every replayer's
    /// final and seam digests are this one function.
    pub fn digest(&self) -> Digest {
        let mut h = Fnv1a::new();
        h.update_u64(self.vm.digest().0);
        h.update_u64(self.disk.store().digest().0);
        h.finish()
    }

    /// The kernel introspector.
    pub fn intro(&self) -> &Introspector {
        &self.intro
    }

    /// The live BackRAS table: the saved RAS of every thread but the running
    /// one.
    pub fn backras(&self) -> &BackRasTable {
        &self.backras
    }

    /// Replaces the live BackRAS table (a rewind puts back the table it
    /// saved, without a checkpoint's fold of the running RAS).
    pub fn set_backras(&mut self, backras: BackRasTable) {
        self.backras = backras;
    }

    /// The thread running at the last interposition trap.
    pub fn current_tid(&self) -> ThreadId {
        self.current_tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_guest::{layout, KernelBuilder};
    use rnr_isa::Reg;
    use rnr_machine::{CostModel, Exit, RunBudget};
    use rnr_ras::BackRasEntry;

    /// A booted bare kernel whose `task_struct` slot `s` holds thread ID
    /// `tids[s]`.
    fn host_with_threads(tids: &[u64]) -> GuestHost {
        let spec = VmSpec::new(KernelBuilder::new().build(), "bare");
        let mut host = GuestHost::boot(&spec, MachineConfig::default());
        for (slot, &tid) in tids.iter().enumerate() {
            let tcb = spec.kernel.task_structs() + slot as u64 * layout::TCB_STRIDE;
            host.vm.mem_mut().write_u64(tcb + layout::tcb::TID as u64, tid).unwrap();
        }
        host
    }

    /// Fires the stack-switch trap with slot `slot`'s stack as the next one.
    fn switch_to_slot(host: &mut GuestHost, slot: usize) -> Option<ThreadEvent> {
        host.vm.cpu_mut().set_reg(Reg::R15, layout::stack_top(slot));
        host.on_breakpoint(host.intro.switch_sp_trap())
    }

    /// Fires the create or exit trap for `tid`.
    fn commit(host: &mut GuestHost, trap: Addr, tid: u64) -> Option<ThreadEvent> {
        host.vm.cpu_mut().set_reg(Reg::R1, tid);
        host.on_breakpoint(trap)
    }

    fn entry(addrs: &[Addr]) -> BackRasEntry {
        BackRasEntry::from_entries(addrs.to_vec())
    }

    #[test]
    fn a_switch_saves_the_outgoing_ras_and_loads_the_incoming_one() {
        let mut host = host_with_threads(&[1, 0, 42]);
        host.backras.save(ThreadId(42), entry(&[0x30]));
        host.vm.cpu_mut().ras.restore_backras(&entry(&[0x10, 0x20]));
        let before = host.vm.cycles();
        let event = switch_to_slot(&mut host, 2);
        assert_eq!(event, Some(ThreadEvent::Switch { prev: ThreadId(1), next: ThreadId(42), killed: false }));
        assert_eq!(host.backras.load(ThreadId(1)), entry(&[0x10, 0x20]));
        assert_eq!(host.vm.cpu().ras.snapshot(), vec![0x30]);
        let costs = CostModel::default();
        let charged = costs.vmexit + costs.ras_save + costs.ras_restore;
        assert_eq!(host.attribution.for_category(Category::Ras), charged);
        assert_eq!(host.vm.cycles() - before, charged);
        assert_eq!(host.current_tid(), ThreadId(42));
    }

    #[test]
    fn a_switch_away_from_a_dying_thread_drops_its_entry() {
        let mut host = host_with_threads(&[1, 0, 42]);
        switch_to_slot(&mut host, 2);
        host.vm.cpu_mut().ras.restore_backras(&entry(&[0x40]));
        let exit = host.intro.thread_exit_trap();
        assert_eq!(commit(&mut host, exit, 42), Some(ThreadEvent::Exited(ThreadId(42))));
        assert_eq!(host.dying, Some(ThreadId(42)));
        let event = switch_to_slot(&mut host, 0);
        assert_eq!(event, Some(ThreadEvent::Switch { prev: ThreadId(42), next: ThreadId(1), killed: true }));
        assert!(!host.backras.contains(ThreadId(42)));
        assert_eq!(host.dying, None);
    }

    #[test]
    fn a_late_create_trap_keeps_a_saved_entry() {
        let mut host = host_with_threads(&[1]);
        host.backras.save(ThreadId(7), entry(&[0x70]));
        let create = host.intro.thread_create_trap();
        assert_eq!(commit(&mut host, create, 7), Some(ThreadEvent::Created(ThreadId(7))));
        assert_eq!(host.backras.load(ThreadId(7)), entry(&[0x70]));
        assert_eq!(commit(&mut host, create, 8), Some(ThreadEvent::Created(ThreadId(8))));
        assert!(host.backras.contains(ThreadId(8)));
        assert_eq!(host.attribution.for_category(Category::Ras), 2 * CostModel::default().vmexit);
    }

    #[test]
    fn a_breakpoint_that_is_no_trap_is_stepped_over() {
        let mut host = host_with_threads(&[1]);
        let pc = host.vm.cpu().pc;
        host.vm.add_breakpoint(pc);
        assert_eq!(host.on_breakpoint(pc), None);
        assert_eq!(host.attribution.total(), 0);
        let exit = host.vm.run(RunBudget::until(1));
        assert!(!matches!(exit, Exit::Breakpoint { .. }), "{exit:?}");
        assert_eq!(host.vm.retired(), 1);
    }
}

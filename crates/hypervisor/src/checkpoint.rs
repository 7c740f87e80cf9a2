//! The snapshot of a VM (Figure 4): the recorder's span seeds and the
//! replayers' checkpoints are one type, taken by one capture.

use std::collections::HashMap;

use rnr_isa::Addr;
use rnr_log::LogCursor;
use rnr_machine::{CpuState, GuestVm, PageTable};
use rnr_ras::{BackRasEntry, BackRasTable, ThreadId};

use crate::{DiskDevice, DiskSnapshot};

/// One checkpoint of a VM.
///
/// Matches the three components of Figure 4: (1) all VM state — memory
/// pages, a processor-state page, and the virtual disk contents; (2) the
/// `InputLogPtr`; (3) the BackRAS. Pages and blocks are held in chunk
/// tables ([`PageTable`]) that consecutive checkpoints of one producer
/// share chunk by chunk, so a checkpoint holds its own copy only of the
/// chunks its interval wrote and points into its predecessors for the rest
/// — the paper's incremental scheme ("for each unmodified page or block, it
/// keeps a pointer to it in the latest checkpoint that modified it").
/// Releasing a checkpoint frees only the chunks no newer one shares.
///
/// The recorder's span seeds (DESIGN.md §11) are checkpoints too: a seed
/// is what [`Checkpoint::capture`] returns, a checkpoint with no
/// replay-side history, from which a span worker starts mid-log.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Sequence number.
    pub id: u64,
    /// Retired-instruction count at capture.
    pub at_insn: u64,
    /// Virtual cycle count at capture.
    pub at_cycle: u64,
    /// Processor state (PC, stack pointer, all registers — §4.6.1) plus the
    /// live RAS entries.
    pub cpu: CpuState,
    /// All memory pages, in chunks shared with the base the capture was
    /// taken against.
    pub mem_pages: PageTable,
    /// The virtual disk controller: its block table (chunks shared like the
    /// pages'), latched request registers, and any in-flight operation
    /// awaiting its logged completion interrupt.
    pub disk: DiskSnapshot,
    /// The BackRAS at the checkpoint, including the running thread's RAS
    /// ("the hardware automatically saves the RAS into the BackRAS" before
    /// the dump, §4.6.1).
    pub backras: BackRasTable,
    /// The thread scheduled at capture.
    pub current_tid: ThreadId,
    /// A thread that has exited but not yet been switched away from.
    pub dying: Option<ThreadId>,
    /// The `InputLogPtr`: next record to process after restoring.
    pub cursor: LogCursor,
    /// Outstanding evict records per thread (§4.6.2 matching state).
    pub evict_store: HashMap<ThreadId, Vec<Addr>>,
    /// Pages dirtied in the interval ending at this checkpoint (accounting).
    pub dirty_pages: usize,
    /// Disk blocks dirtied in the interval (accounting).
    pub dirty_blocks: usize,
}

impl Checkpoint {
    /// Snapshots `vm`, its disk and the hypervisor's BackRAS bookkeeping,
    /// with the log position at `cursor`. The snapshot has no replay-side
    /// history: `id` 0, `at_cycle` 0, no outstanding evicts and no dirty
    /// counts; a replayer's checkpoint sets those itself.
    ///
    /// `base` is the same producer's previous capture of this VM, still
    /// alive: the CR's latest checkpoint, the span fold's previous
    /// materialization, the recorder's previous seed. The snapshot shares
    /// each of its page and block chunks that the VM has not written since,
    /// so a capture costs one pointer compare per page and block plus the
    /// chunks written. Any base is correct; a capture with none shares
    /// nothing.
    ///
    /// Pure reads and `Arc` clones only, so a recording that captures seeds
    /// is byte-identical to one that does not: the running thread's RAS is
    /// folded into a copy of the BackRAS, not saved through the RAS unit,
    /// whose hardware counters feed the recording report.
    pub fn capture(
        vm: &GuestVm,
        disk: &DiskDevice,
        backras: &BackRasTable,
        current_tid: ThreadId,
        dying: Option<ThreadId>,
        cursor: LogCursor,
        base: Option<&Checkpoint>,
    ) -> Checkpoint {
        let cpu = vm.cpu().save_state();
        let mut backras = backras.clone();
        backras.save(current_tid, BackRasEntry::from_entries(cpu.ras_entries.clone()));
        Checkpoint {
            id: 0,
            at_insn: vm.retired(),
            at_cycle: 0,
            cpu,
            mem_pages: vm.mem().snapshot(base.map(|b| &b.mem_pages)),
            disk: disk.snapshot(base.map(|b| &b.disk)),
            backras,
            current_tid,
            dying,
            cursor,
            evict_store: HashMap::new(),
            dirty_pages: 0,
            dirty_blocks: 0,
        }
    }
}

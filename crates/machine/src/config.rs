//! Machine configuration.

use rnr_isa::Addr;
use rnr_ras::RasConfig;
use rnr_vrt::VrtParams;

use crate::{CostModel, ExitControls};

/// Static configuration of a [`GuestVm`](crate::GuestVm).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Guest-kernel syscall entry point (set after the kernel is assembled).
    pub syscall_entry: Addr,
    /// RAS hardware configuration.
    pub ras: RasConfig,
    /// VM-exit controls (the VMCS execution controls of §5.1).
    pub exits: ExitControls,
    /// Hardware indirect-branch table for JOP detection (Table 1, row 2);
    /// `None` disables JOP alarms.
    pub jop_table: Option<crate::JopTable>,
    /// Variable Record Table memory-safety detector (DESIGN.md §15);
    /// `None` leaves the VM unarmed — replay VMs always are, so VRT alarms
    /// come from the log, never from re-detection.
    pub vrt: Option<VrtParams>,
    /// Cycle cost model.
    pub costs: CostModel,
    /// Use the predecoded instruction cache ([`crate::BlockCache`]). A pure
    /// host-side (wall-clock) optimization: virtual cycles, digests, and
    /// exits are identical either way while [`CostModel::decode`] is 0.
    pub decode_cache: bool,
    /// Execute whole cached basic blocks between event horizons instead of
    /// single-stepping (see `GuestVm::run`). Like `decode_cache`, a pure
    /// wall-clock knob: the retired stream, virtual cycles, digests, and
    /// exits are byte-identical either way. Automatically inert while
    /// [`CostModel::decode`] is non-zero or per-instruction debugging
    /// (tracing, watchpoints) is active.
    pub block_engine: bool,
    /// Chain hot basic blocks across taken branches and page boundaries
    /// into superblock traces with one dispatch and one counter commit per
    /// trace (see `GuestVm::run` and DESIGN.md §12). Requires
    /// `block_engine`; like it, a pure wall-clock knob — the retired
    /// stream, virtual cycles, digests, and exits are byte-identical with
    /// superblocks on or off.
    pub superblocks: bool,
}

impl MachineConfig {
    /// Guest physical memory: 4 MiB — small enough that whole-state digests
    /// and checkpoints stay cheap, large enough for the microkernel and all
    /// workloads.
    pub const MEM_BYTES: usize = 4 << 20;
    /// Base address of the interrupt vector table (one 8-byte handler
    /// address per IRQ line); the guest kernel installs its handlers here.
    pub const IVT_BASE: Addr = 0x100;
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            syscall_entry: 0,
            ras: RasConfig::default(),
            exits: ExitControls::default(),
            jop_table: None,
            vrt: None,
            costs: CostModel::default(),
            decode_cache: true,
            block_engine: true,
            superblocks: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        assert_eq!(MachineConfig::MEM_BYTES % crate::PAGE_SIZE, 0);
        assert!(MachineConfig::IVT_BASE < MachineConfig::MEM_BYTES as u64);
    }
}

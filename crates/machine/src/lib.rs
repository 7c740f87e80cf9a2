//! # rnr-machine: the simulated guest machine
//!
//! A deterministic full-system simulator standing in for the paper's
//! KVM/QEMU guest (see DESIGN.md §2 for the substitution argument). It
//! executes the `rnr-isa` instruction set over paged copy-on-write memory,
//! models the hardware Return Address Stack via `rnr-ras`, and surfaces all
//! hypervisor interactions as **VM exits** ([`Exit`]), mirroring Intel VT-x
//! semantics (§5 of the paper):
//!
//! * PIO/MMIO accesses and `vmcall` always exit (hypervisor-mediated I/O,
//!   the paper's assumed model).
//! * `rdtsc` exits only when [`ExitControls::rdtsc_exiting`] is set — this is
//!   how recording mode traps and logs timer reads (Figure 5(b)'s dominant
//!   overhead).
//! * RAS evictions and mispredictions exit according to the RAS
//!   configuration — the alarm channel of RnR-Safe.
//! * Breakpoints ([`GuestVm::add_breakpoint`]) exit before the trapped
//!   instruction — how the hypervisor interposes on guest context switches
//!   (§5.2.1) without modifying the guest kernel.
//! * Optional call/return trapping ([`CallRetTrap`]) — how the alarm
//!   replayer models its software RAS at every kernel call/return (§7.4).
//!
//! The machine is **passive**: devices, logging, and scheduling of
//! asynchronous events live in `rnr-hypervisor`. Everything in this crate is
//! deterministic given the sequence of hypervisor actions, which is the
//! property record-and-replay rests on; [`GuestVm::digest`] summarizes the
//! architectural state so replays can be verified bit-exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cost;
mod cpu;
mod digest;
mod disk;
mod exit;
mod icache;
mod jop;
mod mem;
mod ports;
mod table;
mod vm;

pub use config::MachineConfig;
pub use cost::CostModel;
pub use cpu::{Cpu, CpuState, Mode};
pub use digest::{fnv1a, Digest, Fnv1a};
pub use disk::{BlockSnapshot, BlockStore};
pub use exit::{CallRetTrap, Exit, ExitControls, FaultKind, FinishIo};
pub use icache::{BlockCache, BlockInfo, BlockStats, SharedPageCache};
pub use jop::JopTable;
pub use mem::{MemError, Memory, Page, PAGE_SIZE};
pub use ports::*;
pub use table::{PageTable, CHUNK_PAGES};
pub use vm::{GuestVm, InjectError, RunBudget};

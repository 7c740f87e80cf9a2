//! # rnr-hypervisor: device emulation, introspection, and the recorder
//!
//! This crate plays the role of the paper's modified KVM hypervisor plus its
//! QEMU userspace devices (§5, §7):
//!
//! * [`DiskDevice`], [`NicDevice`], console — hypervisor-mediated virtual
//!   devices. The disk is fully deterministic (its completion *timing* is
//!   the only logged non-determinism); NIC receive payloads are logged in
//!   full, as in the paper's Figure 5(b) `network` category.
//! * [`NondetSource`] — the seeded model of everything the host makes
//!   non-deterministic: rdtsc jitter, disk latency, packet arrivals and
//!   contents, the random-number port.
//! * [`Introspector`] — guest-kernel introspection per §5.2.1: at the trap
//!   on the kernel's stack-switch instruction, find the next thread's
//!   `task_struct` from its stack pointer and read its thread ID.
//! * [`Recorder`] — the monitored-recording event loop, in the four setups
//!   of Figure 5(a): [`RecordMode::NoRecPv`], [`RecordMode::NoRec`],
//!   [`RecordMode::RecNoRas`], and full [`RecordMode::Rec`]. It produces an
//!   [`rnr_log::InputLog`] and per-[`Category`](rnr_log::Category) cycle
//!   attribution for the figure breakdowns.
//! * [`Checkpoint`] — the one snapshot of a VM (Figure 4): pages, processor
//!   state, disk, BackRAS and log position. [`Checkpoint::capture`] takes
//!   it with pure reads over a `&GuestVm`; the recorder's span seeds are
//!   such captures, and every replayer checkpoint is built on one.
//! * [`VmSpec`] — everything needed to instantiate the guest: kernel,
//!   workload images, boot table, timer period, network profile, disk seed.
//!
//! The recorder also hosts the *functional* environment of §7.2/§7.5 (QEMU
//! emulation mode in the paper): [`RecordConfig::functional_ras_analysis`]
//! traps every call/return and feeds a counterfactual
//! [`rnr_ras::RasAttribution`], regenerating Figure 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod checkpoint;
pub mod devices;
mod introspect;
mod nondet;
mod recorder;
mod spec;

pub use attribution::CycleAttribution;
pub use checkpoint::Checkpoint;
pub use devices::{DiskDevice, DiskSnapshot, NicDevice};
pub use introspect::Introspector;
pub use nondet::{NetProfile, NondetSource, PacketInjection};
pub use recorder::{verification_digest, RecordConfig, RecordError, RecordMode, RecordOutcome, Recorder};
pub use spec::{jop_table_from_spec, VmSpec};

//! # rnr-replay: the checkpointing and alarm replayers
//!
//! The replay side of RnR-Safe (§4.6): a second platform consumes the input
//! log and deterministically re-executes the recorded VM.
//!
//! * [`Replayer`] — the deterministic replay engine. Synchronous
//!   non-deterministic events (rdtsc, PIO/MMIO reads) are injected when the
//!   guest traps on the corresponding instruction; asynchronous events
//!   (interrupts, DMA payloads) are landed at their exact recorded
//!   instruction counts, paying the paper's single-stepping cost (§7.3).
//!   Replay correctness is checked by comparing architectural-state digests
//!   with the recording.
//! * [`Checkpoint`] / [`CheckpointStore`] — incremental copy-on-write
//!   checkpoints (Figure 4): all VM pages and disk blocks (shared
//!   reference-counted, copied only on write), the processor-state page,
//!   the BackRAS, and the `InputLogPtr`, with the recycling policy of §8.4.
//!   `Checkpoint` is `rnr_hypervisor`'s, re-exported: the recorder's span
//!   seeds are the same type, and every snapshot, seed or checkpoint, is
//!   taken by its one read-only [`Checkpoint::capture`]. A replayer starts
//!   from one with [`Replayer::from_checkpoint`].
//! * The **checkpointing replayer** (CR) is a [`Replayer`] with a
//!   checkpoint interval; it also performs the §4.6.2 special case:
//!   matching RAS-underflow alarms against *evict* records and discarding
//!   the false ones without launching an alarm replayer. The CR is serial.
//!   A finished recording can also be verified span-partitioned: the
//!   replay farm plans the spans ([`plan_spans`]), runs each on its pool
//!   ([`run_planned_span`]) and folds them ([`assemble_spans`], DESIGN.md
//!   §11). The fold reconstructs the serial CR's clock, checkpoint
//!   schedule, and alarm bookkeeping byte-identically, so how a recording
//!   is cut never reaches a report.
//! * [`AlarmReplayer`] — launched from the checkpoint preceding an
//!   unresolved alarm of *either detector family* ([`CaseKind`]). One
//!   [`ArPass`] per checkpoint resolves every case that shares it
//!   ([`checkpoint_groups`]), stopping at each alarm in log order. For RAS
//!   cases it traps every call/return, models the unbounded multithreaded
//!   software RAS (`rnr_ras::ShadowRas`), and resolves the alarm into a
//!   [`Verdict`]: a classified false positive or a [`RopReport`] with the
//!   hijacked return, call site, thread, and decoded gadget chain (§6's
//!   "how was the attack possible / who / what did they do" analysis). For
//!   VRT memory-safety cases (DESIGN.md §15) it replays to the alarm point
//!   and classifies the store against the guest's *precise* allocation
//!   state, producing [`Verdict::HeapOverflow`], [`Verdict::UseAfterReturn`],
//!   or a named false positive for each noisy hardware rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alarm;
mod book;
mod checkpoint;
mod engine;
mod parallel;
pub mod pool;

pub use alarm::{checkpoint_groups, resolve_jop, JopVerdict};
pub use alarm::{AlarmReplayer, ArPass, FalsePositiveKind, GadgetUse, MemReport, RopReport, Verdict};
pub use checkpoint::CheckpointStore;
pub use engine::{
    AlarmCase, CaseKind, JopCase, ReplayConfig, ReplayError, ReplayOutcome, ReplayRecovery, Replayer,
    RewindStep,
};
pub use parallel::{assemble_spans, plan_spans, run_planned_span, ParallelReplayOutcome, SpanDone, SpanJob};
pub use rnr_hypervisor::Checkpoint;

/// Virtual cycles per "second" of guest time. The paper quotes checkpoint
/// intervals in seconds (RepChk5/RepChk1/RepChk02); this constant maps them
/// onto the simulator's cycle clock. Documented in EXPERIMENTS.md.
pub const VIRTUAL_HZ: u64 = 4_000_000;

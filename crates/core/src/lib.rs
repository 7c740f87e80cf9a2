//! # rnr-safe: Record-and-Replay as a General Security Framework
//!
//! The top-level crate of the RnR-Safe reproduction (HPCA 2018). It wires
//! the full Figure 1 organization into one [`Pipeline`]:
//!
//! ```text
//!  Recorded VM ──inputs──▶ input log ──▶ Checkpointing Replayer ──alarms──▶ Alarm Replayer(s)
//!  (imprecise RAS HW)                    (always on, ~record speed)        (on demand, heavyweight)
//! ```
//!
//! * The **recorded VM** runs a workload under the monitoring hypervisor
//!   (`rnr-hypervisor`): all non-deterministic inputs go to the log, and
//!   the cheap-and-noisy hardware detectors insert *alarm* markers — the
//!   extended RAS for control-flow hijacks (DESIGN.md §5) and, when armed,
//!   the VRT memory-safety tables (`rnr-vrt`, DESIGN.md §15).
//! * The **checkpointing replayer** (`rnr-replay`) re-executes the log
//!   deterministically (verified bit-exact), takes incremental
//!   copy-on-write checkpoints, and discards underflow alarms that match
//!   evict records — serially, or partitioned across checkpoint spans
//!   (`parallel_spans`), with the same byte-identical report either way.
//! * Each surviving alarm is handed to an **alarm replayer**, which traps
//!   every call/return, models an unbounded software RAS (or replays the
//!   guest's precise allocation table for VRT cases), and returns a
//!   [`Verdict`]: classified false positive, a characterized ROP attack,
//!   or a convicted memory-safety violation.
//!
//! ## Quickstart
//!
//! ```
//! use rnr_safe::{Pipeline, PipelineConfig};
//! use rnr_workloads::Workload;
//!
//! # fn main() -> Result<(), rnr_safe::PipelineError> {
//! let spec = Workload::Mysql.spec(false);
//! let config = PipelineConfig { duration_insns: 200_000, ..PipelineConfig::default() };
//! let report = Pipeline::new(spec, config).run()?;
//! assert!(report.replay.verified);
//! assert_eq!(report.attacks_confirmed(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod farm;
mod pipeline;
mod session;
pub mod table2;

pub use farm::{
    BudgetKind, Farm, FarmConfig, FarmError, FarmReport, SessionBudget, SessionId, SessionOutcome,
    SessionSpec,
};
pub use pipeline::{
    AlarmResolution, DetectionWindow, FailedCase, Pipeline, PipelineConfig, PipelineError, PipelineReport,
    RecordSummary, RecoveryReport, ReplaySummary, VerdictSummary,
};
pub use session::{Session, SessionError, SessionHeader, SESSION_VERSION};

// Re-export the crates downstream users need alongside the facade.
pub use rnr_attacks as attacks;
pub use rnr_guest as guest;
pub use rnr_hypervisor as hypervisor;
pub use rnr_isa as isa;
pub use rnr_log as log;
pub use rnr_machine as machine;
pub use rnr_ras as ras;
pub use rnr_replay as replay;
pub use rnr_replay::{Verdict, VIRTUAL_HZ};
pub use rnr_vrt as vrt;
pub use rnr_workloads as workloads;

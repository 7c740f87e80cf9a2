//! Per-session resource budgets and their structured exhaustion reports.

use std::fmt;

/// Resource limits one fleet session may consume. Every limit is optional;
/// `None` means unbounded. Budgets are *admission* controls: slot budgets
/// cap how much of the shared pool a session may occupy at once
/// (backpressure — the session just proceeds more slowly), while quota
/// budgets (`log_bytes`, `rewind_quota`, the `ar_slots` case count) fail
/// the session with a structured [`BudgetKind`] when exceeded, without
/// disturbing its siblings.
///
/// Budgets never change a surviving session's report: they only decide
/// whether and how fast a session runs, both of which are wall-clock
/// matters outside `PipelineReport::to_json()`.
#[derive(Debug, Clone, Default)]
pub struct SessionBudget {
    /// Maximum input-log size the recording may produce, in bytes. Checked
    /// when recording completes; an oversized session fails with
    /// [`BudgetKind::LogBytes`] before any replay work is admitted.
    pub log_bytes: Option<u64>,
    /// Maximum alarm cases the session may escalate, and simultaneously the
    /// cap on its concurrently running alarm-replay passes (one per
    /// checkpoint its cases share). A session whose CR escalates more cases
    /// than this fails with [`BudgetKind::ArSlots`].
    pub ar_slots: Option<usize>,
    /// Cap on the session's concurrently running CR span workers. Zero
    /// admits no replay work at all: the session fails with
    /// [`BudgetKind::SpanSlots`] instead of stalling silently.
    pub span_slots: Option<usize>,
    /// Maximum CR rewinds the session's recovery machinery may perform.
    /// Checked after span replay; a session that needed more fails with
    /// [`BudgetKind::Rewinds`] (its recovery was drowning the pool).
    pub rewind_quota: Option<u64>,
}

impl SessionBudget {
    /// An unbounded budget (every limit `None`).
    pub fn unlimited() -> SessionBudget {
        SessionBudget::default()
    }
}

/// Which budget a session exhausted, with the observed and permitted
/// amounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetKind {
    /// The recording's input log outgrew [`SessionBudget::log_bytes`].
    LogBytes {
        /// Bytes the recording produced.
        used: u64,
        /// The configured limit.
        max: u64,
    },
    /// The CR escalated more alarm cases than [`SessionBudget::ar_slots`].
    ArSlots {
        /// Cases the CR escalated.
        needed: usize,
        /// The configured limit.
        max: usize,
    },
    /// [`SessionBudget::span_slots`] admits no span workers.
    SpanSlots {
        /// The configured limit.
        max: usize,
    },
    /// CR recovery rewound more than [`SessionBudget::rewind_quota`] allows.
    Rewinds {
        /// Rewinds recovery performed.
        used: u64,
        /// The configured limit.
        max: u64,
    },
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::LogBytes { used, max } => {
                write!(f, "log-byte budget (recorded {used} bytes, limit {max})")
            }
            BudgetKind::ArSlots { needed, max } => {
                write!(f, "alarm-replay slot budget (escalated {needed} cases, limit {max})")
            }
            BudgetKind::SpanSlots { max } => {
                write!(f, "span slot budget (limit {max} admits no replay workers)")
            }
            BudgetKind::Rewinds { used, max } => {
                write!(f, "rewind quota (recovery rewound {used} times, limit {max})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_kinds_display_amounts() {
        let cases = [
            (BudgetKind::LogBytes { used: 9, max: 5 }, "log-byte"),
            (BudgetKind::ArSlots { needed: 3, max: 1 }, "alarm-replay"),
            (BudgetKind::SpanSlots { max: 0 }, "span slot"),
            (BudgetKind::Rewinds { used: 2, max: 0 }, "rewind quota"),
        ];
        for (kind, needle) in cases {
            let text = kind.to_string();
            assert!(text.contains(needle), "{text}");
        }
    }
}

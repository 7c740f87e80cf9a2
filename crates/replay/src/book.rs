//! The CR's alarm ledger (§4.6.2): which logged alarms escalate to an alarm
//! replayer. The serial replayer and the span fold feed every record
//! through one [`AlarmBook`], so both apply the same rules.

use std::collections::HashMap;

use rnr_isa::Addr;
use rnr_log::Record;
use rnr_ras::{MispredictKind, ThreadId};

use crate::{CaseKind, JopCase};

/// Outstanding evict records per thread, the alarm counts, and the JOP
/// alarms lifted from the log.
#[derive(Debug, Clone, Default)]
pub(crate) struct AlarmBook {
    /// Evict records per thread, latest last.
    evicts: HashMap<ThreadId, Vec<Addr>>,
    /// Alarm records seen.
    pub(crate) alarms_seen: u64,
    /// Underflow alarms cancelled by evict matching.
    pub(crate) cancelled: u64,
    /// JOP alarms found in the log (Table 1, row 2).
    pub(crate) jop_cases: Vec<JopCase>,
}

impl AlarmBook {
    /// A book resuming from a checkpoint's outstanding evict records.
    pub(crate) fn resume(evicts: HashMap<ThreadId, Vec<Addr>>) -> AlarmBook {
        AlarmBook { evicts, ..AlarmBook::default() }
    }

    /// The outstanding evict records, as a checkpoint captures them.
    pub(crate) fn evicts(&self) -> &HashMap<ThreadId, Vec<Addr>> {
        &self.evicts
    }

    /// Whether a return underflow to `actual` on thread `tid` matches that
    /// thread's latest evict record — a false alarm (§4.6.2). A match
    /// consumes the record.
    pub(crate) fn match_evict(&mut self, tid: ThreadId, actual: Addr) -> bool {
        let stack = self.evicts.entry(tid).or_default();
        let matched = stack.last() == Some(&actual);
        if matched {
            stack.pop();
        }
        matched
    }

    /// Feeds one log record; returns the alarm that escalates to an alarm
    /// replayer, if any. `shadow_matched` is the alarm replayer's rule: its
    /// shadow RAS already matched this underflow at the trapped return and
    /// consumed the evict record, so a second pop here would starve later
    /// matches (duplicate evict values are common).
    pub(crate) fn on_record(&mut self, record: &Record, shadow_matched: bool) -> Option<CaseKind> {
        match record {
            Record::Evict { tid, addr } => {
                self.evicts.entry(*tid).or_default().push(*addr);
                None
            }
            Record::Alarm(info) => {
                self.alarms_seen += 1;
                let underflow = info.mispredict.kind == MispredictKind::Underflow;
                if underflow && (shadow_matched || self.match_evict(info.tid, info.mispredict.actual)) {
                    self.cancelled += 1;
                    return None;
                }
                Some(CaseKind::Ras(*info))
            }
            Record::VrtAlarm(info) => {
                // The CR has no precise allocation view, so (unlike RAS
                // underflows) no VRT alarm can be discarded here: every one
                // escalates.
                self.alarms_seen += 1;
                Some(CaseKind::Vrt(*info))
            }
            &Record::JopAlarm { tid, branch_pc, target, at_insn, at_cycle } => {
                self.alarms_seen += 1;
                self.jop_cases.push(JopCase { tid, branch_pc, target, at_insn, at_cycle });
                None
            }
            _ => None,
        }
    }
}

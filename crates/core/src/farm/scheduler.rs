//! Deterministic round-robin scheduling of fleet work items.
//!
//! One lane per session holds that session's runnable [`WorkItem`]s in
//! FIFO order; a cyclic cursor visits the lanes in turn and dispatches at
//! most one item per visit, so a session flooding the pool with alarm cases
//! gets one dispatch per cycle like every other session, and quiet sessions
//! are visited every cycle regardless. Per-kind in-flight clamps (span
//! slots, AR slots) implement budget backpressure: a clamped item stays
//! queued — never dropped — and other sessions' items are dispatched
//! around it.
//!
//! The scheduler orders only *wall-clock execution*. Results are written
//! into index-keyed slots and folded in span/case order, so the per-session
//! reports are byte-identical for every dispatch order the scheduler (or
//! any other) could produce — the determinism argument in DESIGN.md §14.

use std::collections::VecDeque;

/// What one unit of pooled fleet work does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkKind {
    /// Record the session's guest to completion (one item per session).
    Record,
    /// Replay one CR span (item `index` = span index).
    CrSpan,
    /// Seam-check, fold, verify, and budget-check the finished spans.
    Finalize,
    /// Resolve the escalated alarm cases that share one checkpoint on one
    /// alarm-replay pass (item `index` = checkpoint-group index).
    ArCase,
}

/// One schedulable unit: a session, a kind, and the kind's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkItem {
    pub(crate) session: usize,
    pub(crate) kind: WorkKind,
    pub(crate) index: usize,
}

/// Per-session scheduling parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneConfig {
    /// Concurrent `CrSpan` items allowed in flight.
    pub(crate) span_slots: usize,
    /// Concurrent `ArCase` items (alarm-replay passes) allowed in flight.
    pub(crate) ar_slots: usize,
}

#[derive(Debug)]
struct Lane {
    config: LaneConfig,
    runnable: VecDeque<WorkItem>,
    inflight_spans: usize,
    inflight_ars: usize,
}

impl Lane {
    fn dispatchable(&self, kind: WorkKind) -> bool {
        match kind {
            WorkKind::Record | WorkKind::Finalize => true,
            WorkKind::CrSpan => self.inflight_spans < self.config.span_slots,
            WorkKind::ArCase => self.inflight_ars < self.config.ar_slots,
        }
    }

    fn note_dispatch(&mut self, kind: WorkKind) {
        match kind {
            WorkKind::CrSpan => self.inflight_spans += 1,
            WorkKind::ArCase => self.inflight_ars += 1,
            _ => {}
        }
    }

    fn note_finish(&mut self, kind: WorkKind) {
        match kind {
            WorkKind::CrSpan => self.inflight_spans -= 1,
            WorkKind::ArCase => self.inflight_ars -= 1,
            _ => {}
        }
    }
}

/// The fleet scheduler. All methods are called under the fleet lock.
#[derive(Debug)]
pub(crate) struct Scheduler {
    lanes: Vec<Lane>,
    cursor: usize,
}

impl Scheduler {
    pub(crate) fn new(configs: Vec<LaneConfig>) -> Scheduler {
        let lanes = configs
            .into_iter()
            .map(|config| Lane { config, runnable: VecDeque::new(), inflight_spans: 0, inflight_ars: 0 })
            .collect();
        Scheduler { lanes, cursor: 0 }
    }

    /// Appends `item` to its session's lane.
    pub(crate) fn enqueue(&mut self, item: WorkItem) {
        self.lanes[item.session].runnable.push_back(item);
    }

    /// The next dispatchable item under round-robin, or `None` when every
    /// queued item is clamped (or nothing is queued). The chosen item's
    /// in-flight slot is taken; release it with [`Scheduler::finished`].
    pub(crate) fn next(&mut self) -> Option<WorkItem> {
        let n = self.lanes.len();
        for _ in 0..n {
            let lane = &mut self.lanes[self.cursor];
            self.cursor = (self.cursor + 1) % n;
            if let Some(pos) = lane.runnable.iter().position(|it| lane.dispatchable(it.kind)) {
                let item = lane.runnable.remove(pos).expect("position exists");
                lane.note_dispatch(item.kind);
                return Some(item);
            }
        }
        None
    }

    /// Releases the in-flight slot `item` held.
    pub(crate) fn finished(&mut self, item: &WorkItem) {
        self.lanes[item.session].note_finish(item.kind);
    }

    /// Drops everything still queued for session `s` (it terminated).
    pub(crate) fn clear_session(&mut self, s: usize) {
        self.lanes[s].runnable.clear();
    }

    /// Queued (not yet dispatched) items for session `s`.
    pub(crate) fn pending(&self, s: usize) -> usize {
        self.lanes[s].runnable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane() -> LaneConfig {
        LaneConfig { span_slots: usize::MAX, ar_slots: usize::MAX }
    }

    fn case(session: usize, index: usize) -> WorkItem {
        WorkItem { session, kind: WorkKind::ArCase, index }
    }

    #[test]
    fn equal_weights_alternate_fairly() {
        let mut s = Scheduler::new(vec![lane(), lane()]);
        for i in 0..3 {
            s.enqueue(case(0, i));
            s.enqueue(case(1, i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.next()).map(|it| it.session).collect();
        // An alarm storm in session 0 cannot starve session 1: dispatches
        // strictly alternate.
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn clamped_items_stay_queued_and_others_proceed() {
        let mut s = Scheduler::new(vec![LaneConfig { span_slots: usize::MAX, ar_slots: 1 }, lane()]);
        s.enqueue(case(0, 0));
        s.enqueue(case(0, 1));
        s.enqueue(case(1, 0));
        let first = s.next().unwrap();
        assert_eq!(first, case(0, 0));
        // Session 0's second case is clamped (1 slot, 1 in flight); the
        // scheduler moves on to session 1 instead of stalling.
        let second = s.next().unwrap();
        assert_eq!(second.session, 1);
        assert!(s.next().is_none(), "remaining item is clamped");
        assert_eq!(s.pending(0), 1);
        // Completing the in-flight case releases the clamp.
        s.finished(&first);
        assert_eq!(s.next().unwrap(), case(0, 1));
    }

    #[test]
    fn zero_slots_never_dispatch() {
        // The starvation shape the farm surfaces as `FarmError::Starved`:
        // items are queued, nothing is in flight, and no clamp will ever
        // open. The scheduler reports "nothing dispatchable" rather than
        // busy-looping or dropping the items.
        let mut s = Scheduler::new(vec![LaneConfig { span_slots: 0, ar_slots: 0 }]);
        s.enqueue(WorkItem { session: 0, kind: WorkKind::CrSpan, index: 0 });
        assert!(s.next().is_none());
        assert_eq!(s.pending(0), 1);
    }

    #[test]
    fn clear_session_drops_queued_work() {
        let mut s = Scheduler::new(vec![lane(), lane()]);
        s.enqueue(case(0, 0));
        s.enqueue(case(1, 0));
        s.clear_session(0);
        assert_eq!(s.pending(0), 0);
        assert_eq!(s.next().unwrap().session, 1);
        assert!(s.next().is_none());
    }

    #[test]
    fn record_and_finalize_ignore_slot_clamps() {
        let mut s = Scheduler::new(vec![LaneConfig { span_slots: 0, ar_slots: 0 }]);
        s.enqueue(WorkItem { session: 0, kind: WorkKind::Record, index: 0 });
        s.enqueue(WorkItem { session: 0, kind: WorkKind::Finalize, index: 0 });
        assert_eq!(s.next().unwrap().kind, WorkKind::Record);
        assert_eq!(s.next().unwrap().kind, WorkKind::Finalize);
    }
}

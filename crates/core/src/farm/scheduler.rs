//! Deterministic round-robin scheduling of fleet work items.
//!
//! One lane per session holds that session's runnable [`WorkItem`]s in
//! FIFO order; a cyclic cursor visits the lanes in turn and dispatches at
//! most one item per visit, so a session flooding the pool with alarm cases
//! gets one dispatch per cycle like every other session, and quiet sessions
//! are visited every cycle regardless.
//!
//! The scheduler orders only *wall-clock execution*. Results are written
//! into index-keyed slots and folded in span/case order, so the per-session
//! reports are byte-identical for every dispatch order the scheduler (or
//! any other) could produce — the determinism argument in DESIGN.md §14.

use std::collections::VecDeque;

/// What one unit of pooled fleet work does.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WorkKind {
    /// Record the session's guest to completion (one item per session).
    Record,
    /// Replay one CR span (item `index` = span index).
    CrSpan,
    /// Seam-check, fold, and verify the finished spans.
    Finalize,
    /// Resolve the escalated alarm cases that share one checkpoint on one
    /// alarm-replay pass (item `index` = checkpoint-group index).
    ArCase,
}

/// One schedulable unit: a session, a kind, and the kind's index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem {
    pub(crate) session: usize,
    pub(crate) kind: WorkKind,
    pub(crate) index: usize,
}

/// The fleet scheduler. All methods are called under the fleet lock.
#[derive(Debug)]
pub(crate) struct Scheduler {
    lanes: Vec<VecDeque<WorkItem>>,
    cursor: usize,
}

impl Scheduler {
    /// A scheduler with one empty lane for each of `sessions` sessions.
    pub(crate) fn new(sessions: usize) -> Scheduler {
        Scheduler { lanes: vec![VecDeque::new(); sessions], cursor: 0 }
    }

    /// Appends `item` to its session's lane.
    pub(crate) fn enqueue(&mut self, item: WorkItem) {
        self.lanes[item.session].push_back(item);
    }

    /// The front item of the next non-empty lane under round-robin, or
    /// `None` when nothing is queued.
    pub(crate) fn next(&mut self) -> Option<WorkItem> {
        let n = self.lanes.len();
        for _ in 0..n {
            let lane = &mut self.lanes[self.cursor];
            self.cursor = (self.cursor + 1) % n;
            if let Some(item) = lane.pop_front() {
                return Some(item);
            }
        }
        None
    }

    /// Drops everything still queued for session `s` (it terminated).
    pub(crate) fn clear_session(&mut self, s: usize) {
        self.lanes[s].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(session: usize, index: usize) -> WorkItem {
        WorkItem { session, kind: WorkKind::ArCase, index }
    }

    #[test]
    fn equal_weights_alternate_fairly() {
        let mut s = Scheduler::new(2);
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
    fn clear_session_drops_queued_work() {
        let mut s = Scheduler::new(2);
        s.enqueue(case(0, 0));
        s.enqueue(case(0, 1));
        s.enqueue(case(1, 0));
        s.clear_session(0);
        assert_eq!(s.next().unwrap().session, 1);
        assert!(s.next().is_none(), "session 0's queued items were dropped");
    }
}

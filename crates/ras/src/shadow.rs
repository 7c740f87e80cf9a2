//! The software shadow RAS modeled by the alarm replayer (§4.6.2).

use std::collections::HashMap;

use rnr_isa::Addr;

use crate::{BackRasTable, ThreadId, Whitelists};

/// Outcome of feeding a return to the [`ShadowRas`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowOutcome {
    /// The tracked entry matched the actual target. `pruned` counts dead
    /// frames discarded because they were deeper than the returning slot —
    /// residue of an earlier non-local unwind.
    Hit {
        /// Dead deeper frames discarded before the match.
        pruned: usize,
    },
    /// Whitelisted non-procedural return with a legal target.
    Whitelisted,
    /// Whitelisted return to an illegal target — a control-flow hijack.
    WhitelistViolation {
        /// The illegal resolved target.
        actual: Addr,
    },
    /// No tracked entry covers this slot. Benign when the thread's history
    /// is deeper than the state the replayer was initialized with (the
    /// bounded BackRAS from a checkpoint); the alarm replayer cross-checks
    /// evict records to decide.
    Underflow {
        /// The actual resolved target.
        actual: Addr,
    },
    /// The tracked entry for this exact stack slot holds a different
    /// address: the on-stack return address was **overwritten** — the ROP
    /// signature.
    Mismatch {
        /// What the shadow stack tracked for this slot.
        predicted: Addr,
        /// The actual resolved target.
        actual: Addr,
    },
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    ret: Addr,
    /// Guest stack slot holding the return address; `None` for entries
    /// seeded from a checkpoint's BackRAS (slot unknown).
    slot: Option<Addr>,
}

/// An **unbounded, multithreaded** software return-address stack: what the
/// alarm replayer models when it traps every call and return (§4.6.2).
///
/// Each entry pairs the pushed return address with the guest stack slot it
/// was stored at, the classic precise-shadow-stack design: returns that
/// skip frames (longjmp, kernel unwinds) prune the dead deeper entries
/// instead of mispredicting, while an overwritten slot — same position,
/// different value — is unambiguously a hijack.
#[derive(Debug, Clone)]
pub struct ShadowRas {
    stacks: HashMap<ThreadId, Vec<Frame>>,
    current: ThreadId,
    whitelists: Whitelists,
}

impl ShadowRas {
    /// Creates a shadow RAS for a single initial thread.
    pub fn new(initial_thread: ThreadId, whitelists: Whitelists) -> ShadowRas {
        let mut stacks = HashMap::new();
        stacks.insert(initial_thread, Vec::new());
        ShadowRas { stacks, current: initial_thread, whitelists }
    }

    /// Initializes the per-thread stacks from a checkpoint's BackRAS
    /// snapshot ("it reads the checkpoint's BackRAS into a software data
    /// structure that it uses to simulate the RAS", §4.6.2). Seeded entries
    /// carry no slot information.
    pub fn from_backras(
        table: &BackRasTable,
        current: ThreadId,
        current_ras: &[Addr],
        whitelists: Whitelists,
    ) -> ShadowRas {
        let seed =
            |entries: &[Addr]| entries.iter().map(|&ret| Frame { ret, slot: None }).collect::<Vec<_>>();
        let mut stacks: HashMap<ThreadId, Vec<Frame>> =
            table.iter().map(|(tid, e)| (tid, seed(e.entries()))).collect();
        stacks.insert(current, seed(current_ras));
        ShadowRas { stacks, current, whitelists }
    }

    /// The thread whose stack is active.
    pub fn current_thread(&self) -> ThreadId {
        self.current
    }

    /// Switches the active thread (no state is lost — per-thread stacks).
    pub fn context_switch(&mut self, next: ThreadId) {
        self.stacks.entry(next).or_default();
        self.current = next;
    }

    /// Drops a killed thread's stack so a reused ID starts clean.
    pub fn kill_thread(&mut self, tid: ThreadId) {
        self.stacks.remove(&tid);
        if self.current == tid {
            self.stacks.insert(tid, Vec::new());
        }
    }

    /// Starts an empty stack for a newly created thread, keeping the stack
    /// of a thread that already ran: the create trap can fire after the new
    /// thread was first scheduled (an interrupt landing on the trapped
    /// instruction runs first).
    pub fn start_thread(&mut self, tid: ThreadId) {
        self.stacks.entry(tid).or_default();
    }

    /// Depth of the current thread's stack.
    pub fn depth(&self) -> usize {
        self.stacks.get(&self.current).map_or(0, Vec::len)
    }

    /// The top tracked return address (the call site the alarm replayer
    /// reports for attack characterization, §6).
    pub fn top(&self) -> Option<Addr> {
        self.stacks.get(&self.current).and_then(|s| s.last().map(|f| f.ret))
    }

    /// Records a call: `ret_addr` stored at stack slot `slot`.
    pub fn on_call(&mut self, ret_addr: Addr, slot: Addr) {
        self.stacks.entry(self.current).or_default().push(Frame { ret: ret_addr, slot: Some(slot) });
    }

    /// Checks a return at `ret_pc` resolving to `actual`, popped from stack
    /// slot `slot`.
    pub fn on_ret(&mut self, ret_pc: Addr, actual: Addr, slot: Addr) -> ShadowOutcome {
        if self.whitelists.is_whitelisted_ret(ret_pc) {
            return if self.whitelists.is_whitelisted_target(actual) {
                ShadowOutcome::Whitelisted
            } else {
                ShadowOutcome::WhitelistViolation { actual }
            };
        }
        let stack = self.stacks.entry(self.current).or_default();
        // Discard dead frames strictly deeper (lower slot) than the
        // returning one: they were skipped by a non-local unwind.
        let mut pruned = 0;
        while stack.last().is_some_and(|f| f.slot.is_some_and(|s| s < slot)) {
            stack.pop();
            pruned += 1;
        }
        match stack.last().copied() {
            None => ShadowOutcome::Underflow { actual },
            Some(Frame { slot: Some(s), .. }) if s > slot => {
                // Returning from deeper than anything tracked.
                ShadowOutcome::Underflow { actual }
            }
            Some(Frame { ret, .. }) => {
                stack.pop();
                if ret == actual {
                    ShadowOutcome::Hit { pruned }
                } else {
                    ShadowOutcome::Mismatch { predicted: ret, actual }
                }
            }
        }
    }

    /// Handles a return belonging to a known non-local-unwind routine
    /// (`longjmp`): discards every frame at or deeper than `slot` and
    /// reports how many were dropped. This is how "the replayer will be
    /// able to identify setjumps and longjumps easily and fix its software
    /// RAS" (§4.5).
    pub fn on_nesting_ret(&mut self, slot: Addr) -> usize {
        let stack = self.stacks.entry(self.current).or_default();
        let mut pruned = 0;
        while stack.last().is_some_and(|f| f.slot.is_none_or(|s| s <= slot)) {
            // Unknown-slot (seeded) frames deeper than a longjmp target are
            // unknowable; stop at the first one to stay conservative.
            if stack.last().is_some_and(|f| f.slot.is_none()) {
                break;
            }
            stack.pop();
            pruned += 1;
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackRasEntry;

    const SP0: Addr = 0x8000;

    fn shadow() -> ShadowRas {
        ShadowRas::new(ThreadId(1), Whitelists::new())
    }

    #[test]
    fn balanced_calls_hit() {
        let mut s = shadow();
        s.on_call(0x10, SP0 - 8);
        s.on_call(0x20, SP0 - 16);
        assert_eq!(s.on_ret(0x100, 0x20, SP0 - 16), ShadowOutcome::Hit { pruned: 0 });
        assert_eq!(s.on_ret(0x100, 0x10, SP0 - 8), ShadowOutcome::Hit { pruned: 0 });
    }

    #[test]
    fn per_thread_stacks_do_not_interfere() {
        let mut s = shadow();
        s.on_call(0xaa, SP0 - 8);
        s.context_switch(ThreadId(2));
        s.on_call(0xbb, SP0 - 0x4000);
        assert_eq!(s.on_ret(0x1, 0xbb, SP0 - 0x4000), ShadowOutcome::Hit { pruned: 0 });
        s.context_switch(ThreadId(1));
        assert_eq!(s.on_ret(0x1, 0xaa, SP0 - 8), ShadowOutcome::Hit { pruned: 0 });
    }

    #[test]
    fn underflow_reported() {
        let mut s = shadow();
        assert_eq!(s.on_ret(0x1, 0x2, SP0), ShadowOutcome::Underflow { actual: 0x2 });
    }

    #[test]
    fn overwritten_slot_is_a_mismatch() {
        let mut s = shadow();
        s.on_call(0x10, SP0 - 8);
        // Same slot, different value: the ROP signature.
        assert_eq!(
            s.on_ret(0x1, 0xdead, SP0 - 8),
            ShadowOutcome::Mismatch { predicted: 0x10, actual: 0xdead }
        );
    }

    #[test]
    fn unwind_prunes_dead_frames_then_hits() {
        let mut s = shadow();
        s.on_call(0x10, SP0 - 8); // outer frame
        s.on_call(0x20, SP0 - 16); // dead after unwind
        s.on_call(0x30, SP0 - 24); // dead after unwind
                                   // A return at the outer slot (e.g. after an exception unwind): the
                                   // deeper frames are pruned, the outer entry still matches.
        assert_eq!(s.on_ret(0x1, 0x10, SP0 - 8), ShadowOutcome::Hit { pruned: 2 });
    }

    #[test]
    fn returning_deeper_than_tracked_is_underflow() {
        let mut s = shadow();
        s.on_call(0x10, SP0 - 8);
        assert_eq!(s.on_ret(0x1, 0x99, SP0 - 64), ShadowOutcome::Underflow { actual: 0x99 });
        // The tracked frame survives.
        assert_eq!(s.on_ret(0x1, 0x10, SP0 - 8), ShadowOutcome::Hit { pruned: 0 });
    }

    #[test]
    fn whitelist_behaviour() {
        let wl = Whitelists::from_addrs([0x900], [0xa00]);
        let mut s = ShadowRas::new(ThreadId(1), wl);
        s.on_call(0x10, SP0 - 8);
        assert_eq!(s.on_ret(0x900, 0xa00, SP0 - 8), ShadowOutcome::Whitelisted);
        assert_eq!(s.on_ret(0x900, 0xbad, SP0 - 8), ShadowOutcome::WhitelistViolation { actual: 0xbad });
        // Stack untouched by whitelisted returns.
        assert_eq!(s.on_ret(0x1, 0x10, SP0 - 8), ShadowOutcome::Hit { pruned: 0 });
    }

    #[test]
    fn from_backras_seeds_threads_with_unknown_slots() {
        let mut table = BackRasTable::new();
        table.save(ThreadId(2), BackRasEntry::from_entries(vec![0x77]));
        let mut s = ShadowRas::from_backras(&table, ThreadId(1), &[0x11], Whitelists::new());
        // Seeded entries match by value at any slot.
        assert_eq!(s.on_ret(0x1, 0x11, SP0 - 8), ShadowOutcome::Hit { pruned: 0 });
        s.context_switch(ThreadId(2));
        assert_eq!(s.on_ret(0x1, 0x77, SP0 - 0x4000), ShadowOutcome::Hit { pruned: 0 });
    }

    #[test]
    fn seeded_entry_value_mismatch_detected() {
        let mut s = ShadowRas::from_backras(&BackRasTable::new(), ThreadId(1), &[0x11], Whitelists::new());
        assert_eq!(
            s.on_ret(0x1, 0xdead, SP0 - 8),
            ShadowOutcome::Mismatch { predicted: 0x11, actual: 0xdead }
        );
    }

    #[test]
    fn kill_thread_clears_stack() {
        let mut s = shadow();
        s.on_call(0x10, SP0 - 8);
        s.kill_thread(ThreadId(1));
        assert_eq!(s.on_ret(0x1, 0x10, SP0 - 8), ShadowOutcome::Underflow { actual: 0x10 });
    }

    #[test]
    fn nesting_ret_discards_frames_at_and_below_slot() {
        let mut s = shadow();
        s.on_call(0x10, SP0 - 8); // survives (shallower)
        s.on_call(0x20, SP0 - 16); // longjmp-crossed
        s.on_call(0x30, SP0 - 24); // the longjmp call itself
        assert_eq!(s.on_nesting_ret(SP0 - 16), 2);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.on_ret(0x1, 0x10, SP0 - 8), ShadowOutcome::Hit { pruned: 0 });
    }

    #[test]
    fn nesting_ret_stops_at_seeded_frames() {
        let mut s = ShadowRas::from_backras(&BackRasTable::new(), ThreadId(1), &[0x11], Whitelists::new());
        s.on_call(0x20, SP0 - 16);
        assert_eq!(s.on_nesting_ret(SP0 - 8), 1);
        assert_eq!(s.depth(), 1); // the seeded frame survives
    }

    #[test]
    fn top_reports_call_site() {
        let mut s = shadow();
        assert_eq!(s.top(), None);
        s.on_call(0x42, SP0 - 8);
        assert_eq!(s.top(), Some(0x42));
        assert_eq!(s.depth(), 1);
    }
}

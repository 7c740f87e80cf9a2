//! The bounded RAS and the extended RAS unit.

use rnr_isa::Addr;

use crate::{BackRasEntry, RasConfig, RasCounters, Whitelists};

/// A bounded hardware return-address stack.
///
/// Pushing onto a full stack evicts the **oldest** (bottom) entry, like the
/// circular-buffer RASes in real processors; the evicted value is returned so
/// the extended unit can dump it to the hypervisor (§4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ras {
    entries: Vec<Addr>,
    capacity: usize,
}

impl Ras {
    /// Creates an empty RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Ras {
        assert!(capacity > 0, "RAS capacity must be positive");
        Ras { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a predicted return target; returns the evicted bottom entry if
    /// the stack was full.
    pub fn push(&mut self, addr: Addr) -> Option<Addr> {
        let evicted = if self.entries.len() == self.capacity { Some(self.entries.remove(0)) } else { None };
        self.entries.push(addr);
        evicted
    }

    /// Pops the top prediction, or `None` on underflow.
    pub fn pop(&mut self) -> Option<Addr> {
        self.entries.pop()
    }

    /// The entry that `pop` would return, without removing it.
    pub fn peek(&self) -> Option<Addr> {
        self.entries.last().copied()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The live entries, bottom first.
    pub fn entries(&self) -> &[Addr] {
        &self.entries
    }

    /// Discards all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Replaces the contents with `entries` (bottom first), truncating from
    /// the bottom if more than `capacity` entries are given.
    pub fn load(&mut self, entries: &[Addr]) {
        self.entries.clear();
        let skip = entries.len().saturating_sub(self.capacity);
        self.entries.extend_from_slice(&entries[skip..]);
    }
}

/// Why a return misprediction was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum MispredictKind {
    /// `ret` executed with an empty RAS (deep nesting evicted the entry).
    Underflow,
    /// The popped prediction did not match the actual return target —
    /// benign causes: thread interleaving, imperfect nesting; malicious
    /// cause: a ROP payload.
    TargetMismatch,
    /// A whitelisted non-procedural return went to a non-whitelisted target.
    WhitelistViolation,
}

/// Details of a RAS misprediction; becomes a ROP *alarm* when the recording
/// hardware has alarms enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Mispredict {
    /// PC of the return instruction.
    pub ret_pc: Addr,
    /// The RAS prediction, when one was popped.
    pub predicted: Option<Addr>,
    /// The actual resolved return target (from the software stack).
    pub actual: Addr,
    /// Classification.
    pub kind: MispredictKind,
}

/// Outcome of feeding one call/return event to a [`RasUnit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasOutcome {
    /// Prediction matched, or a push with free space.
    Hit,
    /// A whitelisted return: RAS untouched, no alarm.
    Whitelisted,
    /// A push evicted this bottom entry; with evict records enabled the
    /// hardware raises a VM exit so the hypervisor can log it (§4.5).
    Evicted(Addr),
    /// A misprediction. Raises an alarm only if the configuration says so.
    Mispredict(Mispredict),
}

/// The RAS hardware unit with the RnR-Safe extensions of §4.
///
/// The unit is driven by the CPU core: [`RasUnit::on_call`] at call
/// instructions and [`RasUnit::on_ret`] at returns. Context switches are
/// driven by the (microcoded) virtualization hardware via
/// [`RasUnit::save_backras`]/[`RasUnit::restore_backras`].
#[derive(Debug, Clone)]
pub struct RasUnit {
    ras: Ras,
    config: RasConfig,
    whitelists: Whitelists,
    counters: RasCounters,
}

impl RasUnit {
    /// Creates a unit with empty whitelists.
    pub fn new(config: RasConfig) -> RasUnit {
        RasUnit {
            ras: Ras::new(config.capacity),
            config,
            whitelists: Whitelists::new(),
            counters: RasCounters::default(),
        }
    }

    /// Programs the whitelist tables (hypervisor-only operation, §5.1).
    pub fn set_whitelists(&mut self, whitelists: Whitelists) {
        self.whitelists = whitelists;
    }

    /// The active whitelists.
    pub fn whitelists(&self) -> &Whitelists {
        &self.whitelists
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &RasConfig {
        &self.config
    }

    /// Accumulated event counters.
    pub fn counters(&self) -> &RasCounters {
        &self.counters
    }

    /// Direct access to the underlying stack (for checkpointing).
    pub fn ras(&self) -> &Ras {
        &self.ras
    }

    /// Feeds a call instruction: pushes `ret_addr`.
    ///
    /// Returns [`RasOutcome::Evicted`] when the push overflowed and evict
    /// records are enabled; the caller (CPU core) must then raise a VM exit
    /// so the hypervisor can append an `Evict` record to the input log.
    pub fn on_call(&mut self, ret_addr: Addr) -> RasOutcome {
        self.counters.calls += 1;
        match self.ras.push(ret_addr) {
            Some(evicted) => {
                self.counters.evictions += 1;
                if self.config.evict_records_enabled {
                    RasOutcome::Evicted(evicted)
                } else {
                    RasOutcome::Hit
                }
            }
            None => RasOutcome::Hit,
        }
    }

    /// Feeds a return instruction at `ret_pc` whose actual resolved target is
    /// `actual`.
    ///
    /// Implements the §4.4 logic: whitelisted returns do not pop the RAS and
    /// only alarm when the target is not whitelisted; other returns pop and
    /// compare.
    pub fn on_ret(&mut self, ret_pc: Addr, actual: Addr) -> RasOutcome {
        self.counters.rets += 1;
        if self.config.whitelist_enabled && self.whitelists.is_whitelisted_ret(ret_pc) {
            return if self.whitelists.is_whitelisted_target(actual) {
                self.counters.whitelist_hits += 1;
                RasOutcome::Whitelisted
            } else {
                self.counters.whitelist_violations += 1;
                RasOutcome::Mispredict(Mispredict {
                    ret_pc,
                    predicted: None,
                    actual,
                    kind: MispredictKind::WhitelistViolation,
                })
            };
        }
        match self.ras.pop() {
            None => {
                self.counters.underflows += 1;
                RasOutcome::Mispredict(Mispredict {
                    ret_pc,
                    predicted: None,
                    actual,
                    kind: MispredictKind::Underflow,
                })
            }
            Some(pred) if pred == actual => {
                self.counters.hits += 1;
                RasOutcome::Hit
            }
            Some(pred) => {
                self.counters.target_mismatches += 1;
                RasOutcome::Mispredict(Mispredict {
                    ret_pc,
                    predicted: Some(pred),
                    actual,
                    kind: MispredictKind::TargetMismatch,
                })
            }
        }
    }

    /// True when mispredictions should raise alarms (recording platform).
    pub fn alarms_enabled(&self) -> bool {
        self.config.alarms_enabled
    }

    /// Saves the current RAS contents into a [`BackRasEntry`] and clears the
    /// stack, as the microcoded hardware does on a VM exit at a context
    /// switch (Figure 3). Returns `None` when the BackRAS feature is off
    /// (`RecNoRAS` mode): the RAS is left as-is across the switch.
    pub fn save_backras(&mut self) -> Option<BackRasEntry> {
        if !self.config.backras_enabled {
            return None;
        }
        let entry = BackRasEntry::from_entries(self.ras.entries().to_vec());
        self.counters.backras_saves += 1;
        self.counters.backras_saved_bytes += entry.bytes();
        self.ras.clear();
        Some(entry)
    }

    /// Restores the RAS from a thread's [`BackRasEntry`] on the way back into
    /// the guest (Figure 3). No-op when the feature is off.
    pub fn restore_backras(&mut self, entry: &BackRasEntry) {
        if !self.config.backras_enabled {
            return;
        }
        self.counters.backras_restores += 1;
        self.counters.backras_restored_bytes += entry.bytes();
        self.ras.load(entry.entries());
    }

    /// Snapshot of the live stack (bottom first) for checkpoints.
    pub fn snapshot(&self) -> Vec<Addr> {
        self.ras.entries().to_vec()
    }

    /// Restores a snapshot taken with [`RasUnit::snapshot`].
    pub fn restore_snapshot(&mut self, entries: &[Addr]) {
        self.ras.load(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ras_push_pop_lifo() {
        let mut ras = Ras::new(4);
        ras.push(1);
        ras.push(2);
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_evicts_oldest() {
        let mut ras = Ras::new(2);
        assert_eq!(ras.push(1), None);
        assert_eq!(ras.push(2), None);
        assert_eq!(ras.push(3), Some(1));
        assert_eq!(ras.entries(), &[2, 3]);
    }

    #[test]
    fn ras_load_truncates_bottom() {
        let mut ras = Ras::new(2);
        ras.load(&[1, 2, 3, 4]);
        assert_eq!(ras.entries(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Ras::new(0);
    }

    #[test]
    fn unit_hit_on_matched_return() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        assert_eq!(u.on_call(0x100), RasOutcome::Hit);
        assert_eq!(u.on_ret(0x200, 0x100), RasOutcome::Hit);
        assert_eq!(u.counters().hits, 1);
    }

    #[test]
    fn unit_underflow_mispredicts() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        match u.on_ret(0x200, 0x300) {
            RasOutcome::Mispredict(m) => {
                assert_eq!(m.kind, MispredictKind::Underflow);
                assert_eq!(m.predicted, None);
                assert_eq!(m.actual, 0x300);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(u.counters().underflows, 1);
    }

    #[test]
    fn unit_target_mismatch_is_rop_signature() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        u.on_call(0x100);
        match u.on_ret(0x200, 0xdead) {
            RasOutcome::Mispredict(m) => {
                assert_eq!(m.kind, MispredictKind::TargetMismatch);
                assert_eq!(m.predicted, Some(0x100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unit_eviction_reported_only_when_enabled() {
        let mut on = RasUnit::new(RasConfig::extended(1));
        on.on_call(0x10);
        assert_eq!(on.on_call(0x20), RasOutcome::Evicted(0x10));

        let mut off = RasUnit::new(RasConfig::baseline(1));
        off.on_call(0x10);
        assert_eq!(off.on_call(0x20), RasOutcome::Hit);
        assert_eq!(off.counters().evictions, 1);
    }

    #[test]
    fn whitelisted_ret_skips_pop() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        u.set_whitelists(Whitelists::from_addrs([0x900], [0xa00]));
        u.on_call(0x100);
        assert_eq!(u.on_ret(0x900, 0xa00), RasOutcome::Whitelisted);
        // The RAS still holds the pending prediction for the real return.
        assert_eq!(u.on_ret(0x500, 0x100), RasOutcome::Hit);
        assert_eq!(u.counters().whitelist_hits, 1);
    }

    #[test]
    fn whitelisted_ret_to_bad_target_alarms() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        u.set_whitelists(Whitelists::from_addrs([0x900], [0xa00]));
        match u.on_ret(0x900, 0xdead) {
            RasOutcome::Mispredict(m) => assert_eq!(m.kind, MispredictKind::WhitelistViolation),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whitelist_ignored_when_disabled() {
        let mut u = RasUnit::new(RasConfig::baseline(8));
        u.set_whitelists(Whitelists::from_addrs([0x900], [0xa00]));
        // Baseline config: the whitelisted PC still pops (and underflows).
        match u.on_ret(0x900, 0xa00) {
            RasOutcome::Mispredict(m) => assert_eq!(m.kind, MispredictKind::Underflow),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backras_save_restore_round_trip() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        u.on_call(0x1);
        u.on_call(0x2);
        let saved = u.save_backras().expect("backras enabled");
        assert_eq!(saved.len(), 2);
        assert!(u.ras().is_empty());
        // Another thread runs...
        u.on_call(0x99);
        u.save_backras();
        // ...and the first thread is switched back in.
        u.restore_backras(&saved);
        assert_eq!(u.on_ret(0x500, 0x2), RasOutcome::Hit);
        assert_eq!(u.on_ret(0x500, 0x1), RasOutcome::Hit);
        assert_eq!(u.counters().backras_saves, 2);
        assert_eq!(u.counters().backras_restores, 1);
        assert_eq!(u.counters().backras_saved_bytes, (2 + 1) * 8 + 2 * 8);
    }

    #[test]
    fn backras_disabled_returns_none_and_keeps_ras() {
        let mut u = RasUnit::new(RasConfig::extended(8).without_backras());
        u.on_call(0x1);
        assert!(u.save_backras().is_none());
        assert_eq!(u.ras().len(), 1);
    }

    #[test]
    fn snapshot_restore() {
        let mut u = RasUnit::new(RasConfig::extended(8));
        u.on_call(0x1);
        u.on_call(0x2);
        let snap = u.snapshot();
        u.on_ret(0x10, 0x2);
        u.restore_snapshot(&snap);
        assert_eq!(u.ras().entries(), &[0x1, 0x2]);
    }
}

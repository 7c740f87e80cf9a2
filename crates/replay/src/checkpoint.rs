//! The retention policy of incremental checkpoints (§8.4).

use std::collections::VecDeque;
use std::sync::Arc;

use rnr_hypervisor::Checkpoint;

/// A bounded window of recent checkpoints.
///
/// "RnR-Safe only needs to keep as many checkpoints as the duration of the
/// time window... plus two — to ensure the correct checkpoint is not
/// prematurely overwritten" (§8.4). Old checkpoints are recycled; dropping
/// one releases only the page and block chunks no later checkpoint shares.
/// Each checkpoint is held behind one `Arc` that the CR's recovery point and
/// every alarm case it serves share, so handing one out copies no page
/// table.
#[derive(Debug)]
pub struct CheckpointStore {
    retain: usize,
    window: VecDeque<Arc<Checkpoint>>,
    taken: u64,
    max_live: usize,
}

impl CheckpointStore {
    /// A store retaining the most recent `retain` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is zero — the alarm replayer always needs a base.
    pub fn new(retain: usize) -> CheckpointStore {
        assert!(retain > 0, "must retain at least one checkpoint");
        CheckpointStore { retain, window: VecDeque::new(), taken: 0, max_live: 0 }
    }

    /// Adds a checkpoint, recycling the oldest beyond the retention window.
    pub fn push(&mut self, checkpoint: Arc<Checkpoint>) {
        self.window.push_back(checkpoint);
        self.taken += 1;
        while self.window.len() > self.retain {
            self.window.pop_front();
        }
        self.max_live = self.max_live.max(self.window.len());
    }

    /// The most recent checkpoint (what an alarm replayer typically starts
    /// from).
    pub fn latest(&self) -> Option<&Arc<Checkpoint>> {
        self.window.back()
    }

    /// The latest checkpoint at or before instruction `at_insn` — the
    /// "checkpoint immediately preceding the alarm" (§4.6.2). Falls back to
    /// the oldest retained checkpoint if the alarm predates the window.
    pub fn before(&self, at_insn: u64) -> Option<&Arc<Checkpoint>> {
        self.window.iter().rev().find(|c| c.at_insn <= at_insn).or_else(|| self.window.front())
    }

    /// Checkpoints currently retained.
    pub fn live(&self) -> usize {
        self.window.len()
    }

    /// Total checkpoints ever taken.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// High-water mark of simultaneously retained checkpoints.
    pub fn max_live(&self) -> usize {
        self.max_live
    }

    /// Iterates over retained checkpoints, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Checkpoint>> {
        self.window.iter()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use rnr_hypervisor::DiskSnapshot;
    use rnr_isa::Reg;
    use rnr_log::LogCursor;
    use rnr_machine::{CpuState, Mode, PageTable};
    use rnr_ras::{BackRasTable, ThreadId};

    fn checkpoint(id: u64, at_insn: u64) -> Arc<Checkpoint> {
        Arc::new(Checkpoint {
            id,
            at_insn,
            at_cycle: at_insn * 2,
            cpu: CpuState {
                regs: [0; Reg::COUNT],
                pc: 0,
                mode: Mode::Kernel,
                interrupts_enabled: false,
                halted: false,
                ras_entries: vec![],
            },
            mem_pages: PageTable::default(),
            disk: DiskSnapshot::default(),
            backras: BackRasTable::new(),
            current_tid: ThreadId(1),
            dying: None,
            cursor: LogCursor::new(0),
            evict_store: HashMap::new(),
            dirty_pages: 0,
            dirty_blocks: 0,
        })
    }

    #[test]
    fn recycles_beyond_retention() {
        let mut store = CheckpointStore::new(3);
        for i in 0..5 {
            store.push(checkpoint(i, i * 100));
        }
        assert_eq!(store.live(), 3);
        assert_eq!(store.taken(), 5);
        assert_eq!(store.max_live(), 3);
        assert_eq!(store.latest().unwrap().id, 4);
        assert_eq!(store.iter().next().unwrap().id, 2);
    }

    #[test]
    fn before_finds_preceding_checkpoint() {
        let mut store = CheckpointStore::new(10);
        for i in 0..4 {
            store.push(checkpoint(i, i * 100));
        }
        assert_eq!(store.before(250).unwrap().id, 2);
        assert_eq!(store.before(300).unwrap().id, 3);
        // Alarm predating the window: oldest retained is the best base.
        let mut small = CheckpointStore::new(1);
        small.push(checkpoint(9, 900));
        assert_eq!(small.before(100).unwrap().id, 9);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_retention_rejected() {
        CheckpointStore::new(0);
    }
}

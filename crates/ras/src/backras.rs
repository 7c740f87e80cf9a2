//! The BackRAS memory structure (Figure 2) and its per-thread table.

use std::collections::HashMap;

use rnr_isa::Addr;

use crate::ThreadId;

/// One entry of the BackRAS array: a saved RAS image plus the count of saved
/// entries ("the counter is needed to know the number of entries that need to
/// be reloaded later on", §4.3).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BackRasEntry {
    entries: Vec<Addr>,
}

impl BackRasEntry {
    /// An empty entry (freshly created thread: nothing to reload).
    pub fn new() -> BackRasEntry {
        BackRasEntry::default()
    }

    /// Wraps saved RAS contents (bottom first).
    pub fn from_entries(entries: Vec<Addr>) -> BackRasEntry {
        BackRasEntry { entries }
    }

    /// The saved return addresses, bottom first.
    pub fn entries(&self) -> &[Addr] {
        &self.entries
    }

    /// Number of saved entries (the `Cnt` field of Figure 2).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was saved.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes this entry occupies in the hypervisor memory area: the count
    /// word plus one word per saved address. This is the unit of the
    /// Figure 6(b) bandwidth accounting.
    pub fn bytes(&self) -> u64 {
        8 + self.entries.len() as u64 * 8
    }
}

/// The hypervisor-side table of per-thread backed-up RASes.
///
/// The paper stores this as "a hash table mapping a thread's ID ('key') to
/// its BackRAS entry ('value')" in memory inaccessible to the guest (§5.2.1).
/// Entries are removed when the guest kernel kills a thread, so reused thread
/// IDs start from a clean entry (§5.2.2).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackRasTable {
    map: HashMap<ThreadId, BackRasEntry>,
}

impl BackRasTable {
    /// An empty table.
    pub fn new() -> BackRasTable {
        BackRasTable::default()
    }

    /// Stores `entry` as the backed-up RAS of `tid` (context switch out).
    pub fn save(&mut self, tid: ThreadId, entry: BackRasEntry) {
        self.map.insert(tid, entry);
    }

    /// The backed-up RAS for `tid`, or an empty entry for threads that have
    /// never been switched out (e.g. freshly created).
    pub fn load(&self, tid: ThreadId) -> BackRasEntry {
        self.map.get(&tid).cloned().unwrap_or_default()
    }

    /// True if `tid` has a stored entry.
    pub fn contains(&self, tid: ThreadId) -> bool {
        self.map.contains_key(&tid)
    }

    /// Deletes the entry of a killed thread (§5.2.2), returning it if present.
    pub fn remove(&mut self, tid: ThreadId) -> Option<BackRasEntry> {
        self.map.remove(&tid)
    }

    /// Allocates a clean entry for a newly created thread (§5.2.2). An
    /// existing entry is kept: the create trap can fire after the new thread
    /// already ran and was switched out (an interrupt landing on the trapped
    /// instruction runs first), and a killed thread's entry is removed at
    /// its last switch, so a reused ID never finds a stale one.
    pub fn allocate(&mut self, tid: ThreadId) {
        self.map.entry(tid).or_default();
    }

    /// Number of threads tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no threads are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(thread, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, &BackRasEntry)> {
        self.map.iter().map(|(t, e)| (*t, e))
    }

    /// Total bytes the table occupies (sum of entry sizes).
    pub fn bytes(&self) -> u64 {
        self.map.values().map(BackRasEntry::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_bytes_include_count_word() {
        assert_eq!(BackRasEntry::new().bytes(), 8);
        assert_eq!(BackRasEntry::from_entries(vec![1, 2, 3]).bytes(), 32);
    }

    #[test]
    fn table_save_load_round_trip() {
        let mut t = BackRasTable::new();
        let tid = ThreadId(7);
        t.save(tid, BackRasEntry::from_entries(vec![0xa, 0xb]));
        assert_eq!(t.load(tid).entries(), &[0xa, 0xb]);
    }

    #[test]
    fn unknown_thread_loads_empty() {
        let t = BackRasTable::new();
        assert!(t.load(ThreadId(99)).is_empty());
    }

    #[test]
    fn kill_then_reuse_id_starts_clean() {
        let mut t = BackRasTable::new();
        let tid = ThreadId(3);
        t.save(tid, BackRasEntry::from_entries(vec![0x1]));
        let removed = t.remove(tid).expect("entry existed");
        assert_eq!(removed.len(), 1);
        // The guest reuses the ID for a brand new thread.
        t.allocate(tid);
        assert!(t.load(tid).is_empty());
        assert!(t.contains(tid));
    }

    #[test]
    fn allocate_keeps_a_live_entry() {
        let mut t = BackRasTable::new();
        let tid = ThreadId(9);
        t.save(tid, BackRasEntry::from_entries(vec![0x10, 0x20]));
        t.allocate(tid);
        assert_eq!(t.load(tid).entries(), &[0x10, 0x20]);
    }

    #[test]
    fn table_bytes_sums_entries() {
        let mut t = BackRasTable::new();
        t.save(ThreadId(1), BackRasEntry::from_entries(vec![1]));
        t.save(ThreadId(2), BackRasEntry::from_entries(vec![1, 2]));
        assert_eq!(t.bytes(), 16 + 24);
        assert_eq!(t.len(), 2);
    }
}

//! Page tables of snapshots: fixed-size chunks shared between consecutive
//! snapshots of one store.

use std::sync::Arc;

use crate::mem::Page;

/// Pages per chunk of a [`PageTable`]. A capture compares every page
/// pointer and copies the pointers of the chunks that changed, so a smaller
/// chunk copies less per written page and a larger one allocates and
/// counts fewer chunks per capture. A mean `rop_attack` CR interval writes
/// 13.6 pages in 5 chunks at 16 or 32 pages per chunk, and 16 pages
/// (64 KiB) read the cheapest capture and release of 8 to 128
/// (EXPERIMENTS.md, "Checkpoints share untouched chunks").
pub const CHUNK_PAGES: usize = 16;

/// The pages of a [`Memory`](crate::Memory), or the blocks of a
/// [`BlockStore`](crate::BlockStore), at one instant: a table of
/// fixed-size chunks of [`CHUNK_PAGES`] page pointers, each chunk behind
/// its own [`Arc`].
///
/// A capture against a *base*, the same producer's previous snapshot of the
/// same store, shares every chunk of the base whose page pointers all equal
/// the live ones, and copies the pointers of the others. Pointer identity
/// proves a page unchanged: the base holds each of its pages, so a write to
/// one copies it first, and no other page can take its address while the
/// base lives. This is the paper's incremental checkpoint, which keeps each
/// unmodified page "in the latest checkpoint that modified it" (§4.6.1):
/// a capture costs one pointer compare per page plus one chunk per written
/// chunk, and dropping a snapshot frees only the chunks no other snapshot
/// shares.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    chunks: Vec<Arc<[Arc<Page>]>>,
    len: usize,
}

impl PageTable {
    /// Captures `pages`, sharing each chunk of `base` that holds exactly the
    /// same page pointers. A base of another length shares nothing.
    pub(crate) fn capture(pages: &[Arc<Page>], base: Option<&PageTable>) -> PageTable {
        let base = base.filter(|b| b.len == pages.len());
        let chunks = pages
            .chunks(CHUNK_PAGES)
            .enumerate()
            .map(|(c, live)| match base.map(|b| &b.chunks[c]) {
                Some(old) if old.iter().zip(live).all(|(a, b)| Arc::ptr_eq(a, b)) => Arc::clone(old),
                _ => Arc::from(live),
            })
            .collect();
        PageTable { chunks, len: pages.len() }
    }

    /// Puts the table's pages into `live`, replacing only the pointers that
    /// differ, and calls `swapped` with the index of each one replaced.
    ///
    /// # Panics
    ///
    /// Panics if `live` has another length.
    pub(crate) fn restore_into(&self, live: &mut [Arc<Page>], mut swapped: impl FnMut(usize)) {
        assert_eq!(live.len(), self.len, "snapshot size mismatch");
        for (index, (live, page)) in live.iter_mut().zip(self.iter()).enumerate() {
            if !Arc::ptr_eq(live, page) {
                *live = Arc::clone(page);
                swapped(index);
            }
        }
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a table of no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pages, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::ops::Range;

    use proptest::prelude::*;

    use super::*;
    use crate::{BlockStore, Memory, PAGE_SIZE, SECTOR_SIZE};

    /// Two full chunks and a partial one.
    const PAGES: usize = 2 * CHUNK_PAGES + 5;

    #[derive(Debug, Clone)]
    enum Op {
        /// A write of `len` bytes of `value` at `addr` (memory), or of one
        /// sector at `addr / SECTOR_SIZE` (disk).
        Write { addr: u64, len: usize, value: u8 },
        /// A capture against the current base.
        Capture,
        /// A capture with no base.
        CaptureAlone,
        /// A restore of an earlier capture, which becomes the base.
        Restore(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let bytes = (PAGES * PAGE_SIZE) as u64;
        prop_oneof![
            8 => (0..bytes, 1..2 * PAGE_SIZE, any::<u8>()).prop_map(|(addr, len, value)| Op::Write { addr, len, value }),
            3 => Just(Op::Capture),
            1 => Just(Op::CaptureAlone),
            2 => any::<usize>().prop_map(Op::Restore),
        ]
    }

    /// A store under test: its writes, captures and restores, and a copy of
    /// its bytes read back through its own accessors.
    trait Store {
        type Snap;
        /// Writes `value` over `len` bytes at `addr` (memory) or over the
        /// sector holding `addr` (disk); returns the byte range written.
        fn write(&mut self, addr: u64, len: usize, value: u8) -> Range<usize>;
        fn capture(&self, base: Option<&Self::Snap>) -> Self::Snap;
        fn restore(&mut self, snap: &Self::Snap);
        fn table(snap: &Self::Snap) -> &PageTable;
        fn bytes(&self) -> Vec<u8>;
    }

    impl Store for Memory {
        type Snap = PageTable;
        fn write(&mut self, addr: u64, len: usize, value: u8) -> Range<usize> {
            let len = len.min(self.len() - addr as usize);
            self.write_bytes(addr, &vec![value; len]).unwrap();
            addr as usize..addr as usize + len
        }
        fn capture(&self, base: Option<&PageTable>) -> PageTable {
            self.snapshot(base)
        }
        fn restore(&mut self, snap: &PageTable) {
            self.restore_pages(snap);
        }
        fn table(snap: &PageTable) -> &PageTable {
            snap
        }
        fn bytes(&self) -> Vec<u8> {
            let mut out = vec![0; self.len()];
            self.read_bytes(0, &mut out).unwrap();
            out
        }
    }

    impl Store for BlockStore {
        type Snap = crate::BlockSnapshot;
        fn write(&mut self, addr: u64, _len: usize, value: u8) -> Range<usize> {
            let sector = addr / SECTOR_SIZE as u64;
            self.write_sector(sector, &[value; SECTOR_SIZE]).unwrap();
            let start = sector as usize * SECTOR_SIZE;
            start..start + SECTOR_SIZE
        }
        fn capture(&self, base: Option<&crate::BlockSnapshot>) -> crate::BlockSnapshot {
            self.snapshot(base)
        }
        fn restore(&mut self, snap: &crate::BlockSnapshot) {
            BlockStore::restore(self, snap);
        }
        fn table(snap: &crate::BlockSnapshot) -> &PageTable {
            snap.blocks()
        }
        fn bytes(&self) -> Vec<u8> {
            let mut out = vec![0; self.len()];
            for (s, sector) in out.chunks_mut(SECTOR_SIZE).enumerate() {
                self.read_sector(s as u64, sector).unwrap();
            }
            out
        }
    }

    /// The bytes of every page of `table`, in order.
    fn copy(table: &PageTable) -> Vec<u8> {
        let mut out = Vec::with_capacity(table.len() * PAGE_SIZE);
        table.iter().for_each(|p| out.extend_from_slice(&p[..]));
        out
    }

    /// Replays `ops` on `store` beside a reference that applies the same
    /// writes to a flat copy of every byte and copies it whole at each
    /// capture, and checks every capture's contents and sharing and every
    /// restore's contents.
    fn check<S: Store>(mut store: S, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut live = store.bytes();
        // Every capture with its reference copy; the base is the latest
        // capture or restore, and `written` the pages written since it.
        let mut snaps = vec![(store.capture(None), live.clone())];
        let mut base = 0;
        let mut written = BTreeSet::new();
        for op in ops {
            match *op {
                Op::Write { addr, len, value } => {
                    let range = store.write(addr, len, value);
                    written.extend(range.start / PAGE_SIZE..=(range.end - 1) / PAGE_SIZE);
                    live[range].fill(value);
                }
                Op::Capture | Op::CaptureAlone => {
                    let alone = matches!(op, Op::CaptureAlone);
                    let snap = store.capture((!alone).then(|| &snaps[base].0));
                    let (table, old) = (S::table(&snap), S::table(&snaps[base].0));
                    prop_assert!(copy(table) == live, "a capture holds the live contents");
                    for (c, (new, old)) in table.chunks.iter().zip(&old.chunks).enumerate() {
                        let pages = c * CHUNK_PAGES..(c + 1) * CHUNK_PAGES;
                        let touched = written.range(pages).next().is_some();
                        if alone || touched {
                            prop_assert!(!Arc::ptr_eq(new, old), "chunk {} was copied", c);
                        } else {
                            prop_assert!(Arc::ptr_eq(new, old), "untouched chunk {} is the base's", c);
                        }
                    }
                    snaps.push((snap, live.clone()));
                    base = snaps.len() - 1;
                    written.clear();
                }
                Op::Restore(k) => {
                    base = k % snaps.len();
                    store.restore(&snaps[base].0);
                    live = snaps[base].1.clone();
                    prop_assert!(store.bytes() == live, "a restore brings back the captured contents");
                    written.clear();
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn memory_captures_share_exactly_the_untouched_chunks(ops in prop::collection::vec(op(), 1..48)) {
            check(Memory::new(PAGES * PAGE_SIZE), &ops)?;
        }

        #[test]
        fn disk_captures_share_exactly_the_untouched_chunks(ops in prop::collection::vec(op(), 1..48)) {
            let mut disk = BlockStore::new(PAGES * PAGE_SIZE);
            disk.fill_deterministic(3);
            check(disk, &ops)?;
        }
    }

    #[test]
    fn a_base_of_another_length_shares_nothing() {
        let small = Memory::new(PAGE_SIZE).snapshot(None);
        let mem = Memory::new(PAGES * PAGE_SIZE);
        let table = mem.snapshot(Some(&small));
        assert_eq!(table.len(), PAGES);
        assert_eq!(table.chunks.len(), 3);
        assert_eq!(table.chunks[2].len(), 5, "the last chunk is partial");
    }
}

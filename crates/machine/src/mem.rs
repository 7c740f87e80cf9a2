//! Paged guest memory with copy-on-write sharing and dirty tracking.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rnr_isa::Addr;

use crate::digest::Fnv1a;
use crate::PageTable;

/// Guest page size in bytes (matches the paper's x86 hosts).
pub const PAGE_SIZE: usize = 4096;

/// One page of guest memory or one disk block, with its content hash
/// memoized beside the bytes.
///
/// Pages live behind [`Arc`]s that seeds, checkpoints, restored replayers
/// and the process-wide disk image all share, so a hash stored here is
/// computed once per distinct page content and reused by every digest that
/// folds the page (DESIGN.md §4, "Verification digest"). Reads go through
/// [`Deref`]. There is no `DerefMut`: the only mutable access, for
/// [`Memory`] and [`BlockStore`](crate::BlockStore) writes after
/// `Arc::make_mut`, forgets the memo, so no write can leave a stale hash
/// behind.
#[derive(Debug)]
pub struct Page {
    bytes: [u8; PAGE_SIZE],
    // `Fnv1a::update_words` hash of `bytes`; 0 = not computed yet. A pure
    // function of bytes that are immutable while the page is shared, so
    // `Relaxed` suffices: a racing reader sees 0 or the one correct value,
    // and `Arc::make_mut`'s own acquire/release orders it against writers.
    hash: AtomicU64,
}

impl Page {
    /// An all-zero page.
    pub(crate) fn zeroed() -> Page {
        Page { bytes: [0; PAGE_SIZE], hash: AtomicU64::new(0) }
    }

    /// The page's content hash (`Fnv1a::update_words` over its bytes),
    /// computed at most once per content. A computed hash of 0 is simply
    /// not cached.
    pub(crate) fn hash(&self) -> u64 {
        let memo = self.hash.load(Ordering::Relaxed);
        if memo != 0 {
            return memo;
        }
        let mut h = Fnv1a::new();
        h.update_words(&self.bytes);
        let hash = h.finish().0;
        self.hash.store(hash, Ordering::Relaxed);
        hash
    }

    /// Mutable bytes. Forgets the memoized hash: the caller is about to
    /// change the content.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        *self.hash.get_mut() = 0;
        &mut self.bytes
    }
}

impl Deref for Page {
    type Target = [u8; PAGE_SIZE];

    fn deref(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }
}

impl Clone for Page {
    /// Copies the memo too: a clone has the same content.
    fn clone(&self) -> Page {
        Page { bytes: self.bytes, hash: AtomicU64::new(self.hash.load(Ordering::Relaxed)) }
    }
}

/// Errors from guest memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access touched an address outside guest memory.
    OutOfBounds {
        /// The faulting address.
        addr: Addr,
        /// The access width in bytes.
        len: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(f, "guest memory access out of bounds: {len} bytes at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Byte-addressable guest physical memory.
///
/// Pages are reference-counted ([`Arc`]), so a snapshot
/// ([`Memory::snapshot`], a [`PageTable`]) shares them instead of copying
/// bytes; the first write to a shared page copies it — the same
/// copy-on-write scheme the paper borrows from Linux `fork` for its
/// checkpointing replayer (§7.4). The live page table stays flat, so reads
/// and writes index it directly.
///
/// Each page carries the *epoch* of its last write. Epochs advance at
/// checkpoints, so "pages modified since the previous checkpoint" (the
/// incremental-checkpoint set of Figure 4) falls out of a scan, and the
/// first write per epoch is counted as a copy-on-write fault for the cost
/// model.
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Arc<Page>>,
    dirty_epoch: Vec<u64>,
    versions: Vec<u64>,
    // Indices of pages written this epoch (unsorted), so closing an epoch is
    // O(dirty) instead of a scan over every page. Invariant: `dirty` holds
    // exactly the indices with `dirty_epoch[i] == epoch`, each once.
    dirty: Vec<usize>,
    epoch: u64,
    cow_faults: u64,
}

impl Memory {
    /// Allocates zeroed guest memory of `bytes` (rounded up to whole pages).
    pub fn new(bytes: usize) -> Memory {
        let n = bytes.div_ceil(PAGE_SIZE);
        let zero = Arc::new(Page::zeroed());
        // Epoch 0 means "never written"; execution starts in epoch 1.
        Memory {
            pages: vec![zero; n],
            dirty_epoch: vec![0; n],
            versions: vec![0; n],
            dirty: Vec::new(),
            epoch: 1,
            cow_faults: 0,
        }
    }

    /// Total size in bytes.
    pub fn len(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// True for a zero-page memory (never in practice).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn check(&self, addr: Addr, len: usize) -> Result<(), MemError> {
        if (addr as usize).checked_add(len).is_none_or(|end| end > self.len()) {
            Err(MemError::OutOfBounds { addr, len })
        } else {
            Ok(())
        }
    }

    fn page_mut(&mut self, index: usize) -> &mut [u8; PAGE_SIZE] {
        if self.dirty_epoch[index] < self.epoch {
            // First write to this page in the current epoch: with a live
            // checkpoint sharing the page, this is where the copy happens.
            self.cow_faults += 1;
            self.dirty_epoch[index] = self.epoch;
            self.dirty.push(index);
        }
        self.versions[index] = self.versions[index].wrapping_add(1);
        Arc::make_mut(&mut self.pages[index]).bytes_mut()
    }

    /// Monotonic write-version of a page: bumped on every mutation of the
    /// page (including checkpoint restores), so caches of derived per-page
    /// state — the predecoded instruction cache — can detect staleness with
    /// one comparison.
    pub fn page_version(&self, index: usize) -> u64 {
        self.versions[index]
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`] without partial reads.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len())?;
        let mut off = addr as usize;
        let mut done = 0;
        while done < buf.len() {
            let page = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.pages[page][in_page..in_page + n]);
            off += n;
            done += n;
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`] without partial writes.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len())?;
        let mut off = addr as usize;
        let mut done = 0;
        while done < data.len() {
            let page = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            self.page_mut(page)[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            off += n;
            done += n;
        }
        Ok(())
    }

    /// Reads a little-endian 64-bit word.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`].
    pub fn read_u64(&self, addr: Addr) -> Result<u64, MemError> {
        // Fast path: the word lies within one page (the overwhelmingly
        // common case — stacks and code are 8-aligned).
        let off = addr as usize;
        let in_page = off % PAGE_SIZE;
        if in_page <= PAGE_SIZE - 8 {
            let page = self.pages.get(off / PAGE_SIZE).ok_or(MemError::OutOfBounds { addr, len: 8 })?;
            let b: [u8; 8] = page[in_page..in_page + 8].try_into().expect("8-byte slice");
            return Ok(u64::from_le_bytes(b));
        }
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian 64-bit word.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`].
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), MemError> {
        // Fast path mirroring `read_u64`.
        let off = addr as usize;
        let in_page = off % PAGE_SIZE;
        if in_page <= PAGE_SIZE - 8 && off / PAGE_SIZE < self.pages.len() {
            self.page_mut(off / PAGE_SIZE)[in_page..in_page + 8].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`].
    pub fn read_u8(&self, addr: Addr) -> Result<u8, MemError> {
        self.check(addr, 1)?;
        Ok(self.pages[addr as usize / PAGE_SIZE][addr as usize % PAGE_SIZE])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`].
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), MemError> {
        self.check(addr, 1)?;
        self.page_mut(addr as usize / PAGE_SIZE)[addr as usize % PAGE_SIZE] = value;
        Ok(())
    }

    /// Starts a new dirty-tracking epoch (called when a checkpoint is taken)
    /// and returns the indices of pages written during the closing epoch —
    /// the incremental page set stored in the checkpoint.
    pub fn begin_epoch(&mut self) -> Vec<usize> {
        self.epoch += 1;
        let mut dirty = std::mem::take(&mut self.dirty);
        // Writes arrive in execution order; checkpoints store pages in
        // ascending index order.
        dirty.sort_unstable();
        dirty
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Copy-on-write faults (first write to a page after an epoch boundary)
    /// since the last call; resets the counter. The checkpointing replayer
    /// charges these against its cost model.
    pub fn take_cow_faults(&mut self) -> u64 {
        std::mem::take(&mut self.cow_faults)
    }

    /// A snapshot of every page. With a `base`, the same producer's
    /// previous snapshot of this memory, it shares each of the base's chunks
    /// in which no page was written since: one pointer compare per page,
    /// plus a new chunk per chunk written ([`PageTable`]). A pure read; the
    /// dirty-tracking epoch is the caller's to close.
    pub fn snapshot(&self, base: Option<&PageTable>) -> PageTable {
        PageTable::capture(&self.pages, base)
    }

    /// A snapshot that shares no chunk with an earlier one:
    /// [`Memory::snapshot`] with no base.
    pub fn snapshot_pages(&self) -> PageTable {
        self.snapshot(None)
    }

    /// The reference-counted page at `index`, if in range. Pointer identity
    /// of these `Arc`s proves a page unchanged: equal pointers imply equal
    /// content, because any write to a shared page copies it first.
    pub fn page_arc(&self, index: usize) -> Option<&Arc<Page>> {
        self.pages.get(index)
    }

    /// Iterates pages in place — digesting memory without cloning the page
    /// table.
    pub fn pages(&self) -> impl Iterator<Item = &Page> {
        self.pages.iter().map(|p| &**p)
    }

    /// Replaces the entire contents from a snapshot, taken by reference:
    /// only the page pointers that differ from the snapshot's are swapped.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has a different page count.
    pub fn restore_pages(&mut self, table: &PageTable) {
        // Pages are immutable behind their `Arc`: pointer equality implies
        // identical content, so only pages that actually changed invalidate
        // derived per-page caches (decoded blocks stay warm across a CR
        // rewind to its last checkpoint). The dirty / CoW accounting below
        // stays unconditional — virtual costs must not depend on pointer
        // sharing.
        let versions = &mut self.versions;
        table.restore_into(&mut self.pages, |index| versions[index] = versions[index].wrapping_add(1));
        // All restored pages belong to the new epoch's baseline.
        let e = self.epoch;
        self.dirty_epoch.fill(e);
        self.dirty = (0..self.pages.len()).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_at_start() {
        let m = Memory::new(8192);
        assert_eq!(m.read_u64(0).unwrap(), 0);
        assert_eq!(m.read_u8(8191).unwrap(), 0);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new(8192);
        m.write_u64(16, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(16).unwrap(), 0xdead_beef_cafe_f00d);
        m.write_u8(3, 7).unwrap();
        assert_eq!(m.read_u8(3).unwrap(), 7);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new(8192);
        m.write_u64(PAGE_SIZE as u64 - 4, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(PAGE_SIZE as u64 - 4).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = Memory::new(4096);
        assert!(m.read_u64(4090).is_err());
        assert!(m.write_u8(4096, 1).is_err());
        assert!(m.read_u8(4095).is_ok());
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut m = Memory::new(8192);
        m.write_u64(0, 1).unwrap();
        let snap = m.snapshot_pages();
        m.write_u64(0, 2).unwrap();
        assert_eq!(m.read_u64(0).unwrap(), 2);
        m.restore_pages(&snap);
        assert_eq!(m.read_u64(0).unwrap(), 1);
    }

    #[test]
    fn begin_epoch_reports_dirty_pages() {
        let mut m = Memory::new(PAGE_SIZE * 4);
        m.write_u8(0, 1).unwrap(); // page 0
        m.write_u8(2 * PAGE_SIZE as u64, 1).unwrap(); // page 2
        let dirty = m.begin_epoch();
        assert_eq!(dirty, vec![0, 2]);
        // Nothing written since: next epoch's dirty set is empty.
        let dirty = m.begin_epoch();
        assert!(dirty.is_empty());
        m.write_u8(PAGE_SIZE as u64, 1).unwrap();
        assert_eq!(m.begin_epoch(), vec![1]);
    }

    #[test]
    fn page_versions_track_writes_and_restores() {
        let mut m = Memory::new(PAGE_SIZE * 2);
        let v0 = m.page_version(0);
        m.write_u8(0, 1).unwrap();
        let v1 = m.page_version(0);
        assert_ne!(v0, v1);
        assert_eq!(m.page_version(1), 0, "untouched page keeps its version");
        let snap = m.snapshot_pages();
        m.write_u8(0, 2).unwrap();
        let v2 = m.page_version(0);
        assert_ne!(v1, v2);
        m.restore_pages(&snap);
        // A restore invalidates exactly the pages whose content could have
        // changed: page 0 was written after the snapshot (its Arc differs),
        // page 1 was never touched and still shares the snapshot's Arc.
        assert_ne!(m.page_version(0), v2);
        assert_eq!(m.page_version(1), 0, "identical page stays warm across restore");
    }

    #[test]
    fn begin_epoch_is_o_dirty_and_restore_marks_all() {
        let mut m = Memory::new(PAGE_SIZE * 3);
        m.write_u8(2 * PAGE_SIZE as u64, 1).unwrap();
        m.write_u8(0, 1).unwrap();
        assert_eq!(m.begin_epoch(), vec![0, 2], "dirty list reported in ascending order");
        let snap = m.snapshot_pages();
        m.restore_pages(&snap);
        // After a restore every page belongs to the new baseline.
        assert_eq!(m.begin_epoch(), vec![0, 1, 2]);
        assert!(m.begin_epoch().is_empty());
    }

    #[test]
    fn page_hash_is_memoized_and_forgotten_on_write() {
        let mut m = Memory::new(PAGE_SIZE * 2);
        m.write_u64(8, 1).unwrap();
        let shared = Arc::clone(m.page_arc(0).unwrap());
        assert_eq!(shared.hash.load(Ordering::Relaxed), 0, "nothing hashed yet");
        let h = shared.hash();
        assert_eq!(shared.hash.load(Ordering::Relaxed), h, "the hash is stored in the shared page");
        // The page is shared, so this write copies it, memo included, and
        // the copy forgets the memo before its bytes change.
        m.write_u64(8, 2).unwrap();
        let written = m.page_arc(0).unwrap();
        assert_eq!(written.hash.load(Ordering::Relaxed), 0);
        assert_ne!(written.hash(), h);
        assert_eq!(shared.hash(), h, "the other holder keeps its memo");
        let clone = (*shared).clone();
        assert_eq!(clone.hash.load(Ordering::Relaxed), h, "a clone has the same content and memo");
    }

    #[test]
    fn cow_faults_counted_once_per_epoch() {
        let mut m = Memory::new(PAGE_SIZE * 2);
        m.write_u8(0, 1).unwrap();
        m.begin_epoch();
        m.take_cow_faults();
        m.write_u8(1, 1).unwrap(); // first write to page 0 this epoch
        m.write_u8(2, 1).unwrap(); // same page: no new fault
        assert_eq!(m.take_cow_faults(), 1);
    }
}

//! The virtual disk block store.

use std::fmt;
use std::sync::Arc;

use crate::mem::{Page, PAGE_SIZE};
use crate::{PageTable, SECTOR_SIZE};

type Block = Page;

/// Sector-addressed virtual disk contents.
///
/// Internally page-granular and copy-on-write, exactly like
/// [`Memory`](crate::Memory): checkpoints snapshot "the memory pages **and disk
/// blocks** modified since the prior checkpoint" (§4.6.1), so the disk uses
/// the same epoch-based dirty tracking, and a snapshot
/// ([`BlockStore::snapshot`]) holds its blocks in the same chunk-shared
/// [`PageTable`] as memory's, not a copy of the live store's dirty-tracking
/// vectors.
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: Vec<Arc<Block>>,
    dirty_epoch: Vec<u64>,
    // Indices of blocks written this epoch (unsorted), so closing an epoch is
    // O(dirty) instead of a scan over every block. Invariant: `dirty` holds
    // exactly the indices with `dirty_epoch[i] == epoch`, each once.
    dirty: Vec<usize>,
    epoch: u64,
}

/// A [`BlockStore`] at one instant ([`BlockStore::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct BlockSnapshot {
    blocks: PageTable,
    // Blocks written in the dirty-tracking epoch open at the capture: none
    // for a replayer's checkpoint, which closes the epoch first; every
    // block for a recorder's seed, whose disk-image fill marked them all.
    written: Vec<usize>,
}

impl BlockSnapshot {
    /// The blocks.
    pub fn blocks(&self) -> &PageTable {
        &self.blocks
    }
}

/// Error from out-of-range sector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorOutOfRange {
    sector: u64,
}

impl fmt::Display for SectorOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk sector {} out of range", self.sector)
    }
}

impl std::error::Error for SectorOutOfRange {}

impl BlockStore {
    /// Sectors per internal block/page.
    pub const SECTORS_PER_BLOCK: usize = PAGE_SIZE / SECTOR_SIZE;

    /// Allocates a zeroed disk of `bytes` (rounded up to whole blocks).
    pub fn new(bytes: usize) -> BlockStore {
        let n = bytes.div_ceil(PAGE_SIZE);
        let zero = Arc::new(Block::zeroed());
        BlockStore { blocks: vec![zero; n], dirty_epoch: vec![0; n], dirty: Vec::new(), epoch: 1 }
    }

    /// Disk capacity in sectors.
    pub fn sector_count(&self) -> u64 {
        (self.blocks.len() * Self::SECTORS_PER_BLOCK) as u64
    }

    /// Disk capacity in bytes.
    pub fn len(&self) -> usize {
        self.blocks.len() * PAGE_SIZE
    }

    /// True for a zero-capacity disk.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    fn locate(&self, sector: u64) -> Result<(usize, usize), SectorOutOfRange> {
        if sector >= self.sector_count() {
            return Err(SectorOutOfRange { sector });
        }
        Ok((
            sector as usize / Self::SECTORS_PER_BLOCK,
            (sector as usize % Self::SECTORS_PER_BLOCK) * SECTOR_SIZE,
        ))
    }

    /// Reads one sector into `buf` (must be [`SECTOR_SIZE`] bytes).
    ///
    /// # Errors
    ///
    /// Fails when `sector` is beyond the disk capacity.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one sector long.
    pub fn read_sector(&self, sector: u64, buf: &mut [u8]) -> Result<(), SectorOutOfRange> {
        assert_eq!(buf.len(), SECTOR_SIZE);
        let (block, off) = self.locate(sector)?;
        buf.copy_from_slice(&self.blocks[block][off..off + SECTOR_SIZE]);
        Ok(())
    }

    /// Writes one sector from `data` (must be [`SECTOR_SIZE`] bytes).
    ///
    /// # Errors
    ///
    /// Fails when `sector` is beyond the disk capacity.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one sector long.
    pub fn write_sector(&mut self, sector: u64, data: &[u8]) -> Result<(), SectorOutOfRange> {
        assert_eq!(data.len(), SECTOR_SIZE);
        let (block, off) = self.locate(sector)?;
        if self.dirty_epoch[block] < self.epoch {
            self.dirty_epoch[block] = self.epoch;
            self.dirty.push(block);
        }
        Arc::make_mut(&mut self.blocks[block]).bytes_mut()[off..off + SECTOR_SIZE].copy_from_slice(data);
        Ok(())
    }

    /// Starts a new epoch, returning blocks written during the closing one,
    /// in ascending order.
    pub fn begin_epoch(&mut self) -> Vec<usize> {
        self.epoch += 1;
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty
    }

    /// Marks every block written in the current epoch (a fresh image
    /// replaces them all).
    fn mark_all_dirty(&mut self) {
        let e = self.epoch;
        self.dirty_epoch.fill(e);
        self.dirty = (0..self.blocks.len()).collect();
    }

    /// A snapshot of every block and of the blocks written in the open
    /// epoch. With a `base`, the same producer's previous snapshot of this
    /// store, it shares each of the base's chunks in which no block was
    /// written since ([`PageTable`]). A pure read.
    pub fn snapshot(&self, base: Option<&BlockSnapshot>) -> BlockSnapshot {
        BlockSnapshot {
            blocks: PageTable::capture(&self.blocks, base.map(|b| &b.blocks)),
            written: self.dirty.clone(),
        }
    }

    /// Puts a snapshot's blocks in place, swapping only the pointers that
    /// differ, and marks written exactly the blocks that were written in
    /// the epoch open at its capture, so the next closed epoch reports
    /// those plus the blocks written after the restore. A store of another
    /// size (a replayer resuming from a checkpoint starts from an empty
    /// disk) is first replaced by a zeroed one of the snapshot's size.
    pub fn restore(&mut self, snap: &BlockSnapshot) {
        if self.blocks.len() != snap.blocks.len() {
            *self = BlockStore::new(snap.blocks.len() * PAGE_SIZE);
        }
        snap.blocks.restore_into(&mut self.blocks, |_| {});
        self.epoch += 1;
        for &b in &snap.written {
            self.dirty_epoch[b] = self.epoch;
        }
        self.dirty.clone_from(&snap.written);
    }

    /// FNV-1a digest of the full disk contents (combined with the VM digest
    /// for replay verification): one hash per block, in block order,
    /// memoized in the shared [`Page`], so only blocks written since they
    /// were last hashed are read.
    pub fn digest(&self) -> crate::Digest {
        let mut h = crate::digest::Fnv1a::new();
        for b in &self.blocks {
            h.update_u64(b.hash());
        }
        h.finish()
    }

    /// Fills the disk with deterministic seeded content (the "disk image").
    ///
    /// The generated blocks are memoized process-wide per `(capacity, seed)`:
    /// the recorder and every replayer of a pipeline build the *same* image,
    /// and blocks are copy-on-write behind their `Arc`, so sharing one fill
    /// is invisible to the guest. Dirty-epoch accounting is identical to a
    /// sector-by-sector fill (every block written in the current epoch).
    pub fn fill_deterministic(&mut self, seed: u64) {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        type ImageCache = Mutex<HashMap<(usize, u64), Vec<Arc<Block>>>>;
        static IMAGES: OnceLock<ImageCache> = OnceLock::new();
        const POISONED: &str = "disk image cache lock (a thread panicked while holding it)";
        let cache = IMAGES.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (self.blocks.len(), seed);
        let cached = cache.lock().expect(POISONED).get(&key).cloned();
        match cached {
            Some(image) => self.blocks = image,
            None => {
                self.fill_deterministic_uncached(seed);
                cache.lock().expect(POISONED).insert(key, self.blocks.clone());
            }
        }
        self.mark_all_dirty();
    }

    fn fill_deterministic_uncached(&mut self, seed: u64) {
        let sectors = self.sector_count();
        let mut buf = [0u8; SECTOR_SIZE];
        for s in 0..sectors {
            let mut x = seed ^ (s.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for chunk in buf.chunks_mut(8) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                chunk.copy_from_slice(&x.to_le_bytes());
            }
            self.write_sector(s, &buf).expect("in range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sector_round_trip() {
        let mut d = BlockStore::new(PAGE_SIZE * 2);
        let data = [0xab; SECTOR_SIZE];
        d.write_sector(9, &data).unwrap();
        let mut out = [0u8; SECTOR_SIZE];
        d.read_sector(9, &mut out).unwrap();
        assert_eq!(out, data);
        // Neighbouring sector untouched.
        d.read_sector(8, &mut out).unwrap();
        assert_eq!(out, [0u8; SECTOR_SIZE]);
    }

    #[test]
    fn out_of_range_rejected() {
        let d = BlockStore::new(PAGE_SIZE);
        let mut buf = [0u8; SECTOR_SIZE];
        assert!(d.read_sector(BlockStore::SECTORS_PER_BLOCK as u64, &mut buf).is_err());
    }

    #[test]
    fn dirty_tracking_per_block() {
        let mut d = BlockStore::new(PAGE_SIZE * 3);
        d.write_sector(0, &[1; SECTOR_SIZE]).unwrap(); // block 0
        d.write_sector((2 * BlockStore::SECTORS_PER_BLOCK) as u64, &[2; SECTOR_SIZE]).unwrap(); // block 2
        assert_eq!(d.begin_epoch(), vec![0, 2]);
        assert!(d.begin_epoch().is_empty());
    }

    #[test]
    fn begin_epoch_is_o_dirty_and_restore_brings_back_the_marks() {
        let per = BlockStore::SECTORS_PER_BLOCK as u64;
        let mut d = BlockStore::new(PAGE_SIZE * 3);
        d.write_sector(2 * per, &[1; SECTOR_SIZE]).unwrap();
        d.write_sector(0, &[1; SECTOR_SIZE]).unwrap();
        d.write_sector(1, &[1; SECTOR_SIZE]).unwrap();
        assert_eq!(d.begin_epoch(), vec![0, 2], "dirty list reported once each, in ascending order");
        let closed = d.snapshot(None);
        d.write_sector(per, &[2; SECTOR_SIZE]).unwrap();
        let open = d.snapshot(Some(&closed));
        d.write_sector(2 * per, &[2; SECTOR_SIZE]).unwrap();
        // A restore marks what was written in the epoch open at the capture.
        d.restore(&open);
        assert_eq!(d.begin_epoch(), vec![1]);
        d.write_sector(0, &[2; SECTOR_SIZE]).unwrap();
        d.restore(&closed);
        assert!(d.begin_epoch().is_empty(), "a capture right after an epoch closed marks nothing");
        d.fill_deterministic(7);
        assert_eq!(d.begin_epoch(), vec![0, 1, 2], "a fresh image marks every block");
        assert!(d.begin_epoch().is_empty());
    }

    const DISK_BLOCKS: usize = 6;

    #[derive(Debug, Clone)]
    enum Op {
        Write(u64),
        Restore,
        Fill(u64),
        Epoch,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0..DISK_BLOCKS as u64 * BlockStore::SECTORS_PER_BLOCK as u64).prop_map(Op::Write),
            1 => Just(Op::Restore),
            1 => (0..3u64).prop_map(Op::Fill),
            3 => Just(Op::Epoch),
        ]
    }

    proptest! {
        // The dirty list reports exactly what a full scan of the per-block
        // epochs would, so checkpoint costs (which read its length) cannot
        // move.
        #[test]
        fn dirty_list_matches_a_full_scan(ops in prop::collection::vec(op(), 1..64)) {
            let mut d = BlockStore::new(PAGE_SIZE * DISK_BLOCKS);
            let mut snap = d.snapshot(None);
            for op in ops {
                match op {
                    Op::Write(sector) => d.write_sector(sector, &[sector as u8; SECTOR_SIZE]).unwrap(),
                    Op::Restore => d.restore(&snap),
                    Op::Fill(seed) => d.fill_deterministic(seed),
                    Op::Epoch => {
                        let scan: Vec<usize> =
                            (0..DISK_BLOCKS).filter(|&b| d.dirty_epoch[b] == d.epoch).collect();
                        prop_assert_eq!(d.begin_epoch(), scan);
                        snap = d.snapshot(Some(&snap));
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_isolation() {
        let mut d = BlockStore::new(PAGE_SIZE);
        d.write_sector(0, &[1; SECTOR_SIZE]).unwrap();
        let snap = d.snapshot(None);
        d.write_sector(0, &[2; SECTOR_SIZE]).unwrap();
        d.restore(&snap);
        let mut buf = [0u8; SECTOR_SIZE];
        d.read_sector(0, &mut buf).unwrap();
        assert_eq!(buf, [1; SECTOR_SIZE]);
    }

    #[test]
    fn deterministic_fill_is_reproducible() {
        let mut a = BlockStore::new(PAGE_SIZE * 2);
        let mut b = BlockStore::new(PAGE_SIZE * 2);
        a.fill_deterministic(42);
        b.fill_deterministic(42);
        let mut ba = [0u8; SECTOR_SIZE];
        let mut bb = [0u8; SECTOR_SIZE];
        for s in 0..a.sector_count() {
            a.read_sector(s, &mut ba).unwrap();
            b.read_sector(s, &mut bb).unwrap();
            assert_eq!(ba, bb);
        }
        let mut c = BlockStore::new(PAGE_SIZE * 2);
        c.fill_deterministic(43);
        c.read_sector(0, &mut bb).unwrap();
        a.read_sector(0, &mut ba).unwrap();
        assert_ne!(ba, bb);
    }
}

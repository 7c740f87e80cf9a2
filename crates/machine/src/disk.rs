//! The virtual disk block store.

use std::fmt;
use std::sync::Arc;

use crate::mem::PAGE_SIZE;
use crate::SECTOR_SIZE;

type Block = [u8; PAGE_SIZE];

/// Sector-addressed virtual disk contents.
///
/// Internally page-granular and copy-on-write, exactly like
/// [`Memory`](crate::Memory): checkpoints snapshot "the memory pages **and disk
/// blocks** modified since the prior checkpoint" (§4.6.1), so the disk uses
/// the same epoch-based dirty tracking.
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
        let zero: Arc<Block> = Arc::new([0u8; PAGE_SIZE]);
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
        Arc::make_mut(&mut self.blocks[block])[off..off + SECTOR_SIZE].copy_from_slice(data);
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

    /// Marks every block written in the current epoch (a restore or a fresh
    /// image replaces them all).
    fn mark_all_dirty(&mut self) {
        let e = self.epoch;
        self.dirty_epoch.fill(e);
        self.dirty = (0..self.blocks.len()).collect();
    }

    /// Cheap reference-counted snapshot of all blocks.
    pub fn snapshot_blocks(&self) -> Vec<Arc<Block>> {
        self.blocks.clone()
    }

    /// Restores a snapshot taken with [`BlockStore::snapshot_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has a different block count.
    pub fn restore_blocks(&mut self, blocks: Vec<Arc<Block>>) {
        assert_eq!(blocks.len(), self.blocks.len(), "snapshot size mismatch");
        self.blocks = blocks;
        self.mark_all_dirty();
    }

    /// FNV-1a digest of the full disk contents (combined with the VM digest
    /// for replay verification).
    pub fn digest(&self) -> crate::Digest {
        let mut h = crate::digest::Fnv1a::new();
        for b in &self.blocks {
            h.update_words(&b[..]);
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
    fn begin_epoch_is_o_dirty_and_restore_marks_all() {
        let per = BlockStore::SECTORS_PER_BLOCK as u64;
        let mut d = BlockStore::new(PAGE_SIZE * 3);
        d.write_sector(2 * per, &[1; SECTOR_SIZE]).unwrap();
        d.write_sector(0, &[1; SECTOR_SIZE]).unwrap();
        d.write_sector(1, &[1; SECTOR_SIZE]).unwrap();
        assert_eq!(d.begin_epoch(), vec![0, 2], "dirty list reported once each, in ascending order");
        let snap = d.snapshot_blocks();
        d.restore_blocks(snap);
        // After a restore every block belongs to the new baseline.
        assert_eq!(d.begin_epoch(), vec![0, 1, 2]);
        assert!(d.begin_epoch().is_empty());
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
            let mut snap = d.snapshot_blocks();
            for op in ops {
                match op {
                    Op::Write(sector) => d.write_sector(sector, &[sector as u8; SECTOR_SIZE]).unwrap(),
                    Op::Restore => d.restore_blocks(snap.clone()),
                    Op::Fill(seed) => d.fill_deterministic(seed),
                    Op::Epoch => {
                        let scan: Vec<usize> =
                            (0..DISK_BLOCKS).filter(|&b| d.dirty_epoch[b] == d.epoch).collect();
                        prop_assert_eq!(d.begin_epoch(), scan);
                        snap = d.snapshot_blocks();
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_isolation() {
        let mut d = BlockStore::new(PAGE_SIZE);
        d.write_sector(0, &[1; SECTOR_SIZE]).unwrap();
        let snap = d.snapshot_blocks();
        d.write_sector(0, &[2; SECTOR_SIZE]).unwrap();
        d.restore_blocks(snap);
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

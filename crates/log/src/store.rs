//! The durable segmented log store: crash-consistent persistence for the
//! framed record stream.
//!
//! The recorder's retained frame store lives in memory; an always-on
//! deployment must keep the evidence on disk. [`DurableWriter`] groups
//! transport frames into [`crate::Segment`]s and seals each one
//! **atomically**: the segment bytes are written to a `.tmp` sibling,
//! fsynced, renamed into place, and the directory itself is fsynced — a
//! crash at any point leaves either the previous state or the complete new
//! segment, never a half-visible one.
//!
//! [`DurableStore::open`] is the recovery scan run after a crash or against
//! a damaged directory: orphaned `.tmp` files (interrupted finalizations)
//! are removed, a torn tail segment is truncated away, CRC-failed or
//! structurally damaged segments are **quarantined** (renamed to `*.bad`,
//! preserving the evidence), and the frame index is rebuilt from whatever
//! survived — with every gap reported so a higher layer can refetch it. A
//! segment written by another format version is not damage: `open` refuses
//! the store and leaves every file in place.
//!
//! [`durable_fetch`] is the live refetch path: when the CR's
//! rewind-and-refetch ([`crate::LogStream::recover`]) needs a damaged span,
//! it reads the covering segment straight from disk, quarantining at-rest
//! damage it discovers on contact, and falls back to the in-memory retained
//! store only when the disk copy is unusable.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::segment::{decode_segment, encode_segment, Segment, SegmentError};
use crate::{splitmix64, DiskFault, DiskFaultKind, FaultPlan, InputLog, Record, DEFAULT_BATCH};

/// File extension of a sealed segment.
pub const SEGMENT_EXT: &str = "rnrseg";

/// Default frames per segment for [`DurableLogConfig`].
pub const DEFAULT_FRAMES_PER_SEGMENT: usize = 8;

/// Configuration of the durable log store (the `durable_log` knob).
/// Segment bodies are always RLE-compressed where that shrinks them, and
/// frames hold at most [`DEFAULT_BATCH`] records: the recorder closes the
/// writer's frame and the live sink's together (full batch, frame age), so
/// a frame's on-disk sequence number is its wire sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableLogConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Frames sealed into one segment file (min 1).
    pub frames_per_segment: usize,
}

impl DurableLogConfig {
    /// A config with the default segment geometry.
    pub fn new(dir: impl Into<PathBuf>) -> DurableLogConfig {
        DurableLogConfig { dir: dir.into(), frames_per_segment: DEFAULT_FRAMES_PER_SEGMENT }
    }
}

/// What the writer persisted (and what faults it was told to inject).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskWriteStats {
    /// Segments sealed (including ones a planned fault then damaged).
    pub segments_sealed: u64,
    /// Frames written across all sealed segments.
    pub frames_written: u64,
    /// Records written across all sealed segments.
    pub records_written: u64,
    /// Bytes of sealed segment files, pre-damage.
    pub bytes_written: u64,
    /// Planned disk faults injected at seal time.
    pub faults_injected: u64,
    /// Write/sync errors swallowed (durability degraded, recording intact).
    pub io_errors: u64,
}

/// The write side of the durable store: frames in, sealed segments out.
#[derive(Debug)]
pub struct DurableWriter {
    cfg: DurableLogConfig,
    /// Frames awaiting their segment seal.
    pending: Vec<Vec<Record>>,
    /// Sequence number of `pending[0]`.
    pending_first_seq: u64,
    /// Records awaiting their frame ([`DurableWriter::push`] mode).
    batch: Vec<Record>,
    next_segment: u64,
    faults: Vec<DiskFault>,
    seed: u64,
    stats: DiskWriteStats,
}

impl DurableWriter {
    /// Creates the store directory (if needed) and a writer whose seals will
    /// inject `plan`'s disk faults deterministically.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failure.
    pub fn create(cfg: DurableLogConfig, plan: &FaultPlan) -> io::Result<DurableWriter> {
        fs::create_dir_all(&cfg.dir)?;
        Ok(DurableWriter {
            faults: plan.disk.clone(),
            seed: plan.seed,
            cfg,
            pending: Vec::new(),
            pending_first_seq: 0,
            batch: Vec::new(),
            next_segment: 0,
            stats: DiskWriteStats::default(),
        })
    }

    /// Appends one transport frame; frames must arrive in sequence order
    /// (the sink's flush order). Seals a segment whenever
    /// [`DurableLogConfig::frames_per_segment`] frames have accumulated.
    pub fn append_frame(&mut self, seq: u64, records: &[Record]) {
        let expected = self.pending_first_seq + self.pending.len() as u64;
        debug_assert_eq!(seq, expected, "frames must be appended in sequence order");
        if seq != expected {
            self.stats.io_errors += 1;
            return;
        }
        self.add_frame(records.to_vec());
    }

    /// Appends one record, batching into frames of at most
    /// [`DEFAULT_BATCH`] records — the recorder's feed. A frame closes when
    /// it is full or at [`DurableWriter::flush`], which the recorder calls
    /// once the frame's oldest record is [`crate::MAX_FRAME_AGE_INSNS`]
    /// instructions old, and it closes the live sink's frame at the same
    /// points. The resulting frames are byte-identical to the ones a
    /// streaming sink sends and retains.
    pub fn push(&mut self, record: &Record) {
        self.batch.push(record.clone());
        if self.batch.len() >= DEFAULT_BATCH {
            self.flush();
        }
    }

    /// Records pushed but not yet closed into a frame.
    pub fn pending_records(&self) -> usize {
        self.batch.len()
    }

    /// Closes the partial batch, if any, into a frame. The frame reaches
    /// disk with its segment's seal, every
    /// [`DurableLogConfig::frames_per_segment`] frames or at
    /// [`DurableWriter::finish`].
    pub fn flush(&mut self) {
        if !self.batch.is_empty() {
            let frame = std::mem::replace(&mut self.batch, Vec::with_capacity(DEFAULT_BATCH));
            self.add_frame(frame);
        }
    }

    fn add_frame(&mut self, records: Vec<Record>) {
        self.pending.push(records);
        if self.pending.len() >= self.cfg.frames_per_segment.max(1) {
            self.seal();
        }
    }

    /// Flushes any partial batch, seals the remainder, and reports what was
    /// persisted. (Dropping the writer does the same, swallowing errors.)
    pub fn finish(mut self) -> DiskWriteStats {
        self.flush();
        self.seal();
        self.stats
    }

    /// Seals the pending frames into one segment file, atomically:
    /// write-temp + fsync + rename + directory fsync. IO errors degrade to
    /// memory-only durability (counted, never fatal — the in-memory log
    /// remains authoritative).
    fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let segment =
            Segment { first_seq: self.pending_first_seq, frames: std::mem::take(&mut self.pending) };
        let index = self.next_segment;
        self.next_segment += 1;
        self.pending_first_seq = segment.first_seq + segment.frames.len() as u64;
        let fault = self.faults.iter().find(|f| f.segment == index).copied();

        self.stats.segments_sealed += 1;
        self.stats.frames_written += segment.frames.len() as u64;
        self.stats.records_written += segment.record_count() as u64;

        if matches!(fault.map(|f| f.kind), Some(DiskFaultKind::FailedFsync)) {
            // The segment never becomes durable: model the loss by not
            // finalizing at all (the writer believed fsync succeeded).
            self.stats.faults_injected += 1;
            return;
        }

        let bytes = encode_segment(&segment, true);
        let path = self.cfg.dir.join(segment_file_name(index));
        let tmp = self.cfg.dir.join(format!("{}.tmp", segment_file_name(index)));
        let sealed = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)?;
            if let Ok(dir) = File::open(&self.cfg.dir) {
                let _ = dir.sync_all();
            }
            Ok(())
        })();
        match sealed {
            Ok(()) => self.stats.bytes_written += bytes.len() as u64,
            Err(_) => {
                self.stats.io_errors += 1;
                let _ = fs::remove_file(&tmp);
                return;
            }
        }
        if let Some(fault) = fault {
            if apply_disk_fault(&path, fault.kind, self.seed ^ index).is_ok() {
                self.stats.faults_injected += 1;
            }
        }
    }
}

impl Drop for DurableWriter {
    fn drop(&mut self) {
        self.flush();
        self.seal();
    }
}

/// The canonical file name of segment `index`.
pub fn segment_file_name(index: u64) -> String {
    format!("seg-{index:08}.{SEGMENT_EXT}")
}

/// Damages the segment file at `path` per `kind`, deterministically from
/// `mix` (seed ^ segment index). Shared by the writer's seal-time injection
/// and post-hoc damage in tests/benches, so both inflict identical bytes.
///
/// # Errors
///
/// Propagates filesystem errors from the damage itself.
pub fn apply_disk_fault(path: &Path, kind: DiskFaultKind, mix: u64) -> io::Result<()> {
    match kind {
        DiskFaultKind::TornWrite => {
            let len = fs::metadata(path)?.len();
            let keep = 1 + splitmix64(mix ^ 0x70c4) % len.max(2).wrapping_sub(1);
            let f = fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(keep)?;
            f.sync_all()
        }
        DiskFaultKind::BitRot => {
            let mut bytes = fs::read(path)?;
            if !bytes.is_empty() {
                let r = splitmix64(mix ^ 0xb17);
                let byte = (r % bytes.len() as u64) as usize;
                bytes[byte] ^= 1 << ((r >> 32) % 8);
            }
            fs::write(path, bytes)
        }
        DiskFaultKind::ShortRead => {
            let len = fs::metadata(path)?.len();
            let cut = (1 + splitmix64(mix ^ 0x5407) % 8).min(len.saturating_sub(1));
            let f = fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(len - cut)?;
            f.sync_all()
        }
        // Both erase the segment: one at rest, one before it ever landed.
        DiskFaultKind::MissingSegment | DiskFaultKind::FailedFsync => fs::remove_file(path),
    }
}

/// What [`DurableStore::open`]'s recovery scan found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryScan {
    /// Segments that decoded cleanly.
    pub segments_ok: u64,
    /// Frames indexed from surviving segments.
    pub frames_indexed: u64,
    /// Records indexed from surviving segments.
    pub records_indexed: u64,
    /// Orphaned `.tmp` files removed (interrupted finalizations).
    pub tmp_removed: u64,
    /// Torn tail segments truncated away (partial final write).
    pub torn_tails_truncated: u64,
    /// Damaged segments renamed to `*.bad`: `(file name, reason)`.
    pub quarantined: Vec<(String, String)>,
    /// Frame-sequence gaps `[start, end)` a higher layer must refetch.
    pub missing_spans: Vec<(u64, u64)>,
}

impl RecoveryScan {
    /// True when the scan found a pristine store.
    pub fn clean(&self) -> bool {
        self.tmp_removed == 0
            && self.torn_tails_truncated == 0
            && self.quarantined.is_empty()
            && self.missing_spans.is_empty()
    }
}

/// The read side of the durable store: the frame index rebuilt by the
/// recovery scan.
#[derive(Debug)]
pub struct DurableStore {
    frames: BTreeMap<u64, Vec<Record>>,
    scan: RecoveryScan,
}

impl DurableStore {
    /// Opens `dir`, running the crash-recovery scan: removes `.tmp` strays,
    /// truncates a torn tail segment, quarantines damaged segments as
    /// `*.bad`, and rebuilds the frame index from the survivors.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures, and refuses
    /// ([`io::ErrorKind::InvalidData`], naming both versions) a store holding
    /// a CRC-valid segment of another format version, before touching any
    /// file. Damage inside segment files is never an error — it is healed or
    /// quarantined and reported in the [`RecoveryScan`].
    pub fn open(dir: &Path) -> io::Result<DurableStore> {
        let mut tmp_files = Vec::new();
        let mut segment_files = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if name.ends_with(".tmp") {
                tmp_files.push(path);
            } else if name.ends_with(&format!(".{SEGMENT_EXT}")) {
                segment_files.push((name, path));
            }
        }
        segment_files.sort();

        // Decode everything before changing anything: a store written by
        // another build must be refused whole, not healed into nothing.
        let mut decoded = Vec::with_capacity(segment_files.len());
        for (name, path) in &segment_files {
            decoded.push(match fs::read(path) {
                Ok(bytes) => match decode_segment(&bytes) {
                    Err(e @ SegmentError::Version(_)) => {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")));
                    }
                    other => other.map_err(|e| e.to_string()),
                },
                Err(e) => Err(e.to_string()),
            });
        }

        let mut scan = RecoveryScan::default();
        for path in tmp_files {
            // An interrupted finalization: the rename never happened, so
            // no reader ever saw this data. Discard it.
            let _ = fs::remove_file(&path);
            scan.tmp_removed += 1;
        }
        let mut frames = BTreeMap::new();
        let last = segment_files.len().saturating_sub(1);
        for (i, ((name, path), decoded)) in segment_files.iter().zip(decoded).enumerate() {
            match decoded {
                Ok(segment) => {
                    scan.segments_ok += 1;
                    for (k, frame) in segment.frames.into_iter().enumerate() {
                        let seq = segment.first_seq + k as u64;
                        scan.frames_indexed += 1;
                        scan.records_indexed += frame.len() as u64;
                        frames.entry(seq).or_insert(frame);
                    }
                }
                Err(_) if i == last => {
                    // A damaged *tail* is the signature of a torn final
                    // write: truncate it away — nothing after it exists.
                    let _ = fs::remove_file(path);
                    scan.torn_tails_truncated += 1;
                }
                Err(reason) => {
                    // Mid-store damage (bit rot, short read): quarantine the
                    // evidence instead of deleting it.
                    let _ = fs::rename(path, quarantine_path(path));
                    scan.quarantined.push((name.clone(), reason));
                }
            }
        }

        // Rebuild the gap map: everything between 0 and the highest
        // surviving frame that is not indexed must be refetched. Walk the
        // index, not the sequence range: a segment's `first_seq` comes from
        // disk and may be huge.
        let mut next = 0;
        for &seq in frames.keys() {
            if seq > next {
                scan.missing_spans.push((next, seq));
            }
            next = seq + 1;
        }
        Ok(DurableStore { frames, scan })
    }

    /// What the recovery scan found and repaired.
    pub fn scan(&self) -> &RecoveryScan {
        &self.scan
    }

    /// The records of frame `seq`, if it survived.
    pub fn frame(&self, seq: u64) -> Option<&[Record]> {
        self.frames.get(&seq).map(Vec::as_slice)
    }

    /// Number of frames indexed.
    pub fn frame_count(&self) -> u64 {
        self.frames.len() as u64
    }

    /// One past the highest surviving frame sequence (0 when empty).
    pub fn next_seq(&self) -> u64 {
        self.frames.keys().next_back().map_or(0, |m| m + 1)
    }

    /// Rebuilds the complete input log for frames `0..total_frames`, filling
    /// every hole from `fallback` (the recorder's retained memory copy, a
    /// replica, …). `None` when a hole cannot be filled.
    pub fn restore_with<F>(&self, total_frames: u64, mut fallback: F) -> Option<InputLog>
    where
        F: FnMut(u64) -> Option<Vec<Record>>,
    {
        let mut log = InputLog::new();
        for seq in 0..total_frames {
            let records = match self.frames.get(&seq) {
                Some(r) => r.clone(),
                None => fallback(seq)?,
            };
            for record in records {
                log.push(record);
            }
        }
        Some(log)
    }
}

fn quarantine_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("segment");
    path.with_file_name(format!("{name}.bad"))
}

/// The live refetch path: reads the segment covering `seq` straight from
/// `dir` and returns its records, or `None` when no usable on-disk copy
/// exists (not yet sealed, missing, damaged, or of another format version).
/// Damaged segments found on contact are quarantined immediately — the
/// store self-heals as it is read — while another version's segments are
/// skipped and left in place.
pub fn durable_fetch(dir: &Path, seq: u64) -> Option<Vec<Record>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(&format!(".{SEGMENT_EXT}")))
        })
        .collect();
    files.sort();
    for path in files {
        let Ok(bytes) = fs::read(&path) else { continue };
        match decode_segment(&bytes) {
            Ok(segment) => {
                if segment.covers(seq) {
                    let idx = (seq - segment.first_seq) as usize;
                    return Some(segment.frames.into_iter().nth(idx).expect("covers() checked index"));
                }
            }
            Err(SegmentError::Version(_)) => {}
            Err(_) => {
                let _ = fs::rename(&path, quarantine_path(&path));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskFault;

    /// Unique per-test scratch dir, removed on drop (success or panic) so
    /// `cargo test` leaves no strays behind.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("rnr-store-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn cfg(dir: &Path, frames_per_segment: usize) -> DurableLogConfig {
        DurableLogConfig { frames_per_segment, dir: dir.to_path_buf() }
    }

    fn records(n: u64, base: u64) -> Vec<Record> {
        (0..n).map(|i| Record::Rdtsc { value: base + i * 16 }).collect()
    }

    #[test]
    fn write_seal_reopen_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let mut w = DurableWriter::create(cfg(&tmp.0, 2), &FaultPlan::default()).unwrap();
        for seq in 0..5u64 {
            w.append_frame(seq, &records(3, seq * 100));
        }
        let stats = w.finish();
        assert_eq!(stats.segments_sealed, 3, "2+2+1 frames over 3 segments");
        assert_eq!(stats.frames_written, 5);
        assert_eq!(stats.io_errors, 0);

        let store = DurableStore::open(&tmp.0).unwrap();
        assert!(store.scan().clean(), "{:?}", store.scan());
        assert_eq!(store.frame_count(), 5);
        for seq in 0..5u64 {
            assert_eq!(store.frame(seq).unwrap(), &records(3, seq * 100)[..]);
        }
        assert_eq!(store.scan().missing_spans, Vec::new());
    }

    #[test]
    fn push_mode_matches_frame_mode() {
        let tmp = TempDir::new("push-mode");
        let a = tmp.0.join("a");
        let b = tmp.0.join("b");
        let all: Vec<Record> =
            (0..2 * DEFAULT_BATCH as u64 + 10).map(|i| Record::Rdtsc { value: i }).collect();

        let mut wa = DurableWriter::create(cfg(&a, 2), &FaultPlan::default()).unwrap();
        for r in &all {
            wa.push(r);
        }
        wa.finish();

        let mut wb = DurableWriter::create(cfg(&b, 2), &FaultPlan::default()).unwrap();
        for (seq, chunk) in all.chunks(DEFAULT_BATCH).enumerate() {
            wb.append_frame(seq as u64, chunk);
        }
        wb.finish();

        // Three frames (the last one partial) → segments of 2 frames + 1.
        for seg in 0..2u64 {
            let fa = fs::read(a.join(segment_file_name(seg))).unwrap();
            let fb = fs::read(b.join(segment_file_name(seg))).unwrap();
            assert_eq!(fa, fb, "segment {seg} differs between push and frame feeds");
        }
    }

    #[test]
    fn recovery_scan_heals_each_damage_kind() {
        for kind in [
            DiskFaultKind::TornWrite,
            DiskFaultKind::BitRot,
            DiskFaultKind::MissingSegment,
            DiskFaultKind::ShortRead,
            DiskFaultKind::FailedFsync,
        ] {
            let tmp = TempDir::new(&format!("heal-{kind:?}"));
            let plan = FaultPlan {
                seed: 0xD15C,
                disk: vec![DiskFault { segment: 1, kind }],
                ..FaultPlan::default()
            };
            let mut w = DurableWriter::create(cfg(&tmp.0, 1), &plan).unwrap();
            for seq in 0..4u64 {
                w.append_frame(seq, &records(2, seq));
            }
            let stats = w.finish();
            assert_eq!(stats.faults_injected, 1, "{kind:?}");

            let store = DurableStore::open(&tmp.0).unwrap();
            assert!(!store.scan().clean(), "{kind:?} went unnoticed");
            assert_eq!(store.scan().missing_spans, vec![(1, 2)], "{kind:?}");
            for seq in [0u64, 2, 3] {
                assert_eq!(store.frame(seq).unwrap(), &records(2, seq)[..], "{kind:?}");
            }
            assert!(store.frame(1).is_none());
            // The fallback fills the hole and the log is whole again.
            let log = store.restore_with(4, |seq| Some(records(2, seq))).unwrap();
            let want: Vec<Record> = (0..4u64).flat_map(|s| records(2, s)).collect();
            assert_eq!(log.records(), &want[..]);
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_quarantined() {
        let tmp = TempDir::new("torn-tail");
        let mut w = DurableWriter::create(cfg(&tmp.0, 1), &FaultPlan::default()).unwrap();
        for seq in 0..3u64 {
            w.append_frame(seq, &records(2, seq));
        }
        w.finish();
        apply_disk_fault(&tmp.0.join(segment_file_name(2)), DiskFaultKind::TornWrite, 7).unwrap();

        let store = DurableStore::open(&tmp.0).unwrap();
        assert_eq!(store.scan().torn_tails_truncated, 1);
        assert!(store.scan().quarantined.is_empty());
        assert_eq!(store.next_seq(), 2, "the torn tail is gone, not a gap");
        assert!(!tmp.0.join(segment_file_name(2)).exists());
    }

    #[test]
    fn orphaned_tmp_files_are_removed() {
        let tmp = TempDir::new("tmp-orphan");
        let mut w = DurableWriter::create(cfg(&tmp.0, 1), &FaultPlan::default()).unwrap();
        w.append_frame(0, &records(2, 0));
        w.finish();
        fs::write(tmp.0.join(format!("{}.tmp", segment_file_name(1))), b"half-written").unwrap();

        let store = DurableStore::open(&tmp.0).unwrap();
        assert_eq!(store.scan().tmp_removed, 1);
        assert_eq!(store.frame_count(), 1);
        assert!(fs::read_dir(&tmp.0)
            .unwrap()
            .all(|e| { !e.unwrap().file_name().to_string_lossy().ends_with(".tmp") }));
    }

    #[test]
    fn far_sequence_numbers_open_without_walking_the_gap() {
        // A CRC-valid segment may claim any `first_seq`; the scan reports
        // the gap below it instead of stepping through 2^62 numbers.
        let tmp = TempDir::new("far-seq");
        let far = Segment { first_seq: 1 << 62, frames: vec![records(1, 0)] };
        fs::write(tmp.0.join(segment_file_name(0)), encode_segment(&far, true)).unwrap();
        let store = DurableStore::open(&tmp.0).unwrap();
        assert_eq!(store.frame(1 << 62).unwrap(), &records(1, 0)[..]);
        assert_eq!(store.scan().missing_spans, vec![(0, 1 << 62)]);
    }

    #[test]
    fn durable_fetch_serves_and_quarantines() {
        let tmp = TempDir::new("fetch");
        let mut w = DurableWriter::create(cfg(&tmp.0, 1), &FaultPlan::default()).unwrap();
        for seq in 0..3u64 {
            w.append_frame(seq, &records(2, seq * 10));
        }
        w.finish();
        assert_eq!(durable_fetch(&tmp.0, 1).unwrap(), records(2, 10));
        assert_eq!(durable_fetch(&tmp.0, 9), None);

        apply_disk_fault(&tmp.0.join(segment_file_name(1)), DiskFaultKind::BitRot, 3).unwrap();
        assert_eq!(durable_fetch(&tmp.0, 1), None, "rotten copy must not be served");
        assert!(
            tmp.0.join(format!("{}.bad", segment_file_name(1))).exists(),
            "damage found on contact is quarantined"
        );
        // The other segments still serve.
        assert_eq!(durable_fetch(&tmp.0, 2).unwrap(), records(2, 20));
    }
}

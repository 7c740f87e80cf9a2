//! The durable segmented log store: crash-consistent persistence for the
//! framed record stream.
//!
//! The recorder's retained frame store lives in memory; an always-on
//! deployment must keep the evidence on disk. [`DurableWriter`] takes the
//! recorder's frames as it cuts them — the same encoded bytes the live sink
//! sends — groups them into [`crate::Segment`]s whose body is the frames'
//! payloads behind a frame index, and hands each full segment to its own
//! writer thread over a bounded channel, so the recorder never waits on a
//! seal unless [`SEAL_QUEUE`] segments are already waiting. The thread
//! seals each segment **atomically**: the segment bytes are written to a
//! `.tmp` sibling, fsynced, renamed into place, and the directory itself is
//! fsynced — a crash at any point leaves either the previous state or the
//! complete new segment, never a half-visible one.
//!
//! A writer connected to a live sink ([`DurableWriter::connect`]) publishes
//! a seal mark: how far it has handed frames to its thread, and how far
//! their seals are over (renamed, the directory fsynced, any planned damage
//! applied). The stream's refetch waits on it, so it never reads a segment
//! whose seal is still running.
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use bytes::Bytes;

use crate::segment::{decode_segment, seal_frames, SegmentError};
use crate::{encode_frame, splitmix64, DiskFault, DiskFaultKind, FaultPlan, InputLog, LogSink, Record};

/// File extension of a sealed segment.
pub const SEGMENT_EXT: &str = "rnrseg";

/// Default frames per segment for [`DurableLogConfig`].
pub const DEFAULT_FRAMES_PER_SEGMENT: usize = 8;

/// Full segments that may wait for the writer thread; a recorder that
/// fills one more blocks in [`DurableWriter::append`] until a seal ends.
const SEAL_QUEUE: usize = 2;

/// Configuration of the durable log store (the `durable_log` knob).
/// Segment bodies are always RLE-compressed where that shrinks them. The
/// frames are the recorder's, so a frame's on-disk sequence number is its
/// wire sequence number.
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
    /// Write/sync errors swallowed (durability degraded, recording intact),
    /// including seals that panicked and frames appended out of order.
    pub io_errors: u64,
}

/// The write side of the durable store: frames in, sealed segments out.
/// The recorder's thread only groups frames; a writer thread, started by
/// [`DurableWriter::create`] and joined by [`DurableWriter::finish`] (or
/// the drop), seals them.
#[derive(Debug)]
pub struct DurableWriter {
    frames_per_segment: usize,
    /// Encoded frames awaiting their segment's hand-off, with their record
    /// counts.
    pending: Vec<(usize, Bytes)>,
    /// Sequence number of `pending[0]`.
    pending_first_seq: u64,
    next_segment: u64,
    /// Frames refused because they arrived out of sequence order.
    refused: u64,
    /// The connected stream's seal mark, when a live sink is attached.
    mark: Option<Arc<SealMark>>,
    /// The channel to the writer thread and its handle; `None` once joined.
    thread: Option<(SyncSender<SealJob>, JoinHandle<DiskWriteStats>)>,
}

impl DurableWriter {
    /// Creates the store directory (if needed) and starts the writer
    /// thread, whose seals will inject `plan`'s disk faults
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failure and a writer thread that
    /// cannot start.
    pub fn create(cfg: DurableLogConfig, plan: &FaultPlan) -> io::Result<DurableWriter> {
        fs::create_dir_all(&cfg.dir)?;
        let (jobs, queue) = sync_channel(SEAL_QUEUE);
        let sealer = Sealer {
            dir: cfg.dir,
            faults: plan.disk.clone(),
            seed: plan.seed,
            stats: DiskWriteStats::default(),
        };
        let thread =
            std::thread::Builder::new().name("rnr-durable-writer".into()).spawn(move || sealer.run(queue))?;
        Ok(DurableWriter {
            frames_per_segment: cfg.frames_per_segment.max(1),
            pending: Vec::new(),
            pending_first_seq: 0,
            next_segment: 0,
            refused: 0,
            mark: None,
            thread: Some((jobs, thread)),
        })
    }

    /// Appends frame `seq` — `frame` is [`crate::encode_frame`] of
    /// `records` — and hands a segment to the writer thread whenever
    /// [`DurableLogConfig::frames_per_segment`] frames have accumulated.
    /// Frames must arrive in sequence order; the writer keeps the encoded
    /// bytes and never re-encodes a record.
    pub fn append(&mut self, seq: u64, records: &[Record], frame: Bytes) {
        let expected = self.pending_first_seq + self.pending.len() as u64;
        debug_assert_eq!(seq, expected, "frames must be appended in sequence order");
        if seq != expected {
            self.refused += 1;
            return;
        }
        self.pending.push((records.len(), frame));
        if self.pending.len() >= self.frames_per_segment {
            self.hand_off();
        }
    }

    /// [`DurableWriter::append`] of `records`, encoded here.
    pub fn append_frame(&mut self, seq: u64, records: &[Record]) {
        self.append(seq, records, encode_frame(seq, records));
    }

    /// Publishes this writer's seal mark to `sink`'s stream: before the
    /// stream's refetch reads the disk, it waits until a frame already
    /// handed to the writer thread is sealed, with any planned damage
    /// applied. Call it before the first frame is appended.
    pub fn connect(&mut self, sink: &LogSink) {
        self.mark = Some(sink.seal_mark());
    }

    /// Hands the remaining frames to the writer thread, waits for every
    /// seal, and reports what was persisted. (Dropping the writer does the
    /// same, discarding the report.)
    pub fn finish(mut self) -> DiskWriteStats {
        self.close()
    }

    /// Hands the pending frames to the writer thread as one segment,
    /// blocking while [`SEAL_QUEUE`] segments already wait.
    fn hand_off(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let frames = std::mem::take(&mut self.pending);
        let job = SealJob {
            index: self.next_segment,
            first_seq: self.pending_first_seq,
            frames,
            mark: self.mark.clone(),
        };
        self.next_segment += 1;
        self.pending_first_seq += job.frames.len() as u64;
        if let Some(mark) = &self.mark {
            mark.hand(self.pending_first_seq);
        }
        if let Some((jobs, _)) = &self.thread {
            // Fails only when the thread is gone; the dropped job then
            // releases its frames from the seal mark.
            let _ = jobs.send(job);
        }
    }

    /// Seals the tail and joins the writer thread. Never panics, so the
    /// drop of a writer on an unwinding recorder is safe.
    fn close(&mut self) -> DiskWriteStats {
        self.hand_off();
        let Some((jobs, thread)) = self.thread.take() else { return DiskWriteStats::default() };
        drop(jobs);
        let mut stats = thread.join().unwrap_or(DiskWriteStats { io_errors: 1, ..DiskWriteStats::default() });
        stats.io_errors += self.refused;
        stats
    }
}

impl Drop for DurableWriter {
    fn drop(&mut self) {
        self.close();
    }
}

/// One segment on its way to the writer thread. However the job ends —
/// sealed, failed, or dropped with a thread that is gone — its drop moves
/// the seal mark past its frames, so no refetch waits on it forever.
#[derive(Debug)]
struct SealJob {
    index: u64,
    first_seq: u64,
    /// Encoded frames, with their record counts.
    frames: Vec<(usize, Bytes)>,
    mark: Option<Arc<SealMark>>,
}

impl Drop for SealJob {
    fn drop(&mut self) {
        if let Some(mark) = &self.mark {
            mark.seal(self.first_seq + self.frames.len() as u64);
        }
    }
}

/// The writer thread's state: where to seal, the plan's disk faults, and
/// the running accounting.
struct Sealer {
    dir: PathBuf,
    faults: Vec<DiskFault>,
    seed: u64,
    stats: DiskWriteStats,
}

impl Sealer {
    /// Seals every job until the writer hangs up. A seal that panics is
    /// counted as an I/O error, and the next segment still seals.
    fn run(mut self, queue: Receiver<SealJob>) -> DiskWriteStats {
        for job in queue {
            if catch_unwind(AssertUnwindSafe(|| self.seal(&job))).is_err() {
                self.stats.io_errors += 1;
            }
        }
        self.stats
    }

    /// Seals one segment file, atomically: write-temp + fsync + rename +
    /// directory fsync, then any planned damage. IO errors degrade to
    /// memory-only durability (counted, never fatal — the in-memory log
    /// remains authoritative).
    fn seal(&mut self, job: &SealJob) {
        let index = job.index;
        let fault = self.faults.iter().find(|f| f.segment == index).copied();

        self.stats.segments_sealed += 1;
        self.stats.frames_written += job.frames.len() as u64;
        self.stats.records_written += job.frames.iter().map(|&(n, _)| n as u64).sum::<u64>();

        if matches!(fault.map(|f| f.kind), Some(DiskFaultKind::FailedFsync)) {
            // The segment never becomes durable: model the loss by not
            // finalizing at all (the writer believed fsync succeeded).
            self.stats.faults_injected += 1;
            return;
        }

        let bytes = seal_frames(job.first_seq, &job.frames);
        let path = self.dir.join(segment_file_name(index));
        let tmp = self.dir.join(format!("{}.tmp", segment_file_name(index)));
        let sealed = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)?;
            if let Ok(dir) = File::open(&self.dir) {
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

/// How far a [`DurableWriter`] has handed frames to its thread, and how far
/// their seals are over. Shared by a [`LogSink`] and its stream; the writer
/// publishes to it once [`DurableWriter::connect`]ed.
#[derive(Debug, Default)]
pub(crate) struct SealMark {
    state: Mutex<MarkState>,
    sealed: Condvar,
}

#[derive(Debug, Default)]
struct MarkState {
    /// One past the last frame handed to the writer thread.
    handed: u64,
    /// One past the last frame whose seal is over: renamed, the directory
    /// fsynced and any planned damage applied — or failed, which leaves no
    /// disk copy to wait for either.
    sealed: u64,
}

impl SealMark {
    /// Every update stores one counter that only grows, so the state stays
    /// valid under a poisoned lock; and a seal job's drop takes this lock,
    /// where a panic must not happen.
    fn lock(&self) -> MutexGuard<'_, MarkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn hand(&self, through: u64) {
        let mut state = self.lock();
        state.handed = state.handed.max(through);
    }

    fn seal(&self, through: u64) {
        let mut state = self.lock();
        state.sealed = state.sealed.max(through);
        self.sealed.notify_all();
    }

    /// Blocks while frame `seq` has been handed to the writer thread but
    /// its seal is not over. A frame the writer still holds (its segment is
    /// not full) returns at once: no disk copy of it is coming yet.
    pub(crate) fn wait_sealed(&self, seq: u64) {
        let mut state = self.lock();
        while seq < state.handed && seq >= state.sealed {
            state = self.sealed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
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
    use crate::segment::{encode_segment, Segment};
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
    fn seal_mark_passes_a_frame_only_once_its_seal_and_damage_are_over() {
        for damage in [None, Some(DiskFaultKind::BitRot)] {
            let tmp = TempDir::new(&format!("mark-{damage:?}"));
            let plan = FaultPlan {
                seed: 0x5EA1,
                disk: damage.map(|kind| DiskFault { segment: 0, kind }).into_iter().collect(),
                ..FaultPlan::default()
            };
            let (sink, _stream) = crate::log_channel(&FaultPlan::default());
            let mut w = DurableWriter::create(cfg(&tmp.0, 1), &plan).unwrap();
            w.connect(&sink);
            // Not handed yet: nothing to wait for.
            sink.seal_mark().wait_sealed(0);
            w.append_frame(0, &records(2, 0));
            sink.seal_mark().wait_sealed(0);
            // The writer is still running, but frame 0's seal is over.
            match damage {
                None => assert_eq!(durable_fetch(&tmp.0, 0), Some(records(2, 0))),
                Some(_) => assert_eq!(durable_fetch(&tmp.0, 0), None, "the damage lands before the mark"),
            }
            let stats = w.finish();
            assert_eq!((stats.segments_sealed, stats.faults_injected), (1, damage.is_some() as u64));
        }
    }

    #[test]
    fn a_panicking_seal_is_an_io_error_and_the_next_segment_still_seals() {
        let tmp = TempDir::new("panicking-seal");
        let (sink, _stream) = crate::log_channel(&FaultPlan::default());
        let mut w = DurableWriter::create(cfg(&tmp.0, 1), &FaultPlan::default()).unwrap();
        w.connect(&sink);
        // A frame shorter than its header panics the seal that slices it.
        w.append(0, &records(1, 0), Bytes::from_static(b"short"));
        sink.seal_mark().wait_sealed(0);
        w.append_frame(1, &records(2, 1));
        let stats = w.finish();
        assert_eq!(stats.io_errors, 1, "{stats:?}");
        assert_eq!(durable_fetch(&tmp.0, 1), Some(records(2, 1)));
    }

    #[test]
    fn a_writer_dropped_while_unwinding_seals_its_tail() {
        let tmp = TempDir::new("unwind");
        let mut w = DurableWriter::create(cfg(&tmp.0, 4), &FaultPlan::default()).unwrap();
        w.append_frame(0, &records(2, 0));
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let _held = w;
            panic!("the recorder unwinds");
        }));
        assert!(unwound.is_err());
        assert_eq!(durable_fetch(&tmp.0, 0), Some(records(2, 0)), "the drop sealed the tail");
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

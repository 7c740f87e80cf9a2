//! Streaming transport between the recorder and a live consumer.
//!
//! During monitored recording the paper's replayers do not wait for the
//! recording to end: "the CR continuously consumes the input log as it is
//! generated" (§4.6.1). [`log_channel`] gives that shape to the simulator —
//! the recorder sends each frame it cuts ([`crate::DEFAULT_BATCH`] records,
//! or a frame [`crate::MAX_FRAME_AGE_INSNS`] instructions old) through a
//! [`LogSink`], and the checkpointing replayer pulls records from the
//! matching [`LogStream`] on another thread, blocking only when it has
//! caught up with the recording. Because the paper's deployment puts
//! recording and replay on **separate machines** (§4), each frame crosses
//! the channel checksummed and sequence-numbered ([`crate::encode_frame`]):
//! the stream verifies every frame, so corruption, truncation, reordering,
//! duplication, and drops are *detected* instead of silently replayed. The
//! sink retains a pristine copy of every frame it has sent — the
//! recorder's retained log — so the consumer can re-request a damaged frame
//! ([`LogStream::recover`]) with bounded retries and capped backoff charged
//! in virtual cycles, never wall-clock.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use crate::store::SealMark;
use crate::{decode_frame, CodecError, FaultInjector, FaultPlan, InputLog, Record};

/// Maximum re-request attempts for one damaged frame.
pub const MAX_REFETCH_RETRIES: u32 = 4;

/// Virtual-cycle backoff charged for the first re-request; doubles per
/// retry, capped at 64x. Charged to the transport stats (the recovery
/// bookkeeping), never to the guest's cycle count — recovered runs must
/// stay cycle-identical to fault-free ones.
pub const BACKOFF_BASE_VCYCLES: u64 = 1024;

const BACKOFF_CAP: u64 = BACKOFF_BASE_VCYCLES << 6;

/// The recorder-side retained frame store, shared with the stream for
/// re-requests.
type Retained = Arc<Mutex<Vec<Bytes>>>;

/// Counters describing what the transport detected and healed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TransportStats {
    /// Frames admitted in order with a valid checksum.
    pub frames_ok: u64,
    /// Duplicate frames silently discarded.
    pub duplicates_dropped: u64,
    /// Frames that arrived early and were admitted once their predecessor
    /// landed.
    pub reorders_healed: u64,
    /// Faults surfaced to the consumer (checksum, truncation, gaps).
    pub faults_detected: u64,
    /// Frames healed by re-requesting from the retained store.
    pub batches_refetched: u64,
    /// Re-request attempts beyond the first, across all recoveries.
    pub refetch_retries: u64,
    /// Virtual-cycle backoff accumulated by recoveries (diagnostic only).
    pub backoff_vcycles: u64,
    /// Refetches served from the durable on-disk store.
    pub disk_refetches: u64,
    /// Refetches where the disk copy was unusable (unsealed, missing, or
    /// damaged-and-quarantined) and the in-memory retained store served.
    pub disk_fallbacks: u64,
}

/// Creates a connected sink/stream pair, with `plan`'s transport faults
/// injected on the sink side. The pristine copy of each frame is retained
/// before injection (unless the plan poisons the retained store), so
/// recovery re-requests observe exactly what a real recorder would still
/// hold. The pair also shares a seal mark, which a durable writer
/// [`crate::DurableWriter::connect`]ed to the sink publishes to.
pub fn log_channel(plan: &FaultPlan) -> (LogSink, LogStream) {
    let (tx, rx) = channel();
    let retained: Retained = Arc::new(Mutex::new(Vec::new()));
    let seals = Arc::new(SealMark::default());
    let injector = plan.wants_transport_injection().then(|| FaultInjector::from_plan(plan));
    (
        LogSink { tx, retained: Arc::clone(&retained), seals: Arc::clone(&seals), injector, delayed: None },
        LogStream {
            rx,
            log: InputLog::new(),
            finished: false,
            next_seq: 0,
            pending: BTreeMap::new(),
            fault: None,
            retained,
            seals,
            stats: TransportStats::default(),
            durable: None,
        },
    )
}

/// The write side: the recorder sends its frames here as it cuts them.
///
/// The channel is unbounded, so the recorder never blocks on a slow
/// consumer; dropping the sink (or calling [`LogSink::finish`]) signals
/// end-of-stream.
#[derive(Debug)]
pub struct LogSink {
    tx: Sender<Bytes>,
    retained: Retained,
    seals: Arc<SealMark>,
    injector: Option<FaultInjector>,
    /// A frame held back by a planned delay; it rides behind its successor.
    delayed: Option<Bytes>,
}

impl LogSink {
    /// Retains and sends frame `seq`, an [`crate::encode_frame`] of the
    /// recorder's records. Frames must come in sequence order from 0: the
    /// retained store is indexed by sequence number.
    pub fn send(&mut self, seq: u64, frame: Bytes) {
        let (retained, outgoing, delay) = match &self.injector {
            Some(inj) => {
                let i = inj.apply(seq, frame);
                (i.retained, i.outgoing, i.delay)
            }
            None => (frame.clone(), vec![frame], false),
        };
        {
            let mut store = self.retained.lock().expect("retained store lock");
            debug_assert_eq!(store.len() as u64, seq, "frames must be sent in sequence order");
            store.push(retained);
        }
        if delay {
            self.delayed = outgoing.into_iter().next();
            return;
        }
        // A send can only fail when the stream was dropped; the recorder
        // keeps its own complete log either way.
        for bytes in outgoing {
            let _ = self.tx.send(bytes);
        }
        if let Some(held) = self.delayed.take() {
            let _ = self.tx.send(held);
        }
    }

    /// Closes the stream (consuming the sink hangs up the channel, which is
    /// what wakes a blocked consumer for the last time).
    pub fn finish(self) {}

    /// The seal mark this sink shares with its stream.
    pub(crate) fn seal_mark(&self) -> Arc<SealMark> {
        Arc::clone(&self.seals)
    }
}

impl Drop for LogSink {
    fn drop(&mut self) {
        if let Some(held) = self.delayed.take() {
            let _ = self.tx.send(held);
        }
    }
}

/// The read side: a growing [`InputLog`] fed by a [`LogSink`].
///
/// [`LogStream::try_get`] blocks until the requested record has arrived or
/// the producer has hung up, so a consumer can simply walk indices
/// `0, 1, 2, …` and observe exactly the record sequence the recorder wrote.
/// A detected transport fault surfaces as a [`CodecError`] that
/// [`LogStream::recover`] can heal from the retained store.
#[derive(Debug)]
pub struct LogStream {
    rx: Receiver<Bytes>,
    log: InputLog,
    finished: bool,
    /// Sequence number of the next frame the log is waiting for.
    next_seq: u64,
    /// Frames that arrived ahead of `next_seq`, awaiting their predecessor.
    pending: BTreeMap<u64, Vec<Record>>,
    /// A detected fault; sticky until [`LogStream::recover`] heals it.
    fault: Option<CodecError>,
    retained: Retained,
    /// How far a connected durable writer has handed and sealed frames.
    seals: Arc<SealMark>,
    stats: TransportStats,
    /// Directory of the durable segment store, when the deployment persists
    /// frames to disk; [`LogStream::recover`] prefers the on-disk copy.
    durable: Option<std::path::PathBuf>,
}

impl LogStream {
    /// Blocks until record `index` is available; `Ok(None)` once the
    /// producer has finished without sending that many records.
    ///
    /// # Errors
    ///
    /// Returns the latched [`CodecError`] when the transport detected
    /// corruption, truncation, or a sequence anomaly; the stream stays
    /// usable after a successful [`LogStream::recover`].
    pub fn try_get(&mut self, index: usize) -> Result<Option<&Record>, CodecError> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        while self.log.len() <= index && !self.finished {
            match self.rx.recv() {
                Ok(frame) => self.accept(frame)?,
                Err(_) => {
                    self.finished = true;
                    self.check_tail()?;
                }
            }
        }
        Ok(self.log.records().get(index))
    }

    /// Re-requests the missing/damaged frame from the recorder's retained
    /// store, with bounded retries and exponential backoff charged in
    /// virtual cycles to the transport stats.
    ///
    /// # Errors
    ///
    /// Returns the original fault when every retry failed (e.g. the
    /// retained copy is poisoned too) — the unrecoverable case.
    pub fn recover(&mut self) -> Result<(), CodecError> {
        let Some(fault) = self.fault.take() else { return Ok(()) };
        let mut backoff = BACKOFF_BASE_VCYCLES;
        for attempt in 0..MAX_REFETCH_RETRIES {
            if attempt > 0 {
                self.stats.refetch_retries += 1;
            }
            self.stats.backoff_vcycles += backoff;
            backoff = (backoff * 2).min(BACKOFF_CAP);
            // The durable store is the deployment's authoritative retained
            // log: prefer the on-disk copy (quarantining at-rest damage on
            // contact), fall back to the in-memory retained store when the
            // covering segment is unsealed, missing, or unusable. A frame
            // already handed to the writer thread is read only once its
            // seal is over, so a seal in flight never decides the source.
            if let Some(dir) = self.durable.clone() {
                self.seals.wait_sealed(self.next_seq);
                if let Some(records) = crate::store::durable_fetch(&dir, self.next_seq) {
                    self.admit(records);
                    self.stats.batches_refetched += 1;
                    self.stats.disk_refetches += 1;
                    return Ok(());
                }
                self.stats.disk_fallbacks += 1;
            }
            let bytes =
                self.retained.lock().expect("retained store lock").get(self.next_seq as usize).cloned();
            let Some(bytes) = bytes else { continue };
            match decode_frame(&bytes) {
                Ok((seq, records)) if seq == self.next_seq => {
                    self.admit(records);
                    self.stats.batches_refetched += 1;
                    return Ok(());
                }
                // Poisoned or mislabeled retained copy: retry, then give up.
                _ => continue,
            }
        }
        self.fault = Some(fault.clone());
        Err(fault)
    }

    /// Transport health counters accumulated so far.
    pub fn transport_stats(&self) -> TransportStats {
        self.stats
    }

    /// Backs refetch recovery with the durable segment store at `dir`:
    /// [`LogStream::recover`] will read the damaged span from disk first.
    /// Purely a refetch-source change — records, ordering, and the healed
    /// log are byte-identical with or without it.
    pub fn attach_durable(&mut self, dir: &std::path::Path) {
        self.durable = Some(dir.to_path_buf());
    }

    /// Verifies and files one incoming frame.
    fn accept(&mut self, frame: Bytes) -> Result<(), CodecError> {
        let (seq, records) = match decode_frame(&frame) {
            Ok(v) => v,
            Err(e) => return self.raise(e),
        };
        if seq < self.next_seq {
            self.stats.duplicates_dropped += 1;
            return Ok(());
        }
        if seq > self.next_seq {
            self.pending.insert(seq, records);
            // Tolerate exactly one frame in flight ahead of the expected one
            // (a delayed predecessor still catching up). A second early
            // frame means the expected one was dropped, not delayed.
            if self.pending.len() > 1 {
                let got = *self.pending.keys().next().expect("pending non-empty");
                return self.raise(CodecError::SequenceGap { expected: self.next_seq, got });
            }
            return Ok(());
        }
        self.admit(records);
        Ok(())
    }

    /// Appends an in-order frame's records and drains any pending
    /// successors that were waiting on it.
    fn admit(&mut self, records: Vec<Record>) {
        for r in records {
            self.log.push(r);
        }
        self.stats.frames_ok += 1;
        self.next_seq += 1;
        while let Some(early) = self.pending.remove(&self.next_seq) {
            for r in early {
                self.log.push(r);
            }
            self.stats.frames_ok += 1;
            self.stats.reorders_healed += 1;
            self.next_seq += 1;
        }
    }

    /// After end-of-stream: anything still pending, or retained frames that
    /// never arrived, is a tail truncation of the stream.
    fn check_tail(&mut self) -> Result<(), CodecError> {
        if let Some(&got) = self.pending.keys().next() {
            return self.raise(CodecError::SequenceGap { expected: self.next_seq, got });
        }
        let produced = self.retained.lock().expect("retained store lock").len() as u64;
        if produced > self.next_seq {
            return self.raise(CodecError::SequenceGap { expected: self.next_seq, got: produced });
        }
        Ok(())
    }

    fn raise(&mut self, e: CodecError) -> Result<(), CodecError> {
        self.stats.faults_detected += 1;
        self.fault = Some(e.clone());
        Err(e)
    }

    /// Drains the remainder of the stream and returns the complete log,
    /// auto-recovering any healable transport fault along the way.
    pub fn into_log(mut self) -> InputLog {
        loop {
            match self.rx.recv() {
                Ok(frame) => {
                    if self.accept(frame).is_err() && self.recover().is_err() {
                        break;
                    }
                }
                Err(_) => {
                    self.finished = true;
                    if self.check_tail().is_err() {
                        let _ = self.recover();
                    }
                    break;
                }
            }
        }
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_frame, TransportFault, TransportFaultKind};

    fn plan_with(seq: u64, kind: TransportFaultKind, poison_retained: bool) -> FaultPlan {
        FaultPlan {
            seed: 0xFA57,
            transport: vec![TransportFault { seq, kind, poison_retained }],
            ..FaultPlan::default()
        }
    }

    /// `Rdtsc` records with values `0..n`.
    fn records(n: u64) -> Vec<Record> {
        (0..n).map(|value| Record::Rdtsc { value }).collect()
    }

    /// Sends `records(n)` in frames of `batch` records.
    fn feed(sink: &mut LogSink, n: u64, batch: usize) {
        for (seq, chunk) in records(n).chunks(batch).enumerate() {
            sink.send(seq as u64, encode_frame(seq as u64, chunk));
        }
    }

    #[test]
    fn stream_reassembles_frames() {
        let (mut sink, mut stream) = log_channel(&FaultPlan::default());
        feed(&mut sink, 7, 3);
        sink.finish();
        for v in 0..7 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
        assert_eq!(stream.try_get(7).unwrap(), None);
    }

    #[test]
    fn try_get_blocks_across_thread_boundary() {
        let (mut sink, mut stream) = log_channel(&FaultPlan::default());
        let producer = std::thread::spawn(move || {
            feed(&mut sink, 100, 2);
            sink.finish();
        });
        // Consume concurrently; try_get() must block until each arrives.
        for v in 0..100 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
        assert_eq!(stream.try_get(100).unwrap(), None);
        producer.join().unwrap();
    }

    #[test]
    fn into_log_preserves_byte_accounting() {
        let (mut sink, stream) = log_channel(&FaultPlan::default());
        let reference: InputLog = records(10).into_iter().collect();
        feed(&mut sink, 10, 4);
        sink.finish();
        let collected = stream.into_log();
        assert_eq!(collected.records(), reference.records());
        assert_eq!(collected.total_bytes(), reference.total_bytes());
    }

    #[test]
    fn corrupt_frame_detected_and_recovered() {
        let (mut sink, mut stream) = log_channel(&plan_with(1, TransportFaultKind::CorruptBit, false));
        feed(&mut sink, 8, 2);
        sink.finish();
        assert_eq!(stream.try_get(0).unwrap(), Some(&Record::Rdtsc { value: 0 }));
        // The flipped bit may land in the length field, so either detection
        // (checksum mismatch or apparent truncation) is legitimate.
        let err = stream.try_get(3).unwrap_err();
        assert!(
            matches!(err, CodecError::FrameChecksum { seq: 1 } | CodecError::FrameTruncated { seq: 1 }),
            "{err:?}"
        );
        stream.recover().unwrap();
        for v in 2..8 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
        let stats = stream.transport_stats();
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.batches_refetched, 1);
        assert!(stats.backoff_vcycles >= BACKOFF_BASE_VCYCLES);
    }

    #[test]
    fn dropped_frame_detected_and_recovered() {
        let (mut sink, mut stream) = log_channel(&plan_with(1, TransportFaultKind::DropFrame, false));
        feed(&mut sink, 10, 2);
        sink.finish();
        let err = stream.try_get(4).unwrap_err();
        assert!(matches!(err, CodecError::SequenceGap { expected: 1, .. }), "{err:?}");
        stream.recover().unwrap();
        for v in 0..10 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
    }

    #[test]
    fn dropped_tail_frame_detected_and_recovered() {
        let (mut sink, mut stream) = log_channel(&plan_with(4, TransportFaultKind::DropFrame, false));
        feed(&mut sink, 10, 2);
        sink.finish();
        let err = stream.try_get(9).unwrap_err();
        assert_eq!(err, CodecError::SequenceGap { expected: 4, got: 5 });
        stream.recover().unwrap();
        assert_eq!(stream.try_get(9).unwrap(), Some(&Record::Rdtsc { value: 9 }));
    }

    #[test]
    fn duplicate_frame_silently_dropped() {
        let (mut sink, mut stream) = log_channel(&plan_with(1, TransportFaultKind::DuplicateFrame, false));
        feed(&mut sink, 8, 2);
        sink.finish();
        for v in 0..8 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
        assert_eq!(stream.try_get(8).unwrap(), None);
        assert_eq!(stream.transport_stats().duplicates_dropped, 1);
        assert_eq!(stream.transport_stats().faults_detected, 0);
    }

    #[test]
    fn delayed_frame_healed_by_reordering() {
        let (mut sink, mut stream) = log_channel(&plan_with(1, TransportFaultKind::DelayFrame, false));
        feed(&mut sink, 8, 2);
        sink.finish();
        for v in 0..8 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
        let stats = stream.transport_stats();
        assert_eq!(stats.reorders_healed, 1);
        assert_eq!(stats.faults_detected, 0);
    }

    #[test]
    fn poisoned_retained_store_is_unrecoverable() {
        let (mut sink, mut stream) = log_channel(&plan_with(1, TransportFaultKind::CorruptBit, true));
        feed(&mut sink, 8, 2);
        sink.finish();
        let err = stream.try_get(3).unwrap_err();
        assert!(
            matches!(err, CodecError::FrameChecksum { seq: 1 } | CodecError::FrameTruncated { seq: 1 }),
            "{err:?}"
        );
        assert_eq!(stream.recover(), Err(err.clone()));
        assert_eq!(stream.try_get(3), Err(err), "fault stays latched");
        assert!(stream.transport_stats().refetch_retries >= 1);
    }

    #[test]
    fn truncated_frame_detected_and_recovered() {
        let (mut sink, mut stream) = log_channel(&plan_with(2, TransportFaultKind::TruncateFrame, false));
        feed(&mut sink, 10, 2);
        sink.finish();
        let err = stream.try_get(5).unwrap_err();
        assert_eq!(err, CodecError::FrameTruncated { seq: 2 });
        stream.recover().unwrap();
        for v in 0..10 {
            assert_eq!(stream.try_get(v as usize).unwrap(), Some(&Record::Rdtsc { value: v }));
        }
    }

    #[test]
    fn into_log_auto_recovers() {
        let (mut sink, stream) = log_channel(&plan_with(1, TransportFaultKind::CorruptBit, false));
        feed(&mut sink, 9, 2);
        sink.finish();
        assert_eq!(stream.into_log().records(), &records(9)[..]);
    }
}

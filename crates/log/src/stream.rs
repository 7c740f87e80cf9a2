//! Streaming transport between the recorder and a live consumer.
//!
//! During monitored recording the paper's replayers do not wait for the
//! recording to end: "the CR continuously consumes the input log as it is
//! generated" (§4.6.1). [`log_channel`] gives that shape to the simulator —
//! the recorder publishes records through a [`LogSink`] as it appends them,
//! and the checkpointing replayer pulls them from the matching [`LogStream`]
//! on another thread, blocking only when it has caught up with the recording.
//!
//! Records travel in batches to keep the synchronization cost per record
//! negligible. The recorder closes a batch when it holds [`DEFAULT_BATCH`]
//! records and once its oldest record is [`MAX_FRAME_AGE_INSNS`] guest
//! instructions old, so a sparse log reaches the consumer while the
//! recording runs instead of in one batch at its end. Because the paper's deployment puts recording and replay on
//! **separate machines** (§4), each batch crosses the channel as a
//! checksummed, sequence-numbered frame ([`crate::encode_frame`]): the
//! stream verifies every frame, so corruption, truncation, reordering,
//! duplication, and drops are *detected* instead of silently replayed. The
//! sink retains a pristine copy of every frame it has published — the
//! recorder's retained log — so the consumer can re-request a damaged frame
//! ([`LogStream::recover`]) with bounded retries and capped backoff charged
//! in virtual cycles, never wall-clock.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use crate::{decode_frame, encode_frame, CodecError, FaultInjector, FaultPlan, InputLog, Record};

/// Default number of records per transport batch.
pub const DEFAULT_BATCH: usize = 64;

/// Guest instructions after which the recorder closes a partial batch, the
/// one cut besides a full batch. The recorder checks the age only at the
/// top of its run loop, so a record reaches the consumer less than this
/// many instructions plus one recorder slice after it was logged. Sparse
/// guests leave the loop about once per timer tick.
pub const MAX_FRAME_AGE_INSNS: u64 = 50_000;

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

/// Creates a connected sink/stream pair carrying record batches of at most
/// `batch_size` records (0 is treated as 1: unbatched).
pub fn log_channel(batch_size: usize) -> (LogSink, LogStream) {
    log_channel_with(batch_size, &FaultPlan::default())
}

/// [`log_channel`] with `plan`'s transport faults injected on the sink
/// side. The pristine copy of each frame is retained before injection
/// (unless the plan poisons the retained store), so recovery re-requests
/// observe exactly what a real recorder would still hold.
pub fn log_channel_with(batch_size: usize, plan: &FaultPlan) -> (LogSink, LogStream) {
    let (tx, rx) = channel();
    let retained: Retained = Arc::new(Mutex::new(Vec::new()));
    let injector = plan.wants_transport_injection().then(|| FaultInjector::from_plan(plan));
    (
        LogSink {
            tx,
            batch: Vec::new(),
            batch_size: batch_size.max(1),
            next_seq: 0,
            retained: Arc::clone(&retained),
            injector,
            delayed: None,
        },
        LogStream {
            rx,
            log: InputLog::new(),
            finished: false,
            next_seq: 0,
            pending: BTreeMap::new(),
            fault: None,
            retained,
            stats: TransportStats::default(),
            durable: None,
        },
    )
}

/// The write side: the recorder pushes records here as it logs them.
///
/// The channel is unbounded, so the recorder never blocks on a slow
/// consumer; dropping the sink (or calling [`LogSink::finish`]) flushes the
/// pending batch and signals end-of-stream.
#[derive(Debug)]
pub struct LogSink {
    tx: Sender<Bytes>,
    batch: Vec<Record>,
    batch_size: usize,
    next_seq: u64,
    retained: Retained,
    injector: Option<FaultInjector>,
    /// A frame held back by a planned delay; it rides behind its successor.
    delayed: Option<Bytes>,
}

impl LogSink {
    /// Publishes one record, flushing when the batch fills.
    pub fn push(&mut self, record: Record) {
        self.batch.push(record);
        if self.batch.len() >= self.batch_size {
            self.flush();
        }
    }

    /// Records published but not yet framed and sent.
    pub fn pending_records(&self) -> usize {
        self.batch.len()
    }

    /// Frames and sends any batched records immediately.
    pub fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = encode_frame(seq, &self.batch);
        self.batch.clear();
        let (retained, outgoing, delay) = match &self.injector {
            Some(inj) => {
                let i = inj.apply(seq, frame);
                (i.retained, i.outgoing, i.delay)
            }
            None => (frame.clone(), vec![frame], false),
        };
        self.retained.lock().expect("retained store lock").push(retained);
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

    /// Flushes and closes the stream (consuming the sink hangs up the
    /// channel, which is what wakes a blocked consumer for the last time).
    pub fn finish(self) {}
}

impl Drop for LogSink {
    fn drop(&mut self) {
        self.flush();
        if let Some(held) = self.delayed.take() {
            let _ = self.tx.send(held);
        }
    }
}

/// The read side: a growing [`InputLog`] fed by a [`LogSink`].
///
/// [`LogStream::get`] blocks until the requested record has been published
/// or the producer has hung up, so a consumer can simply walk indices
/// `0, 1, 2, …` and observe exactly the record sequence the recorder wrote.
/// [`LogStream::try_get`] is the fault-aware form: a detected transport
/// fault surfaces as a [`CodecError`] that [`LogStream::recover`] can heal
/// from the retained store.
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
    stats: TransportStats,
    /// Directory of the durable segment store, when the deployment persists
    /// frames to disk; [`LogStream::recover`] prefers the on-disk copy.
    durable: Option<std::path::PathBuf>,
}

impl LogStream {
    /// Blocks until record `index` is available; `None` once the producer
    /// has finished without publishing that many records. Swallows
    /// transport faults (they still latch for [`LogStream::try_get`]) —
    /// fault-aware consumers should use `try_get` instead.
    pub fn get(&mut self, index: usize) -> Option<&Record> {
        self.try_get(index).ok().flatten()
    }

    /// Blocks until record `index` is available.
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
            // covering segment is unsealed, missing, or unusable.
            if let Some(dir) = self.durable.clone() {
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
    use crate::{TransportFault, TransportFaultKind};

    fn plan_with(seq: u64, kind: TransportFaultKind, poison_retained: bool) -> FaultPlan {
        FaultPlan {
            seed: 0xFA57,
            transport: vec![TransportFault { seq, kind, poison_retained }],
            ..FaultPlan::default()
        }
    }

    fn feed(sink: &mut LogSink, n: u64) {
        for v in 0..n {
            sink.push(Record::Rdtsc { value: v });
        }
    }

    #[test]
    fn sink_batches_and_stream_reassembles() {
        let (mut sink, mut stream) = log_channel(3);
        for v in 0..7 {
            sink.push(Record::Rdtsc { value: v });
        }
        sink.finish();
        for v in 0..7 {
            assert_eq!(stream.get(v as usize), Some(&Record::Rdtsc { value: v }));
        }
        assert_eq!(stream.get(7), None);
    }

    #[test]
    fn get_blocks_across_thread_boundary() {
        let (mut sink, mut stream) = log_channel(2);
        let producer = std::thread::spawn(move || {
            for v in 0..100 {
                sink.push(Record::Rdtsc { value: v });
            }
            sink.finish();
        });
        // Consume concurrently; get() must block until each arrives.
        for v in 0..100 {
            assert_eq!(stream.get(v as usize), Some(&Record::Rdtsc { value: v }));
        }
        assert_eq!(stream.get(100), None);
        producer.join().unwrap();
    }

    #[test]
    fn into_log_preserves_byte_accounting() {
        let (mut sink, stream) = log_channel(4);
        let mut reference = InputLog::new();
        for v in 0..10 {
            let r = Record::Rdtsc { value: v };
            reference.push(r.clone());
            sink.push(r);
        }
        sink.finish();
        let collected = stream.into_log();
        assert_eq!(collected.records(), reference.records());
        assert_eq!(collected.total_bytes(), reference.total_bytes());
    }

    #[test]
    fn dropping_sink_flushes_partial_batch() {
        let (mut sink, mut stream) = log_channel(100);
        sink.push(Record::Rdtsc { value: 9 });
        drop(sink);
        assert_eq!(stream.get(0), Some(&Record::Rdtsc { value: 9 }));
        assert_eq!(stream.get(1), None);
    }

    #[test]
    fn corrupt_frame_detected_and_recovered() {
        let (mut sink, mut stream) =
            log_channel_with(2, &plan_with(1, TransportFaultKind::CorruptBit, false));
        feed(&mut sink, 8);
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
        let (mut sink, mut stream) = log_channel_with(2, &plan_with(1, TransportFaultKind::DropFrame, false));
        feed(&mut sink, 10);
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
        let (mut sink, mut stream) = log_channel_with(2, &plan_with(4, TransportFaultKind::DropFrame, false));
        feed(&mut sink, 10);
        sink.finish();
        let err = stream.try_get(9).unwrap_err();
        assert_eq!(err, CodecError::SequenceGap { expected: 4, got: 5 });
        stream.recover().unwrap();
        assert_eq!(stream.try_get(9).unwrap(), Some(&Record::Rdtsc { value: 9 }));
    }

    #[test]
    fn duplicate_frame_silently_dropped() {
        let (mut sink, mut stream) =
            log_channel_with(2, &plan_with(1, TransportFaultKind::DuplicateFrame, false));
        feed(&mut sink, 8);
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
        let (mut sink, mut stream) =
            log_channel_with(2, &plan_with(1, TransportFaultKind::DelayFrame, false));
        feed(&mut sink, 8);
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
        let (mut sink, mut stream) = log_channel_with(2, &plan_with(1, TransportFaultKind::CorruptBit, true));
        feed(&mut sink, 8);
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
        let (mut sink, mut stream) =
            log_channel_with(2, &plan_with(2, TransportFaultKind::TruncateFrame, false));
        feed(&mut sink, 10);
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
        let (mut sink, stream) = log_channel_with(2, &plan_with(1, TransportFaultKind::CorruptBit, false));
        let mut reference = InputLog::new();
        for v in 0..9 {
            let r = Record::Rdtsc { value: v };
            reference.push(r.clone());
            sink.push(r);
        }
        sink.finish();
        let collected = stream.into_log();
        assert_eq!(collected.records(), reference.records());
    }
}

//! # rnr-log: the RnR input log
//!
//! During monitored recording, the hypervisor stores **every non-deterministic
//! event** of the guest execution in a software log (§3 of the paper); the
//! checkpointing and alarm replayers consume the log to enforce a
//! deterministic re-execution. This crate defines:
//!
//! * [`Record`] — the log entry types: synchronous data events (`rdtsc`,
//!   PIO/MMIO reads), asynchronous events pinned to an instruction count
//!   (external interrupts, DMA payloads from the disk and NIC), the RAS
//!   *evict* records of §4.5, the ROP *alarm* markers, and the end-of-log
//!   marker.
//! * [`InputLog`] — an append-only log with exact binary size accounting
//!   per [`Category`] (regenerates the log-rate data of Figure 6(a) and the
//!   overhead attribution of Figure 5(b)).
//! * the record codec — one fixed-width, uncompressed binary encoding per
//!   record (Figure 6(a): "We do not compress the data"), whose exact size
//!   is [`Record::encoded_len`]. It is the only record encoding: transport
//!   frames, durable segments and session files all carry it behind a
//!   CRC32, so one parser reads every log byte that comes from outside.
//! * [`LogCursor`] — the replayers' read position; checkpoints store a
//!   cursor as their `InputLogPtr` (Figure 4).
//! * [`encode_frame`] / [`decode_frame`] — checksummed, sequence-numbered
//!   frames, the unit the recorder cuts its log into ([`DEFAULT_BATCH`]
//!   records, or [`MAX_FRAME_AGE_INSNS`] instructions of age). Each frame
//!   is encoded once; the store and the wire carry the same bytes. Every
//!   CRC32 in the crate is [`crc32`]'s slicing-by-16.
//! * [`log_channel`] / [`LogSink`] / [`LogStream`] / [`LogSource`] — the
//!   streaming transport that lets the checkpointing replayer consume the
//!   log concurrently with its generation (§4.6.1), instead of waiting for
//!   the recording to finish. Frames are verified on arrival, so a faulty
//!   transport is detected and healed, not silently replayed.
//! * [`FaultPlan`] / [`FaultInjector`] — deterministic, seeded fault
//!   injection (corrupt/drop/duplicate/delay/truncate a frame, disk faults
//!   against sealed segments, plus replay and AR-supervisor injection
//!   points) so every failure scenario is reproducible from `(seed, plan)`.
//! * [`DurableWriter`] / [`DurableStore`] — the durable segmented log
//!   store: the recorder's encoded frames sealed into versioned,
//!   CRC32-protected [`Segment`] files (their payloads behind a frame index,
//!   plus RLE; atomic write-temp + fsync + rename) on the writer's own
//!   thread, behind a bounded channel and a seal mark the stream's refetch
//!   waits on, a
//!   crash-recovery scan that truncates torn tails, quarantines damaged
//!   segments and refuses a store of another format version, and a
//!   disk-first refetch path for the CR's rewind-and-refetch recovery.
//!   Session files store their log as one such segment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod cursor;
mod fault;
mod frame;
mod record;
mod segment;
mod source;
mod store;
mod stream;
mod writer;

pub use codec::CodecError;
pub use cursor::LogCursor;
pub use fault::{
    disk_fault_scenarios, fault_scenarios, splitmix64, unrecoverable_scenario, DiskFault, DiskFaultKind,
    FaultInjector, FaultPlan, InjectedFrame, TransportFault, TransportFaultKind,
};
pub use frame::{crc32, decode_frame, encode_frame, DEFAULT_BATCH, FRAME_HEADER, MAX_FRAME_AGE_INSNS};
pub use record::{AlarmInfo, Category, DmaSource, Record, VrtAlarmInfo};
pub use segment::{
    decode_segment, encode_segment, get_varint, put_varint, Segment, SegmentError, FORMAT_VERSION,
    SEGMENT_HEADER, SEGMENT_MAGIC,
};
pub use source::LogSource;
pub use store::{
    apply_disk_fault, durable_fetch, segment_file_name, DiskWriteStats, DurableLogConfig, DurableStore,
    DurableWriter, RecoveryScan, DEFAULT_FRAMES_PER_SEGMENT, SEGMENT_EXT,
};
pub use stream::{
    log_channel, LogSink, LogStream, TransportStats, BACKOFF_BASE_VCYCLES, MAX_REFETCH_RETRIES,
};
pub use writer::InputLog;

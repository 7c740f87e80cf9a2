//! A replayer's view of the input log: complete or still streaming.

use std::sync::Arc;

use crate::{CodecError, InputLog, LogStream, Record, TransportStats};

/// Where a replayer reads its records from.
///
/// The checkpointing replayer can consume the log **live** while the
/// recorder is still producing it ([`LogSource::Streaming`], §4.6.1's
/// concurrent CR), or replay a finished recording ([`LogSource::Complete`] —
/// alarm replayers and offline audits always use this form, since they start
/// from checkpoints of an already-consumed prefix).
#[derive(Debug)]
pub enum LogSource {
    /// A finished recording, shared without copying.
    Complete(Arc<InputLog>),
    /// A live recording; reads block until the recorder catches up. Boxed:
    /// the stream carries reorder-healing and recovery state, and the
    /// common alarm-replay/audit case is `Complete`.
    Streaming(Box<LogStream>),
}

impl LogSource {
    /// The record at `index`; `Ok(None)` means the log ended before
    /// `index`. For a streaming source this blocks until the record
    /// arrives, and surfaces a detected transport fault.
    ///
    /// # Errors
    ///
    /// Returns the latched [`CodecError`] of a streaming source; complete
    /// logs never fail.
    pub fn try_get(&mut self, index: usize) -> Result<Option<&Record>, CodecError> {
        match self {
            LogSource::Complete(log) => Ok(log.records().get(index)),
            LogSource::Streaming(stream) => stream.try_get(index),
        }
    }

    /// Attempts to heal a latched transport fault by re-requesting from the
    /// recorder's retained store ([`LogStream::recover`]). A no-op for
    /// complete logs.
    ///
    /// # Errors
    ///
    /// Returns the fault when recovery is impossible.
    pub fn recover(&mut self) -> Result<(), CodecError> {
        match self {
            LogSource::Complete(_) => Ok(()),
            LogSource::Streaming(stream) => stream.recover(),
        }
    }

    /// Backs a streaming source's refetch recovery with the durable segment
    /// store at `dir` ([`LogStream::attach_durable`]). A no-op for a
    /// complete source — it never refetches.
    pub fn attach_durable(&mut self, dir: &std::path::Path) {
        if let LogSource::Streaming(stream) = self {
            stream.attach_durable(dir);
        }
    }

    /// Transport health counters (zero for a complete source).
    pub fn transport_stats(&self) -> TransportStats {
        match self {
            LogSource::Complete(_) => TransportStats::default(),
            LogSource::Streaming(stream) => stream.transport_stats(),
        }
    }
}

impl From<Arc<InputLog>> for LogSource {
    fn from(log: Arc<InputLog>) -> LogSource {
        LogSource::Complete(log)
    }
}

impl From<InputLog> for LogSource {
    fn from(log: InputLog) -> LogSource {
        LogSource::Complete(Arc::new(log))
    }
}

impl From<LogStream> for LogSource {
    fn from(stream: LogStream) -> LogSource {
        LogSource::Streaming(Box::new(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_frame, log_channel, FaultPlan};

    #[test]
    fn complete_source_reads_by_index() {
        let log: InputLog =
            vec![Record::Rdtsc { value: 1 }, Record::End { at_insn: 1, at_cycle: 1 }].into_iter().collect();
        let mut src = LogSource::from(Arc::new(log));
        assert_eq!(src.try_get(0), Ok(Some(&Record::Rdtsc { value: 1 })));
        assert!(matches!(src.try_get(1), Ok(Some(Record::End { .. }))));
        assert_eq!(src.try_get(2), Ok(None));
    }

    #[test]
    fn streaming_source_sees_sent_records() {
        let (mut sink, stream) = log_channel(&FaultPlan::default());
        sink.send(0, encode_frame(0, &[Record::Rdtsc { value: 5 }]));
        sink.finish();
        let mut src = LogSource::from(stream);
        assert_eq!(src.try_get(0), Ok(Some(&Record::Rdtsc { value: 5 })));
        assert_eq!(src.try_get(1), Ok(None));
    }
}

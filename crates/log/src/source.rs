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
    /// One span of a partitioned log: the records of `[base, base +
    /// records.len())`, indexed by their *global* position. Span workers of
    /// a parallel CR read through this without copying the whole log.
    Span {
        /// The span's records, shared without copying.
        records: Arc<[Record]>,
        /// Global index of `records[0]`.
        base: usize,
    },
}

impl LogSource {
    /// The record at `index`. For a streaming source this blocks until the
    /// record arrives; `None` means the log ended before `index`.
    pub fn get(&mut self, index: usize) -> Option<&Record> {
        match self {
            LogSource::Complete(log) => log.records().get(index),
            LogSource::Streaming(stream) => stream.get(index),
            LogSource::Span { records, base } => index.checked_sub(*base).and_then(|i| records.get(i)),
        }
    }

    /// Fault-aware [`LogSource::get`]: a streaming source surfaces detected
    /// transport faults instead of swallowing them.
    ///
    /// # Errors
    ///
    /// Returns the latched [`CodecError`] of a streaming source; complete
    /// logs never fail.
    pub fn try_get(&mut self, index: usize) -> Result<Option<&Record>, CodecError> {
        match self {
            LogSource::Complete(log) => Ok(log.records().get(index)),
            LogSource::Streaming(stream) => stream.try_get(index),
            LogSource::Span { records, base } => Ok(index.checked_sub(*base).and_then(|i| records.get(i))),
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
            LogSource::Complete(_) | LogSource::Span { .. } => Ok(()),
            LogSource::Streaming(stream) => stream.recover(),
        }
    }

    /// Backs a streaming source's refetch recovery with the durable segment
    /// store at `dir` ([`LogStream::attach_durable`]). A no-op for complete
    /// and span sources — they never refetch.
    pub fn attach_durable(&mut self, dir: &std::path::Path) {
        if let LogSource::Streaming(stream) = self {
            stream.attach_durable(dir);
        }
    }

    /// Transport health counters (zero for a complete source).
    pub fn transport_stats(&self) -> TransportStats {
        match self {
            LogSource::Complete(_) | LogSource::Span { .. } => TransportStats::default(),
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
    use crate::log_channel;

    #[test]
    fn complete_source_reads_by_index() {
        let log: InputLog =
            vec![Record::Rdtsc { value: 1 }, Record::End { at_insn: 1, at_cycle: 1 }].into_iter().collect();
        let mut src = LogSource::from(Arc::new(log));
        assert_eq!(src.get(0), Some(&Record::Rdtsc { value: 1 }));
        assert!(matches!(src.get(1), Some(Record::End { .. })));
        assert_eq!(src.get(2), None);
    }

    #[test]
    fn streaming_source_sees_published_records() {
        let (mut sink, stream) = log_channel(1);
        sink.push(Record::Rdtsc { value: 5 });
        sink.finish();
        let mut src = LogSource::from(stream);
        assert_eq!(src.get(0), Some(&Record::Rdtsc { value: 5 }));
        assert_eq!(src.get(1), None);
    }
}

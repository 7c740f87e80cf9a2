//! The append-only input log.

use std::collections::HashMap;

use crate::{Category, LogCursor, Record};

/// A complete (or growing) input log.
///
/// Byte sizes are tracked exactly per [`Category`] as records are appended,
/// which is what the Figure 6(a) "input log generation rate" and the
/// Figure 5(b) per-class attribution report.
#[derive(Debug, Clone, Default)]
pub struct InputLog {
    records: Vec<Record>,
    total_bytes: u64,
    bytes_by_category: HashMap<Category, u64>,
}

impl InputLog {
    /// An empty log.
    pub fn new() -> InputLog {
        InputLog::default()
    }

    /// Appends a record, accounting its encoded size.
    pub fn push(&mut self, record: Record) {
        let len = record.encoded_len();
        self.total_bytes += len;
        *self.bytes_by_category.entry(record.category()).or_insert(0) += len;
        self.records.push(record);
    }

    /// All records in append order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Exact total size of the binary encoding, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes attributable to one category.
    pub fn bytes_for(&self, category: Category) -> u64 {
        self.bytes_by_category.get(&category).copied().unwrap_or(0)
    }

    /// A cursor positioned at the first record.
    pub fn cursor(&self) -> LogCursor {
        LogCursor::new(0)
    }

    /// The alarms contained in the log, with their record indices.
    pub fn alarms(&self) -> impl Iterator<Item = (usize, &crate::AlarmInfo)> {
        self.records.iter().enumerate().filter_map(|(i, r)| match r {
            Record::Alarm(a) => Some((i, a)),
            _ => None,
        })
    }

    /// The `End` marker, if the recording finished cleanly.
    pub fn end(&self) -> Option<(u64, u64)> {
        self.records.iter().rev().find_map(|r| match r {
            Record::End { at_insn, at_cycle } => Some((*at_insn, *at_cycle)),
            _ => None,
        })
    }
}

impl FromIterator<Record> for InputLog {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> InputLog {
        let mut log = InputLog::new();
        for r in iter {
            log.push(r);
        }
        log
    }
}

impl Extend<Record> for InputLog {
    fn extend<I: IntoIterator<Item = Record>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmaSource;

    #[test]
    fn push_accounts_bytes_by_category() {
        let mut log = InputLog::new();
        log.push(Record::Rdtsc { value: 1 });
        log.push(Record::Rdtsc { value: 2 });
        log.push(Record::PioIn { port: 1, value: 3 });
        assert_eq!(log.bytes_for(Category::Rdtsc), 18);
        assert_eq!(log.bytes_for(Category::PioMmio), 11);
        assert_eq!(log.total_bytes(), 29);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn serialization_round_trip_preserves_accounting() {
        let mut log = InputLog::new();
        log.push(Record::Dma { source: DmaSource::Nic, addr: 16, data: vec![9; 100], at_insn: 5 });
        log.push(Record::Interrupt { irq: 2, at_insn: 6 });
        log.push(Record::End { at_insn: 7, at_cycle: 8 });
        let frame = crate::encode_frame(0, log.records());
        assert_eq!((frame.len() - crate::FRAME_HEADER) as u64, log.total_bytes());
        let back: InputLog = crate::decode_frame(&frame).unwrap().1.into_iter().collect();
        assert_eq!(back.records(), log.records());
        assert_eq!(back.total_bytes(), log.total_bytes());
        assert_eq!(back.bytes_for(Category::Network), log.bytes_for(Category::Network));
    }

    #[test]
    fn alarms_iterator_finds_markers() {
        use rnr_ras::{Mispredict, MispredictKind, ThreadId};
        let mut log = InputLog::new();
        log.push(Record::Rdtsc { value: 0 });
        log.push(Record::Alarm(crate::AlarmInfo {
            tid: ThreadId(1),
            mispredict: Mispredict { ret_pc: 1, predicted: None, actual: 2, kind: MispredictKind::Underflow },
            at_insn: 3,
            at_cycle: 4,
        }));
        let alarms: Vec<_> = log.alarms().collect();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].0, 1);
    }

    #[test]
    fn end_marker_lookup() {
        let mut log = InputLog::new();
        assert_eq!(log.end(), None);
        log.push(Record::End { at_insn: 10, at_cycle: 30 });
        assert_eq!(log.end(), Some((10, 30)));
    }

    #[test]
    fn from_iterator_collects() {
        let log: InputLog =
            vec![Record::Rdtsc { value: 1 }, Record::Rdtsc { value: 2 }].into_iter().collect();
        assert_eq!(log.len(), 2);
    }
}

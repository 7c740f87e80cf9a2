//! The record codec: the one encoding of log records on the wire, in the
//! durable segment store and in session files.
//!
//! The paper reports *uncompressed* log generation rates (Figure 6(a):
//! "We do not compress the data"), so sizes here are exact wire sizes of a
//! straightforward tag-plus-fields little-endian encoding.

use std::fmt;

use rnr_ras::{Mispredict, MispredictKind, ThreadId};
use rnr_vrt::VrtKind;

use crate::{AlarmInfo, DmaSource, Record, VrtAlarmInfo};

/// Errors from decoding transport frames ([`crate::decode_frame`]) or the
/// records inside a frame or segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a record.
    Truncated,
    /// Unknown record tag byte.
    BadTag(u8),
    /// Unknown enum discriminant inside a record.
    BadField(&'static str, u8),
    /// A transport frame's CRC32 did not match its payload.
    FrameChecksum {
        /// Sequence number carried by the damaged frame.
        seq: u64,
    },
    /// A transport frame ended before its declared payload length.
    FrameTruncated {
        /// Sequence number carried by the damaged frame (0 when the header
        /// itself was cut short).
        seq: u64,
    },
    /// The transport delivered a frame sequence with a hole in it.
    SequenceGap {
        /// The next sequence number the consumer needed.
        expected: u64,
        /// The smallest out-of-order sequence number actually seen.
        got: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated log data"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t:#04x}"),
            CodecError::BadField(what, v) => write!(f, "invalid {what} discriminant {v:#04x}"),
            CodecError::FrameChecksum { seq } => write!(f, "frame {seq}: CRC32 mismatch"),
            CodecError::FrameTruncated { seq } => write!(f, "frame {seq}: truncated payload"),
            CodecError::SequenceGap { expected, got } => {
                write!(f, "frame sequence gap: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_RDTSC: u8 = 1;
const TAG_PIO_IN: u8 = 2;
const TAG_MMIO_READ: u8 = 3;
const TAG_INTERRUPT: u8 = 4;
const TAG_DMA: u8 = 5;
const TAG_EVICT: u8 = 6;
const TAG_ALARM: u8 = 7;
const TAG_END: u8 = 8;
const TAG_JOP_ALARM: u8 = 9;
const TAG_VRT_ALARM: u8 = 10;

/// Exact encoded size of `record` in bytes.
pub fn encoded_len(record: &Record) -> u64 {
    match record {
        Record::Rdtsc { .. } => 1 + 8,
        Record::PioIn { .. } => 1 + 2 + 8,
        Record::MmioRead { .. } => 1 + 8 + 8,
        Record::Interrupt { .. } => 1 + 1 + 8,
        Record::Dma { data, .. } => 1 + 1 + 8 + 4 + data.len() as u64 + 8,
        Record::Evict { .. } => 1 + 8 + 8,
        // tid + ret_pc + predicted(tag+8) + actual + kind + at_insn + at_cycle
        Record::Alarm(_) => 1 + 8 + 8 + 9 + 8 + 1 + 8 + 8,
        Record::End { .. } => 1 + 8 + 8,
        Record::JopAlarm { .. } => 1 + 8 + 8 + 8 + 8 + 8,
        // tid + kind + addr + at_insn + at_cycle
        Record::VrtAlarm(_) => 1 + 8 + 1 + 8 + 8 + 8,
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends the binary form of `record` to `buf`.
pub fn encode(record: &Record, buf: &mut Vec<u8>) {
    match record {
        Record::Rdtsc { value } => {
            buf.push(TAG_RDTSC);
            put_u64(buf, *value);
        }
        Record::PioIn { port, value } => {
            buf.push(TAG_PIO_IN);
            buf.extend_from_slice(&port.to_le_bytes());
            put_u64(buf, *value);
        }
        Record::MmioRead { addr, value } => {
            buf.push(TAG_MMIO_READ);
            put_u64(buf, *addr);
            put_u64(buf, *value);
        }
        Record::Interrupt { irq, at_insn } => {
            buf.push(TAG_INTERRUPT);
            buf.push(*irq);
            put_u64(buf, *at_insn);
        }
        Record::Dma { source, addr, data, at_insn } => {
            buf.push(TAG_DMA);
            buf.push(match source {
                DmaSource::Disk => 0,
                DmaSource::Nic => 1,
            });
            put_u64(buf, *addr);
            buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
            buf.extend_from_slice(data);
            put_u64(buf, *at_insn);
        }
        Record::Evict { tid, addr } => {
            buf.push(TAG_EVICT);
            put_u64(buf, tid.0);
            put_u64(buf, *addr);
        }
        Record::Alarm(a) => {
            buf.push(TAG_ALARM);
            put_u64(buf, a.tid.0);
            put_u64(buf, a.mispredict.ret_pc);
            buf.push(u8::from(a.mispredict.predicted.is_some()));
            put_u64(buf, a.mispredict.predicted.unwrap_or(0));
            put_u64(buf, a.mispredict.actual);
            buf.push(match a.mispredict.kind {
                MispredictKind::Underflow => 0,
                MispredictKind::TargetMismatch => 1,
                MispredictKind::WhitelistViolation => 2,
            });
            put_u64(buf, a.at_insn);
            put_u64(buf, a.at_cycle);
        }
        Record::End { at_insn, at_cycle } => {
            buf.push(TAG_END);
            put_u64(buf, *at_insn);
            put_u64(buf, *at_cycle);
        }
        Record::JopAlarm { tid, branch_pc, target, at_insn, at_cycle } => {
            buf.push(TAG_JOP_ALARM);
            put_u64(buf, tid.0);
            put_u64(buf, *branch_pc);
            put_u64(buf, *target);
            put_u64(buf, *at_insn);
            put_u64(buf, *at_cycle);
        }
        Record::VrtAlarm(a) => {
            buf.push(TAG_VRT_ALARM);
            put_u64(buf, a.tid.0);
            buf.push(a.kind.as_u8());
            put_u64(buf, a.addr);
            put_u64(buf, a.at_insn);
            put_u64(buf, a.at_cycle);
        }
    }
}

/// Splits the next `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    Ok(take(buf, 1)?[0])
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    Ok(u16::from_le_bytes(take(buf, 2)?.try_into().expect("2 bytes")))
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().expect("4 bytes")))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().expect("8 bytes")))
}

/// Decodes one record from the front of `buf`, advancing it.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated input or unknown discriminants.
pub fn decode(buf: &mut &[u8]) -> Result<Record, CodecError> {
    Ok(match get_u8(buf)? {
        TAG_RDTSC => Record::Rdtsc { value: get_u64(buf)? },
        TAG_PIO_IN => Record::PioIn { port: get_u16(buf)?, value: get_u64(buf)? },
        TAG_MMIO_READ => Record::MmioRead { addr: get_u64(buf)?, value: get_u64(buf)? },
        TAG_INTERRUPT => Record::Interrupt { irq: get_u8(buf)?, at_insn: get_u64(buf)? },
        TAG_DMA => {
            let source = match get_u8(buf)? {
                0 => DmaSource::Disk,
                1 => DmaSource::Nic,
                v => return Err(CodecError::BadField("dma source", v)),
            };
            let addr = get_u64(buf)?;
            let len = get_u32(buf)? as usize;
            let data = take(buf, len)?.to_vec();
            Record::Dma { source, addr, data, at_insn: get_u64(buf)? }
        }
        TAG_EVICT => Record::Evict { tid: ThreadId(get_u64(buf)?), addr: get_u64(buf)? },
        TAG_ALARM => {
            let tid = ThreadId(get_u64(buf)?);
            let ret_pc = get_u64(buf)?;
            let has_pred = get_u8(buf)?;
            let pred_val = get_u64(buf)?;
            let predicted = match has_pred {
                0 => None,
                1 => Some(pred_val),
                v => return Err(CodecError::BadField("prediction presence", v)),
            };
            let actual = get_u64(buf)?;
            let kind = match get_u8(buf)? {
                0 => MispredictKind::Underflow,
                1 => MispredictKind::TargetMismatch,
                2 => MispredictKind::WhitelistViolation,
                v => return Err(CodecError::BadField("mispredict kind", v)),
            };
            Record::Alarm(AlarmInfo {
                tid,
                mispredict: Mispredict { ret_pc, predicted, actual, kind },
                at_insn: get_u64(buf)?,
                at_cycle: get_u64(buf)?,
            })
        }
        TAG_END => Record::End { at_insn: get_u64(buf)?, at_cycle: get_u64(buf)? },
        TAG_JOP_ALARM => Record::JopAlarm {
            tid: ThreadId(get_u64(buf)?),
            branch_pc: get_u64(buf)?,
            target: get_u64(buf)?,
            at_insn: get_u64(buf)?,
            at_cycle: get_u64(buf)?,
        },
        TAG_VRT_ALARM => {
            let tid = ThreadId(get_u64(buf)?);
            let raw_kind = get_u8(buf)?;
            let kind = VrtKind::from_u8(raw_kind).ok_or(CodecError::BadField("vrt kind", raw_kind))?;
            Record::VrtAlarm(VrtAlarmInfo {
                tid,
                kind,
                addr: get_u64(buf)?,
                at_insn: get_u64(buf)?,
                at_cycle: get_u64(buf)?,
            })
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(r: Record) {
        let mut buf = Vec::new();
        encode(&r, &mut buf);
        assert_eq!(buf.len() as u64, encoded_len(&r), "encoded_len mismatch for {r:?}");
        let mut rest = &buf[..];
        let back = decode(&mut rest).unwrap();
        assert_eq!(back, r);
        assert!(rest.is_empty());
    }

    #[test]
    fn all_record_kinds_round_trip() {
        round_trip(Record::Rdtsc { value: u64::MAX });
        round_trip(Record::PioIn { port: 0x1f7, value: 42 });
        round_trip(Record::MmioRead { addr: 0xfee0_0000, value: 7 });
        round_trip(Record::Interrupt { irq: 2, at_insn: 123_456 });
        round_trip(Record::Dma { source: DmaSource::Nic, addr: 0x8000, data: vec![1, 2, 3], at_insn: 99 });
        round_trip(Record::Dma { source: DmaSource::Disk, addr: 0, data: vec![], at_insn: 0 });
        round_trip(Record::Evict { tid: ThreadId(5), addr: 0xdead });
        round_trip(Record::Alarm(AlarmInfo {
            tid: ThreadId(9),
            mispredict: Mispredict {
                ret_pc: 0x100,
                predicted: Some(0x108),
                actual: 0x666,
                kind: MispredictKind::TargetMismatch,
            },
            at_insn: 1,
            at_cycle: 2,
        }));
        round_trip(Record::Alarm(AlarmInfo {
            tid: ThreadId(9),
            mispredict: Mispredict {
                ret_pc: 0x100,
                predicted: None,
                actual: 0x666,
                kind: MispredictKind::Underflow,
            },
            at_insn: 1,
            at_cycle: 2,
        }));
        round_trip(Record::End { at_insn: 10, at_cycle: 20 });
        round_trip(Record::JopAlarm {
            tid: ThreadId(4),
            branch_pc: 0x1470,
            target: 0x9999,
            at_insn: 77,
            at_cycle: 99,
        });
        round_trip(Record::VrtAlarm(VrtAlarmInfo {
            tid: ThreadId(3),
            kind: VrtKind::Heap,
            addr: 0x16_0200,
            at_insn: 55,
            at_cycle: 88,
        }));
        round_trip(Record::VrtAlarm(VrtAlarmInfo {
            tid: ThreadId(3),
            kind: VrtKind::Stack,
            addr: 0x13_f000,
            at_insn: 56,
            at_cycle: 89,
        }));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode(&Record::Rdtsc { value: 1 }, &mut buf);
        let mut short = &buf[..4];
        assert_eq!(decode(&mut short), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_errors() {
        let mut bytes: &[u8] = &[0xff];
        assert_eq!(decode(&mut bytes), Err(CodecError::BadTag(0xff)));
    }

    #[test]
    fn empty_input_errors() {
        let mut bytes: &[u8] = &[];
        assert_eq!(decode(&mut bytes), Err(CodecError::Truncated));
    }
}

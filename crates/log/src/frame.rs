//! Checksummed framing for the streaming log transport.
//!
//! The paper's deployment records and replays **on separate machines** (§4),
//! so the log crosses a real transport that can corrupt, reorder, truncate,
//! or duplicate data. Each batch of records travels as one frame:
//!
//! ```text
//! [seq: u64 le][payload_len: u32 le][crc32: u32 le][payload bytes]
//! ```
//!
//! The CRC32 (IEEE polynomial) covers the sequence number, the length field,
//! and the payload, so any single-bit flip anywhere in the frame is detected
//! — including flips in a DMA length field that the raw record codec alone
//! could mis-parse into a different, still-valid record sequence. Sequence
//! numbers let the consumer detect drops, duplicates, and reordering.
//!
//! A recording is framed once, by the recorder: a frame closes when it
//! holds [`DEFAULT_BATCH`] records and once its oldest record is
//! [`MAX_FRAME_AGE_INSNS`] guest instructions old. Each frame is encoded
//! once, and the same bytes go to the durable store and to the live
//! transport, so a frame's sequence number is the same on disk and on the
//! wire.

use bytes::{Buf, Bytes};

use crate::{codec, CodecError, Record};

/// Size of the frame header: sequence number + payload length + CRC32.
pub const FRAME_HEADER: usize = 8 + 4 + 4;

/// Records in a full frame, the first of the recorder's two cuts.
pub const DEFAULT_BATCH: usize = 64;

/// Guest instructions after which the recorder closes a partial frame, the
/// one cut besides a full frame. The recorder checks the age only at the
/// top of its run loop, so a record reaches the consumer less than this
/// many instructions plus one recorder slice after it was logged. Sparse
/// guests leave the loop about once per timer tick.
pub const MAX_FRAME_AGE_INSNS: u64 = 50_000;

/// CRC32 lookup tables for the IEEE 802.3 polynomial (reflected
/// 0xEDB88320), one per byte lane of a 16-byte block: `CRC_TABLES[0]` is
/// the classic byte table, and `CRC_TABLES[k][b]` is the CRC contribution
/// of byte `b` followed by `k` more bytes.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE) of `bytes`. Slicing-by-16: sixteen table lookups per
/// 16-byte block, then a byte at a time over the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// CRC32 (IEEE) of the concatenation of `parts`, without concatenating them.
pub(crate) fn crc32_of(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(u32::MAX, |crc, part| crc32_update(crc, part))
}

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for chunk in &mut blocks {
        // The running CRC folds into the block's first four bytes; each
        // byte then looks up the table for the bytes that follow it.
        let mut block = [0u8; 16];
        block.copy_from_slice(chunk);
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        block[..4].copy_from_slice(&head.to_le_bytes());
        crc = block.iter().enumerate().fold(0, |acc, (k, &b)| acc ^ CRC_TABLES[15 - k][b as usize]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Encodes one batch of records as a checksummed frame carrying `seq`.
pub fn encode_frame(seq: u64, records: &[Record]) -> Bytes {
    // Written once, into a buffer sized from the records' exact
    // `encoded_len`; the header's length and CRC are filled in last.
    let payload_len: u64 = records.iter().map(Record::encoded_len).sum();
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload_len as usize);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&[0; 8]);
    for r in records {
        codec::encode(r, &mut frame);
    }
    let len = (frame.len() - FRAME_HEADER) as u32;
    frame[8..12].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_of(&[&frame[..12], &frame[FRAME_HEADER..]]);
    frame[12..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(frame)
}

/// Decodes and verifies one frame, returning its sequence number and records.
///
/// # Errors
///
/// [`CodecError::FrameTruncated`] when the frame is shorter than its header
/// or declared payload, [`CodecError::FrameChecksum`] when the CRC32 does
/// not match, and any record-level [`CodecError`] from the payload itself.
pub fn decode_frame(frame: &Bytes) -> Result<(u64, Vec<Record>), CodecError> {
    if frame.len() < FRAME_HEADER {
        let seq = if frame.len() >= 8 {
            u64::from_le_bytes(frame[..8].try_into().expect("8-byte slice"))
        } else {
            0
        };
        return Err(CodecError::FrameTruncated { seq });
    }
    let mut buf = frame.clone();
    let seq = buf.get_u64_le();
    let len = buf.get_u32_le() as usize;
    let crc = buf.get_u32_le();
    if buf.remaining() < len {
        return Err(CodecError::FrameTruncated { seq });
    }
    if crc32_of(&[&frame[..12], &buf[..len]]) != crc {
        return Err(CodecError::FrameChecksum { seq });
    }
    let mut payload = &buf[..len];
    let mut records = Vec::new();
    while !payload.is_empty() {
        records.push(codec::decode(&mut payload)?);
    }
    Ok((seq, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::Rdtsc { value: 7 },
            Record::PioIn { port: 0x1f7, value: 9 },
            Record::End { at_insn: 10, at_cycle: 20 },
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC32 computed a bit at a time from the polynomial, with no
    /// table: the reference the sliced tables must reproduce.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 8, ..proptest::ProptestConfig::default() })]

        /// Every length from 0 to 300 at every start offset from 0 to 15,
        /// so each block/tail split and alignment is covered.
        #[test]
        fn sliced_crc32_equals_the_bitwise_reference(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 316)
        ) {
            for offset in 0..16 {
                for len in 0..=300 {
                    let part = &bytes[offset..offset + len];
                    proptest::prop_assert_eq!(crc32(part), bitwise_crc32(part), "offset {} len {}", offset, len);
                }
            }
        }

        /// Chaining the CRC over parts equals the CRC of their concatenation.
        #[test]
        fn crc32_of_split_parts_equals_crc32_of_the_whole(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..400),
            cuts in proptest::collection::vec(proptest::any::<proptest::sample::Index>(), 0..6)
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                parts.push(&bytes[start..cut]);
                start = cut;
            }
            proptest::prop_assert_eq!(crc32_of(&parts), crc32(&bytes));
        }
    }

    #[test]
    fn frame_round_trips() {
        let records = sample();
        let frame = encode_frame(3, &records);
        let (seq, back) = decode_frame(&frame).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(back, records);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode_frame(1, &sample());
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(decode_frame(&Bytes::from(bad)).is_err(), "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let frame = encode_frame(2, &sample());
        for cut in 0..frame.len() {
            let short = frame.slice(0..cut);
            match decode_frame(&short) {
                Err(CodecError::FrameTruncated { .. }) => {}
                other => panic!("cut at {cut}: expected FrameTruncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_frames_round_trip() {
        let frame = encode_frame(0, &[]);
        assert_eq!(frame.len(), FRAME_HEADER);
        assert_eq!(decode_frame(&frame).unwrap(), (0, vec![]));
    }
}

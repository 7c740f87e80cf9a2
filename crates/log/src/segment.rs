//! The versioned segment format of the durable log store and of session
//! files.
//!
//! A **segment** is the unit of durability: a contiguous run of transport
//! frames (each a batch of [`Record`]s with a global sequence number),
//! encoded into one length-prefixed, CRC32-protected body. The records use
//! the same fixed-width codec as the wire (`codec.rs`), so every record that
//! is sent, stored or saved passes through one parser behind a CRC32. A
//! per-segment RLE pass goes on top, applied only when it actually shrinks
//! the body, so encoding stays deterministic.
//!
//! The format carries an explicit version byte ([`FORMAT_VERSION`]). A
//! segment whose CRC holds but whose version differs is refused as
//! [`SegmentError::Version`], and the golden-file test in
//! `tests/log_properties.rs` pins the byte layout of version 2 so any drift
//! without a version bump fails CI.
//!
//! ## Byte layout (version 2)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "RNRS"
//!      4     1  format version (= 2)
//!      5     1  flags (bit 0: body is RLE-compressed)
//!      6     8  first_seq  — sequence number of the first frame (LE)
//!     14     4  frame_count (LE)
//!     18     4  record_count (LE)
//!     22     4  raw_len    — uncompressed body length (LE)
//!     26     4  body_len   — stored body length (LE; the length prefix)
//!     30     4  crc32      — over bytes [0, 30) and the stored body
//!     34     …  body: frame index (one varint record-count per frame),
//!               then the records in the wire codec, in order
//! ```

use std::fmt;

use bytes::Bytes;

use crate::frame::crc32_of;
use crate::{codec, CodecError, Record, FRAME_HEADER};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"RNRS";

/// On-disk format version. Bump on any byte-layout change; decode refuses
/// other versions and the golden-file test pins this one's exact bytes.
pub const FORMAT_VERSION: u8 = 2;

/// Fixed header size preceding the segment body.
pub const SEGMENT_HEADER: usize = 34;

const FLAG_COMPRESSED: u8 = 1;

/// Bytes of the header the CRC covers: everything before the CRC itself.
const CRC_COVERED: usize = 30;

/// A decoded segment: a contiguous run of frames starting at `first_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Global sequence number of `frames[0]`.
    pub first_seq: u64,
    /// The record batches, one per transport frame, in sequence order.
    pub frames: Vec<Vec<Record>>,
}

impl Segment {
    /// Sequence numbers covered: `[first_seq, first_seq + frames.len())`.
    pub fn covers(&self, seq: u64) -> bool {
        seq >= self.first_seq && seq < self.first_seq + self.frames.len() as u64
    }

    /// Total records across all frames.
    pub fn record_count(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

/// Errors from decoding a segment ([`decode_segment`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The file's size disagrees with the header's length prefix (a torn or
    /// short write when `actual < expected`, trailing garbage otherwise).
    Length {
        /// Header + declared body length.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The magic bytes are not [`SEGMENT_MAGIC`].
    BadMagic,
    /// The CRC holds but the version byte is not [`FORMAT_VERSION`]: the
    /// segment was written by another build, not damaged.
    Version(u8),
    /// The CRC32 did not match the header + stored body.
    Checksum,
    /// The compressed body failed to decompress to its declared raw length.
    Compression,
    /// A CRC-valid body failed structural decoding (index/record mismatch).
    Malformed(String),
    /// A CRC-valid body holds a record the codec rejects.
    Record(CodecError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Length { expected, actual } => {
                write!(f, "segment length mismatch: header declares {expected} bytes, file has {actual}")
            }
            SegmentError::BadMagic => write!(f, "not a segment file (bad magic)"),
            SegmentError::Version(v) => {
                write!(f, "segment format version {v}, this build reads version {FORMAT_VERSION}")
            }
            SegmentError::Checksum => write!(f, "segment CRC32 checksum mismatch"),
            SegmentError::Compression => write!(f, "segment body failed to decompress"),
            SegmentError::Malformed(what) => write!(f, "malformed segment body: {what}"),
            SegmentError::Record(e) => write!(f, "malformed segment record: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

// ---------------------------------------------------------------------------
// Varints for the frame index.

/// Appends an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from `buf` at `*pos`, advancing it.
///
/// # Errors
///
/// [`SegmentError::Malformed`] on truncation or a varint longer than 64 bits.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, SegmentError> {
    let mut v = 0u64;
    for shift in (0..=63).step_by(7) {
        let byte = *buf.get(*pos).ok_or_else(|| SegmentError::Malformed("truncated varint".into()))?;
        *pos += 1;
        if shift == 63 && (byte & !1) != 0 {
            return Err(SegmentError::Malformed("varint overflows 64 bits".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(SegmentError::Malformed("varint overflows 64 bits".into()))
}

// ---------------------------------------------------------------------------
// Per-segment RLE compression (PackBits-style). DMA payloads carry long
// byte runs, so a byte-level run-length pass wins without external deps.
// Control byte `c`: `c < 0x80` copies `c + 1` literal bytes; otherwise the
// next byte repeats `(c & 0x7f) + 3` times.

/// The most bytes one 2-byte run token expands to.
const MAX_RUN: usize = 130;

fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < MAX_RUN {
            run += 1;
        }
        if run >= 3 {
            out.push(0x80 | (run - 3) as u8);
            out.push(b);
            i += run;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < data.len() && j - start < 128 {
            if j + 2 < data.len() && data[j] == data[j + 1] && data[j] == data[j + 2] {
                break;
            }
            j += 1;
        }
        out.push((j - start - 1) as u8);
        out.extend_from_slice(&data[start..j]);
        i = j;
    }
    out
}

fn rle_decompress(data: &[u8], raw_len: usize) -> Result<Vec<u8>, SegmentError> {
    // No token expands more than a run token (2 bytes → 130), so a larger
    // declared length is a lie; refuse it before reserving the buffer.
    if raw_len > data.len() / 2 * MAX_RUN {
        return Err(SegmentError::Compression);
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c & 0x80 != 0 {
            let n = (c & 0x7f) as usize + 3;
            let b = *data.get(i).ok_or(SegmentError::Compression)?;
            i += 1;
            if out.len() + n > raw_len {
                return Err(SegmentError::Compression);
            }
            out.resize(out.len() + n, b);
        } else {
            let n = c as usize + 1;
            let lit = data.get(i..i + n).ok_or(SegmentError::Compression)?;
            i += n;
            if out.len() + n > raw_len {
                return Err(SegmentError::Compression);
            }
            out.extend_from_slice(lit);
        }
    }
    if out.len() != raw_len {
        return Err(SegmentError::Compression);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Segment encode / decode.

/// Encodes `segment` into the version-2 byte form. When `compress` is set
/// the body is RLE-compressed, but only if that actually shrinks it — the
/// output is a deterministic function of `(segment, compress)`.
pub fn encode_segment(segment: &Segment, compress: bool) -> Vec<u8> {
    // The body is written once: a frame's record count is a u32, so its
    // varint takes at most 5 bytes, and every record's size is exact.
    let records = segment.frames.iter().flatten();
    let record_bytes: u64 = records.clone().map(Record::encoded_len).sum();
    let mut body = frame_index(segment.frames.iter().map(Vec::len), record_bytes as usize);
    for record in records {
        codec::encode(record, &mut body);
    }
    seal(segment.first_seq, segment.frames.len(), segment.record_count(), &body, compress)
}

/// Seals the encoded transport `frames` — each with its record count,
/// starting at sequence number `first_seq` — into one segment, RLE-compressed
/// where that shrinks it. A frame's payload is its records in the wire
/// codec, so the body is the frame index followed by the payloads, and the
/// bytes equal [`encode_segment`]'s for the same records.
pub(crate) fn seal_frames(first_seq: u64, frames: &[(usize, Bytes)]) -> Vec<u8> {
    let payloads = frames.iter().map(|(_, frame)| &frame[FRAME_HEADER..]);
    let mut body = frame_index(frames.iter().map(|&(n, _)| n), payloads.clone().map(<[u8]>::len).sum());
    for payload in payloads {
        body.extend_from_slice(payload);
    }
    let records = frames.iter().map(|&(n, _)| n).sum();
    seal(first_seq, frames.len(), records, &body, true)
}

/// A segment body's frame index — one varint record count per frame — with
/// room reserved for the `record_bytes` of records that follow it.
fn frame_index(counts: impl ExactSizeIterator<Item = usize>, record_bytes: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(5 * counts.len() + record_bytes);
    for n in counts {
        put_varint(&mut body, n as u64);
    }
    body
}

/// The sealer behind both feeders: the header, the CRC32 and the stored
/// (possibly compressed) form of a raw segment body.
fn seal(first_seq: u64, frame_count: usize, record_count: usize, body: &[u8], compress: bool) -> Vec<u8> {
    let raw_len = body.len();
    let packed = if compress { Some(rle_compress(body)).filter(|p| p.len() < raw_len) } else { None };
    let (stored, flags) = match &packed {
        Some(p) => (p.as_slice(), FLAG_COMPRESSED),
        None => (body, 0),
    };

    let mut out = Vec::with_capacity(SEGMENT_HEADER + stored.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(FORMAT_VERSION);
    out.push(flags);
    out.extend_from_slice(&first_seq.to_le_bytes());
    out.extend_from_slice(&(frame_count as u32).to_le_bytes());
    out.extend_from_slice(&(record_count as u32).to_le_bytes());
    out.extend_from_slice(&(raw_len as u32).to_le_bytes());
    out.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    let crc = crc32_of(&[&out, stored]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(stored);
    out
}

/// Decodes a segment, verifying its length prefix, CRC32 and version.
///
/// # Errors
///
/// Structured [`SegmentError`]s classifying the damage: torn/short files
/// fail the length prefix, bit rot fails the CRC (a flipped version byte
/// included), foreign files fail the magic, and a CRC-valid segment of
/// another format version fails the version check. Never panics on
/// arbitrary input.
pub fn decode_segment(bytes: &[u8]) -> Result<Segment, SegmentError> {
    if bytes.len() < SEGMENT_HEADER {
        return Err(SegmentError::Length { expected: SEGMENT_HEADER, actual: bytes.len() });
    }
    if bytes[0..4] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 header bytes"));
    let first_seq = u64::from_le_bytes(bytes[6..14].try_into().expect("8 header bytes"));
    let [frame_count, record_count, raw_len, body_len] = [14, 18, 22, 26].map(|at| u32_at(at) as usize);
    let crc = u32_at(CRC_COVERED);

    let expected = SEGMENT_HEADER + body_len;
    if bytes.len() != expected {
        return Err(SegmentError::Length { expected, actual: bytes.len() });
    }
    let stored = &bytes[SEGMENT_HEADER..];
    if crc32_of(&[&bytes[..CRC_COVERED], stored]) != crc {
        return Err(SegmentError::Checksum);
    }
    if bytes[4] != FORMAT_VERSION {
        return Err(SegmentError::Version(bytes[4]));
    }

    let unpacked;
    let body = if bytes[5] & FLAG_COMPRESSED != 0 {
        unpacked = rle_decompress(stored, raw_len)?;
        &unpacked[..]
    } else {
        if stored.len() != raw_len {
            return Err(SegmentError::Compression);
        }
        stored
    };

    // A CRC-valid body can still be structurally impossible if it was
    // written by a buggy or hostile encoder; bound every allocation by the
    // body size before trusting the declared counts.
    if frame_count > body.len() || record_count > body.len() {
        return Err(SegmentError::Malformed("declared counts exceed body size".into()));
    }
    // Every frame's sequence number must fit a u64, so `covers` and the
    // store's frame index can add to `first_seq` without overflow.
    if first_seq.checked_add(frame_count as u64).is_none() {
        return Err(SegmentError::Malformed("frame sequence numbers overflow".into()));
    }
    let mut pos = 0;
    let mut counts = Vec::with_capacity(frame_count);
    let mut indexed = 0u64;
    for _ in 0..frame_count {
        let n = get_varint(body, &mut pos)?;
        indexed =
            indexed.checked_add(n).ok_or_else(|| SegmentError::Malformed("frame index overflows".into()))?;
        counts.push(n as usize);
    }
    if indexed != record_count as u64 {
        return Err(SegmentError::Malformed("frame index disagrees with record count".into()));
    }
    let mut rest = &body[pos..];
    let mut frames = Vec::with_capacity(frame_count);
    for n in counts {
        let mut frame = Vec::with_capacity(n);
        for _ in 0..n {
            frame.push(codec::decode(&mut rest).map_err(SegmentError::Record)?);
        }
        frames.push(frame);
    }
    if !rest.is_empty() {
        return Err(SegmentError::Malformed("trailing bytes after last record".into()));
    }
    Ok(Segment { first_seq, frames })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmaSource;
    use rnr_ras::ThreadId;

    fn sample() -> Segment {
        Segment {
            first_seq: 7,
            frames: vec![
                vec![
                    Record::Rdtsc { value: 1000 },
                    Record::Rdtsc { value: 1016 },
                    Record::PioIn { port: 0x1f7, value: 0x50 },
                    Record::Interrupt { irq: 0, at_insn: 4096 },
                ],
                vec![
                    Record::MmioRead { addr: 0xfee0_0000, value: 9 },
                    Record::Dma { source: DmaSource::Nic, addr: 0x8000, data: vec![0; 64], at_insn: 4200 },
                    Record::Evict { tid: ThreadId(3), addr: 0x40_1000 },
                ],
                vec![Record::End { at_insn: 5000, at_cycle: 12_000 }],
            ],
        }
    }

    #[test]
    fn round_trips_both_modes() {
        for compress in [false, true] {
            let bytes = encode_segment(&sample(), compress);
            let back = decode_segment(&bytes).unwrap();
            assert_eq!(back, sample());
            // Deterministic: same input, same bytes.
            assert_eq!(bytes, encode_segment(&sample(), compress));
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode_segment(&sample(), true);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode_segment(&bad).is_err(), "flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn every_truncation_is_detected_without_panic() {
        let bytes = encode_segment(&sample(), false);
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut]).is_err(), "truncation to {cut} bytes accepted");
        }
    }

    /// Re-seals `bytes` after an edit: recomputes the CRC over the edited
    /// header and body, as another build's encoder would have written it.
    fn reseal(bytes: &mut [u8]) {
        let crc = crc32_of(&[&bytes[..CRC_COVERED], &bytes[SEGMENT_HEADER..]]);
        bytes[CRC_COVERED..SEGMENT_HEADER].copy_from_slice(&crc.to_le_bytes());
    }

    /// A CRC-valid segment with the given header counts and stored body.
    fn sealed(flags: u8, frame_count: u32, record_count: u32, raw_len: u32, body: &[u8]) -> Vec<u8> {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&[FORMAT_VERSION, flags]);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        for field in [frame_count, record_count, raw_len, body.len() as u32, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.extend_from_slice(body);
        reseal(&mut bytes);
        bytes
    }

    #[test]
    fn version_drift_is_refused() {
        let mut bytes = encode_segment(&sample(), false);
        bytes[4] = FORMAT_VERSION + 1;
        assert_eq!(decode_segment(&bytes), Err(SegmentError::Checksum), "an unsealed flip is damage");
        reseal(&mut bytes);
        assert_eq!(decode_segment(&bytes), Err(SegmentError::Version(FORMAT_VERSION + 1)));
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn frame_index_overflow_is_malformed() {
        // Two frames of 2^63 records each sum to 2^64: a CRC-valid index
        // that must be refused, not added up.
        let mut body = Vec::new();
        put_varint(&mut body, 1 << 63);
        put_varint(&mut body, 1 << 63);
        let bytes = sealed(0, 2, 0, body.len() as u32, &body);
        assert_eq!(bytes.len(), 54);
        assert!(matches!(decode_segment(&bytes), Err(SegmentError::Malformed(_))));
    }

    #[test]
    fn sequence_overflow_is_malformed() {
        let last = Segment { first_seq: u64::MAX, frames: vec![vec![]] };
        assert!(matches!(decode_segment(&encode_segment(&last, false)), Err(SegmentError::Malformed(_))));
        let fits = Segment { first_seq: u64::MAX - 1, frames: vec![vec![]] };
        assert_eq!(decode_segment(&encode_segment(&fits, false)), Ok(fits));
    }

    #[test]
    fn raw_len_beyond_any_expansion_is_refused() {
        // One run token expands to at most 130 bytes; a body of one token
        // declaring 4 GiB must fail before anything is reserved.
        let bytes = sealed(FLAG_COMPRESSED, 0, 0, u32::MAX, &[0xff, 0]);
        assert_eq!(decode_segment(&bytes), Err(SegmentError::Compression));
        assert_eq!(rle_decompress(&[0xff, 0], MAX_RUN + 1), Err(SegmentError::Compression));
        assert_eq!(rle_decompress(&[0xff, 0], MAX_RUN), Ok(vec![0; MAX_RUN]));
    }

    #[test]
    fn rle_roundtrips_adversarial_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 1000],
            (0..=255u8).collect(),
            [vec![1, 1], vec![2; 200], vec![3, 4, 5], vec![0; 3]].concat(),
        ];
        for case in cases {
            let packed = rle_compress(&case);
            assert_eq!(rle_decompress(&packed, case.len()).unwrap(), case);
        }
    }
}

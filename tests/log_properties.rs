//! Property tests on the record codec, transport frames, the durable
//! segment format and session files: every record that crosses the wire,
//! lands in the store or is saved in a session goes through one parser
//! behind a CRC32, and arbitrary bytes never panic it.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_log::{
    crc32, decode_frame, decode_segment, durable_fetch, encode_frame, encode_segment, get_varint, put_varint,
    segment_file_name, AlarmInfo, CodecError, DmaSource, DurableLogConfig, DurableStore, DurableWriter,
    FaultPlan, InputLog, Record, Segment, SegmentError, VrtAlarmInfo, DEFAULT_BATCH, FORMAT_VERSION,
    FRAME_HEADER,
};
use rnr_ras::{Mispredict, MispredictKind, ThreadId};
use rnr_safe::Session;
use rnr_vrt::VrtKind;
use rnr_workloads::Workload;

/// A unique per-test scratch directory, removed when the test ends (pass or
/// fail) so `cargo test` leaves no stray files.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("rnr-logprop-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        any::<u64>().prop_map(|value| Record::Rdtsc { value }),
        (any::<u16>(), any::<u64>()).prop_map(|(port, value)| Record::PioIn { port, value }),
        (any::<u64>(), any::<u64>()).prop_map(|(addr, value)| Record::MmioRead { addr, value }),
        (any::<u8>(), any::<u64>()).prop_map(|(irq, at_insn)| Record::Interrupt { irq, at_insn }),
        (any::<bool>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..300), any::<u64>()).prop_map(
            |(nic, addr, data, at_insn)| Record::Dma {
                source: if nic { DmaSource::Nic } else { DmaSource::Disk },
                addr,
                data,
                at_insn,
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(tid, addr)| Record::Evict { tid: ThreadId(tid), addr }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
            any::<u64>(),
            0u8..3,
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(tid, ret_pc, predicted, actual, kind, at_insn, at_cycle)| {
                Record::Alarm(AlarmInfo {
                    tid: ThreadId(tid),
                    mispredict: Mispredict {
                        ret_pc,
                        predicted,
                        actual,
                        kind: match kind {
                            0 => MispredictKind::Underflow,
                            1 => MispredictKind::TargetMismatch,
                            _ => MispredictKind::WhitelistViolation,
                        },
                    },
                    at_insn,
                    at_cycle,
                })
            }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(tid, branch_pc, target, at_insn, at_cycle)| Record::JopAlarm {
                tid: ThreadId(tid),
                branch_pc,
                target,
                at_insn,
                at_cycle,
            }
        ),
        (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(tid, stack, addr, at_insn, at_cycle)| {
                Record::VrtAlarm(VrtAlarmInfo {
                    tid: ThreadId(tid),
                    kind: if stack { VrtKind::Stack } else { VrtKind::Heap },
                    addr,
                    at_insn,
                    at_cycle,
                })
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(at_insn, at_cycle)| Record::End { at_insn, at_cycle }),
    ]
}

/// A DMA record whose payload is one byte repeated, as device payloads
/// often are: it makes a segment body compressible.
fn dma_run_strategy() -> impl Strategy<Value = Record> {
    (any::<u8>(), 0usize..300, any::<u64>()).prop_map(|(byte, len, at_insn)| Record::Dma {
        source: DmaSource::Nic,
        addr: 0x9000,
        data: vec![byte; len],
        at_insn,
    })
}

/// `records` in the wire codec: the payload of one frame.
fn wire_bytes(records: &[Record]) -> Vec<u8> {
    encode_frame(0, records)[FRAME_HEADER..].to_vec()
}

/// `payload` under a valid frame header and CRC32 for `seq`.
fn framed(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut covered = seq.to_le_bytes().to_vec();
    covered.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    covered.extend_from_slice(payload);
    let mut frame = covered[..12].to_vec();
    frame.extend_from_slice(&crc32(&covered).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// `body` under a valid segment header and CRC32 of this format version.
fn sealed(
    flags: u8,
    first_seq: u64,
    frame_count: u32,
    record_count: u32,
    raw_len: u32,
    body: &[u8],
) -> Vec<u8> {
    let mut bytes = b"RNRS".to_vec();
    bytes.extend_from_slice(&[FORMAT_VERSION, flags]);
    bytes.extend_from_slice(&first_seq.to_le_bytes());
    for field in [frame_count, record_count, raw_len, body.len() as u32] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    let mut covered = bytes.clone();
    covered.extend_from_slice(body);
    bytes.extend_from_slice(&crc32(&covered).to_le_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// Where to overwrite one byte, with what, and how much to cut off the end.
type Damage = (prop::sample::Index, u8, prop::sample::Index);

fn damage_strategy() -> impl Strategy<Value = Damage> {
    (any::<prop::sample::Index>(), any::<u8>(), any::<prop::sample::Index>())
}

/// A frame-index-plus-records body, damaged by overwriting one byte and
/// cutting it short, so decoding goes deep before it meets the damage.
fn damaged_body(records: &[Record], counts: &[u64], (at, byte, cut): Damage) -> Vec<u8> {
    let mut body = Vec::new();
    for &n in counts {
        put_varint(&mut body, n);
    }
    body.extend_from_slice(&wire_bytes(records));
    let at = at.index(body.len() + 1);
    if at < body.len() {
        body[at] = byte;
    }
    body.truncate(body.len() - cut.index(body.len() / 4 + 1));
    body
}

proptest! {
    /// Frame encode → decode is the identity for arbitrary logs, and the
    /// byte accounting matches the wire exactly.
    #[test]
    fn log_round_trips(records in prop::collection::vec(record_strategy(), 0..60), seq in any::<u64>()) {
        let log: InputLog = records.clone().into_iter().collect();
        let frame = encode_frame(seq, log.records());
        prop_assert_eq!((frame.len() - FRAME_HEADER) as u64, log.total_bytes());
        let (back_seq, back) = decode_frame(&frame).unwrap();
        prop_assert_eq!(back_seq, seq);
        let back: InputLog = back.into_iter().collect();
        prop_assert_eq!(back.records(), &records[..]);
        prop_assert_eq!(back.total_bytes(), log.total_bytes());
        for c in rnr_log::Category::ALL {
            prop_assert_eq!(back.bytes_for(c), log.bytes_for(c));
        }
    }

    /// Every record reports its exact encoded size.
    #[test]
    fn encoded_len_is_exact(record in record_strategy()) {
        prop_assert_eq!(wire_bytes(std::slice::from_ref(&record)).len() as u64, record.encoded_len());
    }

    /// The framed transport: a single-bit flip anywhere in an encoded frame
    /// — header or payload — is *always* rejected (CRC32 detects every 1-bit
    /// error), and so is any truncation. Neither ever panics.
    #[test]
    fn frame_rejects_every_bit_flip_and_truncation(
        records in prop::collection::vec(record_strategy(), 0..20),
        seq in any::<u64>(),
        flip in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let frame = encode_frame(seq, &records);
        prop_assert!(matches!(decode_frame(&frame), Ok((s, ref r)) if s == seq && *r == records));

        let mut flipped = frame.to_vec();
        let pos = flip.index(flipped.len() * 8);
        flipped[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(decode_frame(&flipped.into()).is_err());

        let cut = cut.index(frame.len());
        prop_assert!(decode_frame(&frame.slice(0..cut)).is_err());
    }

    /// Arbitrary bytes never panic the frame decoder: they fail the header,
    /// length or CRC check with a typed error.
    #[test]
    fn frame_decode_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_frame(&bytes.into());
    }

    /// A payload that passes the CRC but holds damaged records decodes to
    /// records that re-encode to the very same frame, or fails with a
    /// record-level error. It never panics.
    #[test]
    fn frame_decode_survives_damaged_payloads_under_a_valid_crc(
        records in prop::collection::vec(record_strategy(), 0..8),
        noise in prop::collection::vec(any::<u8>(), 0..64),
        seq in any::<u64>(),
        damage in damage_strategy(),
        random in any::<bool>(),
    ) {
        let payload = if random { noise } else { damaged_body(&records, &[], damage) };
        let frame = framed(seq, &payload);
        match decode_frame(&frame.clone().into()) {
            Ok((s, back)) => {
                prop_assert_eq!(s, seq);
                prop_assert_eq!(encode_frame(seq, &back).to_vec(), frame);
            }
            Err(e) => prop_assert!(
                matches!(e, CodecError::Truncated | CodecError::BadTag(_) | CodecError::BadField(..)),
                "unexpected frame error {:?}", e
            ),
        }
    }

    /// LEB128 varints round-trip every value, and the encoding reports its
    /// exact consumed length.
    #[test]
    fn varint_and_zigzag_round_trip(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    /// The segment codec (wire-codec records + optional RLE) is the identity
    /// for arbitrary frame partitions, compressed or not.
    #[test]
    fn segment_round_trips(
        frames in prop::collection::vec(prop::collection::vec(record_strategy(), 0..12), 1..8),
        first_seq in any::<u64>(),
        compress in any::<bool>(),
    ) {
        let segment = Segment { first_seq, frames };
        let bytes = encode_segment(&segment, compress);
        prop_assert_eq!(&decode_segment(&bytes).unwrap(), &segment);
    }

    /// Flipping any single bit of an encoded segment is always detected
    /// (length prefix or CRC32), and any truncation is rejected cleanly.
    /// Neither ever panics.
    #[test]
    fn segment_rejects_every_bit_flip_and_truncation(
        frames in prop::collection::vec(prop::collection::vec(record_strategy(), 0..8), 1..5),
        first_seq in any::<u64>(),
        compress in any::<bool>(),
        flip in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let segment = Segment { first_seq, frames };
        let bytes = encode_segment(&segment, compress);

        let mut flipped = bytes.clone();
        let pos = flip.index(flipped.len() * 8);
        flipped[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(decode_segment(&flipped).is_err());

        let cut = cut.index(bytes.len());
        prop_assert!(decode_segment(&bytes[..cut]).is_err());
    }

    /// Arbitrary bytes never panic the segment decoder, with or without the
    /// segment magic in front.
    #[test]
    fn segment_decode_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        magic in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"RNRS");
        }
        let _ = decode_segment(&bytes);
    }

    /// A body that passes the length and CRC checks but is damaged, under
    /// either flag value and arbitrary header counts, decodes to a segment
    /// that agrees with its header or fails with a typed body error. It
    /// never panics and never allocates past the body.
    #[test]
    fn segment_decode_survives_damaged_bodies_under_a_valid_crc(
        records in prop::collection::vec(record_strategy(), 0..8),
        counts in prop::collection::vec(0u64..10, 0..4),
        noise in prop::collection::vec(any::<u8>(), 0..64),
        switches in (any::<bool>(), any::<bool>(), any::<bool>()),
        declared in (0u32..12, 0u32..12, any::<u32>()),
        first_seq in any::<u64>(),
        damage in damage_strategy(),
    ) {
        // Noise or a damaged real body; compressed or not; header counts
        // that match the body or arbitrary ones.
        let (random, compressed, honest) = switches;
        let body = if random { noise } else { damaged_body(&records, &counts, damage) };
        let (frame_count, record_count, raw_len) = if honest {
            (counts.len() as u32, counts.iter().sum::<u64>() as u32, body.len() as u32)
        } else {
            declared
        };
        let bytes = sealed(u8::from(compressed), first_seq, frame_count, record_count, raw_len, &body);
        match decode_segment(&bytes) {
            Ok(segment) => {
                prop_assert_eq!(segment.first_seq, first_seq);
                prop_assert_eq!(segment.frames.len(), frame_count as usize);
                prop_assert_eq!(segment.record_count(), record_count as usize);
            }
            Err(e) => prop_assert!(
                matches!(e, SegmentError::Compression | SegmentError::Malformed(_) | SegmentError::Record(_)),
                "unexpected segment error {:?}", e
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The recovery scan over a directory of arbitrary `.rnrseg` and `.tmp`
    /// files — intact segments, damaged ones and noise — never panics: it
    /// removes every `.tmp`, and what it indexes is exactly what the intact
    /// segments hold.
    #[test]
    fn durable_open_survives_arbitrary_directories(
        files in prop::collection::vec(
            (
                0u8..4,
                prop::collection::vec(record_strategy(), 0..6),
                prop::collection::vec(any::<u8>(), 0..80),
                any::<prop::sample::Index>(),
                prop_oneof![0u64..64, any::<u64>()],
            ),
            0..6,
        ),
    ) {
        let dir = TempDir::new("open-arbitrary");
        let mut intact = 0u64;
        for (i, (kind, records, noise, at, first_seq)) in files.into_iter().enumerate() {
            let name = segment_file_name(i as u64);
            let segment = encode_segment(&Segment { first_seq, frames: vec![records] }, true);
            let (name, bytes) = match kind {
                0 => {
                    intact += u64::from(decode_segment(&segment).is_ok());
                    (name, segment)
                }
                1 => {
                    let mut damaged = segment;
                    let at = at.index(damaged.len());
                    damaged[at] ^= 0x5a;
                    (name, damaged)
                }
                2 => (name, noise),
                _ => (format!("{name}.tmp"), noise),
            };
            fs::write(dir.0.join(name), bytes).unwrap();
        }
        let store = DurableStore::open(&dir.0).expect("only noise and damage, no foreign version");
        prop_assert_eq!(store.scan().segments_ok, intact);
        let left: Vec<String> =
            fs::read_dir(&dir.0).unwrap().map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect();
        prop_assert!(left.iter().all(|n| !n.ends_with(".tmp")), "{:?}", left);
    }

    /// One sealer, two feeders: the segment files the durable writer seals
    /// from the recorder's encoded frames are, file by file, exactly
    /// `encode_segment` of the same frames, and decode back to them.
    #[test]
    fn writer_seals_frames_as_encode_segment_does(
        records in prop::collection::vec(prop_oneof![record_strategy(), dma_run_strategy()], 1..200),
        sizes in prop::collection::vec(1..=DEFAULT_BATCH, 1..12),
        frames_per_segment in 1usize..=4,
    ) {
        let mut frames: Vec<Vec<Record>> = Vec::new();
        let mut rest = &records[..];
        for &n in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (frame, tail) = rest.split_at(n.min(rest.len()));
            frames.push(frame.to_vec());
            rest = tail;
        }
        let dir = TempDir::new("one-sealer");
        let cfg = DurableLogConfig { dir: dir.0.clone(), frames_per_segment };
        let mut writer = DurableWriter::create(cfg, &FaultPlan::default()).unwrap();
        for (seq, frame) in frames.iter().enumerate() {
            writer.append(seq as u64, frame, encode_frame(seq as u64, frame));
        }
        let stats = writer.finish();
        let segments: Vec<Segment> = frames
            .chunks(frames_per_segment)
            .enumerate()
            .map(|(i, group)| Segment { first_seq: (i * frames_per_segment) as u64, frames: group.to_vec() })
            .collect();
        prop_assert_eq!(stats.segments_sealed, segments.len() as u64);
        prop_assert_eq!(fs::read_dir(&dir.0).unwrap().count(), segments.len());
        for (i, segment) in segments.iter().enumerate() {
            let file = fs::read(dir.0.join(segment_file_name(i as u64))).unwrap();
            prop_assert_eq!(&file, &encode_segment(segment, true), "segment {}", i);
            prop_assert_eq!(&decode_segment(&file).unwrap(), segment, "segment {}", i);
        }
    }

    /// Arbitrary bytes behind a valid session magic never panic
    /// `Session::load`, whatever header length they claim; nor do
    /// arbitrary or damaged log segments behind a real session header.
    /// Either way the load fails with a typed error.
    #[test]
    fn session_load_survives_arbitrary_bytes(
        header_len in prop_oneof![0u64..64, any::<u64>()],
        noise in prop::collection::vec(any::<u8>(), 0..96),
        records in prop::collection::vec(record_strategy(), 1..6),
        shape in 0u8..3,
        at in any::<prop::sample::Index>(),
    ) {
        let dir = TempDir::new("session-arbitrary");
        let path = dir.0.join("noise.rnr");
        let bytes = match shape {
            0 => [&b"RNRSAFE1"[..], &header_len.to_le_bytes(), &noise].concat(),
            1 => [session_prefix(), &noise].concat(),
            _ => {
                let mut segment = encode_segment(&Segment { first_seq: 0, frames: vec![records] }, true);
                let at = at.index(segment.len());
                segment[at] ^= 0x10;
                [session_prefix(), &segment].concat()
            }
        };
        fs::write(&path, &bytes).unwrap();
        prop_assert!(Session::load(&path).is_err());
    }
}

/// The magic, header length and JSON header of a real saved session: a
/// short Radiosity recording, made once.
fn session_prefix() -> &'static [u8] {
    static PREFIX: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    PREFIX.get_or_init(|| {
        let spec = Workload::Radiosity.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 11, 20_000)).unwrap().run();
        let dir = TempDir::new("session-prefix");
        let path = dir.0.join("prefix.rnr");
        Session::from_recording(spec, 11, 48, &rec).save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        let header_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        bytes[..16 + header_len].to_vec()
    })
}

/// A fixed, deterministic segment exercising every record variant — the
/// subject of the committed golden fixtures.
fn golden_segment() -> Segment {
    Segment {
        first_seq: 7,
        frames: vec![
            vec![
                Record::Rdtsc { value: 0x1111_2222_3333 },
                Record::Rdtsc { value: 0x1111_2222_4444 },
                Record::PioIn { port: 0x3f8, value: 0x41 },
                Record::MmioRead { addr: 0xfee0_0000, value: 9 },
            ],
            vec![
                Record::Interrupt { irq: 32, at_insn: 120_000 },
                Record::Dma { source: DmaSource::Disk, addr: 0x9000, data: vec![0xaa; 64], at_insn: 120_050 },
                Record::Dma { source: DmaSource::Nic, addr: 0x9400, data: vec![1, 2, 3], at_insn: 120_060 },
                Record::Evict { tid: ThreadId(3), addr: 0x8000_1234 },
            ],
            vec![
                Record::Alarm(AlarmInfo {
                    tid: ThreadId(3),
                    mispredict: Mispredict {
                        ret_pc: 0x8000_2000,
                        predicted: Some(0x8000_2004),
                        actual: 0x9000_0000,
                        kind: MispredictKind::TargetMismatch,
                    },
                    at_insn: 130_000,
                    at_cycle: 260_000,
                }),
                Record::End { at_insn: 140_000, at_cycle: 280_000 },
            ],
        ],
    }
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Golden-file pin on format v2: the committed fixture must match what the
/// codec produces today, byte for byte, and decode back to the segment. If
/// this fails, the on-disk format drifted — bump `rnr_log::FORMAT_VERSION`
/// and regenerate the fixture with
/// `RNR_REGEN_GOLDEN=1 cargo test --test log_properties`.
#[test]
fn golden_segment_fixtures_pin_format_v2() {
    let bin_path = fixtures().join("segment_v2.bin");
    let segment = golden_segment();
    let bin = encode_segment(&segment, true);
    if std::env::var_os("RNR_REGEN_GOLDEN").is_some() {
        fs::write(&bin_path, &bin).unwrap();
    }
    let golden = fs::read(&bin_path).expect("committed fixture tests/fixtures/segment_v2.bin");
    assert_eq!(bin, golden, "segment encoding drifted without a FORMAT_VERSION bump");
    assert_eq!(decode_segment(&golden).expect("committed fixture decodes"), segment);
}

/// Every file of `dir`, by name, with its bytes.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A store written by another format version (the committed v1 fixture,
/// CRC-valid) is refused by name and version, and neither the recovery
/// scan nor the refetch path deletes, truncates or quarantines anything.
#[test]
fn foreign_version_store_is_refused_untouched() {
    let v1 =
        fs::read(fixtures().join("segment_v1.bin")).expect("committed fixture tests/fixtures/segment_v1.bin");
    assert_eq!(decode_segment(&v1), Err(SegmentError::Version(1)));
    let dir = TempDir::new("foreign");
    for i in 0..3 {
        fs::write(dir.0.join(segment_file_name(i)), &v1).unwrap();
    }
    fs::write(dir.0.join(format!("{}.tmp", segment_file_name(3))), b"half-written").unwrap();
    let before = snapshot(&dir.0);

    let err = DurableStore::open(&dir.0).expect_err("a v1 store must not open under v2");
    let msg = err.to_string();
    assert!(msg.contains("version 1") && msg.contains(&format!("version {FORMAT_VERSION}")), "{msg}");
    assert_eq!(durable_fetch(&dir.0, 7), None, "another version's frames are not served");
    assert_eq!(snapshot(&dir.0), before, "the foreign store was modified");
}

/// A v2 segment whose version byte rotted fails its CRC: it is damage, and
/// mid-store it is quarantined like any other bit flip.
#[test]
fn flipped_version_byte_is_damage_not_foreign() {
    let dir = TempDir::new("flipped-version");
    let mut writer = DurableWriter::create(
        DurableLogConfig { dir: dir.0.clone(), frames_per_segment: 1 },
        &FaultPlan::default(),
    )
    .unwrap();
    for seq in 0..3u64 {
        writer.append_frame(seq, &[Record::Rdtsc { value: seq }]);
    }
    writer.finish();
    let middle = dir.0.join(segment_file_name(1));
    let mut bytes = fs::read(&middle).unwrap();
    bytes[4] ^= 0x03;
    fs::write(&middle, &bytes).unwrap();
    assert_eq!(decode_segment(&bytes), Err(SegmentError::Checksum));

    let store = DurableStore::open(&dir.0).expect("damage is healed, not refused");
    assert_eq!(store.scan().quarantined.len(), 1, "{:?}", store.scan());
    assert_eq!(store.scan().quarantined[0].0, segment_file_name(1));
    assert!(dir.0.join(format!("{}.bad", segment_file_name(1))).exists());
    assert_eq!(store.scan().missing_spans, vec![(1, 2)]);
}

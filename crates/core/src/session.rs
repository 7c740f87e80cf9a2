//! Session files: persist recordings for offline analysis.
//!
//! "Checkpoints can be stored indefinitely, if the user wants the entire
//! history recorded… the recorded history can be used for forensics or to
//! audit prior executions" (§8.4). A session file packages everything a
//! replayer needs — the VM specification (kernel + images + boot table +
//! device profile), the recording configuration, the input log, and the
//! final-state digest — so an execution recorded today can be audited,
//! re-replayed, and alarm-resolved at any later time, on any machine.
//!
//! ## Format (version 3)
//!
//! ```text
//! magic "RNRSAFE1" | u64 header_len | header (JSON) | one log segment
//! ```
//!
//! The header is JSON for inspectability (`rnr info` pretty-prints it). The
//! log is one segment of the durable store's format ([`rnr_log::Segment`])
//! holding the whole log as its single frame, so a saved log passes the
//! same length and CRC32 checks and the same record parser as a stored or
//! streamed one: bit rot is a load error, not a replay verdict.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use rnr_hypervisor::{RecordMode, RecordOutcome, VmSpec};
use rnr_log::{decode_segment, encode_segment, InputLog, Record, Segment, SegmentError};
use rnr_machine::Digest;

const MAGIC: &[u8; 8] = b"RNRSAFE1";

/// The session-file format version this build writes and the only one it
/// loads. Version 2 stored the final digest over memoized per-page hashes
/// (DESIGN.md §4); version 3 stores the log as one CRC32-protected segment
/// instead of raw codec bytes. Older files are rejected on load, naming both
/// versions, rather than misread or reported as a diverged replay.
pub const SESSION_VERSION: u32 = 3;

/// Session-file errors.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a session file or is corrupt.
    Malformed(String),
    /// The log segment failed its length, checksum, version or record check.
    Log(SegmentError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session I/O error: {e}"),
            SessionError::Malformed(m) => write!(f, "malformed session file: {m}"),
            SessionError::Log(e) => write!(f, "session log: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> SessionError {
        SessionError::Io(e)
    }
}

/// The JSON header of a session file.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionHeader {
    /// Format version ([`SESSION_VERSION`]).
    pub version: u32,
    /// The guest VM specification (kernel, images, boot table, devices).
    pub spec: VmSpec,
    /// Recording mode (always [`RecordMode::Rec`] for stored sessions).
    pub mode: RecordMode,
    /// Non-determinism seed used.
    pub seed: u64,
    /// RAS capacity used.
    pub ras_capacity: usize,
    /// Instructions recorded.
    pub retired: u64,
    /// Virtual cycles of the recording.
    pub cycles: u64,
    /// Alarms in the log.
    pub alarms: usize,
    /// Final architectural digest (replay verification target).
    pub final_digest: u64,
    /// Log size in bytes, as [`InputLog::total_bytes`] accounts it (must
    /// match the decoded log).
    pub log_bytes: u64,
}

/// A persisted recording session.
#[derive(Debug)]
pub struct Session {
    /// The header metadata.
    pub header: SessionHeader,
    /// The input log, shared so replayers can attach without copying it.
    pub log: Arc<InputLog>,
}

impl Session {
    /// Packages a recording outcome for persistence.
    pub fn from_recording(spec: VmSpec, seed: u64, ras_capacity: usize, outcome: &RecordOutcome) -> Session {
        Session {
            header: SessionHeader {
                version: SESSION_VERSION,
                spec,
                mode: RecordMode::Rec,
                seed,
                ras_capacity,
                retired: outcome.retired,
                cycles: outcome.cycles,
                alarms: outcome.alarms,
                final_digest: outcome.final_digest.0,
                log_bytes: outcome.log.total_bytes(),
            },
            log: Arc::clone(&outcome.log),
        }
    }

    /// The digest the replayer must reproduce.
    pub fn expected_digest(&self) -> Digest {
        Digest(self.header.final_digest)
    }

    /// Writes the session to `path`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or when the log is too large for one segment,
    /// whose length fields are 32-bit.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SessionError> {
        // The frame index adds at most 5 bytes (one u32 varint) to the records.
        if self.log.total_bytes() + 5 > u64::from(u32::MAX) {
            return Err(SessionError::Malformed(format!(
                "a {}-byte log exceeds one segment's 4 GiB",
                self.log.total_bytes()
            )));
        }
        let header = serde_json::to_vec(&self.header).map_err(|e| SessionError::Malformed(e.to_string()))?;
        let segment = Segment { first_seq: 0, frames: vec![self.log.records().to_vec()] };
        let mut file = std::fs::File::create(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&(header.len() as u64).to_le_bytes())?;
        file.write_all(&header)?;
        file.write_all(&encode_segment(&segment, true))?;
        Ok(())
    }

    /// Reads a session from `path`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, bad magic, a header length beyond the file, a
    /// format version other than [`SESSION_VERSION`], a log segment that
    /// fails its checks ([`SessionError::Log`]), or a log that does not
    /// match the header's byte count.
    pub fn load(path: impl AsRef<Path>) -> Result<Session, SessionError> {
        let bytes = std::fs::read(path)?;
        let rest =
            bytes.strip_prefix(MAGIC).ok_or_else(|| SessionError::Malformed("bad magic".to_string()))?;
        let (len, rest) = rest
            .split_first_chunk::<8>()
            .ok_or_else(|| SessionError::Malformed("no header length".into()))?;
        let header_len = u64::from_le_bytes(*len);
        if header_len > rest.len() as u64 {
            return Err(SessionError::Malformed(format!(
                "header length {header_len} exceeds the {} bytes left in the file",
                rest.len()
            )));
        }
        let (header_bytes, segment) = rest.split_at(header_len as usize);
        let header: SessionHeader =
            serde_json::from_slice(header_bytes).map_err(|e| SessionError::Malformed(e.to_string()))?;
        if header.version != SESSION_VERSION {
            return Err(SessionError::Malformed(format!(
                "session format version {}, this build reads version {SESSION_VERSION}",
                header.version
            )));
        }
        let frames = decode_segment(segment).map_err(SessionError::Log)?.frames;
        let [records]: [Vec<Record>; 1] = frames.try_into().map_err(|frames: Vec<_>| {
            SessionError::Malformed(format!("log segment holds {} frames, not one", frames.len()))
        })?;
        let log: InputLog = records.into_iter().collect();
        if log.total_bytes() != header.log_bytes {
            return Err(SessionError::Malformed(format!(
                "log is {} bytes, header says {}",
                log.total_bytes(),
                header.log_bytes
            )));
        }
        Ok(Session { header, log: Arc::new(log) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_hypervisor::{RecordConfig, Recorder};
    use rnr_workloads::Workload;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rnr-session-test-{}-{name}.rnr", std::process::id()));
        p
    }

    /// A short session of `workload`, saved to `path`; returns the file's
    /// bytes and the offset of its log segment.
    fn saved_session(path: &Path, workload: Workload, insns: u64) -> (Vec<u8>, usize) {
        let spec = workload.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 11, insns)).unwrap().run();
        Session::from_recording(spec, 11, 48, &rec).save(path).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let header_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        (bytes, 16 + header_len)
    }

    fn replay_verdict(session: Session) -> Option<bool> {
        let mut r =
            rnr_replay::Replayer::new(&session.header.spec, session.log, rnr_replay::ReplayConfig::default());
        r.verify_against(Digest(session.header.final_digest));
        r.run().unwrap().verified
    }

    #[test]
    fn save_load_round_trip_and_replay() {
        let spec = Workload::Radiosity.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 11, 80_000)).unwrap().run();
        let session = Session::from_recording(spec, 11, 48, &rec);
        let path = tmpfile("roundtrip");
        session.save(&path).unwrap();

        let loaded = Session::load(&path).unwrap();
        assert_eq!(loaded.header.version, 3);
        assert_eq!(loaded.header.retired, rec.retired);
        assert_eq!(loaded.log.records(), rec.log.records());
        assert_eq!(loaded.expected_digest(), rec.final_digest);

        // A replay built purely from the file verifies.
        assert_eq!(replay_verdict(loaded), Some(true));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"NOTASESSIONFILE").unwrap();
        assert!(matches!(Session::load(&path), Err(SessionError::Malformed(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn other_format_version_rejected() {
        let spec = Workload::Radiosity.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 11, 50_000)).unwrap().run();
        let mut session = Session::from_recording(spec, 11, 48, &rec);
        assert_eq!(session.header.version, SESSION_VERSION);
        let path = tmpfile("version");
        for old in [1, 2] {
            session.header.version = old;
            session.save(&path).unwrap();
            match Session::load(&path) {
                Err(SessionError::Malformed(m)) => assert!(
                    m.contains(&format!("version {old}"))
                        && m.contains(&format!("version {SESSION_VERSION}")),
                    "{m}"
                ),
                other => panic!("a version-{old} file must be rejected, got {other:?}"),
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_payload_rejected() {
        let path = tmpfile("trunc");
        let (bytes, _) = saved_session(&path, Workload::Radiosity, 50_000);
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(Session::load(&path), Err(SessionError::Log(SegmentError::Length { .. }))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_length_beyond_the_file_is_rejected_before_allocating() {
        let path = tmpfile("header-len");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(1u64 << 20).to_le_bytes());
        bytes.extend_from_slice(b"{}");
        std::fs::write(&path, &bytes).unwrap();
        match Session::load(&path) {
            Err(SessionError::Malformed(m)) => assert!(m.contains("exceeds the 2 bytes left"), "{m}"),
            other => panic!("a header longer than the file must be malformed, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    /// Bit rot anywhere in a saved log is a load error. Every byte the CRC
    /// covers fails the checksum; the magic and the length prefix, checked
    /// before it, fail as a foreign or torn segment.
    #[test]
    fn every_log_byte_flip_fails_the_load() {
        let path = tmpfile("bitrot");
        let (bytes, segment) = saved_session(&path, Workload::Radiosity, 80_000);
        assert!(Session::load(&path).is_ok());
        for at in segment..bytes.len() {
            let mut rotten = bytes.clone();
            rotten[at] ^= 0x01;
            std::fs::write(&path, &rotten).unwrap();
            let err = Session::load(&path).expect_err("a flipped log byte must not load");
            match (at - segment, err) {
                (0..4, SessionError::Log(SegmentError::BadMagic)) => {}
                (26..30, SessionError::Log(SegmentError::Length { .. })) => {}
                (_, SessionError::Log(SegmentError::Checksum)) => {}
                (off, other) => {
                    panic!("flip at segment byte {off}: expected the checksum error, got {other:?}")
                }
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// Tampering that re-seals the segment passes every load check and is
    /// caught by replay: one changed `PioIn` value (a disk status read)
    /// diverges the guest.
    #[test]
    fn resealed_tampered_log_replays_unverified() {
        let path = tmpfile("tamper");
        let (bytes, at) = saved_session(&path, Workload::Fileio, 100_000);
        let mut segment = decode_segment(&bytes[at..]).unwrap();
        let value = segment.frames[0]
            .iter_mut()
            .find_map(|r| match r {
                Record::PioIn { value, .. } => Some(value),
                _ => None,
            })
            .expect("the recording reads a port");
        *value ^= 0xff;
        let tampered = [&bytes[..at], &encode_segment(&segment, true)[..]].concat();
        std::fs::write(&path, tampered).unwrap();
        assert_eq!(replay_verdict(Session::load(&path).unwrap()), Some(false));
        std::fs::remove_file(path).ok();
    }
}

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
//! ## Format
//!
//! ```text
//! magic "RNRSAFE1" | u64 header_len | header (JSON) | raw input log bytes
//! ```
//!
//! The header is JSON for inspectability (`rnr info` pretty-prints it); the
//! log uses its exact binary codec.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use rnr_hypervisor::{RecordMode, RecordOutcome, VmSpec};
use rnr_log::InputLog;
use rnr_machine::Digest;

const MAGIC: &[u8; 8] = b"RNRSAFE1";

/// The session-file format version this build writes and the only one it
/// loads. Version 2 stores the final digest over memoized per-page hashes
/// (DESIGN.md §4); a version-1 file's digest would never verify, so it is
/// rejected on load rather than reported as a diverged replay.
pub const SESSION_VERSION: u32 = 2;

/// Session-file errors.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a session file or is corrupt.
    Malformed(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session I/O error: {e}"),
            SessionError::Malformed(m) => write!(f, "malformed session file: {m}"),
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
    /// Log size in bytes (must match the trailing payload).
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
    /// Fails on I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SessionError> {
        let header = serde_json::to_vec(&self.header).map_err(|e| SessionError::Malformed(e.to_string()))?;
        let mut file = std::fs::File::create(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&(header.len() as u64).to_le_bytes())?;
        file.write_all(&header)?;
        file.write_all(&self.log.to_bytes())?;
        Ok(())
    }

    /// Reads a session from `path`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, bad magic, a format version other than
    /// [`SESSION_VERSION`], or a log that does not match the header's byte
    /// count.
    pub fn load(path: impl AsRef<Path>) -> Result<Session, SessionError> {
        let mut file = std::fs::File::open(path)?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SessionError::Malformed("bad magic".to_string()));
        }
        let mut len = [0u8; 8];
        file.read_exact(&mut len)?;
        let header_len = u64::from_le_bytes(len);
        // The header is JSON metadata plus the embedded images; anything
        // beyond this bound is a corrupt or hostile file, not a session.
        const MAX_HEADER: u64 = 256 << 20;
        if header_len > MAX_HEADER {
            return Err(SessionError::Malformed(format!("header length {header_len} exceeds {MAX_HEADER}")));
        }
        let mut header_bytes = vec![0u8; header_len as usize];
        file.read_exact(&mut header_bytes)?;
        let header: SessionHeader =
            serde_json::from_slice(&header_bytes).map_err(|e| SessionError::Malformed(e.to_string()))?;
        if header.version != SESSION_VERSION {
            return Err(SessionError::Malformed(format!(
                "session format version {}, this build reads version {SESSION_VERSION}",
                header.version
            )));
        }
        let mut log_bytes = Vec::new();
        file.read_to_end(&mut log_bytes)?;
        if log_bytes.len() as u64 != header.log_bytes {
            return Err(SessionError::Malformed(format!(
                "log payload is {} bytes, header says {}",
                log_bytes.len(),
                header.log_bytes
            )));
        }
        let log = InputLog::from_bytes(log_bytes.into())
            .map_err(|e| SessionError::Malformed(format!("log decode: {e}")))?;
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

    #[test]
    fn save_load_round_trip_and_replay() {
        let spec = Workload::Radiosity.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 11, 80_000)).unwrap().run();
        let session = Session::from_recording(spec, 11, 48, &rec);
        let path = tmpfile("roundtrip");
        session.save(&path).unwrap();

        let loaded = Session::load(&path).unwrap();
        assert_eq!(loaded.header.retired, rec.retired);
        assert_eq!(loaded.log.records(), rec.log.records());
        assert_eq!(loaded.expected_digest(), rec.final_digest);

        // A replay built purely from the file verifies.
        let mut r =
            rnr_replay::Replayer::new(&loaded.header.spec, loaded.log, rnr_replay::ReplayConfig::default());
        r.verify_against(rnr_machine::Digest(loaded.header.final_digest));
        let out = r.run().unwrap();
        assert_eq!(out.verified, Some(true));
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
        session.header.version = 1;
        let path = tmpfile("version");
        session.save(&path).unwrap();
        match Session::load(&path) {
            Err(SessionError::Malformed(m)) => {
                assert!(m.contains("version 1") && m.contains(&format!("version {SESSION_VERSION}")), "{m}")
            }
            other => panic!("a version-1 file must be rejected, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_payload_rejected() {
        let spec = Workload::Radiosity.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 11, 50_000)).unwrap().run();
        let session = Session::from_recording(spec, 11, 48, &rec);
        let path = tmpfile("trunc");
        session.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(Session::load(&path), Err(SessionError::Malformed(_))));
        std::fs::remove_file(path).ok();
    }
}

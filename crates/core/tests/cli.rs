//! End-to-end tests of the `rnr` binary: record a session file, inspect it,
//! replay it, and refuse a file written in another format version or one
//! whose log has rotted.

use std::path::PathBuf;
use std::process::{Command, Output};

use rnr_safe::SESSION_VERSION;

fn rnr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rnr")).args(args).output().expect("the rnr binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn tmpfile(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnr-cli-test-{}-{name}.rnr", std::process::id()))
}

/// Records a short Radiosity session to `path`.
fn record(path: &str) {
    let out = rnr(&["record", "--workload", "radiosity", "--insns", "150000", "-o", path]);
    assert!(out.status.success(), "record failed: {}", text(&out.stderr));
}

#[test]
fn record_info_replay_round_trip() {
    let path = tmpfile("roundtrip");
    let p = path.to_str().expect("utf-8 temp path");
    record(p);

    let info = rnr(&["info", p]);
    assert!(info.status.success(), "info failed: {}", text(&info.stderr));
    let info = text(&info.stdout);
    assert!(info.contains("workload:      radiosity"), "{info}");
    assert!(info.contains("instructions:  150000"), "{info}");
    let digest = info
        .lines()
        .find_map(|l| l.strip_prefix("final digest:"))
        .map(str::trim)
        .unwrap_or_else(|| panic!("info prints the final digest: {info}"));
    assert_eq!(digest.len(), 16, "a 64-bit digest in hex: {digest}");
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()), "{digest}");

    let replay = rnr(&["replay", p]);
    let stdout = text(&replay.stdout);
    assert!(replay.status.success(), "replay failed: {stdout}{}", text(&replay.stderr));
    assert!(stdout.contains("verified:              true"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_refuses_another_format_version() {
    let path = tmpfile("version");
    let p = path.to_str().expect("utf-8 temp path");
    record(p);

    // The JSON header follows the 8-byte magic and the 8-byte header length,
    // and opens with the version field; rewrite it in place as version 2.
    let mut bytes = std::fs::read(&path).unwrap();
    let field = format!("{{\"version\":{SESSION_VERSION},");
    assert!(bytes[16..].starts_with(field.as_bytes()), "header opens with {field}");
    let digit = 16 + field.len() - 2;
    bytes[digit] = b'2';
    std::fs::write(&path, &bytes).unwrap();

    let replay = rnr(&["replay", p]);
    let stderr = text(&replay.stderr);
    assert!(!replay.status.success(), "a version-2 file must not replay");
    assert!(
        stderr.contains("version 2") && stderr.contains(&format!("version {SESSION_VERSION}")),
        "{stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_refuses_a_bit_rotted_log() {
    let path = tmpfile("bitrot");
    let p = path.to_str().expect("utf-8 temp path");
    record(p);

    // The log segment ends the file; flip one bit of its last record.
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let replay = rnr(&["replay", p]);
    let stderr = text(&replay.stderr);
    assert!(!replay.status.success(), "a rotten log must not replay: {}", text(&replay.stdout));
    assert!(stderr.contains("checksum"), "{stderr}");
    std::fs::remove_file(path).ok();
}

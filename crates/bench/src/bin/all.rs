//! Runs every table/figure binary in sequence (a convenience wrapper). Exits
//! non-zero, after running the rest, when any of them fails or cannot be
//! launched.
//!
//! Usage: `cargo run --release -p rnr-bench --bin all`

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let bins =
        ["table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "sec84", "ablation"];
    let mut failed = Vec::new();
    for bin in bins {
        eprintln!("=== running {bin} ===");
        match Command::new(dir.join(bin)).status() {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!(
                "failed to launch {bin}: {e} (build with `cargo build --release -p rnr-bench` first)"
            ),
        }
        failed.push(bin);
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

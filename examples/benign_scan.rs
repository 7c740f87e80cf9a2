//! Benign scan: the five paper workloads × seeds 0–99, each recorded for
//! 600k instructions and replayed at the RepChk0.125 checkpoint interval
//! through the full pipeline. A benign run must always verify and must
//! never be convicted; the scan names the (workload, seed) of every pipeline
//! error, unverified replay, or attack verdict, and exits non-zero if there
//! is one.
//!
//! ```sh
//! cargo run --release --example benign_scan
//! ```

use std::process::ExitCode;

use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::Workload;

const SEEDS: u64 = 100;

fn main() -> ExitCode {
    let mut failures = 0;
    for w in Workload::ALL {
        for seed in 0..SEEDS {
            let cfg = PipelineConfig {
                seed,
                duration_insns: 600_000,
                checkpoint_interval_secs: Some(0.125),
                ..PipelineConfig::default()
            };
            let problem = match Pipeline::new(w.spec(false), cfg).run() {
                Err(e) => Some(format!("pipeline error: {e}")),
                Ok(r) if !r.replay.verified => Some("replay not verified".to_string()),
                Ok(r) if r.attacks_confirmed() > 0 => {
                    Some(format!("{} attack verdict(s)", r.attacks_confirmed()))
                }
                Ok(_) => None,
            };
            if let Some(problem) = problem {
                eprintln!("FAIL ({}, seed {seed}): {problem}", w.label());
                failures += 1;
            }
        }
    }
    let runs = Workload::ALL.len() as u64 * SEEDS;
    if failures > 0 {
        eprintln!("benign scan: {failures} of {runs} runs failed");
        return ExitCode::FAILURE;
    }
    println!("benign scan: {runs} runs verified, 0 attack verdicts");
    ExitCode::SUCCESS
}

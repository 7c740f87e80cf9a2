//! Helpers shared by the integration tests.

use rnr_hypervisor::VmSpec;
use rnr_safe::{Farm, FarmConfig, PipelineConfig, PipelineReport, SessionSpec};

/// Runs `config` over `vm` as a farm of one session on `workers` pool
/// threads. The farm's cadence rule cuts the lone session into about
/// `2 × workers` spans, so this is how a test reaches span replay.
///
/// # Panics
///
/// Panics when the session fails.
pub fn farm_of_one(vm: VmSpec, config: PipelineConfig, workers: usize) -> PipelineReport {
    let farm = Farm::new(FarmConfig { workers, ..FarmConfig::default() });
    let outcome = farm.run(&[SessionSpec::new("one", vm, config)]).sessions.pop().expect("one session");
    outcome.result.unwrap_or_else(|e| panic!("farm of one on {workers} worker(s) failed: {e}"))
}

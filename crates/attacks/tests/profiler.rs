//! The heavier instrumentation level of §4.6.2 / Table 1: replay-side PC
//! profiling, including the DOS replay role ("analyze the code that has
//! dominated the system's execution time").

use std::sync::Arc;

use rnr_attacks::{dos_scenario, DosDetector};
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_replay::{ReplayConfig, Replayer};
use rnr_workloads::{Workload, WorkloadParams};

#[test]
fn profiling_does_not_perturb_determinism() {
    let spec = Workload::Mysql.spec(false);
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 3, 200_000)).unwrap().run();
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig { profile_sample_every: Some(97), ..ReplayConfig::default() };
    let mut r = Replayer::new(&spec, log, cfg);
    r.verify_against(rec.final_digest);
    let out = r.run().unwrap();
    assert_eq!(out.verified, Some(true));
    let samples: u64 = out.profile.values().sum();
    assert!(samples >= rec.retired / 97 - 2, "expected dense sampling, got {samples}");
}

#[test]
fn dos_replay_role_identifies_the_spinning_code() {
    // Record the interrupt-starvation DOS; the watchdog alarms; the replay
    // role profiles the execution and names the dominant code region.
    let params = WorkloadParams::default();
    let spec = dos_scenario(&params, 600);
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 1_500_000)).unwrap().run();
    let alarm_at = DosDetector::new(params.timer_period * 4, 1)
        .first_alarm(&rec.switch_trace, rec.cycles)
        .expect("DOS detected");
    assert!(alarm_at > 0);

    // Replay with profiling (the "analysis" replayer of Table 1 row 3).
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig { profile_sample_every: Some(101), ..ReplayConfig::default() };
    let out = Replayer::new(&spec, log, cfg).run().unwrap();
    // The dominant PC must be inside the spin loop of the malicious image.
    let (&dominant, &hits) = out.profile.iter().max_by_key(|&(_, &n)| n).expect("samples taken");
    let spin = spec.extra_images[1].require_symbol("dos_spin");
    assert!(
        dominant >= spin - 16 && dominant <= spin + 16,
        "dominant pc {dominant:#x} should be the spin at {spin:#x}"
    );
    let total: u64 = out.profile.values().sum();
    assert!(hits * 2 > total, "spin should dominate: {hits}/{total}");
}

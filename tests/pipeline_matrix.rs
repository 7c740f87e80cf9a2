//! The full pipeline across every workload: benign executions stay clean.

use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::Workload;

#[test]
fn all_workloads_survive_the_full_pipeline() {
    // Every workload at the default seed, plus Make seeds whose
    // thread-create trap fires late (an interrupt lands on the trapped
    // instruction, so the new thread runs before the trap).
    let cases = Workload::ALL
        .map(|w| (w, 42, 200_000, 0.25))
        .into_iter()
        .chain([(Workload::Make, 120, 600_000, 0.125), (Workload::Make, 252, 600_000, 0.125)]);
    for (w, seed, duration_insns, interval) in cases {
        let cfg = PipelineConfig {
            seed,
            duration_insns,
            checkpoint_interval_secs: Some(interval),
            ..PipelineConfig::default()
        };
        let label = format!("{} seed {seed}", w.label());
        let report = Pipeline::new(w.spec(false), cfg).run().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(report.replay.verified, "{label}");
        assert_eq!(report.attacks_confirmed(), 0, "{label}: false conviction");
        assert_eq!(report.record.priv_flag, 0, "{label}");
        // Every escalated alarm must have been resolved benign.
        assert_eq!(report.false_positives_resolved(), report.resolutions.len(), "{label}");
    }
}

#[test]
fn small_ras_increases_alarm_traffic_but_never_convicts_benign_runs() {
    // Shrinking the RAS multiplies underflows (hardware imprecision), yet
    // the replay side still clears everything — the RnR-Safe robustness
    // claim (§3.2) under an intentionally bad detector.
    let big = PipelineConfig { duration_insns: 250_000, ras_capacity: 48, ..PipelineConfig::default() };
    let small = PipelineConfig { duration_insns: 250_000, ras_capacity: 8, ..PipelineConfig::default() };
    let w = Workload::Make;
    let r_big = Pipeline::new(w.spec(false), big).run().unwrap();
    let r_small = Pipeline::new(w.spec(false), small).run().unwrap();
    assert!(
        r_small.record.alarms >= r_big.record.alarms,
        "smaller RAS must not reduce alarms: {} vs {}",
        r_small.record.alarms,
        r_big.record.alarms
    );
    assert_eq!(r_small.attacks_confirmed(), 0);
    assert_eq!(r_big.attacks_confirmed(), 0);
    assert!(r_small.replay.verified && r_big.replay.verified);
}

#[test]
fn block_engine_is_invisible_across_all_workloads() {
    // Every workload mixes interrupts, syscalls, I/O, and call/return
    // traffic differently; the block engine must be a pure wall-clock knob
    // on all of them.
    for w in Workload::ALL {
        let run = |block_engine: bool| {
            let cfg = PipelineConfig { duration_insns: 120_000, block_engine, ..PipelineConfig::default() };
            Pipeline::new(w.spec(false), cfg).run().unwrap_or_else(|e| panic!("{}: {e}", w.label()))
        };
        let blocked = run(true);
        let stepped = run(false);
        assert_eq!(blocked.to_json(), stepped.to_json(), "{}: block engine visible", w.label());
        assert_eq!(blocked.record.cycles, stepped.record.cycles, "{}", w.label());
    }
}

#[test]
fn report_json_is_well_formed() {
    let report = Pipeline::new(
        Workload::Radiosity.spec(false),
        PipelineConfig { duration_insns: 120_000, ..PipelineConfig::default() },
    )
    .run()
    .unwrap();
    let json = report.to_json();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value["record"]["workload"], "radiosity");
    assert!(value["replay"]["verified"].as_bool().unwrap());
}

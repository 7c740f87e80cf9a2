//! Cross-crate determinism properties: the foundation RnR-Safe stands on.

mod common;

use std::sync::Arc;

use common::farm_of_one;
use proptest::prelude::*;
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_replay::{ReplayConfig, Replayer};
use rnr_workloads::Workload;

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop::sample::select(Workload::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any workload, any seed: replay reproduces the recorded final state
    /// bit-exactly, including guest outputs.
    #[test]
    fn replay_is_bit_exact(w in workload_strategy(), seed in 0u64..1000) {
        let spec = w.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, seed, 120_000))
            .unwrap()
            .run();
        prop_assert!(rec.fault.is_none());
        let mut r = Replayer::new(&spec, Arc::clone(&rec.log), ReplayConfig::default());
        r.verify_against(rec.final_digest);
        let out = r.run().unwrap();
        prop_assert_eq!(out.verified, Some(true));
        prop_assert_eq!(out.retired, rec.retired);
        prop_assert_eq!(out.console, rec.console);
    }

    /// Recording twice with the same seed is identical; different seeds
    /// diverge (the log really carries the non-determinism).
    #[test]
    fn recording_is_seed_deterministic(w in workload_strategy(), seed in 0u64..1000) {
        let spec = w.spec(false);
        let run = |s| Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, s, 60_000)).unwrap().run();
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a.final_digest, b.final_digest);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.log.total_bytes(), b.log.total_bytes());
    }
}

/// The checkpoint interval must not perturb the replayed execution, only
/// its cost: all intervals converge to the same final state.
#[test]
fn checkpoint_interval_does_not_change_replayed_state() {
    let spec = Workload::Fileio.spec(false);
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 7, 200_000)).unwrap().run();
    let log = Arc::clone(&rec.log);
    let mut digests = Vec::new();
    for interval in [None, Some(100_000), Some(400_000), Some(2_000_000)] {
        let cfg = ReplayConfig { checkpoint_interval: interval, ..ReplayConfig::default() };
        let out = Replayer::new(&spec, Arc::clone(&log), cfg).run().unwrap();
        digests.push(out.final_digest);
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    assert_eq!(digests[0], rec.final_digest);
}

/// Alarm replay from a mid-run checkpoint converges to the same final
/// state as replaying from the beginning.
#[test]
fn replay_from_checkpoint_converges() {
    use rnr_attacks::mount_kernel_rop;
    use rnr_workloads::WorkloadParams;
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 700_000)).unwrap().run();
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig { checkpoint_interval: Some(400_000), ..ReplayConfig::default() };
    let cr = Replayer::new(&spec, Arc::clone(&log), cfg.clone()).run().unwrap();
    assert_eq!(cr.final_digest, rec.final_digest);
    let case = cr.alarm_cases.first().expect("attack escalates an alarm");
    assert!(case.checkpoint.at_insn > 0, "mid-run checkpoint expected");
    // Resume from the checkpoint and run to the end of the log.
    let resume_cfg = ReplayConfig { checkpoint_interval: None, collect_cases: false, ..cfg };
    let resumed = Replayer::from_checkpoint(&spec, log, resume_cfg, &case.checkpoint, false).run().unwrap();
    assert_eq!(resumed.final_digest, rec.final_digest);
    assert_eq!(resumed.retired, rec.retired);
}

/// A disk read that finishes while its interrupt cannot yet be delivered
/// lands in guest memory only with the interrupt, exactly where replay
/// applies it (at the `Interrupt` record). Fileio at 600k instructions,
/// seeds 163 and 173, stops recording inside that window; the final digests
/// must still match under the default and reference (everything off)
/// pipeline configurations and under span replay in a farm of one.
#[test]
fn disk_completion_at_the_budget_edge_verifies() {
    use rnr_safe::{Pipeline, PipelineConfig};
    for seed in [163, 173] {
        let default = PipelineConfig { seed, duration_insns: 600_000, ..PipelineConfig::default() };
        let spans = farm_of_one(Workload::Fileio.spec(false), default.clone(), 2);
        assert!(spans.replay.verified, "seed {seed}, spans");
        let configs = [
            ("default", default.clone()),
            (
                "reference",
                PipelineConfig {
                    streaming: false,
                    decode_cache: false,
                    block_engine: false,
                    superblocks: false,
                    parallel_alarm_replay: false,
                    ..default
                },
            ),
        ];
        for (name, cfg) in configs {
            let report = Pipeline::new(Workload::Fileio.spec(false), cfg)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed}, {name}: {e}"));
            assert!(report.replay.verified, "seed {seed}, {name}");
        }
    }
}

/// An audit stop (`rnr audit --insn N`, §3.2) placed before a RAS alarm
/// stops exactly there: the replayer reads the alarm's instruction count
/// before running into it, as it does for every other record that carries
/// one.
#[test]
fn audit_stop_before_a_ras_alarm_is_exact() {
    use rnr_attacks::mount_kernel_rop;
    use rnr_log::Record;
    use rnr_workloads::WorkloadParams;
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 700_000)).unwrap().run();
    let (index, alarm_at) = rec
        .log
        .records()
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r {
            Record::Alarm(info) => Some((i, info.at_insn)),
            _ => None,
        })
        .expect("the attack logs a RAS alarm");
    let cfg = ReplayConfig { checkpoint_interval: None, collect_cases: false, ..ReplayConfig::default() };
    let replayer = || Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone());
    // Where replay stands once every record before the alarm is consumed.
    let mut r = replayer();
    r.stop_after_record(index - 1);
    let before = r.run().unwrap().retired;
    let stop = alarm_at - 1000;
    assert!(before < stop, "the alarm at {alarm_at} follows the previous record at {before} closely");
    let mut r = replayer();
    r.stop_at_insn(stop);
    assert_eq!(r.run().unwrap().retired, stop);
}

//! Table 1: three example uses of RnR-Safe — ROP (this paper), JOP, DOS —
//! each demonstrated live on the simulator.

use rnr_attacks::{dos_control, dos_scenario, DosDetector};
use rnr_bench::{emit, Table, SEED};
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::WorkloadParams;

fn main() {
    let mut t = Table::new(&["attack", "alarm trigger", "first detection", "replay role", "demo result"]);

    // Row 1: ROP (the paper's main subject) — full pipeline on the mounted
    // attack.
    let (spec, _plan) = rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let report = Pipeline::new(
        spec,
        PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ..Default::default()
        },
    )
    .run()
    .unwrap();
    t.row(vec![
        "ROP".into(),
        "RAS misprediction".into(),
        "multithreaded RAS + whitelist".into(),
        "kernel-compatible shadow stack".into(),
        format!("{} attack(s) confirmed", report.attacks_confirmed()),
    ]);

    // Row 2: JOP — the hardware common-function table, recorded end to end,
    // with replay-side resolution against the full table.
    let (jop_spec, jop_plan) = rnr_attacks::mount_jop(900_000);
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, 700_000);
    rc.jop_common_functions = Some(jop_plan.hw_table_limit);
    let jop_rec = Recorder::new(&jop_spec, rc).unwrap().run();
    let jop_out = rnr_replay::Replayer::new(
        &jop_spec,
        std::sync::Arc::clone(&jop_rec.log),
        rnr_replay::ReplayConfig::default(),
    )
    .run()
    .unwrap();
    let mut jop_attacks = 0;
    let mut jop_fps = 0;
    for case in &jop_out.jop_cases {
        match rnr_replay::resolve_jop(&jop_spec, case) {
            rnr_replay::JopVerdict::JopAttack => jop_attacks += 1,
            rnr_replay::JopVerdict::FalsePositive => jop_fps += 1,
        }
    }
    t.row(vec![
        "JOP".into(),
        "stray indirect branch/call".into(),
        format!("table of {} common functions", jop_plan.hw_table_limit),
        "verify against the full function list".into(),
        format!("{jop_attacks} attack(s) convicted, {jop_fps} false positives cleared"),
    ]);

    // Row 3: DOS — the context-switch watchdog on the interrupt-starvation
    // scenario vs the healthy control.
    let run = |spec: &rnr_hypervisor::VmSpec| {
        Recorder::new(spec, RecordConfig::new(RecordMode::Rec, SEED, 1_500_000)).unwrap().run()
    };
    let attack = run(&dos_scenario(&WorkloadParams::default(), 600));
    let control = run(&dos_control(&WorkloadParams::default()));
    let window = 600_000; // four timer periods
    let alarm = DosDetector::new(window, 1).first_alarm(&attack.switch_trace, attack.cycles);
    let control_alarm = DosDetector::new(window, 1).first_alarm(&control.switch_trace, control.cycles);
    t.row(vec![
        "DOS".into(),
        "kernel scheduler inactivity".into(),
        "context-switch counter watchdog".into(),
        "identify the code dominating execution".into(),
        format!("attack alarm at cycle {alarm:?}; control: {control_alarm:?}"),
    ]);

    emit("Table 1: example uses of RnR-Safe", &t);
}

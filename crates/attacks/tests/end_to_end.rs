//! The paper's headline flow, end to end: mount the §6 kernel ROP attack,
//! record it, replay it, resolve the alarm, characterize the attack.

use std::sync::Arc;

use rnr_attacks::{dos_control, dos_scenario, mount_kernel_rop, DosDetector};
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_replay::{AlarmReplayer, ReplayConfig, Replayer, Verdict, VIRTUAL_HZ};
use rnr_workloads::{Workload, WorkloadParams};

const ATTACK_CYCLE: u64 = 1_200_000;
const RUN_INSNS: u64 = 900_000;

fn attack_recording() -> (rnr_hypervisor::VmSpec, rnr_attacks::AttackPlan, rnr_hypervisor::RecordOutcome) {
    let (spec, plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), ATTACK_CYCLE).unwrap();
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, RUN_INSNS)).unwrap().run();
    (spec, plan, rec)
}

#[test]
fn attack_raises_alarms_and_escalates_privilege() {
    let (_spec, _plan, rec) = attack_recording();
    assert!(rec.fault.is_none(), "attack should get away cleanly: {:?}", rec.fault);
    assert!(rec.alarms > 0, "the hijacked return must mispredict");
    // The recorded VM was NOT stalled at the alarm (continue policy), so
    // the gadget chain ran and escalated privilege.
    assert_eq!(rec.priv_flag, 0x1337, "grant_root must have run");
}

#[test]
fn benign_vulnerable_server_raises_no_mismatch_alarms() {
    // Same server, no crafted packet: benign traffic must stay quiet.
    let spec = Workload::vulnerable_server(&WorkloadParams::attack_demo());
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, RUN_INSNS)).unwrap().run();
    assert!(rec.fault.is_none());
    assert_eq!(rec.priv_flag, 0, "no escalation without the exploit");
    // Any alarms present must be underflows (deep driver recursion), never
    // target mismatches.
    for (_, alarm) in rec.log.alarms() {
        assert_eq!(alarm.mispredict.kind, rnr_ras::MispredictKind::Underflow, "{alarm:?}");
    }
}

#[test]
fn checkpointing_replayer_escalates_the_attack_alarm() {
    let (spec, _plan, rec) = attack_recording();
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig { checkpoint_interval: Some(VIRTUAL_HZ / 8), ..ReplayConfig::default() };
    let mut cr = Replayer::new(&spec, log, cfg);
    cr.verify_against(rec.final_digest);
    let out = cr.run().unwrap();
    assert_eq!(out.verified, Some(true), "attack replays deterministically");
    assert!(!out.alarm_cases.is_empty(), "the ROP alarm must escalate to an alarm replayer");
    // The checkpoint handed over precedes the alarm.
    let case = &out.alarm_cases[0];
    assert!(case.checkpoint.at_insn <= case.at_insn());
}

#[test]
fn alarm_replayer_convicts_the_attack_and_characterizes_it() {
    let (spec, plan, rec) = attack_recording();
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig { checkpoint_interval: Some(VIRTUAL_HZ / 8), ..ReplayConfig::default() };
    let out = Replayer::new(&spec, Arc::clone(&log), cfg).run().unwrap();
    assert!(!out.alarm_cases.is_empty());

    let ar = AlarmReplayer::new(&spec, log);
    let (verdict, _ar_out) = ar.resolve(&out.alarm_cases[0]).unwrap();
    let Verdict::RopAttack(report) = verdict else {
        panic!("expected a ROP conviction, got {verdict:?}");
    };
    // "How was the attack possible": the vulnerable procedure.
    assert_eq!(report.vulnerable_symbol.as_deref(), Some("proc_msg"));
    // Control went to G1.
    assert_eq!(report.actual_target, plan.g1);
    // The decoded payload exposes the rest of the chain on the stack.
    let chain_values: Vec<u64> = report.gadget_chain.iter().map(|g| g.value).collect();
    assert!(chain_values.contains(&plan.fptr_slot), "chain {chain_values:#x?}");
    assert!(chain_values.contains(&plan.g2));
    assert!(chain_values.contains(&plan.g3));
    // At the alarm point the gadgets have NOT run yet: state unpolluted.
    assert_eq!(report.priv_flag_at_alarm, 0);
    // "Who attacked": a live thread table is part of the report.
    assert!(!report.threads.is_empty());
    // The G2 gadget listing names the fetch through the pointer.
    let g2_use = report.gadget_chain.iter().find(|g| g.value == plan.g2).unwrap();
    assert_eq!(g2_use.listing.as_deref(), Some("ld r9, [r1+0]; ret"));
}

#[test]
fn benign_alarms_resolve_as_false_positives() {
    // Force benign alarms: make's longjmp (imperfect nesting) with a small
    // RAS also produces underflows.
    let spec = Workload::Make.spec(false);
    let mut rc = RecordConfig::new(RecordMode::Rec, 11, 700_000);
    rc.ras_capacity = 12;
    let rec = Recorder::new(&spec, rc).unwrap().run();
    assert!(rec.fault.is_none());
    assert_eq!(rec.priv_flag, 0);
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig {
        checkpoint_interval: Some(VIRTUAL_HZ / 8),
        ras_capacity: 12,
        ..ReplayConfig::default()
    };
    let mut cr = Replayer::new(&spec, Arc::clone(&log), cfg);
    cr.verify_against(rec.final_digest);
    let out = cr.run().unwrap();
    assert_eq!(out.verified, Some(true));
    let ar = AlarmReplayer::new(&spec, log)
        .with_config(ReplayConfig { ras_capacity: 12, ..ReplayConfig::default() });
    for case in &out.alarm_cases {
        let (verdict, _) = ar.resolve(case).unwrap();
        assert!(!verdict.is_attack(), "benign alarm misclassified as attack: {:?} -> {verdict:?}", case.kind);
    }
}

#[test]
fn dos_watchdog_fires_on_scheduler_starvation() {
    let spec = dos_scenario(&WorkloadParams::default(), 600);
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 1_500_000)).unwrap().run();
    assert!(rec.fault.is_none());
    // The spin thread eventually wedges the scheduler.
    let det = DosDetector::new(spec.timer_period * 4, 1);
    let alarm = det.first_alarm(&rec.switch_trace, rec.cycles);
    assert!(alarm.is_some(), "DOS must be detected (switches: {})", rec.switch_trace.len());

    // Control: the same workload without the malicious thread stays quiet.
    let benign = dos_control(&WorkloadParams::default());
    let brec = Recorder::new(&benign, RecordConfig::new(RecordMode::Rec, 42, 1_500_000)).unwrap().run();
    let det = DosDetector::new(benign.timer_period * 4, 1);
    assert_eq!(det.first_alarm(&brec.switch_trace, brec.cycles), None);
}

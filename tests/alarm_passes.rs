//! Alarm-replay passes (§4.6.2, Fig. 9): one replayer started from a
//! checkpoint resolves every alarm case that shares it, in log order. A
//! replay stopped after a record and then resumed is the same replay, so
//! every verdict — full report included — and every alarm-replay cycle count
//! must equal what a replay started for that case alone gives. Cases come
//! from the serial CR and from span-parallel replay, whose checkpoints are
//! materialized by re-running a span.

use std::sync::Arc;

use rnr_hypervisor::{RecordConfig, RecordMode, Recorder, VmSpec};
use rnr_log::{InputLog, Record};
use rnr_replay::{
    checkpoint_groups, replay_spans, AlarmCase, AlarmReplayer, CaseKind, ReplayConfig, ReplayError, Replayer,
    SpanFeed, VIRTUAL_HZ,
};
use rnr_vrt::VrtParams;
use rnr_workloads::{Workload, WorkloadParams};

const SEED: u64 = 42;

/// One recorded session's escalated cases and the alarm replayer over it.
struct Session {
    spec: VmSpec,
    log: Arc<InputLog>,
    ar_cfg: ReplayConfig,
    cases: Vec<AlarmCase>,
}

/// Records `spec` for `insns` instructions and runs the CR with a
/// checkpoint every `secs` virtual seconds — serially when `span_workers`
/// is 0, else span-parallel — with the pipeline's recorder and replay
/// settings.
fn session(spec: VmSpec, insns: u64, secs: f64, vrt: bool, span_workers: usize) -> Session {
    let vrt = vrt.then(VrtParams::default);
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, insns);
    rc.vrt = vrt.clone();
    if span_workers > 0 {
        rc.span_seed_every_insns = Some((insns / (span_workers as u64 * 4)).max(15_000));
    }
    let rec = Recorder::new(&spec, rc).expect("recorder").run();
    assert!(rec.fault.is_none(), "guest fault while recording: {:?}", rec.fault);
    let cfg = ReplayConfig {
        checkpoint_interval: Some((secs * VIRTUAL_HZ as f64) as u64),
        parallel_spans: span_workers,
        vrt,
        ..ReplayConfig::default()
    };
    let out = if span_workers > 0 {
        let feed = SpanFeed::Complete { log: Arc::clone(&rec.log), seeds: rec.span_seeds.clone() };
        replay_spans(&spec, feed, &cfg, Some(rec.final_digest)).expect("span CR").outcome
    } else {
        let mut cr = Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone());
        cr.verify_against(rec.final_digest);
        cr.run().expect("serial CR")
    };
    assert_eq!(out.verified, Some(true), "CR must verify");
    Session { spec, log: rec.log, ar_cfg: ReplayConfig { parallel_spans: 0, ..cfg }, cases: out.alarm_cases }
}

fn attack_session() -> Session {
    let (spec, _plan) = rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    session(spec, 900_000, 0.125, false, 0)
}

/// Resolves every case on one pass per checkpoint and on a pass of its own,
/// and asserts both agree exactly. Returns the checkpoint groups.
fn assert_passes_match_solo(s: &Session) -> Vec<Vec<usize>> {
    let ar = AlarmReplayer::new(&s.spec, Arc::clone(&s.log)).with_config(s.ar_cfg.clone());
    let groups = checkpoint_groups(&s.cases);
    let mut seen: Vec<usize> = groups.concat();
    seen.sort_unstable();
    assert_eq!(seen, (0..s.cases.len()).collect::<Vec<_>>(), "every case lands in exactly one group");
    for group in &groups {
        let checkpoint = &s.cases[group[0]].checkpoint;
        let mut pass = ar.pass(checkpoint);
        for &i in group {
            let case = &s.cases[i];
            assert_eq!(case.checkpoint.id, checkpoint.id, "a group shares one checkpoint");
            let (verdict, cycles) =
                pass.resolve_next(case).unwrap_or_else(|e| panic!("case {i} on its pass: {e}"));
            let (solo, solo_cycles) = ar.resolve(case).unwrap_or_else(|e| panic!("case {i} alone: {e}"));
            assert_eq!(format!("{verdict:?}"), format!("{solo:?}"), "case {i}: verdict");
            assert_eq!(cycles, solo_cycles, "case {i}: alarm-replay cycles");
        }
    }
    groups
}

#[test]
fn attack_cases_resolve_on_one_pass_as_if_alone() {
    let s = attack_session();
    let at: Vec<u64> = s.cases.iter().map(AlarmCase::at_insn).collect();
    assert_eq!(at, vec![200_159, 200_161, 200_163], "the attack's escalated alarms at seed {SEED}");
    let groups = assert_passes_match_solo(&s);
    // All three share one checkpoint, so a mid-pass fault restarts a pass
    // from the same checkpoint (the fault matrix's `*-mid-pass` scenarios).
    assert_eq!(groups, vec![vec![0, 1, 2]]);
    assert_eq!(s.cases[0].checkpoint.id, 2);
}

#[test]
fn longjmp_vrt_cases_resolve_on_one_pass_as_if_alone() {
    let s = session(Workload::Longjmp.spec(false), 600_000, 1.0, true, 0);
    assert!(s.cases.iter().any(|c| matches!(c.kind, CaseKind::Ras(_))), "RAS cases escalate");
    assert!(s.cases.iter().any(|c| matches!(c.kind, CaseKind::Vrt(_))), "VRT cases escalate");
    let groups = assert_passes_match_solo(&s);
    assert!(groups.iter().any(|g| g.len() > 1), "some pass resolves several cases: {groups:?}");
}

#[test]
fn materialized_span_checkpoints_resolve_on_one_pass_as_if_alone() {
    let s = session(Workload::HeapServer.spec(false), 600_000, 0.125, true, 2);
    assert_eq!(s.cases.len(), 27, "HeapServer's escalated VRT alarms at seed {SEED}");
    let groups = assert_passes_match_solo(&s);
    let ids: Vec<u64> = groups.iter().map(|g| s.cases[g[0]].checkpoint.id).collect();
    assert_eq!(ids, (0..7).collect::<Vec<u64>>(), "seven groups on materialized checkpoints 0-6");
}

/// A case whose `alarm_index` does not name its alarm record must fail as a
/// divergence — never classify whatever state that record leaves (a silent
/// false negative), and never panic.
#[test]
fn misaligned_cases_are_divergences_not_verdicts() {
    let s = attack_session();
    let ar = AlarmReplayer::new(&s.spec, Arc::clone(&s.log)).with_config(s.ar_cfg.clone());
    let case = &s.cases[0];
    assert!(ar.resolve(case).expect("the true case resolves").0.is_attack(), "the true case convicts");

    let diverges = |what: &str, result: Result<_, ReplayError>| match result {
        Err(ReplayError::Divergence { .. }) => {}
        Err(other) => panic!("{what}: want a divergence, got {other}"),
        Ok((verdict, _)) => panic!("{what}: resolved to {verdict:?}"),
    };
    let records = s.log.records();
    let at = |alarm_index| AlarmCase { alarm_index, ..case.clone() };
    assert!(!matches!(records[case.alarm_index - 1], Record::Alarm(_)), "the record before is not an alarm");
    diverges("one record early", ar.resolve(&at(case.alarm_index - 1)));
    diverges("the End marker", ar.resolve(&at(records.len() - 1)));
    diverges("past the end of the log", ar.resolve(&at(records.len() + 3)));
    let mut moved = case.clone();
    let CaseKind::Ras(info) = &mut moved.kind else { panic!("the attack's cases are RAS alarms") };
    info.at_insn += 1;
    diverges("another instruction's alarm", ar.resolve(&moved));
    let CaseKind::Ras(info) = case.kind else { unreachable!() };
    let vrt = rnr_log::VrtAlarmInfo {
        tid: info.tid,
        kind: rnr_vrt::VrtKind::Heap,
        addr: 0,
        at_insn: info.at_insn,
        at_cycle: info.at_cycle,
    };
    diverges(
        "the other detector family",
        ar.resolve(&AlarmCase { kind: CaseKind::Vrt(vrt), ..case.clone() }),
    );

    let mut pass = ar.pass(&case.checkpoint);
    pass.resolve_next(&s.cases[1]).expect("a later case on a fresh pass");
    diverges("an already-passed case", pass.resolve_next(case));
    diverges("the same case twice", pass.resolve_next(&s.cases[1]));
}

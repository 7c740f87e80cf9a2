//! Alarm-replay passes (§4.6.2, Fig. 9): one replayer started from a
//! checkpoint resolves every alarm case that shares it, in log order. A
//! replay stopped after a record and then resumed is the same replay, so
//! every verdict — full report included — and every alarm-replay cycle count
//! must equal what a replay started for that case alone gives. Cases come
//! from the serial CR and from span replay (the replay farm's primitives),
//! whose checkpoints are materialized by re-running a span — and must equal
//! the serial CR's, field by field.

use std::sync::Arc;

use rnr_hypervisor::{RecordConfig, RecordMode, Recorder, VmSpec};
use rnr_log::{InputLog, Record, TransportStats};
use rnr_ras::RasConfig;
use rnr_replay::{
    assemble_spans, checkpoint_groups, plan_spans, run_planned_span, AlarmCase, AlarmReplayer, CaseKind,
    Checkpoint, ReplayConfig, ReplayError, Replayer, VIRTUAL_HZ,
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
    /// The CR's `(cycles, checkpoints_taken, checkpoints_live_max)`.
    cr: (u64, u64, usize),
}

/// Records `spec` for `insns` instructions and runs the CR with a
/// checkpoint every `secs` virtual seconds — serially, or, when `span_every`
/// sets a seed cadence, cut into spans at the recorder's seeds and folded
/// back — with the pipeline's recorder and replay settings.
fn session(spec: VmSpec, insns: u64, secs: f64, vrt: bool, span_every: Option<u64>) -> Session {
    session_with_ras(spec, insns, secs, vrt, span_every, RasConfig::DEFAULT_CAPACITY)
}

/// [`session`] with a RAS of `ras` entries, recorded and replayed.
fn session_with_ras(
    spec: VmSpec,
    insns: u64,
    secs: f64,
    vrt: bool,
    span_every: Option<u64>,
    ras: usize,
) -> Session {
    let vrt = vrt.then(VrtParams::default);
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, insns);
    rc.vrt = vrt.clone();
    rc.span_seed_every_insns = span_every;
    rc.ras_capacity = ras;
    let rec = Recorder::new(&spec, rc).expect("recorder").run();
    assert!(rec.fault.is_none(), "guest fault while recording: {:?}", rec.fault);
    let cfg = ReplayConfig {
        checkpoint_interval: Some((secs * VIRTUAL_HZ as f64) as u64),
        ras_capacity: ras,
        vrt,
        ..ReplayConfig::default()
    };
    let out = if span_every.is_some() {
        let jobs = plan_spans(&rec.log, &rec.span_seeds, &cfg.fault_plan);
        let results = jobs.iter().map(|job| run_planned_span(&spec, &cfg, None, job)).collect();
        let digest = Some(rec.final_digest);
        assemble_spans(
            &spec,
            &cfg,
            None,
            rec.log.records(),
            &jobs,
            results,
            digest,
            TransportStats::default(),
        )
        .expect("span CR")
        .outcome
    } else {
        let mut cr = Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone());
        cr.verify_against(rec.final_digest);
        cr.run().expect("serial CR")
    };
    assert_eq!(out.verified, Some(true), "CR must verify");
    let cr = (out.cycles, out.checkpoints_taken, out.checkpoints_live_max);
    Session { spec, log: rec.log, ar_cfg: cfg, cases: out.alarm_cases, cr }
}

fn attack_spec() -> VmSpec {
    rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap().0
}

fn attack_session() -> Session {
    session(attack_spec(), 900_000, 0.125, false, None)
}

/// Asserts two checkpoints equal field by field, pages and disk by content.
fn assert_checkpoints_equal(span: &Checkpoint, serial: &Checkpoint, what: &str) {
    assert_eq!(span.id, serial.id, "{what}: id");
    assert_eq!(span.at_insn, serial.at_insn, "{what}: at_insn");
    assert_eq!(span.at_cycle, serial.at_cycle, "{what}: at_cycle");
    assert_eq!(span.cursor, serial.cursor, "{what}: cursor");
    assert_eq!(span.evict_store, serial.evict_store, "{what}: evict store");
    assert_eq!(span.dirty_pages, serial.dirty_pages, "{what}: dirty pages");
    assert_eq!(span.dirty_blocks, serial.dirty_blocks, "{what}: dirty blocks");
    assert_eq!(span.current_tid, serial.current_tid, "{what}: current thread");
    assert_eq!(span.dying, serial.dying, "{what}: dying thread");
    assert_eq!(span.cpu, serial.cpu, "{what}: CPU state");
    assert_eq!(span.backras, serial.backras, "{what}: BackRAS");
    assert_eq!(span.mem_pages.len(), serial.mem_pages.len(), "{what}: page count");
    for (i, (a, b)) in span.mem_pages.iter().zip(serial.mem_pages.iter()).enumerate() {
        assert!(a[..] == b[..], "{what}: page {i}");
    }
    assert_eq!(span.disk.in_flight(), serial.disk.in_flight(), "{what}: disk operation in flight");
    let (a, b) = (span.disk.blocks(), serial.disk.blocks());
    assert_eq!(a.len(), b.len(), "{what}: disk block count");
    for (i, (a, b)) in a.iter().zip(b.iter()).enumerate() {
        assert!(a[..] == b[..], "{what}: disk block {i}");
    }
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
    let s = session(Workload::Longjmp.spec(false), 600_000, 1.0, true, None);
    assert!(s.cases.iter().any(|c| matches!(c.kind, CaseKind::Ras(_))), "RAS cases escalate");
    assert!(s.cases.iter().any(|c| matches!(c.kind, CaseKind::Vrt(_))), "VRT cases escalate");
    let groups = assert_passes_match_solo(&s);
    assert!(groups.iter().any(|g| g.len() > 1), "some pass resolves several cases: {groups:?}");
}

#[test]
fn materialized_span_checkpoints_resolve_on_one_pass_as_if_alone() {
    let s = session(Workload::HeapServer.spec(false), 600_000, 0.125, true, Some(75_000));
    assert_eq!(s.cases.len(), 27, "HeapServer's escalated VRT alarms at seed {SEED}");
    let groups = assert_passes_match_solo(&s);
    let ids: Vec<u64> = groups.iter().map(|g| s.cases[g[0]].checkpoint.id).collect();
    assert_eq!(ids, (0..7).collect::<Vec<u64>>(), "seven groups on materialized checkpoints 0-6");
}

/// The span CR's checkpoints — a seed restored by each worker, then
/// re-run and captured at each placement the fold scheduled — are the serial
/// CR's: same cases, same clock and checkpoint counts, and every case's
/// checkpoint equal to its serial twin in every field alarm replay could
/// read and every one it does not. Make on an 8-entry RAS leaves evict
/// records outstanding at its case checkpoints, which the default RAS of
/// the other two sessions never does, so the evict store is compared too.
#[test]
fn span_checkpoints_equal_the_serial_crs() {
    let shapes = [
        ("HeapServer", Workload::HeapServer.spec(false), 600_000, true, 75_000, RasConfig::DEFAULT_CAPACITY),
        ("attack", attack_spec(), 900_000, false, 150_000, RasConfig::DEFAULT_CAPACITY),
        ("Make, RAS 8", Workload::Make.spec(false), 600_000, false, 75_000, 8),
    ];
    let mut with_evicts = 0;
    for (name, spec, insns, vrt, cut, ras) in shapes {
        let span = session_with_ras(spec.clone(), insns, 0.125, vrt, Some(cut), ras);
        let serial = session_with_ras(spec, insns, 0.125, vrt, None, ras);
        assert_eq!(span.cases.len(), serial.cases.len(), "{name}: escalated cases");
        assert!(
            span.cases.iter().any(|c| c.checkpoint.at_insn > cut),
            "{name}: some checkpoint is materialized from a span seed"
        );
        assert_eq!(span.cr, serial.cr, "{name}: CR cycles, checkpoints taken, live maximum");
        for (i, (a, b)) in span.cases.iter().zip(&serial.cases).enumerate() {
            assert_eq!((a.alarm_index, a.cr_cycle), (b.alarm_index, b.cr_cycle), "{name} case {i}");
            assert_checkpoints_equal(&a.checkpoint, &b.checkpoint, &format!("{name} case {i}"));
            with_evicts += usize::from(!b.checkpoint.evict_store.is_empty());
        }
    }
    assert!(with_evicts > 0, "some compared checkpoint holds outstanding evict records");
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

//! End-to-end fault-injection tests: the self-healing pipeline must absorb
//! every recoverable seeded fault without changing the report, and fail
//! structurally (never panic) on the unrecoverable one.

mod common;

use common::farm_of_one;
use rnr_log::{
    apply_disk_fault, fault_scenarios, segment_file_name, unrecoverable_scenario, DiskFault, DiskFaultKind,
    DurableLogConfig, DurableStore, DurableWriter, FaultPlan, TransportFault, TransportFaultKind,
};
use rnr_replay::ReplayError;
use rnr_safe::{Pipeline, PipelineConfig, PipelineError, PipelineReport};
use rnr_workloads::{Workload, WorkloadParams};

const SEED: u64 = 42;

/// A unique per-test scratch directory for durable-log stores, removed when
/// the test ends (pass or fail) so `cargo test` leaves no stray files.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("rnr-fi-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One frame per segment so segment indices equal frame sequence numbers.
fn durable_cfg(dir: &std::path::Path) -> DurableLogConfig {
    let mut d = DurableLogConfig::new(dir.to_path_buf());
    d.frames_per_segment = 1;
    d
}

/// The attack pipeline under one fault plan — same workload and knobs as
/// the pipeline-equivalence suite, so alarms, escalation, and a confirmed
/// ROP verdict are all on the replay path the faults disturb.
fn attack_run(plan: FaultPlan) -> Result<PipelineReport, PipelineError> {
    let (spec, _attack) =
        rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
    let cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        fault_plan: plan,
        ..PipelineConfig::default()
    };
    Pipeline::new(spec, cfg).run()
}

#[test]
fn empty_fault_plan_reports_no_recovery_activity() {
    let report = attack_run(FaultPlan::default()).expect("fault-free pipeline completes");
    assert!(report.replay.verified);
    assert!(!report.recovery.any(), "clean run must not report recovery: {:?}", report.recovery);
    assert!(report.recovery.rewind_trail.is_empty());
}

#[test]
fn every_recoverable_scenario_heals_to_an_identical_report() {
    let reference = attack_run(FaultPlan::default()).expect("fault-free pipeline completes");
    let reference_json = reference.to_json();
    let mut ar_counters = std::collections::HashMap::new();
    for (name, plan) in fault_scenarios(SEED) {
        let report = attack_run(plan).unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
        assert!(report.replay.verified, "{name}: final digest must still verify");
        assert_eq!(report.to_json(), reference_json, "{name}: recovered report must be byte-identical");
        assert!(report.recovery.any(), "{name}: the fault must leave a trace in the recovery block");
        assert!(report.recovery.failed_cases.is_empty(), "{name}: no alarm case may stay unresolved");
        let r = &report.recovery;
        ar_counters.insert(name, (r.ar_case_retries, r.ar_panics_caught, r.ar_workers_lost));
    }
    // An alarm-replay fault in the middle of a pass (the attack's cases
    // share one checkpoint) heals with the same accounting as one at case 0.
    for name in ["ar-worker-panic", "ar-transient-divergence", "ar-worker-killed"] {
        let mid = format!("{name}-mid-pass");
        assert_eq!(ar_counters[mid.as_str()], ar_counters[name], "{mid}: AR recovery counters");
    }
}

#[test]
fn transport_faults_heal_on_a_benign_workload_too() {
    let cfg = |plan| PipelineConfig { duration_insns: 250_000, fault_plan: plan, ..Default::default() };
    let reference =
        Pipeline::new(Workload::Mysql.spec(false), cfg(FaultPlan::default())).run().expect("clean run");
    let plan = FaultPlan {
        seed: SEED,
        transport: vec![TransportFault {
            seq: 1,
            kind: TransportFaultKind::CorruptBit,
            poison_retained: false,
        }],
        ..FaultPlan::default()
    };
    let report = Pipeline::new(Workload::Mysql.spec(false), cfg(plan)).run().expect("healed run");
    assert_eq!(report.to_json(), reference.to_json());
    assert!(report.recovery.transport.faults_detected >= 1);
    assert_eq!(report.recovery.transport.batches_refetched, 1);
    assert!(report.recovery.cr_rewinds >= 1);
    assert_eq!(report.recovery.rewind_trail.len(), report.recovery.cr_rewinds as usize);
}

/// Span replay in a farm of one on two workers: the injected CR divergence
/// heals by re-running its span.
#[test]
fn cr_divergence_rewinds_and_refetches_under_parallel_span_replay() {
    let run = |plan| {
        let (spec, _attack) =
            rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
        let cfg = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            fault_plan: plan,
            ..PipelineConfig::default()
        };
        farm_of_one(spec, cfg, 2)
    };
    let reference = run(FaultPlan::default());
    assert!(!reference.recovery.any(), "clean parallel run must not report recovery");
    let plan = FaultPlan { seed: SEED, cr_divergence_at_insn: Some(240_000), ..FaultPlan::default() };
    let report = run(plan);
    assert_eq!(report.to_json(), reference.to_json(), "healed parallel report must be byte-identical");
    assert!(report.replay.verified);
    // The owning span re-executes from its seed: that rewind-and-refetch is
    // accounted exactly like a serial rewind to the last checkpoint.
    assert!(report.recovery.cr_rewinds >= 1, "span retry must be recorded as a rewind");
    assert!(!report.recovery.rewind_trail.is_empty());
}

/// The VRT detector family rides the same self-healing replay path as the
/// RAS: the mounted heap-overflow attack, VRT-armed, heals a corrupted
/// transport batch, a CR divergence, and an injected AR panic back to the
/// clean report — heap-overflow conviction and dismissed false positives
/// included.
#[test]
fn vrt_armed_heap_attack_heals_to_an_identical_report() {
    use rnr_safe::VerdictSummary;
    let run = |plan: FaultPlan| {
        let (spec, _attack) = rnr_attacks::mount_heap_overflow(&WorkloadParams::default(), 40);
        let cfg = PipelineConfig {
            duration_insns: 600_000,
            checkpoint_interval_secs: Some(0.125),
            vrt: Some(rnr_vrt::VrtParams::default()),
            fault_plan: plan,
            ..PipelineConfig::default()
        };
        Pipeline::new(spec, cfg).run()
    };
    let reference = run(FaultPlan::default()).expect("clean VRT-armed run");
    let convicted = reference
        .resolutions
        .iter()
        .filter(|r| {
            matches!(&r.summary, VerdictSummary::MemoryViolation { class, .. } if class == "heap-overflow")
        })
        .count();
    assert!(convicted >= 1, "clean run must convict the heap overflow");
    assert!(!reference.recovery.any(), "clean run must not report recovery");

    let scenarios = [
        // Frame 0 always exists (the heap-server log is sparser than the
        // ROP attack's, so a later frame may never stream).
        (
            "corrupt-batch",
            FaultPlan {
                seed: SEED,
                transport: vec![TransportFault {
                    seq: 0,
                    kind: TransportFaultKind::CorruptBit,
                    poison_retained: false,
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "cr-divergence",
            FaultPlan { seed: SEED, cr_divergence_at_insn: Some(200_000), ..FaultPlan::default() },
        ),
        ("ar-panic", FaultPlan { seed: SEED, ar_panic_case: Some(0), ..FaultPlan::default() }),
    ];
    for (name, plan) in scenarios {
        let report = run(plan).unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
        assert_eq!(report.to_json(), reference.to_json(), "{name}: healed report must be byte-identical");
        assert!(report.recovery.any(), "{name}: the fault must leave a trace in the recovery block");
        assert!(report.recovery.failed_cases.is_empty(), "{name}: no alarm case may stay unresolved");
    }
}

/// A killed AR worker abandons the case it drew; the supervisor re-resolves
/// it inline, so every pool size ships the fault-free report.
#[test]
fn killed_ar_worker_heals_for_every_pool_size() {
    let reference = attack_run(FaultPlan::default()).expect("fault-free pipeline completes");
    let (spec, _attack) =
        rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
    for ar_workers in [1, 2, 4] {
        let cfg = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ar_workers,
            fault_plan: FaultPlan { seed: SEED, kill_ar_worker_at_case: Some(1), ..FaultPlan::default() },
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(spec.clone(), cfg).run().expect("healed run");
        assert_eq!(
            report.to_json(),
            reference.to_json(),
            "ar_workers={ar_workers}: report must be identical"
        );
        assert_eq!(report.recovery.ar_workers_lost, 1, "ar_workers={ar_workers}");
        assert!(report.recovery.failed_cases.is_empty(), "ar_workers={ar_workers}");
    }
}

#[test]
fn poisoned_retained_store_fails_with_structured_error_not_panic() {
    let (name, plan) = unrecoverable_scenario(SEED);
    match attack_run(plan) {
        Err(PipelineError::Replay(ReplayError::Unrecoverable { fault, .. })) => {
            assert!(
                matches!(*fault, ReplayError::Transport(_)),
                "{name}: root cause must be the transport fault, got {fault}"
            );
        }
        Err(other) => panic!("{name}: wrong error shape: {other}"),
        Ok(_) => panic!("{name}: must not succeed"),
    }
}

/// A corrupted frame is refetched from its sealed segment, never from
/// memory: at one frame per segment every frame is handed to the writer
/// thread before it is sent, and the refetch waits for that frame's seal.
/// Frame 1, a middle frame and the last frame each get their own run.
#[test]
fn durable_store_serves_a_refetch_from_disk() {
    let cfg = |plan, durable| PipelineConfig {
        duration_insns: 250_000,
        fault_plan: plan,
        durable_log: durable,
        ..Default::default()
    };
    let run = |tag: &str, plan| {
        let dir = TempDir::new(tag);
        Pipeline::new(Workload::Mysql.spec(false), cfg(plan, Some(durable_cfg(&dir.0)))).run()
    };
    let reference =
        Pipeline::new(Workload::Mysql.spec(false), cfg(FaultPlan::default(), None)).run().expect("clean run");
    let clean = run("disk-serves-clean", FaultPlan::default()).expect("clean durable run");
    assert_eq!(clean.to_json(), reference.to_json());
    let frames = clean.recovery.disk.frames_written;
    assert!(frames >= 4, "need a first, a middle and a last frame: {frames}");
    for seq in [1, frames / 2, frames - 1] {
        let plan = FaultPlan {
            seed: SEED,
            transport: vec![TransportFault {
                seq,
                kind: TransportFaultKind::CorruptBit,
                poison_retained: false,
            }],
            ..FaultPlan::default()
        };
        let report = run(&format!("disk-serves-{seq}"), plan).expect("healed run");
        assert_eq!(
            report.to_json(),
            reference.to_json(),
            "frame {seq}: durable heal must be report-invisible"
        );
        let t = report.recovery.transport;
        assert!(t.disk_refetches >= 1, "frame {seq}: refetch must be served from sealed segments: {t:?}");
        assert_eq!(t.disk_fallbacks, 0, "frame {seq}: a sealed frame must never fall back to memory: {t:?}");
        let disk = report.recovery.disk;
        assert_eq!(disk.frames_written, frames, "frame {seq}: {disk:?}");
        assert_eq!(
            (disk.faults_injected, disk.io_errors),
            (0, 0),
            "frame {seq}: an undamaged store: {disk:?}"
        );
    }
}

/// A planned disk fault that no refetch reads still reaches the recovery
/// block: with no transport fault the CR never reads the store, so only
/// the writer's own accounting shows that the failed fsync fired.
#[test]
fn unread_disk_fault_still_shows_in_the_recovery_block() {
    let dir = TempDir::new("unread-disk-fault");
    let cfg = |plan, durable| PipelineConfig {
        duration_insns: 250_000,
        fault_plan: plan,
        durable_log: durable,
        ..Default::default()
    };
    let reference =
        Pipeline::new(Workload::Mysql.spec(false), cfg(FaultPlan::default(), None)).run().expect("clean run");
    let plan = FaultPlan {
        seed: SEED,
        disk: vec![DiskFault { segment: 1, kind: DiskFaultKind::FailedFsync }],
        ..FaultPlan::default()
    };
    let report = Pipeline::new(Workload::Mysql.spec(false), cfg(plan, Some(durable_cfg(&dir.0))))
        .run()
        .expect("the recording is intact in memory");
    assert_eq!(report.to_json(), reference.to_json());
    assert_eq!(report.recovery.disk.faults_injected, 1);
    assert!(report.recovery.any(), "the fired disk fault must count as recovery activity");
}

#[test]
fn damaged_disk_copy_falls_back_to_memory_and_still_heals() {
    let cfg = |plan, durable| PipelineConfig {
        duration_insns: 250_000,
        fault_plan: plan,
        durable_log: durable,
        ..Default::default()
    };
    let reference =
        Pipeline::new(Workload::Mysql.spec(false), cfg(FaultPlan::default(), None)).run().expect("clean run");
    for kind in [
        DiskFaultKind::TornWrite,
        DiskFaultKind::BitRot,
        DiskFaultKind::MissingSegment,
        DiskFaultKind::ShortRead,
        DiskFaultKind::FailedFsync,
    ] {
        let dir = TempDir::new(&format!("disk-fallback-{kind:?}"));
        let plan = FaultPlan {
            seed: SEED,
            transport: vec![TransportFault {
                seq: 1,
                kind: TransportFaultKind::CorruptBit,
                poison_retained: false,
            }],
            disk: vec![DiskFault { segment: 1, kind }],
            ..FaultPlan::default()
        };
        let report = Pipeline::new(Workload::Mysql.spec(false), cfg(plan, Some(durable_cfg(&dir.0))))
            .run()
            .unwrap_or_else(|e| panic!("{kind:?}: pipeline failed: {e}"));
        assert_eq!(report.to_json(), reference.to_json(), "{kind:?}: heal must be report-invisible");
        assert!(
            report.recovery.transport.disk_fallbacks >= 1,
            "{kind:?}: damaged disk copy must fall back to the retained store"
        );
        assert_eq!(report.recovery.disk.faults_injected, 1, "{kind:?}: the planned fault fired once");
        assert!(report.recovery.any(), "{kind:?}: recovery must be accounted");
    }
}

#[test]
fn durable_store_reopens_and_restores_after_every_damage_kind() {
    use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
    use rnr_replay::{ReplayConfig, Replayer};

    let spec = Workload::Mysql.spec(false);
    let master = TempDir::new("reopen-master");
    let mut recorder =
        Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 250_000)).expect("recorder");
    recorder.persist_to(DurableWriter::create(durable_cfg(&master.0), &FaultPlan::default()).expect("store"));
    let rec = recorder.run();
    let pristine = DurableStore::open(&master.0).expect("pristine store opens");
    assert!(pristine.scan().clean(), "pristine store must scan clean: {:?}", pristine.scan());
    let restored = pristine
        .restore_with(pristine.frame_count(), |_| None)
        .expect("pristine store restores without fallback");
    assert_eq!(restored.records(), rec.log.records(), "restored log must equal the recording");
    let total_frames = pristine.frame_count();
    assert!(total_frames >= 2, "need at least two segments to damage");

    // The in-memory fallback: frame `seq` exactly as the writer framed it
    // (frame boundaries follow the recorder's cut points, not a fixed
    // record count), served from the pristine store.
    let fallback = |seq: u64| pristine.frame(seq).map(<[rnr_log::Record]>::to_vec);

    for kind in [
        DiskFaultKind::BitRot,
        DiskFaultKind::ShortRead,
        DiskFaultKind::MissingSegment,
        DiskFaultKind::TornWrite,
    ] {
        // Work on a copy of the pristine store; damage the *last* segment
        // for TornWrite (a torn final write) and a mid-store one otherwise.
        let dir = TempDir::new(&format!("reopen-{kind:?}"));
        for entry in std::fs::read_dir(&master.0).unwrap() {
            let p = entry.unwrap().path();
            std::fs::copy(&p, dir.0.join(p.file_name().unwrap())).unwrap();
        }
        let target = if matches!(kind, DiskFaultKind::TornWrite) { total_frames - 1 } else { 0 };
        apply_disk_fault(&dir.0.join(segment_file_name(target)), kind, SEED ^ target).unwrap();

        let store = DurableStore::open(&dir.0).expect("damaged store opens");
        let scan = store.scan();
        assert!(!scan.clean(), "{kind:?}: damage must be visible to the scan");
        if matches!(kind, DiskFaultKind::TornWrite) {
            assert_eq!(scan.torn_tails_truncated, 1, "{kind:?}: torn tail must be truncated");
        } else if matches!(kind, DiskFaultKind::MissingSegment) {
            assert_eq!(scan.missing_spans, vec![(0, 1)], "{kind:?}: the gap must be mapped");
        } else {
            assert_eq!(scan.quarantined.len(), 1, "{kind:?}: mid-store damage must be quarantined");
        }

        let restored = store
            .restore_with(total_frames, fallback)
            .expect("every hole is covered by the in-memory fallback");
        assert_eq!(restored.records(), rec.log.records(), "{kind:?}: restore must be lossless");

        // The restored log replays to the recording's exact final state.
        let mut cr = Replayer::new(&spec, restored, ReplayConfig::default());
        cr.verify_against(rec.final_digest);
        let out = cr.run().unwrap_or_else(|e| panic!("{kind:?}: replay failed: {e}"));
        assert_eq!(out.verified, Some(true), "{kind:?}: restored log must verify");
    }
}

/// Fleet fault isolation: one session's fault plan — a CR divergence that
/// forces a rewind, an AR panic, and disk damage under its farm-owned
/// durable store — stays confined to that session. It heals to the serial
/// clean report with recovery accounted, while the quiet sibling's report
/// is byte-identical to its own clean reference with no recovery activity.
#[test]
fn farm_session_faults_and_rewinds_leave_siblings_untouched() {
    use rnr_safe::{Farm, FarmConfig, SessionSpec};
    let attack_reference = attack_run(FaultPlan::default()).expect("clean attack run");
    let quiet_cfg = PipelineConfig { duration_insns: 250_000, ..PipelineConfig::default() };
    let quiet_reference =
        Pipeline::new(Workload::Mysql.spec(false), quiet_cfg.clone()).run().expect("clean quiet run");

    let dir = TempDir::new("farm-isolation");
    let plan = FaultPlan {
        seed: SEED,
        cr_divergence_at_insn: Some(240_000),
        ar_panic_case: Some(0),
        disk: vec![DiskFault { segment: 1, kind: DiskFaultKind::BitRot }],
        ..FaultPlan::default()
    };
    let (spec, _attack) =
        rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
    let faulted_cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        fault_plan: plan,
        durable_log: Some(durable_cfg(&dir.0)),
        ..PipelineConfig::default()
    };
    let sessions = vec![
        SessionSpec::new("faulted", spec, faulted_cfg),
        SessionSpec::new("quiet", Workload::Mysql.spec(false), quiet_cfg),
    ];
    let farm = Farm::new(FarmConfig { workers: 2, ..FarmConfig::default() });
    let report = farm.run(&sessions);

    let faulted =
        report.session("faulted").unwrap().result.as_ref().expect("faulted session heals, not fails");
    assert_eq!(
        faulted.to_json(),
        attack_reference.to_json(),
        "the healed fleet session must match the serial clean report"
    );
    assert!(faulted.recovery.cr_rewinds >= 1, "the CR divergence must be recorded as a rewind");
    assert!(faulted.recovery.ar_panics_caught >= 1, "the AR panic must be caught and accounted");
    assert!(faulted.recovery.failed_cases.is_empty(), "no alarm case may stay unresolved");

    let quiet = report.session("quiet").unwrap().result.as_ref().expect("sibling unaffected");
    assert_eq!(
        quiet.to_json(),
        quiet_reference.to_json(),
        "the sibling's report must be byte-identical to its clean reference"
    );
    assert!(!quiet.recovery.any(), "the sibling must report no recovery activity");
}

#[test]
fn backoff_is_charged_to_virtual_time_but_never_the_replay_clock() {
    let reference = attack_run(FaultPlan::default()).expect("clean run");
    let plan = FaultPlan {
        seed: SEED,
        transport: vec![TransportFault {
            seq: 2,
            kind: TransportFaultKind::DropFrame,
            poison_retained: false,
        }],
        ..FaultPlan::default()
    };
    let report = attack_run(plan).expect("healed run");
    // The retry backoff accumulates in the transport stats only; the CR's
    // replay clock (part of the report) is identical to the clean run.
    assert_eq!(report.replay.cycles, reference.replay.cycles);
}

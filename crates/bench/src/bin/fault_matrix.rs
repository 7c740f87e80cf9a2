//! Fault-injection matrix: runs the attack pipeline under every seeded
//! fault scenario from `rnr_log::fault_scenarios` and checks the
//! self-healing contract end to end:
//!
//! * every **recoverable** scenario (corrupted / dropped / duplicated /
//!   truncated / delayed transport batches, injected CR and block-engine
//!   divergences, AR panics, a killed AR worker) must complete with a
//!   `to_json()` report **byte-identical** to the fault-free run, and its
//!   `recovery` block must be non-zero (the fault was actually detected
//!   and healed, not silently missed);
//! * the **unrecoverable** scenario (retained store poisoned, so
//!   re-fetching returns the same damage) must fail with the structured
//!   `ReplayError::Unrecoverable` carrying a rewind trail — never panic.
//!
//! Exits nonzero on any violation. Wired into `scripts/check.sh`.
//!
//! A durable section runs the disk scenarios against the segment store:
//! each must heal to the clean report, and the writer's disk counters must
//! show exactly the one planned fault. A final pair of sections reruns the
//! two adversarial guests: the self-modifying JIT workload — the superblock
//! trace engine's hardest input — fault-free with traces on and off (the
//! reports must be byte-identical) and under a corrupted transport batch
//! (which must heal back to the clean report); and the VRT-armed
//! heap-overflow attack (DESIGN.md §15), whose memory-safety conviction and
//! dismissed false positives must survive the superblock knob and a
//! corrupted batch unchanged.
//!
//! With `--farm`, the matrix instead runs every scenario as a replay-farm
//! fleet (DESIGN.md §14) on two workers: the faulted attack session, cut
//! into three replay spans, shares the pool with a quiet one-span sibling,
//! and the contract extends to *isolation* — the faulted session must still
//! heal to the serial clean report, the sibling's report must stay
//! byte-identical to its own clean reference with a quiet recovery block,
//! and a session that fails outright (a paravirtual guest its recording
//! mode refuses) must fail with its typed error and not disturb the
//! sibling either. The farm is the one place that replays spans, so this is
//! the span half of the matrix.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rnr_bench::{attack_session_config, attack_spec, SEED};
use rnr_hypervisor::{RecordError, VmSpec};
use rnr_log::{
    disk_fault_scenarios, fault_scenarios, unrecoverable_scenario, DurableLogConfig, FaultPlan,
    TransportFault, TransportFaultKind,
};
use rnr_replay::ReplayError;
use rnr_safe::{
    Farm, FarmConfig, FarmError, FarmReport, Pipeline, PipelineConfig, PipelineError, PipelineReport,
    SessionSpec, VerdictSummary,
};
use rnr_workloads::Workload;

/// The attack pipeline under one fault plan — same workload and knobs as
/// the pipeline equivalence tests, so the fault-free reference exercises
/// alarms, escalation, and a confirmed ROP verdict.
fn run_with(plan: FaultPlan) -> Result<PipelineReport, PipelineError> {
    Pipeline::new(attack_spec(), attack_session_config(plan)).run()
}

/// A durable store for the scenario `tag` in its own temp dir, with one
/// frame per segment: segment indices equal frame sequence numbers, so a
/// plan's `DiskFault { segment: 2 }` damages exactly the frame its
/// transport fault drops.
fn scenario_store(tag: &str) -> DurableLogConfig {
    let dir = std::env::temp_dir().join(format!("rnr-fault-matrix-{tag}-{}", std::process::id()));
    let mut durable = DurableLogConfig::new(dir);
    durable.frames_per_segment = 1;
    durable
}

fn main() {
    // Injected AR panics are part of the matrix; keep their backtraces out
    // of the gate output. Scenario failures are reported explicitly below.
    std::panic::set_hook(Box::new(|_| {}));
    let (label, failures) = if std::env::args().any(|a| a == "--farm") {
        ("fault matrix (farm)", farm_matrix())
    } else {
        ("fault matrix", serial_matrix())
    };
    if failures > 0 {
        eprintln!("{label} FAILED: {failures} scenario(s)");
        std::process::exit(1);
    }
    println!("{label} passed");
}

/// The matrix on the streaming pipeline: every seeded scenario, the
/// unrecoverable one, the durable store, and the two adversarial guests.
fn serial_matrix() -> u32 {
    let mut failures = 0u32;

    let reference = run_with(FaultPlan::default()).expect("fault-free attack pipeline completes");
    let reference_json = reference.to_json();
    if reference.recovery.any() {
        println!("FAIL fault-free: recovery block not quiet: {:?}", reference.recovery);
        failures += 1;
    } else {
        println!(
            "fault-free: {} attack(s) confirmed, {} alarm(s) escalated, recovery quiet",
            reference.attacks_confirmed(),
            reference.replay.alarms_escalated
        );
        let b = &reference.block_stats;
        println!(
            "fault-free: block cache {} hits / {} builds, trace cache {} hits / {} builds / {} fallbacks",
            b.hits, b.builds, b.trace_hits, b.trace_builds, b.trace_fallbacks
        );
    }

    for (name, plan) in fault_scenarios(SEED) {
        match catch_unwind(AssertUnwindSafe(|| run_with(plan))) {
            Err(_) => {
                println!("FAIL {name}: panicked (recoverable scenarios must heal)");
                failures += 1;
            }
            Ok(Err(e)) => {
                println!("FAIL {name}: pipeline error: {e}");
                failures += 1;
            }
            Ok(Ok(report)) => {
                let mut bad = Vec::new();
                if report.to_json() != reference_json {
                    bad.push("report differs from fault-free run");
                }
                if !report.recovery.any() {
                    bad.push("no recovery activity recorded (fault missed?)");
                }
                if !report.recovery.failed_cases.is_empty() {
                    bad.push("alarm cases left unresolved");
                }
                if bad.is_empty() {
                    let r = &report.recovery;
                    println!(
                        "ok   {name}: rewinds={} refetched={} healed={} dup_dropped={} ar_retries={} \
                         panics={} workers_lost={} block_fallbacks={}",
                        r.cr_rewinds,
                        r.transport.batches_refetched,
                        r.transport.reorders_healed,
                        r.transport.duplicates_dropped,
                        r.ar_case_retries,
                        r.ar_panics_caught,
                        r.ar_workers_lost,
                        r.block_fallback_spans
                    );
                } else {
                    println!("FAIL {name}: {}", bad.join("; "));
                    failures += 1;
                }
            }
        }
    }

    let (name, plan) = unrecoverable_scenario(SEED);
    match catch_unwind(AssertUnwindSafe(|| run_with(plan))) {
        Err(_) => {
            println!("FAIL {name}: panicked (must fail with a structured error)");
            failures += 1;
        }
        Ok(Ok(_)) => {
            println!("FAIL {name}: unexpectedly succeeded");
            failures += 1;
        }
        Ok(Err(PipelineError::Replay(ReplayError::Unrecoverable { fault, trail }))) => {
            println!("ok   {name}: unrecoverable after {} rewind(s): {fault}", trail.len());
        }
        Ok(Err(e)) => {
            println!("FAIL {name}: wrong error shape (want Unrecoverable): {e}");
            failures += 1;
        }
    }

    failures += durable_section(&reference_json);
    failures += jit_section();
    failures += vrt_section();
    failures
}

/// The durable segment store under every disk-fault scenario (DESIGN.md
/// §13): with `durable_log` on, the recording is persisted to sealed
/// segments and the CR's refetch recovery reads disk first. A clean durable
/// run must be byte-identical to the in-memory reference with a quiet
/// recovery block and no disk fault; every disk-fault scenario (torn tail,
/// bit rot, missing segment, short read, failed fsync — each paired with a
/// dropped transport frame that forces a refetch) must heal back to the
/// very same report, falling back to the in-memory retained store when the
/// disk copy is damaged, and its writer must report exactly the planned
/// disk fault. Each refetch must come from exactly one source: disk alone
/// when the store is whole, memory alone when the frame's segment is
/// damaged — the refetch waits for the seal, damage included, so a seal in
/// flight never decides it. Each scenario uses its own temp dir, removed on
/// success.
fn durable_section(reference_json: &str) -> u32 {
    let mut failures = 0u32;
    let run_durable = |tag: &str, plan: FaultPlan| {
        let durable = scenario_store(tag);
        let dir = durable.dir.clone();
        let cfg = PipelineConfig { durable_log: Some(durable), ..attack_session_config(plan) };
        (dir, Pipeline::new(attack_spec(), cfg).run())
    };

    let (dir, clean) = run_durable("clean", FaultPlan::default());
    match clean {
        Ok(report)
            if report.to_json() == reference_json
                && !report.recovery.any()
                && report.recovery.disk.faults_injected == 0 =>
        {
            println!(
                "ok   durable-clean: persisted run byte-identical, recovery quiet, {} segment(s) sealed",
                report.recovery.disk.segments_sealed
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(report) => {
            println!(
                "FAIL durable-clean: identical={} quiet={} faults_injected={}",
                report.to_json() == reference_json,
                !report.recovery.any(),
                report.recovery.disk.faults_injected
            );
            failures += 1;
        }
        Err(e) => {
            println!("FAIL durable-clean: pipeline error: {e}");
            failures += 1;
        }
    }

    for (name, plan) in disk_fault_scenarios(SEED) {
        let wants_disk_hit = name == "disk-serves-refetch";
        // One for each damaging scenario; `disk-serves-refetch` plans none.
        let planned = plan.disk.len() as u64;
        match catch_unwind(AssertUnwindSafe(|| run_durable(name, plan))) {
            Err(_) => {
                println!("FAIL {name}: panicked (disk faults must heal)");
                failures += 1;
            }
            Ok((_dir, Err(e))) => {
                println!("FAIL {name}: pipeline error: {e}");
                failures += 1;
            }
            Ok((dir, Ok(report))) => {
                let t = &report.recovery.transport;
                let disk = &report.recovery.disk;
                let mut bad = Vec::new();
                if report.to_json() != reference_json {
                    bad.push("report differs from fault-free in-memory run");
                }
                if !report.recovery.any() {
                    bad.push("no recovery activity recorded (fault missed?)");
                }
                if disk.faults_injected != planned {
                    bad.push("disk faults injected differ from the plan");
                }
                if wants_disk_hit && t.disk_refetches == 0 {
                    bad.push("refetch never served from disk");
                }
                if wants_disk_hit && t.disk_fallbacks != 0 {
                    bad.push("a sealed frame's refetch fell back to memory");
                }
                if !wants_disk_hit && t.disk_fallbacks == 0 {
                    bad.push("damaged disk copy never fell back to memory");
                }
                if !wants_disk_hit && t.disk_refetches != 0 {
                    bad.push("damaged disk copy served a refetch");
                }
                if bad.is_empty() {
                    println!(
                        "ok   {name}: refetched={} disk_refetches={} disk_fallbacks={} faults_injected={}",
                        t.batches_refetched, t.disk_refetches, t.disk_fallbacks, disk.faults_injected
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                } else {
                    println!("FAIL {name}: {}", bad.join("; "));
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// The `--farm` matrix: every seeded scenario run as a two-session fleet on
/// a two-worker pool — the faulted attack session, cut into three replay
/// spans, beside a quiet one-span sibling.
///
/// The farm records sequentially and feeds span replay from the complete
/// log, so the matrix's *transport* scenarios have no wire to damage: those
/// plans are expected to be inert (report identical, recovery quiet). The
/// replay/AR scenarios (CR and block-engine divergences, AR panics and
/// transient divergences, the killed worker) fire exactly as in serial mode
/// and must heal to the serial clean report with recovery activity — while
/// the sibling's report stays byte-identical to its own clean reference
/// with a quiet recovery block. The attack session persists to its own
/// store, and the disk scenarios damage it: no refetch reads it, so the
/// planned disk fault is their only recovery activity. Two more cases
/// check structural isolation — a session whose recording is refused (a
/// paravirtual guest in the attack slot) failing with its typed error
/// beside an untouched sibling, and a farm-owned durable root laying down
/// one segment store per session — and a last fleet runs the two
/// adversarial guests on spans.
fn farm_matrix() -> u32 {
    let mut failures = 0u32;
    let attack_reference =
        run_with(FaultPlan::default()).expect("serial clean attack pipeline completes").to_json();
    let quiet_cfg = PipelineConfig { duration_insns: 300_000, ..PipelineConfig::default() };
    let quiet_reference = Pipeline::new(Workload::Make.spec(false), quiet_cfg.clone())
        .run()
        .expect("serial clean quiet pipeline completes")
        .to_json();
    let fleet = |attack: PipelineConfig| {
        vec![
            SessionSpec::new("attack", attack_spec(), attack),
            SessionSpec::new("quiet", Workload::Make.spec(false), quiet_cfg.clone()),
        ]
    };
    let farm = Farm::new(FarmConfig { workers: 2, ..FarmConfig::default() });

    // A sibling must come through byte-identical and quiet no matter what
    // happens to the attack session; fold that check into every scenario.
    let check_quiet = |name: &str, report: &FarmReport, failures: &mut u32| match &report
        .session("quiet")
        .expect("quiet session present")
        .result
    {
        Ok(r) if r.to_json() == quiet_reference && !r.recovery.any() => {}
        Ok(r) => {
            println!(
                "FAIL {name}: quiet sibling disturbed (identical={} quiet={})",
                r.to_json() == quiet_reference,
                !r.recovery.any()
            );
            *failures += 1;
        }
        Err(e) => {
            println!("FAIL {name}: quiet sibling failed: {e}");
            *failures += 1;
        }
    };

    for (name, plan) in fault_scenarios(SEED).into_iter().chain(disk_fault_scenarios(SEED)) {
        // The farm records sequentially, so a transport fault has no wire
        // to damage, and its spans replay the finished log, so no refetch
        // reads the store: only the replay/AR injections and the planned
        // disk faults fire. The attack session persists to its own store,
        // one frame per segment as in the serial durable section.
        let planned_disk = plan.disk.len() as u64;
        let fires = planned_disk > 0 || !plan.wants_transport_injection();
        let durable = scenario_store(&format!("farm-{name}"));
        let dir = durable.dir.clone();
        let report =
            farm.run(&fleet(PipelineConfig { durable_log: Some(durable), ..attack_session_config(plan) }));
        check_quiet(name, &report, &mut failures);
        match &report.session("attack").expect("attack session present").result {
            Err(e) => {
                println!("FAIL {name}: attack session failed: {e}");
                failures += 1;
            }
            Ok(r) => {
                let rec = &r.recovery;
                let mut bad = Vec::new();
                if r.to_json() != attack_reference {
                    bad.push("report differs from serial clean run");
                }
                if fires && !rec.any() {
                    bad.push("no recovery activity recorded (fault missed?)");
                }
                if !fires && rec.any() {
                    bad.push("transport plan fired despite sequential recording");
                }
                if rec.disk.faults_injected != planned_disk {
                    bad.push("disk faults injected differ from the plan");
                }
                if !rec.failed_cases.is_empty() {
                    bad.push("alarm cases left unresolved");
                }
                if bad.is_empty() {
                    println!(
                        "ok   {name}: {} rewinds={} ar_retries={} panics={} workers_lost={} block_fallbacks={} \
                         disk_faults={}",
                        if fires { "fired," } else { "inert (no transport in farm mode)," },
                        rec.cr_rewinds,
                        rec.ar_case_retries,
                        rec.ar_panics_caught,
                        rec.ar_workers_lost,
                        rec.block_fallback_spans,
                        rec.disk.faults_injected
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                } else {
                    println!("FAIL {name}: {}", bad.join("; "));
                    failures += 1;
                }
            }
        }
    }

    // Structural isolation: a paravirtual guest in the attack slot, which
    // the session's recording mode refuses, fails with a typed error; the
    // sibling is untouched.
    let mut sessions = fleet(attack_session_config(FaultPlan::default()));
    sessions[0].vm = Workload::Mysql.spec(true);
    let report = farm.run(&sessions);
    check_quiet("farm-session-fails", &report, &mut failures);
    let failed = report.session("attack").expect("attack session present");
    match &failed.result {
        Err(FarmError::Pipeline(PipelineError::Record(e @ RecordError::KernelModeMismatch { .. }))) => {
            println!(
                "ok   farm-session-fails: session {} failed with a typed error ({e}), sibling untouched",
                failed.id
            );
        }
        other => {
            println!("FAIL farm-session-fails: want Pipeline(Record(KernelModeMismatch)), got {other:?}");
            failures += 1;
        }
    }

    // Farm-owned durable root: each session gets its own segment store
    // directory, and persistence stays report-invisible.
    let root = std::env::temp_dir().join(format!("rnr-fault-matrix-farm-{}", std::process::id()));
    let durable_farm = Farm::new(FarmConfig { workers: 2, durable_root: Some(root.clone()) });
    let report = durable_farm.run(&fleet(attack_session_config(FaultPlan::default())));
    check_quiet("farm-durable-root", &report, &mut failures);
    let mut bad = Vec::new();
    match &report.session("attack").expect("attack session present").result {
        Ok(r) if r.to_json() == attack_reference => {}
        Ok(_) => bad.push("attack report differs from serial clean run".to_string()),
        Err(e) => bad.push(format!("attack session failed: {e}")),
    }
    for s in 0..2 {
        let dir = root.join(format!("session-{s}"));
        let populated = std::fs::read_dir(&dir).map(|mut entries| entries.next().is_some()).unwrap_or(false);
        if !populated {
            bad.push(format!("per-session store {} missing or empty", dir.display()));
        }
    }
    if bad.is_empty() {
        println!("ok   farm-durable-root: per-session segment stores laid down, reports identical");
        let _ = std::fs::remove_dir_all(&root);
    } else {
        println!("FAIL farm-durable-root: {}", bad.join("; "));
        failures += 1;
    }

    failures + adversarial_farm(&farm)
}

/// The two adversarial guests as one fleet on the farm's spans, with
/// superblocks on and off: the self-modifying JIT workload (cut into two
/// spans) must dispatch traces, and the VRT-armed heap-overflow attack (three
/// spans) must convict and dismiss its false positives. Each report must
/// equal the session's serial pipeline report with a quiet recovery block.
fn adversarial_farm(farm: &Farm) -> u32 {
    let sessions = |superblocks: bool| {
        vec![
            SessionSpec::new(
                "jit",
                Workload::Jit.spec(false),
                PipelineConfig { superblocks, ..jit_config() },
            ),
            SessionSpec::new("vrt", heap_overflow_spec(), PipelineConfig { superblocks, ..vrt_config() }),
        ]
    };
    let serial: Vec<String> = sessions(true)
        .into_iter()
        .map(|s| {
            Pipeline::new(s.vm, s.config).run().expect("serial adversarial pipeline completes").to_json()
        })
        .collect();
    let mut failures = 0;
    for superblocks in [true, false] {
        let report = farm.run(&sessions(superblocks));
        for (outcome, expected) in report.sessions.iter().zip(&serial) {
            let name =
                format!("farm-{}-superblocks-{}", outcome.name, if superblocks { "on" } else { "off" });
            let r = match &outcome.result {
                Ok(r) => r,
                Err(e) => {
                    println!("FAIL {name}: session failed: {e}");
                    failures += 1;
                    continue;
                }
            };
            let mut bad = Vec::new();
            if r.to_json() != *expected {
                bad.push("report differs from the serial pipeline".to_string());
            }
            if r.recovery.any() {
                bad.push(format!("recovery block not quiet: {:?}", r.recovery));
            }
            if outcome.name == "jit" && superblocks && r.block_stats.trace_hits == 0 {
                bad.push("trace cache never dispatched".to_string());
            }
            if outcome.name == "vrt" && heap_overflow_verdicts(r).0 == 0 {
                bad.push("heap overflow not convicted".to_string());
            }
            if bad.is_empty() {
                println!("ok   {name}: report identical to serial, recovery quiet");
            } else {
                println!("FAIL {name}: {}", bad.join("; "));
                failures += 1;
            }
        }
    }
    failures
}

/// The JIT session of the adversarial sections: 400k instructions at the
/// RepChk0.125 interval.
fn jit_config() -> PipelineConfig {
    PipelineConfig {
        duration_insns: 400_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    }
}

/// The VRT-armed heap-overflow session of the adversarial sections.
fn vrt_config() -> PipelineConfig {
    PipelineConfig {
        duration_insns: 600_000,
        checkpoint_interval_secs: Some(0.125),
        vrt: Some(rnr_safe::vrt::VrtParams::default()),
        ..PipelineConfig::default()
    }
}

/// The mounted heap-overflow attack (DESIGN.md §15).
fn heap_overflow_spec() -> VmSpec {
    rnr_attacks::mount_heap_overflow(&rnr_workloads::WorkloadParams::default(), 40).0
}

/// (heap-overflow convictions, dismissed false positives) of `report`.
fn heap_overflow_verdicts(report: &PipelineReport) -> (usize, usize) {
    let count =
        |want: fn(&VerdictSummary) -> bool| report.resolutions.iter().filter(|r| want(&r.summary)).count();
    (
        count(|v| matches!(v, VerdictSummary::MemoryViolation { class, .. } if class == "heap-overflow")),
        count(|v| matches!(v, VerdictSummary::FalsePositive { .. })),
    )
}

/// The self-modifying JIT workload under the trace engine: superblocks must
/// be invisible in the report (on vs off byte-identical), actually engage
/// (trace dispatches observed despite the code churn), and heal a corrupted
/// transport batch back to the clean report.
fn jit_section() -> u32 {
    let run = |superblocks: bool, fault_plan: FaultPlan| {
        let cfg = PipelineConfig { superblocks, fault_plan, ..jit_config() };
        Pipeline::new(Workload::Jit.spec(false), cfg).run()
    };
    let traced = match run(true, FaultPlan::default()) {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL jit-fault-free: pipeline error: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    let b = &traced.block_stats;
    if traced.recovery.any() {
        println!("FAIL jit-fault-free: recovery block not quiet: {:?}", traced.recovery);
        failures += 1;
    }
    if b.trace_hits == 0 {
        println!("FAIL jit-fault-free: trace cache never dispatched on the JIT workload");
        failures += 1;
    }
    match run(false, FaultPlan::default()) {
        Ok(plain) if plain.to_json() == traced.to_json() => {}
        Ok(_) => {
            println!("FAIL jit-superblocks-off: report differs from superblocks-on run");
            failures += 1;
        }
        Err(e) => {
            println!("FAIL jit-superblocks-off: pipeline error: {e}");
            failures += 1;
        }
    }
    // Frame 0 always exists (the JIT log is far sparser than the attack
    // workload's, so the matrix's usual seq-2 target may never stream).
    let corrupt = FaultPlan {
        seed: SEED,
        transport: vec![TransportFault {
            seq: 0,
            kind: TransportFaultKind::CorruptBit,
            poison_retained: false,
        }],
        ..FaultPlan::default()
    };
    match run(true, corrupt) {
        Ok(healed) if healed.to_json() == traced.to_json() && healed.recovery.any() => {
            println!(
                "ok   jit: {} trace hit(s), superblocks report-invisible, corrupt batch healed \
                 (refetched={})",
                b.trace_hits, healed.recovery.transport.batches_refetched
            );
        }
        Ok(healed) => {
            println!(
                "FAIL jit-corrupt-batch: healed={} identical={}",
                healed.recovery.any(),
                healed.to_json() == traced.to_json()
            );
            failures += 1;
        }
        Err(e) => {
            println!("FAIL jit-corrupt-batch: pipeline error: {e}");
            failures += 1;
        }
    }
    failures
}

/// The second detector family through the healing contract: the VRT-armed
/// heap-overflow attack (DESIGN.md §15) must convict with zero false
/// negatives and dismiss the churn workload's false positives, stay
/// byte-identical with superblocks off, and heal a corrupted transport
/// batch back to the clean report — conviction included.
fn vrt_section() -> u32 {
    let run = |superblocks: bool, fault_plan: FaultPlan| {
        Pipeline::new(heap_overflow_spec(), PipelineConfig { superblocks, fault_plan, ..vrt_config() }).run()
    };
    let clean = match run(true, FaultPlan::default()) {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL vrt-fault-free: pipeline error: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    let (convicted, dismissed) = heap_overflow_verdicts(&clean);
    if convicted == 0 {
        println!("FAIL vrt-fault-free: heap overflow not convicted (zero-FN contract broken)");
        failures += 1;
    }
    if dismissed == 0 {
        println!("FAIL vrt-fault-free: churn workload raised no dismissed false positives");
        failures += 1;
    }
    if clean.recovery.any() {
        println!("FAIL vrt-fault-free: recovery block not quiet: {:?}", clean.recovery);
        failures += 1;
    }
    match run(false, FaultPlan::default()) {
        Ok(plain) if plain.to_json() == clean.to_json() => {}
        Ok(_) => {
            println!("FAIL vrt-superblocks-off: report differs from superblocks-on run");
            failures += 1;
        }
        Err(e) => {
            println!("FAIL vrt-superblocks-off: pipeline error: {e}");
            failures += 1;
        }
    }
    let corrupt = FaultPlan {
        seed: SEED,
        transport: vec![TransportFault {
            seq: 0,
            kind: TransportFaultKind::CorruptBit,
            poison_retained: false,
        }],
        ..FaultPlan::default()
    };
    match run(true, corrupt) {
        Ok(healed) if healed.to_json() == clean.to_json() && healed.recovery.any() => {
            println!(
                "ok   vrt: {convicted} heap-overflow conviction(s), {dismissed} FP(s) dismissed, \
                 superblocks report-invisible, corrupt batch healed (refetched={})",
                healed.recovery.transport.batches_refetched
            );
        }
        Ok(healed) => {
            println!(
                "FAIL vrt-corrupt-batch: healed={} identical={}",
                healed.recovery.any(),
                healed.to_json() == clean.to_json()
            );
            failures += 1;
        }
        Err(e) => {
            println!("FAIL vrt-corrupt-batch: pipeline error: {e}");
            failures += 1;
        }
    }
    failures
}

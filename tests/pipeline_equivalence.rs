//! Equivalence of the pipeline's host-side execution strategies: streaming
//! vs sequential record+replay, AR pool sizes, the decode cache, and span
//! replay in the farm are all wall-clock knobs — every one of them must
//! leave the recorded log, the virtual-cycle figures, and the verdicts
//! bit-identical.

mod common;

use std::sync::Arc;

use common::farm_of_one;
use rnr_attacks::mount_kernel_rop;
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_log::{log_channel, FaultPlan};
use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::{Workload, WorkloadParams};

/// A recorder with a live sink sends exactly the log it keeps: the streamed
/// copy is byte-identical to the recording's own.
#[test]
fn streamed_log_is_byte_identical() {
    let spec = Workload::Mysql.spec(false);
    let plain = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 120_000)).unwrap().run();

    let mut recorder = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 120_000)).unwrap();
    let (sink, stream) = log_channel(&FaultPlan::default());
    recorder.stream_to(sink);
    let consumer = std::thread::spawn(move || stream.into_log());
    let streamed = recorder.run();
    let side_channel = consumer.join().unwrap();

    assert_eq!(plain.log.records(), streamed.log.records());
    assert_eq!(side_channel.records(), streamed.log.records());
    assert_eq!(plain.final_digest, streamed.final_digest);
}

/// Streaming and sequential pipelines produce byte-identical reports on a
/// benign run.
#[test]
fn benign_pipeline_streaming_matches_sequential() {
    let run = |streaming: bool| {
        let spec = Workload::Mysql.spec(false);
        let cfg = PipelineConfig { duration_insns: 250_000, streaming, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let streamed = run(true);
    let sequential = run(false);
    assert_eq!(streamed.to_json(), sequential.to_json());
    assert_eq!(streamed.record.cycles, sequential.record.cycles);
    assert_eq!(streamed.replay.cycles, sequential.replay.cycles);
}

/// On the mounted kernel-ROP attack, every host-side strategy — sequential
/// phases, a bigger AR pool, no decode cache — reproduces the default
/// (streaming) report exactly, verdicts and detection window included.
#[test]
fn attack_pipeline_equivalent_across_configs() {
    let base_cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let run = |cfg: PipelineConfig| {
        let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let base = run(base_cfg.clone());
    assert!(base.attacks_confirmed() >= 1);
    assert!(base.detection.is_some());

    let sequential =
        run(PipelineConfig { streaming: false, parallel_alarm_replay: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), sequential.to_json(), "sequential record+replay diverged");

    let pooled = run(PipelineConfig { ar_workers: 4, ..base_cfg.clone() });
    assert_eq!(base.to_json(), pooled.to_json(), "AR pool size changed the report");

    let no_cache = run(PipelineConfig { decode_cache: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), no_cache.to_json(), "decode cache changed the report");

    let stepped = run(PipelineConfig { block_engine: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), stepped.to_json(), "block engine changed the report");

    let no_traces = run(PipelineConfig { superblocks: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), no_traces.to_json(), "superblock traces changed the report");

    let bare = run(PipelineConfig {
        streaming: false,
        parallel_alarm_replay: false,
        decode_cache: false,
        block_engine: false,
        ..base_cfg
    });
    assert_eq!(base.to_json(), bare.to_json(), "all wall-clock knobs off diverged");
}

/// The decode cache changes nothing a benign pipeline can observe: digest
/// verification passes and the report (cycles, alarm resolutions) is
/// bit-identical with the cache off.
#[test]
fn benign_pipeline_decode_cache_equivalent() {
    let run = |decode_cache: bool| {
        let spec = Workload::Radiosity.spec(false);
        let cfg = PipelineConfig { duration_insns: 200_000, decode_cache, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let cached = run(true);
    let plain = run(false);
    assert!(cached.replay.verified);
    assert_eq!(cached.to_json(), plain.to_json());
}

/// The block engine changes nothing a benign pipeline can observe: the full
/// record → verify → alarm-replay report is bit-identical with block
/// execution off, and the optimized run actually exercised the block cache.
#[test]
fn benign_pipeline_block_engine_equivalent() {
    let run = |block_engine: bool| {
        let spec = Workload::Make.spec(false);
        let cfg = PipelineConfig { duration_insns: 200_000, block_engine, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let blocked = run(true);
    let stepped = run(false);
    assert!(blocked.replay.verified);
    assert_eq!(blocked.to_json(), stepped.to_json());
    assert_eq!(blocked.record.cycles, stepped.record.cycles);
    assert!(blocked.block_stats.hits > 0, "block cache never hit");
    assert_eq!(stepped.block_stats.hits, 0, "block stats leaked from a stepped run");
}

/// The superblock trace engine changes nothing a benign pipeline can
/// observe, even on the adversarial self-modifying JIT workload: the report
/// is bit-identical with traces off, and the optimized run actually formed
/// and dispatched traces despite the code churn.
#[test]
fn benign_pipeline_superblocks_equivalent_on_jit() {
    let run = |superblocks: bool| {
        let spec = Workload::Jit.spec(false);
        let cfg = PipelineConfig { duration_insns: 250_000, superblocks, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let traced = run(true);
    let plain = run(false);
    assert!(traced.replay.verified);
    assert_eq!(traced.to_json(), plain.to_json());
    assert_eq!(traced.record.cycles, plain.record.cycles);
    assert!(traced.block_stats.trace_hits > 0, "trace cache never dispatched on the JIT workload");
    assert_eq!(plain.block_stats.trace_hits, 0, "trace stats leaked from a blocks-only run");
}

/// The block engine is bit-exact against the single-step interpreter on its
/// hardest edges, combined in one guest program: self-modifying code that
/// overwrites an instruction inside the currently cached block, a breakpoint
/// planted mid-block (re-armed with a skip every pass), an interrupt window
/// opening mid-stream, and retired budgets that chop blocks at odd offsets.
#[test]
fn block_engine_edge_cases_match_single_step() {
    use rnr_isa::{Assembler, Instruction, Opcode, Reg};
    use rnr_machine::{Exit, GuestVm, MachineConfig, RunBudget};

    let program = || {
        let mut asm = Assembler::new(0x1000);
        let patch = Instruction::new(Opcode::Addi, Reg::R2, Reg::R2, Reg::R0, 7);
        asm.movi(Reg::R1, 0);
        asm.movi(Reg::R6, 9); // loop iterations
        asm.lea(Reg::R5, "patch");
        asm.movi64(Reg::R4, u64::from_le_bytes(patch.encode()));
        asm.label("loop");
        asm.addi(Reg::R1, Reg::R1, 1);
        asm.addi(Reg::R2, Reg::R2, 3);
        asm.xor(Reg::R3, Reg::R1, Reg::R2);
        asm.st(Reg::R5, 0, Reg::R4); // SMC: "patch" sits later in this very block
        asm.label("patch");
        asm.nop(); // becomes `addi r2, r2, 7` after the first pass
        asm.sti();
        asm.cli();
        asm.bne(Reg::R1, Reg::R6, "loop");
        asm.hlt();
        asm.assemble().unwrap()
    };

    let vm_at = |block_engine: bool, entry_skew: u64| {
        let cfg = MachineConfig { block_engine, ..MachineConfig::default() };
        let mut vm = GuestVm::new(cfg, &[]);
        let img = program();
        vm.mem_mut().write_bytes(img.base(), img.bytes()).unwrap();
        vm.set_entry(img.base() + entry_skew);
        vm.cpu_mut().set_sp(0x8000);
        (vm, img)
    };

    let trace = |block_engine: bool| {
        let (mut vm, img) = vm_at(block_engine, 0);
        vm.add_breakpoint(img.require_symbol("loop") + 16); // the `xor`, mid-block
        vm.request_interrupt_window();
        let mut events = Vec::new();
        let mut until = 5;
        for _ in 0..600 {
            let exit = vm.run(RunBudget::until(until));
            events.push((exit.clone(), vm.retired(), vm.cycles()));
            match exit {
                Exit::Halt => break,
                Exit::Breakpoint { .. } => vm.skip_breakpoint_once(),
                Exit::BudgetExhausted => until = vm.retired() + 5,
                _ => {}
            }
        }
        (events, vm.digest(), vm.cpu().reg(Reg::R2))
    };
    let blocked = trace(true);
    let stepped = trace(false);
    assert_eq!(blocked, stepped);
    assert!(matches!(blocked.0.last(), Some((Exit::Halt, ..))));

    // Hijacked-return style entry: an unaligned PC decodes a skewed byte
    // stream; the block engine must defer to single-stepping and stay exact.
    let skewed = |block_engine: bool| {
        let (mut vm, _img) = vm_at(block_engine, 4);
        let mut events = Vec::new();
        for _ in 0..40 {
            let exit = vm.run(RunBudget::until(vm.retired() + 7));
            events.push((exit.clone(), vm.retired(), vm.cycles()));
            if !matches!(exit, Exit::BudgetExhausted) {
                break;
            }
        }
        (events, vm.digest())
    };
    assert_eq!(skewed(true), skewed(false));
}

/// Checkpoint-partitioned span replay of the finished recording is a pure
/// wall-clock knob: for every worker count, workload, and block-engine
/// setting, a farm of one session, which the farm's cadence rule cuts into
/// about twice as many spans as it has workers, reports byte-identically to
/// the serial pipeline of the same configuration.
/// The matrix runs the full adversarial set — including the VRT-stressing
/// `HeapServer` and `Longjmp` workloads — with the VRT detector armed, so
/// memory-safety alarm cases ride the span-partitioned escalation path too.
#[test]
fn parallel_span_replay_matches_serial_across_matrix() {
    for workload in Workload::ADVERSARIAL {
        for block_engine in [true, false] {
            let cfg = PipelineConfig {
                duration_insns: 250_000,
                block_engine,
                vrt: Some(rnr_vrt::VrtParams::default()),
                ..PipelineConfig::default()
            };
            let serial = Pipeline::new(workload.spec(false), cfg.clone()).run().unwrap();
            assert!(serial.replay.verified);
            assert_eq!(serial.attacks_confirmed(), 0, "{workload:?}: benign run convicted");
            for workers in [1, 2, 4, 8] {
                let parallel = farm_of_one(workload.spec(false), cfg.clone(), workers);
                assert_eq!(
                    parallel.to_json(),
                    serial.to_json(),
                    "{workload:?} block_engine={block_engine} workers={workers}: report diverged"
                );
            }
        }
    }
}

/// On the mounted attack, span-parallel verification of the finished
/// recording in a farm of one reproduces the serial pipeline's report
/// exactly — verdicts, detection window, and alarm resolutions included.
#[test]
fn attack_pipeline_parallel_spans_match_serial() {
    let cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let spec = || mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap().0;
    let serial = Pipeline::new(spec(), cfg.clone()).run().unwrap();
    assert!(serial.attacks_confirmed() >= 1);
    for workers in [2, 4] {
        let spans = farm_of_one(spec(), cfg.clone(), workers);
        assert_eq!(serial.to_json(), spans.to_json(), "farm of one, {workers} workers");
    }
}

/// The `durable_log` knob is report-invisible across its interaction
/// corners: persistence on vs off, crossed with the streaming serial CR or
/// span replay of the finished recording (a farm of one on two workers)
/// and with the superblock trace engine, always yields a byte-identical
/// report.
#[test]
fn durable_log_equivalent_across_parallel_and_superblock_corners() {
    let scratch = std::env::temp_dir().join(format!("rnr-eq-corners-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |durable: Option<&str>, spans: bool, superblocks: bool| {
        let cfg = PipelineConfig {
            duration_insns: 250_000,
            superblocks,
            durable_log: durable.map(|tag| rnr_log::DurableLogConfig::new(scratch.join(tag))),
            ..PipelineConfig::default()
        };
        if spans {
            farm_of_one(Workload::Jit.spec(false), cfg, 2)
        } else {
            Pipeline::new(Workload::Jit.spec(false), cfg).run().unwrap()
        }
    };
    let reference = run(None, false, true);
    assert!(reference.replay.verified);
    for spans in [false, true] {
        for superblocks in [true, false] {
            let tag = format!("spans{spans}-s{superblocks}");
            let durable = run(Some(&tag), spans, superblocks);
            let plain = run(None, spans, superblocks);
            assert_eq!(
                plain.to_json(),
                reference.to_json(),
                "spans={spans} superblocks={superblocks}: baseline diverged"
            );
            assert_eq!(
                durable.to_json(),
                reference.to_json(),
                "spans={spans} superblocks={superblocks}: durable_log changed the report"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Streaming and sequential pipelines and a farm of one persist
/// **byte-identical** segment stores: all three persist through the one
/// durable-write path, `Recorder::persist_to`, and cut frames at the same
/// points, so the durable form is independent of how the run was driven.
/// Mysql's dense log fills whole batches; Jit's sparse log is cut by frame
/// age. The farm, on two workers, cuts each session at its span seeds, and
/// capturing them leaves the frames as the pipelines, which capture none,
/// cut them.
#[test]
fn durable_store_is_byte_identical_across_streaming_and_sequential() {
    let scratch = std::env::temp_dir().join(format!("rnr-eq-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    for (workload, duration_insns) in [(Workload::Mysql, 250_000), (Workload::Jit, 1_200_000)] {
        let cfg = |dir: std::path::PathBuf| PipelineConfig {
            duration_insns,
            durable_log: Some(rnr_log::DurableLogConfig::new(dir)),
            ..PipelineConfig::default()
        };
        let run = |streaming: bool, dir: std::path::PathBuf| {
            Pipeline::new(workload.spec(false), PipelineConfig { streaming, ..cfg(dir) }).run().unwrap()
        };
        let label = workload.label();
        let [streaming_dir, sequential_dir, farm_dir] =
            ["streaming", "sequential", "farm"].map(|mode| scratch.join(format!("{label}-{mode}")));
        let streamed = run(true, streaming_dir.clone());
        let sequential = run(false, sequential_dir.clone());
        let farmed = farm_of_one(workload.spec(false), cfg(farm_dir.clone()), 2);
        assert_eq!(streamed.to_json(), sequential.to_json(), "{label}");
        assert_eq!(streamed.to_json(), farmed.to_json(), "{label}: farm of one");

        let list = |dir: &std::path::Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let names = list(&streaming_dir);
        assert!(!names.is_empty(), "{label}: the streaming run must have sealed segments");
        for (mode, dir) in [("sequential", &sequential_dir), ("farm", &farm_dir)] {
            assert_eq!(names, list(dir), "{label}: same segment files streaming and {mode}");
            for name in &names {
                assert_eq!(
                    std::fs::read(streaming_dir.join(name)).unwrap(),
                    std::fs::read(dir.join(name)).unwrap(),
                    "{label} {name}: segment bytes differ between streaming and {mode} persistence"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A farm of N sessions is N serial pipelines: for every corner of
/// (superblocks × farm-owned durable store × pool size), each session's
/// report out of the shared-pool fleet is byte-identical to its own serial
/// [`Pipeline`] run.
///
/// The pool sizes cover both span shapes under the farm's cadence (no span
/// longer than `Σ duration_insns / (2 × workers)`): at `workers: 1` the
/// two 200k sessions replay as one span each; at `workers: 3` the cadence
/// is 66,666 and Mysql replays as 3 spans, Jit as 2 (the recorder cuts only
/// at a quiescent point, and Jit's first one past the cadence comes late).
#[test]
fn replay_farm_matches_serial_across_corner_matrix() {
    use rnr_safe::{Farm, FarmConfig, SessionSpec};
    let scratch = std::env::temp_dir().join(format!("rnr-farm-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    for superblocks in [true, false] {
        let cfg = PipelineConfig { duration_insns: 200_000, superblocks, ..PipelineConfig::default() };
        let sessions = || {
            vec![
                SessionSpec::new("jit", Workload::Jit.spec(false), cfg.clone()),
                SessionSpec::new("mysql", Workload::Mysql.spec(false), cfg.clone()),
            ]
        };
        let serial: Vec<String> = sessions()
            .iter()
            .map(|s| Pipeline::new(s.vm.clone(), s.config.clone()).run().unwrap().to_json())
            .collect();
        for durable in [false, true] {
            for workers in [1, 3] {
                // A fresh store root per corner: the farm lays down
                // `session-<id>` segment stores only where one is given.
                let durable_root = durable.then(|| scratch.join(format!("s{superblocks}-w{workers}")));
                let farm = Farm::new(FarmConfig { workers, durable_root });
                let report = farm.run(&sessions());
                for (outcome, expected) in report.sessions.iter().zip(&serial) {
                    let got = outcome
                        .result
                        .as_ref()
                        .unwrap_or_else(|e| {
                            panic!(
                                "superblocks={superblocks} durable={durable} workers={workers} \
                                 session {}: farm failed: {e}",
                                outcome.name
                            )
                        })
                        .to_json();
                    assert_eq!(
                        got, *expected,
                        "superblocks={superblocks} durable={durable} workers={workers} \
                         session {}: farm report diverged from serial",
                        outcome.name
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Adversarial interleaving: an alarm-storming attack session floods the
/// shared pool with AR cases while a self-modifying JIT and a quiet build
/// run beside it. The round-robin scheduler keeps the siblings'
/// work flowing, and every report — the attack's verdicts and detection
/// window included — is byte-identical to its serial reference.
///
/// On 2 workers the fleet's cadence is 350k, so the 900k attack replays as
/// 3 spans (its checkpoints come from span materialization) while the two
/// 250k siblings replay as one span each.
#[test]
fn replay_farm_alarm_storm_does_not_disturb_siblings() {
    use rnr_safe::{Farm, FarmConfig, SessionSpec};
    let (attack_spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let attack_cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let quiet_cfg = PipelineConfig { duration_insns: 250_000, ..PipelineConfig::default() };
    let sessions = vec![
        SessionSpec::new("attack", attack_spec, attack_cfg),
        SessionSpec::new("jit", Workload::Jit.spec(false), quiet_cfg.clone()),
        SessionSpec::new("make", Workload::Make.spec(false), quiet_cfg),
    ];
    let serial: Vec<_> =
        sessions.iter().map(|s| Pipeline::new(s.vm.clone(), s.config.clone()).run().unwrap()).collect();
    assert!(serial[0].attacks_confirmed() >= 1, "the reference attack must be confirmed");

    let farm = Farm::new(FarmConfig { workers: 2, ..FarmConfig::default() });
    let report = farm.run(&sessions);
    assert!(report.all_ok(), "every fleet session must complete");
    for (outcome, expected) in report.sessions.iter().zip(&serial) {
        let got = outcome.result.as_ref().unwrap();
        assert_eq!(
            got.to_json(),
            expected.to_json(),
            "session {}: farm report diverged under the alarm storm",
            outcome.name
        );
    }
}

/// `Arc`-shared logs replay without copies: two replayers can hold the same
/// recording concurrently.
#[test]
fn shared_log_supports_concurrent_replayers() {
    let spec = Workload::Fileio.spec(false);
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 7, 100_000)).unwrap().run();
    let digest = rec.final_digest;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let log = Arc::clone(&rec.log);
            let spec = &spec;
            scope.spawn(move || {
                let mut r = rnr_replay::Replayer::new(spec, log, rnr_replay::ReplayConfig::default());
                r.verify_against(digest);
                assert_eq!(r.run().unwrap().verified, Some(true));
            });
        }
    });
}

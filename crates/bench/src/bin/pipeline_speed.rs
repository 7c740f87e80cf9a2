//! Wall-clock pipeline speed: per-phase times (record / CR / AR) for every
//! workload, plus an optimized-vs-baseline comparison of the full attack
//! pipeline. Unlike every other harness binary, this one measures *host*
//! time — virtual-cycle figures are asserted identical across
//! configurations, which is what makes the wall-clock comparison fair.
//!
//! Writes `BENCH_pipeline.json` at the repository root.
//!
//! With `--check`, runs only the attack comparison and gates against the
//! committed `BENCH_pipeline.json`: exits nonzero if the baseline, block-
//! engine-only, and optimized reports differ, or if the measured speedup
//! regresses more than 20% below the committed figure. The committed file is
//! left untouched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rnr_bench::{
    assert_reports_identical, cores, emit, ms, run_insns, set_json_key, take_json_key, Estimator, Table,
    BENCH_PIPELINE_PATH, SEED,
};
use rnr_hypervisor::{RecordConfig, RecordMode, RecordOutcome, Recorder, VmSpec};
use rnr_replay::{
    assemble_spans, checkpoint_groups, plan_spans, pool, run_planned_span, AlarmReplayer, ReplayConfig,
    ReplayOutcome, Replayer, SpanDone, VIRTUAL_HZ,
};
use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::WorkloadParams;

/// Phase wall-clock for one workload, optimized configuration (sequential
/// phases, so each is attributable).
#[derive(Debug, serde::Serialize)]
struct PhaseTimes {
    workload: String,
    record_ms: f64,
    cr_ms: f64,
    ar_ms: f64,
    alarms_escalated: usize,
}

/// The attack pipeline, baseline vs optimized.
#[derive(Debug, serde::Serialize)]
struct AttackComparison {
    baseline_ms: f64,
    /// Optimized configuration with `superblocks` forced off — the block
    /// engine alone. Its report must match the optimized one; its time is
    /// not gated (DESIGN.md §12).
    blocks_ms: f64,
    optimized_ms: f64,
    speedup: f64,
    /// Full JSON reports byte-identical (cycles, verdicts, window).
    reports_identical: bool,
    attacks_confirmed: usize,
    window_cycles: Option<u64>,
}

/// On-disk density of the attack recording: the log's size per retired
/// guest instruction in its two durable forms — framed-in-memory (the
/// transport/retained-store representation: checksummed frames) and the
/// durable segment store (the same wire codec per record, plus RLE,
/// DESIGN.md §13).
#[derive(Debug, serde::Serialize)]
struct LogDensity {
    records: usize,
    retired_insns: u64,
    framed_bytes: u64,
    compact_bytes: u64,
    framed_bytes_per_insn: f64,
    compact_bytes_per_insn: f64,
    /// framed / compact — how much smaller the segment store is.
    compaction_ratio: f64,
}

/// Measures [`LogDensity`] on the frames the optimized attack pipeline
/// really cuts (full batch, frame age): it records with a durable store
/// attached, and both forms are read back from that store.
fn log_density(insns: u64) -> LogDensity {
    use rnr_log::{encode_frame, DurableLogConfig, DurableStore, SEGMENT_EXT};
    let (spec, _plan) =
        rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
    let dir = std::env::temp_dir().join(format!("rnr-log-density-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig {
        seed: SEED,
        duration_insns: insns,
        durable_log: Some(DurableLogConfig::new(&dir)),
        ..attack_configs().1
    };
    let report = Pipeline::new(spec, cfg).run().expect("attack pipeline completes");
    let store = DurableStore::open(&dir).expect("durable store opens");
    assert!(store.scan().clean(), "fault-free store reopened unclean: {:?}", store.scan());
    let framed_bytes: u64 = (0..store.frame_count())
        .map(|seq| encode_frame(seq, store.frame(seq).expect("every frame sealed")).len() as u64)
        .sum();
    let compact_bytes: u64 = std::fs::read_dir(&dir)
        .expect("store directory lists")
        .map(|e| e.expect("store entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == SEGMENT_EXT))
        .map(|p| std::fs::metadata(p).expect("segment file").len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    let retired = report.record.retired;
    LogDensity {
        records: store.scan().records_indexed as usize,
        retired_insns: retired,
        framed_bytes,
        compact_bytes,
        framed_bytes_per_insn: framed_bytes as f64 / retired as f64,
        compact_bytes_per_insn: compact_bytes as f64 / retired as f64,
        compaction_ratio: framed_bytes as f64 / compact_bytes as f64,
    }
}

/// Span-worker counts of the CR sweep (`0` = the serial engine).
const CR_SWEEP: [usize; 5] = [0, 1, 2, 4, 8];

/// The host the numbers were measured on: core count and the thread-pool
/// sizes the measurements use. Wall-clock figures are meaningless without
/// this context — a single-core runner and an 8-core workstation produce
/// wildly different (but equally deterministic) reports.
#[derive(Debug, serde::Serialize)]
struct HostContext {
    cores: usize,
    ar_workers: usize,
    /// The span-worker counts `cr_parallel` sweeps. The attack comparison
    /// uses no span workers: its optimized pipeline streams, so its CR is
    /// serial, and its baseline replays serially.
    cr_span_workers: Vec<usize>,
}

#[derive(Debug, serde::Serialize)]
struct Doc {
    insns_per_workload: u64,
    host: HostContext,
    phases: Vec<PhaseTimes>,
    attack: AttackComparison,
    /// Verification replay with 0/1/2/4/8 span workers over one recording —
    /// identical cycles and digest, wall-clock only.
    cr_parallel: Vec<CrParallelRow>,
    /// Block-cache counters (recorder + CR + ARs summed) of one optimized
    /// attack run. Diagnostics: these live outside the report JSON that the
    /// equivalence assertions compare.
    block_cache: rnr_machine::BlockStats,
    /// Log bytes per retired instruction, framed vs compact (Figure 6(a)'s
    /// log-rate axis, measured on the durable segment encoding).
    log_density: LogDensity,
}

fn phase_times(workload: rnr_workloads::Workload, insns: u64) -> PhaseTimes {
    let spec = workload.spec(false);
    let t = Instant::now();
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, SEED, insns))
        .expect("record mode matches kernel")
        .run();
    let record_ms = ms(t);
    assert!(rec.fault.is_none(), "{}: guest fault {:?}", workload.label(), rec.fault);

    let cfg = ReplayConfig::default();
    let t = Instant::now();
    let mut cr = Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone());
    cr.verify_against(rec.final_digest);
    let cr_out = cr.run().expect("CR replays the recording");
    let cr_ms = ms(t);
    assert_eq!(cr_out.verified, Some(true), "{}: digest mismatch", workload.label());

    // An idle AR phase is exactly 0: timing the no-op loop would report
    // pool-spinup noise (~1e-4 ms) for workloads that never escalate.
    let ar_ms = if cr_out.alarm_cases.is_empty() {
        0.0
    } else {
        let ar = AlarmReplayer::new(&spec, Arc::clone(&rec.log)).with_config(cfg);
        let cases = &cr_out.alarm_cases;
        let t = Instant::now();
        for group in checkpoint_groups(cases) {
            let mut pass = ar.pass(&cases[group[0]].checkpoint);
            for i in group {
                pass.resolve_next(&cases[i]).expect("AR resolves the case");
            }
        }
        ms(t)
    };
    PhaseTimes {
        workload: workload.label().to_string(),
        record_ms,
        cr_ms,
        ar_ms,
        alarms_escalated: cr_out.alarm_cases.len(),
    }
}

/// One attack-pipeline measurement: the deterministic report plus the
/// chosen wall-clock estimate over the repeats.
struct AttackRun {
    json: String,
    attacks: usize,
    window: Option<u64>,
    wall_ms: f64,
    block_stats: rnr_machine::BlockStats,
}

/// Runs the attack pipeline under `cfg` repeatedly; the report itself is
/// deterministic and asserted identical across every repeat, so only the
/// wall-clock varies.
fn attack_run(cfg: PipelineConfig, estimator: Estimator) -> AttackRun {
    let mut times = Vec::new();
    let mut result = None;
    let mut block_stats = rnr_machine::BlockStats::default();
    for _ in 0..estimator.repeats() {
        let (spec, _plan) =
            rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
        let t = Instant::now();
        let report = Pipeline::new(spec, cfg.clone()).run().expect("attack pipeline completes");
        times.push(ms(t));
        let window = report.detection.as_ref().map(|d| d.window_cycles);
        let outcome = (report.to_json(), report.attacks_confirmed(), window);
        block_stats = report.block_stats;
        if let Some(prev) = &result {
            assert_eq!(prev, &outcome, "pipeline must be deterministic across repeats");
        } else {
            result = Some(outcome);
        }
    }
    times.sort_by(f64::total_cmp);
    let (json, attacks, window) = result.expect("runs completed");
    AttackRun { json, attacks, window, wall_ms: estimator.pick(&times), block_stats }
}

/// Baseline and optimized attack configurations (shared by measurement and
/// `--check` so the gate reruns exactly the committed methodology).
fn attack_configs() -> (PipelineConfig, PipelineConfig) {
    // Long enough that per-instruction execution dominates fixed setup
    // (VM construction, image load, log plumbing) — the knobs under test
    // only affect the former.
    let optimized = PipelineConfig {
        duration_insns: 5_000_000,
        checkpoint_interval_secs: Some(0.05),
        ..PipelineConfig::default()
    };
    let baseline = PipelineConfig {
        streaming: false,
        decode_cache: false,
        block_engine: false,
        parallel_alarm_replay: false,
        ar_workers: 1,
        ..optimized.clone()
    };
    (baseline, optimized)
}

/// Measures the attack comparison, asserting report equivalence.
///
/// Baseline and optimized runs are interleaved in pairs, and the speedup is
/// the estimator's pick over the *per-pair ratios*: a host-load swing hits
/// both members of a pair, so it largely cancels out of the ratio instead
/// of skewing whichever configuration happened to run during it. (The
/// published speedup is therefore not exactly `baseline_ms/optimized_ms`,
/// which are the estimator's picks over the raw times.)
fn attack_comparison(estimator: Estimator) -> (AttackComparison, rnr_machine::BlockStats) {
    let (baseline_cfg, optimized_cfg) = attack_configs();
    let blocks_cfg = PipelineConfig { superblocks: false, ..optimized_cfg.clone() };
    let one = Estimator::Best(1);
    let mut base_times = Vec::new();
    let mut blocks_times = Vec::new();
    let mut opt_times = Vec::new();
    let mut ratios = Vec::new();
    let mut last: Option<(String, usize, Option<u64>, rnr_machine::BlockStats)> = None;
    for _ in 0..estimator.repeats() {
        let base = attack_run(baseline_cfg.clone(), one);
        let blocks = attack_run(blocks_cfg.clone(), one);
        let opt = attack_run(optimized_cfg.clone(), one);
        assert_reports_identical("attack comparison (baseline vs optimized)", &base.json, &opt.json);
        assert_reports_identical("attack comparison (superblocks off vs on)", &blocks.json, &opt.json);
        assert_eq!(base.attacks, opt.attacks);
        assert_eq!(base.window, opt.window);
        if let Some((prev_json, ..)) = &last {
            assert_eq!(prev_json, &opt.json, "pipeline must be deterministic across repeats");
        }
        ratios.push(base.wall_ms / opt.wall_ms);
        base_times.push(base.wall_ms);
        blocks_times.push(blocks.wall_ms);
        opt_times.push(opt.wall_ms);
        last = Some((opt.json, opt.attacks, opt.window, opt.block_stats));
    }
    base_times.sort_by(f64::total_cmp);
    blocks_times.sort_by(f64::total_cmp);
    opt_times.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    let (_, attacks, window, block_stats) = last.expect("at least one repeat");
    let cmp = AttackComparison {
        baseline_ms: estimator.pick(&base_times),
        blocks_ms: estimator.pick(&blocks_times),
        optimized_ms: estimator.pick(&opt_times),
        speedup: estimator.pick(&ratios),
        reports_identical: true,
        attacks_confirmed: attacks,
        window_cycles: window,
    };
    (cmp, block_stats)
}

/// One row of the CR span-worker sweep: the same recording verified with
/// `workers` span workers (`0` = the serial engine). Virtual cycles and the
/// final digest are asserted identical to serial inside [`cr_sweep`].
#[derive(Debug, serde::Serialize)]
struct CrParallelRow {
    workers: usize,
    cr_ms: f64,
    speedup_vs_serial: f64,
}

/// Records the attack workload once, then replays it with every span-worker
/// count, asserting virtual cycles, digest, and verdict-relevant outputs
/// identical to the serial engine and timing each with `estimator`.
fn cr_sweep(worker_counts: &[usize], estimator: Estimator) -> Vec<CrParallelRow> {
    let (spec, _plan) =
        rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).expect("attack mounts");
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, 5_000_000);
    rc.span_seed_every_insns = Some(5_000_000 / 32);
    let rec = Recorder::new(&spec, rc).expect("record mode matches kernel").run();
    assert!(rec.fault.is_none(), "guest fault {:?}", rec.fault);
    let cfg = ReplayConfig {
        checkpoint_interval: Some((0.05 * VIRTUAL_HZ as f64) as u64),
        ..ReplayConfig::default()
    };
    let mut serial: Option<(u64, u64)> = None; // (cycles, checkpoints_taken)
    let mut rows = Vec::new();
    for &workers in worker_counts {
        let mut times = Vec::new();
        for _ in 0..estimator.repeats() {
            let t = Instant::now();
            let (cycles, taken) = if workers == 0 {
                let mut cr = Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone());
                cr.verify_against(rec.final_digest);
                let out = cr.run().expect("serial CR replays");
                assert_eq!(out.verified, Some(true), "serial digest mismatch");
                (out.cycles, out.checkpoints_taken)
            } else {
                let out = span_cr(&spec, &rec, &cfg, workers);
                assert_eq!(out.verified, Some(true), "{workers}-worker digest mismatch");
                (out.cycles, out.checkpoints_taken)
            };
            times.push(ms(t));
            match &serial {
                None => serial = Some((cycles, taken)),
                Some(s) => assert_eq!(
                    *s,
                    (cycles, taken),
                    "{workers} span workers changed the virtual-cycle figures"
                ),
            }
        }
        times.sort_by(f64::total_cmp);
        rows.push(CrParallelRow { workers, cr_ms: estimator.pick(&times), speedup_vs_serial: 0.0 });
    }
    let serial_ms = rows.iter().find(|r| r.workers == 0).expect("serial row measured").cr_ms;
    for row in &mut rows {
        row.speedup_vs_serial = serial_ms / row.cr_ms;
    }
    rows
}

/// Verifies `rec` cut at its span seeds on a pool of `workers` threads,
/// through the three span primitives the replay farm schedules: plan the
/// spans, run each one on the pool, fold the results.
fn span_cr(spec: &VmSpec, rec: &RecordOutcome, cfg: &ReplayConfig, workers: usize) -> ReplayOutcome {
    let jobs = plan_spans(&rec.log, &rec.span_seeds, &cfg.fault_plan);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<SpanDone>>> = Mutex::new(jobs.iter().map(|_| None).collect());
    let (jobs_ref, slots_ref) = (&jobs, &slots);
    pool::drain(workers.clamp(1, jobs.len()), &|| {
        let k = next.fetch_add(1, Ordering::Relaxed);
        (k < jobs_ref.len()).then(|| {
            Box::new(move || {
                let done = run_planned_span(spec, cfg, None, &jobs_ref[k]).expect("span replays");
                slots_ref.lock().expect("span results")[k] = Some(done);
            }) as pool::Task<'_>
        })
    });
    let results =
        slots.into_inner().expect("span results").into_iter().map(|s| Ok(s.expect("every span ran")));
    assemble_spans(
        spec,
        cfg,
        None,
        rec.log.records(),
        &jobs,
        results.collect(),
        Some(rec.final_digest),
        rnr_log::TransportStats::default(),
    )
    .expect("span CR assembles")
    .outcome
}

/// `--check`: quick CI gate. Reruns the attack comparison (report
/// equivalence is asserted inside; median of 5 interleaved triples, so a
/// couple of outliers can't flip the gate) and fails if the measured
/// overall speedup drops more than 20% below the committed
/// `BENCH_pipeline.json` figure. The
/// tolerance is wide because medians of identical configurations have been
/// observed ±15% apart on a loaded 1-core runner; 20% still catches the
/// failure modes that matter (a disabled cache layer or a
/// trace-invalidation storm costs 30%+). On hosts with 4+ cores it
/// additionally requires parallel span replay to verify at least 1.4x
/// faster than the serial engine; on smaller hosts that gate is skipped
/// with a note — a 1-core runner cannot demonstrate parallelism.
fn check() {
    let committed: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(BENCH_PIPELINE_PATH).expect("read committed BENCH_pipeline.json"),
    )
    .expect("committed BENCH_pipeline.json parses");
    let committed_speedup =
        committed["attack"]["speedup"].as_f64().expect("committed attack.speedup present");

    let (attack, _) = attack_comparison(Estimator::Median(5));
    println!(
        "check: reports_identical={} speedup={:.2}x (committed {:.2}x, floor {:.2}x)",
        attack.reports_identical,
        attack.speedup,
        committed_speedup,
        committed_speedup * 0.8,
    );
    if !attack.reports_identical {
        eprintln!("check FAILED: baseline and optimized reports differ");
        std::process::exit(1);
    }
    if attack.speedup < committed_speedup * 0.8 {
        eprintln!(
            "check FAILED: attack-pipeline speedup {:.2}x regressed >20% below committed {:.2}x",
            attack.speedup, committed_speedup
        );
        std::process::exit(1);
    }

    let n = cores();
    if n >= 4 {
        let workers = n.min(4);
        let rows = cr_sweep(&[0, workers], Estimator::Best(3));
        let speedup = rows.iter().find(|r| r.workers == workers).expect("parallel row").speedup_vs_serial;
        println!("check: CR span replay x{workers} speedup {speedup:.2}x over serial (floor 1.40x)");
        if speedup < 1.4 {
            eprintln!("check FAILED: {workers}-worker CR verification speedup {speedup:.2}x below 1.4x");
            std::process::exit(1);
        }
    } else {
        println!(
            "check: gate skipped: CR parallel speedup ({n} core(s) < 4; the wall-clock gate needs real parallelism)"
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }
    let insns = run_insns();
    let phases: Vec<PhaseTimes> = rnr_bench::workloads().into_iter().map(|w| phase_times(w, insns)).collect();

    let mut t = Table::new(&["workload", "record ms", "CR ms", "AR ms", "escalated"]);
    for p in &phases {
        t.row(vec![
            p.workload.clone(),
            format!("{:.1}", p.record_ms),
            format!("{:.1}", p.cr_ms),
            format!("{:.1}", p.ar_ms),
            p.alarms_escalated.to_string(),
        ]);
    }
    emit("Pipeline phase wall-clock (optimized)", &t);

    // Median-of-11 for the committed figure (the gate reruns the same
    // methodology at Median-of-5): per-pair ratios over interleaved triples
    // cancel most load swings, and the wide sample tightens the median on a
    // noisy shared runner at ~8s of extra wall time.
    // measurement must come from the same estimator or the 10% regression
    // band silently tightens.
    let (attack, block_cache) = attack_comparison(Estimator::Median(11));

    let cr_parallel = cr_sweep(&CR_SWEEP, Estimator::Best(3));
    let mut t = Table::new(&["span workers", "CR ms", "vs serial"]);
    for row in &cr_parallel {
        t.row(vec![
            if row.workers == 0 { "serial".into() } else { row.workers.to_string() },
            format!("{:.1}", row.cr_ms),
            format!("{:.2}x", row.speedup_vs_serial),
        ]);
    }
    emit("CR verification replay: span-worker sweep (identical cycles + digest)", &t);

    let mut t = Table::new(&["config", "wall ms", "speedup", "attacks", "window cycles"]);
    t.row(vec![
        "baseline (no streaming, no caches, stepped, 1 AR)".into(),
        format!("{:.1}", attack.baseline_ms),
        "1.00x".into(),
        attack.attacks_confirmed.to_string(),
        attack.window_cycles.map_or("-".into(), |w| w.to_string()),
    ]);
    t.row(vec![
        "block engine only (superblocks off)".into(),
        format!("{:.1}", attack.blocks_ms),
        format!("{:.2}x", attack.baseline_ms / attack.blocks_ms),
        attack.attacks_confirmed.to_string(),
        attack.window_cycles.map_or("-".into(), |w| w.to_string()),
    ]);
    t.row(vec![
        "optimized (streaming + superblocks + AR pool)".into(),
        format!("{:.1}", attack.optimized_ms),
        format!("{:.2}x", attack.speedup),
        attack.attacks_confirmed.to_string(),
        attack.window_cycles.map_or("-".into(), |w| w.to_string()),
    ]);
    emit("Attack pipeline: baseline vs optimized (identical reports)", &t);
    println!(
        "block cache: {} hits, {} builds, {} flushes",
        block_cache.hits, block_cache.builds, block_cache.flushes
    );
    println!(
        "trace cache: {} hits, {} builds, {} flushes, {} fallbacks",
        block_cache.trace_hits,
        block_cache.trace_builds,
        block_cache.trace_flushes,
        block_cache.trace_fallbacks
    );

    let density = log_density(insns);
    let mut t = Table::new(&["log form", "bytes", "bytes/insn", "vs framed"]);
    t.row(vec![
        "framed in-memory (transport frames)".into(),
        density.framed_bytes.to_string(),
        format!("{:.4}", density.framed_bytes_per_insn),
        "1.00x".into(),
    ]);
    t.row(vec![
        "segments (wire codec + RLE)".into(),
        density.compact_bytes.to_string(),
        format!("{:.4}", density.compact_bytes_per_insn),
        format!("{:.2}x smaller", density.compaction_ratio),
    ]);
    emit("Input-log density: framed vs durable segment store", &t);

    let host = HostContext { cores: cores(), ar_workers: cores(), cr_span_workers: CR_SWEEP.to_vec() };
    let doc = Doc {
        insns_per_workload: insns,
        host,
        phases,
        attack,
        cr_parallel,
        block_cache,
        log_density: density,
    };
    // The `farm` key is owned by the `farm_speed` binary; carry the
    // committed value across this rewrite so the two measurement binaries
    // can be rerun in either order without clobbering each other.
    let mut value = serde_json::to_value(&doc);
    if let Some(farm) = std::fs::read_to_string(BENCH_PIPELINE_PATH)
        .ok()
        .and_then(|old| serde_json::from_str::<serde_json::Value>(&old).ok())
        .and_then(|mut old| take_json_key(&mut old, "farm"))
    {
        set_json_key(&mut value, "farm", farm);
    }
    std::fs::write(BENCH_PIPELINE_PATH, serde_json::to_string_pretty(&value).expect("doc serializes"))
        .expect("write BENCH_pipeline.json");
    println!("wrote {BENCH_PIPELINE_PATH}");
}

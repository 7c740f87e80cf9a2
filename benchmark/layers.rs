//! The traced run: one session decomposed into public calls per layer, with
//! a span around each call, and the per-layer metrics taken from them.
//!
//! The decomposition mirrors four crate-private helpers of `rnr-safe`'s
//! pipeline (`record_config`, `replay_config`, `ar_replay_config` and
//! `span_seed_cadence`). The drift guard in [`decompose`] checks that it
//! still reproduces the pipeline's report for the same seed, so a change to
//! those helpers fails the traced run instead of silently measuring
//! something else.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_log::{
    decode_frame, decode_segment, encode_frame, encode_segment, DurableLogConfig, DurableStore,
    DurableWriter, FaultPlan, Record, Segment, TransportStats, DEFAULT_BATCH, DEFAULT_FRAMES_PER_SEGMENT,
};
use rnr_machine::SharedPageCache;
use rnr_replay::{
    assemble_spans, plan_spans, pool, run_planned_span, AlarmReplayer, ReplayConfig, Replayer, VIRTUAL_HZ,
};
use rnr_safe::{Pipeline, PipelineConfig, PipelineReport};

use crate::closed_loop::{clear_durable, op_sessions, run_farm, run_op, Done};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::workloads::{check_verdicts, first_difference, Bench, Kind, Session};

/// Per-layer metric values of one session (or one farm batch).
type Sample = BTreeMap<&'static str, f64>;

/// Calls timed per digest/snapshot measurement; one call takes microseconds.
const STATE_REPS: u32 = 16;

/// Mirror of `rnr-safe`'s `record_config`.
fn record_config(cfg: &PipelineConfig, span_cadence: Option<u64>) -> RecordConfig {
    let mut rc = RecordConfig::new(RecordMode::Rec, cfg.seed, cfg.duration_insns);
    rc.ras_capacity = cfg.ras_capacity;
    rc.costs = cfg.costs;
    rc.stall_on_alarm = cfg.stall_on_alarm;
    rc.decode_cache = cfg.decode_cache;
    rc.block_engine = cfg.block_engine;
    rc.superblocks = cfg.superblocks;
    rc.span_seed_every_insns = span_cadence;
    rc.vrt = cfg.vrt.clone();
    rc
}

/// Mirror of `rnr-safe`'s `replay_config`.
fn replay_config(cfg: &PipelineConfig) -> ReplayConfig {
    ReplayConfig {
        checkpoint_interval: cfg.checkpoint_interval_secs.map(|s| (s * VIRTUAL_HZ as f64) as u64),
        retain: cfg.retain,
        ras_capacity: cfg.ras_capacity,
        costs: cfg.costs,
        decode_cache: cfg.decode_cache,
        block_engine: cfg.block_engine,
        superblocks: cfg.superblocks,
        resilient: true,
        parallel_spans: cfg.parallel_spans,
        fault_plan: cfg.fault_plan.clone(),
        durable_log: cfg.durable_log.clone(),
        vrt: cfg.vrt.clone(),
        ..ReplayConfig::default()
    }
}

/// Mirror of `rnr-safe`'s `ar_replay_config`.
fn ar_replay_config(replay_cfg: &ReplayConfig) -> ReplayConfig {
    ReplayConfig {
        resilient: false,
        fault_plan: FaultPlan::default(),
        durable_log: None,
        ..replay_cfg.clone()
    }
}

/// Mirror of `rnr-safe`'s `span_seed_cadence`.
fn span_seed_cadence(cfg: &PipelineConfig) -> u64 {
    let workers = cfg.parallel_spans.max(1) as u64;
    (cfg.duration_insns / (workers * 4)).max(15_000)
}

/// Collects drift-guard mismatches: the field, the pipeline's value and the
/// decomposition's.
#[derive(Default)]
struct Guard(Vec<String>);

impl Guard {
    fn check<T: PartialEq + std::fmt::Debug>(&mut self, field: &str, pipeline: T, decomposed: T) {
        if pipeline != decomposed {
            self.0.push(format!("{field}: pipeline {pipeline:?}, decomposition {decomposed:?}"));
        }
    }
}

/// Runs `tasks` closures on a pool of `workers` threads, each inside a span
/// named `name` under `parent`; returns each task's result and ms in order.
fn pooled<T: Send>(
    tr: &Tracer,
    name: &'static str,
    session: u64,
    parent: usize,
    workers: usize,
    tasks: usize,
    task: &(dyn Fn(usize) -> T + Sync),
) -> Vec<(T, f64)> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(T, f64)>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let slots_ref = &slots;
    pool::drain(workers.clamp(1, tasks.max(1)), &|| {
        let k = next.fetch_add(1, Ordering::Relaxed);
        (k < tasks).then(|| {
            Box::new(move || {
                let done = tr.time(name, session, Some(parent), |_| task(k));
                *slots_ref[k].lock().expect("task slot") = Some(done);
            }) as pool::Task<'_>
        })
    });
    slots.into_iter().map(|m| m.into_inner().expect("task slot").expect("every task ran")).collect()
}

/// Times `STATE_REPS` calls of `f` in one span; returns µs per call.
fn per_call_us(tr: &Tracer, name: &'static str, session: u64, parent: usize, f: impl Fn()) -> f64 {
    let ((), ms) = tr.time(name, session, Some(parent), |_| (0..STATE_REPS).for_each(|_| f()));
    ms * 1e3 / f64::from(STATE_REPS)
}

/// The traced run's view of one session: its same-seed `Pipeline::run`
/// report and time, then the decomposition. Returns the session's
/// per-layer sample, or every failure found (verdicts, drift).
fn decompose(
    tr: &Tracer,
    session: &Session,
    report: &PipelineReport,
    pipeline_ms: f64,
    pools: usize,
    scratch: &Path,
) -> Result<Sample, Vec<String>> {
    let cfg = &session.config;
    let spec = &session.spec;
    let seed = cfg.seed;
    let mut s = Sample::new();
    let mut guard = Guard::default();
    let shared = Arc::new(SharedPageCache::new());
    let decomp_dir = scratch.join(format!("decomposed-{seed}"));
    let replica_dir = scratch.join(format!("replica-{seed}"));

    let outcome = tr.time("safe.decomposed", seed, None, |root| -> Result<(), String> {
        // Hypervisor: the recording, with the same seed cadence and durable
        // writer the pipeline arms.
        let rc = record_config(cfg, (cfg.parallel_spans > 0).then(|| span_seed_cadence(cfg)));
        let (rec, record_ms) = tr.time("hypervisor.record", seed, Some(root), |_| -> Result<_, String> {
            let mut recorder = Recorder::new(spec, rc).map_err(|e| e.to_string())?;
            recorder.attach_shared_cache(Arc::clone(&shared));
            if cfg.durable_log.is_some() {
                let writer = DurableWriter::create(DurableLogConfig::new(&decomp_dir), &FaultPlan::default())
                    .map_err(|e| e.to_string())?;
                recorder.persist_to(writer);
            }
            Ok(recorder.run())
        });
        let rec = rec?;
        if let Some(fault) = rec.fault {
            return Err(format!("guest fault while recording: {fault:?}"));
        }
        let records = rec.log.records();
        let log_bytes = rec.log.total_bytes();
        s.insert("hypervisor.record_ms", record_ms);
        s.insert("hypervisor.record_minsn_per_s", rec.retired as f64 / record_ms / 1e3);
        s.insert("hypervisor.log_bytes_per_kinsn", log_bytes as f64 * 1e3 / rec.retired as f64);
        s.insert(
            "hypervisor.network_log_share",
            rec.log.bytes_for(rnr_log::Category::Network) as f64 / log_bytes.max(1) as f64,
        );
        s.insert("hypervisor.span_seeds", rec.span_seeds.len() as f64);
        let alarms_logged = records
            .iter()
            .filter(|r| matches!(r, Record::Alarm(_) | Record::VrtAlarm(_) | Record::JopAlarm { .. }))
            .count();
        s.insert("hypervisor.alarms_logged", alarms_logged as f64);

        // Replay: the serial CR, verified against the recording.
        let rcfg = replay_config(cfg);
        let (cr, cr_serial_ms) = tr.time("replay.cr_serial", seed, Some(root), |_| {
            let mut cr = Replayer::new(spec, Arc::clone(&rec.log), rcfg.clone());
            cr.attach_shared_cache(Arc::clone(&shared));
            cr.verify_against(rec.final_digest);
            cr.run()
        });
        let cr = cr.map_err(|e| format!("serial CR: {e}"))?;
        if cr.verified != Some(true) {
            return Err("serial CR did not verify".into());
        }
        s.insert("replay.cr_serial_ms", cr_serial_ms);
        s.insert("replay.cr_minsn_per_s", cr.retired as f64 / cr_serial_ms / 1e3);
        s.insert("replay.checkpoints_taken", cr.checkpoints_taken as f64);
        s.insert("replay.checkpoints_live_max", cr.checkpoints_live_max as f64);

        // Replay: the span CR, planned, run per job on the pool, assembled.
        let (span_cycles, span_cr_ms) = tr.time("replay.span_cr", seed, Some(root), |span_root| {
            let (jobs, plan_ms) = tr.time("replay.span_plan", seed, Some(span_root), |_| {
                plan_spans(&rec.log, &rec.span_seeds, &rcfg.fault_plan)
            });
            let (done, phase_ms) = tr.time("replay.span_phase", seed, Some(span_root), |phase| {
                pooled(tr, "replay.span", seed, phase, pools, jobs.len(), &|k| {
                    run_planned_span(spec, &rcfg, Some(&shared), &jobs[k])
                })
            });
            let work: Vec<f64> = done.iter().map(|(_, ms)| *ms).collect();
            let results = done.into_iter().map(|(r, _)| r).collect();
            let (assembled, assemble_ms) = tr.time("replay.span_assemble", seed, Some(span_root), |_| {
                assemble_spans(
                    spec,
                    &rcfg,
                    Some(&shared),
                    records,
                    &jobs,
                    results,
                    Some(rec.final_digest),
                    TransportStats::default(),
                )
            });
            let work_ms: f64 = work.iter().sum();
            s.insert("replay.span_count", jobs.len() as f64);
            s.insert("replay.span_plan_ms", plan_ms);
            s.insert("replay.span_work_ms", work_ms);
            s.insert("replay.span_critical_ms", work.iter().copied().fold(0.0, f64::max));
            s.insert("replay.span_phase_ms", phase_ms);
            s.insert("replay.span_assemble_ms", assemble_ms);
            s.insert("replay.span_work_inflation", (work_ms + assemble_ms) / cr_serial_ms);
            assembled.map(|p| p.outcome.cycles).map_err(|e| format!("span CR: {e}"))
        });
        guard.check("span CR cycles vs serial CR cycles", cr.cycles, span_cycles?);

        // Replay: every escalated case on the AR pool.
        let cases = &cr.alarm_cases;
        let ar_workers =
            if cfg.parallel_alarm_replay && cases.len() > 1 { pools.clamp(1, cases.len()) } else { 1 };
        let (verdicts, ar_phase_ms) = tr.time("replay.ar_phase", seed, Some(root), |phase| {
            let ar = AlarmReplayer::new(spec, Arc::clone(&rec.log))
                .with_config(ar_replay_config(&rcfg))
                .with_shared_cache(Arc::clone(&shared));
            pooled(tr, "replay.ar_case", seed, phase, ar_workers, cases.len(), &|k| {
                ar.resolve(&cases[k]).map(|(verdict, _)| verdict)
            })
        });
        let mut case_ms: Vec<f64> = verdicts.iter().map(|(_, ms)| *ms).collect();
        let mut decomposed_verdicts = Vec::with_capacity(verdicts.len());
        for (i, (v, _)) in verdicts.into_iter().enumerate() {
            decomposed_verdicts.push(v.map_err(|e| format!("alarm case {i}: {e}"))?);
        }
        let dismissed = decomposed_verdicts.iter().filter(|v| !v.is_attack()).count();
        s.insert("replay.ar_cases", cases.len() as f64);
        s.insert("replay.ar_phase_ms", ar_phase_ms);
        s.insert("replay.ar_dismissed_ratio", dismissed as f64 / cases.len().max(1) as f64);
        if !case_ms.is_empty() {
            case_ms.sort_by(f64::total_cmp);
            s.insert("replay.ar_case_ms_p50", nearest_rank(&case_ms, 50.0));
            s.insert("replay.ar_case_ms_max", case_ms[case_ms.len() - 1]);
        }

        // Machine: state digest and page snapshot of the CR's final VM.
        let vm = cr.vm();
        s.insert(
            "machine.digest_us",
            per_call_us(tr, "machine.digest", seed, root, || {
                black_box(vm.digest());
            }),
        );
        s.insert(
            "machine.snapshot_us",
            per_call_us(tr, "machine.snapshot", seed, root, || drop(black_box(vm.mem().snapshot_pages()))),
        );

        // Log: off-path replicas of the codec and store over this session's
        // own records.
        log_replicas(tr, seed, root, records, &replica_dir, &mut s)?;

        // Safe: how much of the pipeline's time the three phases account for.
        let cr_phase_ms = if cfg.parallel_spans > 0 { span_cr_ms } else { cr_serial_ms };
        s.insert("safe.pipeline_ms", pipeline_ms);
        s.insert("safe.phase_overlap", (record_ms + cr_phase_ms + ar_phase_ms) / pipeline_ms);

        // Drift guard: the decomposition must reproduce the report.
        guard.check("record.retired", report.record.retired, rec.retired);
        guard.check("record.cycles", report.record.cycles, rec.cycles);
        guard.check("record.log_bytes", report.record.log_bytes, log_bytes);
        guard.check("replay.cycles", report.replay.cycles, cr.cycles);
        guard.check("replay.checkpoints_taken", report.replay.checkpoints_taken, cr.checkpoints_taken);
        guard.check("replay.alarms_escalated", report.replay.alarms_escalated, cases.len());
        let debug = |v: &rnr_replay::Verdict| format!("{v:?}");
        guard.check(
            "verdicts",
            report.resolutions.iter().map(|r| debug(&r.verdict)).collect::<Vec<_>>(),
            decomposed_verdicts.iter().map(debug).collect(),
        );
        Ok(())
    });
    for dir in [&decomp_dir, &replica_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut failures = guard.0;
    if let Err(e) = outcome.0 {
        failures.push(e);
    }
    if let Err(e) = check_verdicts(session, report) {
        failures.push(e);
    }
    if !failures.is_empty() {
        return Err(failures
            .into_iter()
            .map(|f| format!("session seed {seed} ({}): {f}", session.name))
            .collect());
    }
    let stats = report.block_stats;
    s.insert("machine.block_hit_ratio", stats.hits as f64 / (stats.hits + stats.builds).max(1) as f64);
    s.insert("machine.block_builds", stats.builds as f64);
    s.insert("machine.block_flushes", stats.flushes as f64);
    s.insert("machine.shared_imports", stats.shared_imports as f64);
    s.insert("machine.trace_hits", stats.trace_hits as f64);
    s.insert("machine.trace_insns", stats.trace_insns as f64);
    s.insert("machine.trace_insns_per_hit", stats.trace_insns as f64 / stats.trace_hits.max(1) as f64);
    s.insert("machine.trace_flushes", stats.trace_flushes as f64);
    s.insert("machine.trace_fallbacks", stats.trace_fallbacks as f64);
    let window = report.detection.as_ref().map_or(0, |d| d.window_cycles);
    s.insert("safe.detection_window_vcycles", window as f64);
    Ok(s)
}

/// Frame codec, segment codec and durable store, replayed over `records`.
fn log_replicas(
    tr: &Tracer,
    seed: u64,
    root: usize,
    records: &[Record],
    dir: &Path,
    s: &mut Sample,
) -> Result<(), String> {
    let (done, _) = tr.time("log.replicas", seed, Some(root), |parent| -> Result<(), String> {
        let batches: Vec<&[Record]> = records.chunks(DEFAULT_BATCH).collect();
        let (frames, encode_ms) = tr.time("log.frame_encode", seed, Some(parent), |_| {
            batches.iter().enumerate().map(|(seq, b)| encode_frame(seq as u64, b)).collect::<Vec<_>>()
        });
        let (decoded, decode_ms) = tr.time("log.frame_decode", seed, Some(parent), |_| {
            frames.iter().map(|f| decode_frame(f).map(|(_, r)| r.len())).sum::<Result<usize, _>>()
        });
        if decoded.map_err(|e| format!("frame decode: {e}"))? != records.len() {
            return Err("frame round trip lost records".into());
        }
        let framed_bytes: usize = frames.iter().map(|f| f.len()).sum();
        let segments: Vec<Segment> = batches
            .chunks(DEFAULT_FRAMES_PER_SEGMENT)
            .enumerate()
            .map(|(i, group)| Segment {
                first_seq: (i * DEFAULT_FRAMES_PER_SEGMENT) as u64,
                frames: group.iter().map(|b| b.to_vec()).collect(),
            })
            .collect();
        let (encoded, seg_encode_ms) = tr.time("log.segment_encode", seed, Some(parent), |_| {
            segments.iter().map(|seg| encode_segment(seg, true)).collect::<Vec<_>>()
        });
        let (back, seg_decode_ms) = tr.time("log.segment_decode", seed, Some(parent), |_| {
            encoded.iter().map(|b| decode_segment(b)).collect::<Result<Vec<_>, _>>()
        });
        if back.map_err(|e| format!("segment decode: {e}"))? != segments {
            return Err("segment round trip changed the records".into());
        }
        let compact_bytes: usize = encoded.iter().map(Vec::len).sum();
        let (written, write_ms) = tr.time("log.durable_write", seed, Some(parent), |_| {
            DurableWriter::create(DurableLogConfig::new(dir), &FaultPlan::default()).map(|mut w| {
                for (seq, b) in batches.iter().enumerate() {
                    w.append_frame(seq as u64, b);
                }
                w.finish()
            })
        });
        let written = written.map_err(|e| format!("durable write: {e}"))?;
        let (store, open_ms) = tr.time("log.durable_open", seed, Some(parent), |_| DurableStore::open(dir));
        let store = store.map_err(|e| format!("durable open: {e}"))?;
        if !store.scan().clean() || store.frame_count() != frames.len() as u64 {
            return Err(format!("durable store reopened unclean: {:?}", store.scan()));
        }
        s.insert("log.frame_encode_ms", encode_ms);
        s.insert("log.frame_decode_ms", decode_ms);
        s.insert("log.segment_encode_ms", seg_encode_ms);
        s.insert("log.segment_decode_ms", seg_decode_ms);
        s.insert("log.durable_write_ms", write_ms);
        s.insert("log.durable_open_ms", open_ms);
        s.insert("log.frames", frames.len() as f64);
        s.insert("log.segments_sealed", written.segments_sealed as f64);
        s.insert("log.compaction_ratio", framed_bytes as f64 / compact_bytes.max(1) as f64);
        Ok(())
    });
    done
}

/// Sessions a traced run traces at least, however short `--seconds` is.
const TRACED_SESSIONS: u64 = 20;

/// Members of the farm batch a single-session workload's farm layer is
/// measured on: its first traced sessions.
const FARM_MEMBERS: usize = 4;

/// A traced session's solo result: the session, its report, its time.
type Solo = (Session, String, f64);

/// What the traced run produced.
pub struct Traced {
    /// Per-layer metrics: medians over sessions (farm metrics: over batches).
    pub metrics: Sample,
    pub attempted: u64,
    /// Each failure with the seed of the session it failed.
    pub failures: Vec<(u64, String)>,
    pub spans: Vec<crate::trace::Span>,
}

/// Farm metrics of one batch against its members' solo runs.
fn farm_sample(
    done: &[Done],
    solo: &[Option<Solo>],
    run_ms: f64,
    pools: usize,
) -> Result<Sample, Vec<(u64, String)>> {
    let mut failures = Vec::new();
    let mut waits = Vec::new();
    let mut solo_sum = 0.0;
    for (d, s) in done.iter().zip(solo) {
        let Some((session, json, ms)) = s else {
            failures.push((d.seed, format!("farm seed {}: no solo report to compare with", d.seed)));
            continue;
        };
        if let Some(f) = &d.failure {
            failures.push((d.seed, format!("farm seed {} ({}): {f}", d.seed, session.name)));
        } else if &d.json != json {
            let at = first_difference(json, &d.json);
            failures.push((
                d.seed,
                format!("farm seed {} ({}): farm report differs from the solo report at {at}", d.seed, session.name),
            ));
        }
        waits.push(d.latency_ms - ms);
        solo_sum += ms;
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    let mut s = Sample::new();
    s.insert("farm.run_ms", run_ms);
    s.insert("farm.solo_sum_ms", solo_sum);
    s.insert("farm.pool_efficiency", solo_sum / (run_ms * pools as f64));
    s.insert("farm.speedup_vs_serial", solo_sum / run_ms);
    s.insert("farm.queue_wait_ms_p50", median(&waits).expect("a farm batch has members"));
    Ok(s)
}

/// The traced run: operation by operation, for `seconds` and at least
/// [`TRACED_SESSIONS`] sessions, an untraced run (the overhead baseline),
/// then each session's `Pipeline::run` and its decomposition; then a farm
/// batch.
pub fn traced_run(bench: &Bench, seed0: u64, seconds: f64, scratch: &Path) -> Traced {
    let fleet = bench.kind == Kind::Fleet;
    let pools = bench.pools;
    let min_ops = TRACED_SESSIONS.div_ceil(bench.kind.sessions_per_op());
    let start = Instant::now();
    let tr = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut samples = Vec::new();
    let mut farm_samples = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut first_solos = Vec::new();
    let mut op = 0;
    while op < min_ops || start.elapsed().as_secs_f64() < seconds {
        untraced.extend(run_op(bench, op, seed0).iter().map(|d| d.latency_ms));
        let sessions = op_sessions(bench, op, seed0);
        let farm =
            fleet.then(|| tr.time("farm.run", sessions[0].config.seed, None, |_| run_farm(&sessions, pools)));
        let mut solos = Vec::new();
        for session in &sessions {
            attempted += 1;
            let seed = session.config.seed;
            clear_durable(session);
            let pipeline = Pipeline::new(session.spec.clone(), session.config.clone());
            let (result, ms) = tr.time("safe.pipeline", seed, None, |_| pipeline.run());
            clear_durable(session);
            if !fleet {
                traced.push(ms);
            }
            match result {
                Ok(report) => {
                    match decompose(&tr, session, &report, ms, pools, scratch) {
                        Ok(s) => samples.push(s),
                        Err(f) => failures.extend(f.into_iter().map(|m| (seed, m))),
                    }
                    solos.push(Some((session.clone(), report.to_json(), ms)));
                }
                Err(e) => {
                    failures.push((seed, format!("session seed {seed} ({}): {e}", session.name)));
                    solos.push(None);
                }
            }
        }
        match farm {
            Some((done, run_ms)) => {
                traced.extend(done.iter().map(|d| d.latency_ms));
                match farm_sample(&done, &solos, run_ms, pools) {
                    Ok(s) => farm_samples.push(s),
                    Err(f) => failures.extend(f),
                }
            }
            None if first_solos.len() < FARM_MEMBERS => first_solos.extend(solos),
            None => {}
        }
        op += 1;
    }
    // A failed solo session was reported above; its farm batch is skipped.
    if !fleet && first_solos[..FARM_MEMBERS].iter().all(Option::is_some) {
        let solos = &first_solos[..FARM_MEMBERS];
        let sessions: Vec<Session> = solos.iter().flatten().map(|(s, _, _)| s.clone()).collect();
        let (done, run_ms) = tr.time("farm.run", seed0, None, |_| run_farm(&sessions, pools));
        match farm_sample(&done, solos, run_ms, pools) {
            Ok(s) => farm_samples.push(s),
            Err(f) => failures.extend(f),
        }
    }

    let values = |name: &str| -> Vec<f64> {
        samples.iter().chain(&farm_samples).filter_map(|s| s.get(name).copied()).collect()
    };
    let mut metrics = Sample::new();
    for (name, _) in crate::report::PER_LAYER {
        metrics.insert(name, median(&values(name)).unwrap_or(0.0));
    }
    // Per-case AR times are medians over the sessions that escalated; a
    // workload that never escalates reads its idle AR phase instead.
    for name in ["replay.ar_case_ms_p50", "replay.ar_case_ms_max"] {
        if values(name).is_empty() {
            metrics.insert(name, metrics["replay.ar_phase_ms"]);
        }
    }
    untraced.sort_by(f64::total_cmp);
    traced.sort_by(f64::total_cmp);
    metrics.insert("trace.overhead_ratio", nearest_rank(&traced, 50.0) / nearest_rank(&untraced, 50.0));
    Traced { metrics, attempted, failures, spans: tr.into_spans() }
}

//! Span-partitioned parallel verification replay (DESIGN.md §11).
//!
//! The recorder's span seeds cut the input log into contiguous **spans**;
//! each span is replayed by an independent worker restored from the seed
//! preceding it, and the workers' per-record [`SpanMark`] traces are folded
//! back into the serial CR's absolute virtual clock, checkpoint schedule,
//! and alarm bookkeeping. Parallelism is strictly a **wall-clock**
//! optimization: cycles, digests, alarm cases, recovery accounting — every
//! byte of the final [`ReplayOutcome`] that reaches a report — is identical
//! to what a serial [`Replayer`] produces over the same log.
//!
//! Span replay verifies *finished* recordings: a log and the seeds its
//! recorder captured. The replay farm is the one library caller: it
//! records each session with seed capture armed, runs [`plan_spans`]' jobs
//! as work items on its shared pool, and folds them with
//! [`assemble_spans`]. The pipeline always verifies with the serial
//! [`Replayer`], which trails a streaming recording and ends within a few
//! ms of it (DESIGN.md §11).
//!
//! Correctness rests on three properties of the replay engine:
//!
//! 1. Guest execution never reads the absolute cycle clock — every charge
//!    is a delta — so a worker that starts its clock at zero accumulates
//!    exactly the deltas the serial CR would between the same two records.
//! 2. The only RNG consumed during CR replay is the landing-overshoot draw,
//!    exactly one per `Interrupt` record; pre-positioning a worker's RNG by
//!    the number of prior interrupts reproduces the serial draw sequence.
//! 3. Seeds are captured at quiescent points (no pending IRQs, no in-flight
//!    faults), so a span's final architectural digest must equal the next
//!    span's seeded start digest — the **seam check** that replaces the
//!    serial CR's continuous verification between spans.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use rnr_hypervisor::{CycleAttribution, VmSpec};
use rnr_isa::Addr;
use rnr_log::{Category, FaultPlan, InputLog, LogSource, Record, TransportStats};
use rnr_machine::{BlockStats, Digest, SharedPageCache};
use rnr_ras::ThreadId;

use crate::book::AlarmBook;
use crate::{
    AlarmCase, CaseKind, Checkpoint, ReplayConfig, ReplayError, ReplayOutcome, ReplayRecovery, Replayer,
    SpanDone,
};

/// Result of [`assemble_spans`]: the serial-identical outcome plus the
/// merged wall-clock block-engine statistics of every span (the outcome's
/// own VM is only the *last* span's, so its stats alone would undercount).
#[derive(Debug)]
pub struct ParallelReplayOutcome {
    /// The replay outcome, byte-identical to a serial run's.
    pub outcome: ReplayOutcome,
    /// Decoded-block statistics summed across span workers and checkpoint
    /// materialization (diagnostic; never part of a report).
    pub block_stats: BlockStats,
}

/// One span's work order: everything a worker needs to replay one
/// contiguous slice of the log independently. Opaque outside this crate —
/// built by [`plan_spans`], executed by [`run_planned_span`], and folded
/// back into a serial-identical outcome by [`assemble_spans`], which lets
/// external schedulers (the replay farm) interleave spans from many
/// recordings on one shared pool without touching engine internals.
#[derive(Debug, Clone)]
pub struct SpanJob {
    index: usize,
    /// `None` for span 0 (fresh boot state), the preceding seed otherwise,
    /// its id the span's index (the rewind trail names it).
    seed: Option<Arc<Checkpoint>>,
    /// The whole log, shared; the worker's cursor does the partitioning.
    log: Arc<InputLog>,
    /// First record index *not* in this span (`None` = run to `End`).
    records_end: Option<usize>,
    /// Seam instruction to run to after the last record (`None` = final span).
    seam: Option<u64>,
    /// Retired-instruction count at span entry.
    start_insn: u64,
    /// `Interrupt` records before this span: landing-RNG pre-positioning.
    prior_interrupts: u64,
    /// Plan injections whose instruction falls inside this span.
    inject_cr: Option<u64>,
    inject_block: Option<u64>,
}

impl SpanJob {
    /// The span's position in record order (the key results are ordered by).
    pub fn index(&self) -> usize {
        self.index
    }
}

/// A checkpoint the fold scheduled; materialized only if an alarm case
/// references it.
struct Placement {
    span: usize,
    /// Log index of the record after which the checkpoint was taken
    /// (`None` = the initial checkpoint, before any record).
    at_record: Option<usize>,
    at_cycle: u64,
    evicts: HashMap<ThreadId, Vec<Addr>>,
    dirty_pages: usize,
    dirty_blocks: usize,
}

/// An alarm case before checkpoint materialization.
struct CaseRef {
    placement: u64,
    kind: CaseKind,
    alarm_index: usize,
    cr_cycle: u64,
}

/// The serial CR's derived state, reconstructed from the span traces.
#[derive(Default)]
struct Fold {
    /// The serial CR's absolute virtual clock.
    cycles: u64,
    /// The clock at the latest checkpoint.
    last_checkpoint: u64,
    checkpoint_cycles: u64,
    taken: u64,
    max_live: usize,
    /// The retained-checkpoint window, as (placement id, at_insn).
    live: VecDeque<(u64, u64)>,
    placements: Vec<Placement>,
    /// Pages and disk blocks dirtied since the latest checkpoint.
    dirty_pages: HashSet<usize>,
    dirty_blocks: HashSet<usize>,
    book: AlarmBook,
    case_refs: Vec<CaseRef>,
}

impl Fold {
    /// Schedules a checkpoint after record `at_record` of span `span`,
    /// charging its cost into the clock like `Replayer::take_checkpoint`.
    fn place(&mut self, cfg: &ReplayConfig, span: usize, at_record: Option<usize>, at_insn: u64) {
        let dirty_pages = self.dirty_pages.len();
        let dirty_blocks = self.dirty_blocks.len();
        // The serial CR's cow-fault counter equals the distinct pages
        // dirtied in the epoch, which is exactly this union's page count.
        let cost = cfg.costs.checkpoint(dirty_pages as u64, dirty_blocks as u64, dirty_pages as u64);
        self.cycles += cost;
        self.checkpoint_cycles += cost;
        self.last_checkpoint = self.cycles;
        let id = self.placements.len() as u64;
        self.placements.push(Placement {
            span,
            at_record,
            at_cycle: self.cycles,
            evicts: self.book.evicts().clone(),
            dirty_pages,
            dirty_blocks,
        });
        self.live.push_back((id, at_insn));
        self.taken += 1;
        while self.live.len() > cfg.retain {
            self.live.pop_front();
        }
        self.max_live = self.max_live.max(self.live.len());
        self.dirty_pages.clear();
        self.dirty_blocks.clear();
    }
}

/// Cuts a finished recording into one [`SpanJob`] per seed interval.
///
/// Each job carries the shared log, its seam bounds, its landing-RNG
/// pre-positioning, and whichever fault-plan injections fall inside it, so
/// the jobs can be executed in any order, by any worker, on any pool.
pub fn plan_spans(log: &Arc<InputLog>, seeds: &[Checkpoint], plan: &FaultPlan) -> Vec<SpanJob> {
    (0..=seeds.len()).map(|k| make_job(k, seeds, log, plan)).collect()
}

/// Reassembles per-span results into a [`ReplayOutcome`] byte-identical to
/// a serial CR's: surfaces the earliest span failure, seam-checks adjacent
/// digests, folds the traces onto the serial clock/checkpoint/alarm
/// bookkeeping, and materializes only the checkpoints alarm cases reference.
///
/// `results` must be in span order (index `k` = `jobs[k]`), and `records`
/// is the full record sequence the jobs were planned over. `transport` is
/// copied into the outcome's recovery accounting; spans replay a finished
/// log, which has no transport, so every caller passes zeros. `_shared`
/// does nothing: each worker decodes into its own VM's cache. Both
/// parameters are kept only because the frozen repository benchmark passes
/// them; they are deleted at the next change to `benchmark/`.
///
/// # Errors
///
/// The first failed span's error in span order (deterministic regardless of
/// completion order), a seam-digest [`ReplayError::Divergence`], or a
/// checkpoint-materialization failure.
#[allow(clippy::too_many_arguments)]
pub fn assemble_spans(
    spec: &VmSpec,
    cfg: &ReplayConfig,
    _shared: Option<&Arc<SharedPageCache>>,
    records: &[Record],
    jobs: &[SpanJob],
    results: Vec<Result<SpanDone, ReplayError>>,
    expected: Option<Digest>,
    transport: TransportStats,
) -> Result<ParallelReplayOutcome, ReplayError> {
    // Surface the earliest span's failure (deterministic regardless of
    // which worker finished first).
    let mut spans = Vec::with_capacity(results.len());
    for result in results {
        spans.push(result?);
    }

    // Seam check: each span must end in exactly the architectural state the
    // next span was seeded with.
    for k in 0..spans.len().saturating_sub(1) {
        if spans[k].outcome.final_digest != spans[k + 1].start_digest {
            return Err(ReplayError::Divergence {
                at_insn: jobs[k + 1].start_insn,
                detail: format!("parallel span seam digest mismatch between spans {k} and {}", k + 1),
            });
        }
    }

    let fold = fold_spans(cfg, records, &spans);
    let (built, mat_stats) = materialize_checkpoints(spec, cfg, jobs, &fold)?;

    let mut block_stats = mat_stats;
    let mut attribution = CycleAttribution::new();
    let mut console = Vec::new();
    let mut callret_traps = 0;
    let mut recovery = ReplayRecovery { transport, ..ReplayRecovery::default() };
    for s in &spans {
        block_stats.merge(&s.outcome.vm.block_stats());
        for c in Category::ALL {
            let v = s.outcome.attribution.for_category(c);
            if v > 0 {
                attribution.charge(c, v);
            }
        }
        console.extend_from_slice(&s.outcome.console);
        callret_traps += s.outcome.callret_traps;
        let r = &s.outcome.recovery;
        recovery.rewinds += r.rewinds;
        recovery.rewound_insns += r.rewound_insns;
        recovery.block_fallback_spans += r.block_fallback_spans;
        recovery.trail.extend(r.trail.iter().cloned());
    }
    attribution.charge_checkpoint(fold.checkpoint_cycles);

    let alarm_cases = fold
        .case_refs
        .iter()
        .map(|c| AlarmCase {
            checkpoint: built.get(&c.placement).cloned().expect("referenced checkpoint materialized"),
            kind: c.kind,
            alarm_index: c.alarm_index,
            cr_cycle: c.cr_cycle,
        })
        .collect();

    let last = spans.pop().expect("at least one span");
    let final_digest = last.outcome.final_digest;
    let outcome = ReplayOutcome {
        cycles: fold.cycles,
        retired: last.outcome.retired,
        final_digest,
        verified: expected.map(|d| d == final_digest),
        attribution,
        checkpoints_taken: fold.taken,
        checkpoints_live_max: fold.max_live,
        alarms_seen: fold.book.alarms_seen,
        underflows_cancelled: fold.book.cancelled,
        alarm_cases,
        jop_cases: fold.book.jop_cases,
        callret_traps,
        console,
        recovery,
        profile: HashMap::new(),
        vm: last.outcome.vm,
    };
    Ok(ParallelReplayOutcome { outcome, block_stats })
}

fn make_job(k: usize, seeds: &[Checkpoint], log: &Arc<InputLog>, plan: &FaultPlan) -> SpanJob {
    let (start_rec, start_insn, seed) = if k == 0 {
        (0, 0, None)
    } else {
        let s = &seeds[k - 1];
        (s.cursor.index(), s.at_insn, Some(Arc::new(Checkpoint { id: k as u64, ..s.clone() })))
    };
    let (records_end, seam, end_insn) = if k < seeds.len() {
        (Some(seeds[k].cursor.index()), Some(seeds[k].at_insn), seeds[k].at_insn)
    } else {
        (None, None, u64::MAX)
    };
    let prior_interrupts =
        log.records()[..start_rec].iter().filter(|r| matches!(r, Record::Interrupt { .. })).count() as u64;
    // A planned injection belongs to exactly one span: the one whose
    // instruction range contains it (serial fires it at the first loop-top
    // at or past `at`; the owning worker does the same).
    let in_range = |at: &u64| *at >= start_insn && *at < end_insn;
    SpanJob {
        index: k,
        seed,
        log: Arc::clone(log),
        records_end,
        seam,
        start_insn,
        prior_interrupts,
        inject_cr: plan.cr_divergence_at_insn.filter(in_range),
        inject_block: plan.block_divergence_at_insn.filter(in_range),
    }
}

/// The per-worker replay configuration: span workers never checkpoint and
/// never collect cases (the fold owns both); they are injection-free and do
/// not recover unless [`run_planned_span`] arms them.
fn worker_cfg(cfg: &ReplayConfig) -> ReplayConfig {
    ReplayConfig {
        checkpoint_interval: None,
        collect_cases: false,
        resilient: false,
        profile_sample_every: None,
        fault_plan: FaultPlan::default(),
        durable_log: None,
        ..cfg.clone()
    }
}

/// A span worker: span 0 boots like the serial CR (a restored boot
/// snapshot would mark every page dirty and change the initial
/// checkpoint's cost); every later span starts from its seed.
fn build_replayer(spec: &VmSpec, wcfg: ReplayConfig, job: &SpanJob) -> Replayer {
    let source = LogSource::Complete(Arc::clone(&job.log));
    let mut r = match &job.seed {
        None => Replayer::new(spec, source, wcfg),
        Some(seed) => Replayer::from_checkpoint(spec, source, wcfg, seed, false),
    };
    r.skip_landing_draws(job.prior_interrupts);
    r
}

/// Replays one planned span to completion, with the planned injections that
/// fall inside it. When `cfg.resilient` is set the worker heals as the
/// serial CR does, under the same bounds and fired-once injections, with the
/// span's start as its recovery point (the span *is* the rewind unit), and
/// the returned [`SpanDone`] carries its recovery accounting.
///
/// # Errors
///
/// The span's terminal replay failure: [`ReplayError::Unrecoverable`] with
/// the rewind trail once recovery is exhausted, or the first raw fault when
/// `cfg.resilient` is not set.
///
/// `_shared` does nothing: every span worker decodes into its own VM's
/// cache. The parameter is kept only because the frozen repository
/// benchmark passes it; it is deleted at the next change to `benchmark/`.
pub fn run_planned_span(
    spec: &VmSpec,
    cfg: &ReplayConfig,
    _shared: Option<&Arc<SharedPageCache>>,
    job: &SpanJob,
) -> Result<SpanDone, ReplayError> {
    let fault_plan = FaultPlan {
        cr_divergence_at_insn: job.inject_cr,
        block_divergence_at_insn: job.inject_block,
        ..FaultPlan::default()
    };
    let wcfg = ReplayConfig { resilient: cfg.resilient, fault_plan, ..worker_cfg(cfg) };
    build_replayer(spec, wcfg, job).run_span(job.seed.as_ref(), job.records_end, job.seam)
}

/// Replays the span traces through the serial CR's bookkeeping: one walk
/// over the records in order, re-basing each worker's relative cycle deltas
/// onto the absolute clock, scheduling checkpoints where the serial CR
/// would (charging their costs into the clock), and feeding every record
/// through the serial CR's [`AlarmBook`].
fn fold_spans(cfg: &ReplayConfig, records: &[Record], spans: &[SpanDone]) -> Fold {
    let mut fold = Fold::default();
    if cfg.collect_cases {
        // The initial checkpoint: the serial `run()` takes it before the
        // first record, draining the construction epoch — which is exactly
        // what worker 0's entry mark recorded.
        let entry = &spans[0].marks[0];
        fold.dirty_pages.extend(entry.dirty_pages.iter().copied());
        fold.dirty_blocks.extend(entry.dirty_blocks.iter().copied());
        fold.place(cfg, 0, None, 0);
    }
    for (w, span) in spans.iter().enumerate() {
        let mut prev = span.marks[0].cycles;
        for mark in &span.marks[1..] {
            // A span's record-free tail (seam run) belongs to the serial
            // interval that ends at the next record: its delta and dirt
            // simply accumulate until then.
            fold.cycles += mark.cycles - prev;
            prev = mark.cycles;
            fold.dirty_pages.extend(mark.dirty_pages.iter().copied());
            fold.dirty_blocks.extend(mark.dirty_blocks.iter().copied());
            let Some(j) = mark.record else { continue };
            let record = &records[j];
            if let Some(kind) = fold.book.on_record(record, false) {
                if cfg.collect_cases {
                    // The latest retained checkpoint at or before the alarm,
                    // as `CheckpointStore::before` picks it serially.
                    let placement = fold
                        .live
                        .iter()
                        .rev()
                        .find(|(_, at)| *at <= kind.at_insn())
                        .or_else(|| fold.live.front())
                        .expect("initial checkpoint always exists")
                        .0;
                    fold.case_refs.push(CaseRef { placement, kind, alarm_index: j, cr_cycle: fold.cycles });
                }
            }
            let due = cfg.checkpoint_interval.is_some_and(|i| fold.cycles - fold.last_checkpoint >= i);
            if due && !matches!(record, Record::End { .. }) {
                fold.place(cfg, w, Some(j), mark.retired);
            }
        }
    }
    fold
}

/// Builds the checkpoints that alarm cases actually reference, by re-running
/// the owning span from its seed (injection-free, self-recovery off) and
/// snapshotting at each scheduled record. Unreferenced placements cost
/// nothing — serially they were taken and recycled unobserved.
fn materialize_checkpoints(
    spec: &VmSpec,
    cfg: &ReplayConfig,
    jobs: &[SpanJob],
    fold: &Fold,
) -> Result<(HashMap<u64, Arc<Checkpoint>>, BlockStats), ReplayError> {
    let needed: BTreeSet<u64> = fold.case_refs.iter().map(|c| c.placement).collect();
    let mut by_span: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for id in needed {
        by_span.entry(fold.placements[id as usize].span).or_default().push(id);
    }
    let mut built = HashMap::new();
    let mut stats = BlockStats::default();
    for (span, ids) in by_span {
        let mut r = build_replayer(spec, worker_cfg(cfg), &jobs[span]);
        // Each snapshot shares the chunks its predecessor in the span (the
        // span's seed for the first) holds and the span has not written.
        let mut base: Option<Arc<Checkpoint>> = None;
        // Placement ids ascend with record order, so one pass per span
        // reaches every snapshot point without restarting.
        for id in ids {
            let p = &fold.placements[id as usize];
            if let Some(rec) = p.at_record {
                r.drive_to_record(rec)?;
            }
            // Close the dirty-tracking epoch first, as `take_checkpoint`
            // does: an alarm replayer restored from the checkpoint must
            // start from the serial twin's dirty baseline, or its first
            // periodic checkpoint would cost more.
            r.host.end_epoch();
            let checkpoint = Arc::new(Checkpoint {
                id,
                at_cycle: p.at_cycle,
                evict_store: p.evicts.clone(),
                dirty_pages: p.dirty_pages,
                dirty_blocks: p.dirty_blocks,
                ..r.capture(base.as_deref().or(jobs[span].seed.as_deref()))
            });
            base = Some(Arc::clone(&checkpoint));
            built.insert(id, checkpoint);
        }
        stats.merge(&r.host.vm.block_stats());
    }
    Ok((built, stats))
}

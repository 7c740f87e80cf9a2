//! VRT detector invariants and end-to-end memory-safety verdicts.
//!
//! Property tests pin the hardware table's noisy-rule geometry (coverage
//! rounding, capacity eviction, ring bounds, determinism) and the
//! zero-false-negative argument of DESIGN.md §15; integration tests drive
//! the heap-overflow and use-after-return attacks through every execution
//! engine — stepped, block, superblock, span-parallel, and the farm — and
//! require byte-identical reports plus at least one conviction everywhere.

mod common;

use common::farm_of_one;
use proptest::prelude::*;
use rnr_attacks::{mount_heap_overflow, mount_stack_uar};
use rnr_guest::layout;
use rnr_safe::{Farm, FarmConfig, Pipeline, PipelineConfig, SessionSpec, VerdictSummary};
use rnr_vrt::{coverage, VrtKind, VrtParams, VrtUnit};
use rnr_workloads::{Workload, WorkloadParams};

// ---------------------------------------------------------------------------
// Hardware-table properties
// ---------------------------------------------------------------------------

proptest! {
    /// Coverage is the granule-aligned interior: contained in the region,
    /// aligned at both ends, and any fully-contained aligned granule is
    /// covered.
    #[test]
    fn coverage_is_the_aligned_interior(
        base in 0x16_0000u64..0x1A_0000,
        len in 1u64..4096,
        gshift in 3u32..9,
    ) {
        let g = 1u64 << gshift;
        let (lo, hi) = coverage(base, len, g);
        prop_assert!(lo % g == 0 && hi % g == 0);
        prop_assert!(lo >= base);
        prop_assert!(lo <= hi);
        // A non-empty interval stays inside the region; an empty one
        // (lo == hi) covers nothing, wherever the clamp leaves it.
        if lo < hi {
            prop_assert!(hi <= base + len);
        }
        // Every aligned granule fully inside the region is covered.
        let first_full = base.div_ceil(g) * g;
        if first_full + g <= base + len {
            prop_assert!(lo <= first_full && first_full + g <= hi);
        } else {
            prop_assert_eq!(lo, hi, "region too small for any full granule");
        }
    }

    /// The zero-false-negative geometry: with the victim slot and both
    /// neighbours live, the first byte past any allocation the kernel can
    /// serve is uncovered — the first overflowing store always alarms.
    #[test]
    fn first_overflowing_store_always_alarms(
        slot in 1usize..layout::VRT_HEAP_SLOTS - 1,
        len in 1u64..=layout::VRT_MAX_ALLOC - layout::VRT_GRANULE,
        seq in 0u64..64,
        neighbour_len in 1u64..=layout::VRT_MAX_ALLOC - layout::VRT_GRANULE,
    ) {
        let p = VrtParams::default();
        let jitter = (seq * 8) & (p.granule - 8); // the kernel's base jitter
        let slot_base = layout::KHEAP_BASE + slot as u64 * layout::VRT_HEAP_SLOT_STRIDE;
        let base = slot_base + jitter;
        let mut vrt = VrtUnit::new(p.clone());
        vrt.declare(slot_base - layout::VRT_HEAP_SLOT_STRIDE, neighbour_len);
        vrt.declare(base, len);
        vrt.declare(slot_base + layout::VRT_HEAP_SLOT_STRIDE, neighbour_len);
        let sp = p.stack_hi - 64;
        prop_assert_eq!(
            vrt.on_store(base + len, sp),
            Some(VrtKind::Heap),
            "store one past the region must alarm (base {base:#x}, len {len})"
        );
    }

    /// FIFO capacity eviction is exact: n distinct declarations evict
    /// max(0, n - capacity) entries, and retiring an evicted region is a
    /// counted no-op.
    #[test]
    fn eviction_counts_are_exact(n in 0usize..40) {
        let p = VrtParams::default();
        let mut vrt = VrtUnit::new(p.clone());
        for k in 0..n as u64 {
            vrt.declare(p.heap_lo + k * 0x400, 0x100);
        }
        prop_assert_eq!(vrt.counters().evictions, n.saturating_sub(p.capacity) as u64);
        for k in 0..n as u64 {
            vrt.retire(p.heap_lo + k * 0x400);
        }
        prop_assert_eq!(vrt.counters().retires, n as u64);
        if n > 0 {
            // Everything is gone: an interior store alarms again.
            let sp = p.stack_hi - 64;
            prop_assert_eq!(vrt.on_store(p.heap_lo + 0x40, sp), Some(VrtKind::Heap));
        }
    }

    /// The returned-window ring keeps exactly the `ring` youngest windows:
    /// a store into window i (of k filed) alarms iff i >= k - ring.
    #[test]
    fn ring_keeps_the_youngest_windows(k in 1usize..12, probe_raw in 0usize..12) {
        let probe = probe_raw % k;
        let p = VrtParams::default();
        let mut vrt = VrtUnit::new(p.clone());
        let span = 2 * p.min_frame;
        for i in 0..k as u64 {
            let entry = p.stack_hi - 64 - i * span;
            vrt.on_call(entry);
            vrt.note_sp(entry - span);
            vrt.on_ret();
        }
        prop_assert_eq!(vrt.counters().windows, k as u64);
        let entry = p.stack_hi - 64 - probe as u64 * span;
        let hit = vrt.on_store(entry - 8, p.stack_lo + 64);
        if probe >= k - p.ring.min(k) {
            prop_assert_eq!(hit, Some(VrtKind::Stack));
        } else {
            prop_assert_eq!(hit, None, "window {probe} of {k} should have been evicted");
        }
    }

    /// The unit is a deterministic function of its input sequence: two
    /// fresh units fed the same operations agree on every alarm and on
    /// every diagnostic counter.
    #[test]
    fn unit_is_deterministic(ops in proptest::collection::vec(
        prop_oneof![
            (0u64..0x4000, 1u64..2048).prop_map(|(off, len)| (0u8, off, len)),
            (0u64..0x4000,).prop_map(|(off,)| (1u8, off, 0)),
            (0u64..0x4000, 0u64..0x4000).prop_map(|(a, b)| (2u8, a, b)),
            (0u64..0x4000,).prop_map(|(sp,)| (3u8, sp, 0)),
            Just((4u8, 0, 0)),
        ],
        0..64,
    )) {
        let p = VrtParams::default();
        let mut a = VrtUnit::new(p.clone());
        let mut b = VrtUnit::new(p.clone());
        for (kind, x, y) in ops {
            match kind {
                0 => {
                    a.declare(p.heap_lo + x, y);
                    b.declare(p.heap_lo + x, y);
                }
                1 => {
                    a.retire(p.heap_lo + x);
                    b.retire(p.heap_lo + x);
                }
                2 => {
                    let (addr, sp) = (p.heap_lo + x, p.stack_lo + y);
                    prop_assert_eq!(a.on_store(addr, sp), b.on_store(addr, sp));
                }
                3 => {
                    a.on_call(p.stack_lo + x);
                    b.on_call(p.stack_lo + x);
                }
                _ => {
                    a.on_ret();
                    b.on_ret();
                }
            }
        }
        prop_assert_eq!(a.counters(), b.counters());
    }
}

// ---------------------------------------------------------------------------
// End-to-end verdicts
// ---------------------------------------------------------------------------

fn vrt_cfg(duration: u64) -> PipelineConfig {
    PipelineConfig {
        duration_insns: duration,
        checkpoint_interval_secs: Some(0.125),
        vrt: Some(VrtParams::default()),
        ..PipelineConfig::default()
    }
}

fn count_class(report: &rnr_safe::PipelineReport, want: &str) -> usize {
    report
        .resolutions
        .iter()
        .filter(|r| matches!(&r.summary, VerdictSummary::MemoryViolation { class, .. } if class == want))
        .count()
}

fn fp_classes(report: &rnr_safe::PipelineReport) -> Vec<String> {
    report
        .resolutions
        .iter()
        .filter_map(|r| match &r.summary {
            VerdictSummary::FalsePositive { class } => Some(class.clone()),
            _ => None,
        })
        .collect()
}

/// The heap overflow is convicted — zero false negatives — in every
/// execution engine, and the report is byte-identical across all of them:
/// stepped, block, superblock, span-parallel, and fully sequential.
#[test]
fn heap_attack_zero_fn_across_engine_matrix() {
    let run = |cfg: PipelineConfig| {
        let (spec, _plan) = mount_heap_overflow(&WorkloadParams::default(), 40);
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let base = run(vrt_cfg(600_000));
    assert!(base.replay.verified);
    assert!(count_class(&base, "heap-overflow") >= 1, "zero-FN: the overflow must be convicted");
    assert!(base.detection.is_some(), "a convicted attack yields a detection window");
    // The conviction names the victim allocation exactly.
    let victim = base
        .resolutions
        .iter()
        .find_map(|r| match &r.summary {
            VerdictSummary::MemoryViolation { class, region, .. } if class == "heap-overflow" => *region,
            _ => None,
        })
        .expect("conviction carries the nearest region");
    assert_eq!(victim.1, 256, "victim allocation length");
    // The benign churn alongside keeps all three FP classes flowing — and
    // every one of them is dismissed, never convicted.
    let fps = fp_classes(&base);
    for class in ["coarse-bounds", "evicted-region", "stale-frame"] {
        assert!(fps.iter().any(|c| c == class), "expected a dismissed {class} false positive");
    }

    let stepped = run(PipelineConfig { block_engine: false, ..vrt_cfg(600_000) });
    assert_eq!(base.to_json(), stepped.to_json(), "stepped engine diverged");
    let no_traces = run(PipelineConfig { superblocks: false, ..vrt_cfg(600_000) });
    assert_eq!(base.to_json(), no_traces.to_json(), "superblocks-off diverged");
    for workers in [2, 4] {
        let spans =
            farm_of_one(mount_heap_overflow(&WorkloadParams::default(), 40).0, vrt_cfg(600_000), workers);
        assert_eq!(base.to_json(), spans.to_json(), "span-parallel ({workers}) diverged");
    }
    let sequential =
        run(PipelineConfig { streaming: false, parallel_alarm_replay: false, ..vrt_cfg(600_000) });
    assert_eq!(base.to_json(), sequential.to_json(), "sequential feed diverged");
}

/// The farm lane: the overflow session convicts inside a shared-pool fleet
/// exactly as it does serially, and the benign churn session beside it
/// stays clean — both byte-identical to their serial references.
#[test]
fn heap_attack_zero_fn_in_the_farm() {
    let (attack_spec, _plan) = mount_heap_overflow(&WorkloadParams::default(), 40);
    let sessions = vec![
        SessionSpec::new("overflow", attack_spec, vrt_cfg(600_000)),
        SessionSpec::new("churn", Workload::HeapServer.spec(false), vrt_cfg(300_000)),
    ];
    let serial: Vec<_> =
        sessions.iter().map(|s| Pipeline::new(s.vm.clone(), s.config.clone()).run().unwrap()).collect();
    assert!(count_class(&serial[0], "heap-overflow") >= 1);
    assert_eq!(serial[1].attacks_confirmed(), 0);

    let farm = Farm::new(FarmConfig { workers: 2, ..FarmConfig::default() });
    let report = farm.run(&sessions);
    assert!(report.all_ok());
    for (outcome, expected) in report.sessions.iter().zip(&serial) {
        assert_eq!(
            outcome.result.as_ref().unwrap().to_json(),
            expected.to_json(),
            "session {}: farm report diverged from serial",
            outcome.name
        );
    }
}

/// The use-after-return is convicted through the leaked frame pointer, with
/// the same report serial and span-parallel (a farm of one).
#[test]
fn uar_attack_convicted_and_equivalent() {
    let spec = || mount_stack_uar(&WorkloadParams::default(), 4).0;
    let base = Pipeline::new(spec(), vrt_cfg(400_000)).run().unwrap();
    assert!(base.replay.verified);
    assert!(count_class(&base, "use-after-return") >= 1, "the UAR must be convicted");
    let spans = farm_of_one(spec(), vrt_cfg(400_000), 2);
    assert_eq!(base.to_json(), spans.to_json(), "span-parallel UAR report diverged");
}

/// The benign adversarial workloads raise plenty of VRT alarms and the
/// alarm replayer dismisses every one: heap-server trips all three
/// false-positive classes, the longjmp storm mixes stale frames with the
/// RAS's imperfect-nesting mismatches, and nothing is ever convicted.
#[test]
fn benign_vrt_workloads_fully_dismissed() {
    let churn = Pipeline::new(Workload::HeapServer.spec(false), vrt_cfg(400_000)).run().unwrap();
    assert!(churn.replay.verified);
    assert!(churn.replay.alarms_escalated > 0, "the churn must raise VRT alarms");
    assert_eq!(churn.attacks_confirmed(), 0, "benign churn convicted: {:?}", churn.resolutions);
    let fps = fp_classes(&churn);
    for class in ["coarse-bounds", "evicted-region", "stale-frame"] {
        assert!(fps.iter().any(|c| c == class), "heap-server never tripped {class}");
    }

    let storm = Pipeline::new(Workload::Longjmp.spec(false), vrt_cfg(400_000)).run().unwrap();
    assert!(storm.replay.verified);
    assert!(storm.replay.alarms_escalated > 0, "the storm must raise alarms");
    assert_eq!(storm.attacks_confirmed(), 0, "benign storm convicted: {:?}", storm.resolutions);
    let fps = fp_classes(&storm);
    assert!(fps.iter().any(|c| c == "stale-frame"), "longjmp storm never tripped stale-frame");
}

/// The interrupt-flood variant (10x timer rate) changes nothing about
/// correctness: the run verifies, stays conviction-free, and is
/// byte-identical between the stepped and block engines.
#[test]
fn interrupt_flood_variant_stays_equivalent() {
    let params = WorkloadParams::interrupt_flood();
    let run = |block_engine: bool| {
        let cfg = PipelineConfig { block_engine, ..vrt_cfg(300_000) };
        Pipeline::new(Workload::HeapServer.spec_with(false, &params), cfg).run().unwrap()
    };
    let blocked = run(true);
    let stepped = run(false);
    assert!(blocked.replay.verified);
    assert_eq!(blocked.attacks_confirmed(), 0);
    assert_eq!(blocked.to_json(), stepped.to_json(), "interrupt flood broke engine equivalence");
}

/// Without the VRT armed, none of the memory-safety alarm classes can
/// appear: the same churn workload records only RAS noise.
#[test]
fn unarmed_runs_carry_no_vrt_alarms() {
    let cfg = PipelineConfig {
        duration_insns: 300_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let report = Pipeline::new(Workload::HeapServer.spec(false), cfg).run().unwrap();
    assert!(report.replay.verified);
    let fps = fp_classes(&report);
    for class in ["coarse-bounds", "evicted-region", "stale-frame"] {
        assert!(!fps.iter().any(|c| c == class), "unarmed run produced a VRT {class} alarm");
    }
    assert_eq!(count_class(&report, "heap-overflow") + count_class(&report, "use-after-return"), 0);
}

//! Deterministic, seeded fault injection for the streaming transport and
//! the replay pipeline.
//!
//! Making record/replay deployable is mostly a robustness problem (the rr
//! line of work): the system must detect divergence early, survive partial
//! or corrupt inputs, and degrade gracefully. A [`FaultPlan`] describes a
//! reproducible set of faults — which transport frame to damage and how,
//! where to inject a transient replay divergence, which alarm case should
//! panic — so every failure scenario is replayable from `(seed, plan)` and
//! can gate CI.
//!
//! The transport half of a plan is executed by a [`FaultInjector`] sitting
//! on the *sink* side of [`crate::log_channel`]: the pristine frame is
//! retained for re-request before the injector damages the copy in flight
//! (unless the plan poisons the retained store too, which models an
//! unrecoverable loss).

use bytes::Bytes;

/// What to do to one transport frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFaultKind {
    /// Flip one bit of the frame (position derived from the plan seed).
    CorruptBit,
    /// Do not deliver the frame at all.
    DropFrame,
    /// Deliver the frame twice.
    DuplicateFrame,
    /// Hold the frame back and deliver it after its successor.
    DelayFrame,
    /// Deliver only a prefix of the frame.
    TruncateFrame,
}

/// One planned transport fault, keyed by frame sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportFault {
    /// The frame (by sequence number) this fault applies to.
    pub seq: u64,
    /// The damage to inflict.
    pub kind: TransportFaultKind,
    /// Damage the retained copy too, so a re-request cannot heal it.
    /// Models losing both the wire copy and the recorder's retained log —
    /// the unrecoverable case.
    pub poison_retained: bool,
}

/// Damage to one sealed segment of the durable log store.
///
/// Applied deterministically by the [`crate::DurableWriter`] at seal time
/// (modeling latent storage corruption discovered later, at refetch or
/// recovery-scan time) or post-hoc via [`crate::apply_disk_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// A crash mid-write left only a prefix of the segment on disk.
    TornWrite,
    /// One bit flipped at rest (position derived from the plan seed).
    BitRot,
    /// The segment file was lost entirely.
    MissingSegment,
    /// The file was cut a few bytes short of its declared length prefix.
    ShortRead,
    /// The host lied about durability: fsync "succeeded" but the segment
    /// never reached stable storage and vanishes with the page cache.
    FailedFsync,
}

/// One planned disk fault, keyed by segment index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// The segment (by seal order, 0-based) this fault applies to.
    pub segment: u64,
    /// The damage to inflict.
    pub kind: DiskFaultKind,
}

/// A reproducible fault scenario: everything is derived from `seed` and the
/// explicit injection points, never from wall-clock or host randomness.
///
/// An empty (default) plan injects nothing; the pipeline must then behave
/// byte-identically to a build without any fault machinery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for derived choices (e.g. which bit a `CorruptBit` flips).
    pub seed: u64,
    /// Transport-frame faults applied by the sink-side injector.
    pub transport: Vec<TransportFault>,
    /// Durable-store faults applied by the segment writer at seal time.
    pub disk: Vec<DiskFault>,
    /// Inject a transient divergence into the checkpointing replayer once
    /// it has retired this many instructions.
    pub cr_divergence_at_insn: Option<u64>,
    /// Inject a block-engine divergence at this instruction count; recovery
    /// must quarantine block execution for the failed span.
    pub block_divergence_at_insn: Option<u64>,
    /// Panic while resolving this alarm case (first attempt only).
    pub ar_panic_case: Option<usize>,
    /// Fail this alarm case with a transient divergence (first attempt
    /// only).
    pub ar_divergence_case: Option<usize>,
    /// Kill the AR pool worker that picks up this case, before it resolves
    /// anything.
    pub kill_ar_worker_at_case: Option<usize>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.transport.is_empty()
            && self.disk.is_empty()
            && self.cr_divergence_at_insn.is_none()
            && self.block_divergence_at_insn.is_none()
            && self.ar_panic_case.is_none()
            && self.ar_divergence_case.is_none()
            && self.kill_ar_worker_at_case.is_none()
    }

    /// True when any transport fault is planned (the channel then needs an
    /// injector).
    pub fn wants_transport_injection(&self) -> bool {
        !self.transport.is_empty()
    }
}

/// splitmix64: tiny, high-quality mixer for deriving injection positions
/// from `(seed, seq)` deterministically.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sink-side executor of a plan's transport faults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    faults: Vec<TransportFault>,
}

/// What the sink should do with one frame after injection.
#[derive(Debug)]
pub struct InjectedFrame {
    /// The bytes to retain for re-request (pristine unless poisoned).
    pub retained: Bytes,
    /// The copies to put on the wire now (empty = dropped or delayed).
    pub outgoing: Vec<Bytes>,
    /// True when the frame must be held and sent after its successor.
    pub delay: bool,
}

impl FaultInjector {
    /// Builds the injector for `plan`'s transport faults.
    pub fn from_plan(plan: &FaultPlan) -> FaultInjector {
        FaultInjector { seed: plan.seed, faults: plan.transport.clone() }
    }

    /// Applies any planned fault for frame `seq` to `frame`.
    pub fn apply(&self, seq: u64, frame: Bytes) -> InjectedFrame {
        let Some(fault) = self.faults.iter().find(|f| f.seq == seq) else {
            return InjectedFrame { retained: frame.clone(), outgoing: vec![frame], delay: false };
        };
        match fault.kind {
            TransportFaultKind::CorruptBit => {
                let bad = flip_one_bit(&frame, self.seed ^ seq);
                let retained = if fault.poison_retained { bad.clone() } else { frame };
                InjectedFrame { retained, outgoing: vec![bad], delay: false }
            }
            TransportFaultKind::DropFrame => {
                InjectedFrame { retained: frame, outgoing: vec![], delay: false }
            }
            TransportFaultKind::DuplicateFrame => {
                InjectedFrame { retained: frame.clone(), outgoing: vec![frame.clone(), frame], delay: false }
            }
            TransportFaultKind::DelayFrame => {
                InjectedFrame { retained: frame.clone(), outgoing: vec![frame], delay: true }
            }
            TransportFaultKind::TruncateFrame => {
                let cut = frame.len().saturating_sub(1).max(1);
                let bad = frame.slice(0..cut.min(frame.len()));
                let retained = if fault.poison_retained { bad.clone() } else { frame };
                InjectedFrame { retained, outgoing: vec![bad], delay: false }
            }
        }
    }
}

/// Flips one bit of `frame`, position chosen deterministically from `mix`.
fn flip_one_bit(frame: &Bytes, mix: u64) -> Bytes {
    let mut bytes = frame.to_vec();
    if bytes.is_empty() {
        return frame.clone();
    }
    let r = splitmix64(mix);
    let byte = (r % bytes.len() as u64) as usize;
    let bit = ((r >> 32) % 8) as u8;
    bytes[byte] ^= 1 << bit;
    Bytes::from(bytes)
}

/// The seeded fault matrix: one recoverable scenario per fault class, plus
/// the unrecoverable poisoned-retained-store case. Shared by the CI gate
/// binary and the integration tests so both exercise the same plans. Each
/// alarm-replay fault fires twice: at case 0, where a pass starts, and in
/// the middle of a pass (`*-mid-pass`), where the retry must start a new
/// pass from the failed case's checkpoint and carry on with the rest.
pub fn fault_scenarios(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let transport = |kind, seq| FaultPlan {
        seed,
        transport: vec![TransportFault { seq, kind, poison_retained: false }],
        ..FaultPlan::default()
    };
    vec![
        ("corrupt-batch", transport(TransportFaultKind::CorruptBit, 2)),
        ("dropped-batch", transport(TransportFaultKind::DropFrame, 3)),
        ("duplicated-batch", transport(TransportFaultKind::DuplicateFrame, 1)),
        ("truncated-tail", transport(TransportFaultKind::TruncateFrame, 4)),
        ("delayed-batch", transport(TransportFaultKind::DelayFrame, 2)),
        ("ar-worker-panic", FaultPlan { seed, ar_panic_case: Some(0), ..FaultPlan::default() }),
        ("ar-transient-divergence", FaultPlan { seed, ar_divergence_case: Some(0), ..FaultPlan::default() }),
        (
            "cr-mid-stream-rewind",
            FaultPlan { seed, cr_divergence_at_insn: Some(240_000), ..FaultPlan::default() },
        ),
        (
            "block-engine-divergence",
            FaultPlan { seed, block_divergence_at_insn: Some(180_000), ..FaultPlan::default() },
        ),
        ("ar-worker-killed", FaultPlan { seed, kill_ar_worker_at_case: Some(0), ..FaultPlan::default() }),
        ("ar-worker-panic-mid-pass", FaultPlan { seed, ar_panic_case: Some(1), ..FaultPlan::default() }),
        (
            "ar-transient-divergence-mid-pass",
            FaultPlan { seed, ar_divergence_case: Some(2), ..FaultPlan::default() },
        ),
        (
            "ar-worker-killed-mid-pass",
            FaultPlan { seed, kill_ar_worker_at_case: Some(1), ..FaultPlan::default() },
        ),
    ]
}

/// The seeded disk-fault matrix: a dropped transport frame forces the CR to
/// refetch sequence 2, while the durable store's copy of that span is (in
/// all but the first scenario) damaged in a different way each time — so the
/// refetch path must detect the at-rest damage, quarantine the segment, and
/// fall back to the recorder's in-memory retained copy, still producing a
/// byte-identical report. Run with `frames_per_segment = 1` so segment
/// indices equal frame sequence numbers and every frame is sealed (and
/// damaged) before its successors are transmitted.
pub fn disk_fault_scenarios(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let refetch =
        vec![TransportFault { seq: 2, kind: TransportFaultKind::DropFrame, poison_retained: false }];
    let damaged = |kind| FaultPlan {
        seed,
        transport: refetch.clone(),
        disk: vec![DiskFault { segment: 2, kind }],
        ..FaultPlan::default()
    };
    vec![
        // No disk damage: the refetch is served from the durable store.
        ("disk-serves-refetch", FaultPlan { seed, transport: refetch.clone(), ..FaultPlan::default() }),
        ("disk-torn-write", damaged(DiskFaultKind::TornWrite)),
        ("disk-bit-rot", damaged(DiskFaultKind::BitRot)),
        ("disk-missing-segment", damaged(DiskFaultKind::MissingSegment)),
        ("disk-short-read", damaged(DiskFaultKind::ShortRead)),
        ("disk-failed-fsync", damaged(DiskFaultKind::FailedFsync)),
    ]
}

/// The unrecoverable scenario: the frame is corrupted on the wire *and* in
/// the retained store, so re-requests can never heal it.
pub fn unrecoverable_scenario(seed: u64) -> (&'static str, FaultPlan) {
    (
        "poisoned-retained-store",
        FaultPlan {
            seed,
            transport: vec![TransportFault {
                seq: 2,
                kind: TransportFaultKind::CorruptBit,
                poison_retained: true,
            }],
            ..FaultPlan::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_frame, Record};

    fn frame() -> Bytes {
        encode_frame(5, &[Record::Rdtsc { value: 1 }, Record::Rdtsc { value: 2 }])
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(!fault_scenarios(7).iter().any(|(_, p)| p.is_empty()));
    }

    #[test]
    fn injector_passes_unplanned_frames_through() {
        let inj = FaultInjector::from_plan(&FaultPlan::default());
        let f = frame();
        let out = inj.apply(5, f.clone());
        assert_eq!(out.retained, f);
        assert_eq!(out.outgoing, vec![f]);
        assert!(!out.delay);
    }

    #[test]
    fn corrupt_is_deterministic_and_retains_pristine() {
        let plan = FaultPlan {
            seed: 99,
            transport: vec![TransportFault {
                seq: 5,
                kind: TransportFaultKind::CorruptBit,
                poison_retained: false,
            }],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::from_plan(&plan);
        let f = frame();
        let a = inj.apply(5, f.clone());
        let b = inj.apply(5, f.clone());
        assert_eq!(a.outgoing, b.outgoing, "same seed, same flip");
        assert_ne!(a.outgoing[0], f, "wire copy damaged");
        assert_eq!(a.retained, f, "retained copy pristine");
    }

    #[test]
    fn drop_duplicate_delay_truncate_shapes() {
        let mk = |kind| {
            let plan = FaultPlan {
                seed: 1,
                transport: vec![TransportFault { seq: 5, kind, poison_retained: false }],
                ..FaultPlan::default()
            };
            FaultInjector::from_plan(&plan).apply(5, frame())
        };
        assert!(mk(TransportFaultKind::DropFrame).outgoing.is_empty());
        assert_eq!(mk(TransportFaultKind::DuplicateFrame).outgoing.len(), 2);
        assert!(mk(TransportFaultKind::DelayFrame).delay);
        let t = mk(TransportFaultKind::TruncateFrame);
        assert!(t.outgoing[0].len() < frame().len());
    }
}

//! The recorder's framing rule: a frame closes when it holds
//! `DEFAULT_BATCH` records, right after a span seed, and at the first loop
//! top once its oldest record is `MAX_FRAME_AGE_INSNS` old. The durable
//! store keeps the frames exactly as the wire carries them, so these tests
//! read the frame boundaries back from a segment store.

use rnr_hypervisor::{RecordConfig, RecordMode, RecordOutcome, Recorder};
use rnr_log::{DurableLogConfig, DurableStore, DurableWriter, FaultPlan, DEFAULT_BATCH};
use rnr_vrt::VrtParams;
use rnr_workloads::Workload;

const SEED: u64 = 42;

/// A unique per-test scratch directory for the segment store, removed when
/// the test ends (pass or fail) so `cargo test` leaves no stray files.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("rnr-framing-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Records `workload` under `rc` into a fresh durable store and returns the
/// recording with the record count of every frame, in sequence order.
fn record_frames(workload: Workload, rc: RecordConfig, tag: &str) -> (RecordOutcome, Vec<usize>) {
    let dir = TempDir::new(tag);
    let mut recorder = Recorder::new(&workload.spec(false), rc).expect("recorder");
    let writer = DurableWriter::create(DurableLogConfig::new(&dir.0), &FaultPlan::default()).expect("store");
    recorder.persist_to(writer);
    let rec = recorder.run();
    let store = DurableStore::open(&dir.0).expect("store opens");
    assert!(store.scan().clean(), "{tag}: {:?}", store.scan());
    let frames: Vec<usize> = (0..store.frame_count())
        .map(|seq| store.frame(seq).unwrap_or_else(|| panic!("{tag}: frame {seq} missing")).len())
        .collect();
    assert_eq!(frames.iter().sum::<usize>(), rec.log.len(), "{tag}: the store must hold the whole log");
    (rec, frames)
}

/// HeapServer under VRT logs fewer records than one batch in 600k
/// instructions and captures no span seeds, so only the age cut can split
/// its log: the frames must be many, each within the batch.
#[test]
fn sparse_log_is_cut_by_frame_age() {
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, 600_000);
    rc.vrt = Some(VrtParams::default());
    let (rec, frames) = record_frames(Workload::HeapServer, rc, "age");
    assert!(rec.span_seeds.is_empty());
    assert!(rec.log.len() <= DEFAULT_BATCH, "the log must fit one batch: {} records", rec.log.len());
    assert!(frames.len() > 1, "an aged frame must be cut: {frames:?}");
    assert!(frames.iter().all(|&n| (1..=DEFAULT_BATCH).contains(&n)), "{frames:?}");
}

/// Every span seed closes the frame it was captured in, so each seed's
/// `at_record` is a frame boundary and a live span job never waits for
/// records that are still pending.
#[test]
fn every_span_seed_is_a_frame_boundary() {
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, 1_200_000);
    rc.span_seed_every_insns = Some(150_000);
    let (rec, frames) = record_frames(Workload::Jit, rc, "seed");
    assert!(rec.span_seeds.len() >= 4, "need several seeds, got {}", rec.span_seeds.len());
    let boundaries: Vec<usize> = frames
        .iter()
        .scan(0, |end, &n| {
            *end += n;
            Some(*end)
        })
        .collect();
    for seed in &rec.span_seeds {
        assert!(
            boundaries.contains(&seed.at_record),
            "seed at record {} (insn {}) is inside a frame; frame ends {boundaries:?}",
            seed.at_record,
            seed.at_insn
        );
    }
}

//! The block cache's traffic on the recorder at seed 42. Kernel page 0x2000
//! holds hot kernel code and, right after it, the scheduler's, syscall and
//! allocator counters, so nearly every guest event moves that page's write
//! version. Those data writes change no decoded instruction word: the page's
//! decodes are re-stamped, not flushed and rebuilt. Real code writes (the
//! Jit guest patches its own code) still flush.

use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_vrt::VrtParams;
use rnr_workloads::Workload;

const SEED: u64 = 42;

/// Records `workload` for `insns` instructions and returns the recorder's
/// block-cache counters.
fn recorder_stats(workload: Workload, insns: u64, vrt: bool) -> rnr_machine::BlockStats {
    let mut rc = RecordConfig::new(RecordMode::Rec, SEED, insns);
    rc.vrt = vrt.then(VrtParams::default);
    let rec = Recorder::new(&workload.spec(false), rc).expect("recorder").run();
    assert!(rec.fault.is_none(), "guest fault while recording: {:?}", rec.fault);
    rec.block_stats
}

/// HeapServer under VRT bumps page 0x2000 on every context switch, tick,
/// syscall and allocation; its decodes must survive all of them.
#[test]
fn data_writes_beside_kernel_code_never_flush() {
    let stats = recorder_stats(Workload::HeapServer, 600_000, true);
    assert_eq!(stats.flushes, 0, "a data write flushed decoded code: {stats:?}");
    assert!(stats.builds < 1_000, "blocks rebuilt after data writes: {stats:?}");
}

/// The Jit guest rewrites its own code: those writes change decoded words,
/// so they must still flush.
#[test]
fn code_patches_still_flush() {
    let stats = recorder_stats(Workload::Jit, 600_000, false);
    assert!(stats.flushes > 0, "a code patch did not flush: {stats:?}");
}

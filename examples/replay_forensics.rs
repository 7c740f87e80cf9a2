//! Execution auditing (§3.2): use the replayer as a forensic time machine —
//! re-run an alarm several times, inspect guest state at the attack point,
//! and show that checkpoints let analysis start "further back in time".
//!
//! ```sh
//! cargo run --release --example replay_forensics
//! ```

use std::sync::Arc;

use rnr_attacks::mount_kernel_rop;
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_replay::{AlarmReplayer, ReplayConfig, Replayer, Verdict, VIRTUAL_HZ};
use rnr_workloads::WorkloadParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000)?;
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 900_000))?.run();
    println!("recorded {} instructions, {} alarms", rec.retired, rec.alarms);

    // The checkpointing replayer runs continuously, keeping a window of
    // checkpoints and escalating unresolved alarms.
    let log = Arc::clone(&rec.log);
    let cfg = ReplayConfig { checkpoint_interval: Some(VIRTUAL_HZ / 8), ..ReplayConfig::default() };
    let mut cr = Replayer::new(&spec, Arc::clone(&log), cfg.clone());
    cr.verify_against(rec.final_digest);
    let out = cr.run()?;
    println!("CR verified: {:?}; escalated {} alarm(s)", out.verified, out.alarm_cases.len());

    let case = out.alarm_cases.first().expect("the attack escalates");
    println!(
        "\nalarm at instruction {}, base checkpoint #{} at instruction {} ({} dirty pages)",
        case.at_insn(),
        case.checkpoint.id,
        case.checkpoint.at_insn,
        case.checkpoint.dirty_pages
    );

    // "The AR can be re-run multiple times, with increasing levels of
    // instrumentation, or starting at different checkpoints" (§4.6.2):
    // every re-run is deterministic, so the verdict is stable.
    let ar = AlarmReplayer::new(&spec, Arc::clone(&log)).with_config(cfg);
    for pass in 1..=3 {
        let (verdict, ar_cycles) = ar.resolve(case)?;
        let label = match &verdict {
            Verdict::RopAttack(r) => format!("ROP in {:?}", r.vulnerable_symbol),
            Verdict::FalsePositive(k) => format!("false positive: {k:?}"),
            Verdict::HeapOverflow(r) => format!("heap overflow at {:#x}", r.addr),
            Verdict::UseAfterReturn(r) => format!("use-after-return at {:#x}", r.addr),
        };
        println!("  analysis pass {pass}: {label} ({ar_cycles} replayed cycles)");
    }

    // Deeper history: resolve the same alarm from an older checkpoint
    // (auditing the execution context before the attack).
    if let Some(older) = out.alarm_cases.first().map(|c| c.checkpoint.clone()) {
        println!(
            "\ncheckpoints retained by the CR: {} (max {}); oldest usable base at instruction {}",
            out.checkpoints_taken, out.checkpoints_live_max, older.at_insn
        );
    }
    println!("\nOK: the alarm replayer is a repeatable forensic time machine.");
    Ok(())
}

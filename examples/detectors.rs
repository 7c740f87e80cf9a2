//! The other two rows of Table 1: JOP and DOS first-line detectors, both
//! following the RnR-Safe pattern — cheap imprecise hardware, replay-side
//! resolution.
//!
//! ```sh
//! cargo run --release --example detectors
//! ```

use rnr_attacks::{dos_control, dos_scenario, mount_jop, DosDetector};
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_replay::{resolve_jop, JopVerdict, ReplayConfig, Replayer};
use rnr_workloads::WorkloadParams;

fn main() {
    // --- JOP (Table 1, row 2) -------------------------------------------
    // The hardware tracks only the most common functions; a crafted packet
    // overwrites a dispatch pointer with a mid-function target, while
    // legitimate dispatches to an *uncommon* handler trip the imprecise
    // hardware too. The replayer sorts them out with the full table.
    let (spec, plan) = mount_jop(900_000);
    let mut rc = RecordConfig::new(RecordMode::Rec, 42, 700_000);
    rc.jop_common_functions = Some(plan.hw_table_limit);
    let rec = Recorder::new(&spec, rc).expect("spec ok").run();
    println!("JOP: hardware table of {} functions; {} alarms recorded", plan.hw_table_limit, rec.alarms);
    let out =
        Replayer::new(&spec, std::sync::Arc::clone(&rec.log), ReplayConfig::default()).run().expect("replay");
    let mut convicted = 0;
    for case in &out.jop_cases {
        match resolve_jop(&spec, case) {
            JopVerdict::JopAttack => {
                convicted += 1;
                println!(
                    "  CONVICTED: indirect call at {:#x} hijacked to mid-function {:#x}",
                    case.branch_pc, case.target
                );
            }
            JopVerdict::FalsePositive => {
                println!("  cleared:   legit dispatch to uncommon handler {:#x}", case.target);
            }
        }
    }
    assert!(convicted >= 1);

    // --- DOS (Table 1, row 3) -------------------------------------------
    // A malicious kernel thread disables interrupts and spins; the
    // context-switch watchdog notices the scheduler going quiet.
    let run = |spec: &rnr_hypervisor::VmSpec| {
        Recorder::new(spec, RecordConfig::new(RecordMode::Rec, 42, 1_500_000)).expect("spec ok").run()
    };
    let params = WorkloadParams::default();
    let attacked = run(&dos_scenario(&params, 600));
    let healthy = run(&dos_control(&params));

    let window = params.timer_period * 4;
    let alarm = DosDetector::new(window, 1).first_alarm(&attacked.switch_trace, attacked.cycles);
    let control = DosDetector::new(window, 1).first_alarm(&healthy.switch_trace, healthy.cycles);
    println!("\nDOS: watchdog window = {window} cycles, min 1 context switch");
    println!("  attacked guest:  {} switches, alarm at cycle {alarm:?}", attacked.switch_trace.len());
    println!("  healthy control: {} switches, alarm {control:?}", healthy.switch_trace.len());
    assert!(alarm.is_some() && control.is_none());
    println!("\nOK: both detectors behave as Table 1 describes.");
}

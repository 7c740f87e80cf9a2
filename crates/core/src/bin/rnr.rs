//! `rnr` — the RnR-Safe command line.
//!
//! ```text
//! rnr record  --workload mysql [--insns N] [--seed S] [--ras N] -o run.rnr
//! rnr attack  [--at-cycle C] [--insns N] -o attack.rnr
//! rnr info    run.rnr
//! rnr replay  run.rnr [--checkpoint-secs X]
//! rnr resolve run.rnr [--checkpoint-secs X] [--json]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_replay::{checkpoint_groups, AlarmReplayer, ReplayConfig, Replayer, Verdict, VIRTUAL_HZ};
use rnr_safe::Session;
use rnr_workloads::{Workload, WorkloadParams};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("attack") => cmd_attack(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("replay") => cmd_replay(&args[1..], false),
        Some("resolve") => cmd_replay(&args[1..], true),
        Some("audit") => cmd_audit(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rnr: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
rnr — record-and-replay as a security framework (RnR-Safe, HPCA 2018)

USAGE:
  rnr record  --workload <apache|fileio|make|mysql|radiosity>
              [--insns N] [--seed S] [--ras N] -o FILE
  rnr attack  [--at-cycle C] [--insns N] [--seed S] -o FILE
  rnr info    FILE
  rnr replay  FILE [--checkpoint-secs X]
  rnr resolve FILE [--checkpoint-secs X] [--json]
  rnr audit   FILE --insn N
";

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name) {
        Some(v) => v.parse().map_err(|e| format!("bad {name}: {e}")),
        None => Ok(default),
    }
}

fn cmd_record(args: &[String]) -> CliResult {
    let workload = flag(args, "--workload").ok_or("record needs --workload")?;
    let out = flag(args, "-o").ok_or("record needs -o FILE")?;
    let insns: u64 = parse(args, "--insns", 1_000_000)?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let ras: usize = parse(args, "--ras", 48)?;
    let w = Workload::ALL
        .into_iter()
        .find(|w| w.label() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let spec = w.spec(false);
    save_recording(spec, seed, insns, ras, &out)
}

fn cmd_attack(args: &[String]) -> CliResult {
    let out = flag(args, "-o").ok_or("attack needs -o FILE")?;
    let at_cycle: u64 = parse(args, "--at-cycle", 1_200_000)?;
    let insns: u64 = parse(args, "--insns", 900_000)?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let (spec, plan) = rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), at_cycle)?;
    eprintln!(
        "mounting the §6 kernel ROP: G1={:#x} G2={:#x} G3={:#x} -> grant_root={:#x}",
        plan.g1, plan.g2, plan.g3, plan.grant_root
    );
    save_recording(spec, seed, insns, 48, &out)
}

fn save_recording(spec: rnr_hypervisor::VmSpec, seed: u64, insns: u64, ras: usize, out: &str) -> CliResult {
    let mut rc = RecordConfig::new(RecordMode::Rec, seed, insns);
    rc.ras_capacity = ras;
    let outcome = Recorder::new(&spec, rc)?.run();
    if let Some(fault) = outcome.fault {
        return Err(format!("guest fault while recording: {fault:?}").into());
    }
    eprintln!(
        "recorded {} instructions in {} cycles; {} alarms; log {} bytes",
        outcome.retired,
        outcome.cycles,
        outcome.alarms,
        outcome.log.total_bytes()
    );
    Session::from_recording(spec, seed, ras, &outcome).save(out)?;
    eprintln!("session written to {out}");
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let path = args.first().ok_or("info needs FILE")?;
    let session = Session::load(path)?;
    let h = &session.header;
    println!("workload:      {}", h.spec.name);
    println!("seed:          {}", h.seed);
    println!("ras capacity:  {}", h.ras_capacity);
    println!("instructions:  {}", h.retired);
    println!("cycles:        {} ({:.3} virtual s)", h.cycles, h.cycles as f64 / VIRTUAL_HZ as f64);
    println!("alarms:        {}", h.alarms);
    println!("log:           {} bytes, {} records", h.log_bytes, session.log.len());
    println!("final digest:  {:016x}", h.final_digest);
    Ok(())
}

fn replay_config(args: &[String]) -> Result<ReplayConfig, String> {
    let secs: f64 = parse(args, "--checkpoint-secs", 1.0)?;
    Ok(ReplayConfig {
        checkpoint_interval: Some((secs * VIRTUAL_HZ as f64) as u64),
        ..ReplayConfig::default()
    })
}

fn cmd_replay(args: &[String], resolve: bool) -> CliResult {
    let path = args.first().ok_or("replay/resolve need FILE")?;
    let session = Session::load(path)?;
    let spec = session.header.spec.clone();
    let digest = session.expected_digest();
    let log = session.log;
    let cfg = replay_config(args)?;
    let mut r = Replayer::new(&spec, Arc::clone(&log), cfg.clone());
    r.verify_against(digest);
    let out = r.run()?;
    println!("replayed {} instructions in {} cycles", out.retired, out.cycles);
    println!("verified:              {}", out.verified == Some(true));
    println!("checkpoints taken:     {}", out.checkpoints_taken);
    println!("alarms seen:           {}", out.alarms_seen);
    println!("underflows cancelled:  {}", out.underflows_cancelled);
    println!("escalated (ROP):       {}", out.alarm_cases.len());
    println!("escalated (JOP):       {}", out.jop_cases.len());
    if out.verified != Some(true) {
        return Err("replayed state diverged from the recording".into());
    }
    if !resolve {
        return Ok(());
    }

    // One alarm-replay pass per checkpoint resolves the cases sharing it.
    let ar = AlarmReplayer::new(&spec, log).with_config(cfg);
    let cases = &out.alarm_cases;
    let mut verdicts = vec![None; cases.len()];
    for group in checkpoint_groups(cases) {
        let mut pass = ar.pass(&cases[group[0]].checkpoint);
        for i in group {
            let (verdict, _) = pass.resolve_next(&cases[i])?;
            verdicts[i] = Some((cases[i].at_insn(), verdict));
        }
    }
    let verdicts: Vec<(u64, Verdict)> = verdicts.into_iter().flatten().collect();
    let json = has_flag(args, "--json");
    for (at_insn, verdict) in &verdicts {
        match verdict {
            Verdict::RopAttack(report) if json => {
                println!(
                    "{}",
                    serde_json::json!({
                        "at_insn": at_insn,
                        "verdict": "rop-attack",
                        "vulnerable": report.vulnerable_symbol,
                        "hijacked_to": format!("{:#x}", report.actual_target),
                        "thread": report.tid.0,
                        "chain": report.gadget_chain.iter().map(|g| format!("{:#x}", g.value)).collect::<Vec<_>>(),
                    })
                );
            }
            Verdict::RopAttack(report) => {
                println!(
                    "insn {at_insn}: ROP ATTACK in {:?} (thread {}), hijacked to {:#x}",
                    report.vulnerable_symbol, report.tid, report.actual_target
                );
                for g in &report.gadget_chain {
                    if let Some(listing) = &g.listing {
                        println!("    gadget {:#x}: {listing}", g.value);
                    }
                }
            }
            Verdict::HeapOverflow(report) if json => {
                println!(
                    "{}",
                    serde_json::json!({
                        "at_insn": at_insn,
                        "verdict": "heap-overflow",
                        "addr": format!("{:#x}", report.addr),
                        "region": report.region.map(|(b, l)| format!("{b:#x}+{l}")),
                        "thread": report.tid,
                    })
                );
            }
            Verdict::UseAfterReturn(report) if json => {
                println!(
                    "{}",
                    serde_json::json!({
                        "at_insn": at_insn,
                        "verdict": "use-after-return",
                        "addr": format!("{:#x}", report.addr),
                        "thread": report.tid,
                    })
                );
            }
            Verdict::HeapOverflow(report) => {
                println!(
                    "insn {at_insn}: HEAP OVERFLOW at {:#x} (thread {}), escaped region {:?}",
                    report.addr, report.tid, report.region
                );
            }
            Verdict::UseAfterReturn(report) => {
                println!(
                    "insn {at_insn}: USE-AFTER-RETURN at {:#x} (thread {}), sp at alarm {:#x}",
                    report.addr, report.tid, report.sp_at_alarm
                );
            }
            Verdict::FalsePositive(kind) => {
                println!("insn {at_insn}: false positive ({kind:?})");
            }
        }
    }
    for case in &out.jop_cases {
        match rnr_replay::resolve_jop(&spec, case) {
            rnr_replay::JopVerdict::JopAttack => println!(
                "insn {}: JOP ATTACK — indirect branch at {:#x} into function body {:#x}",
                case.at_insn, case.branch_pc, case.target
            ),
            rnr_replay::JopVerdict::FalsePositive => {
                println!("insn {}: JOP false positive (uncommon function {:#x})", case.at_insn, case.target)
            }
        }
    }
    let attacks = verdicts.iter().filter(|(_, v)| v.is_attack()).count();
    println!(
        "\n{} ROP alarm(s): {attacks} attack(s), {} false positive(s)",
        verdicts.len(),
        verdicts.len() - attacks
    );
    Ok(())
}

fn cmd_audit(args: &[String]) -> CliResult {
    let path = args.first().ok_or("audit needs FILE")?;
    let insn: u64 = parse(args, "--insn", u64::MAX)?;
    if insn == u64::MAX {
        return Err("audit needs --insn N".into());
    }
    let session = Session::load(path)?;
    let spec = session.header.spec.clone();
    let log = session.log;
    let cfg = ReplayConfig { checkpoint_interval: None, collect_cases: false, ..ReplayConfig::default() };
    let mut r = Replayer::new(&spec, log, cfg);
    r.stop_at_insn(insn);
    let out = r.run()?;
    let vm = out.vm();
    let intro = rnr_hypervisor::Introspector::new(&spec.kernel);
    println!("audit point: instruction {} (requested {insn}), cycle {}", out.retired, out.cycles);
    let pc = vm.cpu().pc;
    let symbol = spec
        .kernel
        .image()
        .symbolize(pc)
        .or_else(|| spec.extra_images.first().and_then(|i| i.symbolize(pc)))
        .map(|(s, base)| format!("{s}+{:#x}", pc - base))
        .unwrap_or_else(|| "?".to_string());
    println!("pc:          {pc:#x} ({symbol})");
    println!("mode:        {:?}; interrupts: {}", vm.cpu().mode, vm.cpu().interrupts_enabled);
    for reg in rnr_isa::Reg::ALL {
        println!("  {reg:<4} = {:#018x}", vm.cpu().reg(reg));
    }
    println!("current thread: {:?}", intro.current_thread(vm));
    println!("threads (tid, state): {:?}", intro.thread_table(vm));
    println!("privilege flag: {:#x}", intro.priv_flag(vm));
    println!("kernel oopses:  {}", intro.oops_count(vm));
    Ok(())
}

//! The six closed-loop workloads: what one session is, how it is configured,
//! and what its verdicts must be.

use std::path::{Path, PathBuf};

use rnr_hypervisor::VmSpec;
use rnr_log::DurableLogConfig;
use rnr_replay::Verdict;
use rnr_safe::vrt::VrtParams;
use rnr_safe::{PipelineConfig, PipelineReport};
use rnr_workloads::{Workload as Program, WorkloadParams};

/// The workloads, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 6] =
    ["rop_attack", "compute_verify", "net_durable", "alarm_storm", "jit_smc", "fleet"];

/// ROP convictions the mounted §6 attack produces in every session.
const ROP_CONVICTIONS: usize = 3;

/// Sessions in one `fleet` batch.
pub const FLEET_BATCH: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RopAttack,
    ComputeVerify,
    NetDurable,
    AlarmStorm,
    JitSmc,
    Fleet,
}

/// A session's guest, its pipeline configuration, and what its verdicts
/// must be.
#[derive(Clone)]
pub struct Session {
    pub name: &'static str,
    pub spec: VmSpec,
    pub config: PipelineConfig,
    pub rop_expected: usize,
}

/// A guest a workload's sessions rotate through.
struct Guest {
    program: Program,
    vrt: bool,
    insns: u64,
    spec: VmSpec,
}

/// One workload with its guests built and its pools sized.
pub struct Bench {
    pub kind: Kind,
    /// Size of every internal pool: span workers, AR workers, farm workers.
    pub pools: usize,
    scratch: PathBuf,
    attack: VmSpec,
    guests: Vec<Guest>,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        let kind = match name {
            "rop_attack" => Kind::RopAttack,
            "compute_verify" => Kind::ComputeVerify,
            "net_durable" => Kind::NetDurable,
            "alarm_storm" => Kind::AlarmStorm,
            "jit_smc" => Kind::JitSmc,
            "fleet" => Kind::Fleet,
            _ => return None,
        };
        Some(kind)
    }

    /// Sessions per closed-loop operation.
    pub fn sessions_per_op(self) -> u64 {
        if self == Kind::Fleet {
            FLEET_BATCH
        } else {
            1
        }
    }
}

fn attack_spec() -> VmSpec {
    let (spec, _plan) = rnr_attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000)
        .expect("the §6 attack mounts");
    spec
}

impl Bench {
    /// Builds every guest the workload uses. `scratch` is the directory
    /// durable logs are written under.
    pub fn new(kind: Kind, pools: usize, scratch: &Path) -> Bench {
        // (program, VRT armed, instructions). Sessions take 60–80 ms on a
        // 2-vCPU host, so the 100 a p90 needs fit well inside a 12 s run
        // and a slow host does not stretch the run. Where a workload mixes
        // guests, their lengths are chosen so their sessions take about the
        // same host time: the median then lies inside one mode instead of
        // in the gap between two, where it would jump from run to run. Make
        // and Fileio are left out: on about 1% of seeds Make draws false ROP
        // convictions and Fileio fails verification, and no operation of
        // the benchmark may fail.
        let guests: &[(Program, bool, u64)] = match kind {
            Kind::RopAttack => &[],
            Kind::ComputeVerify => {
                &[(Program::Radiosity, false, 6_000_000), (Program::Mysql, false, 4_800_000)]
            }
            Kind::NetDurable => &[(Program::Apache, false, 2_000_000)],
            Kind::AlarmStorm => &[(Program::HeapServer, true, 600_000), (Program::Longjmp, true, 1_500_000)],
            Kind::JitSmc => &[(Program::Jit, false, 3_000_000)],
            Kind::Fleet => &[
                (Program::Mysql, false, 600_000),
                (Program::Jit, false, 600_000),
                (Program::Radiosity, false, 600_000),
                (Program::Apache, false, 600_000),
                (Program::HeapServer, true, 600_000),
                (Program::Longjmp, true, 600_000),
                (Program::Longjmp, false, 600_000),
            ],
        };
        Bench {
            kind,
            pools,
            scratch: scratch.to_path_buf(),
            attack: attack_spec(),
            guests: guests
                .iter()
                .map(|&(program, vrt, insns)| Guest { program, vrt, insns, spec: program.spec(false) })
                .collect(),
        }
    }

    /// Guest `k` of the rotation under `config`, with the guest's length
    /// and VRT setting.
    fn guest(&self, k: usize, config: PipelineConfig) -> Session {
        let g = &self.guests[k % self.guests.len()];
        let config =
            PipelineConfig { duration_insns: g.insns, vrt: g.vrt.then(VrtParams::default), ..config };
        Session { name: g.program.label(), spec: g.spec.clone(), config, rop_expected: 0 }
    }

    /// Session `index` of the closed loop, run with pipeline seed `seed`.
    /// For `fleet` this is one batch member: `index % 8` picks the member.
    pub fn session(&self, index: u64, seed: u64) -> Session {
        let pools = self.pools;
        let base = PipelineConfig { seed, ar_workers: pools, ..PipelineConfig::default() };
        let k = index as usize;
        match self.kind {
            Kind::RopAttack => Session {
                name: "attack",
                spec: self.attack.clone(),
                config: PipelineConfig {
                    duration_insns: 2_500_000,
                    checkpoint_interval_secs: Some(0.05),
                    parallel_spans: pools,
                    ..base
                },
                rop_expected: ROP_CONVICTIONS,
            },
            Kind::ComputeVerify | Kind::JitSmc => {
                self.guest(k, PipelineConfig { parallel_spans: pools, ..base })
            }
            Kind::NetDurable => {
                let dir = self.scratch.join(format!("session-{seed}"));
                let durable_log = Some(DurableLogConfig::new(dir));
                self.guest(k, PipelineConfig { parallel_spans: pools, durable_log, ..base })
            }
            Kind::AlarmStorm => self.guest(
                k,
                PipelineConfig { checkpoint_interval_secs: Some(0.125), parallel_spans: 0, ..base },
            ),
            Kind::Fleet => match k % FLEET_BATCH as usize {
                0 => Session {
                    name: "attack",
                    spec: self.attack.clone(),
                    config: PipelineConfig {
                        duration_insns: 900_000,
                        checkpoint_interval_secs: Some(0.125),
                        ..base
                    },
                    rop_expected: ROP_CONVICTIONS,
                },
                member => self.guest(member - 1, base),
            },
        }
    }
}

/// The reference configuration a session's report must be byte-identical
/// under: every wall-clock knob off.
pub fn reference_config(config: &PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        streaming: false,
        parallel_spans: 0,
        decode_cache: false,
        block_engine: false,
        superblocks: false,
        parallel_alarm_replay: false,
        ..config.clone()
    }
}

/// Checks a session's verdicts against its workload's expectation: the
/// replay verified, no alarm case failed, and exactly `rop_expected` ROP
/// convictions with no other attack verdict.
pub fn check_verdicts(session: &Session, report: &PipelineReport) -> Result<(), String> {
    if !report.replay.verified {
        return Err("replay did not verify".into());
    }
    if let Some(case) = report.recovery.failed_cases.first() {
        return Err(format!(
            "{} alarm case(s) failed; first at insn {}: {}",
            report.recovery.failed_cases.len(),
            case.at_insn,
            case.error
        ));
    }
    let rop = report.resolutions.iter().filter(|r| matches!(r.verdict, Verdict::RopAttack(_))).count();
    let attacks = report.attacks_confirmed();
    if rop != session.rop_expected || attacks != rop {
        return Err(format!(
            "expected {} ROP conviction(s) and no other attack, got {rop} ROP of {attacks} attack verdict(s)",
            session.rop_expected
        ));
    }
    Ok(())
}

/// The first line where two reports differ, for mismatch messages.
pub fn first_difference(expected: &str, got: &str) -> String {
    expected
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (e, g))| e != g)
        .map(|(n, (e, g))| format!("line {}: expected `{}`, got `{}`", n + 1, e.trim(), g.trim()))
        .unwrap_or_else(|| "the reports differ only in length".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_parses() {
        for name in NAMES {
            assert!(Kind::parse(name).is_some(), "{name}");
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn reference_config_turns_every_wall_clock_knob_off() {
        let r = reference_config(&PipelineConfig { seed: 9, parallel_spans: 4, ..PipelineConfig::default() });
        assert!(!r.streaming && !r.decode_cache && !r.block_engine && !r.superblocks);
        assert!(!r.parallel_alarm_replay);
        assert_eq!((r.parallel_spans, r.seed), (0, 9));
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nc\n"), "line 2: expected `b`, got `c`");
        assert_eq!(first_difference("a", "a\nb"), "the reports differ only in length");
    }
}

//! The evaluated system configuration (the paper's Table 2, mapped onto the
//! simulator).

use rnr_machine::CostModel;
use rnr_ras::RasConfig;
use rnr_replay::VIRTUAL_HZ;

/// One row of the configuration table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ConfigRow {
    /// Setting name.
    pub name: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// This reproduction's value.
    pub repro: String,
}

/// The full configuration table: the paper's host/guest description next to
/// the simulator parameters that stand in for them.
pub fn rows() -> Vec<ConfigRow> {
    let costs = CostModel::default();
    vec![
        ConfigRow {
            name: "host CPU",
            paper: "Xeon E3, 64-bit, 4 cores, 3.1 GHz",
            repro: format!("cycle-accurate interpreter, VIRTUAL_HZ = {VIRTUAL_HZ} cycles/s"),
        },
        ConfigRow { name: "host memory", paper: "8 GB", repro: "host-native (simulation)".to_string() },
        ConfigRow {
            name: "host OS / hypervisor",
            paper: "Ubuntu, Linux 2.6.38-rc8 + modified KVM/QEMU (Insight)",
            repro: "rnr-hypervisor (device emulation, introspection, recorder)".to_string(),
        },
        ConfigRow {
            name: "guest CPU",
            paper: "uniprocessor",
            repro: "uniprocessor rnr-machine VM".to_string(),
        },
        ConfigRow {
            name: "guest memory",
            paper: "1 GB",
            repro: format!("{} MiB", rnr_machine::MachineConfig::MEM_BYTES >> 20),
        },
        ConfigRow {
            name: "guest OS",
            paper: "Debian, Linux 3.19.0",
            repro: "rnr-guest microkernel (Linux-shaped context switch, threads, drivers)".to_string(),
        },
        ConfigRow {
            name: "guest disk",
            paper: "32 GB",
            repro: format!("{} MiB virtual disk", rnr_hypervisor::VmSpec::DEFAULT_DISK >> 20),
        },
        ConfigRow {
            name: "RAS",
            paper: "48 entries (simulated)",
            repro: format!("{} entries", RasConfig::DEFAULT_CAPACITY),
        },
        ConfigRow { name: "VM exit", paper: "~1,000 cycles", repro: format!("{} cycles", costs.vmexit) },
        ConfigRow {
            name: "RAS save / restore",
            paper: "~200 / ~200 cycles",
            repro: format!("{} / {} cycles", costs.ras_save, costs.ras_restore),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_paper_rows() {
        let rows = rows();
        assert!(rows.len() >= 8);
        assert!(rows.iter().any(|r| r.name == "RAS"));
        assert!(rows.iter().any(|r| r.paper.contains("3.1 GHz")));
    }
}

//! Log record types.

use rnr_isa::Addr;
use rnr_ras::{Mispredict, ThreadId};
use rnr_vrt::VrtKind;

/// Which virtual device wrote a DMA payload into guest memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DmaSource {
    /// The virtual disk controller.
    Disk,
    /// The virtual network interface.
    Nic,
}

/// A ROP alarm as inserted into the log by the recording hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlarmInfo {
    /// The guest thread running when the alarm fired.
    pub tid: ThreadId,
    /// The RAS misprediction that triggered it.
    pub mispredict: Mispredict,
    /// Retired-instruction count at the alarm.
    pub at_insn: u64,
    /// Virtual cycle count at the alarm (for the §8.4 detection window).
    pub at_cycle: u64,
}

/// A VRT memory-safety alarm (DESIGN.md §15) as inserted into the log by
/// the recording hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VrtAlarmInfo {
    /// The guest thread running when the alarm fired.
    pub tid: ThreadId,
    /// Which watch window the store tripped.
    pub kind: VrtKind,
    /// First byte of the offending store.
    pub addr: Addr,
    /// Retired-instruction count at the alarm.
    pub at_insn: u64,
    /// Virtual cycle count at the alarm.
    pub at_cycle: u64,
}

/// One entry of the input log.
///
/// *Synchronous* records (`Rdtsc`, `PioIn`, `MmioRead`) are consumed when the
/// replayed guest executes the corresponding trapping instruction, in program
/// order. *Asynchronous* records carry the retired-instruction count
/// (`at_insn`) at which the recorder injected them; the replayer must recreate
/// them at exactly that point (§7.3).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Record {
    /// Result of a trapped `rdtsc`.
    Rdtsc {
        /// The value the recorder returned to the guest.
        value: u64,
    },
    /// Result of a trapped port read.
    PioIn {
        /// The port number.
        port: u16,
        /// The value returned.
        value: u64,
    },
    /// Result of a trapped MMIO load.
    MmioRead {
        /// Guest physical address of the access.
        addr: Addr,
        /// The value returned.
        value: u64,
    },
    /// An external interrupt injected at `at_insn`.
    Interrupt {
        /// Interrupt line (0 = timer, 1 = disk, 2 = NIC).
        irq: u8,
        /// Retired-instruction count at injection.
        at_insn: u64,
    },
    /// Device data copied into guest memory at a VM-exit boundary.
    Dma {
        /// Originating device.
        source: DmaSource,
        /// Guest physical destination address.
        addr: Addr,
        /// The bytes copied (network packet contents, disk sectors, ...).
        data: Vec<u8>,
        /// Retired-instruction count at the copy.
        at_insn: u64,
    },
    /// A RAS entry about to be evicted was dumped (§4.5); used by the
    /// checkpointing replayer to cancel matching underflow alarms.
    Evict {
        /// Thread whose RAS overflowed.
        tid: ThreadId,
        /// The evicted return address.
        addr: Addr,
    },
    /// A ROP alarm marker (§4.2): the replayers resolve it.
    Alarm(AlarmInfo),
    /// A JOP alarm (Table 1, row 2): an indirect branch/call missed the
    /// hardware's common-function table; the replayers re-check it against
    /// the full function list.
    JopAlarm {
        /// The guest thread running the branch.
        tid: ThreadId,
        /// PC of the indirect branch or call.
        branch_pc: Addr,
        /// The resolved target.
        target: Addr,
        /// Retired-instruction count at the alarm.
        at_insn: u64,
        /// Virtual cycle count at the alarm.
        at_cycle: u64,
    },
    /// A VRT memory-safety alarm (DESIGN.md §15): a store tripped the
    /// Variable Record Table's noisy heap/stack rules; the alarm replayer
    /// resolves it against the guest's precise allocation state.
    VrtAlarm(VrtAlarmInfo),
    /// End of the recorded execution.
    End {
        /// Total retired instructions of the recording.
        at_insn: u64,
        /// Total virtual cycles of the recording.
        at_cycle: u64,
    },
}

/// Overhead/size attribution categories, matching the legend of
/// Figures 5(b) and 7(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Category {
    /// Timer reads.
    Rdtsc,
    /// Port and memory-mapped I/O.
    PioMmio,
    /// External interrupt events.
    Interrupt,
    /// Network packet contents.
    Network,
    /// RAS traffic: evict records and alarms.
    Ras,
    /// Everything else (end markers, disk DMA payloads).
    Other,
}

impl Category {
    /// All categories, in the order the figures present them.
    pub const ALL: [Category; 6] = [
        Category::Rdtsc,
        Category::PioMmio,
        Category::Interrupt,
        Category::Network,
        Category::Ras,
        Category::Other,
    ];

    /// A short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Category::Rdtsc => "rdtsc",
            Category::PioMmio => "pio/mmio",
            Category::Interrupt => "interrupt",
            Category::Network => "network",
            Category::Ras => "ras",
            Category::Other => "other",
        }
    }
}

impl Record {
    /// The attribution category of this record.
    pub fn category(&self) -> Category {
        match self {
            Record::Rdtsc { .. } => Category::Rdtsc,
            Record::PioIn { .. } | Record::MmioRead { .. } => Category::PioMmio,
            Record::Interrupt { .. } => Category::Interrupt,
            Record::Dma { source: DmaSource::Nic, .. } => Category::Network,
            Record::Dma { source: DmaSource::Disk, .. } => Category::Other,
            Record::Evict { .. } | Record::Alarm(_) | Record::JopAlarm { .. } | Record::VrtAlarm(_) => {
                Category::Ras
            }
            Record::End { .. } => Category::Other,
        }
    }

    /// True for records that replay injects at an instruction count rather
    /// than at a trapping instruction.
    pub fn is_asynchronous(&self) -> bool {
        matches!(self, Record::Interrupt { .. } | Record::Dma { .. })
    }

    /// The retired-instruction count a record takes effect at: the
    /// injection point of asynchronous records, the raising instruction of
    /// alarms, and the end of the recording. `None` for synchronous data
    /// records (replay meets them at their trapping instruction) and evict
    /// records.
    pub fn at_insn(&self) -> Option<u64> {
        match self {
            Record::Interrupt { at_insn, .. } | Record::Dma { at_insn, .. } => Some(*at_insn),
            Record::End { at_insn, .. } | Record::JopAlarm { at_insn, .. } => Some(*at_insn),
            Record::Alarm(info) => Some(info.at_insn),
            Record::VrtAlarm(info) => Some(info.at_insn),
            _ => None,
        }
    }

    /// Exact size of this record in the binary log format, in bytes.
    pub fn encoded_len(&self) -> u64 {
        crate::codec::encoded_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_ras::MispredictKind;

    #[test]
    fn categories_match_figure_legend() {
        assert_eq!(Record::Rdtsc { value: 1 }.category(), Category::Rdtsc);
        assert_eq!(Record::PioIn { port: 1, value: 2 }.category(), Category::PioMmio);
        assert_eq!(Record::MmioRead { addr: 4, value: 2 }.category(), Category::PioMmio);
        assert_eq!(Record::Interrupt { irq: 0, at_insn: 9 }.category(), Category::Interrupt);
        assert_eq!(
            Record::Dma { source: DmaSource::Nic, addr: 0, data: vec![], at_insn: 0 }.category(),
            Category::Network
        );
        assert_eq!(
            Record::Dma { source: DmaSource::Disk, addr: 0, data: vec![], at_insn: 0 }.category(),
            Category::Other
        );
        assert_eq!(Record::Evict { tid: ThreadId(1), addr: 2 }.category(), Category::Ras);
    }

    #[test]
    fn asynchrony_classification() {
        assert!(Record::Interrupt { irq: 1, at_insn: 5 }.is_asynchronous());
        assert!(!Record::Rdtsc { value: 0 }.is_asynchronous());
        assert_eq!(Record::Interrupt { irq: 1, at_insn: 5 }.at_insn(), Some(5));
        assert_eq!(Record::Rdtsc { value: 0 }.at_insn(), None);
    }

    #[test]
    fn alarm_record_is_ras_category() {
        let alarm = Record::Alarm(AlarmInfo {
            tid: ThreadId(1),
            mispredict: Mispredict { ret_pc: 1, predicted: None, actual: 2, kind: MispredictKind::Underflow },
            at_insn: 10,
            at_cycle: 20,
        });
        assert_eq!(alarm.category(), Category::Ras);
    }
}

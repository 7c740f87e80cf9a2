//! The guest-VM specification produced by workload builders.

use rnr_guest::{BootTable, KernelImage};
use rnr_isa::Image;

use crate::NetProfile;

/// Everything needed to instantiate and drive one guest VM: kernel,
/// workload images, initial threads, and the device-activity profile.
///
/// Workload builders (`rnr-workloads`) produce a `VmSpec`; the recorder and
/// the replayers consume it. Record and replay must be built from the *same*
/// spec — the replayers re-create the initial VM state from it, and the
/// input log supplies everything else.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct VmSpec {
    /// The guest kernel.
    pub kernel: KernelImage,
    /// Additional images (user programs, data) loaded at boot.
    pub extra_images: Vec<Image>,
    /// Initial threads and workload parameters.
    pub boot: BootTable,
    /// Timer interrupt period in virtual cycles.
    pub timer_period: u64,
    /// Network traffic profile.
    pub net: NetProfile,
    /// Seed for the deterministic initial disk image.
    pub disk_seed: u64,
    /// Human-readable workload name (reports and tables).
    pub name: String,
}

impl VmSpec {
    /// Virtual disk size of every guest: 4 MiB.
    pub const DEFAULT_DISK: usize = 4 << 20;

    /// A minimal spec: the given kernel, no extra images, quiet network,
    /// 200k-cycle timer.
    pub fn new(kernel: KernelImage, name: impl Into<String>) -> VmSpec {
        VmSpec {
            kernel,
            extra_images: Vec::new(),
            boot: BootTable::new(),
            timer_period: 200_000,
            net: NetProfile::quiet(),
            disk_seed: 0xD15C,
            name: name.into(),
        }
    }

    /// All images to load, kernel first.
    pub fn images(&self) -> Vec<&Image> {
        let mut v = vec![self.kernel.image()];
        v.extend(self.extra_images.iter());
        v
    }
}

/// Derives the hardware JOP table from the guest images: every symbol
/// starts a function extending to the next symbol; only the first `limit`
/// functions are tracked (the "most common functions" of Table 1).
pub fn jop_table_from_spec(spec: &VmSpec, limit: usize) -> rnr_machine::JopTable {
    let mut ranges = Vec::new();
    for image in std::iter::once(spec.kernel.image()).chain(spec.extra_images.iter()) {
        let mut addrs: Vec<rnr_isa::Addr> = image.symbols().map(|(_, a)| a).collect();
        addrs.sort_unstable();
        addrs.dedup();
        for (i, &start) in addrs.iter().enumerate() {
            let end = addrs.get(i + 1).copied().unwrap_or(image.end());
            ranges.push((start, end));
        }
    }
    // Sort globally before truncating: the "most common" cutoff must use
    // the same ordering callers observe in the final table, regardless of
    // the images' load-address order.
    ranges.sort_unstable();
    ranges.dedup();
    ranges.truncate(limit);
    rnr_machine::JopTable::from_ranges(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_guest::KernelBuilder;

    #[test]
    fn images_are_kernel_first() {
        let spec = VmSpec::new(KernelBuilder::new().build(), "test");
        assert_eq!(spec.images().len(), 1);
        assert_eq!(spec.images()[0].base(), rnr_guest::layout::KERNEL_BASE);
        assert_eq!(spec.name, "test");
    }
}

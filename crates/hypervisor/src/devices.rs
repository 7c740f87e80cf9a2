//! Virtual device models (the QEMU-userspace devices of the paper's setup).

use std::collections::VecDeque;

use rnr_guest::layout::{NIC_MTU, NIC_RX_BUF};
use rnr_isa::Addr;
use rnr_machine::{
    BlockSnapshot, BlockStore, GuestVm, PageTable, DISK_CMD_READ, DISK_CMD_WRITE, PORT_DISK_ADDR,
    PORT_DISK_CMD, PORT_DISK_COUNT, PORT_DISK_SECTOR, SECTOR_SIZE,
};

/// An in-flight disk operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskOp {
    /// [`DISK_CMD_READ`] or [`DISK_CMD_WRITE`].
    pub cmd: u64,
    /// First sector.
    pub sector: u64,
    /// Guest physical DMA address.
    pub addr: Addr,
    /// Sector count.
    pub count: u64,
    /// Virtual cycle at which the completion interrupt fires (set by the
    /// recorder from the latency model; unused during replay, where the
    /// logged interrupt record supplies the timing).
    pub complete_at: u64,
}

/// The virtual disk controller: PIO-latched requests, DMA transfers against
/// a [`BlockStore`], one operation in flight.
///
/// The disk is **deterministic** apart from completion timing: replayers run
/// their own replica and reproduce reads/writes bit-exactly, which is why
/// disk data never appears in the input log (only NIC payloads do).
#[derive(Debug, Clone)]
pub struct DiskDevice {
    store: BlockStore,
    sector: u64,
    addr: u64,
    count: u64,
    in_flight: Option<DiskOp>,
}

/// The disk controller at a checkpoint ([`DiskDevice::snapshot`]): the
/// block table, the latched request registers and the operation in flight.
#[derive(Debug, Clone, Default)]
pub struct DiskSnapshot {
    store: BlockSnapshot,
    sector: u64,
    addr: u64,
    count: u64,
    in_flight: Option<DiskOp>,
}

impl DiskSnapshot {
    /// The disk contents.
    pub fn blocks(&self) -> &PageTable {
        self.store.blocks()
    }

    /// The operation in flight at the capture, if any.
    pub fn in_flight(&self) -> Option<DiskOp> {
        self.in_flight
    }
}

impl DiskDevice {
    /// A controller over a disk of `bytes` capacity, deterministically
    /// filled from `content_seed` (the "disk image").
    pub fn new(bytes: usize, content_seed: u64) -> DiskDevice {
        let mut store = BlockStore::new(bytes);
        store.fill_deterministic(content_seed);
        DiskDevice { store, sector: 0, addr: 0, count: 0, in_flight: None }
    }

    /// The backing store (checkpointed by the replayer).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the backing store (checkpoint restore).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// The operation in flight, if any.
    pub fn in_flight(&self) -> Option<DiskOp> {
        self.in_flight
    }

    /// The controller and its disk at this instant, sharing with `base`
    /// (the same producer's previous snapshot) every chunk of blocks not
    /// written since ([`BlockStore::snapshot`]). A pure read.
    pub fn snapshot(&self, base: Option<&DiskSnapshot>) -> DiskSnapshot {
        DiskSnapshot {
            store: self.store.snapshot(base.map(|b| &b.store)),
            sector: self.sector,
            addr: self.addr,
            count: self.count,
            in_flight: self.in_flight,
        }
    }

    /// Puts a snapshot's registers, operation and blocks in place
    /// ([`BlockStore::restore`]).
    pub fn restore(&mut self, snap: &DiskSnapshot) {
        self.store.restore(&snap.store);
        self.sector = snap.sector;
        self.addr = snap.addr;
        self.count = snap.count;
        self.in_flight = snap.in_flight;
    }

    /// Sets the completion time of the in-flight operation (the recorder's
    /// latency model decides it after the command write).
    ///
    /// # Panics
    ///
    /// Panics if no operation is in flight.
    pub fn set_complete_at(&mut self, cycle: u64) {
        self.in_flight.as_mut().expect("no in-flight disk op").complete_at = cycle;
    }

    /// Handles a PIO write to a disk port. A write to the command port
    /// starts an operation; the caller decides `complete_at` from its
    /// latency model and later calls [`DiskDevice::complete`].
    ///
    /// Returns `true` if an operation was started.
    pub fn handle_out(&mut self, port: u16, value: u64, complete_at: u64) -> bool {
        match port {
            PORT_DISK_SECTOR => self.sector = value,
            PORT_DISK_ADDR => self.addr = value,
            PORT_DISK_COUNT => self.count = value,
            PORT_DISK_CMD if value == DISK_CMD_READ || value == DISK_CMD_WRITE => {
                self.in_flight = Some(DiskOp {
                    cmd: value,
                    sector: self.sector,
                    addr: self.addr,
                    count: self.count,
                    complete_at,
                });
                return true;
            }
            _ => {}
        }
        false
    }

    /// Completes the in-flight operation: performs the DMA transfer against
    /// `vm`'s memory and returns the finished op. The caller injects the
    /// completion interrupt.
    ///
    /// # Panics
    ///
    /// Panics if no operation is in flight (hypervisor sequencing bug).
    pub fn complete(&mut self, vm: &mut GuestVm) -> DiskOp {
        let op = self.in_flight.take().expect("disk completion without an in-flight op");
        let mut buf = [0u8; SECTOR_SIZE];
        for i in 0..op.count {
            let sector = (op.sector + i) % self.store.sector_count();
            let guest = op.addr + i * SECTOR_SIZE as u64;
            if op.cmd == DISK_CMD_READ {
                self.store.read_sector(sector, &mut buf).expect("sector wrapped in range");
                // A DMA write that misses guest memory is dropped, as real
                // devices do on bad addresses.
                let _ = vm.mem_mut().write_bytes(guest, &buf);
            } else {
                if vm.mem().read_bytes(guest, &mut buf).is_err() {
                    buf.fill(0);
                }
                self.store.write_sector(sector, &buf).expect("sector wrapped in range");
            }
        }
        op
    }
}

/// The virtual NIC: a receive queue feeding a single-frame mailbox DMA'd
/// into the guest at [`NIC_RX_BUF`], plus a transmit capture buffer.
#[derive(Debug, Clone, Default)]
pub struct NicDevice {
    rx_queue: VecDeque<Vec<u8>>,
    mailbox_len: Option<u64>,
    tx_addr: u64,
    tx_len: u64,
    tx_frames: Vec<Vec<u8>>,
}

impl NicDevice {
    /// A NIC with empty queues.
    pub fn new() -> NicDevice {
        NicDevice::default()
    }

    /// Queues an arriving frame (recording side only).
    pub fn enqueue_rx(&mut self, payload: Vec<u8>) {
        self.rx_queue.push_back(payload);
    }

    /// Frames waiting behind the mailbox.
    pub fn rx_pending(&self) -> usize {
        self.rx_queue.len()
    }

    /// The mailbox frame length, as the guest's MMIO `RX_LEN` read sees it.
    pub fn mailbox_len(&self) -> u64 {
        self.mailbox_len.unwrap_or(0)
    }

    /// Delivers the next queued frame into the guest mailbox if it is free:
    /// pads the payload to the 32-byte DMA granule, writes it at
    /// [`NIC_RX_BUF`], and returns the padded bytes for logging. The caller
    /// injects `IRQ_NIC`.
    pub fn deliver(&mut self, vm: &mut GuestVm) -> Option<Vec<u8>> {
        if self.mailbox_len.is_some() {
            return None;
        }
        let mut frame = self.rx_queue.pop_front()?;
        let padded = frame.len().div_ceil(32) * 32;
        frame.resize(padded.min(NIC_MTU), 0);
        vm.mem_mut().write_bytes(NIC_RX_BUF, &frame).expect("mailbox in guest memory");
        self.mailbox_len = Some(frame.len() as u64);
        Some(frame)
    }

    /// Guest popped the mailbox (MMIO `RX_POP` write).
    pub fn pop_mailbox(&mut self) {
        self.mailbox_len = None;
    }

    /// Dequeues a raw frame, bypassing the mailbox (paravirtual receive).
    pub fn take_rx(&mut self) -> Option<Vec<u8>> {
        self.rx_queue.pop_front()
    }

    /// Handles a PIO write to a NIC transmit port; captures the frame on
    /// the command write.
    pub fn handle_out(&mut self, port: u16, value: u64, vm: &GuestVm) {
        use rnr_machine::{PORT_NIC_TX_ADDR, PORT_NIC_TX_CMD, PORT_NIC_TX_LEN};
        match port {
            PORT_NIC_TX_ADDR => self.tx_addr = value,
            PORT_NIC_TX_LEN => self.tx_len = value,
            PORT_NIC_TX_CMD => {
                let len = (self.tx_len as usize).min(NIC_MTU);
                let mut buf = vec![0u8; len];
                if vm.mem().read_bytes(self.tx_addr, &mut buf).is_ok() {
                    self.tx_frames.push(buf);
                }
            }
            _ => {}
        }
    }

    /// Transmit frames captured so far.
    pub fn tx_frames(&self) -> &[Vec<u8>] {
        &self.tx_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_machine::MachineConfig;

    fn vm() -> GuestVm {
        GuestVm::new(MachineConfig::default(), &[])
    }

    #[test]
    fn disk_read_dmas_into_guest() {
        let mut vm = vm();
        let mut disk = DiskDevice::new(1 << 20, 42);
        disk.handle_out(PORT_DISK_SECTOR, 3, 0);
        disk.handle_out(PORT_DISK_ADDR, 0x2000, 0);
        disk.handle_out(PORT_DISK_COUNT, 2, 0);
        assert!(disk.handle_out(rnr_machine::PORT_DISK_CMD, DISK_CMD_READ, 500));
        assert_eq!(disk.in_flight().unwrap().complete_at, 500);
        let op = disk.complete(&mut vm);
        assert_eq!(op.count, 2);
        // Guest memory now matches the store contents.
        let mut expect = [0u8; SECTOR_SIZE];
        disk.store().read_sector(3, &mut expect).unwrap();
        let mut got = [0u8; SECTOR_SIZE];
        vm.mem().read_bytes(0x2000, &mut got).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn disk_write_updates_store() {
        let mut vm = vm();
        vm.mem_mut().write_bytes(0x4000, &[0xaa; SECTOR_SIZE]).unwrap();
        let mut disk = DiskDevice::new(1 << 20, 42);
        disk.handle_out(PORT_DISK_SECTOR, 7, 0);
        disk.handle_out(PORT_DISK_ADDR, 0x4000, 0);
        disk.handle_out(PORT_DISK_COUNT, 1, 0);
        disk.handle_out(rnr_machine::PORT_DISK_CMD, DISK_CMD_WRITE, 100);
        disk.complete(&mut vm);
        let mut got = [0u8; SECTOR_SIZE];
        disk.store().read_sector(7, &mut got).unwrap();
        assert_eq!(got, [0xaa; SECTOR_SIZE]);
    }

    #[test]
    fn identical_disks_have_identical_digests() {
        let a = DiskDevice::new(1 << 20, 9);
        let b = DiskDevice::new(1 << 20, 9);
        assert_eq!(a.store().digest(), b.store().digest());
        let c = DiskDevice::new(1 << 20, 10);
        assert_ne!(a.store().digest(), c.store().digest());
    }

    #[test]
    fn nic_mailbox_flow() {
        let mut vm = vm();
        let mut nic = NicDevice::new();
        nic.enqueue_rx(vec![1; 100]);
        nic.enqueue_rx(vec![2; 40]);
        let frame = nic.deliver(&mut vm).unwrap();
        assert_eq!(frame.len(), 128); // padded to 32-byte granule
        assert_eq!(nic.mailbox_len(), 128);
        // Mailbox occupied: second frame waits.
        assert!(nic.deliver(&mut vm).is_none());
        assert_eq!(nic.rx_pending(), 1);
        nic.pop_mailbox();
        let frame2 = nic.deliver(&mut vm).unwrap();
        assert_eq!(frame2.len(), 64);
        // DMA landed in the mailbox buffer.
        let mut got = [0u8; 40];
        vm.mem().read_bytes(NIC_RX_BUF, &mut got).unwrap();
        assert_eq!(got, [2u8; 40]);
    }

    #[test]
    fn nic_tx_capture() {
        let mut vm = vm();
        vm.mem_mut().write_bytes(0x5000, b"response").unwrap();
        let mut nic = NicDevice::new();
        nic.handle_out(rnr_machine::PORT_NIC_TX_ADDR, 0x5000, &vm);
        nic.handle_out(rnr_machine::PORT_NIC_TX_LEN, 8, &vm);
        nic.handle_out(rnr_machine::PORT_NIC_TX_CMD, 1, &vm);
        assert_eq!(nic.tx_frames(), &[b"response".to_vec()]);
    }
}

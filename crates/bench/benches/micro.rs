//! Criterion micro-benchmarks: the component costs behind the design
//! choices DESIGN.md calls out (RAS operations, BackRAS traffic, log codec,
//! copy-on-write checkpointing and state digests, gadget scanning,
//! record/replay throughput).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rnr_guest::KernelBuilder;
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_log::{decode_frame, encode_frame, InputLog, Record};
use rnr_machine::{GuestVm, MachineConfig, Memory, PAGE_SIZE};
use rnr_ras::{BackRasTable, RasConfig, RasUnit, ShadowRas, ThreadId, Whitelists};
use rnr_replay::{ReplayConfig, Replayer};
use rnr_workloads::Workload;

fn bench_ras(c: &mut Criterion) {
    let mut g = c.benchmark_group("ras");
    g.bench_function("push_pop_hit", |b| {
        let mut unit = RasUnit::new(RasConfig::extended(48));
        b.iter(|| {
            unit.on_call(0x1008);
            std::hint::black_box(unit.on_ret(0x2000, 0x1008));
        });
    });
    g.bench_function("backras_save_restore_48", |b| {
        let mut unit = RasUnit::new(RasConfig::extended(48));
        for i in 0..48 {
            unit.on_call(0x1000 + i * 8);
        }
        let mut table = BackRasTable::new();
        b.iter(|| {
            let saved = unit.save_backras().unwrap();
            table.save(ThreadId(1), saved);
            let entry = table.load(ThreadId(1));
            unit.restore_backras(&entry);
        });
    });
    g.bench_function("shadow_ras_call_ret", |b| {
        let mut shadow = ShadowRas::new(ThreadId(1), Whitelists::new());
        b.iter(|| {
            shadow.on_call(0x1008, 0x8000);
            std::hint::black_box(shadow.on_ret(0x2000, 0x1008, 0x8000));
        });
    });
    g.finish();
}

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("log");
    let sample: InputLog = (0..1000)
        .map(|i| match i % 3 {
            0 => Record::Rdtsc { value: i },
            1 => Record::Interrupt { irq: (i % 3) as u8, at_insn: i },
            _ => Record::Dma {
                source: rnr_log::DmaSource::Nic,
                addr: 0xF_0000,
                data: vec![0xab; 256],
                at_insn: i,
            },
        })
        .collect();
    g.throughput(Throughput::Bytes(sample.total_bytes()));
    g.bench_function("encode_1000_records", |b| {
        b.iter(|| std::hint::black_box(encode_frame(0, sample.records())));
    });
    let frame = encode_frame(0, sample.records());
    g.bench_function("decode_1000_records", |b| {
        b.iter(|| std::hint::black_box(decode_frame(&frame).unwrap()));
    });
    g.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint");
    g.bench_function("snapshot_4mib", |b| {
        let mem = Memory::new(4 << 20);
        b.iter(|| std::hint::black_box(mem.snapshot_pages()));
    });
    g.bench_function("capture_4mib_13_dirty", |b| {
        // The mean `rop_attack` CR interval: 13 pages, in 5 chunks, written
        // between captures. Each capture is taken against the previous one
        // and replaces it, as the CR's retention window recycles its oldest
        // checkpoint; the writes' page copies and the release are timed too.
        const DIRTY: [u64; 13] = [0, 1, 2, 3, 100, 101, 102, 330, 331, 650, 651, 1000, 1001];
        let mut mem = Memory::new(4 << 20);
        let mut base = mem.snapshot_pages();
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            for page in DIRTY {
                mem.write_u64(page * PAGE_SIZE as u64, round).unwrap();
            }
            base = mem.snapshot(Some(&base));
        });
    });
    g.bench_function("cow_first_write_after_snapshot", |b| {
        b.iter_batched(
            || {
                let mut mem = Memory::new(4 << 20);
                mem.write_u64(0, 1).unwrap();
                let snap = mem.snapshot_pages();
                mem.begin_epoch();
                (mem, snap)
            },
            |(mut mem, snap)| {
                // First write to a shared page copies it.
                mem.write_u64(PAGE_SIZE as u64 * 100, 7).unwrap();
                std::hint::black_box((mem, snap));
            },
            BatchSize::SmallInput,
        );
    });
    // Verification digests fold one memoized hash per page, so a digest
    // costs O(pages written since the last one). Each iteration rewrites
    // pages first (the writes are timed too; they are a few percent).
    let mut vm = GuestVm::new(MachineConfig::default(), &[]);
    let pages = vm.mem().page_count() as u64;
    let mut round = 0u64;
    g.bench_function("digest_4mib_cold", |b| {
        // Every page rewritten with distinct content: no memo survives, so
        // this is the cost of hashing all 4 MiB.
        b.iter(|| {
            round += 1;
            for page in 0..pages {
                vm.mem_mut().write_u64(page * PAGE_SIZE as u64, round ^ (page << 32)).unwrap();
            }
            std::hint::black_box(vm.digest())
        });
    });
    g.bench_function("digest_4mib_16_dirty", |b| {
        // The memo is warm; 16 pages spread over memory are rewritten.
        vm.digest();
        b.iter(|| {
            round += 1;
            for page in (0..pages).step_by(pages as usize / 16) {
                vm.mem_mut().write_u64(page * PAGE_SIZE as u64, round ^ (page << 32)).unwrap();
            }
            std::hint::black_box(vm.digest())
        });
    });
    g.finish();
}

fn bench_gadget_scan(c: &mut Criterion) {
    let kernel = KernelBuilder::new().build();
    let mut g = c.benchmark_group("attacks");
    g.throughput(Throughput::Bytes(kernel.image().len() as u64));
    g.bench_function("gadget_scan_kernel", |b| {
        b.iter(|| {
            let scanner = rnr_attacks::GadgetScanner::new(kernel.image(), 2);
            std::hint::black_box(scanner.scan().len());
        });
    });
    g.finish();
}

fn bench_record_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("system");
    g.sample_size(10);
    const INSNS: u64 = 100_000;
    g.throughput(Throughput::Elements(INSNS));
    g.bench_function("record_mysql_100k_insns", |b| {
        let spec = Workload::Mysql.spec(false);
        b.iter(|| {
            let out = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, INSNS)).unwrap().run();
            std::hint::black_box(out.cycles);
        });
    });
    g.bench_function("replay_mysql_100k_insns", |b| {
        let spec = Workload::Mysql.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, INSNS)).unwrap().run();
        let log = Arc::clone(&rec.log);
        b.iter(|| {
            let out = Replayer::new(&spec, Arc::clone(&log), ReplayConfig::default()).run().unwrap();
            std::hint::black_box(out.cycles);
        });
    });
    // Steady state: Radiosity retires almost every instruction inside
    // superblock traces, so this row follows the trace executor.
    const TRACE_INSNS: u64 = 2_000_000;
    g.throughput(Throughput::Elements(TRACE_INSNS));
    g.bench_function("replay_radiosity_2m_insns", |b| {
        let spec = Workload::Radiosity.spec(false);
        let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, TRACE_INSNS)).unwrap().run();
        let log = Arc::clone(&rec.log);
        b.iter(|| {
            let out = Replayer::new(&spec, Arc::clone(&log), ReplayConfig::default()).run().unwrap();
            std::hint::black_box(out.cycles);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_ras, bench_log, bench_checkpoint, bench_gadget_scan, bench_record_replay);
criterion_main!(benches);

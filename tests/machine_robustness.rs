//! Interpreter robustness: arbitrary byte soup must never panic the VM —
//! it either executes, exits, or faults. (Gadget-chasing attackers jump
//! into the middle of anything.)

use std::cell::Cell;

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use rnr_isa::{Assembler, Image, Instruction, Opcode, Reg};
use rnr_machine::{Digest, Exit, FinishIo, GuestVm, MachineConfig, RunBudget};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random code from a random entry slot: the VM always reaches a clean
    /// exit within the budget, and the three execution engines
    /// (single-step, block dispatch, superblock traces) agree with
    /// single-stepping that decodes every instruction afresh (no decode
    /// cache) on every exit with its retired count and virtual cycles, and
    /// on the final digest.
    /// Raw random bytes rarely decode, so each 8-byte slot is a decodable
    /// instruction with random registers. Half the immediates are addresses
    /// inside the program, aligned or not, so branches, calls and stores
    /// land in the code; a quarter are small, so memory operands stay in
    /// guest memory; the rest are any 32-bit value. Such programs run a
    /// median of about a hundred instructions, and a tenth of them reach the
    /// 2,000-instruction budget.
    #[test]
    fn random_code_never_panics(
        slots in prop::collection::vec(
            (prop::sample::select(opcode_bytes()), 0u8..16, 0u8..16, 0u8..16, 0u8..4, any::<u32>()),
            8..256,
        ),
        entry_slot in 0usize..256,
        sp in 0x2000u64..0x3_0000,
    ) {
        let len = slots.len() as u64;
        let bytes: Vec<u8> = slots
            .iter()
            .flat_map(|&(op, rd, rs1, rs2, imm_kind, raw)| {
                let imm = match imm_kind {
                    0 => PROGRAM_BASE + 8 * (u64::from(raw) % len),
                    1 => PROGRAM_BASE + u64::from(raw) % (8 * len),
                    2 => u64::from(raw) % 0x1_0000,
                    _ => u64::from(raw),
                };
                let mut slot = [op, rd, rs1, rs2, 0, 0, 0, 0];
                slot[4..].copy_from_slice(&(imm as u32).to_le_bytes());
                slot
            })
            .collect();
        let run = |decode_cache: bool, block_engine: bool, superblocks: bool| {
            let mut config = MachineConfig { decode_cache, block_engine, superblocks, ..MachineConfig::default() };
            config.exits.rdtsc_exiting = false;
            let mut vm = GuestVm::new(config, &[]);
            vm.mem_mut().write_bytes(PROGRAM_BASE, &bytes).unwrap();
            vm.set_entry(PROGRAM_BASE + 8 * (entry_slot as u64 % len));
            vm.cpu_mut().set_sp(sp);
            // Drive through a bounded number of exits.
            let mut events = Vec::new();
            let mut retired_target = 2_000;
            for _ in 0..50 {
                let exit = vm.run(RunBudget::until(retired_target));
                events.push((exit.clone(), vm.retired(), vm.cycles()));
                match exit {
                    Exit::BudgetExhausted | Exit::Fault(_) | Exit::Halt => break,
                    Exit::Rdtsc { rd } | Exit::PioIn { rd, .. } | Exit::MmioRead { rd, .. } => {
                        vm.finish_io(FinishIo::Read { rd, value: 7 });
                    }
                    Exit::PioOut { .. } | Exit::MmioWrite { .. } => vm.finish_io(FinishIo::Write),
                    Exit::Vmcall => vm.finish_io(FinishIo::Read { rd: Reg::R1, value: 0 }),
                    Exit::Breakpoint { .. } => vm.skip_breakpoint_once(),
                    _ => {}
                }
                retired_target = vm.retired() + 100;
            }
            (events, vm.digest())
        };
        let uncached = run(false, false, false);
        prop_assert_eq!(&run(true, false, false), &uncached, "cached single-step diverged from uncached");
        prop_assert_eq!(&run(true, true, false), &uncached, "block engine diverged from uncached single-step");
        prop_assert_eq!(&run(true, true, true), &uncached, "superblock traces diverged from uncached single-step");
    }

    /// A hot loop that shares its page with the data word it writes every
    /// iteration, and patches one of its own instruction words at a drawn
    /// iteration: the data writes move the page's write version without
    /// touching a decoded word (the cached layers re-stamp), and the patch
    /// changes one (they must flush). Uncached single-step, cached
    /// single-step, block dispatch and superblock traces agree on every
    /// exit with its retired count and virtual cycles, on the final digest,
    /// and on every register.
    #[test]
    fn engines_agree_on_data_writes_and_a_patch_in_one_page(
        iters in 80i32..150,
        patch_at in 1i32..150,
        patched in 0usize..8,
        chunks in prop::collection::vec(3u64..97, 4..12),
        ops in prop::collection::vec(0u8..6, 2..8),
    ) {
        let image = {
            let mut asm = Assembler::new(0x1000);
            let patch = Instruction::new(Opcode::Addi, Reg::R2, Reg::R2, Reg::R0, 5);
            asm.movi(Reg::R1, 0);
            asm.movi(Reg::R6, iters);
            asm.movi(Reg::R7, patch_at);
            asm.lea(Reg::R5, "data");
            // The patched word: one of the loop's ALU ops (already run this
            // iteration) or the `nop` after the patching store (run next).
            asm.lea(Reg::R8, format!("op{}", patched % (ops.len() + 1)).as_str());
            asm.movi64(Reg::R4, u64::from_le_bytes(patch.encode()));
            asm.label("loop");
            asm.addi(Reg::R1, Reg::R1, 1);
            for (i, &op) in ops.iter().enumerate() {
                asm.label(&format!("op{i}"));
                match op {
                    0 => asm.addi(Reg::R2, Reg::R2, 3),
                    1 => asm.xor(Reg::R3, Reg::R1, Reg::R2),
                    2 => asm.add(Reg::R2, Reg::R2, Reg::R3),
                    3 => asm.mul(Reg::R3, Reg::R2, Reg::R1),
                    4 => asm.shli(Reg::R3, Reg::R2, 3),
                    _ => asm.sub(Reg::R3, Reg::R1, Reg::R2),
                };
            }
            asm.st(Reg::R5, 0, Reg::R1); // the data write, every iteration
            asm.bne(Reg::R1, Reg::R7, "tail");
            asm.st(Reg::R8, 0, Reg::R4); // the code patch, once
            asm.label("tail");
            asm.label(&format!("op{}", ops.len()));
            asm.nop();
            asm.bne(Reg::R1, Reg::R6, "loop");
            asm.hlt();
            asm.label("data");
            asm.word(0);
            asm.assemble().unwrap()
        };
        let run = |decode_cache: bool, block_engine: bool, superblocks: bool| {
            let cfg = MachineConfig { decode_cache, block_engine, superblocks, ..MachineConfig::default() };
            run_hot_loop(&image, &chunks, cfg).0
        };
        let uncached = run(false, false, false);
        prop_assert!(matches!(uncached.0.last(), Some((Exit::Halt, ..))));
        prop_assert_eq!(&run(true, false, false), &uncached, "cached single-step diverged from uncached");
        prop_assert_eq!(&run(true, true, false), &uncached, "block engine diverged from uncached single-step");
        prop_assert_eq!(&run(true, true, true), &uncached, "superblock traces diverged from uncached single-step");
    }

    /// Differential check of the three execution engines — single-step,
    /// block dispatch, superblock traces — on randomized hot loops: the
    /// exit sequence, retired count, and virtual cycles at every exit, the
    /// final digest, and every register must be identical.
    /// The iteration count is drawn past the trace-formation threshold so
    /// the superblock run genuinely forms and dispatches traces; the budget
    /// schedule is chopped at random offsets so traces are sliced by the
    /// event horizon mid-body; an optional self-modifying store rewrites an
    /// op byte inside the traced loop to exercise precise invalidation.
    #[test]
    fn execution_engines_agree_on_random_hot_loops(
        iters in 80i32..150,
        chunks in prop::collection::vec(3u64..97, 4..12),
        ops in prop::collection::vec(0u8..6, 2..8),
        smc in any::<bool>(),
    ) {
        let image = {
            let mut asm = Assembler::new(0x1000);
            asm.movi(Reg::R1, 0);
            asm.movi(Reg::R6, iters);
            if smc {
                let patch = Instruction::new(Opcode::Addi, Reg::R2, Reg::R2, Reg::R0, 5);
                asm.lea(Reg::R5, "patch");
                asm.movi64(Reg::R4, u64::from_le_bytes(patch.encode()));
            }
            asm.label("loop");
            asm.addi(Reg::R1, Reg::R1, 1);
            for &op in &ops {
                match op {
                    0 => asm.addi(Reg::R2, Reg::R2, 3),
                    1 => asm.xor(Reg::R3, Reg::R1, Reg::R2),
                    2 => asm.add(Reg::R2, Reg::R2, Reg::R3),
                    3 => asm.mul(Reg::R3, Reg::R2, Reg::R1),
                    4 => asm.shli(Reg::R3, Reg::R2, 3),
                    _ => asm.sub(Reg::R3, Reg::R1, Reg::R2),
                };
            }
            if smc {
                asm.st(Reg::R5, 0, Reg::R4);
                asm.label("patch");
                asm.nop(); // becomes `addi r2, r2, 5` after the first pass
            }
            asm.bne(Reg::R1, Reg::R6, "loop");
            asm.hlt();
            asm.assemble().unwrap()
        };
        let run = |block_engine: bool, superblocks: bool| {
            run_hot_loop(&image, &chunks, MachineConfig { block_engine, superblocks, ..MachineConfig::default() })
        };
        let (stepped, _) = run(false, false);
        let (blocks, block_traces) = run(true, false);
        let (traced, trace_hits) = run(true, true);
        prop_assert!(matches!(stepped.0.last(), Some((Exit::Halt, ..))));
        prop_assert_eq!(&blocks, &stepped, "block engine diverged from single-step");
        prop_assert_eq!(&traced, &stepped, "superblock traces diverged from single-step");
        prop_assert_eq!(block_traces, 0, "trace stats leaked from a blocks-only run");
        // With the self-modifying store the block engine's SMC early-commit
        // fires every pass and edge profiling never sees the back edge, so
        // no trace forms — only the clean loop must actually trace.
        prop_assert!(smc || trace_hits > 0, "hot loop never dispatched a trace");
    }

    /// Every decodable instruction executes without panicking, from any
    /// register state.
    #[test]
    fn every_opcode_executes_safely(
        op_byte in 0u8..=0xff,
        rd in 0u8..16,
        rs1 in 0u8..16,
        rs2 in 0u8..16,
        imm in any::<i32>(),
        regs in prop::collection::vec(any::<u64>(), 16),
    ) {
        let Ok(op) = Opcode::from_byte(op_byte) else { return Ok(()) };
        let insn = Instruction::new(op, Reg::from_index(rd), Reg::from_index(rs1), Reg::from_index(rs2), imm);
        let mut asm = Assembler::new(0x1000);
        asm.emit(insn);
        asm.hlt();
        let image = asm.assemble().unwrap();
        let mut config = MachineConfig::default();
        config.exits.rdtsc_exiting = false;
        let mut vm = GuestVm::new(config, &[&image]);
        vm.set_entry(0x1000);
        for (i, r) in Reg::ALL.into_iter().enumerate() {
            vm.cpu_mut().set_reg(r, regs[i]);
        }
        // `sp` (`r14`) keeps its random value like every other register,
        // so pushes and pops mostly reach wild addresses: they must fault,
        // not panic.
        let _ = vm.run(RunBudget::until(4));
    }
}

/// Every straight-line opcode: the 18 register-result ones, `MovHi`,
/// `Nop`, and the six that touch memory.
const STRAIGHT_OPS: [Opcode; 26] = {
    use Opcode::*;
    [
        Mov, MovImm, Add, Sub, Mul, Divu, And, Or, Xor, Shl, Shr, Addi, Andi, Ori, Xori, Shli, Shri, Muli,
        MovHi, Nop, Ld, Ld8, St, St8, Push, Pop,
    ]
};

/// The conditional branches.
const BRANCH_OPS: [Opcode; 6] =
    [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge, Opcode::Bltu, Opcode::Bgeu];

/// Operands of one [`opcode_loop`] case: the initial `r1..r3`, the
/// opcode's `rd`, `rs1` and `rs2` (each one of `r1..r3`) and immediate,
/// the data words loads and stores address, and a byte offset into them.
type Operands = ([u64; 3], [u8; 3], i32, Vec<u64>, i32);

/// A register value or shift count: half the draws are edge values — zero
/// (the `Divu` divisor), the all-ones word, or a shift count of 64 and above.
fn operand() -> impl Strategy<Value = u64> {
    prop_oneof![1 => Just(0u64), 1 => Just(u64::MAX), 1 => 64u64..200, 3 => any::<u64>()]
}

/// An immediate: a third are shift counts of 64 and above.
fn immediate() -> impl Strategy<Value = i32> {
    prop_oneof![1 => 64i32..200, 2 => any::<i32>()]
}

/// A loop hot enough to form a trace around opcode `op` with `operands`:
/// `r1..r3` start at the drawn values, `r5` points at the data words (on
/// the next page), `r6` counts `iters` iterations down to `r7` (zero),
/// and `r4` folds in `r3` each iteration. A straight-line opcode runs once
/// per iteration with the drawn registers and immediate (`Ld`/`Ld8`/`St`/
/// `St8` address `r5` plus the offset; `Push` and `Pop` leave `sp` where it
/// was). A branch runs three times, on `(r1, r2)`, `(r1, r1)` and
/// `(r2, r1)`, each skipping one `r4` bump when taken: with `r1 != r2`,
/// every branch is taken in one of them and not taken in another.
fn opcode_loop(op: Opcode, operands: &Operands, iters: i32) -> Image {
    let (init, [rd, rs1, rs2], imm, data, off) = operands;
    let reg = |r: u8| Reg::from_index(1 + r % 3);
    let mut asm = Assembler::new(PROGRAM_BASE);
    asm.movi64(Reg::R1, init[0]);
    asm.movi64(Reg::R2, init[1]);
    asm.movi64(Reg::R3, init[2]);
    asm.lea(Reg::R5, "data");
    asm.movi(Reg::R6, iters);
    asm.movi(Reg::R7, 0);
    asm.label("loop");
    if BRANCH_OPS.contains(&op) {
        for (i, (a, b)) in
            [(Reg::R1, Reg::R2), (Reg::R1, Reg::R1), (Reg::R2, Reg::R1)].into_iter().enumerate()
        {
            let taken = format!("taken{i}");
            match op {
                Opcode::Beq => asm.beq(a, b, taken.as_str()),
                Opcode::Bne => asm.bne(a, b, taken.as_str()),
                Opcode::Blt => asm.blt(a, b, taken.as_str()),
                Opcode::Bge => asm.bge(a, b, taken.as_str()),
                Opcode::Bltu => asm.bltu(a, b, taken.as_str()),
                _ => asm.bgeu(a, b, taken.as_str()),
            };
            asm.addi(Reg::R4, Reg::R4, 1 << i);
            asm.label(&taken);
        }
    } else {
        match op {
            Opcode::Ld | Opcode::Ld8 | Opcode::St | Opcode::St8 => {
                asm.emit(Instruction::new(op, reg(*rd), Reg::R5, reg(*rs2), *off));
            }
            Opcode::Push => {
                asm.emit(Instruction::new(op, reg(*rd), reg(*rs1), reg(*rs2), *imm));
                asm.addi(Reg::SP, Reg::SP, 8);
            }
            Opcode::Pop => {
                asm.st(Reg::SP, -8, reg(*rs1));
                asm.addi(Reg::SP, Reg::SP, -8);
                asm.emit(Instruction::new(op, reg(*rd), reg(*rs1), reg(*rs2), *imm));
            }
            _ => {
                asm.emit(Instruction::new(op, reg(*rd), reg(*rs1), reg(*rs2), *imm));
            }
        }
    }
    asm.xor(Reg::R4, Reg::R4, Reg::R3);
    asm.addi(Reg::R6, Reg::R6, -1);
    asm.bne(Reg::R6, Reg::R7, "loop");
    asm.hlt();
    // A store to the loop's own page would end its block early on every
    // pass (the self-modification check), and no trace would form.
    asm.align(4096);
    asm.label("data");
    for &w in data {
        asm.word(w);
    }
    asm.assemble().unwrap()
}

/// Differential check of every straight-line opcode and every branch
/// inside a trace: each runs in a loop hot enough to form one, first on two
/// fixed edge cases and then on 16 proptest cases, and each branch both
/// taken and not taken. The fixed cases divide by a zero `Divu` divisor and
/// shift by register and immediate counts of 64 and above, so those edges
/// are reached whatever the random draws (asserted below). Single-step,
/// block dispatch and superblock traces agree on every exit with its
/// retired count and virtual cycles, on the final digest and on every
/// register, and every case dispatches a trace.
#[test]
fn every_opcode_agrees_inside_a_trace() {
    let zero_divisor = Cell::new(false);
    let wide_shift = Cell::new(false);
    let wide_shift_imm = Cell::new(false);
    for op in STRAIGHT_OPS.into_iter().chain(BRANCH_OPS) {
        let check = |(mut operands, iters, chunks): (Operands, i32, Vec<u64>)| {
            if BRANCH_OPS.contains(&op) && operands.0[0] == operands.0[1] {
                operands.0[1] = !operands.0[0];
            }
            let image = opcode_loop(op, &operands, iters);
            let run = |block_engine: bool, superblocks: bool| {
                run_hot_loop(
                    &image,
                    &chunks,
                    MachineConfig { block_engine, superblocks, ..MachineConfig::default() },
                )
            };
            let (stepped, _) = run(false, false);
            let (blocks, _) = run(true, false);
            let (traced, trace_hits) = run(true, true);
            prop_assert!(
                matches!(stepped.0.last(), Some((Exit::Halt, ..))),
                "{op:?}: {:?}",
                stepped.0.last()
            );
            prop_assert_eq!(&blocks, &stepped, "{:?}: block engine diverged from single-step", op);
            prop_assert_eq!(&traced, &stepped, "{:?}: superblock traces diverged from single-step", op);
            prop_assert!(trace_hits > 0, "{:?}: the loop never dispatched a trace", op);
            // An edge operand counts only in a source register the op never
            // overwrites, so every traced iteration sees it.
            let ([r1, r2, r3], [rd, _, rs2], imm, ..) = &operands;
            let divisor = [r1, r2, r3][usize::from(rs2 % 3)];
            let stable = rd % 3 != rs2 % 3;
            zero_divisor.set(zero_divisor.get() || (op == Opcode::Divu && stable && *divisor == 0));
            let shifts = matches!(op, Opcode::Shl | Opcode::Shr);
            wide_shift.set(wide_shift.get() || (shifts && stable && *divisor >= 64));
            let imm_shifts = matches!(op, Opcode::Shli | Opcode::Shri);
            wide_shift_imm.set(wide_shift_imm.get() || (imm_shifts && *imm as u32 >= 64));
            Ok(())
        };
        // The edge cases: `r1 = r3 op r2` with `r2` (never overwritten)
        // zero, then 71, and immediate counts 64 and 199.
        for (r2, imm) in [(0, 64), (71, 199)] {
            let data = (1..=6).map(|w| w * 0x0101_0101_0101_0101).collect();
            let operands = ([u64::MAX, r2, 0x0123_4567_89ab_cdef], [0, 2, 1], imm, data, 8);
            if let Err(e) = check((operands, 150, vec![7, 13, 31, 96])) {
                panic!("{op:?} edge case r2 = {r2}, imm = {imm}: {e}");
            }
        }
        let operands = (
            (operand(), operand(), operand()).prop_map(|(a, b, c)| [a, b, c]),
            (0u8..3, 0u8..3, 0u8..3).prop_map(|(rd, rs1, rs2)| [rd, rs1, rs2]),
            immediate(),
            prop::collection::vec(any::<u64>(), 6),
            0i32..32,
        );
        let strategy = (operands, 100i32..200, prop::collection::vec(3u64..97, 4..12));
        let mut runner = TestRunner::new(ProptestConfig { cases: 16, ..ProptestConfig::default() });
        if let Err(e) = runner.run(&strategy, check) {
            panic!("{e}");
        }
    }
    assert!(zero_divisor.get(), "no case divided by zero inside a trace");
    assert!(wide_shift.get(), "no case shifted by a register count of 64 or more");
    assert!(wide_shift_imm.get(), "no case shifted by an immediate count of 64 or more");
}

/// A hot-loop run's exits with `(retired, cycles)`, final digest and every
/// register.
type LoopRun = (Vec<(Exit, u64, u64)>, Digest, [u64; Reg::COUNT]);

/// Runs `image` from its base under `cfg` in budgets chopped by `chunks`
/// until it stops on anything but the budget. Returns the run and the trace
/// dispatch count.
fn run_hot_loop(image: &Image, chunks: &[u64], cfg: MachineConfig) -> (LoopRun, u64) {
    let mut vm = GuestVm::new(cfg, &[image]);
    vm.set_entry(image.base());
    vm.cpu_mut().set_sp(0x8000);
    let mut events = Vec::new();
    let mut target = 0u64;
    for i in 0.. {
        target += chunks[i % chunks.len()];
        let exit = vm.run(RunBudget::until(target));
        events.push((exit.clone(), vm.retired(), vm.cycles()));
        if !matches!(exit, Exit::BudgetExhausted) || i > 20_000 {
            break;
        }
    }
    let trace_hits = vm.block_stats().trace_hits;
    ((events, vm.digest(), Reg::ALL.map(|r| vm.cpu().reg(r))), trace_hits)
}

/// Every byte that decodes as an opcode.
fn opcode_bytes() -> Vec<u8> {
    (0..=u8::MAX).filter(|&b| Opcode::from_byte(b).is_ok()).collect()
}

/// One generated program item, `(kind, reg_a, reg_b, arg)`: see
/// [`random_program`].
type Item = (u8, u8, u8, u16);

/// Where [`random_program`]s are loaded and entered.
const PROGRAM_BASE: u64 = 0x1000;

/// Builds a valid program from `items`: ALU ops over `r1..r5`, loads and
/// stores at `r7`-relative offsets inside or just past the code (one in
/// four patches the program itself), push/pop, and control transfers to
/// item starts: conditional branches (three times in four backward, so
/// loops get hot enough to form traces), forward jumps and calls, returns,
/// and indirect jumps (backward) and calls (forward) whose target
/// alternates between two slots. Ends in `hlt`.
fn random_program(items: &[Item]) -> Vec<Instruction> {
    use Opcode::*;
    let reg = |r: u8| Reg::from_index(1 + r % 5);
    // Indirect transfers take four slots: three compute the target in `r8`.
    let width = |kind: u8| if kind % 16 == 15 { 4 } else { 1 };
    let mut starts = Vec::with_capacity(items.len() + 1);
    let mut slot = 1; // after the prologue
    for &(kind, ..) in items {
        starts.push(slot);
        slot += width(kind);
    }
    starts.push(slot); // the final `hlt`
    let code_bytes = 8 * (slot + 1);
    let addr_of = |item: usize| (PROGRAM_BASE + 8 * starts[item]) as i32;
    let insn = Instruction::new;
    let mut prog = vec![insn(MovImm, Reg::R7, Reg::R0, Reg::R0, PROGRAM_BASE as i32)];
    for (i, &(kind, a, b, arg)) in items.iter().enumerate() {
        let pick = usize::from(arg >> 2);
        let back = i.saturating_sub(1 + pick % 8);
        let forward = (i + 1 + pick % 4).min(items.len());
        let anywhere = pick % items.len();
        match kind % 16 {
            0..=3 => {
                let op = [Addi, Add, Xor, Mul, Shli, Sub][usize::from(arg) % 6];
                prog.push(insn(op, reg(a), reg(b), reg(a ^ b), i32::from(arg % 64)));
            }
            4 => prog.push(insn(MovImm, reg(a), Reg::R0, Reg::R0, i32::from(arg))),
            5..=7 => {
                let off = if arg % 4 == 0 {
                    u64::from(arg) % code_bytes
                } else {
                    code_bytes + u64::from(arg) % 128
                };
                let (op, off) = match kind % 16 {
                    5 => (Ld, off & !7),
                    6 => (St, off & !7),
                    _ => (St8, off),
                };
                prog.push(insn(op, reg(a), Reg::R7, reg(b), off as i32));
            }
            8 => prog.push(insn(Push, Reg::R0, reg(a), Reg::R0, 0)),
            9 => prog.push(insn(Pop, reg(a), Reg::R0, Reg::R0, 0)),
            10 | 11 => {
                let op = [Beq, Bne, Blt, Bge, Bltu, Bgeu][usize::from(arg) % 6];
                let target = if arg % 4 == 0 { anywhere } else { back };
                prog.push(insn(op, Reg::R0, reg(a), reg(b), addr_of(target)));
            }
            12 => prog.push(insn(Jmp, Reg::R0, Reg::R0, Reg::R0, addr_of(forward))),
            13 => prog.push(insn(Call, Reg::R0, Reg::R0, Reg::R0, addr_of(forward))),
            14 => prog.push(insn(Ret, Reg::R0, Reg::R0, Reg::R0, 0)),
            _ => {
                // The target alternates at run time between the item's
                // start and the slot after it, so profiled targets miss.
                let (op, target) = if arg % 2 == 0 { (JmpR, back) } else { (CallR, forward) };
                prog.push(insn(Addi, Reg::R9, Reg::R9, Reg::R0, 8));
                prog.push(insn(Andi, Reg::R8, Reg::R9, Reg::R0, 8));
                prog.push(insn(Addi, Reg::R8, Reg::R8, Reg::R0, addr_of(target)));
                prog.push(insn(op, Reg::R0, Reg::R8, Reg::R0, 0));
            }
        }
    }
    prog.push(Instruction::bare(Hlt));
    prog
}

/// Runs `program` on one engine for about 20k instructions in `chunks`-sized
/// budgets, completing any I/O exit a self-patched instruction raises.
/// Returns every exit with its `(retired, cycles)`, the final digest, and
/// the trace dispatch count.
fn run_engine(
    program: &[u8],
    chunks: &[u64],
    block_engine: bool,
    superblocks: bool,
) -> (Vec<(Exit, u64, u64)>, Digest, u64) {
    let cfg = MachineConfig { block_engine, superblocks, ..MachineConfig::default() };
    let mut vm = GuestVm::new(cfg, &[]);
    vm.mem_mut().write_bytes(PROGRAM_BASE, program).unwrap();
    vm.set_entry(PROGRAM_BASE);
    vm.cpu_mut().set_sp(0x8000);
    let mut events = Vec::new();
    let mut target = 0;
    for i in 0..2_000 {
        target += chunks[i % chunks.len()];
        let exit = vm.run(RunBudget::until(target));
        events.push((exit.clone(), vm.retired(), vm.cycles()));
        match exit {
            Exit::Halt | Exit::Fault(_) => break,
            Exit::Rdtsc { rd } | Exit::PioIn { rd, .. } | Exit::MmioRead { rd, .. } => {
                vm.finish_io(FinishIo::Read { rd, value: 7 });
            }
            Exit::Vmcall => vm.finish_io(FinishIo::Read { rd: Reg::R1, value: 0 }),
            Exit::PioOut { .. } | Exit::MmioWrite { .. } => vm.finish_io(FinishIo::Write),
            _ => {}
        }
        if vm.retired() >= 20_000 {
            break;
        }
    }
    (events, vm.digest(), vm.block_stats().trace_hits)
}

/// Differential check of the three execution engines on random valid
/// programs: calls, returns, indirect jumps, backward branches and
/// self-modifying stores inside traces. Single-step, block dispatch and
/// superblock traces must agree on every exit with its retired count and
/// virtual cycles, and on the final digest. Across the cases, some program
/// must dispatch a trace and some must raise a RAS exit, or the generator
/// stopped reaching the code under test.
#[test]
fn execution_engines_agree_on_random_programs() {
    let items = prop::collection::vec((0u8..16, 0u8..8, 0u8..8, any::<u16>()), 8..40);
    let chunks = prop::collection::vec(1u64..500, 1..6);
    let traced_any = Cell::new(false);
    let ras_any = Cell::new(false);
    let mut runner = TestRunner::new(ProptestConfig { cases: 40, ..ProptestConfig::default() });
    let result = runner.run(&(items, chunks), |(items, chunks)| {
        let program: Vec<u8> = random_program(&items).iter().flat_map(Instruction::encode).collect();
        let stepped = run_engine(&program, &chunks, false, false);
        let blocks = run_engine(&program, &chunks, true, false);
        let traced = run_engine(&program, &chunks, true, true);
        prop_assert_eq!(&blocks.0, &stepped.0, "block engine diverged from single-step");
        prop_assert_eq!(&traced.0, &stepped.0, "superblock traces diverged from single-step");
        prop_assert_eq!(blocks.1, stepped.1);
        prop_assert_eq!(traced.1, stepped.1);
        traced_any.set(traced_any.get() || traced.2 > 0);
        let ras = |e: &(Exit, u64, u64)| matches!(e.0, Exit::RasMispredict(_) | Exit::RasEvict { .. });
        ras_any.set(ras_any.get() || stepped.0.iter().any(ras));
        Ok(())
    });
    if let Err(e) = result {
        panic!("{e}");
    }
    assert!(traced_any.get(), "no random program dispatched a trace");
    assert!(ras_any.get(), "no random program raised a RAS exit");
}

/// Every slot of the kernel's text decodes — the fixed 8-byte encoding is
/// total over the code region (the gadget scanner depends on this).
#[test]
fn kernel_text_is_fully_decodable() {
    let kernel = rnr_guest::KernelBuilder::new().build();
    let image = kernel.image();
    // Code runs from the base to the data section (the first data label).
    let text_end = image.require_symbol("current");
    let mut addr = image.base();
    let mut count = 0;
    while addr < text_end {
        image.decode_at(addr).unwrap_or_else(|e| panic!("undecodable kernel text at {addr:#x}: {e}"));
        addr += 8;
        count += 1;
    }
    assert!(count > 300, "kernel text should be substantial, got {count} instructions");
}

//! The fetch/decode/execute loop with ARM7-class cycle accounting.

use proteus_isa::{decode, BlockOp, Cond, DpOp, Instr, MemOp, Reg, Shift, ShiftKind};

use crate::alu::{self, Cpsr};
use crate::coproc::{CoprocResult, Coprocessor};
use crate::memory::{MemError, Memory};
use crate::op::Op;

/// Why [`Cpu::run`] returned. The kernel model dispatches on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The cycle limit was reached (the scheduling-timer interrupt).
    /// A custom instruction in flight has been suspended via the
    /// status-register mechanism and will resume on reissue.
    Quantum,
    /// A software interrupt was executed; `pc` has advanced past it.
    Swi {
        /// The 24-bit SWI number.
        imm: u32,
    },
    /// A `pfu` instruction found no `(PID, CID)` mapping in either
    /// dispatch TLB. `pc` still points *at* the instruction so the OS can
    /// load the circuit (or map the software alternative) and reissue.
    CustomFault {
        /// The faulting Circuit ID.
        cid: u8,
        /// Address of the faulting instruction.
        pc: u32,
    },
    /// Undefined instruction.
    Undefined {
        /// The raw word.
        word: u32,
        /// Its address.
        pc: u32,
    },
    /// Data abort.
    MemFault {
        /// The underlying access error.
        err: MemError,
        /// Address of the faulting instruction.
        pc: u32,
    },
}

/// A saved register context (what the kernel stores in a PCB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Context {
    /// The sixteen core registers.
    pub regs: [u32; 16],
    /// Packed CPSR flags.
    pub cpsr: u32,
    /// Nesting depth of in-flight software-dispatch handlers (between a
    /// dispatch and its `retsd`). Saved with the context so cycle
    /// attribution survives a mid-handler pre-emption.
    pub soft_depth: u32,
}

/// Attribution of the cycles a [`Cpu::run`] span executed, drained per
/// span via [`Cpu::take_exec_mix`]. Whatever is in neither bucket is
/// plain user compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecMix {
    /// Cycles clocking PFU circuits (custom-instruction execute),
    /// outside software-dispatch handlers.
    pub custom: u64,
    /// Cycles inside software-dispatch handlers: the dispatching `pfu`
    /// issue, every handler instruction, nested custom issues, and the
    /// closing `retsd`.
    pub soft_dispatch: u64,
}

/// Cycle cost table (ARM7TDMI-flavoured; see DESIGN.md §5).
pub mod cost {
    /// Data-processing instruction.
    pub const DP: u64 = 1;
    /// Extra cycles when an instruction writes the PC (pipeline refill).
    pub const PC_WRITE: u64 = 2;
    /// Multiply.
    pub const MUL: u64 = 4;
    /// Multiply-accumulate.
    pub const MLA: u64 = 5;
    /// Word/byte load.
    pub const LDR: u64 = 3;
    /// Word/byte store.
    pub const STR: u64 = 2;
    /// Block transfer base (plus one per register).
    pub const LDM_BASE: u64 = 2;
    /// Store-multiple base (plus one per register).
    pub const STM_BASE: u64 = 1;
    /// Taken branch.
    pub const BRANCH_TAKEN: u64 = 3;
    /// Software interrupt entry.
    pub const SWI: u64 = 3;
    /// Issue overhead of a `pfu` instruction (decode + dispatch TLB).
    pub const PFU_ISSUE: u64 = 1;
    /// Coprocessor register move.
    pub const CP_MOVE: u64 = 1;
    /// Return from software dispatch (branch-like).
    pub const RETSD: u64 = 3;
    /// Condition-failed instruction.
    pub const COND_FAIL: u64 = 1;
}

/// The ProteanARM core.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 16],
    cpsr: Cpsr,
    cycles: u64,
    soft_depth: u32,
    mix: ExecMix,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A core reset to zeroed registers at PC 0.
    pub fn new() -> Self {
        Self {
            regs: [0; 16],
            cpsr: Cpsr::default(),
            cycles: 0,
            soft_depth: 0,
            mix: ExecMix::default(),
        }
    }

    /// Read a register (architectural view: `r15` is the PC).
    pub fn reg(&self, index: usize) -> u32 {
        self.regs[index]
    }

    /// Write a register.
    pub fn set_reg(&mut self, index: usize, value: u32) {
        self.regs[index] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.regs[15]
    }

    /// Jump.
    pub fn set_pc(&mut self, pc: u32) {
        self.regs[15] = pc;
    }

    /// Total cycles executed on this core.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Charge `n` cycles of externally-imposed work (kernel overhead,
    /// configuration transfers) to this core's clock.
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Current flags.
    pub fn cpsr(&self) -> Cpsr {
        self.cpsr
    }

    /// Capture the register context (for a PCB).
    pub fn save_context(&self) -> Context {
        Context { regs: self.regs, cpsr: self.cpsr.to_word(), soft_depth: self.soft_depth }
    }

    /// Restore a register context.
    pub fn restore_context(&mut self, ctx: &Context) {
        self.regs = ctx.regs;
        self.cpsr = Cpsr::from_word(ctx.cpsr);
        self.soft_depth = ctx.soft_depth;
    }

    /// The execution-mix attribution accumulated since the last
    /// [`Cpu::take_exec_mix`].
    pub fn exec_mix(&self) -> ExecMix {
        self.mix
    }

    /// Drain the execution mix (the kernel calls this once per run
    /// span, turning it into a `Compute` event).
    pub fn take_exec_mix(&mut self) -> ExecMix {
        std::mem::take(&mut self.mix)
    }

    /// Charge `n` cycles of instruction cost to the core clock.
    #[inline(always)]
    fn charge(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Register `i` (`0..15`, never the PC) for the compiled-op lane.
    #[inline(always)]
    fn r(&self, i: u8) -> u32 {
        self.regs[usize::from(i) & 15]
    }

    /// Write register `i` (`0..15`, never the PC) for the compiled-op
    /// lane.
    #[inline(always)]
    fn set_r(&mut self, i: u8, value: u32) {
        self.regs[usize::from(i) & 15] = value;
    }

    /// Run until `until_cycle` is reached or an exception stops execution.
    ///
    /// The caller (kernel model) owns exception handling: on
    /// [`Stop::Swi`] the PC has advanced, on [`Stop::CustomFault`] /
    /// [`Stop::Undefined`] / [`Stop::MemFault`] it has not, and on
    /// [`Stop::Quantum`] execution may simply be resumed later.
    ///
    /// This is the compiled-op lane: each word runs as the 8-byte [`Op`]
    /// its [`Memory`] compiled on first execution, reached by one tag load
    /// and one indirect jump. The PC, the cycle count and the span's stop
    /// cycle (which the kernel computes once) are locals that stay in
    /// registers, both in a standalone build of this loop and where the
    /// kernel's `advance_until` inlines it (DESIGN.md §7 quotes the
    /// disassembly): the loop's arms are small, and the wide ones (the
    /// flag-setting ALU forms without an op of their own, the reference
    /// lane) are out of line. Each op costs one dispatch and one check
    /// against the stop cycle; a fused `subs`/`b<cond>` checks it between
    /// its two instructions. State goes back to `self` only on a stop and
    /// around the reference lane ([`Cpu::step`]), which runs the words
    /// the loop does not specialise ([`Op::Generic`] whose condition
    /// passes, [`Op::Fetch`]). [`Cpu::run_stepped`] loops over `step`
    /// alone: the referee the tests hold this lane to.
    ///
    /// Generic over the port, so a concrete coprocessor (the kernel's
    /// `Rfu`) is called directly rather than through a vtable on every
    /// custom issue; `&mut dyn Coprocessor` still works.
    pub fn run<C: Coprocessor + ?Sized>(
        &mut self,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Stop {
        let mut pc = self.regs[15];
        let mut cycles = self.cycles;
        // While `soft_depth > 0`, the cycles since `soft_since` ran inside
        // a software-dispatch handler and are not yet in the mix: one
        // subtraction per handler entry, exit and stop instead of one per
        // instruction (the attribution `run_stepped` makes per step).
        let mut soft_since = cycles;
        let stop = 'run: loop {
            if cycles >= until_cycle {
                break Stop::Quantum;
            }
            match *mem.op(pc) {
                Op::MovImm { rd, imm } => {
                    cycles += cost::DP;
                    self.set_r(rd, imm);
                }
                Op::AddImm { rd, rn, imm } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn).wrapping_add(imm));
                }
                Op::SubImm { rd, rn, imm } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn).wrapping_sub(imm));
                }
                Op::AndImm { rd, rn, imm } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn) & imm);
                }
                Op::DpImm { op, rd, rn, imm } => {
                    cycles += cost::DP;
                    let (value, writes_rd) = alu::exec_dp_value(op, self.r(rn), imm, self.cpsr.c);
                    if writes_rd {
                        self.set_r(rd, value);
                    }
                }
                Op::MovLsl { rd, rm, amount } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rm) << amount);
                }
                Op::MovLsr { rd, rm, amount } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rm) >> amount);
                }
                Op::MovAsr { rd, rm, amount } => {
                    cycles += cost::DP;
                    self.set_r(rd, ((self.r(rm) as i32) >> amount) as u32);
                }
                Op::AddReg { rd, rn, rm, shift } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn).wrapping_add(shifted(self.r(rm), shift)));
                }
                Op::AndReg { rd, rn, rm, shift } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn) & shifted(self.r(rm), shift));
                }
                Op::OrrReg { rd, rn, rm, shift } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn) | shifted(self.r(rm), shift));
                }
                Op::EorReg { rd, rn, rm, shift } => {
                    cycles += cost::DP;
                    self.set_r(rd, self.r(rn) ^ shifted(self.r(rm), shift));
                }
                Op::DpReg { op, rd, rn, rm, shift } => {
                    cycles += cost::DP;
                    let (value, writes_rd) =
                        alu::exec_dp_value(op, self.r(rn), shifted(self.r(rm), shift), self.cpsr.c);
                    if writes_rd {
                        self.set_r(rd, value);
                    }
                }
                Op::SubsImm { rd, rn, imm } => {
                    cycles += cost::DP;
                    let r = alu::exec_dp(DpOp::Sub, self.r(rn), imm, false, self.cpsr);
                    self.cpsr = r.flags;
                    self.set_r(rd, r.value);
                }
                Op::CmpImm { rn, imm } => {
                    cycles += cost::DP;
                    self.cpsr = alu::exec_dp(DpOp::Cmp, self.r(rn), imm, false, self.cpsr).flags;
                }
                Op::CmpReg { rn, rm, shift } => {
                    cycles += cost::DP;
                    let op2 = shifted(self.r(rm), shift);
                    self.cpsr = alu::exec_dp(DpOp::Cmp, self.r(rn), op2, false, self.cpsr).flags;
                }
                Op::DpImmS { op, rd, rn, imm } => {
                    cycles += cost::DP;
                    self.exec_dp_s(op, rd, rn, imm, self.cpsr.c);
                }
                Op::DpImmSRot { op, rd, rn, imm } => {
                    cycles += cost::DP;
                    self.exec_dp_s(op, rd, rn, imm, imm >> 31 == 1);
                }
                Op::DpRegS { op, rd, rn, rm, shift } => {
                    cycles += cost::DP;
                    let (op2, shifter_carry) = alu::barrel_shift(self.r(rm), shift, self.cpsr.c);
                    self.exec_dp_s(op, rd, rn, op2, shifter_carry);
                }
                Op::Mul { s, rd, rm, rs } => {
                    cycles += cost::MUL;
                    let v = self.r(rm).wrapping_mul(self.r(rs));
                    self.set_r(rd, v);
                    if s {
                        self.cpsr.n = v >> 31 == 1;
                        self.cpsr.z = v == 0;
                    }
                }
                Op::Mla { s, rd, rm, rs, rn } => {
                    cycles += cost::MLA;
                    let v = self.r(rm).wrapping_mul(self.r(rs)).wrapping_add(self.r(rn));
                    self.set_r(rd, v);
                    if s {
                        self.cpsr.n = v >> 31 == 1;
                        self.cpsr.z = v == 0;
                    }
                }
                Op::Ldr { rd, rn, mode, delta } => {
                    cycles += cost::LDR;
                    let (addr, base) = mode.apply(self.r(rn), delta);
                    match mem.read_word(addr) {
                        Ok(v) => {
                            self.set_r(rn, base);
                            self.set_r(rd, v);
                        }
                        Err(err) => break Stop::MemFault { err, pc },
                    }
                }
                Op::LdrB { rd, rn, mode, delta } => {
                    cycles += cost::LDR;
                    let (addr, base) = mode.apply(self.r(rn), delta);
                    match mem.read_byte(addr) {
                        Ok(v) => {
                            self.set_r(rn, base);
                            self.set_r(rd, u32::from(v));
                        }
                        Err(err) => break Stop::MemFault { err, pc },
                    }
                }
                Op::Str { rd, rn, mode, delta } => {
                    cycles += cost::STR;
                    let (addr, base) = mode.apply(self.r(rn), delta);
                    if let Err(err) = mem.write_word(addr, self.r(rd)) {
                        break Stop::MemFault { err, pc };
                    }
                    self.set_r(rn, base);
                }
                Op::StrB { rd, rn, mode, delta } => {
                    cycles += cost::STR;
                    let (addr, base) = mode.apply(self.r(rn), delta);
                    if let Err(err) = mem.write_byte(addr, self.r(rd) as u8) {
                        break Stop::MemFault { err, pc };
                    }
                    self.set_r(rn, base);
                }
                Op::LdrLit { rd, addr } => {
                    cycles += cost::LDR;
                    match mem.read_word(addr) {
                        Ok(v) => self.set_r(rd, v),
                        Err(err) => break Stop::MemFault { err, pc },
                    }
                }
                Op::Ldm { rn, regs, start, end, writeback } => {
                    let base = self.r(rn);
                    let mut addr = base.wrapping_add(start as u32);
                    let (mut list, mut n) = (regs, 0);
                    while list != 0 {
                        match mem.read_word(addr) {
                            Ok(v) => self.set_r(list.trailing_zeros() as u8, v),
                            Err(err) => break 'run Stop::MemFault { err, pc },
                        }
                        list &= list - 1;
                        addr = addr.wrapping_add(4);
                        n += 1;
                    }
                    cycles += cost::LDM_BASE + n;
                    if writeback {
                        self.set_r(rn, base.wrapping_add(end as u32));
                    }
                }
                Op::Stm { rn, regs, start, end, writeback } => {
                    let base = self.r(rn);
                    let mut addr = base.wrapping_add(start as u32);
                    let (mut list, mut n) = (regs, 0);
                    while list != 0 {
                        if let Err(err) = mem.write_word(addr, self.r(list.trailing_zeros() as u8)) {
                            break 'run Stop::MemFault { err, pc };
                        }
                        list &= list - 1;
                        addr = addr.wrapping_add(4);
                        n += 1;
                    }
                    cycles += cost::STM_BASE + n;
                    if writeback {
                        self.set_r(rn, base.wrapping_add(end as u32));
                    }
                }
                Op::Branch { cond, link, target } => {
                    let c = self.cpsr;
                    if cond == Cond::Al || cond.passes(c.n, c.z, c.c, c.v) {
                        if link {
                            self.regs[14] = pc.wrapping_add(4);
                        }
                        cycles += cost::BRANCH_TAKEN;
                        pc = target;
                        continue;
                    }
                    cycles += cost::COND_FAIL;
                }
                Op::SubsBranch { rd, rn, imm, cond, offset } => {
                    cycles += cost::DP;
                    let r = alu::exec_dp(DpOp::Sub, self.r(rn), u32::from(imm), false, self.cpsr);
                    self.cpsr = r.flags;
                    self.set_r(rd, r.value);
                    // The branch is an instruction of its own: the budget
                    // may end before it, as it does for `run_stepped`.
                    pc = pc.wrapping_add(4);
                    if cycles >= until_cycle {
                        break Stop::Quantum;
                    }
                    let c = r.flags;
                    if cond.passes(c.n, c.z, c.c, c.v) {
                        cycles += cost::BRANCH_TAKEN;
                        pc = pc.wrapping_add(offset as u32);
                        continue;
                    }
                    cycles += cost::COND_FAIL;
                }
                Op::Pfu { cid, rd, rn, rm } => {
                    // `exec`'s custom-issue arm, attribution included.
                    cycles += cost::PFU_ISSUE;
                    let next_pc = pc.wrapping_add(4);
                    let budget = until_cycle.saturating_sub(cycles);
                    let pid = coproc.read_reg(15);
                    match coproc.exec_custom(pid, cid, self.r(rn), self.r(rm), rd, next_pc, budget) {
                        CoprocResult::Done { value, cycles: n } => {
                            cycles += n;
                            if self.soft_depth == 0 {
                                self.mix.custom += n;
                            }
                            self.set_r(rd, value);
                        }
                        CoprocResult::Interrupted { cycles: n } => {
                            cycles += n;
                            if self.soft_depth == 0 {
                                self.mix.custom += n;
                            }
                            break Stop::Quantum;
                        }
                        CoprocResult::SoftwareDispatch { target, cycles: n } => {
                            cycles += n + cost::BRANCH_TAKEN;
                            if self.soft_depth == 0 {
                                self.mix.soft_dispatch += cost::PFU_ISSUE + n + cost::BRANCH_TAKEN;
                                soft_since = cycles;
                            }
                            self.soft_depth += 1;
                            self.regs[14] = next_pc;
                            pc = target;
                            continue;
                        }
                        CoprocResult::Fault => break Stop::CustomFault { cid, pc },
                    }
                }
                Op::LdOp { rd, sel } => {
                    cycles += cost::CP_MOVE;
                    self.set_r(rd, coproc.read_operand(sel));
                }
                Op::StRes { rs } => {
                    cycles += cost::CP_MOVE;
                    coproc.write_result(self.r(rs));
                }
                Op::RetSd => {
                    cycles += cost::RETSD;
                    if self.soft_depth > 0 {
                        self.soft_depth -= 1;
                        if self.soft_depth == 0 {
                            self.mix.soft_dispatch += cycles - soft_since;
                        }
                    }
                    let info = coproc.return_from_software();
                    self.regs[usize::from(info.rd) & 0xF] = info.result;
                    pc = info.ret_addr;
                    continue;
                }
                Op::Empty => {
                    mem.compile(pc);
                    continue;
                }
                op @ (Op::Generic { .. } | Op::Fetch) => {
                    // `exec`'s condition test, inline: a failed condition
                    // costs one cycle and no call.
                    if let Op::Generic { cond } = op {
                        let c = self.cpsr;
                        if !cond.passes(c.n, c.z, c.c, c.v) {
                            cycles += cost::COND_FAIL;
                            pc = pc.wrapping_add(4);
                            continue;
                        }
                    }
                    let depth = self.soft_depth;
                    self.regs[15] = pc;
                    self.cycles = cycles;
                    let stop = self.step(mem, coproc, until_cycle);
                    pc = self.regs[15];
                    cycles = self.cycles;
                    // An instruction that starts inside a handler is
                    // handler time; `exec` attributes the issue that
                    // enters one.
                    match (depth > 0, self.soft_depth > 0) {
                        (false, true) => soft_since = cycles,
                        (true, false) => self.mix.soft_dispatch += cycles - soft_since,
                        _ => {}
                    }
                    if let Some(stop) = stop {
                        break stop;
                    }
                    continue;
                }
            }
            pc = pc.wrapping_add(4);
        };
        self.regs[15] = pc;
        self.cycles = cycles;
        if self.soft_depth > 0 {
            self.mix.soft_dispatch += cycles - soft_since;
        }
        stop
    }

    /// The flag-setting data-processing ops without an op of their own,
    /// for [`Cpu::run`]. Out of line: their sixteen-way flag logic would
    /// take registers the loop keeps its state in.
    #[inline(never)]
    fn exec_dp_s(&mut self, op: DpOp, rd: u8, rn: u8, op2: u32, shifter_carry: bool) {
        let r = alu::exec_dp(op, self.r(rn), op2, shifter_carry, self.cpsr);
        self.cpsr = r.flags;
        if r.writes_rd {
            self.set_r(rd, r.value);
        }
    }

    /// [`Cpu::run`]'s contract, met by stepping the uncached reference
    /// lane one instruction at a time. The referee for the compiled-op
    /// lane: tests require both to agree at every stop, and nothing else
    /// calls it.
    pub fn run_stepped<C: Coprocessor + ?Sized>(
        &mut self,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Stop {
        loop {
            if self.cycles >= until_cycle {
                return Stop::Quantum;
            }
            // Any instruction executed inside a software-dispatch
            // handler is soft-dispatch time (the dispatching issue
            // itself is attributed by the dispatch arm in `exec`, the
            // closing `retsd` by this wrapper).
            let stop = if self.soft_depth > 0 {
                let span_start = self.cycles;
                let stop = self.step(mem, coproc, until_cycle);
                self.mix.soft_dispatch += self.cycles - span_start;
                stop
            } else {
                self.step(mem, coproc, until_cycle)
            };
            if let Some(stop) = stop {
                return stop;
            }
        }
    }

    /// Execute one instruction through the reference lane: read the word
    /// at the PC, decode it, run it, with no cache involved. Returns
    /// `Some(stop)` if it raised an exception (see [`Cpu::run`] for PC
    /// conventions). [`Cpu::run`] calls it for every word it does not
    /// specialise.
    pub fn step<C: Coprocessor + ?Sized>(
        &mut self,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
    ) -> Option<Stop> {
        let pc = self.regs[15];
        let word = match mem.read_word(pc) {
            Ok(word) => word,
            Err(err) => return Some(Stop::MemFault { err, pc }),
        };
        match decode(word) {
            Ok(instr) => self.exec(mem, coproc, until_cycle, pc, word, instr),
            Err(_) => Some(Stop::Undefined { word, pc }),
        }
    }

    /// The reference execute body: run the decoded `instr` (encoded as
    /// `word`) at `pc` against `self`, including the PC. Out of line, so
    /// the reference ISA's code stays out of [`Cpu::run`]'s loop and its
    /// registers.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn exec<C: Coprocessor + ?Sized>(
        &mut self,
        mem: &mut Memory,
        coproc: &mut C,
        until_cycle: u64,
        pc: u32,
        word: u32,
        instr: Instr,
    ) -> Option<Stop> {
        // The condition field is bits 31..28 of every encoding, so the
        // raw word answers "unconditional?" (almost always yes) with a
        // shift — no re-extraction from the decoded form, no flag loads.
        if word >> 28 != Cond::Al as u32
            && !instr.cond().passes(self.cpsr.n, self.cpsr.z, self.cpsr.c, self.cpsr.v)
        {
            self.charge(cost::COND_FAIL);
            self.regs[15] = pc.wrapping_add(4);
            return None;
        }
        let mut next_pc = pc.wrapping_add(4);
        match instr {
            Instr::DataProc { op, s, rd, rn, op2, .. } => {
                let (op2_val, shifter_carry) =
                    alu::eval_op2(op2, |i| arch_read(&self.regs, pc, i), self.cpsr.c);
                let rn_val = arch_read(&self.regs, pc, rn.index());
                self.charge(cost::DP);
                // `S`-clear is the common case; skip the flag circuitry.
                let (value, writes_rd) = if s {
                    let r = alu::exec_dp(op, rn_val, op2_val, shifter_carry, self.cpsr);
                    self.cpsr = r.flags;
                    (r.value, r.writes_rd)
                } else {
                    alu::exec_dp_value(op, rn_val, op2_val, self.cpsr.c)
                };
                if writes_rd {
                    if rd == Reg::PC {
                        next_pc = value;
                        self.charge(cost::PC_WRITE);
                    } else {
                        self.regs[rd.index()] = value;
                    }
                }
            }
            Instr::Mul { s, rd, rm, rs, acc, .. } => {
                let mut v = arch_read(&self.regs, pc, rm.index())
                    .wrapping_mul(arch_read(&self.regs, pc, rs.index()));
                self.charge(match acc {
                    Some(rn) => {
                        v = v.wrapping_add(arch_read(&self.regs, pc, rn.index()));
                        cost::MLA
                    }
                    None => cost::MUL,
                });
                self.regs[rd.index()] = v;
                if s {
                    self.cpsr.n = v >> 31 & 1 == 1;
                    self.cpsr.z = v == 0;
                }
            }
            Instr::Mem { op, byte, rd, rn, offset, up, pre, writeback, .. } => {
                let base = arch_read(&self.regs, pc, rn.index());
                let off = match offset {
                    proteus_isa::instr::MemOffset::Imm(i) => u32::from(i),
                    proteus_isa::instr::MemOffset::Reg(rm, sh) => {
                        alu::barrel_shift(arch_read(&self.regs, pc, rm.index()), sh, self.cpsr.c).0
                    }
                };
                let offsetted = if up { base.wrapping_add(off) } else { base.wrapping_sub(off) };
                let addr = if pre { offsetted } else { base };
                let result = match op {
                    MemOp::Ldr => {
                        self.charge(cost::LDR);
                        let r = if byte {
                            mem.read_byte(addr).map(u32::from)
                        } else {
                            mem.read_word(addr)
                        };
                        match r {
                            Ok(v) => Some(v),
                            Err(err) => return Some(Stop::MemFault { err, pc }),
                        }
                    }
                    MemOp::Str => {
                        self.charge(cost::STR);
                        let v = arch_read(&self.regs, pc, rd.index());
                        let r = if byte {
                            mem.write_byte(addr, (v & 0xFF) as u8)
                        } else {
                            mem.write_word(addr, v)
                        };
                        if let Err(err) = r {
                            return Some(Stop::MemFault { err, pc });
                        }
                        None
                    }
                };
                if writeback || !pre {
                    self.regs[rn.index()] = offsetted;
                }
                if let Some(v) = result {
                    if rd == Reg::PC {
                        next_pc = v;
                        self.charge(cost::PC_WRITE);
                    } else {
                        self.regs[rd.index()] = v;
                    }
                }
            }
            Instr::Block { op, rn, regs, before, up, writeback, .. } => {
                let count = regs.count_ones();
                let base = arch_read(&self.regs, pc, rn.index());
                let span = count * 4;
                // Lowest register always occupies the lowest address.
                let lowest = if up { base } else { base.wrapping_sub(span) };
                let start = match (up, before) {
                    (true, false) => lowest,                   // IA
                    (true, true) => lowest.wrapping_add(4),    // IB
                    (false, false) => lowest.wrapping_add(4),  // DA
                    (false, true) => lowest,                   // DB
                };
                let final_base = if up { base.wrapping_add(span) } else { base.wrapping_sub(span) };
                let mut addr = start;
                let mut loaded_pc = None;
                for i in 0..16u16 {
                    if regs >> i & 1 == 0 {
                        continue;
                    }
                    match op {
                        BlockOp::Ldm => match mem.read_word(addr) {
                            Ok(v) => {
                                if i == 15 {
                                    loaded_pc = Some(v);
                                } else {
                                    self.regs[i as usize] = v;
                                }
                            }
                            Err(err) => return Some(Stop::MemFault { err, pc }),
                        },
                        BlockOp::Stm => {
                            let v = arch_read(&self.regs, pc, i as usize);
                            if let Err(err) = mem.write_word(addr, v) {
                                return Some(Stop::MemFault { err, pc });
                            }
                        }
                    }
                    addr = addr.wrapping_add(4);
                }
                self.charge(match op {
                    BlockOp::Ldm => cost::LDM_BASE + u64::from(count),
                    BlockOp::Stm => cost::STM_BASE + u64::from(count),
                });
                if writeback {
                    self.regs[rn.index()] = final_base;
                }
                if let Some(v) = loaded_pc {
                    next_pc = v;
                    self.charge(cost::PC_WRITE);
                }
            }
            Instr::Branch { link, offset, .. } => {
                if link {
                    self.regs[14] = pc.wrapping_add(4);
                }
                next_pc = pc.wrapping_add(4).wrapping_add((offset as u32).wrapping_mul(4));
                self.charge(cost::BRANCH_TAKEN);
            }
            Instr::Swi { imm, .. } => {
                self.charge(cost::SWI);
                self.regs[15] = next_pc;
                return Some(Stop::Swi { imm });
            }
            Instr::Pfu { cid, rd, rn, rm, .. } => {
                self.charge(cost::PFU_ISSUE);
                let op_a = arch_read(&self.regs, pc, rn.index());
                let op_b = arch_read(&self.regs, pc, rm.index());
                let budget = until_cycle.saturating_sub(self.cycles);
                // PID register: workstation-class processors hold the
                // current PID (§4.2); we model it in coprocessor register
                // 15 by kernel convention, but pass it explicitly.
                let pid = coproc.read_reg(15);
                match coproc.exec_custom(pid, cid, op_a, op_b, rd.index() as u8, next_pc, budget) {
                    CoprocResult::Done { value, cycles } => {
                        self.charge(cycles);
                        if self.soft_depth == 0 {
                            self.mix.custom += cycles;
                        }
                        self.regs[rd.index()] = value;
                    }
                    CoprocResult::Interrupted { cycles } => {
                        self.charge(cycles);
                        if self.soft_depth == 0 {
                            self.mix.custom += cycles;
                        }
                        // Do not advance PC: the instruction is reissued
                        // after the interrupt, resuming via the
                        // status-register mechanism (§4.4).
                        return Some(Stop::Quantum);
                    }
                    CoprocResult::SoftwareDispatch { target, cycles } => {
                        self.charge(cycles + cost::BRANCH_TAKEN);
                        if self.soft_depth == 0 {
                            // Entering a handler from user code: the
                            // dispatching issue is soft-dispatch time.
                            // (Nested dispatches are handler time
                            // already: see `run_stepped`.)
                            self.mix.soft_dispatch +=
                                cost::PFU_ISSUE + cycles + cost::BRANCH_TAKEN;
                        }
                        self.soft_depth += 1;
                        self.regs[14] = next_pc;
                        next_pc = target;
                    }
                    CoprocResult::Fault => {
                        return Some(Stop::CustomFault { cid, pc });
                    }
                }
            }
            Instr::Mcr { rfu, rs, .. } => {
                self.charge(cost::CP_MOVE);
                coproc.write_reg(rfu, arch_read(&self.regs, pc, rs.index()));
            }
            Instr::Mrc { rd, rfu, .. } => {
                self.charge(cost::CP_MOVE);
                self.regs[rd.index()] = coproc.read_reg(rfu);
            }
            Instr::LdOp { rd, sel, .. } => {
                self.charge(cost::CP_MOVE);
                self.regs[rd.index()] = coproc.read_operand(sel);
            }
            Instr::StRes { rs, .. } => {
                self.charge(cost::CP_MOVE);
                coproc.write_result(arch_read(&self.regs, pc, rs.index()));
            }
            Instr::RetSd { .. } => {
                self.charge(cost::RETSD);
                self.soft_depth = self.soft_depth.saturating_sub(1);
                let info = coproc.return_from_software();
                self.regs[info.rd as usize & 0xF] = info.result;
                next_pc = info.ret_addr;
            }
            Instr::McrO { field, rs, .. } => {
                self.charge(cost::CP_MOVE);
                coproc.write_operand_field(field, arch_read(&self.regs, pc, rs.index()));
            }
            Instr::MrcO { rd, field, .. } => {
                self.charge(cost::CP_MOVE);
                self.regs[rd.index()] = coproc.read_operand_field(field);
            }
        }
        self.regs[15] = next_pc;
        None
    }
}

/// The value of a barrel shift, for an op that does not set flags: at
/// amount 0 every kind passes the value through, so no special case.
#[inline(always)]
fn shifted(value: u32, shift: Shift) -> u32 {
    let amount = u32::from(shift.amount);
    match shift.kind {
        ShiftKind::Lsl => value << amount,
        ShiftKind::Lsr => value >> amount,
        ShiftKind::Asr => ((value as i32) >> amount) as u32,
        ShiftKind::Ror => value.rotate_right(amount),
    }
}

/// Architectural register read used by the execute stage: `r15` reads as
/// the fetch address plus 4, every other index reads the register file.
/// Free function (not a per-step closure) so the hot loop builds no
/// captures.
#[inline(always)]
fn arch_read(regs: &[u32; 16], pc: u32, i: usize) -> u32 {
    if i == 15 {
        pc.wrapping_add(4)
    } else {
        regs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::NullCoprocessor;
    use proteus_isa::assemble;

    fn run_asm(src: &str) -> (Cpu, Memory) {
        let p = assemble(src).unwrap_or_else(|e| panic!("{e}"));
        let mut mem = Memory::new(64 * 1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        cpu.set_reg(13, 60 * 1024); // stack
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, 10_000_000);
        assert!(matches!(stop, Stop::Swi { imm: 0 }), "unexpected stop {stop:?}");
        (cpu, mem)
    }

    /// Run `cpu` over `mem` through the compiled lane and through the
    /// stepped referee with the same budget; both must reach the same
    /// stop in the same state. Returns the compiled lane's result.
    fn lanes_agree(cpu: &Cpu, mem: &Memory, until: u64) -> (Stop, Cpu, Memory) {
        let (mut fast, mut fast_mem) = (cpu.clone(), mem.clone());
        let (mut slow, mut slow_mem) = (cpu.clone(), mem.clone());
        let stop = fast.run(&mut fast_mem, &mut NullCoprocessor, until);
        assert_eq!(stop, slow.run_stepped(&mut slow_mem, &mut NullCoprocessor, until), "until {until}");
        assert_eq!(fast.save_context(), slow.save_context(), "until {until}");
        assert_eq!(fast.cycles(), slow.cycles(), "until {until}");
        assert_eq!(fast.exec_mix(), slow.exec_mix(), "until {until}");
        assert!(fast_mem == slow_mem, "memory differs, until {until}");
        (stop, fast, fast_mem)
    }

    fn loaded(src: &str, size: u32) -> Memory {
        let p = assemble(src).unwrap_or_else(|e| panic!("{e}"));
        let mut mem = Memory::new(size);
        mem.load_program(&p).expect("load");
        mem
    }

    #[test]
    fn factorial_loop() {
        let (cpu, _) = run_asm(
            "mov r0, #1\n\
             mov r1, #6\n\
             loop: mul r0, r0, r1\n\
             subs r1, r1, #1\n\
             bne loop\n\
             swi #0\n",
        );
        assert_eq!(cpu.reg(0), 720);
    }

    #[test]
    fn memory_store_and_load() {
        let (cpu, mem) = run_asm(
            "ldr r0, =buf\n\
             ldr r1, =0xCAFEBABE\n\
             str r1, [r0]\n\
             ldr r2, [r0]\n\
             ldrb r3, [r0, #1]\n\
             swi #0\n\
             buf: .space 8\n",
        );
        assert_eq!(cpu.reg(2), 0xCAFE_BABE);
        assert_eq!(cpu.reg(3), 0xBA);
        let buf = cpu.reg(0);
        assert_eq!(mem.read_word(buf).expect("read"), 0xCAFE_BABE);
    }

    #[test]
    fn post_index_walks_array() {
        let (cpu, _) = run_asm(
            "ldr r0, =data\n\
             mov r2, #0\n\
             mov r3, #4\n\
             loop: ldr r1, [r0], #4\n\
             add r2, r2, r1\n\
             subs r3, r3, #1\n\
             bne loop\n\
             swi #0\n\
             data: .word 10, 20, 30, 40\n",
        );
        assert_eq!(cpu.reg(2), 100);
    }

    #[test]
    fn function_call_and_stack() {
        let (cpu, _) = run_asm(
            "mov r0, #5\n\
             bl double\n\
             bl double\n\
             swi #0\n\
             double: push {r4, lr}\n\
             mov r4, r0\n\
             add r0, r4, r4\n\
             pop {r4, pc}\n",
        );
        assert_eq!(cpu.reg(0), 20);
    }

    #[test]
    fn conditional_execution_costs_one_cycle() {
        let p = assemble("cmp r0, #1\n moveq r1, #5\n swi #0\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        assert_eq!(cpu.reg(1), 0, "moveq must be skipped");
        // cmp(1) + skipped(1) + swi(3)
        assert_eq!(cpu.cycles(), 5);
    }

    #[test]
    fn quantum_preempts_execution() {
        let p = assemble("loop: add r0, r0, #1\n b loop\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, 1000);
        assert_eq!(stop, Stop::Quantum);
        assert!(cpu.cycles() >= 1000 && cpu.cycles() < 1010);
        // Resumable.
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, 2000);
        assert_eq!(stop, Stop::Quantum);
        assert!(cpu.reg(0) > 0);
    }

    #[test]
    fn pfu_faults_without_mapping() {
        let p = assemble("mov r0, #1\n pfu 3, r2, r0, r0\n swi #0\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        match stop {
            Stop::CustomFault { cid: 3, pc } => assert_eq!(pc, 4, "PC stays at the pfu"),
            other => panic!("unexpected stop {other:?}"),
        }
        assert_eq!(cpu.pc(), 4);
    }

    #[test]
    fn self_modifying_code_sees_the_new_instruction() {
        // Execute `target` once (compiling its op), store a new encoding
        // over it, then re-execute: the store must reset the op so the
        // patched instruction runs.
        let (cpu, _) = run_asm(
            "mov r0, #0\n\
             b start\n\
             patchsrc: mov r1, #2\n\
             start: ldr r2, =patchsrc\n\
             ldr r2, [r2]\n\
             ldr r3, =target\n\
             target: mov r1, #1\n\
             cmp r0, #1\n\
             beq done\n\
             mov r4, r1\n\
             str r2, [r3]\n\
             mov r0, #1\n\
             b target\n\
             done: swi #0\n",
        );
        assert_eq!(cpu.reg(4), 1, "first pass must run the original instruction");
        assert_eq!(cpu.reg(1), 2, "second pass must run the patched instruction");
    }

    #[test]
    fn undefined_instruction_stops() {
        let mut mem = Memory::new(1024);
        mem.write_word(0, 0xFFFF_FFFF).expect("write");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        assert!(matches!(stop, Stop::Undefined { pc: 0, .. }));
    }

    #[test]
    fn mem_fault_reports_pc() {
        let p = assemble("ldr r0, =0xFFFFFF0\n ldr r1, [r0]\n").expect("asm");
        let mut mem = Memory::new(1024);
        mem.load_program(&p).expect("load");
        let mut cpu = Cpu::new();
        let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
        assert!(matches!(stop, Stop::MemFault { pc: 4, .. }), "{stop:?}");
    }

    #[test]
    fn context_save_restore_roundtrip() {
        let (cpu, _) = run_asm("mov r0, #42\n cmp r0, #42\n swi #0\n");
        let ctx = cpu.save_context();
        let mut cpu2 = Cpu::new();
        cpu2.restore_context(&ctx);
        assert_eq!(cpu2.reg(0), 42);
        assert!(cpu2.cpsr().z);
        assert_eq!(cpu2.pc(), cpu.pc());
    }

    #[test]
    fn block_transfer_roundtrip() {
        let (cpu, _) = run_asm(
            "mov r0, #1\n mov r1, #2\n mov r2, #3\n\
             push {r0-r2}\n\
             mov r0, #0\n mov r1, #0\n mov r2, #0\n\
             pop {r0-r2}\n\
             swi #0\n",
        );
        assert_eq!((cpu.reg(0), cpu.reg(1), cpu.reg(2)), (1, 2, 3));
    }

    #[test]
    fn quantum_boundary_at_every_cycle_offset() {
        // One straight-line run over ops of every cost, including a
        // generic condition-failed op and a taken branch: a budget ending
        // at any cycle inside it stops where the referee does, and the
        // run resumes to the same end.
        let mem = loaded(
            "ldr r0, =buf\n mov r1, #7\n mul r2, r1, r1\n mla r3, r2, r1, r1\n\
             str r2, [r0], #4\n push {r0-r3}\n pop {r4-r7}\n adds r8, r4, r5, lsl #1\n\
             cmp r8, #0\n addeq r9, r9, #1\n bne next\n mov r10, #1\n\
             next: ldrb r11, [r0, #-4]\n swi #0\n buf: .space 16\n",
            1024,
        );
        let mut cpu = Cpu::new();
        cpu.set_reg(13, 1024);
        let t0 = 100;
        cpu.add_cycles(t0);
        let (stop, end, _) = lanes_agree(&cpu, &mem, u64::MAX);
        assert_eq!(stop, Stop::Swi { imm: 0 });
        let total = end.cycles() - t0;
        assert_eq!(total, 3 + 1 + 4 + 5 + 2 + 5 + 6 + 1 + 1 + 1 + 3 + 3 + 3);
        for k in 0..=total {
            let (stop, mid, mid_mem) = lanes_agree(&cpu, &mem, t0 + k);
            // Only the closing `swi` (3 cycles) may start before the
            // budget ends and finish past it.
            let (stop, done) = match stop {
                Stop::Quantum => {
                    assert!(k < total - 2 && mid.cycles() >= t0 + k, "k = {k}");
                    let (stop, done, _) = lanes_agree(&mid, &mid_mem, u64::MAX);
                    (stop, done)
                }
                stop => (stop, mid),
            };
            assert_eq!(stop, Stop::Swi { imm: 0 });
            assert_eq!(done.save_context(), end.save_context(), "k = {k}");
            assert_eq!(done.cycles(), end.cycles(), "k = {k}");
        }
    }

    #[test]
    fn store_into_the_next_word_takes_effect_on_the_next_instruction() {
        // The first pass compiles `target` as `mov r0, #1`; the second
        // pass stores `mov r0, #2` over it from the word right before it.
        let mem = loaded(
            "ldr r2, =target\n ldr r1, [r2]\n ldr r4, =patch\n ldr r4, [r4]\n\
             again: add r5, r5, #1\n cmp r5, #2\n moveq r1, r4\n\
             str r1, [r2]\n target: mov r0, #1\n add r6, r6, r0\n\
             cmp r5, #2\n bne again\n swi #0\n patch: mov r0, #2\n",
            1024,
        );
        let (stop, cpu, _) = lanes_agree(&Cpu::new(), &mem, u64::MAX);
        assert_eq!(stop, Stop::Swi { imm: 0 });
        assert_eq!(cpu.reg(6), 1 + 2, "the patched word must run on the second pass");
    }

    #[test]
    fn fetch_faults_report_the_faulting_pc() {
        // An undecodable word stops as undefined, on first execution and
        // again once its slot is compiled.
        let mut mem = loaded("mov r0, #1\n mov r1, #2\n", 1024);
        mem.write_word(8, 0xFFFF_FFFF).expect("write");
        let (stop, mut cpu, mem) = lanes_agree(&Cpu::new(), &mem, u64::MAX);
        assert_eq!(stop, Stop::Undefined { word: 0xFFFF_FFFF, pc: 8 });
        assert_eq!(cpu.pc(), 8);
        cpu.set_pc(0);
        let (stop, _, _) = lanes_agree(&cpu, &mem, u64::MAX);
        assert_eq!(stop, Stop::Undefined { word: 0xFFFF_FFFF, pc: 8 });
        // Jumps to an unaligned and to an out-of-range PC fault at the
        // target.
        let mem = loaded("mov pc, #6\n", 1024);
        let (stop, cpu, _) = lanes_agree(&Cpu::new(), &mem, u64::MAX);
        assert_eq!(stop, Stop::MemFault { err: MemError::Unaligned { addr: 6 }, pc: 6 });
        assert_eq!(cpu.pc(), 6);
        let mem = loaded("mov pc, #0x10000\n", 1024);
        let (stop, _, _) = lanes_agree(&Cpu::new(), &mem, u64::MAX);
        let err = MemError::OutOfRange { addr: 0x10000, size: 1024 };
        assert_eq!(stop, Stop::MemFault { err, pc: 0x10000 });
    }

    #[test]
    fn code_beyond_the_op_array_runs_through_the_reference_fetch() {
        // Past the first MiB no op slot exists: every word is fetched and
        // decoded by `step`, with the same results.
        let mem = loaded(
            ".org 0x100000\n start: mov r0, #0\n mov r1, #10\n\
             loop: add r0, r0, r1\n subs r1, r1, #1\n bne loop\n swi #0\n",
            0x10_0000 + 1024,
        );
        let mut cpu = Cpu::new();
        cpu.set_pc(0x10_0000);
        let (stop, cpu, mem) = lanes_agree(&cpu, &mem, u64::MAX);
        assert_eq!(stop, Stop::Swi { imm: 0 });
        assert_eq!(cpu.reg(0), 55);
        assert_eq!(*mem.op(0x10_0000), crate::op::Op::Fetch);
    }
}

//! Compiled ops: the per-word form of an instruction that
//! [`Cpu::run`](crate::cpu::Cpu::run) executes.
//!
//! [`Memory`](crate::memory::Memory) compiles a word into an [`Op`] the
//! first time it is executed and keeps it until a store into the word
//! resets it to [`Op::Empty`]. An op folds everything that depends only
//! on the word and its address: register indices, the opcode where a hot
//! form has an op of its own, the pre-rotated immediate and the source of
//! its shifter carry, the signed memory offset, literal addresses and
//! branch targets.
//!
//! An op is 8 bytes: the loop loads its tag and reaches its arm with a
//! single indirect jump, and the arm reads its fields from the same
//! slot. Only unconditional forms
//! that neither read nor write `r15` are specialised (branches excepted:
//! they carry their condition). Anything else is [`Op::Generic`], which
//! keeps only the condition: `run` skips a failed one inline and hands a
//! passing one to [`Cpu::step`](crate::cpu::Cpu::step), which re-reads
//! and decodes the word on the reference lane. So the specialised ops
//! only have to agree with the reference body on the forms they cover.
//!
//! One op spans two words: [`Op::SubsBranch`], a `subs rd, rn, #imm`
//! fused with the `b<cond>` after it (see [`Op::fuse`]). It sits in the
//! `subs` word's slot; the branch word keeps an op of its own, and a store
//! into the branch word resets the fused op as well.

use proteus_isa::instr::MemOffset;
use proteus_isa::{BlockOp, Cond, DpOp, Instr, MemOp, Operand2, OperandSel, Reg, Shift, ShiftKind};

/// One compiled instruction word. Register fields are indices `0..15`,
/// never the PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Op {
    /// Not compiled yet, or reset by a store into the word.
    #[default]
    Empty,
    /// Not compilable: unaligned, outside the compiled text, or
    /// undecodable. `run` steps it through the reference lane, which
    /// reports the fault.
    Fetch,
    /// Any form without a specialised op. A failed condition costs one
    /// cycle inline; a passing op runs through the reference lane.
    Generic {
        /// The word's condition.
        cond: Cond,
    },
    /// `mov rd, #imm` (or `mvn`, with the immediate inverted), `S` clear.
    MovImm {
        /// Destination.
        rd: u8,
        /// The value moved.
        imm: u32,
    },
    /// `add rd, rn, #imm`, `S` clear.
    AddImm {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// `sub rd, rn, #imm`, `S` clear.
    SubImm {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// `and rd, rn, #imm`, `S` clear.
    AndImm {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// Any other data processing with `S` clear and an immediate operand.
    DpImm {
        /// Opcode.
        op: DpOp,
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// `mov rd, rm, lsl #amount` (`mov rd, rm` at amount 0), `S` clear.
    MovLsl {
        /// Destination.
        rd: u8,
        /// Source.
        rm: u8,
        /// Shift amount, 0–31.
        amount: u8,
    },
    /// `mov rd, rm, lsr #amount`, `S` clear.
    MovLsr {
        /// Destination.
        rd: u8,
        /// Source.
        rm: u8,
        /// Shift amount, 1–31.
        amount: u8,
    },
    /// `mov rd, rm, asr #amount`, `S` clear.
    MovAsr {
        /// Destination.
        rd: u8,
        /// Source.
        rm: u8,
        /// Shift amount, 1–31.
        amount: u8,
    },
    /// `add rd, rn, rm, <shift>`, `S` clear.
    AddReg {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// `and rd, rn, rm, <shift>`, `S` clear.
    AndReg {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// `orr rd, rn, rm, <shift>`, `S` clear.
    OrrReg {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// `eor rd, rn, rm, <shift>`, `S` clear.
    EorReg {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// Any other data processing with `S` clear and a shifted-register
    /// operand.
    DpReg {
        /// Opcode.
        op: DpOp,
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// `subs rd, rn, #imm`.
    SubsImm {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// `cmp rn, #imm`.
    CmpImm {
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// `cmp rn, rm, <shift>`.
    CmpReg {
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// Any other data processing with `S` set and an unrotated immediate:
    /// the shifter carry is the CPSR carry.
    DpImmS {
        /// Opcode.
        op: DpOp,
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The immediate.
        imm: u32,
    },
    /// Any other data processing with `S` set and a rotated immediate:
    /// the shifter carry is the immediate's bit 31.
    DpImmSRot {
        /// Opcode.
        op: DpOp,
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
    },
    /// Any other data processing with `S` set and a shifted-register
    /// operand.
    DpRegS {
        /// Opcode.
        op: DpOp,
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// Shifted register.
        rm: u8,
        /// Barrel-shifter setting.
        shift: Shift,
    },
    /// `mul`.
    Mul {
        /// Set N and Z.
        s: bool,
        /// Destination.
        rd: u8,
        /// Multiplicand.
        rm: u8,
        /// Multiplier.
        rs: u8,
    },
    /// `mla`.
    Mla {
        /// Set N and Z.
        s: bool,
        /// Destination.
        rd: u8,
        /// Multiplicand.
        rm: u8,
        /// Multiplier.
        rs: u8,
        /// Accumulator.
        rn: u8,
    },
    /// `ldr` with an immediate offset.
    Ldr {
        /// Destination.
        rd: u8,
        /// Base.
        rn: u8,
        /// Addressing mode.
        mode: MemMode,
        /// Signed offset, as a wrapping addend.
        delta: u32,
    },
    /// `ldrb` with an immediate offset.
    LdrB {
        /// Destination.
        rd: u8,
        /// Base.
        rn: u8,
        /// Addressing mode.
        mode: MemMode,
        /// Signed offset, as a wrapping addend.
        delta: u32,
    },
    /// `str` with an immediate offset.
    Str {
        /// Source.
        rd: u8,
        /// Base.
        rn: u8,
        /// Addressing mode.
        mode: MemMode,
        /// Signed offset, as a wrapping addend.
        delta: u32,
    },
    /// `strb` with an immediate offset.
    StrB {
        /// Source.
        rd: u8,
        /// Base.
        rn: u8,
        /// Addressing mode.
        mode: MemMode,
        /// Signed offset, as a wrapping addend.
        delta: u32,
    },
    /// PC-relative word load (`ldr rd, =literal`) with the address folded.
    LdrLit {
        /// Destination.
        rd: u8,
        /// The literal's address.
        addr: u32,
    },
    /// `ldm` without the PC in its list.
    Ldm {
        /// Base.
        rn: u8,
        /// Register list.
        regs: u16,
        /// First address, as an addend to the base.
        start: i8,
        /// Written-back base, as an addend to the base.
        end: i8,
        /// Write the final address back to `rn`.
        writeback: bool,
    },
    /// `stm` without the PC in its list.
    Stm {
        /// Base.
        rn: u8,
        /// Register list.
        regs: u16,
        /// First address, as an addend to the base.
        start: i8,
        /// Written-back base, as an addend to the base.
        end: i8,
        /// Write the final address back to `rn`.
        writeback: bool,
    },
    /// `b`/`bl` under any condition, with the target folded.
    Branch {
        /// Condition.
        cond: Cond,
        /// Save the return address in `lr`.
        link: bool,
        /// Absolute target.
        target: u32,
    },
    /// `subs rd, rn, #imm` followed by a `b<cond>` without link: the
    /// countdown-loop tail, as one op over two words. It runs the `subs`,
    /// stops at the branch if that used up the budget, and otherwise runs
    /// the branch, each with its own cost.
    SubsBranch {
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The immediate (below 256).
        imm: u8,
        /// The branch's condition.
        cond: Cond,
        /// Branch target minus the branch word's address.
        offset: i16,
    },
    /// Custom-instruction issue.
    Pfu {
        /// Circuit ID.
        cid: u8,
        /// Destination.
        rd: u8,
        /// First source.
        rn: u8,
        /// Second source.
        rm: u8,
    },
    /// `ldop`: read a latched software-dispatch operand.
    LdOp {
        /// Destination.
        rd: u8,
        /// Which operand.
        sel: OperandSel,
    },
    /// `stres`: write the software-dispatch result.
    StRes {
        /// Source.
        rs: u8,
    },
    /// `retsd`: return from a software alternative.
    RetSd,
}

const _: () = assert!(std::mem::size_of::<Op>() == 8);

/// Where a single load or store with an immediate offset goes, and what
/// it writes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMode {
    /// Access `base + delta`; no writeback.
    Offset,
    /// Access `base + delta` and write it back to the base.
    PreIndex,
    /// Access `base`, then write `base + delta` back to the base.
    PostIndex,
}

impl MemMode {
    /// The access address and the base register's new value for `base`
    /// and `delta`.
    #[inline(always)]
    pub fn apply(self, base: u32, delta: u32) -> (u32, u32) {
        let offsetted = base.wrapping_add(delta);
        let addr = if self == MemMode::PostIndex { base } else { offsetted };
        let new_base = if self == MemMode::Offset { base } else { offsetted };
        (addr, new_base)
    }
}

impl Op {
    /// Compile the decoded instruction `instr` found at `pc`.
    pub fn compile(pc: u32, instr: Instr) -> Op {
        Self::specialise(pc, instr).unwrap_or(Op::Generic { cond: instr.cond() })
    }

    /// Fuse this op with the decoded instruction in the word after it, if
    /// the pair has a fused op: a `subs` with an immediate
    /// below 256 and a non-link branch within ±32 KiB.
    pub fn fuse(self, next: Instr) -> Option<Op> {
        let Op::SubsImm { rd, rn, imm } = self else { return None };
        let Instr::Branch { cond, link: false, offset } = next else { return None };
        let imm = u8::try_from(imm).ok()?;
        // The target is `offset + 1` words past the branch word.
        let offset = i16::try_from(offset.checked_add(1)?.checked_mul(4)?).ok()?;
        Some(Op::SubsBranch { rd, rn, imm, cond, offset })
    }

    fn specialise(pc: u32, instr: Instr) -> Option<Op> {
        if let Instr::Branch { cond, link, offset } = instr {
            let target = pc.wrapping_add(4).wrapping_add((offset as u32).wrapping_mul(4));
            return Some(Op::Branch { cond, link, target });
        }
        if instr.cond() != Cond::Al {
            return None;
        }
        Some(match instr {
            Instr::DataProc { op, s, rd, rn, op2, .. } => data_proc(op, s, idx(rd)?, idx(rn)?, op2)?,
            Instr::Mul { s, rd, rm, rs, acc, .. } => {
                let (rd, rm, rs) = (idx(rd)?, idx(rm)?, idx(rs)?);
                match acc {
                    Some(rn) => Op::Mla { s, rd, rm, rs, rn: idx(rn)? },
                    None => Op::Mul { s, rd, rm, rs },
                }
            }
            Instr::Mem { op, byte, rd, rn, offset: MemOffset::Imm(off), up, pre, writeback, .. } => {
                let rd = idx(rd)?;
                let delta = if up { u32::from(off) } else { u32::from(off).wrapping_neg() };
                let mode = match (pre, writeback) {
                    (true, false) => MemMode::Offset,
                    (true, true) => MemMode::PreIndex,
                    (false, _) => MemMode::PostIndex,
                };
                if rn == Reg::PC {
                    return (op == MemOp::Ldr && !byte && mode == MemMode::Offset)
                        .then(|| Op::LdrLit { rd, addr: pc.wrapping_add(4).wrapping_add(delta) });
                }
                let rn = idx(rn)?;
                match (op, byte) {
                    (MemOp::Ldr, false) => Op::Ldr { rd, rn, mode, delta },
                    (MemOp::Ldr, true) => Op::LdrB { rd, rn, mode, delta },
                    (MemOp::Str, false) => Op::Str { rd, rn, mode, delta },
                    (MemOp::Str, true) => Op::StrB { rd, rn, mode, delta },
                }
            }
            Instr::Block { op, rn, regs, before, up, writeback, .. } => {
                if regs >> 15 != 0 {
                    return None;
                }
                let rn = idx(rn)?;
                // At most 15 registers: every offset is within ±60.
                let span = regs.count_ones() as i8 * 4;
                // Lowest register at the lowest address (see `exec`).
                let (start, end) = match (up, before) {
                    (true, false) => (0, span),
                    (true, true) => (4, span),
                    (false, false) => (4 - span, -span),
                    (false, true) => (-span, -span),
                };
                match op {
                    BlockOp::Ldm => Op::Ldm { rn, regs, start, end, writeback },
                    BlockOp::Stm => Op::Stm { rn, regs, start, end, writeback },
                }
            }
            Instr::Pfu { cid, rd, rn, rm, .. } => Op::Pfu { cid, rd: idx(rd)?, rn: idx(rn)?, rm: idx(rm)? },
            Instr::LdOp { rd, sel, .. } => Op::LdOp { rd: idx(rd)?, sel },
            Instr::StRes { rs, .. } => Op::StRes { rs: idx(rs)? },
            Instr::RetSd { .. } => Op::RetSd,
            _ => return None,
        })
    }
}

/// The op for an unconditional data-processing form without the PC.
fn data_proc(op: DpOp, s: bool, rd: u8, rn: u8, op2: Operand2) -> Option<Op> {
    Some(match (op2, s) {
        (Operand2::Imm { value, rot }, false) => {
            let imm = Operand2::imm_value(value, rot);
            match op {
                DpOp::Mov => Op::MovImm { rd, imm },
                DpOp::Mvn => Op::MovImm { rd, imm: !imm },
                DpOp::Add => Op::AddImm { rd, rn, imm },
                DpOp::Sub => Op::SubImm { rd, rn, imm },
                DpOp::And => Op::AndImm { rd, rn, imm },
                _ => Op::DpImm { op, rd, rn, imm },
            }
        }
        (Operand2::Imm { value, rot }, true) => {
            let imm = Operand2::imm_value(value, rot);
            match op {
                DpOp::Sub => Op::SubsImm { rd, rn, imm },
                DpOp::Cmp => Op::CmpImm { rn, imm },
                _ if rot == 0 => Op::DpImmS { op, rd, rn, imm },
                _ => Op::DpImmSRot { op, rd, rn, imm },
            }
        }
        (Operand2::Reg { reg, shift }, false) => {
            let rm = idx(reg)?;
            match (op, shift.kind) {
                (DpOp::Mov, ShiftKind::Lsl) => Op::MovLsl { rd, rm, amount: shift.amount },
                (DpOp::Mov, ShiftKind::Lsr) => Op::MovLsr { rd, rm, amount: shift.amount },
                (DpOp::Mov, ShiftKind::Asr) => Op::MovAsr { rd, rm, amount: shift.amount },
                (DpOp::Add, _) => Op::AddReg { rd, rn, rm, shift },
                (DpOp::And, _) => Op::AndReg { rd, rn, rm, shift },
                (DpOp::Orr, _) => Op::OrrReg { rd, rn, rm, shift },
                (DpOp::Eor, _) => Op::EorReg { rd, rn, rm, shift },
                _ => Op::DpReg { op, rd, rn, rm, shift },
            }
        }
        (Operand2::Reg { reg, shift }, true) => {
            let rm = idx(reg)?;
            match op {
                DpOp::Cmp => Op::CmpReg { rn, rm, shift },
                _ => Op::DpRegS { op, rd, rn, rm, shift },
            }
        }
    })
}

/// A register index other than the PC.
fn idx(r: Reg) -> Option<u8> {
    (r != Reg::PC).then_some(r.index() as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_isa::{assemble, decode};

    fn compiled(src: &str) -> Vec<Op> {
        let p = assemble(src).expect("asm");
        p.words()
            .iter()
            .enumerate()
            .map(|(i, &w)| Op::compile(4 * i as u32, decode(w).expect("decodes")))
            .collect()
    }

    #[test]
    fn folds_addresses_and_immediates() {
        let ops = compiled(
            "b next\n next: bleq next\n ldr r2, [pc, #-8]\n movs r1, #0x80000000\n \
             adds r1, r2, #3\n mvn r3, #0\n",
        );
        assert_eq!(ops[0], Op::Branch { cond: Cond::Al, link: false, target: 4 });
        assert_eq!(ops[1], Op::Branch { cond: Cond::Eq, link: true, target: 4 });
        assert_eq!(ops[2], Op::LdrLit { rd: 2, addr: 8 + 4 - 8 });
        // The shifter carry's source is in the variant: a rotated
        // immediate carries its bit 31, an unrotated one the CPSR carry.
        assert_eq!(ops[3], Op::DpImmSRot { op: DpOp::Mov, rd: 1, rn: 0, imm: 0x8000_0000 });
        assert_eq!(ops[4], Op::DpImmS { op: DpOp::Add, rd: 1, rn: 2, imm: 3 });
        assert_eq!(ops[5], Op::MovImm { rd: 3, imm: u32::MAX });
    }

    #[test]
    fn pc_and_conditional_forms_stay_generic() {
        let src = "mov pc, lr\n add r0, pc, #4\n addeq r0, r0, #1\n pop {r4, pc}\n \
                   ldr r0, [r1, r2]\n str r0, [pc]\n swi #1\n mcr c1, r0\n pfueq 1, r0, r1, r2\n";
        let conds = [Cond::Al, Cond::Al, Cond::Eq, Cond::Al, Cond::Al, Cond::Al, Cond::Al, Cond::Al, Cond::Eq];
        for (i, op) in compiled(src).into_iter().enumerate() {
            assert_eq!(op, Op::Generic { cond: conds[i] }, "line {i}");
        }
    }

    #[test]
    fn block_offsets_match_the_four_modes() {
        let ops = compiled("stmdb r13!, {r0-r2}\n ldmia r13!, {r0-r2}\n ldmib r1, {r2}\n stmda r1, {r2, r3}\n");
        assert_eq!(ops[0], Op::Stm { rn: 13, regs: 0b111, start: -12, end: -12, writeback: true });
        assert_eq!(ops[1], Op::Ldm { rn: 13, regs: 0b111, start: 0, end: 12, writeback: true });
        assert_eq!(ops[2], Op::Ldm { rn: 1, regs: 0b100, start: 4, end: 4, writeback: false });
        assert_eq!(ops[3], Op::Stm { rn: 1, regs: 0b1100, start: -4, end: -8, writeback: false });
    }

    #[test]
    fn memory_modes_and_widths_have_their_own_variants() {
        let ops = compiled("ldr r0, [r1, #4]\n ldrb r0, [r1, #-4]!\n str r0, [r1], #8\n strb r0, [r1]\n");
        assert_eq!(ops[0], Op::Ldr { rd: 0, rn: 1, mode: MemMode::Offset, delta: 4 });
        assert_eq!(ops[1], Op::LdrB { rd: 0, rn: 1, mode: MemMode::PreIndex, delta: 4u32.wrapping_neg() });
        assert_eq!(ops[2], Op::Str { rd: 0, rn: 1, mode: MemMode::PostIndex, delta: 8 });
        assert_eq!(ops[3], Op::StrB { rd: 0, rn: 1, mode: MemMode::Offset, delta: 0 });
        assert_eq!(MemMode::PostIndex.apply(100, 8), (100, 108));
        assert_eq!(MemMode::PreIndex.apply(100, 8), (108, 108));
        assert_eq!(MemMode::Offset.apply(100, 8), (108, 100));
    }

    #[test]
    fn subs_fuses_with_a_following_plain_branch_only() {
        let p = assemble("top: subs r1, r2, #1\n bne top\n subs r1, r1, #0x100\n bgt top\n subs r1, r1, #1\n bl top\n")
            .expect("asm");
        let instrs: Vec<Instr> = p.words().iter().map(|&w| decode(w).expect("decodes")).collect();
        let op = |i: usize| Op::compile(4 * i as u32, instrs[i]);
        assert_eq!(op(0).fuse(instrs[1]), Some(Op::SubsBranch { rd: 1, rn: 2, imm: 1, cond: Cond::Ne, offset: -4 }));
        assert_eq!(op(2).fuse(instrs[3]), None, "immediate above 255");
        assert_eq!(op(4).fuse(instrs[5]), None, "branch with link");
        assert_eq!(op(1).fuse(instrs[2]), None, "not a subs");
    }
}

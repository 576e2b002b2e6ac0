//! Compiled ops: the per-word form of an instruction that
//! [`Cpu::run`](crate::cpu::Cpu::run) executes.
//!
//! [`Memory`](crate::memory::Memory) compiles a word into an [`Op`] the
//! first time it is executed and keeps it until a store into the word
//! resets it to [`Op::Empty`]. An op folds everything that depends only
//! on the word and its address: register indices, the pre-rotated
//! immediate and its shifter carry, the signed memory offset, literal
//! addresses and branch targets.
//!
//! Only unconditional forms that neither read nor write `r15` are
//! specialised (branches excepted: they carry their condition). Anything
//! else is [`Op::Generic`], which `run` hands to the reference `exec`
//! body, so the specialised ops only have to agree with that body on the
//! forms they cover.

use proteus_isa::instr::MemOffset;
use proteus_isa::{BlockOp, Cond, DpOp, Instr, MemOp, Operand2, OperandSel, Reg, Shift};

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
    /// Any form without a specialised op, run by the reference `exec`
    /// body.
    Generic {
        /// The raw encoding.
        word: u32,
        /// Its decoded form.
        instr: Instr,
    },
    /// Data processing with `S` clear and an immediate operand.
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
    /// Data processing with `S` set and an immediate operand.
    DpImmS {
        /// Opcode.
        op: DpOp,
        /// Destination.
        rd: u8,
        /// First operand.
        rn: u8,
        /// The rotated immediate.
        imm: u32,
        /// Shifter carry; `None` when the rotation is zero and the carry
        /// flag passes through.
        carry: Option<bool>,
    },
    /// Data processing with `S` clear and a shifted-register operand.
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
    /// Data processing with `S` set and a shifted-register operand.
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
    /// `mul`, or `mla` when `acc` is set.
    Mul {
        /// Set N and Z.
        s: bool,
        /// Destination.
        rd: u8,
        /// Multiplicand.
        rm: u8,
        /// Multiplier.
        rs: u8,
        /// Accumulator.
        acc: Option<u8>,
    },
    /// `ldr`/`ldrb` with an immediate offset.
    Ldr {
        /// Byte access.
        byte: bool,
        /// Destination.
        rd: u8,
        /// Base.
        rn: u8,
        /// Signed offset, as a wrapping addend.
        delta: u32,
        /// Offset applied before the access.
        pre: bool,
        /// Write the offset address back to `rn` (always set when
        /// post-indexed).
        writeback: bool,
    },
    /// `str`/`strb` with an immediate offset.
    Str {
        /// Byte access.
        byte: bool,
        /// Source.
        rd: u8,
        /// Base.
        rn: u8,
        /// Signed offset, as a wrapping addend.
        delta: u32,
        /// Offset applied before the access.
        pre: bool,
        /// Write the offset address back to `rn` (always set when
        /// post-indexed).
        writeback: bool,
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
        /// First address, as a wrapping addend to the base.
        start: u32,
        /// Written-back base, as a wrapping addend to the base.
        end: u32,
        /// Write the final address back to `rn`.
        writeback: bool,
    },
    /// `stm` without the PC in its list.
    Stm {
        /// Base.
        rn: u8,
        /// Register list.
        regs: u16,
        /// First address, as a wrapping addend to the base.
        start: u32,
        /// Written-back base, as a wrapping addend to the base.
        end: u32,
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

impl Op {
    /// Compile the decoded `instr` (encoded as `word`) found at `pc`.
    pub fn compile(pc: u32, word: u32, instr: Instr) -> Op {
        Self::specialise(pc, instr).unwrap_or(Op::Generic { word, instr })
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
            Instr::DataProc { op, s, rd, rn, op2, .. } => {
                let (rd, rn) = (idx(rd)?, idx(rn)?);
                match (op2, s) {
                    (Operand2::Imm { value, rot }, false) => {
                        Op::DpImm { op, rd, rn, imm: Operand2::imm_value(value, rot) }
                    }
                    (Operand2::Imm { value, rot }, true) => {
                        let imm = Operand2::imm_value(value, rot);
                        let carry = (rot != 0).then_some(imm >> 31 == 1);
                        Op::DpImmS { op, rd, rn, imm, carry }
                    }
                    (Operand2::Reg { reg, shift }, false) => Op::DpReg { op, rd, rn, rm: idx(reg)?, shift },
                    (Operand2::Reg { reg, shift }, true) => Op::DpRegS { op, rd, rn, rm: idx(reg)?, shift },
                }
            }
            Instr::Mul { s, rd, rm, rs, acc, .. } => {
                let acc = match acc {
                    Some(rn) => Some(idx(rn)?),
                    None => None,
                };
                Op::Mul { s, rd: idx(rd)?, rm: idx(rm)?, rs: idx(rs)?, acc }
            }
            Instr::Mem { op, byte, rd, rn, offset: MemOffset::Imm(off), up, pre, writeback, .. } => {
                let rd = idx(rd)?;
                let delta = if up { u32::from(off) } else { u32::from(off).wrapping_neg() };
                let writeback = writeback || !pre;
                match (op, rn == Reg::PC) {
                    (MemOp::Ldr, true) if !byte && pre && !writeback => {
                        Op::LdrLit { rd, addr: pc.wrapping_add(4).wrapping_add(delta) }
                    }
                    (_, true) => return None,
                    (MemOp::Ldr, false) => Op::Ldr { byte, rd, rn: idx(rn)?, delta, pre, writeback },
                    (MemOp::Str, false) => Op::Str { byte, rd, rn: idx(rn)?, delta, pre, writeback },
                }
            }
            Instr::Block { op, rn, regs, before, up, writeback, .. } => {
                if regs >> 15 != 0 {
                    return None;
                }
                let rn = idx(rn)?;
                let span = regs.count_ones() * 4;
                // Lowest register at the lowest address (see `exec`).
                let (start, end) = match (up, before) {
                    (true, false) => (0, span),
                    (true, true) => (4, span),
                    (false, false) => (4u32.wrapping_sub(span), span.wrapping_neg()),
                    (false, true) => (span.wrapping_neg(), span.wrapping_neg()),
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
            .map(|(i, &w)| Op::compile(4 * i as u32, w, decode(w).expect("decodes")))
            .collect()
    }

    #[test]
    fn folds_addresses_and_immediates() {
        let ops = compiled("b next\n next: bleq next\n ldr r2, [pc, #-8]\n movs r1, #0x80000000\n");
        assert_eq!(ops[0], Op::Branch { cond: Cond::Al, link: false, target: 4 });
        assert_eq!(ops[1], Op::Branch { cond: Cond::Eq, link: true, target: 4 });
        assert_eq!(ops[2], Op::LdrLit { rd: 2, addr: 8 + 4 - 8 });
        assert_eq!(ops[3], Op::DpImmS { op: DpOp::Mov, rd: 1, rn: 0, imm: 0x8000_0000, carry: Some(true) });
    }

    #[test]
    fn pc_and_conditional_forms_stay_generic() {
        let src = "mov pc, lr\n add r0, pc, #4\n addeq r0, r0, #1\n pop {r4, pc}\n \
                   ldr r0, [r1, r2]\n str r0, [pc]\n swi #1\n mcr c1, r0\n pfueq 1, r0, r1, r2\n";
        for (i, op) in compiled(src).into_iter().enumerate() {
            assert!(matches!(op, Op::Generic { .. }), "line {i}: {op:?}");
        }
    }

    #[test]
    fn block_offsets_match_the_four_modes() {
        let ops = compiled("stmdb r13!, {r0-r2}\n ldmia r13!, {r0-r2}\n ldmib r1, {r2}\n stmda r1, {r2, r3}\n");
        let neg = |n: u32| n.wrapping_neg();
        assert_eq!(ops[0], Op::Stm { rn: 13, regs: 0b111, start: neg(12), end: neg(12), writeback: true });
        assert_eq!(ops[1], Op::Ldm { rn: 13, regs: 0b111, start: 0, end: 12, writeback: true });
        assert_eq!(ops[2], Op::Ldm { rn: 1, regs: 0b100, start: 4, end: 4, writeback: false });
        assert_eq!(ops[3], Op::Stm { rn: 1, regs: 0b1100, start: neg(4), end: neg(8), writeback: false });
    }
}

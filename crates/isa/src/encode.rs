//! Binary encoding.
//!
//! Every instruction is one 32-bit word:
//!
//! ```text
//! [31:28] condition      [27:24] class
//!
//! class 0x0/0x1  data-processing, register operand (class bit 0 = S flag)
//!                [23:20] op  [19:16] rd  [15:12] rn
//!                [11:8] rm  [7:6] shift kind  [5:1] shift amount
//! class 0x2/0x3  data-processing, immediate operand (class bit 0 = S)
//!                [23:20] op  [19:16] rd  [15:12] rn  [11:8] rot  [7:0] imm8
//! class 0x4      multiply: [23] accumulate  [22] S
//!                [19:16] rd  [15:12] rm  [11:8] rs  [7:4] rn
//! class 0x5      load/store, immediate offset:
//!                [23] load  [22] byte  [21] pre  [20] up
//!                [19:16] rd  [15:12] rn  [11] writeback  [10:0] offset
//! class 0x6      load/store, register offset: as 0x5 but
//!                [10:7] rm  [6:5] shift kind  [4:0] shift amount
//! class 0x7      block transfer: [23] load  [22] up  [21] before
//!                [20] writeback  [19:16] rn  [15:0] register list
//! class 0x8      branch: [23] link  [22:0] signed word offset
//! class 0x9      swi: [23:0] imm24
//! class 0xA      pfu: [23:16] cid  [15:12] rd  [11:8] rn  [7:4] rm
//! class 0xB      RFU system ops, [23:20] selects:
//!                0 mcr   [19:16] rfu reg   [15:12] rs
//!                1 mrc   [19:16] rfu reg   [15:12] rd
//!                2 ldop  [19:16] operand   [15:12] rd
//!                3 stres [15:12] rs
//!                4 retsd
//!                5 mcro  [19:16] field     [15:12] rs
//!                6 mrco  [19:16] field     [15:12] rd
//! classes 0xC–0xF are undefined and fault.
//! ```
//!
//! # Canonical forms
//!
//! Several field combinations are redundant: they denote the same
//! operation as another encoding. The encoder always emits — and
//! [`crate::decode()`] always returns — the *canonical* choice, so
//! `encode ∘ decode` is the identity on canonical words and the
//! disassembly of any decoded instruction re-assembles to the same
//! word (DESIGN.md §2, "one text form per operation"):
//!
//! * a **zero-amount shift** passes the value through whatever its
//!   kind; canonical kind is `lsl` (the text form drops it entirely);
//! * an **immediate operand** whose value has several `(imm8, rot)`
//!   representations (e.g. zero) uses the lowest rotation, matching
//!   the assembler's choice;
//! * **test ops** (`tst`/`teq`/`cmp`/`cmn`) ignore `rd` and always set
//!   flags; canonical `rd` is `r0` and `s` is set. **Moves** ignore
//!   `rn`; canonical `rn` is `r0`;
//! * a **zero immediate memory offset** is an addition (`up`): there is
//!   no negative zero;
//! * a **post-indexed access** always writes the address back; the
//!   writeback bit is canonically set when `pre` is clear.

use crate::instr::{BlockOp, Instr, MemOffset, MemOp, Operand2, Shift, ShiftKind};

fn shift_bits(shift: Shift) -> u32 {
    assert!(shift.amount < 32, "shift amount {} out of range", shift.amount);
    // Canonical zero-amount shift is `lsl #0` (pass-through).
    let kind = if shift.amount == 0 { ShiftKind::Lsl } else { shift.kind };
    (kind.bits() << 5) | u32::from(shift.amount)
}

/// Encode an instruction into its 32-bit word.
///
/// # Panics
///
/// Panics if a field is out of its encodable range (shift amount ≥ 32,
/// immediate offset ≥ 2048, branch offset outside ±2²², SWI immediate
/// ≥ 2²⁴, RFU indices ≥ 16). The assembler validates these before
/// constructing an [`Instr`]; direct constructors should too.
pub fn encode(instr: Instr) -> u32 {
    let cond = instr.cond().bits() << 28;
    let body = match instr {
        Instr::DataProc { op, s, rd, rn, op2, .. } => {
            // Canonical ignored fields: tests have no destination, moves
            // have no first operand.
            let s = s || op.is_test();
            let rd_bits = if op.is_test() { 0 } else { rd.bits() };
            let rn_bits = if op.is_move() { 0 } else { rn.bits() };
            match op2 {
                Operand2::Reg { reg, shift } => {
                    let class = if s { 0x1 } else { 0x0 };
                    (class << 24)
                        | (op.bits() << 20)
                        | (rd_bits << 16)
                        | (rn_bits << 12)
                        | (reg.bits() << 8)
                        | (shift_bits(shift) << 1)
                }
                Operand2::Imm { value, rot } => {
                    assert!(rot < 16, "rotation {rot} out of range");
                    // Canonical immediate: lowest rotation denoting the
                    // same constant (zero in particular encodes with
                    // every rotation).
                    let (value, rot) = match Operand2::try_imm(Operand2::imm_value(value, rot)) {
                        Some(Operand2::Imm { value, rot }) => (value, rot),
                        _ => (value, rot),
                    };
                    let class = if s { 0x3 } else { 0x2 };
                    (class << 24)
                        | (op.bits() << 20)
                        | (rd_bits << 16)
                        | (rn_bits << 12)
                        | (u32::from(rot) << 8)
                        | u32::from(value)
                }
            }
        }
        Instr::Mul { s, rd, rm, rs, acc, .. } => {
            (0x4 << 24)
                | (u32::from(acc.is_some()) << 23)
                | (u32::from(s) << 22)
                | (rd.bits() << 16)
                | (rm.bits() << 12)
                | (rs.bits() << 8)
                | (acc.map_or(0, |r| r.bits()) << 4)
        }
        Instr::Mem { op, byte, rd, rn, offset, up, pre, writeback, .. } => {
            let load = matches!(op, MemOp::Ldr);
            // Canonical addressing: a zero immediate offset is an
            // addition (no negative zero) and post-indexed accesses
            // always write back.
            let up = up || matches!(offset, MemOffset::Imm(0));
            let writeback = writeback || !pre;
            let head = (u32::from(load) << 23)
                | (u32::from(byte) << 22)
                | (u32::from(pre) << 21)
                | (u32::from(up) << 20)
                | (rd.bits() << 16)
                | (rn.bits() << 12)
                | (u32::from(writeback) << 11);
            match offset {
                MemOffset::Imm(i) => {
                    assert!(i < 2048, "memory offset {i} out of range");
                    (0x5 << 24) | head | u32::from(i)
                }
                MemOffset::Reg(rm, shift) => {
                    (0x6 << 24) | head | (rm.bits() << 7) | shift_bits(shift)
                }
            }
        }
        Instr::Block { op, rn, regs, before, up, writeback, .. } => {
            let load = matches!(op, BlockOp::Ldm);
            (0x7 << 24)
                | (u32::from(load) << 23)
                | (u32::from(up) << 22)
                | (u32::from(before) << 21)
                | (u32::from(writeback) << 20)
                | (rn.bits() << 16)
                | u32::from(regs)
        }
        Instr::Branch { link, offset, .. } => {
            assert!((-(1 << 22)..(1 << 22)).contains(&offset), "branch offset {offset} out of range");
            (0x8 << 24) | (u32::from(link) << 23) | ((offset as u32) & 0x7F_FFFF)
        }
        Instr::Swi { imm, .. } => {
            assert!(imm < 1 << 24, "swi immediate {imm} out of range");
            (0x9 << 24) | imm
        }
        Instr::Pfu { cid, rd, rn, rm, .. } => {
            (0xA << 24) | (u32::from(cid) << 16) | (rd.bits() << 12) | (rn.bits() << 8) | (rm.bits() << 4)
        }
        Instr::Mcr { rfu, rs, .. } => {
            assert!(rfu < 16, "rfu register {rfu} out of range");
            (0xB << 24) | (u32::from(rfu) << 16) | (rs.bits() << 12)
        }
        Instr::Mrc { rd, rfu, .. } => {
            assert!(rfu < 16, "rfu register {rfu} out of range");
            (0xB << 24) | (0x1 << 20) | (u32::from(rfu) << 16) | (rd.bits() << 12)
        }
        Instr::LdOp { rd, sel, .. } => {
            (0xB << 24) | (0x2 << 20) | (sel.bits() << 16) | (rd.bits() << 12)
        }
        Instr::StRes { rs, .. } => (0xB << 24) | (0x3 << 20) | (rs.bits() << 12),
        Instr::RetSd { .. } => (0xB << 24) | (0x4 << 20),
        Instr::McrO { field, rs, .. } => {
            assert!(field < 16, "operand-block field {field} out of range");
            (0xB << 24) | (0x5 << 20) | (u32::from(field) << 16) | (rs.bits() << 12)
        }
        Instr::MrcO { rd, field, .. } => {
            assert!(field < 16, "operand-block field {field} out of range");
            (0xB << 24) | (0x6 << 20) | (u32::from(field) << 16) | (rd.bits() << 12)
        }
    };
    cond | body
}

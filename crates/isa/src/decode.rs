//! Binary decoding (the inverse of [`crate::encode()`]).

use std::error::Error;
use std::fmt;

use crate::cond::Cond;
use crate::instr::{
    BlockOp, DpOp, Instr, MemOffset, MemOp, Operand2, OperandSel, Shift, ShiftKind,
};
use crate::regs::Reg;

/// Failure to decode a word — the ProteanARM raises an
/// undefined-instruction exception for these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undefined instruction word {:#010x}", self.word)
    }
}

impl Error for DecodeError {}

fn reg(word: u32, lsb: u32) -> Reg {
    Reg::from_bits(word >> lsb)
}

fn shift(word: u32, lsb: u32) -> Shift {
    let amount = ((word >> lsb) & 0x1F) as u8;
    // Canonical zero-amount shift is `lsl #0` whatever the kind bits
    // say: every kind passes the value through at amount 0 (see
    // `crate::encode` module docs, "Canonical forms").
    let kind = if amount == 0 { ShiftKind::Lsl } else { ShiftKind::from_bits(word >> (lsb + 5)) };
    Shift { kind, amount }
}

/// Decode one instruction word.
///
/// # Errors
///
/// [`DecodeError`] if the word uses a reserved class, a reserved condition
/// or a reserved RFU sub-operation.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let cond = Cond::from_bits(word >> 28).ok_or(DecodeError { word })?;
    let class = (word >> 24) & 0xF;
    let instr = match class {
        0x0..=0x3 => {
            let op = DpOp::from_bits(word >> 20);
            let s = class & 1 == 1 || op.is_test();
            let op2 = if class < 2 {
                Operand2::Reg { reg: reg(word, 8), shift: shift(word, 1) }
            } else {
                // Canonical immediate: re-derive the lowest rotation for
                // the denoted constant (zero encodes under every
                // rotation; the assembler always picks the lowest).
                let denoted =
                    Operand2::imm_value((word & 0xFF) as u8, ((word >> 8) & 0xF) as u8);
                Operand2::try_imm(denoted)
                    .expect("every imm8/rot4 constant has a lowest-rotation form")
            };
            // Canonical ignored fields: tests have no destination, moves
            // have no first operand.
            let rd = if op.is_test() { Reg::from_bits(0) } else { reg(word, 16) };
            let rn = if op.is_move() { Reg::from_bits(0) } else { reg(word, 12) };
            Instr::DataProc { op, cond, s, rd, rn, op2 }
        }
        0x4 => Instr::Mul {
            cond,
            s: word >> 22 & 1 == 1,
            rd: reg(word, 16),
            rm: reg(word, 12),
            rs: reg(word, 8),
            acc: (word >> 23 & 1 == 1).then(|| reg(word, 4)),
        },
        0x5 | 0x6 => {
            let op = if word >> 23 & 1 == 1 { MemOp::Ldr } else { MemOp::Str };
            let offset = if class == 0x5 {
                MemOffset::Imm((word & 0x7FF) as u16)
            } else {
                MemOffset::Reg(reg(word, 7), shift(word, 0))
            };
            // Canonical addressing: a zero immediate offset is an
            // addition (no negative zero) and post-indexed accesses
            // always write back — the CPU honours both either way, and
            // the assembly form cannot express the redundant variants.
            let pre = word >> 21 & 1 == 1;
            Instr::Mem {
                op,
                cond,
                byte: word >> 22 & 1 == 1,
                pre,
                up: word >> 20 & 1 == 1 || matches!(offset, MemOffset::Imm(0)),
                rd: reg(word, 16),
                rn: reg(word, 12),
                writeback: word >> 11 & 1 == 1 || !pre,
                offset,
            }
        }
        0x7 => Instr::Block {
            op: if word >> 23 & 1 == 1 { BlockOp::Ldm } else { BlockOp::Stm },
            cond,
            up: word >> 22 & 1 == 1,
            before: word >> 21 & 1 == 1,
            writeback: word >> 20 & 1 == 1,
            rn: reg(word, 16),
            regs: (word & 0xFFFF) as u16,
        },
        0x8 => {
            let raw = word & 0x7F_FFFF;
            // Sign-extend 23 bits.
            let offset = ((raw << 9) as i32) >> 9;
            Instr::Branch { cond, link: word >> 23 & 1 == 1, offset }
        }
        0x9 => Instr::Swi { cond, imm: word & 0xFF_FFFF },
        0xA => Instr::Pfu {
            cond,
            cid: ((word >> 16) & 0xFF) as u8,
            rd: reg(word, 12),
            rn: reg(word, 8),
            rm: reg(word, 4),
        },
        0xB => {
            let sub = (word >> 20) & 0xF;
            let idx = ((word >> 16) & 0xF) as u8;
            match sub {
                0x0 => Instr::Mcr { cond, rfu: idx, rs: reg(word, 12) },
                0x1 => Instr::Mrc { cond, rd: reg(word, 12), rfu: idx },
                0x2 => Instr::LdOp {
                    cond,
                    rd: reg(word, 12),
                    sel: OperandSel::from_bits(u32::from(idx)).ok_or(DecodeError { word })?,
                },
                0x3 => Instr::StRes { cond, rs: reg(word, 12) },
                0x4 => Instr::RetSd { cond },
                0x5 => Instr::McrO { cond, field: idx, rs: reg(word, 12) },
                0x6 => Instr::MrcO { cond, rd: reg(word, 12), field: idx },
                _ => return Err(DecodeError { word }),
            }
        }
        _ => return Err(DecodeError { word }),
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn roundtrip(i: Instr) {
        let word = encode(i);
        let back = decode(word).unwrap_or_else(|e| panic!("decode {i}: {e}"));
        assert_eq!(back, i, "word {word:#010x}");
    }

    #[test]
    fn dataproc_roundtrips() {
        for op in DpOp::ALL {
            for s in [false, true] {
                // Test ops force S semantically; encoder stores the class
                // bit, decoder normalises.
                let s_eff = s || op.is_test();
                // Canonical ignored fields (see encode module docs).
                let rd = if op.is_test() { Reg::new(0) } else { Reg::new(3) };
                let rn = if op.is_move() { Reg::new(0) } else { Reg::new(4) };
                roundtrip(Instr::DataProc {
                    op,
                    cond: Cond::Ne,
                    s: s_eff,
                    rd,
                    rn,
                    op2: Operand2::Imm { value: 0x42, rot: 5 },
                });
                let rd = if op.is_test() { Reg::new(0) } else { Reg::new(15) };
                roundtrip(Instr::DataProc {
                    op,
                    cond: Cond::Al,
                    s: s_eff,
                    rd,
                    rn: Reg::new(0),
                    op2: Operand2::Reg {
                        reg: Reg::new(9),
                        shift: Shift { kind: ShiftKind::Asr, amount: 17 },
                    },
                });
            }
        }
    }

    #[test]
    fn mul_and_mem_roundtrip() {
        roundtrip(Instr::Mul {
            cond: Cond::Al,
            s: true,
            rd: Reg::new(1),
            rm: Reg::new(2),
            rs: Reg::new(3),
            acc: Some(Reg::new(4)),
        });
        roundtrip(Instr::Mem {
            op: MemOp::Ldr,
            cond: Cond::Cs,
            byte: true,
            rd: Reg::new(5),
            rn: Reg::new(6),
            offset: MemOffset::Imm(2047),
            up: false,
            pre: true,
            writeback: true,
        });
        roundtrip(Instr::Mem {
            op: MemOp::Str,
            cond: Cond::Al,
            byte: false,
            rd: Reg::new(7),
            rn: Reg::new(8),
            offset: MemOffset::Reg(Reg::new(9), Shift { kind: ShiftKind::Lsl, amount: 2 }),
            up: true,
            pre: false,
            // Post-indexed accesses always write back (canonical form).
            writeback: true,
        });
    }

    #[test]
    fn branch_offsets_roundtrip_signed() {
        for offset in [-4_194_304i32, -1, 0, 1, 4_194_303] {
            roundtrip(Instr::Branch { cond: Cond::Al, link: true, offset });
        }
    }

    #[test]
    fn proteus_ops_roundtrip() {
        roundtrip(Instr::Pfu { cond: Cond::Al, cid: 255, rd: Reg::new(1), rn: Reg::new(2), rm: Reg::new(3) });
        roundtrip(Instr::Mcr { cond: Cond::Al, rfu: 15, rs: Reg::new(2) });
        roundtrip(Instr::Mrc { cond: Cond::Al, rd: Reg::new(2), rfu: 15 });
        roundtrip(Instr::LdOp { cond: Cond::Al, rd: Reg::new(0), sel: OperandSel::A });
        roundtrip(Instr::LdOp { cond: Cond::Al, rd: Reg::new(0), sel: OperandSel::B });
        roundtrip(Instr::StRes { cond: Cond::Al, rs: Reg::new(0) });
        roundtrip(Instr::RetSd { cond: Cond::Al });
        roundtrip(Instr::McrO { cond: Cond::Al, field: 3, rs: Reg::new(1) });
        roundtrip(Instr::MrcO { cond: Cond::Al, rd: Reg::new(1), field: 3 });
    }

    #[test]
    fn reserved_classes_fault() {
        for class in 0xCu32..=0xF {
            let word = class << 24;
            assert!(decode(word).is_err(), "class {class:#x} should be undefined");
        }
        // Reserved condition 15.
        assert!(decode(0xF000_0000).is_err());
        // Reserved RFU sub-op.
        assert!(decode(0x0B70_0000).is_err());
    }
}

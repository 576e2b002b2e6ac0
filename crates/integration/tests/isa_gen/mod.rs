//! Instruction generators shared by the ISA property tests
//! (`props_isa.rs`) and the interpreter referee (`props_interp.rs`).
//! Every generator yields the canonical form of its instruction, so
//! `decode(encode(i)) == i` for all of them.

use proptest::prelude::*;
use proteus_isa::instr::MemOffset;
use proteus_isa::{BlockOp, Cond, DpOp, Instr, MemOp, Operand2, OperandSel, Reg, Shift, ShiftKind};

pub fn arb_cond() -> impl Strategy<Value = Cond> {
    (0u32..15).prop_map(|b| Cond::from_bits(b).expect("valid"))
}

pub fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

pub fn arb_shift() -> impl Strategy<Value = Shift> {
    ((0u32..4), (0u8..32)).prop_map(|(k, amount)| {
        // Canonical form: a zero-amount shift passes the value through
        // whatever its kind, and the text form drops it entirely.
        let kind = if amount == 0 { ShiftKind::Lsl } else { ShiftKind::from_bits(k) };
        Shift { kind, amount }
    })
}

pub fn arb_op2() -> impl Strategy<Value = Operand2> {
    prop_oneof![
        // Canonical immediate: (value, rot) pairs are not unique (0
        // encodes under every rotation), and the assembler always picks
        // the lowest rotation — mirror that choice.
        ((0u8..=255), (0u8..16)).prop_map(|(value, rot)| {
            Operand2::try_imm(Operand2::imm_value(value, rot)).expect("representable")
        }),
        (arb_reg(), arb_shift()).prop_map(|(reg, shift)| Operand2::Reg { reg, shift }),
    ]
}

pub fn arb_dp() -> impl Strategy<Value = Instr> {
    (arb_cond(), (0u32..16), any::<bool>(), arb_reg(), arb_reg(), arb_op2()).prop_map(
        |(cond, op, s, rd, rn, op2)| {
            let op = DpOp::from_bits(op);
            // Canonical form: test ops have no destination, moves have
            // no first operand (the text form cannot express the ignored
            // field).
            let rd = if op.is_test() { Reg::new(0) } else { rd };
            let rn = if op.is_move() { Reg::new(0) } else { rn };
            Instr::DataProc { op, cond, s: s || op.is_test(), rd, rn, op2 }
        },
    )
}

pub fn arb_mul() -> impl Strategy<Value = Instr> {
    (arb_cond(), any::<bool>(), arb_reg(), arb_reg(), arb_reg(), proptest::option::of(arb_reg()))
        .prop_map(|(cond, s, rd, rm, rs, acc)| Instr::Mul { cond, s, rd, rm, rs, acc })
}

pub fn arb_mem() -> impl Strategy<Value = Instr> {
    (
        arb_cond(),
        any::<bool>(),
        any::<bool>(),
        arb_reg(),
        arb_reg(),
        (0u16..2048),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(cond, load, byte, rd, rn, imm, up, pre, writeback)| Instr::Mem {
            op: if load { MemOp::Ldr } else { MemOp::Str },
            cond,
            byte,
            rd,
            rn,
            offset: MemOffset::Imm(imm),
            // A zero offset is canonically an addition (there is no
            // negative zero).
            up: up || imm == 0,
            pre,
            // Post-indexed access always writes back (the bit is a
            // don't-care the assembly form cannot express).
            writeback: writeback || !pre,
        })
}

pub fn arb_block() -> impl Strategy<Value = Instr> {
    (arb_cond(), any::<bool>(), arb_reg(), (1u16..), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(cond, load, rn, regs, before, up, writeback)| Instr::Block {
            op: if load { BlockOp::Ldm } else { BlockOp::Stm },
            cond,
            rn,
            regs,
            before,
            up,
            writeback,
        },
    )
}

pub fn arb_branch() -> impl Strategy<Value = Instr> {
    (arb_cond(), any::<bool>(), (-(1i32 << 22)..(1i32 << 22)))
        .prop_map(|(cond, link, offset)| Instr::Branch { cond, link, offset })
}

pub fn arb_swi() -> impl Strategy<Value = Instr> {
    (arb_cond(), (0u32..1 << 24)).prop_map(|(cond, imm)| Instr::Swi { cond, imm })
}

pub fn arb_pfu() -> impl Strategy<Value = Instr> {
    (arb_cond(), any::<u8>(), arb_reg(), arb_reg(), arb_reg())
        .prop_map(|(cond, cid, rd, rn, rm)| Instr::Pfu { cond, cid, rd, rn, rm })
}

pub fn arb_ldop() -> impl Strategy<Value = Instr> {
    (arb_cond(), arb_reg(), prop_oneof![Just(OperandSel::A), Just(OperandSel::B)])
        .prop_map(|(cond, rd, sel)| Instr::LdOp { cond, rd, sel })
}

pub fn arb_stres() -> impl Strategy<Value = Instr> {
    (arb_cond(), arb_reg()).prop_map(|(cond, rs)| Instr::StRes { cond, rs })
}

pub fn arb_retsd() -> impl Strategy<Value = Instr> {
    arb_cond().prop_map(|cond| Instr::RetSd { cond })
}

/// Any instruction, each kind equally likely.
pub fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        arb_dp(),
        arb_mul(),
        arb_mem(),
        arb_block(),
        arb_branch(),
        arb_swi(),
        arb_pfu(),
        (arb_cond(), (0u8..16), arb_reg()).prop_map(|(cond, rfu, rs)| Instr::Mcr { cond, rfu, rs }),
        (arb_cond(), arb_reg(), (0u8..16)).prop_map(|(cond, rd, rfu)| Instr::Mrc { cond, rd, rfu }),
        arb_ldop(),
        arb_stres(),
        arb_retsd(),
        (arb_cond(), (0u8..16), arb_reg()).prop_map(|(cond, field, rs)| Instr::McrO { cond, field, rs }),
        (arb_cond(), arb_reg(), (0u8..16)).prop_map(|(cond, rd, field)| Instr::MrcO { cond, rd, field }),
    ]
}

//! Referee for the interpreter's compiled-op lane: `Cpu::run` must agree
//! with the stepped reference lane `Cpu::run_stepped` at every stop of
//! random programs, on registers, CPSR, handler depth, cycles, memory,
//! the execution mix and the dispatch counters.
//!
//! The programs run against a real `Rfu` with one hardware circuit
//! (TLB1) and one software alternative (TLB2) whose handler is part of
//! the program, under random cycle budgets, so quantum expiry lands
//! inside handlers, inside interrupted custom instructions and between
//! any two ops.

mod isa_gen;

use isa_gen::{
    arb_block, arb_branch, arb_dp, arb_instr, arb_ldop, arb_mem, arb_mul, arb_pfu, arb_retsd,
    arb_stres, arb_swi,
};
use proptest::prelude::*;
use proteus_cpu::{Coprocessor, Cpu, Memory, Stop};
use proteus_isa::instr::MemOffset;
use proteus_isa::{decode, encode, Cond, Instr, OperandSel, Reg};
use proteus_rfu::behavioral::FixedLatency;
use proteus_rfu::{Rfu, RfuConfig, TupleKey};

const PID: u32 = 1;
/// Mapped in TLB1 to a 6-cycle circuit on PFU 0.
const HW_CID: u8 = 1;
/// Mapped in TLB2 to the program's handler.
const SW_CID: u8 = 2;
/// Mapped nowhere: issuing it faults.
const UNMAPPED_CID: u8 = 3;
const MEM_BYTES: u32 = 16 * 1024;
const DATA: u32 = 0x2000;
const STACK: u32 = 0x3800;
/// A case ends after this many cycles or stops, whichever comes first.
const MAX_CYCLES: u64 = 20_000;
const MAX_STOPS: usize = 400;

/// One random program, its starting registers and its budget sequence.
#[derive(Debug)]
struct Case {
    main: Vec<Instr>,
    handler: Vec<Instr>,
    regs: Vec<u32>,
    /// `r11`, the base of most loads and stores, points into the program
    /// text instead of the data area: stores patch code.
    text_base: bool,
    budgets: Vec<u64>,
}

/// Keep `instr` inside the playground: no writes to `r11`, `sp` or the
/// PC, loads and stores near `r11` or `sp`, short branches, the three
/// CIDs, resumable `swi`s. `keep_cond` leaves its condition as drawn,
/// otherwise it runs unconditionally.
fn confine(instr: Instr, keep_cond: bool) -> Instr {
    let dst = |r: Reg| if matches!(r.index(), 11 | 13 | 15) { Reg::new(r.index() as u8 - 8) } else { r };
    let base = |r: Reg| if r.index().is_multiple_of(2) { Reg::new(11) } else { Reg::SP };
    let instr = match instr {
        Instr::DataProc { op, cond, s, rd, rn, op2 } => Instr::DataProc { op, cond, s, rd: dst(rd), rn, op2 },
        Instr::Mul { cond, s, rd, rm, rs, acc } => Instr::Mul { cond, s, rd: dst(rd), rm, rs, acc },
        Instr::Mem { op, cond, byte, rd, rn, offset: MemOffset::Imm(imm), up, pre, writeback } => {
            let imm = if byte { imm % 64 } else { (imm % 64) & !3 };
            Instr::Mem {
                op,
                cond,
                byte,
                rd: dst(rd),
                rn: base(rn),
                offset: MemOffset::Imm(imm),
                up: up || imm == 0,
                pre,
                writeback,
            }
        }
        Instr::Block { op, cond, rn, regs, before, up, writeback } => {
            let regs = regs & !(1 << 11 | 1 << 13 | 1 << 15);
            Instr::Block { op, cond, rn: base(rn), regs: if regs == 0 { 1 } else { regs }, before, up, writeback }
        }
        Instr::Branch { cond, link, offset } => Instr::Branch { cond, link, offset: offset % 8 },
        Instr::Swi { cond, imm } => Instr::Swi { cond, imm: 1 + imm % 4 },
        Instr::Pfu { cond, cid, rd, rn, rm } => {
            let cid = [HW_CID, SW_CID, HW_CID, SW_CID, UNMAPPED_CID][usize::from(cid) % 5];
            Instr::Pfu { cond, cid, rd: dst(rd), rn, rm }
        }
        Instr::LdOp { cond, rd, sel } => Instr::LdOp { cond, rd: dst(rd), sel },
        other => other,
    };
    if keep_cond {
        instr
    } else {
        unconditional(instr)
    }
}

/// `instr` with condition `al` (bits 31..28 of every encoding).
fn unconditional(instr: Instr) -> Instr {
    decode(encode(instr) & 0x0FFF_FFFF | Cond::Al.bits() << 28).expect("re-encoded instructions decode")
}

/// One of the lane's specialised kinds, confined; one in four keeps a
/// random condition.
fn arb_confined() -> impl Strategy<Value = Instr> {
    let kind = prop_oneof![
        arb_dp(),
        arb_dp(),
        arb_dp(),
        arb_mul(),
        arb_mem(),
        arb_mem(),
        arb_block(),
        arb_branch(),
        arb_pfu(),
        arb_ldop(),
        arb_stres(),
        arb_retsd(),
        arb_swi(),
    ];
    (kind, 0u8..4).prop_map(|(instr, k)| confine(instr, k == 0))
}

/// Eleven in twelve confined; the rest unrestricted (PC writes,
/// coprocessor moves, wild addresses and branches).
fn arb_program_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_confined(),
        arb_instr().prop_filter("no program-ending swi", |i| !matches!(i, Instr::Swi { imm: 0, .. })),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(arb_program_instr(), 1..48),
        proptest::collection::vec(arb_program_instr(), 0..12),
        proptest::collection::vec(prop_oneof![0u32..64, any::<u32>()], 13..14),
        any::<bool>(),
        proptest::collection::vec(prop_oneof![1u64..8, 8u64..64, 64u64..4_000], 1..16),
    )
        .prop_map(|(main, handler, regs, text_base, budgets)| Case { main, handler, regs, text_base, budgets })
}

/// One lane's machine: core, memory and a unit with both CIDs mapped.
struct Lane {
    cpu: Cpu,
    mem: Memory,
    rfu: Rfu,
}

impl Lane {
    fn new(case: &Case) -> Lane {
        let mut words: Vec<u32> = case.main.iter().map(|&i| encode(i)).collect();
        words.push(encode(Instr::Swi { cond: Cond::Al, imm: 0 }));
        let handler = 4 * words.len() as u32;
        let ldop = |rd, sel| encode(Instr::LdOp { cond: Cond::Al, rd: Reg::new(rd), sel });
        words.extend([ldop(0, OperandSel::A), ldop(1, OperandSel::B)]);
        words.extend(case.handler.iter().map(|&i| encode(i)));
        words.push(encode(Instr::StRes { cond: Cond::Al, rs: Reg::new(2) }));
        words.push(encode(Instr::RetSd { cond: Cond::Al }));

        let mut mem = Memory::new(MEM_BYTES);
        for (i, &w) in words.iter().enumerate() {
            mem.write_word(4 * i as u32, w).expect("program fits");
        }
        let mut cpu = Cpu::new();
        for (i, &v) in case.regs.iter().enumerate() {
            cpu.set_reg(i, v);
        }
        cpu.set_reg(11, if case.text_base { 0 } else { DATA });
        cpu.set_reg(13, STACK);
        cpu.set_reg(14, 0);

        let mut rfu = Rfu::new(RfuConfig::default());
        let circuit = FixedLatency::new("mix", 6, 1, |a, b| a.rotate_left(b & 31) ^ b);
        rfu.pfus_mut().load(0, Box::new(circuit));
        rfu.tlb_hw_mut().insert(0, TupleKey::new(PID, HW_CID), 0);
        rfu.tlb_sw_mut().insert(0, TupleKey::new(PID, SW_CID), handler);
        rfu.write_reg(15, PID);
        Lane { cpu, mem, rfu }
    }
}

fn run_case(case: &Case) -> Result<(), TestCaseError> {
    let mut fast = Lane::new(case);
    let mut slow = Lane::new(case);
    for (n, budget) in case.budgets.iter().cycle().take(MAX_STOPS).enumerate() {
        let until = fast.cpu.cycles() + budget;
        let stop = fast.cpu.run(&mut fast.mem, &mut fast.rfu, until);
        let ref_stop = slow.cpu.run_stepped(&mut slow.mem, &mut slow.rfu, until);
        prop_assert_eq!(stop, ref_stop, "stop {}", n);
        prop_assert_eq!(fast.cpu.save_context(), slow.cpu.save_context(), "stop {}: {:?}", n, stop);
        prop_assert_eq!(fast.cpu.cycles(), slow.cpu.cycles(), "stop {}: {:?}", n, stop);
        prop_assert!(fast.mem == slow.mem, "stop {}: {:?}: memory differs", n, stop);
        prop_assert_eq!(fast.cpu.take_exec_mix(), slow.cpu.take_exec_mix(), "stop {}: {:?}", n, stop);
        prop_assert_eq!(
            fast.rfu.take_dispatch_counters(),
            slow.rfu.take_dispatch_counters(),
            "stop {}: {:?}",
            n,
            stop
        );
        prop_assert_eq!(fast.rfu.operand_block(), slow.rfu.operand_block(), "stop {}: {:?}", n, stop);
        match stop {
            Stop::Quantum | Stop::Swi { imm: 1.. } => {}
            Stop::Swi { imm: 0 } => return Ok(()),
            Stop::CustomFault { pc, .. } | Stop::Undefined { pc, .. } | Stop::MemFault { pc, .. } => {
                // A fault in the fetch itself ends the case; any other
                // is skipped, as a kernel emulating the instruction
                // would.
                if fast.mem.read_word(pc).is_err() {
                    return Ok(());
                }
                fast.cpu.set_pc(pc.wrapping_add(4));
                slow.cpu.set_pc(pc.wrapping_add(4));
            }
        }
        if fast.cpu.cycles() >= MAX_CYCLES {
            return Ok(());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The compiled-op lane and the stepped reference agree at every stop.
    #[test]
    fn compiled_lane_matches_stepped_referee(case in arb_case()) {
        run_case(&case)?;
    }
}

/// The software-dispatch round trip the Fig. 3 workloads live in, with
/// every budget from one cycle up: entry, handler body, nested hardware
/// issue and `retsd` may each be cut by the quantum.
#[test]
fn soft_dispatch_round_trip_under_every_budget() {
    let dp = |rd, rn| Instr::DataProc {
        op: proteus_isa::DpOp::Add,
        cond: Cond::Al,
        s: false,
        rd: Reg::new(rd),
        rn: Reg::new(rn),
        op2: proteus_isa::Operand2::reg(Reg::new(1)),
    };
    let pfu = |cid, rd| Instr::Pfu { cond: Cond::Al, cid, rd: Reg::new(rd), rn: Reg::new(0), rm: Reg::new(1) };
    let main = vec![pfu(SW_CID, 5), dp(6, 5), pfu(HW_CID, 7), pfu(SW_CID, 8)];
    let handler = vec![dp(2, 0), pfu(HW_CID, 3), dp(2, 3)];
    for budget in 1..40 {
        let case = Case {
            main: main.clone(),
            handler: handler.clone(),
            regs: (1..14).collect(),
            text_base: false,
            budgets: vec![budget],
        };
        run_case(&case).unwrap_or_else(|e| panic!("budget {budget}: {e}"));
    }
}

#[test]
fn playground_maps_both_cids() {
    let issue = |cid| Instr::Pfu { cond: Cond::Al, cid, rd: Reg::new(4), rn: Reg::new(0), rm: Reg::new(1) };
    let case = Case {
        main: vec![issue(SW_CID), issue(HW_CID), issue(UNMAPPED_CID)],
        handler: vec![],
        regs: vec![0; 13],
        text_base: false,
        budgets: vec![],
    };
    let mut lane = Lane::new(&case);
    let stop = lane.cpu.run(&mut lane.mem, &mut lane.rfu, u64::MAX);
    assert_eq!(stop, Stop::CustomFault { cid: UNMAPPED_CID, pc: 8 });
    let counters = lane.rfu.take_dispatch_counters();
    assert_eq!((counters.sw_dispatches, counters.hw_dispatches, counters.faults), (1, 1, 1));
}

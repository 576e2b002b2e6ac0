//! The compiled-op lane's two-word op and its coverage of the guests.
//!
//! `Cpu::run` fuses `subs rd, rn, #imm` with a following `b<cond>` into
//! one op. These tests hold it to the stepped referee `Cpu::run_stepped`
//! under every small budget, check that every store path resets a fused
//! op whose branch word it writes, and pin which words of the workload
//! guests fall back to the reference lane (`Op::Generic`).

use proteus_apps::guest::{self, BuiltProgram};
use proteus_cpu::op::Op;
use proteus_cpu::{Cpu, Memory, NullCoprocessor, Stop};
use proteus_isa::{assemble, decode};

fn loaded(src: &str) -> Memory {
    let program = assemble(src).unwrap_or_else(|e| panic!("{e}"));
    let mut mem = Memory::new(4096);
    mem.load_program(&program).expect("program fits");
    mem
}

/// Run `mem` from PC 0 on both lanes, `budget` cycles per span, until
/// `swi #0`; the lanes must agree at every stop. Returns the final core.
fn lanes_agree_per_budget(mem: &Memory, budget: u64) -> Cpu {
    let (mut fast, mut fast_mem) = (Cpu::new(), mem.clone());
    let (mut slow, mut slow_mem) = (Cpu::new(), mem.clone());
    for span in 0..10_000 {
        let until = fast.cycles() + budget;
        let stop = fast.run(&mut fast_mem, &mut NullCoprocessor, until);
        let ref_stop = slow.run_stepped(&mut slow_mem, &mut NullCoprocessor, until);
        let at = format!("budget {budget}, span {span}");
        assert_eq!(stop, ref_stop, "{at}");
        assert_eq!(fast.save_context(), slow.save_context(), "{at}");
        assert_eq!(fast.cycles(), slow.cycles(), "{at}");
        assert!(fast_mem == slow_mem, "{at}: memory differs");
        match stop {
            Stop::Quantum => {}
            Stop::Swi { imm: 0 } => return fast,
            other => panic!("{at}: unexpected stop {other:?}"),
        }
    }
    panic!("budget {budget}: no exit");
}

#[test]
fn fused_countdown_loops_stop_where_the_referee_does() {
    // A backward `bne` over a body, and a `bgt` onto the `subs` itself.
    let bne = loaded("mov r1, #9\n loop: add r2, r2, r1\n subs r1, r1, #1\n bne loop\n swi #0\n");
    let bgt = loaded("mov r1, #9\n loop: subs r1, r1, #2\n bgt loop\n add r2, r1, #5\n swi #0\n");
    for budget in 1..=40 {
        assert_eq!(lanes_agree_per_budget(&bne, budget).reg(2), 45, "budget {budget}");
        assert_eq!(lanes_agree_per_budget(&bgt, budget).reg(2), 4, "budget {budget}");
    }
}

#[test]
fn guest_store_into_its_own_fused_branch_takes_effect() {
    // The loop's second pass stores `b out` over its own `bne`: the
    // fused op compiled on the first pass must not run the old branch.
    let src = "ldr r5, =patch\n ldr r5, [r5]\n ldr r6, =tail\n mov r1, #4\n\
               loop: add r2, r2, #1\n cmp r2, #2\n streq r5, [r6]\n subs r1, r1, #1\n\
               tail: bne loop\n swi #0\n out: mov r4, #7\n swi #0\n\
               patch: .word PATCH\n";
    // The new branch, encoded at the address of `tail`.
    let tail = assemble(&src.replace("PATCH", "0")).expect("asm").symbol("tail").expect("tail") as usize / 4;
    let variant = src.replace("tail: bne loop", "tail: b out").replace("PATCH", "0");
    let word = assemble(&variant).expect("asm").words()[tail];
    let mem = loaded(&src.replace("PATCH", &format!("{word:#x}")));
    for budget in 1..=40 {
        let cpu = lanes_agree_per_budget(&mem, budget);
        assert_eq!((cpu.reg(2), cpu.reg(4)), (2, 7), "budget {budget}");
    }
}

/// The `subs`/`bne` loop the store tests patch: the fused pair is the
/// words at 8 and 12.
const LOOP: &str = "mov r1, #3\n loop: add r2, r2, #1\n subs r1, r1, #1\n bne loop\n swi #0\n\
                    other: mov r4, #7\n swi #0\n";

/// The loop's branch word with `bne loop` replaced by `branch`.
fn branch_word(branch: &str) -> u32 {
    assemble(&LOOP.replace("bne loop", branch)).expect("asm").words()[3]
}

/// Run [`LOOP`] through one pass of its fused pair, apply `patch` to the
/// memory, and finish; both lanes must agree. Returns the final core.
fn patched_after_one_pass(patch: impl Fn(&mut Memory)) -> Cpu {
    let mem = loaded(LOOP);
    let (mut fast, mut fast_mem) = (Cpu::new(), mem.clone());
    let (mut slow, mut slow_mem) = (Cpu::new(), mem);
    // `mov`, `add`, `subs`, taken `bne`: 1 + 1 + 1 + 3 cycles.
    assert_eq!(fast.run(&mut fast_mem, &mut NullCoprocessor, 6), Stop::Quantum);
    assert_eq!(slow.run_stepped(&mut slow_mem, &mut NullCoprocessor, 6), Stop::Quantum);
    assert_eq!(fast.pc(), 4, "one pass ran");
    patch(&mut fast_mem);
    patch(&mut slow_mem);
    let stop = fast.run(&mut fast_mem, &mut NullCoprocessor, u64::MAX);
    assert_eq!(stop, slow.run_stepped(&mut slow_mem, &mut NullCoprocessor, u64::MAX));
    assert_eq!(stop, Stop::Swi { imm: 0 });
    assert_eq!(fast.save_context(), slow.save_context());
    assert_eq!(fast.cycles(), slow.cycles());
    fast
}

#[test]
fn word_store_into_a_fused_branch_takes_effect() {
    let word = branch_word("b other");
    let cpu = patched_after_one_pass(|mem| mem.write_word(12, word).expect("write"));
    assert_eq!((cpu.reg(2), cpu.reg(4)), (2, 7), "the second pass takes the new branch");
}

#[test]
fn byte_store_into_a_fused_branch_takes_effect() {
    // `beq loop` differs from `bne loop` in the condition byte alone.
    let word = branch_word("beq loop");
    assert_eq!(word & 0x00FF_FFFF, branch_word("bne loop") & 0x00FF_FFFF);
    let cpu = patched_after_one_pass(|mem| mem.write_byte(15, (word >> 24) as u8).expect("write"));
    assert_eq!((cpu.reg(1), cpu.reg(2), cpu.reg(4)), (1, 2, 0), "the second pass falls through");
}

#[test]
fn slice_store_into_a_fused_branch_takes_effect() {
    // `bne other` differs from `bne loop` in the offset bytes alone.
    let word = branch_word("bne other");
    assert_eq!(word >> 24, branch_word("bne loop") >> 24);
    let cpu = patched_after_one_pass(|mem| mem.write_bytes(12, &word.to_le_bytes()[..3]).expect("write"));
    assert_eq!((cpu.reg(2), cpu.reg(4)), (2, 7), "the second pass takes the new target");
}

/// Every guest program, accelerated and software builds, at small sizes.
fn guests() -> Vec<(&'static str, BuiltProgram)> {
    let key = [7u8; 16];
    vec![
        ("alpha_accelerated", guest::alpha_accelerated(4, 1, 1)),
        ("alpha_software", guest::alpha_software(4, 1, 1)),
        ("echo_accelerated", guest::echo_accelerated(8, 1, 2, 100, 1)),
        ("echo_software", guest::echo_software(8, 1, 2, 100, 1)),
        ("twofish_accelerated", guest::twofish_accelerated(2, 1, &key, 1)),
        ("twofish_software", guest::twofish_software(2, 1, &key, 1)),
    ]
}

/// The text words of `built` that compile to `Op::Generic`, as assembly.
/// The text runs from `start` to the literal pool, which begins at the
/// lowest literal address.
fn generic_words(built: &BuiltProgram) -> Vec<String> {
    let program = &built.program;
    let start = program.symbol("start").expect("start label");
    let first = ((start - program.origin()) / 4) as usize;
    let mut text = Vec::new();
    let mut pool = u32::MAX;
    for (i, &word) in program.words().iter().enumerate().skip(first) {
        let pc = program.origin() + 4 * i as u32;
        if pc >= pool {
            break;
        }
        let instr = decode(word).unwrap_or_else(|e| panic!("{pc:#x}: {e}"));
        let op = Op::compile(pc, instr);
        if let Op::LdrLit { addr, .. } = op {
            pool = pool.min(addr);
        }
        text.push((instr, op));
    }
    assert!(pool != u32::MAX && text.len() > 8, "a text and a literal pool");
    text.into_iter().filter(|(_, op)| matches!(op, Op::Generic { .. })).map(|(i, _)| i.to_string()).collect()
}

#[test]
fn guest_text_compiles_to_specialised_ops() {
    // The words that run on the reference lane: exits, and the
    // conditional moves of echo's saturation and the Twofish
    // alternative's phase wrap. A guest or compiler change that sends
    // any other word there fails here.
    let pinned: &[(&str, &[&str])] = &[
        ("alpha_accelerated", &["swi #0"]),
        ("alpha_software", &["swi #0"]),
        ("echo_accelerated", &["swi #0", "movgt r2, r3", "movlt r2, r4"]),
        ("echo_software", &["movgt r6, r7", "movlt r6, r7", "swi #0"]),
        ("twofish_accelerated", &["swi #0", "moveq r3, #0"]),
        ("twofish_software", &["swi #0"]),
    ];
    for ((name, built), (pinned_name, expected)) in guests().iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        assert_eq!(generic_words(built), *expected, "{name}");
    }
}

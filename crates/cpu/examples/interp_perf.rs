//! Interpreter throughput probe: times synthetic instruction mixes
//! through the compiled-op lane (`Cpu::run`) and through the stepped
//! reference lane (`Cpu::run_stepped`) and reports host-nanoseconds per
//! simulated cycle for each, side by side. Complements the tracked
//! `repro --bench` harness when attributing interpreter-level
//! regressions — each mix isolates one corner of the hot path (ALU,
//! flags+branch, memory, block transfers, cond-fail), and two replay the
//! workloads' hottest code (a software blend channel, a streaming loop).
//!
//! Run with: `cargo run --release -p proteus-cpu --example interp_perf`

use proteus_cpu::{Cpu, Memory, NullCoprocessor, Stop};
use proteus_isa::assemble;
use std::time::Instant;

/// Host nanoseconds per simulated cycle for one lane over `until` cycles.
fn ns_per_cycle(mem: &Memory, until: u64, lane: fn(&mut Cpu, &mut Memory, u64) -> Stop) -> f64 {
    let mut mem = mem.clone();
    let mut cpu = Cpu::new();
    cpu.set_reg(13, 60 * 1024);
    let t = Instant::now();
    lane(&mut cpu, &mut mem, until);
    t.elapsed().as_secs_f64() * 1e9 / cpu.cycles() as f64
}

/// The compiled-op lane as a function of its own, so its loop is
/// compiled (and can be disassembled) apart from the timing code.
#[inline(never)]
fn run(cpu: &mut Cpu, mem: &mut Memory, until: u64) -> Stop {
    cpu.run(mem, &mut NullCoprocessor, until)
}

/// The stepped reference lane, likewise.
#[inline(never)]
fn run_stepped(cpu: &mut Cpu, mem: &mut Memory, until: u64) -> Stop {
    cpu.run_stepped(mem, &mut NullCoprocessor, until)
}

fn time_program(name: &str, src: &str, until: u64) {
    let p = assemble(src).unwrap();
    let mut mem = Memory::new(64 * 1024);
    mem.load_program(&p).unwrap();
    let run = ns_per_cycle(&mem, until, run);
    let stepped = ns_per_cycle(&mem, until, run_stepped);
    println!(
        "{name:16} {until:>12} cycles: run {run:>6.2} ns/cycle ({:.3e} c/s), run_stepped {stepped:>6.2} ns/cycle, {:.2}x",
        1e9 / run,
        stepped / run
    );
}

fn main() {
    let n: u64 = 100_000_000;
    // Plain ALU chain: the S-clear data-processing fast lane.
    time_program(
        "dp_loop",
        "loop: add r2, r2, r0\n add r2, r2, r0\n add r2, r2, r0\n add r2, r2, r0\n \
         add r2, r2, r0\n add r2, r2, r0\n subs r1, r1, #1\n b loop\n",
        n,
    );
    // Flag-setting + conditional branch per pair.
    time_program("flags_branch", "loop: subs r1, r1, #1\n bne loop\n b loop\n", n);
    // Load/store traffic through the bounds-checked memory port.
    time_program("ldr_str", "mov r0, #4096\nloop: ldr r2, [r0]\n str r2, [r0, #4]\n b loop\n", n);
    // Block transfers: the push/pop pair every software-dispatch
    // handler wraps its body in.
    time_program("push_pop", "loop: push {r0-r11}\n pop {r0-r11}\n push {r0-r3}\n pop {r0-r3}\n b loop\n", n);
    // One channel of the software alpha blend (`sw_blend_channel`, the
    // handler body of the Fig. 3 soft-dispatch regime): shifted moves,
    // `and #imm`, `mul`/`mla`, `add ..., lsr #8`, `orr ..., lsl #8`.
    time_program(
        "blend_channel",
        "loop: mov r7, r0, lsr #8\n and r7, r7, #255\n mov r8, r1, lsr #8\n and r8, r8, #255\n \
         mul r9, r7, r2\n mla r9, r8, r3, r9\n add r9, r9, r9, lsr #8\n add r9, r9, #1\n \
         mov r9, r9, lsr #8\n and r9, r9, #255\n orr r6, r6, r9, lsl #8\n b loop\n",
        n,
    );
    // The workloads' streaming loop: two loads, a store and the
    // `subs`/`bne` countdown, over a 1 KiB buffer.
    time_program(
        "stream_loop",
        "outer: mov r0, #0x4000\n mov r1, #0x6000\n mov r2, #256\n\
         loop: ldr r3, [r0], #4\n ldr r4, [r1]\n str r3, [r1], #4\n subs r2, r2, #1\n bne loop\n b outer\n",
        n,
    );
    // Condition-failed instructions: fetch+skip only.
    time_program(
        "cond_fail",
        "cmp r0, #1\nloop: moveq r2, #1\n moveq r2, #2\n moveq r2, #3\n b loop\n",
        n,
    );
}

//! Guest assembly programs for the three workloads.
//!
//! Each builder emits a complete ProteanARM assembly program (data
//! first, code after, so the literal pool stays in range of the code)
//! plus the *expected checksum* computed by the pure-Rust reference —
//! the guest exits with its own checksum in `r0`, so every scheduling
//! experiment doubles as an end-to-end correctness check of the CPU,
//! RFU, kernel and circuits.
//!
//! Accelerated programs also carry the registered **software
//! alternative** for each custom instruction, written against the
//! `ldop`/`stres`/`retsd` ABI of §4.3 (operands read from the RFU's
//! latched operand registers; the hardware writes the staged result into
//! the faulting instruction's destination on `retsd`). The routines
//! preserve every register they touch, because they are entered from
//! arbitrary points in the application.

use std::fmt::Write as _;

use proteus_isa::{assemble, Program};

use crate::alpha;
use crate::echo;
use crate::twofish::Twofish;

/// A built guest program plus ground truth.
#[derive(Debug, Clone)]
pub struct BuiltProgram {
    /// The assembled binary.
    pub program: Program,
    /// Checksum the process must exit with.
    pub expected_checksum: u32,
}

/// Guest source text plus the generated data of its data sections.
///
/// A data section is emitted as `label: .space 4·n` and its words are
/// copied into the assembled image at the label, so no data word goes
/// through text.
struct GuestSource {
    text: String,
    data: Vec<(&'static str, Vec<u32>)>,
}

impl GuestSource {
    fn new() -> Self {
        Self { text: String::from(".org 0\n"), data: Vec::new() }
    }

    /// Append a data section holding `words`.
    fn data(&mut self, label: &'static str, words: Vec<u32>) {
        let _ = writeln!(self.text, "{label}:\n    .space {}", words.len() * 4);
        self.data.push((label, words));
    }

    /// Assemble the text and copy each data section into the image.
    fn assemble(self, what: &str) -> Program {
        let mut program = assemble(&self.text).unwrap_or_else(|e| panic!("{what} assembles: {e}"));
        for (label, words) in &self.data {
            let addr = program.symbol(label).expect("data sections are labelled");
            program.write_words(addr, words);
        }
        program
    }
}

fn checksum(words: &[u32]) -> u32 {
    words.iter().fold(0u32, |acc, &w| acc.wrapping_add(w))
}

/// The shared checksum epilogue: sums `count` words at `label` into
/// `r0` and exits.
fn checksum_epilogue(label: &str, count: usize) -> String {
    format!(
        "    ldr r0, ={label}\n\
         \x20   ldr r2, ={count}\n\
         \x20   mov r1, #0\n\
         sum_loop:\n\
         \x20   ldr r3, [r0], #4\n\
         \x20   add r1, r1, r3\n\
         \x20   subs r2, r2, #1\n\
         \x20   bne sum_loop\n\
         \x20   mov r0, r1\n\
         \x20   swi #0\n"
    )
}

/// One software alpha-blend channel: `(s·α + d·(255−α) + …) >> 8` with
/// the same divide-by-255 approximation as the circuit. Reads channel
/// `shift` of `src`/`dst`, ORs into `out`.
#[allow(clippy::too_many_arguments)]
fn sw_blend_channel(
    src: &str,
    dst: &str,
    alpha: &str,
    nalpha: &str,
    out: &str,
    t0: &str,
    t1: &str,
    t2: &str,
    shift: u32,
) -> String {
    let mut s = String::new();
    if shift == 0 {
        let _ = writeln!(s, "    and {t0}, {src}, #255");
        let _ = writeln!(s, "    and {t1}, {dst}, #255");
    } else {
        let _ = writeln!(s, "    mov {t0}, {src}, lsr #{shift}");
        let _ = writeln!(s, "    and {t0}, {t0}, #255");
        let _ = writeln!(s, "    mov {t1}, {dst}, lsr #{shift}");
        let _ = writeln!(s, "    and {t1}, {t1}, #255");
    }
    let _ = writeln!(s, "    mul {t2}, {t0}, {alpha}");
    let _ = writeln!(s, "    mla {t2}, {t1}, {nalpha}, {t2}");
    let _ = writeln!(s, "    add {t2}, {t2}, {t2}, lsr #8");
    let _ = writeln!(s, "    add {t2}, {t2}, #1");
    let _ = writeln!(s, "    mov {t2}, {t2}, lsr #8");
    let _ = writeln!(s, "    and {t2}, {t2}, #255");
    if shift == 0 {
        let _ = writeln!(s, "    orr {out}, {out}, {t2}");
    } else {
        let _ = writeln!(s, "    orr {out}, {out}, {t2}, lsl #{shift}");
    }
    s
}

/// The alpha data sections (`src`, `dst`) and the checksum of `dst`
/// after `passes` in-place blends of `src` over it.
fn alpha_data(npix: usize, passes: u32, seed: u32) -> (GuestSource, u32) {
    let src = alpha::test_pixels(npix, seed);
    let dst0 = alpha::test_pixels(npix, seed.wrapping_add(1));
    let mut dst = dst0.clone();
    alpha::blend_image(&src, &mut dst, passes);
    let mut source = GuestSource::new();
    source.data("src", src);
    source.data("dst", dst0);
    (source, checksum(&dst))
}

/// Build the accelerated alpha-blending program (one custom
/// instruction, CID 0). `src` is blended over `dst` in place for
/// `passes` passes.
pub fn alpha_accelerated(npix: usize, passes: u32, seed: u32) -> BuiltProgram {
    let (mut source, expected_checksum) = alpha_data(npix, passes, seed);
    let text = &mut source.text;
    let _ = write!(
        text,
        "start:\n\
         \x20   ldr r9, ={passes}\n\
         pass_loop:\n\
         \x20   ldr r0, =src\n\
         \x20   ldr r1, =dst\n\
         \x20   ldr r2, ={npix}\n\
         pix_loop:\n\
         \x20   ldr r3, [r0], #4\n\
         \x20   ldr r4, [r1]\n\
         \x20   pfu 0, r5, r3, r4\n\
         \x20   str r5, [r1], #4\n\
         \x20   subs r2, r2, #1\n\
         \x20   bne pix_loop\n\
         \x20   subs r9, r9, #1\n\
         \x20   bne pass_loop\n"
    );
    text.push_str(&checksum_epilogue("dst", npix));
    // Software alternative: whole-pixel blend under the §4.3 ABI.
    text.push_str("sw_blend:\n    push {r0-r11}\n    ldop r0, a\n    ldop r1, b\n");
    text.push_str("    mov r2, r0, lsr #24\n    rsb r3, r2, #255\n    and r6, r1, #0xFF000000\n");
    for shift in [0u32, 8, 16] {
        text.push_str(&sw_blend_channel("r0", "r1", "r2", "r3", "r6", "r7", "r8", "r9", shift));
    }
    text.push_str("    stres r6\n    pop {r0-r11}\n    retsd\n");
    BuiltProgram { program: source.assemble("alpha_accelerated"), expected_checksum }
}

/// Build the pure-software alpha program (no custom instructions): the
/// unaccelerated baseline for the speedup claim.
pub fn alpha_software(npix: usize, passes: u32, seed: u32) -> BuiltProgram {
    let (mut source, expected_checksum) = alpha_data(npix, passes, seed);
    let text = &mut source.text;
    let _ = write!(
        text,
        "start:\n\
         \x20   ldr r9, ={passes}\n\
         pass_loop:\n\
         \x20   ldr r0, =src\n\
         \x20   ldr r1, =dst\n\
         \x20   ldr r2, ={npix}\n\
         pix_loop:\n\
         \x20   ldr r3, [r0], #4\n\
         \x20   ldr r4, [r1]\n\
         \x20   mov r6, r3, lsr #24\n\
         \x20   rsb r7, r6, #255\n\
         \x20   and r5, r4, #0xFF000000\n"
    );
    for shift in [0u32, 8, 16] {
        text.push_str(&sw_blend_channel("r3", "r4", "r6", "r7", "r5", "r8", "r10", "r11", shift));
    }
    let _ = write!(
        text,
        "    str r5, [r1], #4\n\
         \x20   subs r2, r2, #1\n\
         \x20   bne pix_loop\n\
         \x20   subs r9, r9, #1\n\
         \x20   bne pass_loop\n"
    );
    text.push_str(&checksum_epilogue("dst", npix));
    BuiltProgram { program: source.assemble("alpha_software"), expected_checksum }
}

/// The echo data sections (`input`, then the `zeros` history and the
/// `output` buffer) and the checksum of the reference output.
fn echo_data(nsamples: usize, delay: usize, gain: u32, seed: u32) -> (GuestSource, u32) {
    assert!(delay > 0 && delay < nsamples, "delay must be within the buffer");
    let input = echo::test_samples(nsamples, seed);
    let expected_checksum = checksum(&echo::echo_ref(&input, delay, gain));
    let mut source = GuestSource::new();
    source.data("input", input);
    // A zero prefix directly before the output buffer stands in for the
    // y[n-D] history of the first D samples.
    let _ = writeln!(source.text, "zeros:\n    .space {}", delay * 4);
    let _ = writeln!(source.text, "output:\n    .space {}", nsamples * 4);
    (source, expected_checksum)
}

/// Build the accelerated echo program: **two** custom instructions in a
/// tight loop (CID 0 = scale, CID 1 = saturating add).
pub fn echo_accelerated(
    nsamples: usize,
    passes: u32,
    delay: usize,
    gain: u32,
    seed: u32,
) -> BuiltProgram {
    let (mut source, expected_checksum) = echo_data(nsamples, delay, gain, seed);
    let text = &mut source.text;
    let _ = write!(
        text,
        "start:\n\
         \x20   ldr r9, ={passes}\n\
         \x20   ldr r12, ={gain}\n\
         pass_loop:\n\
         \x20   ldr r0, =input\n\
         \x20   ldr r1, =output\n\
         \x20   ldr r4, =zeros\n\
         \x20   ldr r2, ={nsamples}\n\
         sample_loop:\n\
         \x20   ldr r3, [r0], #4\n\
         \x20   ldr r5, [r4], #4\n\
         \x20   pfu 0, r6, r5, r12\n\
         \x20   pfu 1, r7, r3, r6\n\
         \x20   str r7, [r1], #4\n\
         \x20   subs r2, r2, #1\n\
         \x20   bne sample_loop\n\
         \x20   subs r9, r9, #1\n\
         \x20   bne pass_loop\n"
    );
    text.push_str(&checksum_epilogue("output", nsamples));
    // Software alternatives.
    text.push_str(
        "sw_scale:\n\
         \x20   push {r0-r3}\n\
         \x20   ldop r0, a\n\
         \x20   ldop r1, b\n\
         \x20   mov r0, r0, lsl #16\n\
         \x20   mov r0, r0, asr #16\n\
         \x20   mul r2, r0, r1\n\
         \x20   mov r2, r2, asr #8\n\
         \x20   ldr r3, =0xFFFF\n\
         \x20   and r2, r2, r3\n\
         \x20   stres r2\n\
         \x20   pop {r0-r3}\n\
         \x20   retsd\n\
         sw_satadd:\n\
         \x20   push {r0-r4}\n\
         \x20   ldop r0, a\n\
         \x20   ldop r1, b\n\
         \x20   mov r0, r0, lsl #16\n\
         \x20   mov r0, r0, asr #16\n\
         \x20   mov r1, r1, lsl #16\n\
         \x20   mov r1, r1, asr #16\n\
         \x20   add r2, r0, r1\n\
         \x20   ldr r3, =32767\n\
         \x20   cmp r2, r3\n\
         \x20   movgt r2, r3\n\
         \x20   ldr r4, =0xFFFF8000\n\
         \x20   cmp r2, r4\n\
         \x20   movlt r2, r4\n\
         \x20   ldr r3, =0xFFFF\n\
         \x20   and r2, r2, r3\n\
         \x20   stres r2\n\
         \x20   pop {r0-r4}\n\
         \x20   retsd\n",
    );
    BuiltProgram { program: source.assemble("echo_accelerated"), expected_checksum }
}

/// Build the pure-software echo program.
pub fn echo_software(
    nsamples: usize,
    passes: u32,
    delay: usize,
    gain: u32,
    seed: u32,
) -> BuiltProgram {
    let (mut source, expected_checksum) = echo_data(nsamples, delay, gain, seed);
    let text = &mut source.text;
    let _ = write!(
        text,
        "start:\n\
         \x20   ldr r9, ={passes}\n\
         \x20   ldr r12, ={gain}\n\
         pass_loop:\n\
         \x20   ldr r0, =input\n\
         \x20   ldr r1, =output\n\
         \x20   ldr r4, =zeros\n\
         \x20   ldr r2, ={nsamples}\n\
         sample_loop:\n\
         \x20   ldr r3, [r0], #4\n\
         \x20   ldr r5, [r4], #4\n\
         \x20   mov r6, r5, lsl #16\n\
         \x20   mov r6, r6, asr #16\n\
         \x20   mul r6, r6, r12\n\
         \x20   mov r6, r6, asr #8\n\
         \x20   mov r6, r6, lsl #16\n\
         \x20   mov r6, r6, asr #16\n\
         \x20   mov r7, r3, lsl #16\n\
         \x20   mov r7, r7, asr #16\n\
         \x20   add r6, r7, r6\n\
         \x20   ldr r7, =32767\n\
         \x20   cmp r6, r7\n\
         \x20   movgt r6, r7\n\
         \x20   ldr r7, =0xFFFF8000\n\
         \x20   cmp r6, r7\n\
         \x20   movlt r6, r7\n\
         \x20   ldr r7, =0xFFFF\n\
         \x20   and r6, r6, r7\n\
         \x20   str r6, [r1], #4\n\
         \x20   subs r2, r2, #1\n\
         \x20   bne sample_loop\n\
         \x20   subs r9, r9, #1\n\
         \x20   bne pass_loop\n"
    );
    text.push_str(&checksum_epilogue("output", nsamples));
    BuiltProgram { program: source.assemble("echo_software"), expected_checksum }
}

/// Test plaintext blocks as little-endian words.
pub fn twofish_test_blocks(nblocks: usize, seed: u32) -> Vec<u32> {
    alpha::test_pixels(nblocks * 4, seed ^ 0x7F4A_7C15)
}

/// The Twofish data sections (`input`, `output`, the expanded `keys`
/// and the interleaved g tables `gtab`) and the checksum of the
/// reference ciphertext.
fn twofish_data(nblocks: usize, key: &[u8; 16], seed: u32) -> (GuestSource, u32) {
    let tf = Twofish::new(key);
    let ks = tf.key_schedule();
    let input = twofish_test_blocks(nblocks, seed);
    let ciphertext: Vec<u32> = input
        .chunks_exact(4)
        .flat_map(|w| tf.encrypt_words(w.try_into().expect("chunk of 4")))
        .collect();
    let mut source = GuestSource::new();
    source.data("input", input);
    let _ = writeln!(source.text, "output:\n    .space {}", nblocks * 16);
    source.data("keys", ks.k.to_vec());
    // Layout [byte][lane] so a single `add t, base, b, lsl #4` plus
    // small immediate offsets reaches all four lanes.
    let t = ks.g_tables();
    source.data("gtab", (0..256).flat_map(|b| t.iter().map(move |lane| lane[b])).collect());
    (source, checksum(&ciphertext))
}

/// Emit an inline g-function lookup: 17 instructions using `lr` as the
/// (interleaved) table base, one temp register.
fn g_inline(input: &str, out: &str, tmp: &str) -> String {
    format!(
        "    and {tmp}, {input}, #255\n\
         \x20   add {tmp}, lr, {tmp}, lsl #4\n\
         \x20   ldr {out}, [{tmp}]\n\
         \x20   mov {tmp}, {input}, lsr #8\n\
         \x20   and {tmp}, {tmp}, #255\n\
         \x20   add {tmp}, lr, {tmp}, lsl #4\n\
         \x20   ldr {tmp}, [{tmp}, #4]\n\
         \x20   eor {out}, {out}, {tmp}\n\
         \x20   mov {tmp}, {input}, lsr #16\n\
         \x20   and {tmp}, {tmp}, #255\n\
         \x20   add {tmp}, lr, {tmp}, lsl #4\n\
         \x20   ldr {tmp}, [{tmp}, #8]\n\
         \x20   eor {out}, {out}, {tmp}\n\
         \x20   mov {tmp}, {input}, lsr #24\n\
         \x20   add {tmp}, lr, {tmp}, lsl #4\n\
         \x20   ldr {tmp}, [{tmp}, #12]\n\
         \x20   eor {out}, {out}, {tmp}\n"
    )
}

/// The software Feistel round body: two inline g lookups (table base in
/// `lr`), PHT, subkey adds, rotate/XOR and the word swap.
fn twofish_round_body(loop_label: &str) -> String {
    let mut s = String::new();
    s.push_str(&g_inline("r0", "r5", "r12"));
    s.push_str("    mov r7, r1, ror #24\n");
    s.push_str(&g_inline("r7", "r6", "r12"));
    s.push_str(&format!(
        "    add r7, r5, r6\n\
         \x20   add r6, r5, r6, lsl #1\n\
         \x20   ldr r12, [r4], #4\n\
         \x20   add r7, r7, r12\n\
         \x20   ldr r12, [r4], #4\n\
         \x20   add r6, r6, r12\n\
         \x20   eor r2, r2, r7\n\
         \x20   mov r2, r2, ror #1\n\
         \x20   mov r3, r3, ror #31\n\
         \x20   eor r3, r3, r6\n\
         \x20   mov r7, r0\n\
         \x20   mov r0, r2\n\
         \x20   mov r2, r7\n\
         \x20   mov r7, r1\n\
         \x20   mov r1, r3\n\
         \x20   mov r3, r7\n\
         \x20   subs r11, r11, #1\n\
         \x20   bne {loop_label}\n",
    ));
    s
}

/// The software whitening + 16-round + output-whitening block body:
/// encrypts `r0`–`r3` in place (clobbers `r4`–`r7`, `r11`, `r12`;
/// expects the interleaved table base in `lr`). Ends with the output
/// words in `r2, r3, r0, r1` order.
fn twofish_sw_encrypt_body(loop_label: &str) -> String {
    format!(
        "    ldr r4, =keys\n\
         \x20   ldr r12, [r4], #4\n\
         \x20   eor r0, r0, r12\n\
         \x20   ldr r12, [r4], #4\n\
         \x20   eor r1, r1, r12\n\
         \x20   ldr r12, [r4], #4\n\
         \x20   eor r2, r2, r12\n\
         \x20   ldr r12, [r4], #4\n\
         \x20   eor r3, r3, r12\n\
         \x20   add r4, r4, #16\n\
         \x20   mov r11, #16\n\
         {loop_label}:\n\
         {round}\
         \x20   ldr r7, =keys\n\
         \x20   ldr r12, [r7, #16]\n\
         \x20   eor r2, r2, r12\n\
         \x20   ldr r12, [r7, #20]\n\
         \x20   eor r3, r3, r12\n\
         \x20   ldr r12, [r7, #24]\n\
         \x20   eor r0, r0, r12\n\
         \x20   ldr r12, [r7, #28]\n\
         \x20   eor r1, r1, r12\n",
        round = twofish_round_body(loop_label),
    )
}

/// The accelerated main loop: five `pfu` invocations per block (the
/// phase-machine protocol of
/// [`crate::twofish::BlockCircuit`]).
fn twofish_accelerated_loop(nblocks: usize, passes: u32) -> String {
    // NOTE: software dispatch writes `lr` (it is a hardware
    // branch-and-link), so the pass counter lives in memory — a register
    // would be clobbered whenever the OS defers CID 0 to `sw_tf`.
    format!(
        "start:\n\
         \x20   ldr r7, ={passes}\n\
         \x20   ldr r6, =passctr\n\
         \x20   str r7, [r6]\n\
         pass_loop:\n\
         \x20   ldr r8, =input\n\
         \x20   ldr r9, =output\n\
         \x20   ldr r10, ={nblocks}\n\
         block_loop:\n\
         \x20   ldr r0, [r8], #4\n\
         \x20   ldr r1, [r8], #4\n\
         \x20   ldr r2, [r8], #4\n\
         \x20   ldr r3, [r8], #4\n\
         \x20   pfu 0, r5, r0, r1\n\
         \x20   pfu 0, r5, r2, r3\n\
         \x20   str r5, [r9], #4\n\
         \x20   pfu 0, r5, r0, r0\n\
         \x20   str r5, [r9], #4\n\
         \x20   pfu 0, r5, r0, r0\n\
         \x20   str r5, [r9], #4\n\
         \x20   pfu 0, r5, r0, r0\n\
         \x20   str r5, [r9], #4\n\
         \x20   subs r10, r10, #1\n\
         \x20   bne block_loop\n\
         \x20   ldr r6, =passctr\n\
         \x20   ldr r7, [r6]\n\
         \x20   subs r7, r7, #1\n\
         \x20   str r7, [r6]\n\
         \x20   bne pass_loop\n"
    )
}

/// The pure-software main loop: full table-driven encryption inline.
fn twofish_software_loop(nblocks: usize, passes: u32) -> String {
    format!(
        "start:\n\
         \x20   ldr r7, ={passes}\n\
         \x20   ldr r6, =passctr\n\
         \x20   str r7, [r6]\n\
         \x20   ldr lr, =gtab\n\
         pass_loop:\n\
         \x20   ldr r8, =input\n\
         \x20   ldr r9, =output\n\
         \x20   ldr r10, ={nblocks}\n\
         block_loop:\n\
         \x20   ldr r0, [r8], #4\n\
         \x20   ldr r1, [r8], #4\n\
         \x20   ldr r2, [r8], #4\n\
         \x20   ldr r3, [r8], #4\n\
         {encrypt}\
         \x20   str r2, [r9], #4\n\
         \x20   str r3, [r9], #4\n\
         \x20   str r0, [r9], #4\n\
         \x20   str r1, [r9], #4\n\
         \x20   subs r10, r10, #1\n\
         \x20   bne block_loop\n\
         \x20   ldr r6, =passctr\n\
         \x20   ldr r7, [r6]\n\
         \x20   subs r7, r7, #1\n\
         \x20   str r7, [r6]\n\
         \x20   bne pass_loop\n",
        encrypt = twofish_sw_encrypt_body("round_loop"),
    )
}

/// The registered software alternative for the block circuit: the same
/// phase machine, with state in process memory (`tfphase`/`tfw`/`tfct`)
/// and the encryption done by the table-driven software path.
fn twofish_sw_alternative() -> String {
    format!(
        "sw_tf:\n\
         \x20   push {{r0-r12, lr}}\n\
         \x20   ldop r0, a\n\
         \x20   ldop r1, b\n\
         \x20   ldr r2, =tfphase\n\
         \x20   ldr r3, [r2]\n\
         \x20   cmp r3, #0\n\
         \x20   bne sw_tf_p1\n\
         \x20   ldr r4, =tfw\n\
         \x20   str r0, [r4]\n\
         \x20   str r1, [r4, #4]\n\
         \x20   mov r3, #1\n\
         \x20   str r3, [r2]\n\
         \x20   mov r0, #0\n\
         \x20   stres r0\n\
         \x20   pop {{r0-r12, lr}}\n\
         \x20   retsd\n\
         sw_tf_p1:\n\
         \x20   cmp r3, #1\n\
         \x20   bne sw_tf_out\n\
         \x20   ldr r4, =tfw\n\
         \x20   str r0, [r4, #8]\n\
         \x20   str r1, [r4, #12]\n\
         \x20   ldr r0, [r4]\n\
         \x20   ldr r1, [r4, #4]\n\
         \x20   ldr r2, [r4, #8]\n\
         \x20   ldr r3, [r4, #12]\n\
         \x20   ldr lr, =gtab\n\
         {encrypt}\
         \x20   ldr r4, =tfct\n\
         \x20   str r2, [r4]\n\
         \x20   str r3, [r4, #4]\n\
         \x20   str r0, [r4, #8]\n\
         \x20   str r1, [r4, #12]\n\
         \x20   ldr r4, =tfphase\n\
         \x20   mov r5, #2\n\
         \x20   str r5, [r4]\n\
         \x20   stres r2\n\
         \x20   pop {{r0-r12, lr}}\n\
         \x20   retsd\n\
         sw_tf_out:\n\
         \x20   ldr r4, =tfct\n\
         \x20   sub r5, r3, #1\n\
         \x20   add r4, r4, r5, lsl #2\n\
         \x20   ldr r0, [r4]\n\
         \x20   add r3, r3, #1\n\
         \x20   cmp r3, #5\n\
         \x20   moveq r3, #0\n\
         \x20   str r3, [r2]\n\
         \x20   stres r0\n\
         \x20   pop {{r0-r12, lr}}\n\
         \x20   retsd\n",
        encrypt = twofish_sw_encrypt_body("sw_round"),
    )
}

/// Build the accelerated Twofish program: the whole block path runs as
/// custom instruction CID 0 (key baked into the configuration), driven
/// through the five-invocation phase protocol. The interleaved g tables
/// are embedded for the registered software alternative (`sw_tf`),
/// which replicates the phase machine with its state in process memory.
pub fn twofish_accelerated(nblocks: usize, passes: u32, key: &[u8; 16], seed: u32) -> BuiltProgram {
    let (mut source, expected_checksum) = twofish_data(nblocks, key, seed);
    let text = &mut source.text;
    text.push_str("passctr:\n    .word 0\ntfphase:\n    .word 0\ntfw:\n    .space 16\ntfct:\n    .space 16\n");
    text.push_str(&twofish_accelerated_loop(nblocks, passes));
    text.push_str(&checksum_epilogue("output", nblocks * 4));
    text.push_str(&twofish_sw_alternative());
    BuiltProgram { program: source.assemble("twofish_accelerated"), expected_checksum }
}

/// Build the pure-software Twofish program (table-driven rounds inline).
pub fn twofish_software(nblocks: usize, passes: u32, key: &[u8; 16], seed: u32) -> BuiltProgram {
    let (mut source, expected_checksum) = twofish_data(nblocks, key, seed);
    let text = &mut source.text;
    text.push_str("passctr:\n    .word 0\n");
    text.push_str(&twofish_software_loop(nblocks, passes));
    text.push_str(&checksum_epilogue("output", nblocks * 4));
    BuiltProgram { program: source.assemble("twofish_software"), expected_checksum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use porsche::kernel::{Kernel, KernelConfig, SpawnSpec};
    use porsche::process::CircuitSpec;
    use proteus_cpu::Cpu;
    use proteus_rfu::{Rfu, RfuConfig};

    fn run_one(built: &BuiltProgram, circuits: Vec<CircuitSpec>) -> (u32, u64) {
        let entry = built.program.symbol("start").expect("start label");
        let mut spec = SpawnSpec::new(&built.program).entry(entry);
        for c in circuits {
            spec = spec.circuit(c);
        }
        let mut kernel = Kernel::new(KernelConfig::default());
        kernel.spawn(spec).expect("spawn");
        let mut cpu = Cpu::new();
        let mut rfu = Rfu::new(RfuConfig::default());
        let report = kernel.run(&mut cpu, &mut rfu, 2_000_000_000).expect("run");
        assert!(report.killed.is_empty(), "process killed: {report:?}");
        (report.exited[0].2, report.makespan)
    }

    #[test]
    fn alpha_accelerated_checksum_matches() {
        let built = alpha_accelerated(32, 2, 11);
        let sw = built.program.symbol("sw_blend");
        let (code, _) = run_one(
            &built,
            vec![CircuitSpec { cid: 0, circuit: alpha::blend_circuit(), software_alt: sw, image: None }],
        );
        assert_eq!(code, built.expected_checksum);
    }

    #[test]
    fn alpha_software_checksum_matches() {
        let built = alpha_software(32, 2, 11);
        let (code, _) = run_one(&built, vec![]);
        assert_eq!(code, built.expected_checksum);
    }

    #[test]
    fn alpha_accelerated_beats_software() {
        // Needs a non-trivial workload: the one-time 54 KB configuration
        // load (~13.6k cycles) must amortise, exactly as in the paper.
        let acc = alpha_accelerated(256, 8, 3);
        let sw = alpha_software(256, 8, 3);
        let (ca, ta) = run_one(
            &acc,
            vec![CircuitSpec { cid: 0, circuit: alpha::blend_circuit(), software_alt: None, image: None }],
        );
        let (cs, ts) = run_one(&sw, vec![]);
        assert_eq!(ca, cs, "both variants compute the same image");
        assert!(ta < ts, "accelerated {ta} should beat software {ts}");
    }

    #[test]
    fn echo_accelerated_checksum_matches() {
        let built = echo_accelerated(64, 2, 8, 0x80, 5);
        let (code, _) = run_one(
            &built,
            vec![
                CircuitSpec {
                    cid: 0,
                    circuit: echo::scale_circuit(),
                    software_alt: built.program.symbol("sw_scale"), image: None },
                CircuitSpec {
                    cid: 1,
                    circuit: echo::sat_add_circuit(),
                    software_alt: built.program.symbol("sw_satadd"), image: None },
            ],
        );
        assert_eq!(code, built.expected_checksum);
    }

    #[test]
    fn echo_software_checksum_matches() {
        let built = echo_software(64, 2, 8, 0x80, 5);
        let (code, _) = run_one(&built, vec![]);
        assert_eq!(code, built.expected_checksum);
    }

    #[test]
    fn twofish_accelerated_checksum_matches() {
        let key = *b"proteus-arm-key!";
        let built = twofish_accelerated(4, 2, &key, 77);
        let circuit = Box::new(crate::twofish::BlockCircuit::new(&key));
        let (code, _) = run_one(
            &built,
            vec![CircuitSpec { cid: 0, circuit, software_alt: built.program.symbol("sw_tf"), image: None }],
        );
        assert_eq!(code, built.expected_checksum);
    }

    #[test]
    fn twofish_software_alternative_path_matches() {
        // Run the accelerated program but with a 1-PFU RFU occupied by a
        // decoy, SoftwareFallback mode: every invocation goes through
        // sw_tf's in-memory phase machine.
        use porsche::cis::DispatchMode;
        let key = *b"proteus-arm-key!";
        let built = twofish_accelerated(3, 2, &key, 42);
        let entry = built.program.symbol("start").expect("start");
        let mut kernel = Kernel::new(KernelConfig {
            mode: DispatchMode::SoftwareFallback,
            quantum: 20_000, // interleave so the decoy still owns the PFU
            ..KernelConfig::default()
        });
        // Decoy process that grabs the single PFU and spins.
        let decoy_prog = proteus_isa::assemble(
            "start:\n ldr r2, =5000\nloop: pfu 0, r1, r0, r0\n subs r2, r2, #1\n bne loop\n mov r0, #0\n swi #0\n",
        )
        .expect("decoy");
        let decoy_entry = decoy_prog.symbol("start").expect("start");
        kernel
            .spawn(SpawnSpec::new(&decoy_prog).entry(decoy_entry).circuit(CircuitSpec {
                cid: 0,
                circuit: Box::new(proteus_rfu::behavioral::FixedLatency::new("spin", 40, 4, |a, _| a)),
                software_alt: None, image: None }))
            .expect("spawn decoy");
        kernel
            .spawn(
                SpawnSpec::new(&built.program)
                    .entry(entry)
                    .circuit(CircuitSpec {
                        cid: 0,
                        circuit: Box::new(crate::twofish::BlockCircuit::new(&key)),
                        software_alt: built.program.symbol("sw_tf"), image: None }),
            )
            .expect("spawn twofish");
        let mut cpu = Cpu::new();
        let mut rfu = Rfu::new(RfuConfig { pfus: 1, ..RfuConfig::default() });
        let report = kernel.run(&mut cpu, &mut rfu, 5_000_000_000).expect("run");
        assert!(report.killed.is_empty(), "{report:?}");
        let tf_exit = report.exited.iter().find(|(p, _, _)| *p == 2).expect("twofish exited");
        assert_eq!(tf_exit.2, built.expected_checksum);
        assert!(report.stats.software_installs >= 1);
    }

    #[test]
    fn twofish_software_checksum_matches() {
        let key = *b"proteus-arm-key!";
        let built = twofish_software(4, 1, &key, 77);
        let (code, _) = run_one(&built, vec![]);
        assert_eq!(code, built.expected_checksum);
    }

    #[test]
    fn software_dispatch_computes_the_same_result() {
        // With a single PFU and SoftwareFallback, echo's second circuit
        // lands on its software alternative and must still be correct.
        use porsche::cis::DispatchMode;
        let built = echo_accelerated(48, 1, 6, 0x90, 9);
        let entry = built.program.symbol("start").expect("start");
        let mut kernel = Kernel::new(KernelConfig {
            mode: DispatchMode::SoftwareFallback,
            ..KernelConfig::default()
        });
        let spec = SpawnSpec::new(&built.program)
            .entry(entry)
            .circuit(CircuitSpec {
                cid: 0,
                circuit: echo::scale_circuit(),
                software_alt: built.program.symbol("sw_scale"), image: None })
            .circuit(CircuitSpec {
                cid: 1,
                circuit: echo::sat_add_circuit(),
                software_alt: built.program.symbol("sw_satadd"), image: None });
        kernel.spawn(spec).expect("spawn");
        let mut cpu = Cpu::new();
        let mut rfu = Rfu::new(RfuConfig { pfus: 1, ..RfuConfig::default() });
        let report = kernel.run(&mut cpu, &mut rfu, 2_000_000_000).expect("run");
        assert!(report.killed.is_empty());
        assert_eq!(report.exited[0].2, built.expected_checksum);
        assert!(report.stats.software_installs >= 1, "stats: {:?}", report.stats);
    }
}

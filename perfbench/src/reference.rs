//! The reference loop: a fixed, benchmark-owned computation timed on the
//! same thread right before every untraced job.
//!
//! The host this benchmark was tuned on is shared with other tenants, and
//! the simulator's host speed there swings by up to 2× within seconds and
//! between runs, while the program stays the same. The reference loop is
//! built to feel the same contention: it is a small register-machine
//! interpreter (a dispatch `match` over 16 opcodes, data-dependent
//! branches) whose loads and stores land in a freshly allocated 4 MB
//! memory, much as the simulator interprets guest code over per-process
//! guest memory. A job's host time divided by the reference loop's time
//! just before it is the job's cost in reference units; contention that
//! slows both cancels out, while a change to the program moves only the
//! job. Nothing here calls into the program, so no change to it can move
//! the reference.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Instructions the reference machine executes per run.
const STEPS: u64 = 10_000_000;
/// Words of reference memory (4 MB).
const WORDS: usize = 1 << 20;
/// Instructions in the reference program.
const PROGRAM: usize = 1024;

/// Run the reference loop once; returns its host time.
pub fn run() -> Duration {
    let start = Instant::now();
    black_box(interpret(black_box(7)));
    start.elapsed()
}

/// Interpret a random program (fixed by `seed`) for [`STEPS`]
/// instructions; returns a checksum of the registers.
fn interpret(seed: u64) -> u64 {
    let mut mem = vec![0u32; WORDS];
    let mask = (WORDS - 1) as u32;
    let mut x = seed | 1;
    let mut next = || {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u32
    };
    let program: Vec<u32> = (0..PROGRAM).map(|_| next()).collect();
    let mut r = [0u32; 16];
    for (i, v) in r.iter_mut().enumerate() {
        *v = next() ^ i as u32;
    }
    let wrap = PROGRAM - 1;
    let mut pc = 0;
    for _ in 0..STEPS {
        let ins = program[pc];
        let a = ((ins >> 4) & 15) as usize;
        let b = ((ins >> 8) & 15) as usize;
        let c = ((ins >> 12) & 15) as usize;
        let imm = ins >> 16;
        pc = (pc + 1) & wrap;
        match ins & 15 {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b].wrapping_sub(r[c]) ^ imm,
            2 => r[a] = r[b] ^ r[c].rotate_left(imm & 31),
            3 => r[a] = r[b].wrapping_mul(r[c] | 1),
            4 | 5 => r[a] = mem[(r[b].wrapping_add(imm) & mask) as usize],
            6 => mem[(r[b].wrapping_add(imm) & mask) as usize] = r[c],
            7 => {
                let at = (r[b] >> 3).wrapping_add(pc as u32) & mask;
                r[a] = mem[at as usize].wrapping_add(r[c]);
            }
            8 => {
                if r[b] & 1 == 0 {
                    pc = imm as usize & wrap;
                }
            }
            9 => {
                if r[b] < r[c] {
                    pc = (pc + (imm & 7) as usize) & wrap;
                }
            }
            10 => r[a] = r[b] >> (r[c] & 31),
            11 => r[a] = r[b] | imm,
            12 => r[a] = ((u64::from(r[b]) * u64::from(r[c])) >> 32) as u32,
            13 => r[a] = r[b].count_ones().wrapping_add(r[c]),
            14 => r[a] = r[b].max(r[c]),
            _ => r[a] = r[b].wrapping_add(imm),
        }
    }
    r.iter().fold(0, |sum, &v| sum.wrapping_add(u64::from(v)))
}

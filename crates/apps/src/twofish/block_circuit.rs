//! The Twofish block-encryption custom instruction.
//!
//! The paper gives Twofish a *single* custom instruction. Accelerating
//! only the g function leaves the Feistel scaffolding in software and
//! caps the speedup near 2× (Amdahl), so the circuit here implements the
//! whole block path — key schedule baked into the configuration, one
//! round per clock — fed through the 2-in/1-out PFU interface with a
//! small phase machine:
//!
//! | invocation | operands  | latency | result |
//! |-----------:|-----------|--------:|--------|
//! | 1          | `w0`,`w1` | 1       | 0 (absorb) |
//! | 2          | `w2`,`w3` | 20      | `ct0` (whiten + 16 rounds + whiten) |
//! | 3–5        | ignored   | 1       | `ct1`–`ct3` |
//!
//! The internal state (plaintext/ciphertext registers + phase counter)
//! is exactly what the state frames carry when the OS swaps the circuit,
//! so an instance interrupted mid-block survives eviction.

use std::collections::HashMap;
use std::fmt;

use proteus_fabric::FabricError;
use proteus_rfu::behavioral::Invocation;
use proteus_rfu::circuit::{CircuitClock, CircuitState, PfuCircuit};

use super::cipher::Twofish;

/// Rounds-plus-whitening latency of the encrypting invocation.
pub const ENCRYPT_LATENCY: u32 = 20;

/// The last phase of the five-invocation protocol (emitting `ct3`).
const LAST_PHASE: u32 = 4;

/// Most blocks one circuit's ciphertext memo holds. The experiments'
/// guests encrypt 64 blocks per pass (256 in a dynamic-load job), so a
/// pass fits, with room for a circuit shared by several instances; past
/// the cap a new block is encrypted and not stored.
const MEMO_CAP: usize = 1024;

/// Clocks the invocation in `phase` takes.
fn phase_latency(phase: u32) -> u32 {
    if phase == 1 {
        ENCRYPT_LATENCY
    } else {
        1
    }
}

/// The phase-machine block cipher circuit.
///
/// The host model keeps a memo from plaintext to ciphertext words, so a
/// block the instance has seen before is copied rather than encrypted
/// again (the guests re-encrypt the same blocks on every pass). The memo
/// caches a pure function of the baked-in key: it is not circuit state,
/// so the state frames, their size and the simulated cycles do not
/// depend on it. It stops growing at 1,024 blocks (`MEMO_CAP`) and never
/// evicts, so its memory is bounded and every lookup's outcome follows
/// from the block sequence alone; a block seen first past the cap is
/// encrypted on every visit, the cost without a memo.
#[derive(Clone)]
pub struct BlockCircuit {
    tf: Twofish,
    phase: u32,
    invocation: Invocation,
    w: [u32; 4],
    ct: [u32; 4],
    memo: HashMap<[u32; 4], [u32; 4]>,
}

impl fmt::Debug for BlockCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockCircuit")
            .field("phase", &self.phase)
            .field("elapsed", &self.invocation.elapsed())
            .field("memo_entries", &self.memo.len())
            .finish()
    }
}

impl BlockCircuit {
    /// A circuit with `key` baked into its configuration.
    pub fn new(key: &[u8; 16]) -> Self {
        Self {
            tf: Twofish::new(key),
            phase: 0,
            invocation: Invocation::default(),
            w: [0; 4],
            ct: [0; 4],
            // One allocation at the cap: a memo that grew by rehashing
            // while the job ran fragmented the heap and raised the peak
            // resident set (perfbench `hw_contended`, 13.9 → 15.2 MB).
            memo: HashMap::with_capacity(MEMO_CAP),
        }
    }

    /// The ciphertext of the latched block `self.w`, from the memo or
    /// the cipher.
    fn encrypt(&mut self) -> [u32; 4] {
        if let Some(&ct) = self.memo.get(&self.w) {
            return ct;
        }
        let ct = self.tf.encrypt_words(self.w);
        if self.memo.len() < MEMO_CAP {
            self.memo.insert(self.w, ct);
        }
        ct
    }

    /// The invocation's final clock: act on the latched operands `a` and
    /// `b`, advance the phase machine and return the result-bus value.
    fn complete(&mut self, (a, b): (u32, u32)) -> u32 {
        let (result, next_phase) = match self.phase {
            0 => {
                self.w[0] = a;
                self.w[1] = b;
                (0, 1)
            }
            1 => {
                self.w[2] = a;
                self.w[3] = b;
                self.ct = self.encrypt();
                (self.ct[0], 2)
            }
            p => {
                let idx = (p - 1) as usize;
                (self.ct[idx], if p == LAST_PHASE { 0 } else { p + 1 })
            }
        };
        self.phase = next_phase;
        result
    }
}

impl PfuCircuit for BlockCircuit {
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
        match self.invocation.clock(op_a, op_b, init, phase_latency(self.phase)) {
            Some(operands) => CircuitClock { result: self.complete(operands), done: true },
            None => CircuitClock { result: 0, done: false },
        }
    }

    fn run_clocks(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64) -> (u64, Option<u32>) {
        let (used, done) = self.invocation.run(op_a, op_b, init, budget, phase_latency(self.phase));
        (used, done.map(|operands| self.complete(operands)))
    }

    fn save_state(&self) -> CircuitState {
        let mut words = vec![0u32; 12];
        words[0] = self.phase;
        words[1..4].copy_from_slice(&self.invocation.save());
        words[4..8].copy_from_slice(&self.w);
        words[8..12].copy_from_slice(&self.ct);
        CircuitState(words)
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        if state.0.len() < 12 {
            return Err(FabricError::StateMismatch {
                detail: format!("twofish block circuit needs 12 state words, got {}", state.0.len()),
            });
        }
        // Reject frames the phase machine can never hold: a phase past
        // the protocol, or progress the phase's invocation never reaches.
        let phase = state.0[0];
        if phase > LAST_PHASE {
            return Err(FabricError::StateMismatch {
                detail: format!("twofish block circuit cannot hold phase {phase}"),
            });
        }
        self.invocation.load([state.0[1], state.0[2], state.0[3]], phase_latency(phase))?;
        self.phase = phase;
        self.w.copy_from_slice(&state.0[4..8]);
        self.ct.copy_from_slice(&state.0[8..12]);
        Ok(())
    }

    fn state_words(&self) -> usize {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_instr(c: &mut BlockCircuit, a: u32, b: u32) -> (u32, u32) {
        let mut init = true;
        let mut cycles = 0;
        loop {
            let out = c.clock(a, b, init);
            init = false;
            cycles += 1;
            if out.done {
                return (out.result, cycles);
            }
        }
    }

    #[test]
    fn five_invocations_encrypt_a_block() {
        let key = [0u8; 16];
        let mut c = BlockCircuit::new(&key);
        let tf = Twofish::new(&key);
        let pt = [0u32; 4];
        let ct_ref = tf.encrypt_block(&[0u8; 16]);
        let ct_words: Vec<u32> =
            ct_ref.chunks_exact(4).map(|x| u32::from_le_bytes([x[0], x[1], x[2], x[3]])).collect();

        let (r0, c0) = run_instr(&mut c, pt[0], pt[1]);
        assert_eq!((r0, c0), (0, 1));
        let (ct0, c1) = run_instr(&mut c, pt[2], pt[3]);
        assert_eq!(c1, ENCRYPT_LATENCY);
        assert_eq!(ct0, ct_words[0]);
        for expected in &ct_words[1..] {
            let (r, cyc) = run_instr(&mut c, 0, 0);
            assert_eq!(cyc, 1);
            assert_eq!(r, *expected);
        }
        // Phase machine wrapped: the next block starts cleanly.
        let (r, _) = run_instr(&mut c, pt[0], pt[1]);
        assert_eq!(r, 0);
    }

    #[test]
    fn interrupted_encryption_survives_swap() {
        let key = *b"interrupt-key-00";
        let mut c = BlockCircuit::new(&key);
        run_instr(&mut c, 0x1111, 0x2222);
        // Start the 20-cycle encrypting invocation, stop after 7 clocks.
        let mut init = true;
        for _ in 0..7 {
            let out = c.clock(0x3333, 0x4444, init);
            init = false;
            assert!(!out.done);
        }
        let saved = c.save_state();
        // Swap out / in: fresh instance of the same configuration.
        let mut c2 = BlockCircuit::new(&key);
        c2.load_state(&saved).expect("restore");
        // Resume with init low; completes after the remaining 13 clocks.
        let mut cycles = 0;
        let ct0 = loop {
            let out = c2.clock(0x3333, 0x4444, false);
            cycles += 1;
            if out.done {
                break out.result;
            }
        };
        assert_eq!(cycles, 13);
        // Matches an uninterrupted run.
        let mut c3 = BlockCircuit::new(&key);
        run_instr(&mut c3, 0x1111, 0x2222);
        let (expect, _) = run_instr(&mut c3, 0x3333, 0x4444);
        assert_eq!(ct0, expect);
    }

    /// Runs the five invocations of one block and returns `ct0`–`ct3`.
    fn encrypt_block(c: &mut BlockCircuit, w: [u32; 4]) -> [u32; 4] {
        run_instr(c, w[0], w[1]);
        let mut ct = [run_instr(c, w[2], w[3]).0, 0, 0, 0];
        for word in &mut ct[1..] {
            *word = run_instr(c, 0, 0).0;
        }
        ct
    }

    fn block(i: u32) -> [u32; 4] {
        [i, i.wrapping_mul(0x9E37_79B9), !i, 0x5EED_0000 ^ i]
    }

    #[test]
    fn memo_stops_growing_at_the_cap() {
        let key = *b"memo-capacity-00";
        let tf = Twofish::new(&key);
        let mut c = BlockCircuit::new(&key);
        let capacity = c.memo.capacity();
        let blocks = MEMO_CAP as u32 + 40;
        for pass in 0..2 {
            for i in 0..blocks {
                assert_eq!(encrypt_block(&mut c, block(i)), tf.encrypt_words(block(i)), "pass {pass}, block {i}");
                let stored = if pass == 0 { (i as usize + 1).min(MEMO_CAP) } else { MEMO_CAP };
                assert_eq!(c.memo.len(), stored);
            }
        }
        // The first blocks are the stored ones; later ones never are.
        assert!(c.memo.contains_key(&block(0)));
        assert!(!c.memo.contains_key(&block(MEMO_CAP as u32)));
        assert_eq!(c.memo.capacity(), capacity, "the table is allocated once, at the cap");
    }

    #[test]
    fn repeated_block_adds_no_entry() {
        let key = *b"memo-repeat-key!";
        let mut c = BlockCircuit::new(&key);
        let first = encrypt_block(&mut c, block(7));
        assert_eq!(c.memo.len(), 1);
        for _ in 0..3 {
            assert_eq!(encrypt_block(&mut c, block(7)), first);
            assert_eq!(c.memo.len(), 1);
        }
        encrypt_block(&mut c, block(8));
        assert_eq!(c.memo.len(), 2);
        assert_eq!(format!("{c:?}"), "BlockCircuit { phase: 0, elapsed: 0, memo_entries: 2 }");
    }

    #[test]
    fn memo_hit_skips_the_cipher() {
        let key = *b"memo-sentinel-k!";
        let mut c = BlockCircuit::new(&key);
        let pool: Vec<[u32; 4]> = (0..4).map(block).collect();
        let real: Vec<[u32; 4]> = pool.iter().map(|&w| encrypt_block(&mut c, w)).collect();
        // A hit returns the stored words: the cipher would not give these.
        let sentinel = [0xDEAD_BEEF, 0x0BAD_F00D, 0xFEED_FACE, 0xC0FF_EE00];
        *c.memo.get_mut(&pool[2]).expect("stored on the first pass") = sentinel;
        for (i, &w) in pool.iter().enumerate() {
            let expect = if i == 2 { sentinel } else { real[i] };
            assert_eq!(encrypt_block(&mut c, w), expect, "block {i}");
        }
        c.memo.insert(pool[2], real[2]);
        assert_eq!(encrypt_block(&mut c, pool[2]), real[2]);
    }

    #[test]
    fn unreachable_state_frames_rejected() {
        let mut c = BlockCircuit::new(&[0u8; 16]);
        let before = c.save_state();
        for (phase, elapsed) in [(9, 0), (LAST_PHASE + 1, 0), (u32::MAX, 0), (0, 1), (1, ENCRYPT_LATENCY)] {
            let mut words = before.0.clone();
            words[0] = phase;
            words[1] = elapsed;
            let err = c.load_state(&CircuitState(words));
            assert!(
                matches!(err, Err(FabricError::StateMismatch { .. })),
                "phase {phase}, elapsed {elapsed}: {err:?}"
            );
            assert_eq!(c.save_state(), before, "a rejected load must not change the circuit");
        }
        // The last reachable phase and mid-encrypt progress still load,
        // and clocking afterwards completes normally.
        let mut words = before.0.clone();
        words[0] = LAST_PHASE;
        c.load_state(&CircuitState(words)).expect("phase 4 is reachable");
        assert!(c.clock(0, 0, true).done);
        let mut words = before.0;
        words[0] = 1;
        words[1] = ENCRYPT_LATENCY - 1;
        c.load_state(&CircuitState(words)).expect("mid-encrypt progress is reachable");
        assert!(c.clock(0, 0, false).done);
    }
}

//! Exact state-frame layouts of every circuit kind the scheduler swaps.
//!
//! The CIS charges a state swap by `state_words()` and moves the words
//! `save_state()` returns (§4.1, §4.2), so a change to either moves the
//! swap costs of the sharing ablation and every restored invocation.
//! These pins hold each layout word for word: the behavioral latency
//! counter, the Twofish block circuit mid-encrypt, a gate-level
//! accumulator and the state section of a compiled bitstream.

use proteus_apps::twofish::{BlockCircuit, ENCRYPT_LATENCY};
use proteus_fabric::{compile, library, FabricDims, NetlistBuilder};
use proteus_rfu::behavioral::FixedLatency;
use proteus_rfu::{NetlistCircuit, PfuCircuit};

/// Clock `circuit` `clocks` times with `init` on the first clock only.
fn clock_n(circuit: &mut dyn PfuCircuit, op_a: u32, op_b: u32, clocks: u32) {
    for i in 0..clocks {
        assert!(!circuit.clock(op_a, op_b, i == 0).done, "clock {i} completed early");
    }
}

#[test]
fn fixed_latency_mid_invocation() {
    // Latency 5, two clocks in, operands 7 and 8: elapsed, the latched
    // operands, then zero padding up to the declared size.
    let mut c = FixedLatency::new("add5", 5, 4, |a, b| a + b);
    clock_n(&mut c, 7, 8, 2);
    assert_eq!(c.save_state().0, [2, 7, 8, 0]);
    assert_eq!(c.state_words(), 4);
    // A declared size below the three counter words is raised to three.
    let mut small = FixedLatency::new("add5", 5, 1, |a, b| a + b);
    clock_n(&mut small, 7, 8, 2);
    assert_eq!(small.save_state().0, [2, 7, 8]);
    assert_eq!(small.state_words(), 3);
}

#[test]
fn block_circuit_mid_encrypt() {
    // Phase 0 absorbs w0/w1; phase 1 is the 20-clock encrypt, stopped
    // after 7 clocks with w2/w3 latched. The ciphertext registers are
    // still zero: no block has completed yet.
    assert_eq!(ENCRYPT_LATENCY, 20);
    let mut c = BlockCircuit::new(b"layout-pin-key!!");
    assert!(c.clock(0x1111, 0x2222, true).done);
    clock_n(&mut c, 0x3333, 0x4444, 7);
    assert_eq!(c.save_state().0, [1, 7, 0x3333, 0x4444, 0x1111, 0x2222, 0, 0, 0, 0, 0, 0]);
    assert_eq!(c.state_words(), 12);
}

#[test]
fn accumulator_after_three_clocks() {
    let compiled = compile(&library::accumulator32().expect("netlist"), FabricDims::PFU).expect("compile");
    let mut c = NetlistCircuit::new(compiled.bitstream()).expect("circuit");
    for _ in 0..3 {
        c.clock(0x1357_9BDF, 0, true);
    }
    // The accumulator holds 3 × 0x1357_9BDF = 0x3A06_D39D; its 32
    // register bits sit where placement put them, one state bit per CLB,
    // 500 CLBs in 16 words.
    assert_eq!(c.save_state().0, EXPECT_ACCUMULATOR);
    assert_eq!(c.state_words(), 16);
}

/// The accumulator's state frames: placement puts its registers on
/// the even CLBs below 64.
const EXPECT_ACCUMULATOR: [u32; 16] = [0x5105_4151, 0x0544_0014, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

#[test]
fn compiled_bitstream_state_section() {
    let mut b = NetlistBuilder::new();
    let a = b.input_bus("op_a", 32);
    let c = b.input_bus("op_b", 32);
    let s = b.add(&a, &c);
    let r = b.register_bus(&s, 0xA5C3_3C5A);
    b.output_bus("result", &r);
    let done = b.const_bit(true);
    b.output_bit("done", done);
    let compiled = compile(&b.finish().expect("netlist"), FabricDims::PFU).expect("compile");
    let bs = compiled.bitstream();
    // Magic, dims, 27 static words per CLB, then the state section: its
    // CLB count and one bit per CLB packed into 32-bit words.
    let words = bs.to_words();
    let start = 2 + FabricDims::PFU.clbs() * 27;
    assert_eq!(words[start], 500);
    assert_eq!(words[start + 1..start + 17], EXPECT_BITSTREAM_STATE);
    assert_eq!(words[start + 17], 2, "the descriptor follows: two input ports");
}

/// The initial state section of the 32-bit registered adder, its
/// registers initialised to `0xA5C3_3C5A`.
const EXPECT_BITSTREAM_STATE: [u32; 16] = [0x0550_1144, 0x4411_5005, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

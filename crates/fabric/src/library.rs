//! Ready-made circuits following the PFU interface convention.
//!
//! Every function returns a checked [`Netlist`] with inputs `op_a[32]`,
//! `op_b[32]` (+ `init[1]` for sequential circuits) and outputs
//! `result[32]`, `done[1]` — the contract [`crate::netlist::Netlist::check_pfu_interface`]
//! enforces and the Proteus datapath drives.
//!
//! The headline circuit is [`alpha_blend_channel`]: a real gate-level,
//! two-cycle sequential implementation of the alpha-blending custom
//! instruction the paper's experiments use, sized to fit (and mostly fill)
//! a 500-CLB PFU. Tests prove it equivalent to the arithmetic reference
//! [`alpha_blend_ref`], which is also what the behavioral workload model
//! uses — tying the scheduling experiments to real hardware semantics.

use crate::builder::NetlistBuilder;
use crate::error::FabricError;
use crate::netlist::Netlist;

/// Combinational 32-bit adder (`result = op_a + op_b`, 1 cycle).
///
/// # Errors
///
/// Never fails in practice; the signature matches the other constructors.
pub fn adder32() -> Result<Netlist, FabricError> {
    let mut b = NetlistBuilder::new();
    let a = b.input_bus("op_a", 32);
    let c = b.input_bus("op_b", 32);
    let s = b.add(&a, &c);
    b.output_bus("result", &s);
    let one = b.const_bit(true);
    b.output_bit("done", one);
    b.finish()
}

/// Stateful accumulator: each invocation adds `op_a` into an internal
/// 32-bit register and returns the new total (1 cycle). The register is
/// *circuit state* — exactly the data the OS must move via state frames
/// when the circuit is swapped.
///
/// # Errors
///
/// Never fails in practice.
pub fn accumulator32() -> Result<Netlist, FabricError> {
    let mut b = NetlistBuilder::new();
    let a = b.input_bus("op_a", 32);
    let _ = b.input_bus("op_b", 32);
    let _init = b.input_bit("init");
    let acc: Vec<_> = (0..32).map(|_| b.dff_placeholder(false)).collect();
    let sum = b.add(&acc, &a);
    for (d, s) in acc.iter().zip(&sum) {
        b.set_dff_input(*d, *s);
    }
    b.output_bus("result", &sum);
    let one = b.const_bit(true);
    b.output_bit("done", one);
    b.finish()
}

/// Arithmetic reference for the alpha-blend custom instruction.
///
/// Blends one 8-bit channel: `(a·α + b·(255−α)) / 255` using the exact
/// `(t + (t>>8) + 1) >> 8` divide-by-255 approximation the gate-level
/// circuit implements. For `α = 255` this returns `a`; for `α = 0` it
/// returns `b`.
pub fn alpha_blend_ref(a: u8, b: u8, alpha: u8) -> u8 {
    let t = u32::from(a) * u32::from(alpha) + u32::from(b) * (255 - u32::from(alpha));
    ((t + (t >> 8) + 1) >> 8) as u8
}

/// Gate-level, two-cycle alpha-blend channel circuit.
///
/// Interface: `op_a` carries the source channel in bits 0–7 and α in bits
/// 8–15; `op_b` carries the destination channel in bits 0–7. The result is
/// [`alpha_blend_ref`]`(a, b, α)`.
///
/// The circuit shares one 8×8 multiplier across two cycles (products
/// `a·α` then `b·(255−α)`), latching the first product in a 16-bit state
/// register — demonstrating the sequential logic and the `init`/`done`
/// protocol of paper §4.4. It occupies most of a 500-CLB PFU.
///
/// # Errors
///
/// Never fails in practice.
pub fn alpha_blend_channel() -> Result<Netlist, FabricError> {
    let mut b = NetlistBuilder::new();
    let op_a = b.input_bus("op_a", 32);
    let op_b = b.input_bus("op_b", 32);
    let init = b.input_bit("init");

    let a = &op_a[..8];
    let alpha = &op_a[8..16];
    let dst = &op_b[..8];
    let not_alpha = b.not_bus(alpha); // 255 - alpha

    // Phase register: 1 during the second cycle of an invocation.
    let phase = b.dff(init, false);

    // Shared multiplier, operand-muxed by `init`.
    let x: Vec<_> = a
        .iter()
        .zip(dst)
        .map(|(&ai, &di)| b.mux2(init, di, ai))
        .collect();
    let y: Vec<_> = alpha
        .iter()
        .zip(&not_alpha)
        .map(|(&al, &nal)| b.mux2(init, nal, al))
        .collect();
    let product = b.mul(&x, &y); // 16 bits

    // First product latched during the init cycle.
    let p_reg: Vec<_> = (0..16).map(|_| b.dff_placeholder(false)).collect();
    for (i, d) in p_reg.iter().enumerate() {
        let held = b.mux2(init, p_reg[i], product[i]);
        // Re-borrow note: mux2 already pushed the node; just rewire.
        b.set_dff_input(*d, held);
    }

    // Second cycle: t = p_reg + product(b, 255-alpha).
    let t = b.add(&p_reg, &product);
    // u = t + (t >> 8) + 1; result = u >> 8.
    let t_hi = b.shr_const(&t, 8);
    let one = b.const_bit(true);
    let (u, _carry) = b.add_with_carry(&t, &t_hi, Some(one));
    let out = &u[8..16];
    let out32 = b.resize(out, 32);
    b.output_bus("result", &out32);
    let not_init = b.not(init);
    let done = b.and2(phase, not_init);
    b.output_bit("done", done);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::device::Device;
    use crate::place::FabricDims;

    fn load(netlist: &Netlist) -> Device {
        netlist.check_pfu_interface().expect("PFU interface");
        let compiled = compile(netlist, FabricDims::PFU).expect("compile");
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(compiled.bitstream()).expect("load");
        dev
    }

    #[test]
    fn adder32_works_on_device() {
        let mut dev = load(&adder32().expect("netlist"));
        let (r, cycles) = dev.run_instruction(0xFFFF_FFFF, 1, 4).expect("run");
        assert_eq!(r, 0);
        assert_eq!(cycles, 1);
    }

    #[test]
    fn accumulator_keeps_state_across_invocations() {
        let mut dev = load(&accumulator32().expect("netlist"));
        let mut total = 0u32;
        for add in [5u32, 100, 1, 0, 37] {
            total = total.wrapping_add(add);
            let (r, _) = dev.run_instruction(add, 0, 4).expect("run");
            assert_eq!(r, total);
        }
    }

    #[test]
    fn alpha_blend_takes_two_cycles_and_matches_reference() {
        let mut dev = load(&alpha_blend_channel().expect("netlist"));
        for (a, b, alpha) in [
            (0u8, 0u8, 0u8),
            (255, 0, 255),
            (0, 255, 255),
            (255, 255, 128),
            (10, 200, 77),
            (1, 2, 3),
        ] {
            let op_a = u32::from(a) | (u32::from(alpha) << 8);
            let op_b = u32::from(b);
            let (r, cycles) = dev.run_instruction(op_a, op_b, 8).expect("run");
            assert_eq!(cycles, 2, "blend is a 2-cycle instruction");
            assert_eq!(r as u8, alpha_blend_ref(a, b, alpha), "a={a} b={b} alpha={alpha}");
        }
    }

    #[test]
    fn alpha_blend_endpoints() {
        assert_eq!(alpha_blend_ref(200, 17, 255), 200);
        assert_eq!(alpha_blend_ref(200, 17, 0), 17);
    }

    #[test]
    fn alpha_blend_fills_most_of_a_pfu() {
        let n = alpha_blend_channel().expect("netlist");
        let clbs = n.clb_estimate();
        assert!(clbs <= 500, "must fit a PFU, needs {clbs}");
        assert!(clbs >= 250, "should be a substantial circuit, only {clbs}");
    }

    #[test]
    fn alpha_blend_survives_interruption_via_state_frames() {
        // Clock cycle 1, save state, reload config (simulating the circuit
        // being swapped out), restore state, resume with init low.
        let netlist = alpha_blend_channel().expect("netlist");
        let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(compiled.bitstream()).expect("load");

        let (a, b, alpha) = (10u8, 200u8, 77u8);
        let op_a = u32::from(a) | (u32::from(alpha) << 8);
        let op_b = u32::from(b);

        let out1 = dev.clock(op_a, op_b, true).expect("cycle 1");
        assert!(!out1.done);
        let saved = dev.save_state().expect("save");
        dev.load(compiled.bitstream()).expect("swap back in");
        dev.load_state(&saved).expect("restore");
        let out2 = dev.clock(op_a, op_b, false).expect("cycle 2, init low");
        assert!(out2.done);
        assert_eq!(out2.result as u8, alpha_blend_ref(a, b, alpha));
    }
}

//! The configurable device: loads a bitstream and executes it.
//!
//! [`Device`] is the honest half of the fabric model: it executes circuits
//! **from the decoded configuration only** — LUT truth tables and routing
//! selectors — with no access to the original netlist. Together with the
//! encode path this exercises the whole
//! netlist → place → encode → decode → simulate chain, so a bug anywhere in
//! the bitstream format breaks circuit outputs, exactly as on real FPL.
//!
//! State save/restore uses the *state frames only* (the paper's §4.1 split
//! configuration), which is what makes context-switching a resident circuit
//! cheap for the OS.

use crate::bitstream::{decode_source, Bitstream, StateFrames};
use crate::error::FabricError;
use crate::place::{FabricDims, SourceRef};
use crate::validate;

/// Result of clocking a configured device for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockOutput {
    /// Value on the `result` output bus after combinational settling.
    pub result: u32,
    /// Value of the `done` output.
    pub done: bool,
}

#[derive(Debug, Clone, Copy)]
enum PortKind {
    OpA,
    OpB,
    Init,
    Other,
}

#[derive(Debug, Clone)]
struct LoadedClb {
    lut_used: bool,
    truth: u16,
    pins: [SourceRef; 4],
    dff_used: bool,
    dff_src: SourceRef,
}

#[derive(Debug, Clone)]
struct Loaded {
    clbs: Vec<LoadedClb>,
    /// Evaluation order over LUT-bearing CLB indices.
    order: Vec<u16>,
    port_kinds: Vec<PortKind>,
    result_sels: Vec<SourceRef>,
    done_sel: Option<SourceRef>,
    lut_out: Vec<bool>,
    dff_state: Vec<bool>,
}

/// A PFU-sized region of fabric that can hold one configuration.
#[derive(Debug, Clone)]
pub struct Device {
    dims: FabricDims,
    loaded: Option<Loaded>,
}

impl Device {
    /// An empty (unconfigured) device.
    pub fn new(dims: FabricDims) -> Self {
        Self { dims, loaded: None }
    }

    /// Fabric dimensions.
    pub fn dims(&self) -> FabricDims {
        self.dims
    }

    /// Load a full configuration (static + initial state frames).
    ///
    /// The bitstream is validated first — see [`validate::validate`] — so a
    /// malformed or hostile configuration is rejected before it can touch
    /// the array.
    ///
    /// # Errors
    ///
    /// [`FabricError::DimensionMismatch`] if the bitstream targets a
    /// different fabric, plus any validation error.
    pub fn load(&mut self, bitstream: &Bitstream) -> Result<(), FabricError> {
        if bitstream.dims() != self.dims {
            return Err(FabricError::DimensionMismatch {
                expected: (bitstream.dims().width, bitstream.dims().height),
                actual: (self.dims.width, self.dims.height),
            });
        }
        validate::validate(bitstream)?;
        let n = self.dims.clbs();
        let mut clbs = Vec::with_capacity(n);
        for raw in bitstream.clbs() {
            clbs.push(LoadedClb {
                lut_used: raw.lut_used,
                truth: raw.truth,
                pins: [
                    decode_source(raw.pin_src[0])?,
                    decode_source(raw.pin_src[1])?,
                    decode_source(raw.pin_src[2])?,
                    decode_source(raw.pin_src[3])?,
                ],
                dff_used: raw.dff_used,
                dff_src: decode_source(raw.dff_src)?,
            });
        }
        let order = topo_order(&clbs)?;
        let port_kinds = bitstream
            .inputs()
            .iter()
            .map(|p| match p.name.as_str() {
                "op_a" => PortKind::OpA,
                "op_b" => PortKind::OpB,
                "init" => PortKind::Init,
                _ => PortKind::Other,
            })
            .collect();
        let find = |name: &str| {
            bitstream
                .outputs()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, sels)| sels.iter().map(|&s| decode_source(s)).collect::<Result<Vec<_>, _>>())
        };
        let result_sels = find("result").transpose()?.unwrap_or_default();
        let done_sel = find("done").transpose()?.and_then(|v| v.first().copied());
        self.loaded = Some(Loaded {
            clbs,
            order,
            port_kinds,
            result_sels,
            done_sel,
            lut_out: vec![false; n],
            dff_state: bitstream.initial_state().bits.clone(),
        });
        Ok(())
    }

    /// Remove the configuration, leaving the device empty.
    pub fn unload(&mut self) {
        self.loaded = None;
    }

    /// Save the state frames (CLB register values) — the cheap half of a
    /// context switch.
    ///
    /// # Errors
    ///
    /// [`FabricError::NotConfigured`] if nothing is loaded.
    pub fn save_state(&self) -> Result<StateFrames, FabricError> {
        let loaded = self.loaded.as_ref().ok_or(FabricError::NotConfigured)?;
        Ok(StateFrames { bits: loaded.dff_state.clone() })
    }

    /// Restore previously saved state frames into the loaded
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`FabricError::NotConfigured`] if nothing is loaded;
    /// [`FabricError::StateMismatch`] if the frame covers a different
    /// number of CLBs.
    pub fn load_state(&mut self, state: &StateFrames) -> Result<(), FabricError> {
        let loaded = self.loaded.as_mut().ok_or(FabricError::NotConfigured)?;
        if state.bits.len() != loaded.dff_state.len() {
            return Err(FabricError::StateMismatch {
                detail: format!(
                    "state frame covers {} CLBs, device has {}",
                    state.bits.len(),
                    loaded.dff_state.len()
                ),
            });
        }
        loaded.dff_state.copy_from_slice(&state.bits);
        Ok(())
    }

    /// Drive the PFU interface for one clock cycle: present the operands
    /// and `init`, settle combinational logic, read `result`/`done`, latch
    /// registers.
    ///
    /// # Errors
    ///
    /// [`FabricError::NotConfigured`] if nothing is loaded.
    pub fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> Result<ClockOutput, FabricError> {
        let loaded = self.loaded.as_mut().ok_or(FabricError::NotConfigured)?;
        let read = |loaded: &Loaded, src: SourceRef| -> bool {
            match src {
                SourceRef::Const(v) => v,
                SourceRef::Port(port, bit) => match loaded.port_kinds.get(port as usize) {
                    Some(PortKind::OpA) => (op_a >> bit) & 1 == 1,
                    Some(PortKind::OpB) => (op_b >> bit) & 1 == 1,
                    Some(PortKind::Init) => init,
                    _ => false,
                },
                SourceRef::ClbLut(clb) => loaded.lut_out[clb as usize],
                SourceRef::ClbDff(clb) => loaded.dff_state[clb as usize],
            }
        };
        // Combinational settle in topological order.
        for i in 0..loaded.order.len() {
            let clb = loaded.order[i] as usize;
            let cfg = &loaded.clbs[clb];
            let mut addr = 0usize;
            for (pin, &src) in cfg.pins.iter().enumerate() {
                if read(loaded, src) {
                    addr |= 1 << pin;
                }
            }
            loaded.lut_out[clb] = (loaded.clbs[clb].truth >> addr) & 1 == 1;
        }
        // Sample outputs before the clock edge.
        let mut result = 0u32;
        for (i, &sel) in loaded.result_sels.iter().enumerate().take(32) {
            if read(loaded, sel) {
                result |= 1 << i;
            }
        }
        let done = loaded.done_sel.map(|s| read(loaded, s)).unwrap_or(false);
        // Clock edge: latch every used register.
        let next: Vec<(usize, bool)> = loaded
            .clbs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dff_used)
            .map(|(i, c)| (i, read(loaded, c.dff_src)))
            .collect();
        for (i, v) in next {
            loaded.dff_state[i] = v;
        }
        Ok(ClockOutput { result, done })
    }

    /// Run a complete custom-instruction invocation: assert `init` on the
    /// first cycle, then clock until `done`, returning the result and the
    /// number of cycles taken.
    ///
    /// # Errors
    ///
    /// [`FabricError::NotConfigured`] if nothing is loaded; a
    /// [`FabricError::MalformedBitstream`] variant if the circuit fails to
    /// assert `done` within `max_cycles` (a runaway instruction — the OS
    /// would kill the process).
    pub fn run_instruction(
        &mut self,
        op_a: u32,
        op_b: u32,
        max_cycles: u32,
    ) -> Result<(u32, u32), FabricError> {
        let mut init = true;
        for cycle in 1..=max_cycles {
            let out = self.clock(op_a, op_b, init)?;
            init = false;
            if out.done {
                return Ok((out.result, cycle));
            }
        }
        Err(FabricError::MalformedBitstream {
            detail: format!("instruction did not complete within {max_cycles} cycles"),
        })
    }
}

/// Topological order of LUT-bearing CLBs following LUT→LUT routing edges.
fn topo_order(clbs: &[LoadedClb]) -> Result<Vec<u16>, FabricError> {
    let n = clbs.len();
    let mut indegree = vec![0u32; n];
    let mut fanout: Vec<Vec<u16>> = vec![Vec::new(); n];
    for (i, c) in clbs.iter().enumerate() {
        if !c.lut_used {
            continue;
        }
        for &pin in &c.pins {
            if let SourceRef::ClbLut(src) = pin {
                if clbs[src as usize].lut_used {
                    indegree[i] += 1;
                    fanout[src as usize].push(i as u16);
                }
            }
        }
    }
    let mut queue: Vec<u16> =
        (0..n as u16).filter(|&i| clbs[i as usize].lut_used && indegree[i as usize] == 0).collect();
    let total = clbs.iter().filter(|c| c.lut_used).count();
    let mut order = Vec::with_capacity(total);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &next in &fanout[i as usize] {
            indegree[next as usize] -= 1;
            if indegree[next as usize] == 0 {
                queue.push(next);
            }
        }
    }
    if order.len() != total {
        return Err(FabricError::MalformedBitstream {
            detail: "configuration contains a combinational routing loop".to_string(),
        });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::compile;
    use crate::sim::NetlistSim;

    fn adder_bitstream() -> Bitstream {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("op_a", 32);
        let c = b.input_bus("op_b", 32);
        let s = b.add(&a, &c);
        b.output_bus("result", &s);
        let done = b.const_bit(true);
        b.output_bit("done", done);
        let n = b.finish().expect("netlist");
        compile(&n, FabricDims::PFU).expect("compile").into_bitstream()
    }

    #[test]
    fn device_runs_decoded_adder() {
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(&adder_bitstream()).expect("load");
        let out = dev.clock(1234, 8766, true).expect("clock");
        assert_eq!(out.result, 10_000);
        assert!(out.done);
    }

    #[test]
    fn device_agrees_with_reference_sim() {
        // The decoded-bitstream execution must match NetlistSim on the
        // same circuit for a spread of operand values.
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("op_a", 16);
        let c = b.input_bus("op_b", 16);
        let m = b.mul(&a, &c);
        let m32 = b.resize(&m, 32);
        b.output_bus("result", &m32);
        let done = b.const_bit(true);
        b.output_bit("done", done);
        let n = b.finish().expect("netlist");

        let mut sim = NetlistSim::new(&n).expect("sim");
        let compiled = compile(&n, FabricDims::new(40, 40)).expect("compile");
        let mut dev = Device::new(FabricDims::new(40, 40));
        dev.load(compiled.bitstream()).expect("load");

        for (a, b2) in [(3u32, 5u32), (65535, 65535), (1000, 999), (0, 77)] {
            sim.set_input("op_a", u64::from(a));
            sim.set_input("op_b", u64::from(b2));
            sim.settle();
            let want = sim.output("result") as u32;
            let got = dev.clock(a, b2, true).expect("clock").result;
            assert_eq!(got, want, "a={a} b={b2}");
        }
    }

    #[test]
    fn unconfigured_device_errors() {
        let mut dev = Device::new(FabricDims::PFU);
        assert!(matches!(dev.clock(0, 0, true), Err(FabricError::NotConfigured)));
        assert!(matches!(dev.save_state(), Err(FabricError::NotConfigured)));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut dev = Device::new(FabricDims::new(4, 4));
        assert!(matches!(
            dev.load(&adder_bitstream()),
            Err(FabricError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn state_save_restore_preserves_counter() {
        // A circuit that counts invocations: result = number of clocks seen.
        let mut b = NetlistBuilder::new();
        let _a = b.input_bus("op_a", 32);
        let _c = b.input_bus("op_b", 32);
        let one = b.const_bit(true);
        let cnt = b.counter(8, one);
        let cnt32 = b.resize(&cnt, 32);
        b.output_bus("result", &cnt32);
        b.output_bit("done", one);
        let n = b.finish().expect("netlist");
        let compiled = compile(&n, FabricDims::PFU).expect("compile");

        let mut dev = Device::new(FabricDims::PFU);
        dev.load(compiled.bitstream()).expect("load");
        for _ in 0..5 {
            dev.clock(0, 0, false).expect("clock");
        }
        let saved = dev.save_state().expect("save");
        assert_eq!(dev.clock(0, 0, false).expect("clock").result, 5);
        // Trash the state by reloading the full config (counter resets)...
        dev.load(compiled.bitstream()).expect("reload");
        assert_eq!(dev.clock(0, 0, false).expect("clock").result, 0);
        // ...then restore just the state frames.
        dev.load_state(&saved).expect("restore");
        assert_eq!(dev.clock(0, 0, false).expect("clock").result, 5);
    }

    #[test]
    fn run_instruction_times_out_on_runaway_circuit() {
        // done is stuck low.
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("op_a", 32);
        b.output_bus("result", &a);
        let zero = b.const_bit(false);
        b.output_bit("done", zero);
        let n = b.finish().expect("netlist");
        let compiled = compile(&n, FabricDims::PFU).expect("compile");
        let mut dev = Device::new(FabricDims::PFU);
        dev.load(compiled.bitstream()).expect("load");
        assert!(dev.run_instruction(1, 2, 16).is_err());
    }
}

//! The circuit abstraction PFUs host.

use std::fmt;

use proteus_fabric::bitstream::StateFrames;
use proteus_fabric::{Bitstream, Device, FabricError};

/// One PFU clock cycle's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitClock {
    /// Value on the result bus.
    pub result: u32,
    /// Completion signal.
    pub done: bool,
}

/// Opaque saved circuit state — the contents of the *state frames*
/// (paper §4.1). Moving this on a swap costs
/// [`PfuCircuit::state_words`] bus words instead of a full
/// reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CircuitState(pub Vec<u32>);

/// A circuit loadable into a PFU.
///
/// The contract mirrors the PFU hardware interface of §4.4: the unit
/// clocks the circuit with the two 32-bit operands and the `init` signal;
/// the circuit raises `done` on its final cycle. Implementations must be
/// resumable: if clocking stops between `init` and `done` (interrupt) and
/// later continues with `init` low, the instruction completes as if
/// uninterrupted.
pub trait PfuCircuit: fmt::Debug {
    /// Advance one clock with the given datapath inputs.
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock;

    /// Capture the state frames.
    fn save_state(&self) -> CircuitState;

    /// Restore previously captured state frames.
    ///
    /// # Errors
    ///
    /// A [`FabricError::StateMismatch`]-style error message if the state
    /// does not belong to this circuit type.
    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError>;

    /// Clock the circuit up to `budget` (≥ 1) times, presenting `init`
    /// on the first clock only — the status-register protocol
    /// [`crate::PfuArray::run`] drives. Returns the clocks consumed and
    /// `Some(result)` if `done` rose on the final one.
    ///
    /// The default is [`run_clocks_per_clock`], which iterates
    /// [`PfuCircuit::clock`]; models whose timing is analytically known
    /// (the behavioral latency counters, the Twofish block circuit)
    /// override it with an O(1) fast-forward. Overrides must be
    /// observably identical to the default, including all state
    /// mutations.
    fn run_clocks(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64) -> (u64, Option<u32>) {
        run_clocks_per_clock(self, op_a, op_b, init, budget)
    }

    /// Size of the static configuration in bytes (54 000 for a full
    /// 500-CLB PFU, per the paper).
    fn static_config_bytes(&self) -> usize {
        proteus_fabric::CONFIG_BYTES_PER_CLB * proteus_fabric::FabricDims::PFU.clbs()
    }

    /// Size of the state frames in 32-bit bus words.
    fn state_words(&self) -> usize {
        self.save_state().0.len().max(1)
    }
}

/// The per-clock reference for [`PfuCircuit::run_clocks`]: clock `circuit`
/// up to `budget` times, presenting `init` on the first clock only, and
/// stop on the clock that raises `done`. Returns the clocks consumed and
/// `Some(result)` if the instruction completed.
///
/// This is the trait's default and the referee every O(1) override is
/// tested against.
pub fn run_clocks_per_clock<C: PfuCircuit + ?Sized>(
    circuit: &mut C,
    op_a: u32,
    op_b: u32,
    mut init: bool,
    budget: u64,
) -> (u64, Option<u32>) {
    let mut used = 0u64;
    while used < budget {
        let out = circuit.clock(op_a, op_b, init);
        init = false;
        used += 1;
        if out.done {
            return (used, Some(out.result));
        }
    }
    (used, None)
}

/// A [`PfuCircuit`] backed by a real gate-level bitstream executing on a
/// [`Device`] — the highest-fidelity path: the circuit the scheduler
/// swaps around is literally a decoded configuration.
#[derive(Debug, Clone)]
pub struct NetlistCircuit {
    device: Device,
    clbs: usize,
}

impl NetlistCircuit {
    /// Load `bitstream` into a fresh device of matching dimensions.
    ///
    /// # Errors
    ///
    /// Propagates bitstream validation/load failures.
    ///
    /// # Example
    ///
    /// ```
    /// use proteus_fabric::{compile, library, place::FabricDims};
    /// use proteus_rfu::{NetlistCircuit, PfuCircuit};
    ///
    /// # fn main() -> Result<(), proteus_fabric::FabricError> {
    /// let netlist = library::adder32()?;
    /// let compiled = compile(&netlist, FabricDims::PFU)?;
    /// let mut circuit = NetlistCircuit::new(compiled.bitstream())?;
    /// let out = circuit.clock(40, 2, true);
    /// assert_eq!(out.result, 42);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(bitstream: &Bitstream) -> Result<Self, FabricError> {
        let mut device = Device::new(bitstream.dims());
        device.load(bitstream)?;
        Ok(Self { device, clbs: bitstream.dims().clbs() })
    }
}

impl PfuCircuit for NetlistCircuit {
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
        let out = self.device.clock(op_a, op_b, init).expect("device is configured");
        CircuitClock { result: out.result, done: out.done }
    }

    fn save_state(&self) -> CircuitState {
        let frames = self.device.save_state().expect("device is configured");
        let mut words = Vec::with_capacity(frames.bits.len().div_ceil(32));
        let mut acc = 0u32;
        for (i, &b) in frames.bits.iter().enumerate() {
            if b {
                acc |= 1 << (i % 32);
            }
            if i % 32 == 31 {
                words.push(acc);
                acc = 0;
            }
        }
        if !frames.bits.len().is_multiple_of(32) {
            words.push(acc);
        }
        CircuitState(words)
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        let bits: Vec<bool> = (0..self.clbs)
            .map(|i| state.0.get(i / 32).is_some_and(|w| w >> (i % 32) & 1 == 1))
            .collect();
        if state.0.len() != self.clbs.div_ceil(32) {
            return Err(FabricError::StateMismatch {
                detail: format!("expected {} state words, got {}", self.clbs.div_ceil(32), state.0.len()),
            });
        }
        self.device.load_state(&StateFrames { bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_fabric::{compile, library, place::FabricDims};

    #[test]
    fn netlist_circuit_state_roundtrip() {
        let netlist = library::accumulator32().expect("netlist");
        let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
        let mut c = NetlistCircuit::new(compiled.bitstream()).expect("circuit");
        for _ in 0..3 {
            c.clock(10, 0, true);
        }
        let saved = c.save_state();
        assert_eq!(c.clock(10, 0, true).result, 40);
        c.load_state(&saved).expect("restore");
        assert_eq!(c.clock(10, 0, true).result, 40, "state rewound");
    }

    #[test]
    fn state_word_size_is_small() {
        let netlist = library::adder32().expect("netlist");
        let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
        let c = NetlistCircuit::new(compiled.bitstream()).expect("circuit");
        // 500 CLBs -> 16 words of state vs 13 500 words of static config.
        assert_eq!(c.state_words(), 16);
        assert_eq!(c.static_config_bytes(), 54_000);
    }

    #[test]
    fn wrong_sized_state_rejected() {
        let netlist = library::adder32().expect("netlist");
        let compiled = compile(&netlist, FabricDims::PFU).expect("compile");
        let mut c = NetlistCircuit::new(compiled.bitstream()).expect("circuit");
        assert!(c.load_state(&CircuitState(vec![0; 3])).is_err());
    }
}

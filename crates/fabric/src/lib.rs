//! FPL fabric substrate for the Proteus reconfigurable processor.
//!
//! This crate models the Field Programmable Logic that backs the
//! Programmable Function Units (PFUs) of the Proteus architecture
//! (Dales, DATE 2003). The paper assumes a Xilinx-Virtex-like fabric with
//! three properties the management layer depends on:
//!
//! 1. **No IOBs** — PFU circuits only connect to the processor datapath, so
//!    the bitstream format simply has no way to express pad drivers and
//!    misconfiguration cannot damage hardware.
//! 2. **Mux-based routing** — every routing choice is a multiplexer
//!    selector, so no configuration value can create a short circuit.
//! 3. **Split configuration** — static frames (LUT contents and routing)
//!    are separate from state frames (CLB register values), so a resident
//!    circuit's context can be saved and restored by moving only the small
//!    state section.
//!
//! The crate provides a gate-level netlist IR ([`netlist::Netlist`]), a
//! builder library for constructing datapath circuits
//! ([`builder::NetlistBuilder`]), placement onto a CLB grid ([`place`]),
//! bitstream encoding/decoding with separate static and state frames
//! ([`bitstream`]), a clocked simulator that executes circuits *from the
//! decoded bitstream* ([`device::Device`]), and validation ([`validate`]).
//!
//! # Example
//!
//! ```
//! use proteus_fabric::builder::NetlistBuilder;
//! use proteus_fabric::place::FabricDims;
//! use proteus_fabric::compile;
//! use proteus_fabric::device::Device;
//!
//! # fn main() -> Result<(), proteus_fabric::FabricError> {
//! // A circuit that adds its two 32-bit operands in a single cycle.
//! let mut b = NetlistBuilder::new();
//! let a = b.input_bus("op_a", 32);
//! let c = b.input_bus("op_b", 32);
//! let sum = b.add(&a, &c);
//! b.output_bus("result", &sum);
//! let done = b.const_bit(true);
//! b.output_bit("done", done);
//! let netlist = b.finish()?;
//!
//! let compiled = compile(&netlist, FabricDims::PFU)?;
//! let mut device = Device::new(FabricDims::PFU);
//! device.load(compiled.bitstream())?;
//! let out = device.clock(7, 35, true)?;
//! assert_eq!(out.result, 42);
//! assert!(out.done);
//! # Ok(())
//! # }
//! ```

// Fault-handling code must surface typed errors, not panic: the kernel
// recovery ladder is built on these paths (see DESIGN.md §9).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bitstream;
pub mod builder;
pub mod device;
pub mod error;
pub mod library;
pub mod netlist;
pub mod place;
pub mod sim;
pub mod validate;

pub use bitstream::{Bitstream, CONFIG_BYTES_PER_CLB};
pub use builder::NetlistBuilder;
pub use device::{ClockOutput, Device};
pub use error::FabricError;
pub use netlist::{Netlist, NodeId};
pub use place::{FabricDims, Placement};

/// Compile a netlist onto a fabric of the given dimensions, producing a
/// loadable [`Bitstream`].
///
/// This performs placement (assigning LUTs and flip-flops to CLBs), routing
/// (expressing every signal source as a routing-mux selector) and bitstream
/// encoding. The result round-trips: [`Device::load`] decodes the bitstream
/// back into an executable structure without access to the original netlist.
///
/// # Errors
///
/// Returns [`FabricError::CapacityExceeded`] if the netlist needs more CLBs
/// than the fabric has, and propagates netlist validation errors (e.g.
/// combinational cycles).
///
/// # Example
///
/// ```
/// use proteus_fabric::{compile, builder::NetlistBuilder, place::FabricDims};
/// # fn main() -> Result<(), proteus_fabric::FabricError> {
/// let mut b = NetlistBuilder::new();
/// let a = b.input_bus("op_a", 8);
/// let n = b.not_bus(&a);
/// b.output_bus("result", &n);
/// let netlist = b.finish()?;
/// let compiled = compile(&netlist, FabricDims::PFU)?;
/// assert!(compiled.bitstream().static_bytes() > 0);
/// # Ok(())
/// # }
/// ```
pub fn compile(netlist: &Netlist, dims: FabricDims) -> Result<Compiled, FabricError> {
    netlist.check()?;
    let placement = place::place(netlist, dims)?;
    let bitstream = bitstream::encode(netlist, &placement, dims)?;
    Ok(Compiled { bitstream, placement })
}

/// The output of [`compile`]: a bitstream plus the placement that produced
/// it (useful for reporting and tests).
#[derive(Debug, Clone)]
pub struct Compiled {
    bitstream: Bitstream,
    placement: Placement,
}

impl Compiled {
    /// The encoded configuration, ready for [`Device::load`].
    pub fn bitstream(&self) -> &Bitstream {
        &self.bitstream
    }

    /// Consume self, returning the bitstream.
    pub fn into_bitstream(self) -> Bitstream {
        self.bitstream
    }

    /// The placement chosen during compilation.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Total Manhattan wirelength of the compiled design (see
    /// [`Placement::wirelength`]).
    pub fn wirelength(&self, netlist: &Netlist) -> u64 {
        self.placement.wirelength(netlist, self.bitstream.dims())
    }
}

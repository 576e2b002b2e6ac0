//! Error type shared across the fabric crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building, compiling, loading or simulating
/// fabric circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// The netlist references a node id that does not exist.
    DanglingNode {
        /// The offending node id.
        node: u32,
    },
    /// The netlist's combinational logic contains a cycle (a loop not
    /// broken by a flip-flop), which a real fabric cannot evaluate.
    CombinationalCycle {
        /// A node participating in the cycle.
        node: u32,
    },
    /// The circuit needs more CLBs than the target fabric provides.
    CapacityExceeded {
        /// CLBs required by the netlist.
        required: usize,
        /// CLBs available on the fabric.
        available: usize,
    },
    /// An input or output port name was declared twice.
    DuplicatePort {
        /// The duplicated name.
        name: String,
    },
    /// A port required by the PFU interface convention is missing or has
    /// the wrong width.
    BadPort {
        /// The port name.
        name: String,
        /// Description of what is wrong.
        detail: String,
    },
    /// The bitstream is malformed (bad magic, truncated frame, unknown
    /// frame type, selector out of mux range, …).
    MalformedBitstream {
        /// Description of the defect.
        detail: String,
    },
    /// The bitstream targets a fabric of different dimensions.
    DimensionMismatch {
        /// Dimensions the bitstream was compiled for.
        expected: (u16, u16),
        /// Dimensions of the device it was loaded into.
        actual: (u16, u16),
    },
    /// An operation that needs a loaded configuration was attempted on an
    /// empty device.
    NotConfigured,
    /// A state snapshot does not match the loaded configuration.
    StateMismatch {
        /// Description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::DanglingNode { node } => {
                write!(f, "netlist references missing node {node}")
            }
            FabricError::CombinationalCycle { node } => {
                write!(f, "combinational cycle through node {node}")
            }
            FabricError::CapacityExceeded { required, available } => {
                write!(f, "circuit needs {required} CLBs but fabric has {available}")
            }
            FabricError::DuplicatePort { name } => {
                write!(f, "port `{name}` declared more than once")
            }
            FabricError::BadPort { name, detail } => {
                write!(f, "port `{name}` invalid: {detail}")
            }
            FabricError::MalformedBitstream { detail } => {
                write!(f, "malformed bitstream: {detail}")
            }
            FabricError::DimensionMismatch { expected, actual } => write!(
                f,
                "bitstream compiled for {}x{} fabric, device is {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            FabricError::NotConfigured => write!(f, "device has no configuration loaded"),
            FabricError::StateMismatch { detail } => {
                write!(f, "state snapshot mismatch: {detail}")
            }
        }
    }
}

impl Error for FabricError {}

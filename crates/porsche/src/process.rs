//! Process control blocks and circuit registration records.

use proteus_cpu::cpu::Context;
use proteus_cpu::Memory;
use proteus_rfu::PfuCircuit;

/// A process identifier. PIDs start at 1; 0 is reserved (never a valid
/// TLB key owner).
pub type Pid = u32;

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable (in the ready queue or currently running).
    Ready,
    /// Called `swi #0`.
    Exited {
        /// Exit code from `r0`.
        code: u32,
    },
    /// Terminated by the kernel (illegal instruction, bad memory access,
    /// unregistered CID, runaway circuit).
    Killed,
}

impl ProcState {
    /// Whether the process still competes for the CPU.
    pub fn is_live(self) -> bool {
        matches!(self, ProcState::Ready)
    }
}

/// A custom instruction an application registers with the OS: the
/// hardware description (here: the circuit instance standing in for the
/// bitstream) and optionally "a software alternative to the instruction"
/// (§2).
pub struct CircuitSpec {
    /// Process-local Circuit ID.
    pub cid: u8,
    /// The hardware implementation.
    pub circuit: Box<dyn PfuCircuit>,
    /// Entry address of the software alternative, if provided.
    pub software_alt: Option<u32>,
    /// Configuration image identity: circuits with equal `image` share
    /// identical *static* configurations, so the CIS may host them in
    /// one PFU and hand over by swapping state frames only (§4.2's
    /// multiple-tuples-per-circuit; `None` = never shareable).
    pub image: Option<u64>,
}

impl std::fmt::Debug for CircuitSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitSpec")
            .field("cid", &self.cid)
            .field("software_alt", &self.software_alt)
            .finish_non_exhaustive()
    }
}

/// The CIS's registration record for one `(process, CID)`. Where the
/// circuit is resident is the CIS's PFU ownership table, not this record.
pub struct Registered {
    /// The circuit instance when *not* resident on the array (its state
    /// frames travel inside). `None` while loaded into a PFU.
    pub instance: Option<Box<dyn PfuCircuit>>,
    /// Saved PFU status bit (init/done feedback, §4.4) captured when the
    /// circuit was swapped out mid-instruction.
    pub status: bool,
    /// Software alternative address, if registered.
    pub software_alt: Option<u32>,
    /// Static configuration size (bytes) — cached for cost accounting.
    pub static_bytes: usize,
    /// State-frame size (words) — cached for cost accounting.
    pub state_words: usize,
    /// Shared-configuration image identity (see [`CircuitSpec::image`]).
    pub image: Option<u64>,
    /// Whether this tuple has been dispatched to its software
    /// alternative. Once set, the CIS keeps the tuple on the software
    /// path: a stateful instruction may hold shadow state in process
    /// memory mid-protocol, so silently migrating it back to a fresh
    /// hardware instance would desynchronise it.
    pub soft_active: bool,
}

impl std::fmt::Debug for Registered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registered")
            .field("software_alt", &self.software_alt)
            .field("status", &self.status)
            .finish_non_exhaustive()
    }
}

impl Registered {
    /// Record for a freshly registered circuit, with its software
    /// alternative and shared-configuration image identity.
    pub fn new(circuit: Box<dyn PfuCircuit>, software_alt: Option<u32>, image: Option<u64>) -> Self {
        let static_bytes = circuit.static_config_bytes();
        let state_words = circuit.state_words();
        Self {
            instance: Some(circuit),
            status: true,
            software_alt,
            static_bytes,
            state_words,
            image,
            soft_active: false,
        }
    }
}

/// A process control block.
#[derive(Debug)]
pub struct Process {
    /// Process ID.
    pub pid: Pid,
    /// Saved core registers + CPSR.
    pub ctx: Context,
    /// Private flat address space.
    pub mem: Memory,
    /// Saved RFU register file.
    pub rfu_regs: [u32; 16],
    /// Saved software-dispatch operand block (fields 0–4).
    pub operand_block: [u32; 5],
    /// Lifecycle state.
    pub state: ProcState,
    /// Cycle at which the process left the Ready state.
    pub finish_cycle: Option<u64>,
    /// Bytes written via the `putc` syscall.
    pub console: Vec<u8>,
}

impl Process {
    /// Whether the process still competes for the CPU.
    pub fn is_live(&self) -> bool {
        self.state.is_live()
    }
}

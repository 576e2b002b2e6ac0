//! Cycle-counted CPU model of the ProteanARM core.
//!
//! The paper's ProteanARM is an ARM7TDMI with one change to the core: the
//! coprocessor interface can supply a branch target (for software
//! dispatch, §4.3/§5). This crate models that core as a functional,
//! cycle-counted interpreter over the [`proteus_isa`] instruction set:
//!
//! * [`cpu::Cpu`] — registers, CPSR, the fetch/decode/execute loop with
//!   ARM7-class cycle costs, and precise stop reasons (quantum expiry,
//!   SWI, faults) so an external kernel model can drive scheduling;
//! * [`memory::Memory`] — a flat byte-addressable memory (one per
//!   process; the paper's workstation MMU is replaced by private address
//!   spaces, see DESIGN.md) carrying one compiled [`op::Op`] per word of
//!   program text;
//! * [`coproc::Coprocessor`] — the interface the reconfigurable function
//!   unit plugs into, including interruptible multi-cycle custom
//!   instructions (§4.4) and software-dispatch operand latching (§4.3).
//!
//! # Example
//!
//! ```
//! use proteus_cpu::cpu::{Cpu, Stop};
//! use proteus_cpu::coproc::NullCoprocessor;
//! use proteus_cpu::memory::Memory;
//! use proteus_isa::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("mov r0, #6\n mov r1, #7\n mul r2, r0, r1\n swi #0\n")?;
//! let mut mem = Memory::new(64 * 1024);
//! mem.load_program(&program)?;
//! let mut cpu = Cpu::new();
//! let stop = cpu.run(&mut mem, &mut NullCoprocessor, u64::MAX);
//! assert!(matches!(stop, Stop::Swi { imm: 0 }));
//! assert_eq!(cpu.reg(2), 42);
//! # Ok(())
//! # }
//! ```

pub mod alu;
pub mod coproc;
pub mod cpu;
pub mod memory;
pub mod op;

pub use coproc::{CoprocResult, Coprocessor, NullCoprocessor, RetInfo};
pub use cpu::{Cpu, ExecMix, Stop};
pub use memory::{MemError, Memory};

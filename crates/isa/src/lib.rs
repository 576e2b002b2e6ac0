//! Guest instruction set of the ProteanARM.
//!
//! The ProteanARM of the paper is an ARM7TDMI with the reconfigurable
//! function unit (RFU) attached as an on-chip coprocessor. This crate
//! defines an ARM-flavoured 32-bit instruction set with the Proteus
//! coprocessor extensions:
//!
//! * `pfu cid, rd, rn, rm` — invoke the custom instruction registered
//!   under Circuit ID `cid` with operands `rn`, `rm`, result to `rd`
//!   (paper §4.2: the `(PID, CID)` tuple is resolved by the dispatch TLBs);
//! * `mcr`/`mrc` — move data between the core register file and the RFU's
//!   16 × 32-bit coprocessor register file;
//! * `ldop`/`stres`/`retsd` — the software-dispatch support of §4.3:
//!   read the latched operand registers, write the result register, and
//!   return from a software alternative (hardware writes the result into
//!   the original destination register);
//! * `mcro`/`mrco` — privileged access to the operand-register block so
//!   the OS can preserve it across context switches.
//!
//! The encoding is this project's own clean 32-bit format (documented on
//! [`encode`](mod@encode)); it is *not* binary-compatible with ARM, which is
//! irrelevant to the paper's experiments — they measure cycles, not
//! opcodes. A full two-pass text [`asm`] (with `ldr rd, =imm` literal
//! pools) and a disassembler round out the toolchain.
//!
//! # Example
//!
//! ```
//! use proteus_isa::asm::assemble;
//!
//! # fn main() -> Result<(), proteus_isa::asm::AsmError> {
//! let program = assemble(
//!     r#"
//!     start:
//!         mov   r0, #10
//!         mov   r1, #32
//!         pfu   0, r2, r0, r1   ; custom instruction CID 0
//!         swi   #0              ; exit
//!     "#,
//! )?;
//! assert_eq!(program.words().len(), 4);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod cond;
pub mod decode;
pub mod encode;
pub mod instr;
pub mod regs;

pub use asm::{assemble, Program};
pub use cond::Cond;
pub use decode::{decode, DecodeError};
pub use encode::encode;
pub use instr::{BlockOp, DpOp, Instr, MemOp, Operand2, OperandSel, Shift, ShiftKind};
pub use regs::Reg;

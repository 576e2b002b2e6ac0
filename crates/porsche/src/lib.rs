//! POrSCHE — the Proteus Operating System and Configurable Hardware
//! Environment (paper §5).
//!
//! POrSCHE is "a simple operating system kernel … with a pre-emptive
//! round robin process scheduler" plus the **Custom Instruction Scheduler
//! (CIS)**, "which manages the circuits registered with the OS by
//! different applications … responsible for loading and unloading
//! circuits and for managing the dispatch hardware."
//!
//! The kernel logic here runs in Rust against the simulated machine
//! state, with every management action charged an explicit cycle cost on
//! the simulated clock (see [`costs::CostModel`] and DESIGN.md §3) — the
//! substitution that keeps the paper's measured quantities (completion
//! cycles, management overhead) intact without booting a guest kernel.
//!
//! Key pieces:
//!
//! * [`kernel::Kernel`] — process table, pre-emptive round-robin
//!   scheduling, SWI system calls, context switching (including the RFU
//!   register file and the software-dispatch operand block), and the
//!   machine run loop;
//! * [`cis`] — the Custom Instruction Scheduler: circuit registration,
//!   the custom-instruction fault handler (mapping-fault fast path vs.
//!   full configuration load), dispatch-TLB management and the
//!   state-frames-only swap of §4.1;
//! * [`policy`] — PFU replacement policies: the paper's round-robin and
//!   random, plus the LRU / Second Chance / FIFO family that §4.5's
//!   usage counters enable;
//! * [`costs`] — the explicit cost model (54 KB configuration loads,
//!   state-frame transfers, TLB programming, context switches);
//! * [`probe`] — the unified instrumentation bus: every management
//!   action emits a typed [`probe::Event`] at the point of action, and
//!   [`stats::KernelStats`], [`trace::Trace`] and
//!   [`probe::CycleLedger`] are pure folds over that one stream;
//! * [`json`] — the one JSON writer behind every export (timeline
//!   lines, Chrome traces, run summaries), plus a reader for its own
//!   records.
//!
//! # Example
//!
//! ```
//! use porsche::kernel::{Kernel, KernelConfig, SpawnSpec};
//! use proteus_cpu::Cpu;
//! use proteus_rfu::{Rfu, RfuConfig};
//! use proteus_isa::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("mov r0, #0\n swi #0\n")?;
//! let mut kernel = Kernel::new(KernelConfig::default());
//! kernel.spawn(SpawnSpec::new(&program))?;
//! let mut cpu = Cpu::new();
//! let mut rfu = Rfu::new(RfuConfig::default());
//! let report = kernel.run(&mut cpu, &mut rfu, 1_000_000)?;
//! assert_eq!(report.exited.len(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub mod cis;
pub mod costs;
pub mod fault;
pub mod json;
pub mod kernel;
pub mod policy;
pub mod probe;
pub mod process;
pub mod stats;
pub mod trace;

pub use cis::DispatchMode;
pub use costs::CostModel;
pub use fault::{FaultPlan, FaultUnit, RecoveryPolicy};
pub use kernel::{Kernel, KernelConfig, KernelError, RunReport, SpawnSpec};
pub use policy::{PolicyKind, PolicyView, ReplacementPolicy};
pub use chrome::chrome_trace_json;
pub use probe::{AttributedLedger, Callsite, CycleLedger, Event, EventSink, Probe, Tag};
pub use process::{CircuitSpec, Pid, ProcState};
pub use stats::KernelStats;
pub use trace::Trace;

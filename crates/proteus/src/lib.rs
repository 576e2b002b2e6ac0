//! Proteus — a full-system reproduction of *"Managing a Reconfigurable
//! Processor in a General Purpose Workstation Environment"*
//! (Michael Dales, DATE 2003).
//!
//! This facade crate wires the substrates together and exposes the
//! experiment harness:
//!
//! * [`machine::Machine`] — a complete ProteanARM workstation:
//!   [`proteus_cpu::Cpu`] core + [`proteus_rfu::Rfu`] reconfigurable
//!   function unit + [`porsche::Kernel`];
//! * [`scenario::Scenario`] — one experimental run: a workload (an
//!   application, an instance count, its size) on a
//!   [`machine::MachineConfig`], with end-to-end checksum validation;
//! * [`experiment`] — generators for every figure of the paper's
//!   evaluation (Figure 2, Figure 3, the speedup claim) plus the
//!   ablations listed in DESIGN.md;
//! * [`runner`] — declarative [`runner::ExperimentPlan`]s executed on a
//!   worker pool, with deterministic assembly (byte-identical CSVs at
//!   any `--jobs` count) and throughput metrics;
//! * [`series`] — simple long-format CSV output for the results.
//!
//! # Quickstart
//!
//! ```
//! use proteus::scenario::Scenario;
//! use proteus_apps::AppKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two concurrent alpha-blending processes on a 4-PFU ProteanARM.
//! let result = Scenario::new(AppKind::Alpha)
//!     .instances(2)
//!     .size(64)
//!     .passes(2)
//!     .run()?;
//! assert!(result.valid);
//! assert!(result.makespan > 0);
//! # Ok(())
//! # }
//! ```

pub mod dynamic;
pub mod experiment;
pub mod machine;
pub mod runner;
pub mod scenario;
pub mod series;

pub use dynamic::{DynamicLoad, DynamicResult};
pub use machine::{Machine, MachineConfig};
pub use porsche::{AttributedLedger, Callsite, CycleLedger, Event, EventSink, Probe, Tag};
pub use runner::{ExperimentPlan, JobOutput, PlanMetrics, ScenarioJob};
pub use scenario::{Scenario, ScenarioResult};
pub use series::{BreakdownRow, BreakdownSet, Point, Series, SeriesSet};

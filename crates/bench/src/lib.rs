//! Benchmark harness for the Proteus reproduction.
//!
//! Two entry points:
//!
//! * the `repro` binary (`cargo run -p proteus-bench --bin repro
//!   --release`) regenerates every figure of the paper's evaluation and
//!   every DESIGN.md ablation as tables + CSVs under `results/`
//!   (override with `--out`). Experiments run as declarative
//!   [`proteus::runner::ExperimentPlan`]s on a `--jobs N` worker pool
//!   (default: host parallelism); assembly is deterministic, so output
//!   is byte-identical at any job count. Each figure also gets a
//!   `breakdown_<figure>.csv` attributing every simulated cycle to a
//!   [`proteus::CycleLedger`] category, `results/summary.json` records
//!   per-figure and total wall time, simulated-cycles-per-host-second
//!   throughput and a `cycle_breakdown` section, and `--trace
//!   alpha|echo|twofish` dumps a JSON-lines event timeline
//!   (`trace_<scenario>.jsonl`);
//! * the Criterion bench `micro_components` (`cargo bench -p
//!   proteus-bench --bench micro_components`) times the substrate pieces
//!   the experiments are built from: ISA decode, interpretation, fabric
//!   compile and load, Twofish, hardware dispatch, TLB lookup and context
//!   switches.

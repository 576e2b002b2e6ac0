//! Dynamic scheduling loads — the paper's stated next step ("we are now
//! going on … to test the performance of the system with more dynamic
//! scheduling loads", §6).
//!
//! Jobs arrive over time with exponential inter-arrival gaps, cycling
//! through the three applications. The harness advances the machine to
//! each arrival, spawns the job, and reports per-job *turnaround*
//! (finish − arrival) — the metric that exposes how management policy
//! behaves when the PFU population fluctuates instead of being fixed at
//! the start.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use porsche::cis::DispatchMode;
use porsche::kernel::{KernelConfig, KernelError};
use porsche::probe::{AttributedLedger, CycleLedger, Event, Tag};
use porsche::process::Pid;
use porsche::stats::KernelStats;
use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
use proteus_apps::AppKind;

use crate::machine::{Machine, MachineConfig};

/// Configuration of a dynamic-arrival run: the arrival process and the
/// machine the jobs run on.
///
/// # Example
///
/// ```
/// use proteus::dynamic::DynamicLoad;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut load = DynamicLoad {
///     jobs: 4,
///     mean_interarrival: 200_000,
///     job_size: (32, 2),
///     ..DynamicLoad::default()
/// };
/// load.machine.kernel.share_circuits = true;
/// let result = load.run()?;
/// assert!(result.valid);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicLoad {
    /// Number of jobs to inject.
    pub jobs: usize,
    /// Mean inter-arrival gap in cycles (exponentially distributed).
    pub mean_interarrival: u64,
    /// Per-job work: `(size, passes)` applied to every application kind.
    pub job_size: (usize, u32),
    /// RNG seed for arrivals.
    pub seed: u64,
    /// The machine. Jobs register their software alternatives when its
    /// dispatch mode is [`DispatchMode::SoftwareFallback`].
    pub machine: MachineConfig,
}

impl Default for DynamicLoad {
    fn default() -> Self {
        Self {
            jobs: 12,
            mean_interarrival: 2_000_000,
            job_size: (256, 8),
            seed: 2003,
            machine: MachineConfig {
                kernel: KernelConfig { quantum: 100_000, ..KernelConfig::default() },
                ..MachineConfig::default()
            },
        }
    }
}

/// Outcome of a dynamic-arrival run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicResult {
    /// Mean turnaround (finish − arrival) over all jobs, in cycles.
    pub mean_turnaround: f64,
    /// Completion cycle of the last job.
    pub makespan: u64,
    /// Kernel statistics.
    pub stats: KernelStats,
    /// Per-job `(pid, turnaround)` in arrival order.
    pub turnarounds: Vec<(Pid, u64)>,
    /// Where every simulated cycle (including inter-arrival idle time)
    /// went.
    pub ledger: CycleLedger,
    /// The same cycles attributed per process × emit site.
    pub attributed: AttributedLedger,
    /// Timeline events, oldest first (empty unless the machine's
    /// [`KernelConfig::trace_capacity`] was set).
    pub trace: Vec<(u64, Tag, Event)>,
    /// Events the trace ring discarded once full.
    pub trace_dropped: u64,
    /// Total simulated cycles (== `ledger.total()`).
    pub total_cycles: u64,
    /// Every job exited with its reference checksum.
    pub valid: bool,
}

impl DynamicLoad {
    /// Run the arrival process to completion.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (the hard cycle limit is generous).
    pub fn run(&self) -> Result<DynamicResult, KernelError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Pre-build one spec per application kind.
        let kinds = [AppKind::Alpha, AppKind::Twofish, AppKind::Echo];
        let specs: Vec<WorkloadSpec> = kinds
            .iter()
            .map(|&k| WorkloadSpec::build(WorkloadConfig::new(k, self.job_size.0, self.job_size.1)))
            .collect();
        let with_sw = self.machine.kernel.mode == DispatchMode::SoftwareFallback;
        let mut machine = Machine::new(self.machine.clone());

        let cycle_limit = 2_000_000_000_000;
        let mut arrivals: Vec<(Pid, u64, u32)> = Vec::with_capacity(self.jobs);
        let mut clock = 0u64;
        for j in 0..self.jobs {
            // Exponential gap via inverse transform.
            let u: f64 = rng.gen_range(1e-9..1.0);
            let gap = (-u.ln() * self.mean_interarrival as f64) as u64;
            clock += gap;
            let idle = machine.advance_until(clock, cycle_limit)?;
            if idle {
                // Nothing runnable: the workstation sits idle until the
                // job arrives.
                machine.idle_until(clock);
            }
            let arrival = machine.cycles().max(clock);
            let spec = &specs[j % specs.len()];
            let pid = machine.spawn(spec.spawn_spec(with_sw))?;
            arrivals.push((pid, arrival, spec.expected_checksum()));
        }
        machine.run(cycle_limit)?;
        let report = machine.report();

        let mut turnarounds: Vec<(Pid, u64)> = Vec::with_capacity(self.jobs);
        let mut valid = report.killed.is_empty();
        for (pid, arrival, checksum) in &arrivals {
            match report.exited.iter().find(|(p, _, _)| p == pid) {
                Some((_, finish, code)) => {
                    valid &= code == checksum;
                    turnarounds.push((*pid, finish.saturating_sub(*arrival)));
                }
                None => valid = false,
            }
        }
        let mean_turnaround = turnarounds.iter().map(|(_, t)| t).sum::<u64>() as f64
            / turnarounds.len().max(1) as f64;
        Ok(DynamicResult {
            mean_turnaround,
            makespan: report.makespan,
            stats: report.stats,
            ledger: report.ledger,
            attributed: report.attributed,
            trace: machine.kernel().trace().snapshot(),
            trace_dropped: machine.kernel().trace().dropped(),
            total_cycles: machine.cycles(),
            turnarounds,
            valid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_arrivals_complete_and_validate() {
        let result = DynamicLoad {
            jobs: 6,
            mean_interarrival: 100_000,
            job_size: (32, 4),
            ..DynamicLoad::default()
        }
        .run()
        .expect("run");
        assert!(result.valid, "{result:?}");
        assert!(result.mean_turnaround > 0.0);
    }

    #[test]
    fn heavier_offered_load_increases_turnaround() {
        let run = |gap: u64| {
            DynamicLoad {
                jobs: 10,
                mean_interarrival: gap,
                job_size: (64, 8),
                ..DynamicLoad::default()
            }
            .run()
            .expect("run")
        };
        let sparse = run(50_000_000);
        let dense = run(10_000);
        assert!(sparse.valid && dense.valid);
        assert!(
            dense.mean_turnaround > sparse.mean_turnaround,
            "dense {} <= sparse {}",
            dense.mean_turnaround,
            sparse.mean_turnaround
        );
    }

    #[test]
    fn turnaround_matches_event_stream_span() {
        // Per-job turnaround must equal the spawn→exit span visible in
        // the event timeline — the two are produced by independent code
        // paths (arrival bookkeeping vs. probe emission).
        let mut load = DynamicLoad {
            jobs: 3,
            mean_interarrival: 150_000,
            job_size: (32, 2),
            ..DynamicLoad::default()
        };
        load.machine.kernel.trace_capacity = 1 << 16;
        let result = load.run().expect("run");
        assert!(result.valid, "{result:?}");
        assert_eq!(result.turnarounds.len(), 3);
        for &(pid, turnaround) in &result.turnarounds {
            let spawn = result
                .trace
                .iter()
                .find_map(|&(at, _, e)| match e {
                    Event::Spawn { pid: p } if p == pid => Some(at),
                    _ => None,
                })
                .expect("spawn event");
            let exit = result
                .trace
                .iter()
                .find_map(|&(at, _, e)| match e {
                    Event::Exit { pid: p, .. } if p == pid => Some(at),
                    _ => None,
                })
                .expect("exit event");
            assert_eq!(turnaround, exit - spawn, "pid {pid:?}");
        }
        assert_eq!(result.ledger.total(), result.total_cycles);
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let run = || {
            DynamicLoad { jobs: 5, job_size: (32, 2), ..DynamicLoad::default() }
                .run()
                .expect("run")
        };
        assert_eq!(run(), run());
    }
}

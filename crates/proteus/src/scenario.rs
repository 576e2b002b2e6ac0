//! One experimental run: N instances of a workload on one machine
//! configuration.

use porsche::cis::DispatchMode;
use porsche::costs::CostModel;
use porsche::fault::{FaultPlan, RecoveryPolicy};
use porsche::kernel::KernelError;
use porsche::policy::PolicyKind;
use porsche::probe::{AttributedLedger, CycleLedger, Event, Tag};
use porsche::stats::KernelStats;
use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
use proteus_apps::AppKind;

use crate::machine::{Machine, MachineConfig};

/// Simulated cycles after which a scenario run stops with an error: a
/// safety valve for runaway runs, far past any experiment's makespan.
const CYCLE_LIMIT: u64 = 500_000_000_000;

/// Builder for one run of the paper's experimental setup: between 1 and
/// N concurrent instances of a test application (paper §5.1; "sharing is
/// not allowed", which holds here automatically because every instance
/// registers its own circuit instances) on one [`MachineConfig`]. Each
/// setter from [`Scenario::quantum`] on writes one field of that config.
#[derive(Debug, Clone)]
pub struct Scenario {
    app: AppKind,
    accelerated: bool,
    instances: usize,
    size: usize,
    passes: u32,
    with_software_alt: bool,
    machine: MachineConfig,
}

impl Scenario {
    /// A single accelerated instance with small defaults on the default
    /// machine; chain setters to describe the experiment.
    pub fn new(app: AppKind) -> Self {
        Self {
            app,
            accelerated: true,
            instances: 1,
            size: default_size(app),
            passes: 4,
            with_software_alt: false,
            machine: MachineConfig::default(),
        }
    }

    /// Concurrent process instances (paper: 1–8).
    pub fn instances(mut self, n: usize) -> Self {
        self.instances = n;
        self
    }

    /// Work units per pass (pixels / samples / blocks).
    pub fn size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Passes over the data per process.
    pub fn passes(mut self, passes: u32) -> Self {
        self.passes = passes;
        self
    }

    /// Use the pure-software program variant (no custom instructions).
    pub fn software_only(mut self) -> Self {
        self.accelerated = false;
        self
    }

    /// Register the software alternatives without switching the dispatch
    /// mode: contention still reconfigures, but the fault handler's
    /// failover rung has a software path to fall back on.
    pub fn software_alts(mut self) -> Self {
        self.with_software_alt = true;
        self
    }

    /// Scheduling quantum in cycles.
    pub fn quantum(mut self, cycles: u64) -> Self {
        self.machine.kernel.quantum = cycles;
        self
    }

    /// PFU replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.machine.kernel.policy = policy;
        self
    }

    /// Contention resolution mode. [`DispatchMode::SoftwareFallback`]
    /// implies registering the software alternatives.
    pub fn mode(mut self, mode: DispatchMode) -> Self {
        self.machine.kernel.mode = mode;
        if mode == DispatchMode::SoftwareFallback {
            self.with_software_alt = true;
        }
        self
    }

    /// Override the kernel cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.machine.kernel.costs = costs;
        self
    }

    /// Enable §4.2 circuit sharing: same-image circuits share a PFU via
    /// state-frame swaps. The paper's experiments disable this.
    pub fn sharing(mut self, on: bool) -> Self {
        self.machine.kernel.share_circuits = on;
        self
    }

    /// Keep the latest `capacity` timeline events in the result (0, the
    /// default, disables tracing).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.machine.kernel.trace_capacity = capacity;
        self
    }

    /// Inject faults per `plan` (DESIGN.md §9). Pair with
    /// [`Scenario::watchdog`] so hung slots are actually detected.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.machine.kernel.faults = Some(plan);
        self
    }

    /// How far the kernel's fault handler climbs the recovery ladder
    /// (retry → software failover → quarantine).
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.machine.kernel.recovery = recovery;
        self
    }

    /// Number of PFUs (paper: 4).
    pub fn pfus(mut self, pfus: usize) -> Self {
        self.machine.rfu.pfus = pfus;
        self
    }

    /// Dispatch-TLB capacity.
    pub fn tlb_capacity(mut self, slots: usize) -> Self {
        self.machine.rfu.tlb_capacity = slots;
        self
    }

    /// Per-PFU watchdog allowance: clocks a slot may accumulate without
    /// raising `done` before the RFU trips a fault (`None` disables —
    /// the seed behaviour).
    pub fn watchdog(mut self, cycles: u64) -> Self {
        self.machine.rfu.watchdog_cycles = Some(cycles);
        self
    }

    /// Build the machine, spawn the instances and run to completion.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (spawn failure, cycle limit).
    pub fn run(&self) -> Result<ScenarioResult, KernelError> {
        let mut cfg = WorkloadConfig::new(self.app, self.size, self.passes);
        if !self.accelerated {
            cfg = cfg.software();
        }
        let spec = WorkloadSpec::build(cfg);
        let mut machine = Machine::new(self.machine.clone());
        for _ in 0..self.instances {
            machine.spawn(spec.spawn_spec(self.with_software_alt))?;
        }
        let report = machine.run(CYCLE_LIMIT)?;
        let expected = spec.expected_checksum();
        let valid = report.killed.is_empty()
            && report.exited.len() == self.instances
            && report.exited.iter().all(|(_, _, code)| *code == expected);
        Ok(ScenarioResult {
            makespan: report.makespan,
            stats: report.stats,
            ledger: report.ledger,
            attributed: report.attributed,
            trace: machine.kernel().trace().snapshot(),
            trace_dropped: machine.kernel().trace().dropped(),
            total_cycles: machine.cycles(),
            valid,
        })
    }
}

fn default_size(app: AppKind) -> usize {
    match app {
        AppKind::Alpha => 256,
        AppKind::Echo => 512,
        AppKind::Twofish => 16,
    }
}

/// Outcome of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Completion time of the last process, in cycles (the paper's
    /// y-axis).
    pub makespan: u64,
    /// Kernel management statistics.
    pub stats: KernelStats,
    /// Where every simulated cycle went (folded from the event stream).
    pub ledger: CycleLedger,
    /// The same cycles attributed per process × emit site; refolds to
    /// `ledger` exactly (see `porsche::probe::AttributedLedger`).
    pub attributed: AttributedLedger,
    /// Timeline events, oldest first (empty unless
    /// [`Scenario::trace_capacity`] was set).
    pub trace: Vec<(u64, Tag, Event)>,
    /// Events the trace ring discarded (oldest-first) once full; when
    /// non-zero, `trace` is only the *tail* of the timeline.
    pub trace_dropped: u64,
    /// Total simulated cycles, including post-makespan idle time; equals
    /// [`CycleLedger::total`] of `ledger`.
    pub total_cycles: u64,
    /// Every instance exited with the reference checksum.
    pub valid: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_instance_valid_for_each_app() {
        for app in AppKind::ALL {
            let r = Scenario::new(app).size(16).passes(1).run().expect("run");
            assert!(r.valid, "{app:?}: {r:?}");
        }
    }

    #[test]
    fn contention_appears_beyond_four_single_circuit_instances() {
        // Workloads must span several quanta so the instances overlap in
        // time: 5 alpha instances on 4 PFUs must evict; 4 must not.
        let run = |n| {
            Scenario::new(AppKind::Alpha)
                .instances(n)
                .size(64)
                .passes(30)
                .quantum(5_000)
                .run()
                .expect("run")
        };
        let no_contention = run(4);
        assert_eq!(no_contention.stats.evictions, 0, "{:?}", no_contention.stats);
        let contention = run(5);
        assert!(contention.stats.evictions > 0, "{:?}", contention.stats);
        assert!(contention.valid);
    }

    #[test]
    fn echo_contends_at_three_instances() {
        // Echo uses two circuits; with 4 PFUs, 2 instances fit, 3 thrash.
        let run = |n| {
            Scenario::new(AppKind::Echo)
                .instances(n)
                .size(128)
                .passes(20)
                .quantum(5_000)
                .run()
                .expect("run")
        };
        let fits = run(2);
        assert_eq!(fits.stats.evictions, 0, "{:?}", fits.stats);
        let thrash = run(3);
        assert!(thrash.stats.evictions > 0, "{:?}", thrash.stats);
        assert!(thrash.valid);
    }

    #[test]
    fn software_fallback_mode_validates_under_contention() {
        let r = Scenario::new(AppKind::Alpha)
            .instances(6)
            .size(64)
            .passes(30)
            .quantum(5_000)
            .mode(DispatchMode::SoftwareFallback)
            .run()
            .expect("run");
        assert!(r.valid);
        assert!(r.stats.software_installs >= 2, "{:?}", r.stats);
        assert_eq!(r.stats.evictions, 0, "{:?}", r.stats);
    }
}

//! The three benchmark workloads, described as plain scenario data.
//!
//! Each workload is a closed batch of independent scenario cells. A cell
//! mirrors the knobs of `proteus::Scenario`, but is run by
//! [`crate::batch`] through `Machine` directly, because the traced run has
//! to attach its own `EventSink` before the machine runs.

use porsche::fault::{FaultPlan, RecoveryPolicy};
use porsche::policy::PolicyKind;
use porsche::DispatchMode;
use proteus_apps::AppKind;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["hw_contended", "soft_dispatch", "mgmt_storm"];

/// The paper's 1 ms quantum at the 100 MHz model clock.
const QUANTUM_1MS: u64 = 100_000;
/// The paper's 10 ms (batch) quantum.
const QUANTUM_10MS: u64 = 1_000_000;

/// How large the cells are: `Full` is what the benchmark measures,
/// `Smoke` is a seconds-long version for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A small size that exercises every code path quickly.
    Smoke,
}

impl Scale {
    /// Parse a `--scale` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// Approximate single-instance compute cycles for one cell of
    /// `workload`.
    fn target_cycles(self, workload: &str) -> u64 {
        let full = match workload {
            "hw_contended" => 5_000_000,
            "soft_dispatch" => 6_000_000,
            _ => 9_000_000,
        };
        match self {
            Scale::Full => full,
            Scale::Smoke => full / 4,
        }
    }
}

/// The three seeds one `--seed` fans out to. The program sees only the
/// scenarios they generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Guest data seed (`WorkloadConfig::seed`).
    pub data: u32,
    /// `PolicyKind::Random` seed.
    pub policy: u64,
    /// `FaultPlan::seed`.
    pub faults: u64,
}

impl Seeds {
    /// Derive the three seeds from the benchmark's `--seed`.
    pub fn derive(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let data = (next() >> 32) as u32;
        Self { data, policy: next(), faults: next() }
    }
}

/// One scenario: N instances of an application under one configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable label (also the job's series name).
    pub label: String,
    /// Application.
    pub app: AppKind,
    /// Concurrent instances.
    pub instances: usize,
    /// Work units per pass.
    pub size: usize,
    /// Passes over the data.
    pub passes: u32,
    /// Guest data seed.
    pub data_seed: u32,
    /// Scheduling quantum in cycles.
    pub quantum: u64,
    /// PFU replacement policy.
    pub policy: PolicyKind,
    /// Contention resolution mode.
    pub mode: DispatchMode,
    /// Register the software alternatives.
    pub software_alts: bool,
    /// Fault-injection plan.
    pub faults: Option<FaultPlan>,
    /// Recovery ladder.
    pub recovery: RecoveryPolicy,
    /// Per-PFU watchdog allowance.
    pub watchdog: Option<u64>,
    /// Simulated cycles after which the run counts as hung.
    pub cycle_limit: u64,
}

impl Cell {
    fn new(app: AppKind, instances: usize, seeds: Seeds, target: u64) -> Self {
        // Accelerated cost per work unit, as in `proteus::experiment::Scale`.
        let (size, unit_cycles) = match app {
            AppKind::Alpha => (1024, 19u64),
            AppKind::Echo => (2048, 18),
            AppKind::Twofish => (64, 54),
        };
        let passes = (target / (size as u64 * unit_cycles)).max(1) as u32;
        Self {
            label: format!("{}x{instances}", app.name()),
            app,
            instances,
            size,
            passes,
            data_seed: seeds.data,
            quantum: QUANTUM_1MS,
            policy: PolicyKind::RoundRobin,
            mode: DispatchMode::HardwareOnly,
            software_alts: false,
            faults: None,
            recovery: RecoveryPolicy::default(),
            watchdog: None,
            // Contention stretches a cell far past its compute cycles,
            // but never by this much.
            cycle_limit: 100 * instances as u64 * target,
        }
    }

    fn labelled(mut self, suffix: &str) -> Self {
        self.label = format!("{} {suffix}", self.label);
        self
    }
}

/// The cells of `workload`, or `None` for an unknown name.
pub fn cells(workload: &str, seeds: Seeds, scale: Scale) -> Option<Vec<Cell>> {
    let target = scale.target_cycles(workload);
    let cells = match workload {
        // Fig. 2: circuit switching under contention. Six instances of
        // each application on four PFUs, 1 ms quantum, both replacement
        // policies: every quantum evicts and reloads, and alpha issues a
        // custom instruction about every 19 cycles.
        "hw_contended" => {
            let mut cells = Vec::new();
            for app in [AppKind::Alpha, AppKind::Echo, AppKind::Twofish] {
                for (policy, name) in [
                    (PolicyKind::RoundRobin, "rr"),
                    (PolicyKind::Random { seed: seeds.policy }, "random"),
                ] {
                    let mut cell = Cell::new(app, 6, seeds, target).labelled(name);
                    cell.policy = policy;
                    cells.push(cell);
                }
            }
            cells
        }
        // Fig. 3 "Soft": once the array is full, contenders defer to the
        // software alternative, so most cycles run in the interpreted
        // ldop/stres/retsd handler lane and the kernel is nearly idle.
        "soft_dispatch" => [AppKind::Echo, AppKind::Alpha]
            .into_iter()
            .map(|app| {
                let mut cell = Cell::new(app, 8, seeds, target).labelled("soft");
                cell.quantum = QUANTUM_10MS;
                cell.mode = DispatchMode::SoftwareFallback;
                cell.software_alts = true;
                cell
            })
            .collect(),
        // Kernel-bound: A7's short quanta make eight echo instances
        // reconfigure every few thousand cycles, and F1's full recovery
        // ladder (watchdog, scrub, retry, failover, quarantine) runs
        // under SEU, transit and stuck-at faults.
        "mgmt_storm" => {
            let mut cells: Vec<Cell> = [10_000u64, 30_000]
                .into_iter()
                .map(|quantum| {
                    let mut cell = Cell::new(AppKind::Echo, 8, seeds, target)
                        .labelled(&format!("q{}k", quantum / 1000));
                    cell.quantum = quantum;
                    cell
                })
                .collect();
            for kind in ["seu", "transit", "stuck"] {
                // F1's severity-1 upset rate, severity-2 transit error
                // rate and severity-2 stuck-at onset, scaled to the cell.
                let mut fp = FaultPlan { seed: seeds.faults, ..FaultPlan::default() };
                match kind {
                    "seu" => fp.seu_mean_cycles = target,
                    "transit" => fp.transit_error_rate = 0.3,
                    _ => fp.stuck_pfu = Some((0, target / 2)),
                }
                fp.scrub_interval = Some(target / 8);
                let mut cell = Cell::new(AppKind::Alpha, 5, seeds, target).labelled(kind);
                cell.software_alts = true;
                cell.watchdog = Some(5_000);
                cell.faults = Some(fp);
                cells.push(cell);
            }
            cells
        }
        _ => return None,
    };
    Some(cells)
}

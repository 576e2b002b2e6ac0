//! Referee for the O(1) circuit fast-forward: whole contended runs with
//! every circuit's `run_clocks` override replaced by per-clock clocking
//! must be indistinguishable from the runs as shipped.
//!
//! The scenarios have the shape of Fig. 2's contended regime: six
//! instances on four PFUs, so circuits are evicted and reloaded, under
//! Round Robin and Random replacement, with a quantum short enough that
//! Twofish's 20-clock encrypting invocation is regularly interrupted by
//! the timer and resumed (possibly after its circuit was swapped out)
//! through the §4.4 status register.

use std::cell::Cell;
use std::rc::Rc;

use porsche::kernel::{KernelConfig, RunReport, SpawnSpec};
use porsche::policy::PolicyKind;
use proteus::machine::{Machine, MachineConfig};
use proteus_apps::{AppKind, WorkloadConfig, WorkloadSpec};
use proteus_fabric::FabricError;
use proteus_rfu::{CircuitClock, CircuitState, PfuCircuit, RfuConfig};

/// Forwards everything except `run_clocks`, so the trait's per-clock
/// default drives the wrapped circuit one `clock` at a time.
#[derive(Debug)]
struct PerClock(Box<dyn PfuCircuit>);

impl PfuCircuit for PerClock {
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
        self.0.clock(op_a, op_b, init)
    }

    fn save_state(&self) -> CircuitState {
        self.0.save_state()
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        self.0.load_state(state)
    }

    fn state_words(&self) -> usize {
        self.0.state_words()
    }

    fn static_config_bytes(&self) -> usize {
        self.0.static_config_bytes()
    }
}

/// Forwards everything, `run_clocks` included (so the fast-forward
/// stays in use), and counts issues that resume an interrupted
/// instruction (`init` low): the coverage the referee relies on.
#[derive(Debug)]
struct CountResumes {
    inner: Box<dyn PfuCircuit>,
    resumes: Rc<Cell<u64>>,
}

impl PfuCircuit for CountResumes {
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
        self.inner.clock(op_a, op_b, init)
    }

    fn run_clocks(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64) -> (u64, Option<u32>) {
        if !init {
            self.resumes.set(self.resumes.get() + 1);
        }
        self.inner.run_clocks(op_a, op_b, init, budget)
    }

    fn save_state(&self) -> CircuitState {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        self.inner.load_state(state)
    }

    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn static_config_bytes(&self) -> usize {
        self.inner.static_config_bytes()
    }
}

/// Six instances of `app` on four PFUs under `policy`, each circuit
/// passed through `wrap` before registration.
fn contended_run(
    app: AppKind,
    policy: PolicyKind,
    wrap: &dyn Fn(Box<dyn PfuCircuit>) -> Box<dyn PfuCircuit>,
) -> (RunReport, u32) {
    let (size, passes) = match app {
        AppKind::Alpha => (64, 30),
        AppKind::Echo => (128, 10),
        AppKind::Twofish => (16, 40),
    };
    let spec = WorkloadSpec::build(WorkloadConfig::new(app, size, passes));
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig { quantum: 3_000, policy, ..KernelConfig::default() },
        rfu: RfuConfig::default(),
    });
    let entry = spec.program().symbol("start").expect("guest programs define start");
    for _ in 0..6 {
        let mut spawn = SpawnSpec::new(spec.program()).entry(entry);
        for mut circuit in spec.circuits(false) {
            circuit.circuit = wrap(circuit.circuit);
            spawn = spawn.circuit(circuit);
        }
        machine.spawn(spawn).expect("spawn");
    }
    (machine.run(1 << 34).expect("run completes"), spec.expected_checksum())
}

#[test]
fn fast_forward_matches_per_clock_clocking_under_contention() {
    for app in AppKind::ALL {
        for policy in [PolicyKind::RoundRobin, PolicyKind::Random { seed: 0x5EED_0008 }] {
            let what = format!("{app:?} under {policy:?}");
            let (fast, expected) = contended_run(app, policy, &|c| c);
            let (per_clock, _) = contended_run(app, policy, &|c| Box::new(PerClock(c)));
            let resumes = Rc::new(Cell::new(0));
            let (counted, _) = contended_run(app, policy, &|c| {
                Box::new(CountResumes { inner: c, resumes: Rc::clone(&resumes) })
            });

            // The run is a real contended run that computes the right
            // answer, not a degenerate one.
            assert!(fast.killed.is_empty(), "{what}: killed {:?}", fast.killed);
            assert_eq!(fast.exited.len(), 6, "{what}");
            assert!(fast.exited.iter().all(|&(_, _, code)| code == expected), "{what}: wrong checksum");
            assert!(fast.stats.evictions > 0, "{what}: no contention: {:?}", fast.stats);
            if app == AppKind::Twofish {
                // Only the encrypting invocation spans more than one
                // clock, so every resumed Twofish issue is an encrypt
                // the timer interrupted mid-block.
                assert!(resumes.get() > 0, "{what}: no encrypt was interrupted");
            }

            // Exited pids with finish cycles and checksums, kills,
            // makespan, stats, ledger and attribution all agree.
            assert_eq!(per_clock, fast, "{what}: per-clock clocking diverged from the fast-forward");
            assert_eq!(counted, fast, "{what}: the counting wrapper perturbed the run");
        }
    }
}

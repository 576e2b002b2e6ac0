//! The assembled ProteanARM workstation.

use porsche::kernel::{Kernel, KernelConfig, KernelError, RunReport, SpawnSpec};
use porsche::probe::EventSink;
use porsche::process::Pid;
use proteus_cpu::Cpu;
use proteus_rfu::{Rfu, RfuConfig};

/// Hardware + kernel configuration for a machine.
#[derive(Debug, Clone, Default)]
pub struct MachineConfig {
    /// Kernel parameters (quantum, costs, policy, dispatch mode).
    pub kernel: KernelConfig,
    /// RFU sizing (PFU count, TLB capacity).
    pub rfu: RfuConfig,
}

/// A complete simulated workstation: core, RFU and kernel.
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
    rfu: Rfu,
    kernel: Kernel,
}

impl Machine {
    /// Build a machine.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            cpu: Cpu::new(),
            rfu: Rfu::new(config.rfu),
            kernel: Kernel::new(config.kernel),
        }
    }

    /// Spawn a process. The spawn event is stamped with the machine's
    /// current cycle, so dynamic-arrival workloads get faithful
    /// spawn→exit spans in the trace.
    ///
    /// # Errors
    ///
    /// Propagates [`KernelError`] from the kernel.
    pub fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, KernelError> {
        let at = self.cpu.cycles();
        self.kernel.spawn_at(spec, at)
    }

    /// Run until every process exits.
    ///
    /// # Errors
    ///
    /// [`KernelError::CycleLimit`] if live processes remain at the limit.
    pub fn run(&mut self, cycle_limit: u64) -> Result<RunReport, KernelError> {
        self.kernel.run(&mut self.cpu, &mut self.rfu, cycle_limit)
    }

    /// Advance the machine to `stop_cycle` (or completion, whichever
    /// comes first); returns `true` when every process has exited. Used
    /// for dynamic workloads: advance, [`Machine::spawn`] arrivals,
    /// advance again.
    ///
    /// # Errors
    ///
    /// [`KernelError::CycleLimit`] at the hard limit.
    pub fn advance_until(&mut self, stop_cycle: u64, cycle_limit: u64) -> Result<bool, KernelError> {
        self.kernel.advance_until(&mut self.cpu, &mut self.rfu, stop_cycle, cycle_limit)
    }

    /// Fast-forward an *idle* machine's clock to `cycle` (no process is
    /// runnable, time still passes — e.g. waiting for the next job
    /// arrival). No-op if the clock is already past `cycle`.
    pub fn idle_until(&mut self, cycle: u64) {
        let now = self.cpu.cycles();
        if cycle > now {
            self.cpu.add_cycles(cycle - now);
            self.kernel.note_idle(now, cycle - now);
        }
    }

    /// Attach an extra observer to the machine's event stream.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.kernel.add_sink(sink);
    }

    /// Snapshot the outcome so far.
    pub fn report(&self) -> RunReport {
        self.kernel.report(&self.cpu)
    }

    /// Simulated cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles()
    }

    /// The core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The reconfigurable function unit.
    pub fn rfu(&self) -> &Rfu {
        &self.rfu
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_isa::assemble;

    #[test]
    fn machine_runs_a_trivial_process() {
        let p = assemble("mov r0, #9\n swi #0\n").expect("asm");
        let mut m = Machine::new(MachineConfig::default());
        let pid = m.spawn(SpawnSpec::new(&p)).expect("spawn");
        let report = m.run(1_000_000).expect("run");
        assert_eq!(report.exited, vec![(pid, report.makespan, 9)]);
        assert!(m.cpu().cycles() > 0);
    }
}

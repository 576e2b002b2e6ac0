//! The kernel proper: process table, pre-emptive round-robin scheduler,
//! system calls, and the machine run loop.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

use proteus_cpu::cpu::{Context, Stop};
use proteus_cpu::{Coprocessor, Cpu, MemError, Memory};
use proteus_isa::Program;
use proteus_rfu::{Rfu, TupleKey};

use crate::cis::{Cis, DispatchMode, FaultResolution};
use crate::costs::CostModel;
use crate::fault::{FaultPlan, FaultUnit, RecoveryPolicy};
use crate::policy::PolicyKind;
use crate::probe::{AttributedLedger, Callsite, CycleLedger, Event, EventSink, Probe, Tag};
use crate::process::{CircuitSpec, Pid, ProcState, Process};
use crate::stats::KernelStats;
use crate::trace::Trace;

/// `swi` numbers understood by POrSCHE.
pub mod swi {
    /// Terminate the calling process; `r0` is the exit code.
    pub const EXIT: u32 = 0;
    /// Surrender the rest of the quantum.
    pub const YIELD: u32 = 1;
    /// Append `r0 & 0xFF` to the process console.
    pub const PUTC: u32 = 2;
    /// Register custom instruction `r0` (CID) from slot `r1` of the
    /// spawn-time circuit table, with software alternative at `r2`
    /// (0 = none).
    pub const REGISTER: u32 = 3;
    /// Return the caller's PID in `r0`.
    pub const GETPID: u32 = 4;
}

/// Kernel configuration.
#[derive(Debug)]
pub struct KernelConfig {
    /// Scheduling quantum in cycles (paper: 10 ms and 1 ms; at the
    /// DESIGN.md 100 MHz clock those are 1 000 000 and 100 000 cycles).
    pub quantum: u64,
    /// Management cycle costs.
    pub costs: CostModel,
    /// PFU replacement policy.
    pub policy: PolicyKind,
    /// Contention resolution mode.
    pub mode: DispatchMode,
    /// Default per-process memory size in bytes.
    pub default_mem: u32,
    /// Event-trace capacity: keep at most this many timeline events
    /// (see [`crate::trace::Trace`]); 0 disables tracing.
    pub trace_capacity: usize,
    /// Enable §4.2 circuit sharing: processes registering circuits with
    /// the same configuration image share a PFU via state-frame swaps.
    /// The paper's experiments run with this off.
    pub share_circuits: bool,
    /// Minimum run time guaranteed after a custom-instruction fault is
    /// resolved. Without it, a quantum shorter than the configuration
    /// load time livelocks under contention: every process spends its
    /// whole quantum inside the fault handler, is preempted before
    /// reissuing, and finds its circuit evicted when it runs again. The
    /// paper's quanta (1 ms / 10 ms) dwarf the 54 KB load so it never
    /// sees this; the guarantee only matters for aggressive quanta.
    pub post_fault_grace: u64,
    /// Fault-injection plan (SEU arrivals, transit errors, a stuck
    /// slot, scrub cadence); `None` simulates a fault-free machine.
    pub faults: Option<FaultPlan>,
    /// How far the fault handler goes to keep a faulting custom
    /// instruction alive (retry → software failover → quarantine).
    pub recovery: RecoveryPolicy,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            quantum: 1_000_000,
            costs: CostModel::default(),
            policy: PolicyKind::RoundRobin,
            mode: DispatchMode::HardwareOnly,
            default_mem: 1 << 20,
            trace_capacity: 0,
            share_circuits: false,
            post_fault_grace: 2_000,
            faults: None,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Everything needed to start a process.
pub struct SpawnSpec {
    words: Vec<u32>,
    origin: u32,
    entry: u32,
    mem_size: u32,
    circuits: Vec<CircuitSpec>,
    circuit_table: Vec<Option<CircuitSpec>>,
}

impl fmt::Debug for SpawnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpawnSpec")
            .field("origin", &self.origin)
            .field("entry", &self.entry)
            .field("mem_size", &self.mem_size)
            .field("circuits", &self.circuits.len())
            .finish_non_exhaustive()
    }
}

impl SpawnSpec {
    /// Spawn `program` with defaults: entry at the program origin, the
    /// kernel's default memory size, no circuits.
    pub fn new(program: &Program) -> Self {
        Self {
            words: program.words().to_vec(),
            origin: program.origin(),
            entry: program.origin(),
            mem_size: 0, // 0 = kernel default
            circuits: Vec::new(),
            circuit_table: Vec::new(),
        }
    }

    /// Override the entry point.
    pub fn entry(mut self, entry: u32) -> Self {
        self.entry = entry;
        self
    }

    /// Override the memory size (bytes, word-aligned).
    pub fn mem_size(mut self, bytes: u32) -> Self {
        self.mem_size = bytes;
        self
    }

    /// Register a custom instruction at spawn time.
    pub fn circuit(mut self, spec: CircuitSpec) -> Self {
        self.circuits.push(spec);
        self
    }

    /// Provide a circuit for later guest-side `swi #3` registration; the
    /// returned index goes in `r1`.
    pub fn table_circuit(mut self, spec: CircuitSpec) -> (Self, u32) {
        self.circuit_table.push(Some(spec));
        let idx = self.circuit_table.len() as u32 - 1;
        (self, idx)
    }
}

/// Kernel-level failure.
#[derive(Debug)]
pub enum KernelError {
    /// The run hit the caller's cycle limit with live processes left.
    CycleLimit {
        /// Cycles consumed.
        cycles: u64,
        /// Processes still live.
        live: usize,
    },
    /// A spawn could not fit the program into process memory.
    Spawn(MemError),
    /// Two circuits registered under one CID.
    DuplicateCid {
        /// Offending process.
        pid: Pid,
        /// Offending CID.
        cid: u8,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::CycleLimit { cycles, live } => {
                write!(f, "cycle limit reached after {cycles} cycles with {live} live processes")
            }
            KernelError::Spawn(e) => write!(f, "spawn failed: {e}"),
            KernelError::DuplicateCid { pid, cid } => {
                write!(f, "process {pid} registered CID {cid} twice")
            }
        }
    }
}

impl Error for KernelError {}

impl From<MemError> for KernelError {
    fn from(e: MemError) -> Self {
        KernelError::Spawn(e)
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// `(pid, finish_cycle, exit_code)` for every exited process.
    pub exited: Vec<(Pid, u64, u32)>,
    /// Processes the kernel terminated.
    pub killed: Vec<Pid>,
    /// Cycle at which the last process finished.
    pub makespan: u64,
    /// Management statistics.
    pub stats: KernelStats,
    /// Where every simulated cycle went (categories sum to the clock):
    /// `attributed.refold()`.
    pub ledger: CycleLedger,
    /// The same cycles sliced per-process × per-callsite.
    pub attributed: AttributedLedger,
}

impl RunReport {
    /// Finish cycle of process `pid`, if it exited.
    pub fn finish_of(&self, pid: Pid) -> Option<u64> {
        self.exited.iter().find(|(p, _, _)| *p == pid).map(|(_, c, _)| *c)
    }
}

/// The POrSCHE kernel.
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    procs: BTreeMap<Pid, Process>,
    ready: VecDeque<Pid>,
    current: Option<Pid>,
    next_pid: Pid,
    cis: Cis,
    probe: Probe,
    quantum_end: u64,
    faults: FaultUnit,
}

impl Kernel {
    /// A kernel with no processes.
    pub fn new(config: KernelConfig) -> Self {
        let cis = Cis::new(&config);
        let probe = Probe::new(config.trace_capacity);
        let faults = FaultUnit::new(config.faults.unwrap_or_default());
        Self {
            config,
            procs: BTreeMap::new(),
            ready: VecDeque::new(),
            current: None,
            next_pid: 1,
            cis,
            probe,
            quantum_end: 0,
            faults,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Create a process.
    ///
    /// # Errors
    ///
    /// [`KernelError::Spawn`] if the program does not fit in the
    /// process's memory; [`KernelError::DuplicateCid`] on CID collisions.
    pub fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, KernelError> {
        self.spawn_at(spec, 0)
    }

    /// Create a process, stamping its [`Event::Spawn`] at simulated
    /// cycle `at` — the arrival time for dynamic workloads, so a
    /// spawn→exit span in the event stream equals the job's turnaround.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::spawn`].
    pub fn spawn_at(&mut self, spec: SpawnSpec, at: u64) -> Result<Pid, KernelError> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let mem_size = if spec.mem_size == 0 { self.config.default_mem } else { spec.mem_size };
        let mut mem = Memory::new(mem_size);
        let mut addr = spec.origin;
        for &w in &spec.words {
            mem.write_word(addr, w)?;
            addr += 4;
        }
        let mut ctx = Context::default();
        ctx.regs[13] = mem_size; // full descending stack at the top
        ctx.regs[15] = spec.entry;
        let mut cids = BTreeSet::new();
        if let Some(dup) = spec.circuits.iter().find(|c| !cids.insert(c.cid)) {
            return Err(KernelError::DuplicateCid { pid, cid: dup.cid });
        }
        for c in spec.circuits {
            let fresh = self.cis.register(TupleKey::new(pid, c.cid), c);
            debug_assert!(fresh, "a new process has no registrations");
        }
        self.procs.insert(
            pid,
            Process {
                pid,
                ctx,
                mem,
                rfu_regs: [0; 16],
                operand_block: [0; 5],
                state: ProcState::Ready,
                circuit_table: spec.circuit_table,
                finish_cycle: None,
                console: Vec::new(),
            },
        );
        self.ready.push_back(pid);
        self.probe.emit(at, Tag::new(pid, Callsite::ContextSwitch), Event::Spawn { pid });
        Ok(pid)
    }

    /// Console output of a process (bytes written via `swi #2`).
    pub fn console_of(&self, pid: Pid) -> Option<&[u8]> {
        self.procs.get(&pid).map(|p| p.console.as_slice())
    }

    /// Statistics gathered so far (a fold over the probe stream).
    pub fn stats(&self) -> &KernelStats {
        self.probe.stats()
    }

    /// The per-process × per-callsite attribution matrix gathered so
    /// far.
    pub fn attributed(&self) -> &AttributedLedger {
        self.probe.attributed()
    }

    /// The recorded event timeline (empty unless
    /// [`KernelConfig::trace_capacity`] was set).
    pub fn trace(&self) -> &Trace {
        self.probe.trace()
    }

    /// Attach an extra [`EventSink`] to the instrumentation bus; it
    /// observes every event emitted from now on.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.probe.add_sink(sink);
    }

    /// Record `cycles` of externally-imposed idle time ending at `at`
    /// (the embedder advances the clock; the kernel attributes it).
    pub fn note_idle(&mut self, at: u64, cycles: u64) {
        if cycles > 0 {
            self.probe.emit(at, Tag::kernel(Callsite::Idle), Event::Idle { cycles });
        }
    }

    fn live_count(&self) -> usize {
        self.procs.values().filter(|p| p.is_live()).count()
    }

    fn save_current(&mut self, cpu: &Cpu, rfu: &Rfu) {
        if let Some(pid) = self.current {
            if let Some(p) = self.procs.get_mut(&pid) {
                p.ctx = cpu.save_context();
                p.rfu_regs = rfu.regs().save();
                for i in 0..5u8 {
                    p.operand_block[i as usize] = rfu.read_operand_field(i);
                }
            }
        }
    }

    fn restore(&mut self, pid: Pid, cpu: &mut Cpu, rfu: &mut Rfu) {
        let Some(p) = self.procs.get(&pid) else {
            // The ready queue only ever holds spawned PIDs.
            debug_assert!(false, "restoring unknown process {pid}");
            return;
        };
        cpu.restore_context(&p.ctx);
        rfu.regs_mut().restore(p.rfu_regs);
        for i in 0..5u8 {
            rfu.write_operand_field(i, p.operand_block[i as usize]);
        }
        // The processor's PID register (§4.2), by convention RFU r15.
        rfu.regs_mut().write(15, pid);
        self.current = Some(pid);
        self.quantum_end = cpu.cycles() + self.config.quantum;
    }

    /// Attribute a guest execution span that started at `span_start`,
    /// splitting it into user, custom-execute and software-dispatch
    /// cycles using the CPU's execution mix and the RFU's dispatch
    /// counters (both drained per span) — O(1) work per quantum, one
    /// [`Event::Compute`] per span via [`Probe::compute_span`].
    fn attribute_span(&mut self, pid: Pid, span_start: u64, cpu: &mut Cpu, rfu: &mut Rfu) {
        let mix = cpu.take_exec_mix();
        let counters = rfu.take_dispatch_counters();
        let span = cpu.cycles() - span_start;
        if span == 0 {
            return;
        }
        debug_assert!(mix.custom + mix.soft_dispatch <= span, "mix exceeds span");
        let user = span.saturating_sub(mix.custom + mix.soft_dispatch);
        self.probe.compute_span(
            cpu.cycles(),
            pid,
            user,
            mix.custom,
            mix.soft_dispatch,
            counters.hw_dispatches,
            counters.sw_dispatches,
        );
    }

    /// Apply every environmental fault due at the current clock: the
    /// stuck-at onset, SEU strikes on configuration SRAM, and periodic
    /// scrub passes. Returns at once while nothing is due, which under
    /// the default (fault-free) plan is always.
    fn service_faults(&mut self, cpu: &mut Cpu, rfu: &mut Rfu) {
        let now = cpu.cycles();
        if self.faults.next_due().is_none_or(|due| due > now) {
            return;
        }
        let fu = &mut self.faults;
        if let Some(pfu) = fu.take_due_stuck(now) {
            if pfu < rfu.pfus().len() {
                rfu.pfus_mut().health_mut(pfu).stuck_done = true;
            }
        }
        for pfu in fu.take_due_seus(now, rfu.pfus().len()) {
            self.probe.emit(now, Tag::kernel(Callsite::Scrub), Event::SeuStrike { pfu });
            // A strike on an empty slot damages SRAM the next load
            // rewrites anyway; only resident configurations suffer.
            if rfu.pfus().is_loaded(pfu) {
                rfu.pfus_mut().health_mut(pfu).config_corrupt = true;
            }
        }
        if fu.take_due_scrub(now) {
            let spent = self.cis.scrub(rfu, &mut self.probe, now);
            cpu.add_cycles(spent);
        }
    }

    /// Timer-driven pre-emption: rotate the ready queue.
    fn preempt(&mut self, cpu: &mut Cpu, rfu: &mut Rfu) {
        match self.ready.pop_front() {
            Some(next) => {
                self.save_current(cpu, rfu);
                if let Some(cur) = self.current {
                    self.ready.push_back(cur);
                }
                let cost = self.config.costs.context_switch;
                cpu.add_cycles(cost);
                self.probe.emit(
                    cpu.cycles(),
                    Tag::new(next, Callsite::ContextSwitch),
                    Event::ContextSwitch { from: self.current, to: next, cost },
                );
                self.restore(next, cpu, rfu);
            }
            None => {
                // Sole runnable process: acknowledge the timer and carry on.
                let cost = self.config.costs.timer_tick;
                cpu.add_cycles(cost);
                if let Some(pid) = self.current {
                    self.probe.emit(
                        cpu.cycles(),
                        Tag::new(pid, Callsite::ContextSwitch),
                        Event::TimerTick { pid, cost },
                    );
                }
                self.quantum_end = cpu.cycles() + self.config.quantum;
            }
        }
    }

    /// Terminate the current process with the given state.
    fn terminate(&mut self, state: ProcState, cpu: &mut Cpu, rfu: &mut Rfu) {
        let Some(pid) = self.current.take() else { return };
        self.cis.release_process(pid, rfu);
        if let Some(p) = self.procs.get_mut(&pid) {
            p.state = state;
            p.finish_cycle = Some(cpu.cycles());
        }
        let tag = Tag::new(pid, Callsite::ContextSwitch);
        match state {
            ProcState::Killed => {
                self.probe.emit(cpu.cycles(), tag, Event::Kill { pid });
            }
            ProcState::Exited { code } => {
                self.probe.emit(cpu.cycles(), tag, Event::Exit { pid, code });
            }
            ProcState::Ready => {}
        }
    }

    fn syscall(&mut self, imm: u32, cpu: &mut Cpu, rfu: &mut Rfu) {
        let cost = self.config.costs.syscall;
        cpu.add_cycles(cost);
        let Some(pid) = self.current else { return };
        self.probe.emit(
            cpu.cycles(),
            Tag::new(pid, Callsite::Syscall),
            Event::Syscall { pid, number: imm, cost },
        );
        match imm {
            swi::EXIT => {
                let code = cpu.reg(0);
                self.terminate(ProcState::Exited { code }, cpu, rfu);
            }
            swi::YIELD => {
                self.preempt(cpu, rfu);
            }
            swi::PUTC => {
                let byte = (cpu.reg(0) & 0xFF) as u8;
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.console.push(byte);
                }
            }
            swi::REGISTER => {
                let key = TupleKey::new(pid, (cpu.reg(0) & 0xFF) as u8);
                let idx = cpu.reg(1) as usize;
                let sw = cpu.reg(2);
                let spec = self
                    .procs
                    .get_mut(&pid)
                    .and_then(|p| p.circuit_table.get_mut(idx))
                    .and_then(Option::take);
                let registered = spec.is_some_and(|mut spec| {
                    if sw != 0 {
                        spec.software_alt = Some(sw);
                    }
                    self.cis.register(key, spec)
                });
                if !registered {
                    self.terminate(ProcState::Killed, cpu, rfu);
                }
            }
            swi::GETPID => {
                cpu.set_reg(0, pid);
            }
            _ => {
                self.terminate(ProcState::Killed, cpu, rfu);
            }
        }
    }

    /// Run the machine until every process exits or `cycle_limit` is hit.
    ///
    /// # Errors
    ///
    /// [`KernelError::CycleLimit`] if live processes remain at the limit.
    pub fn run(
        &mut self,
        cpu: &mut Cpu,
        rfu: &mut Rfu,
        cycle_limit: u64,
    ) -> Result<RunReport, KernelError> {
        match self.advance_until(cpu, rfu, u64::MAX, cycle_limit)? {
            true => Ok(self.report(cpu)),
            false => unreachable!("advance_until(stop = MAX) only returns on completion"),
        }
    }

    /// Run until every process exits (`Ok(true)`) or the simulated clock
    /// reaches `stop_cycle` (`Ok(false)`, resumable) — the entry point
    /// for dynamic workloads, where new processes arrive over time:
    /// advance, spawn, advance again.
    ///
    /// # Errors
    ///
    /// [`KernelError::CycleLimit`] if live processes remain at the hard
    /// `cycle_limit`.
    pub fn advance_until(
        &mut self,
        cpu: &mut Cpu,
        rfu: &mut Rfu,
        stop_cycle: u64,
        cycle_limit: u64,
    ) -> Result<bool, KernelError> {
        self.cis.fit(rfu);
        // Dispatch the first process.
        if self.current.is_none() {
            if let Some(first) = self.ready.pop_front() {
                self.restore(first, cpu, rfu);
            }
        }
        while self.live_count() > 0 {
            if cpu.cycles() >= stop_cycle {
                return Ok(false);
            }
            let Some(pid) = self.current else {
                // Current process died; pick the next runnable one.
                match self.ready.pop_front() {
                    Some(next) => {
                        let cost = self.config.costs.context_switch;
                        cpu.add_cycles(cost);
                        self.probe.emit(
                            cpu.cycles(),
                            Tag::new(next, Callsite::ContextSwitch),
                            Event::ContextSwitch { from: None, to: next, cost },
                        );
                        self.restore(next, cpu, rfu);
                        continue;
                    }
                    None => break,
                }
            };
            if cpu.cycles() >= cycle_limit {
                return Err(KernelError::CycleLimit { cycles: cpu.cycles(), live: self.live_count() });
            }
            self.service_faults(cpu, rfu);
            let natural = self.quantum_end.min(cycle_limit).min(stop_cycle);
            // Injected faults land at their exact cycle: cap the run at
            // the next due event and resume without preempting.
            let until = match self.faults.next_due() {
                Some(due) => natural.min(due.max(cpu.cycles() + 1)),
                None => natural,
            };
            let span_start = cpu.cycles();
            let stop = match self.procs.get_mut(&pid) {
                Some(p) => cpu.run(&mut p.mem, rfu, until),
                None => {
                    // `current` always names a spawned process.
                    debug_assert!(false, "current process {pid} missing from the table");
                    self.current = None;
                    continue;
                }
            };
            self.attribute_span(pid, span_start, cpu, rfu);
            if matches!(stop, Stop::Quantum) && until < natural && cpu.cycles() < natural {
                // Stopped at a fault-injection boundary, not the
                // quantum's end; the loop top applies what is due.
                continue;
            }
            match stop {
                Stop::Quantum => {
                    if cpu.cycles() >= cycle_limit && self.live_count() > 0 {
                        return Err(KernelError::CycleLimit {
                            cycles: cpu.cycles(),
                            live: self.live_count(),
                        });
                    }
                    self.preempt(cpu, rfu);
                }
                Stop::Swi { imm } => self.syscall(imm, cpu, rfu),
                Stop::CustomFault { cid, .. } => {
                    let resolution = self.cis.handle_fault(
                        TupleKey::new(pid, cid),
                        rfu,
                        &mut self.faults,
                        &mut self.probe,
                        cpu.cycles(),
                    );
                    match resolution {
                        FaultResolution::Reissue { cycles } => {
                            cpu.add_cycles(cycles);
                            // Progress guarantee (see KernelConfig).
                            self.quantum_end =
                                self.quantum_end.max(cpu.cycles() + self.config.post_fault_grace);
                        }
                        FaultResolution::Kill { cycles } => {
                            // Charge everything the handler did before
                            // reaching the verdict (entry, diagnosis,
                            // failed retries) so every cost it emitted
                            // stays conserved.
                            cpu.add_cycles(cycles);
                            self.terminate(ProcState::Killed, cpu, rfu);
                        }
                    }
                }
                Stop::Undefined { .. } | Stop::MemFault { .. } => {
                    self.terminate(ProcState::Killed, cpu, rfu);
                }
            }
        }
        Ok(true)
    }

    /// Snapshot the run outcome so far (exited/killed processes, stats).
    pub fn report(&self, cpu: &Cpu) -> RunReport {
        let mut exited: Vec<(Pid, u64, u32)> = self
            .procs
            .values()
            .filter_map(|p| match p.state {
                ProcState::Exited { code } => Some((p.pid, p.finish_cycle.unwrap_or(0), code)),
                _ => None,
            })
            .collect();
        exited.sort_unstable();
        let killed: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| matches!(p.state, ProcState::Killed))
            .map(|p| p.pid)
            .collect();
        let makespan = self
            .procs
            .values()
            .filter_map(|p| p.finish_cycle)
            .max()
            .unwrap_or_else(|| cpu.cycles());
        RunReport {
            exited,
            killed,
            makespan,
            stats: *self.probe.stats(),
            ledger: self.probe.attributed().refold(),
            attributed: self.probe.attributed().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_isa::assemble;
    use proteus_rfu::behavioral::FixedLatency;
    use proteus_rfu::RfuConfig;

    fn machine() -> (Cpu, Rfu) {
        (Cpu::new(), Rfu::new(RfuConfig::default()))
    }

    #[test]
    fn single_process_exits() {
        let p = assemble("mov r0, #7\n swi #0\n").expect("asm");
        let mut k = Kernel::new(KernelConfig::default());
        let pid = k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 1_000_000).expect("run");
        assert_eq!(report.exited, vec![(pid, report.makespan, 7)]);
    }

    #[test]
    fn round_robin_interleaves_processes() {
        // Two CPU-bound processes; with a small quantum both should make
        // progress and finish close together.
        let src = "ldr r1, =20000\nloop: subs r1, r1, #1\n bne loop\n swi #0\n";
        let p = assemble(src).expect("asm");
        let mut k = Kernel::new(KernelConfig { quantum: 5_000, ..KernelConfig::default() });
        let a = k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let b = k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 100_000_000).expect("run");
        let fa = report.finish_of(a).expect("a finished");
        let fb = report.finish_of(b).expect("b finished");
        assert!(report.stats.context_switches > 5, "stats: {:?}", report.stats);
        // Interleaved: the first finisher is past ~90% of the second.
        let (lo, hi) = (fa.min(fb), fa.max(fb));
        assert!(lo * 10 > hi * 9, "lo={lo} hi={hi}");
    }

    #[test]
    fn custom_instruction_roundtrip_through_fault_handler() {
        let src = "mov r0, #30\n mov r1, #12\n pfu 0, r2, r0, r1\n mov r0, r2\n swi #0\n";
        let p = assemble(src).expect("asm");
        let spec = SpawnSpec::new(&p).circuit(CircuitSpec {
            cid: 0,
            circuit: Box::new(FixedLatency::new("add", 1, 4, |a, b| a.wrapping_add(b))),
            software_alt: None, image: None });
        let mut k = Kernel::new(KernelConfig::default());
        let pid = k.spawn(spec).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 10_000_000).expect("run");
        assert_eq!(report.exited[0].0, pid);
        assert_eq!(report.exited[0].2, 42);
        assert_eq!(report.stats.custom_faults, 1);
        assert_eq!(report.stats.config_loads, 1);
    }

    #[test]
    fn absent_fault_plan_runs_like_the_default_plan() {
        // The kernel always owns a fault unit; `faults: None` maps to the
        // default plan, which must draw and schedule nothing.
        let src = "mov r0, #30\n mov r1, #12\n ldr r4, =40\n\
                   loop: pfu 0, r2, r0, r1\n subs r4, r4, #1\n bne loop\n mov r0, r2\n swi #0\n";
        let p = assemble(src).expect("asm");
        let run = |faults: Option<FaultPlan>| {
            let mut k = Kernel::new(KernelConfig {
                quantum: 2_000,
                trace_capacity: 1 << 14,
                faults,
                ..KernelConfig::default()
            });
            for _ in 0..4 {
                let spec = SpawnSpec::new(&p).circuit(CircuitSpec {
                    cid: 0,
                    circuit: Box::new(FixedLatency::new("add", 3, 4, |a, b| a.wrapping_add(b))),
                    software_alt: None,
                    image: None,
                });
                k.spawn(spec).expect("spawn");
            }
            let mut cpu = Cpu::new();
            let mut rfu = Rfu::new(RfuConfig { pfus: 2, ..RfuConfig::default() });
            let report = k.run(&mut cpu, &mut rfu, 100_000_000).expect("run");
            (report, k.trace().snapshot())
        };
        let (report, trace) = run(None);
        assert!(report.stats.config_loads > 2, "contended slots reload: {:?}", report.stats);
        assert!(!trace.is_empty());
        assert_eq!(run(Some(FaultPlan::default())), (report, trace));
    }

    #[test]
    fn unregistered_cid_kills_process() {
        let p = assemble("pfu 9, r0, r0, r0\n swi #0\n").expect("asm");
        let mut k = Kernel::new(KernelConfig::default());
        let pid = k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 1_000_000).expect("run");
        assert_eq!(report.killed, vec![pid]);
    }

    #[test]
    fn guest_side_registration_via_swi() {
        let src = "mov r0, #5\n mov r1, #0\n mov r2, #0\n swi #3\n\
                   mov r0, #8\n mov r1, #9\n pfu 5, r3, r0, r1\n mov r0, r3\n swi #0\n";
        let p = assemble(src).expect("asm");
        let (spec, idx) = SpawnSpec::new(&p).table_circuit(CircuitSpec {
            cid: 5,
            circuit: Box::new(FixedLatency::new("mul", 2, 4, |a, b| a.wrapping_mul(b))),
            software_alt: None, image: None });
        assert_eq!(idx, 0);
        let mut k = Kernel::new(KernelConfig::default());
        k.spawn(spec).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 10_000_000).expect("run");
        assert_eq!(report.exited[0].2, 72);
    }

    #[test]
    fn putc_console_capture() {
        let src = "mov r0, #72\n swi #2\n mov r0, #105\n swi #2\n mov r0, #0\n swi #0\n";
        let p = assemble(src).expect("asm");
        let mut k = Kernel::new(KernelConfig::default());
        let pid = k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        k.run(&mut cpu, &mut rfu, 1_000_000).expect("run");
        assert_eq!(k.console_of(pid), Some(b"Hi".as_slice()));
    }

    #[test]
    fn cycle_limit_errors_with_live_processes() {
        let p = assemble("loop: b loop\n").expect("asm");
        let mut k = Kernel::new(KernelConfig::default());
        k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        match k.run(&mut cpu, &mut rfu, 50_000) {
            Err(KernelError::CycleLimit { live: 1, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn yield_rotates_immediately() {
        // Process A yields in a loop; B counts. Both finish despite A
        // never exhausting a quantum.
        let a = assemble("mov r2, #50\nloop: swi #1\n subs r2, r2, #1\n bne loop\n mov r0, #0\n swi #0\n").expect("asm");
        let b = assemble("ldr r1, =5000\nloop: subs r1, r1, #1\n bne loop\n mov r0, #0\n swi #0\n").expect("asm");
        let mut k = Kernel::new(KernelConfig { quantum: 100_000, ..KernelConfig::default() });
        k.spawn(SpawnSpec::new(&a)).expect("spawn");
        k.spawn(SpawnSpec::new(&b)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 100_000_000).expect("run");
        assert_eq!(report.exited.len(), 2);
        // While B is alive a yield from A forces a real switch; once B
        // exits the remaining yields become cheap timer ticks.
        assert!(report.stats.context_switches >= 2, "stats: {:?}", report.stats);
        assert!(report.stats.timer_ticks >= 40, "stats: {:?}", report.stats);
    }

    #[test]
    fn duplicate_cid_reports_the_cid_and_registers_nothing() {
        let p = assemble("swi #0\n").expect("asm");
        let adder = |cid| CircuitSpec {
            cid,
            circuit: Box::new(FixedLatency::new("add", 1, 4, |a, b| a.wrapping_add(b))),
            software_alt: None,
            image: None,
        };
        let spec = SpawnSpec::new(&p).circuit(adder(3)).circuit(adder(7)).circuit(adder(7));
        let mut k = Kernel::new(KernelConfig::default());
        let err = k.spawn(spec).expect_err("CID 7 registered twice");
        assert!(matches!(err, KernelError::DuplicateCid { pid: 1, cid: 7 }), "{err:?}");
        assert_eq!(err.to_string(), "process 1 registered CID 7 twice");
        for cid in [3, 7] {
            assert!(k.cis.registration(TupleKey::new(1, cid)).is_none(), "CID {cid} left registered");
        }
    }

    #[test]
    fn getpid_returns_pid() {
        let p = assemble("swi #4\n swi #0\n").expect("asm");
        let mut k = Kernel::new(KernelConfig::default());
        let pid = k.spawn(SpawnSpec::new(&p)).expect("spawn");
        let (mut cpu, mut rfu) = machine();
        let report = k.run(&mut cpu, &mut rfu, 1_000_000).expect("run");
        assert_eq!(report.exited[0], (pid, report.makespan, pid));
    }
}

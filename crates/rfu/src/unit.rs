//! The complete RFU: dispatch TLBs + PFU array + register file + operand
//! block, implementing the core's [`Coprocessor`] port.

use proteus_cpu::coproc::{CoprocResult, Coprocessor, OperandBlock, RetInfo};
use proteus_isa::OperandSel;

use crate::cam::{Cam, TupleKey};
use crate::pfu::{PfuArray, PfuIndex, RunOutcome};
use crate::regfile::RegFile;

/// Hardware sizing of the unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfuConfig {
    /// Number of PFUs (the paper's ProteanARM uses 4).
    pub pfus: usize,
    /// Slots in each dispatch TLB.
    pub tlb_capacity: usize,
    /// Upper bound on cycles a single issue may clock a PFU before the
    /// unit declares the circuit runaway and faults (the OS's guarantee
    /// that instructions terminate, §2/§4.4).
    pub max_instruction_cycles: u64,
    /// Whether custom instructions honour the interrupt budget via the
    /// §4.4 status-register mechanism. `false` models the paper's
    /// rejected alternative — uninterruptible instructions that run to
    /// completion and stretch interrupt latency (ablation A6).
    pub interruptible: bool,
    /// Per-PFU watchdog: if a slot accumulates this many clocks without
    /// raising `done` (across interrupted reissues), the unit trips a
    /// [`FaultInfo::Watchdog`] fault instead of clocking further —
    /// the detection point for hung/stuck/corrupt circuits. `None`
    /// disables the watchdog (the seed behaviour).
    pub watchdog_cycles: Option<u64>,
}

impl Default for RfuConfig {
    fn default() -> Self {
        Self {
            pfus: 4,
            tlb_capacity: 16,
            max_instruction_cycles: 1 << 20,
            interruptible: true,
            watchdog_cycles: None,
        }
    }
}

/// Why the last custom instruction faulted (read by the OS fault
/// handler; hardware exposes this as a fault-status register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInfo {
    /// `(PID, CID)` missed in both TLBs: either the circuit is not
    /// loaded or its mapping was evicted (the OS distinguishes, §4.2).
    Miss {
        /// The faulting tuple.
        key: TupleKey,
    },
    /// TLB1 pointed at an empty PFU (stale mapping — an OS bug).
    EmptyPfu {
        /// The faulting tuple.
        key: TupleKey,
        /// The stale PFU index.
        pfu: PfuIndex,
    },
    /// The circuit exceeded the per-issue cycle cap without completing.
    Runaway {
        /// The faulting tuple.
        key: TupleKey,
        /// The PFU hosting the runaway circuit.
        pfu: PfuIndex,
    },
    /// The per-PFU watchdog expired: the slot accumulated
    /// [`RfuConfig::watchdog_cycles`] clocks without raising `done`.
    /// Unlike [`FaultInfo::Runaway`], the cycles the final issue burned
    /// are reported so the OS can charge them (a faulting issue returns
    /// no cycle count through the coprocessor port).
    Watchdog {
        /// The faulting tuple.
        key: TupleKey,
        /// The PFU whose watchdog tripped.
        pfu: PfuIndex,
        /// Clocks the final (faulting) issue consumed before the trip.
        burned: u64,
    },
}

/// Dispatch-path counters accumulated by the unit and drained by the
/// OS (one probe `Compute` event per run span): how custom issues were
/// routed through Figure 1's three-stage dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchCounters {
    /// Issues resolved by TLB1 to a loaded PFU (completed or
    /// interrupted in hardware).
    pub hw_dispatches: u64,
    /// Issues resolved by TLB2 to a software handler.
    pub sw_dispatches: u64,
    /// Issues that faulted to the operating system.
    pub faults: u64,
}

/// The reconfigurable function unit.
#[derive(Debug)]
pub struct Rfu {
    config: RfuConfig,
    pfus: PfuArray,
    tlb_hw: Cam,
    tlb_sw: Cam,
    regs: RegFile,
    operand: OperandBlock,
    last_fault: Option<FaultInfo>,
    dispatch: DispatchCounters,
}

impl Rfu {
    /// Build a unit from a configuration.
    pub fn new(config: RfuConfig) -> Self {
        Self {
            pfus: PfuArray::new(config.pfus),
            tlb_hw: Cam::new(config.tlb_capacity),
            tlb_sw: Cam::new(config.tlb_capacity),
            regs: RegFile::new(),
            operand: OperandBlock::default(),
            last_fault: None,
            dispatch: DispatchCounters::default(),
            config,
        }
    }

    /// The hardware sizing.
    pub fn config(&self) -> &RfuConfig {
        &self.config
    }

    /// The PFU array (OS: load/unload/state/status/counters).
    pub fn pfus(&self) -> &PfuArray {
        &self.pfus
    }

    /// Mutable PFU array access.
    pub fn pfus_mut(&mut self) -> &mut PfuArray {
        &mut self.pfus
    }

    /// TLB1: `(PID, CID) → PFU` (hardware dispatch).
    pub fn tlb_hw(&self) -> &Cam {
        &self.tlb_hw
    }

    /// Mutable TLB1 access (the OS programs it).
    pub fn tlb_hw_mut(&mut self) -> &mut Cam {
        &mut self.tlb_hw
    }

    /// TLB2: `(PID, CID) → address` (software dispatch).
    pub fn tlb_sw(&self) -> &Cam {
        &self.tlb_sw
    }

    /// Mutable TLB2 access.
    pub fn tlb_sw_mut(&mut self) -> &mut Cam {
        &mut self.tlb_sw
    }

    /// The coprocessor register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable register-file access (the OS saves/restores it around
    /// context switches and writes the PID register).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The software-dispatch operand block.
    pub fn operand_block(&self) -> &OperandBlock {
        &self.operand
    }

    /// Consume the fault-status register (OS fault handler).
    pub fn take_fault(&mut self) -> Option<FaultInfo> {
        self.last_fault.take()
    }

    /// Drain the dispatch counters (the OS reads them per run span).
    pub fn take_dispatch_counters(&mut self) -> DispatchCounters {
        std::mem::take(&mut self.dispatch)
    }
}

impl Coprocessor for Rfu {
    /// Figure 1's dispatch of one custom issue: TLB1 → PFU, else TLB2 →
    /// software handler, else a fault to the OS. This function alone
    /// decides the empty-slot, watchdog and runaway outcomes;
    /// [`PfuArray::run`] alone runs the §4.4 status-register protocol.
    /// Both it and [`Cam::lookup`] are inlined here, and this body is
    /// inlined into the interpreter loop that calls it, so a TLB1 hit
    /// makes one out-of-line call, the circuit's `run_clocks`. Alternating
    /// 30 s perfbench runs put the inlined layout ahead of an out-of-line
    /// one on all three workloads (DESIGN.md §7 has the numbers).
    #[inline(always)]
    fn exec_custom(
        &mut self,
        pid: u32,
        cid: u8,
        op_a: u32,
        op_b: u32,
        rd: u8,
        ret_addr: u32,
        budget: u64,
    ) -> CoprocResult {
        let key = TupleKey::new(pid, cid);
        // Figure 1, stage 1: TLB1 -> PFU.
        if let Some(pfu_raw) = self.tlb_hw.lookup(key) {
            let pfu = pfu_raw as PfuIndex;
            if !self.pfus.is_loaded(pfu) {
                self.last_fault = Some(FaultInfo::EmptyPfu { key, pfu });
                self.dispatch.faults += 1;
                return CoprocResult::Fault;
            }
            let mut capped = if self.config.interruptible {
                budget.min(self.config.max_instruction_cycles)
            } else {
                self.config.max_instruction_cycles
            };
            // The watchdog bounds how long the slot may clock without a
            // completion: cap this issue at the remaining allowance so a
            // hung circuit trips after exactly `watchdog_cycles` clocks
            // instead of burning the whole quantum first.
            if let Some(wd) = self.config.watchdog_cycles {
                let remaining = wd.saturating_sub(self.pfus.health(pfu).busy_since_done).max(1);
                capped = capped.min(remaining);
            }
            return match self.pfus.run(pfu, op_a, op_b, capped) {
                RunOutcome::Done { value, cycles } => {
                    self.dispatch.hw_dispatches += 1;
                    CoprocResult::Done { value, cycles }
                }
                RunOutcome::OutOfBudget { cycles } => {
                    if let Some(wd) = self.config.watchdog_cycles {
                        if self.pfus.health(pfu).busy_since_done >= wd {
                            self.last_fault = Some(FaultInfo::Watchdog { key, pfu, burned: cycles });
                            self.dispatch.faults += 1;
                            return CoprocResult::Fault;
                        }
                    }
                    if cycles >= self.config.max_instruction_cycles
                        && (budget > capped || !self.config.interruptible)
                    {
                        // The circuit had all the time the hardware
                        // allows and still did not finish: runaway.
                        self.last_fault = Some(FaultInfo::Runaway { key, pfu });
                        self.dispatch.faults += 1;
                        CoprocResult::Fault
                    } else {
                        self.dispatch.hw_dispatches += 1;
                        CoprocResult::Interrupted { cycles }
                    }
                }
            };
        }
        // Figure 1, stage 2: TLB2 -> software alternative.
        if let Some(target) = self.tlb_sw.lookup(key) {
            self.operand.latch(op_a, op_b, rd, ret_addr);
            self.dispatch.sw_dispatches += 1;
            return CoprocResult::SoftwareDispatch { target, cycles: 1 };
        }
        // Figure 1, stage 3: fault to the OS.
        self.last_fault = Some(FaultInfo::Miss { key });
        self.dispatch.faults += 1;
        CoprocResult::Fault
    }

    fn write_reg(&mut self, index: u8, value: u32) {
        self.regs.write(index, value);
    }

    fn read_reg(&self, index: u8) -> u32 {
        self.regs.read(index)
    }

    fn read_operand(&self, sel: OperandSel) -> u32 {
        match sel {
            OperandSel::A => self.operand.op_a,
            OperandSel::B => self.operand.op_b,
        }
    }

    fn write_result(&mut self, value: u32) {
        self.operand.result = value;
    }

    fn return_from_software(&mut self) -> RetInfo {
        RetInfo { rd: self.operand.rd(), result: self.operand.result, ret_addr: self.operand.ret_addr }
    }

    fn write_operand_field(&mut self, field: u8, value: u32) {
        self.operand.set_field(field, value);
    }

    fn read_operand_field(&self, field: u8) -> u32 {
        self.operand.field(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::FixedLatency;
    use crate::circuit::PfuCircuit;

    fn unit_with_adder(pid: u32, cid: u8, pfu: PfuIndex) -> Rfu {
        let mut rfu = Rfu::new(RfuConfig::default());
        let circuit: Box<dyn PfuCircuit> =
            Box::new(FixedLatency::new("add", 1, 4, |a, b| a.wrapping_add(b)));
        rfu.pfus_mut().load(pfu, circuit);
        let slot = rfu.tlb_hw().free_slot().expect("slot");
        rfu.tlb_hw_mut().insert(slot, TupleKey::new(pid, cid), pfu as u32);
        rfu
    }

    #[test]
    fn hardware_dispatch_hits() {
        let mut rfu = unit_with_adder(1, 0, 2);
        match rfu.exec_custom(1, 0, 30, 12, 3, 0x100, 1000) {
            CoprocResult::Done { value: 42, cycles: 1 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rfu.pfus().counters().read(2), 1);
    }

    #[test]
    fn pid_mismatch_faults_without_tlb_flush() {
        // Another process using the same CID misses, because the key is
        // the (PID, CID) tuple — no flush on context switch needed.
        let mut rfu = unit_with_adder(1, 0, 0);
        match rfu.exec_custom(2, 0, 1, 1, 0, 0, 1000) {
            CoprocResult::Fault => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rfu.take_fault(), Some(FaultInfo::Miss { key: TupleKey::new(2, 0) }));
        // Process 1 still hits afterwards.
        assert!(matches!(rfu.exec_custom(1, 0, 1, 1, 0, 0, 1000), CoprocResult::Done { .. }));
    }

    #[test]
    fn software_dispatch_latches_operands() {
        let mut rfu = Rfu::new(RfuConfig::default());
        let slot = rfu.tlb_sw().free_slot().expect("slot");
        rfu.tlb_sw_mut().insert(slot, TupleKey::new(1, 5), 0x8000);
        match rfu.exec_custom(1, 5, 111, 222, 7, 0x44, 1000) {
            CoprocResult::SoftwareDispatch { target: 0x8000, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rfu.read_operand(OperandSel::A), 111);
        assert_eq!(rfu.read_operand(OperandSel::B), 222);
        rfu.write_result(333);
        let info = rfu.return_from_software();
        assert_eq!(info.rd, 7);
        assert_eq!(info.result, 333);
        assert_eq!(info.ret_addr, 0x44);
    }

    #[test]
    fn hardware_dispatch_preferred_over_software() {
        let mut rfu = unit_with_adder(1, 0, 0);
        let slot = rfu.tlb_sw().free_slot().expect("slot");
        rfu.tlb_sw_mut().insert(slot, TupleKey::new(1, 0), 0x8000);
        assert!(matches!(rfu.exec_custom(1, 0, 1, 2, 0, 0, 1000), CoprocResult::Done { .. }));
    }

    #[test]
    fn stale_tlb_entry_faults_as_empty_pfu() {
        let mut rfu = unit_with_adder(1, 0, 0);
        rfu.pfus_mut().unload(0);
        assert!(matches!(rfu.exec_custom(1, 0, 1, 2, 0, 0, 1000), CoprocResult::Fault));
        assert!(matches!(rfu.take_fault(), Some(FaultInfo::EmptyPfu { pfu: 0, .. })));
    }

    #[test]
    fn runaway_circuit_faults() {
        #[derive(Debug)]
        struct Stuck;
        impl PfuCircuit for Stuck {
            fn clock(&mut self, _: u32, _: u32, _: bool) -> crate::circuit::CircuitClock {
                crate::circuit::CircuitClock { result: 0, done: false }
            }
            fn save_state(&self) -> crate::circuit::CircuitState {
                crate::circuit::CircuitState(vec![0])
            }
            fn load_state(&mut self, _: &crate::circuit::CircuitState) -> Result<(), proteus_fabric::FabricError> {
                Ok(())
            }
        }
        let mut rfu = Rfu::new(RfuConfig { max_instruction_cycles: 100, ..RfuConfig::default() });
        rfu.pfus_mut().load(0, Box::new(Stuck));
        rfu.tlb_hw_mut().insert(0, TupleKey::new(1, 0), 0);
        match rfu.exec_custom(1, 0, 0, 0, 0, 0, u64::MAX) {
            CoprocResult::Fault => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(rfu.take_fault(), Some(FaultInfo::Runaway { .. })));
    }

    #[test]
    fn watchdog_trips_on_stuck_done_and_reports_burned_cycles() {
        let mut rfu =
            Rfu::new(RfuConfig { watchdog_cycles: Some(200), ..RfuConfig::default() });
        let circuit: Box<dyn PfuCircuit> = Box::new(FixedLatency::new("add", 5, 4, |a, b| a + b));
        rfu.pfus_mut().load(0, circuit);
        rfu.tlb_hw_mut().insert(0, TupleKey::new(1, 0), 0);
        // Healthy circuit under a watchdog: completes normally.
        assert!(matches!(rfu.exec_custom(1, 0, 1, 2, 0, 0, 1000), CoprocResult::Done { .. }));
        // Stick the slot's done signal: the same dispatch now burns the
        // watchdog allowance and faults, reporting the burned cycles.
        rfu.pfus_mut().health_mut(0).stuck_done = true;
        match rfu.exec_custom(1, 0, 1, 2, 0, 0, 1_000_000) {
            CoprocResult::Fault => {}
            other => panic!("unexpected {other:?}"),
        }
        match rfu.take_fault() {
            Some(FaultInfo::Watchdog { pfu: 0, burned: 200, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn watchdog_accumulates_across_interrupted_reissues() {
        let mut rfu =
            Rfu::new(RfuConfig { watchdog_cycles: Some(100), ..RfuConfig::default() });
        let circuit: Box<dyn PfuCircuit> = Box::new(FixedLatency::new("slow", 60, 4, |a, _| a));
        rfu.pfus_mut().load(0, circuit);
        rfu.pfus_mut().health_mut(0).stuck_done = true;
        rfu.tlb_hw_mut().insert(0, TupleKey::new(1, 0), 0);
        // Short budgets interrupt below the watchdog threshold...
        assert!(matches!(rfu.exec_custom(1, 0, 1, 0, 0, 0, 40), CoprocResult::Interrupted { cycles: 40 }));
        assert!(matches!(rfu.exec_custom(1, 0, 1, 0, 0, 0, 40), CoprocResult::Interrupted { cycles: 40 }));
        // ...until the slot's cumulative busy-without-done crosses it.
        assert!(matches!(rfu.exec_custom(1, 0, 1, 0, 0, 0, 40), CoprocResult::Fault));
        assert!(matches!(
            rfu.take_fault(),
            Some(FaultInfo::Watchdog { pfu: 0, burned: 20, .. })
        ));
    }

    #[test]
    fn no_watchdog_preserves_seed_behaviour() {
        // watchdog_cycles: None leaves the runaway path untouched.
        let mut rfu = Rfu::new(RfuConfig { max_instruction_cycles: 100, ..RfuConfig::default() });
        let circuit: Box<dyn PfuCircuit> = Box::new(FixedLatency::new("slow", 50, 4, |a, _| a));
        rfu.pfus_mut().load(0, circuit);
        rfu.tlb_hw_mut().insert(0, TupleKey::new(1, 0), 0);
        assert!(matches!(rfu.exec_custom(1, 0, 9, 0, 0, 0, 10), CoprocResult::Interrupted { cycles: 10 }));
        assert!(matches!(rfu.exec_custom(1, 0, 9, 0, 0, 0, 1000), CoprocResult::Done { .. }));
    }

    #[test]
    fn short_budget_interrupts_not_faults() {
        let mut rfu = Rfu::new(RfuConfig { max_instruction_cycles: 100, ..RfuConfig::default() });
        let circuit: Box<dyn PfuCircuit> = Box::new(FixedLatency::new("slow", 50, 4, |a, _| a));
        rfu.pfus_mut().load(0, circuit);
        rfu.tlb_hw_mut().insert(0, TupleKey::new(1, 0), 0);
        match rfu.exec_custom(1, 0, 9, 0, 0, 0, 10) {
            CoprocResult::Interrupted { cycles: 10 } => {}
            other => panic!("unexpected {other:?}"),
        }
        // Reissue finishes the remaining 40 cycles.
        match rfu.exec_custom(1, 0, 9, 0, 0, 0, 1000) {
            CoprocResult::Done { value: 9, cycles: 40 } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

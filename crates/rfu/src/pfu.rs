//! The PFU array: circuit slots, status registers and completion
//! counters.

use crate::circuit::{CircuitState, PfuCircuit};
use crate::counters::UsageCounters;

/// Index of a PFU within the array.
pub type PfuIndex = usize;

/// Outcome of clocking a PFU through (part of) an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The circuit raised `done` after `cycles` clocks.
    Done {
        /// Result bus value on the completing cycle.
        value: u32,
        /// Clocks consumed (≥ 1).
        cycles: u64,
    },
    /// The budget expired first; the status register now holds `init`
    /// low so a later reissue resumes the instruction (§4.4).
    OutOfBudget {
        /// Clocks consumed (== the budget).
        cycles: u64,
    },
}

/// Per-PFU health and quarantine state (the fault subsystem's view of
/// one slot, kept alongside the §4.5 completion counters).
///
/// Health survives [`PfuArray::load`]/[`PfuArray::unload`]: faults are a
/// property of the *slot* (its configuration SRAM and `done` wiring),
/// not of whichever circuit happens to occupy it, so re-installing a
/// circuit must not erase quarantine history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PfuHealth {
    /// Hard faults the OS has recorded against this slot (watchdog
    /// trips that were not explained by repairable corruption).
    pub fault_count: u32,
    /// Recovery reloads attempted since the last completed instruction
    /// (drives retry backoff; reset when an instruction completes).
    pub retries: u32,
    /// The OS has quarantined this slot: replacement policies and
    /// placement must stop allocating it.
    pub quarantined: bool,
    /// Injected stuck-at-0 fault on the `done` signal: the circuit
    /// clocks but completion never reaches the status register.
    pub stuck_done: bool,
    /// The resident static configuration frames are SEU-damaged (a CRC
    /// readback would fail); the circuit produces no usable output
    /// until reconfigured.
    pub config_corrupt: bool,
    /// Watchdog accumulator: cycles this slot has clocked since it last
    /// raised `done` (across interrupted reissues).
    pub busy_since_done: u64,
}

impl PfuHealth {
    /// Whether the slot currently executes usefully.
    pub fn is_faulty(&self) -> bool {
        self.stuck_done || self.config_corrupt
    }
}

#[derive(Debug)]
struct Slot {
    circuit: Option<Box<dyn PfuCircuit>>,
    /// The 1-bit status register of §4.4. Reset value is 1 so the first
    /// issue presents `init` high; thereafter `done` flows through it.
    status: bool,
    health: PfuHealth,
}

/// The array of Programmable Function Units.
#[derive(Debug)]
pub struct PfuArray {
    slots: Vec<Slot>,
    counters: UsageCounters,
}

impl PfuArray {
    /// An array of `count` empty PFUs.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "need at least one PFU");
        Self {
            slots: (0..count)
                .map(|_| Slot { circuit: None, status: true, health: PfuHealth::default() })
                .collect(),
            counters: UsageCounters::new(count),
        }
    }

    /// Number of PFUs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the array has no PFUs (never; see [`PfuArray::new`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `pfu` currently holds a circuit.
    pub fn is_loaded(&self, pfu: PfuIndex) -> bool {
        self.slots[pfu].circuit.is_some()
    }

    /// Indices of PFUs without a circuit.
    pub fn free_pfus(&self) -> impl Iterator<Item = PfuIndex> + '_ {
        (0..self.len()).filter(|&i| !self.is_loaded(i))
    }

    /// Indices of PFUs the OS may allocate: empty and not quarantined.
    pub fn available_pfus(&self) -> impl Iterator<Item = PfuIndex> + '_ {
        (0..self.len()).filter(|&i| !self.is_loaded(i) && !self.slots[i].health.quarantined)
    }

    /// This slot's health/quarantine state.
    pub fn health(&self, pfu: PfuIndex) -> PfuHealth {
        self.slots[pfu].health
    }

    /// Mutable health access (the OS fault handler and the fault
    /// injector write it).
    pub fn health_mut(&mut self, pfu: PfuIndex) -> &mut PfuHealth {
        &mut self.slots[pfu].health
    }

    /// Full (re)configuration: install `circuit`, resetting the status
    /// register to 1. Returns the evicted circuit and its status bit, if
    /// any (the OS decides whether to save its state).
    ///
    /// A full configuration load rewrites the static frames, so it
    /// clears [`PfuHealth::config_corrupt`] and restarts the watchdog
    /// accumulator — but it does *not* touch `fault_count`,
    /// `quarantined` or `stuck_done`: those describe the slot itself,
    /// and a re-installed circuit must not launder quarantine history.
    pub fn load(
        &mut self,
        pfu: PfuIndex,
        circuit: Box<dyn PfuCircuit>,
    ) -> Option<(Box<dyn PfuCircuit>, bool)> {
        let slot = &mut self.slots[pfu];
        let old_status = slot.status;
        let old = slot.circuit.replace(circuit);
        slot.status = true;
        slot.health.config_corrupt = false;
        slot.health.busy_since_done = 0;
        old.map(|c| (c, old_status))
    }

    /// Remove the circuit from `pfu`, returning it with its status bit.
    ///
    /// Like [`PfuArray::load`], this clears only the configuration-tied
    /// health (`config_corrupt`, the watchdog accumulator); slot-level
    /// history (`fault_count`, `quarantined`, `stuck_done`) persists.
    pub fn unload(&mut self, pfu: PfuIndex) -> Option<(Box<dyn PfuCircuit>, bool)> {
        let slot = &mut self.slots[pfu];
        let status = slot.status;
        let old = slot.circuit.take();
        slot.status = true;
        slot.health.config_corrupt = false;
        slot.health.busy_since_done = 0;
        old.map(|c| (c, status))
    }

    /// Restore a previously saved status bit (used when swapping a
    /// partially executed instruction back in).
    pub fn set_status(&mut self, pfu: PfuIndex, status: bool) {
        self.slots[pfu].status = status;
    }

    /// The status bit (true = next issue starts a fresh invocation).
    pub fn status(&self, pfu: PfuIndex) -> bool {
        self.slots[pfu].status
    }

    /// Save the loaded circuit's state frames without unloading.
    pub fn save_state(&self, pfu: PfuIndex) -> Option<CircuitState> {
        self.slots[pfu].circuit.as_ref().map(|c| c.save_state())
    }

    /// Clock `pfu` until `done` or until `budget` cycles elapse,
    /// implementing the status-register init/done protocol.
    ///
    /// # Panics
    ///
    /// Panics if the PFU is empty — the dispatch layer must check
    /// [`PfuArray::is_loaded`] first.
    ///
    /// Inlined into `Rfu::exec_custom` (the only caller on the dispatch
    /// path), so a TLB1 hit makes one out-of-line call, the circuit's
    /// `run_clocks`, instead of two.
    #[inline]
    pub fn run(&mut self, pfu: PfuIndex, op_a: u32, op_b: u32, budget: u64) -> RunOutcome {
        if budget == 0 {
            return RunOutcome::OutOfBudget { cycles: 0 };
        }
        let slot = &mut self.slots[pfu];
        if slot.health.is_faulty() {
            // A stuck `done` or corrupt configuration burns the whole
            // budget without completing: the clock runs, the status
            // register never sees `done`. The circuit model is not
            // advanced — after repair, a reissue with `init` high
            // restarts the instruction cleanly.
            slot.status = false;
            slot.health.busy_since_done += budget;
            return RunOutcome::OutOfBudget { cycles: budget };
        }
        let circuit = slot.circuit.as_mut().expect("run on empty PFU");
        // The status bit presents `init` on the first clock and tracks
        // `done` thereafter; `run_clocks` lets analytic circuit models
        // fast-forward the whole span in O(1) instead of clocking
        // per cycle.
        let (used, result) = circuit.run_clocks(op_a, op_b, slot.status, budget);
        debug_assert!(used >= 1 && used <= budget, "circuit consumed {used} of {budget}");
        slot.status = result.is_some();
        match result {
            Some(value) => {
                slot.health.busy_since_done = 0;
                slot.health.retries = 0;
                self.counters.record_completion(pfu);
                RunOutcome::Done { value, cycles: used }
            }
            None => {
                slot.health.busy_since_done += used;
                RunOutcome::OutOfBudget { cycles: used }
            }
        }
    }

    /// The completion-counter bank (§4.5).
    pub fn counters(&self) -> &UsageCounters {
        &self.counters
    }

    /// Mutable counter access (OS read-and-clear).
    pub fn counters_mut(&mut self) -> &mut UsageCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::FixedLatency;

    fn add_circuit(latency: u32) -> Box<dyn PfuCircuit> {
        Box::new(FixedLatency::new("add", latency, 4, |a, b| a.wrapping_add(b)))
    }

    #[test]
    fn single_cycle_instruction() {
        let mut arr = PfuArray::new(4);
        arr.load(0, add_circuit(1));
        match arr.run(0, 2, 3, 100) {
            RunOutcome::Done { value: 5, cycles: 1 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(arr.counters().read(0), 1);
    }

    #[test]
    fn interrupt_and_reissue_resumes() {
        let mut arr = PfuArray::new(1);
        arr.load(0, add_circuit(10));
        // First issue: budget 4 -> interrupted.
        match arr.run(0, 1, 2, 4) {
            RunOutcome::OutOfBudget { cycles: 4 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(!arr.status(0), "status holds init low for the reissue");
        assert_eq!(arr.counters().read(0), 0, "no completion counted yet");
        // Reissue: 6 more cycles finish the 10-cycle instruction.
        match arr.run(0, 1, 2, 100) {
            RunOutcome::Done { value: 3, cycles: 6 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(arr.status(0), "status back to 1, ready for next invocation");
        assert_eq!(arr.counters().read(0), 1, "counted once despite the interrupt");
    }

    #[test]
    fn reconfiguration_resets_status() {
        let mut arr = PfuArray::new(1);
        arr.load(0, add_circuit(10));
        arr.run(0, 1, 2, 3); // leave mid-instruction
        assert!(!arr.status(0));
        let evicted = arr.load(0, add_circuit(1));
        assert!(evicted.is_some());
        assert!(arr.status(0), "full reconfiguration resets the status register");
    }

    #[test]
    fn swap_out_and_back_preserves_progress() {
        let mut arr = PfuArray::new(1);
        arr.load(0, add_circuit(10));
        arr.run(0, 5, 6, 4);
        let (circuit, status) = arr.unload(0).expect("loaded");
        // Something else uses the PFU...
        arr.load(0, add_circuit(1));
        arr.run(0, 1, 1, 10);
        // ...then the original comes back: circuit state + status bit.
        arr.load(0, circuit);
        arr.set_status(0, status);
        match arr.run(0, 5, 6, 100) {
            RunOutcome::Done { value: 11, cycles: 6 } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn free_pfus_reports_holes() {
        let mut arr = PfuArray::new(3);
        arr.load(1, add_circuit(1));
        assert_eq!(arr.free_pfus().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn reload_round_trips_health_not_just_status() {
        // Satellite fix: a re-installed circuit must not launder the
        // slot's quarantine history, while configuration-tied health
        // (corrupt frames, watchdog accumulator) resets with the load.
        let mut arr = PfuArray::new(2);
        arr.load(0, add_circuit(10));
        {
            let h = arr.health_mut(0);
            h.fault_count = 3;
            h.quarantined = true;
            h.stuck_done = true;
            h.config_corrupt = true;
        }
        arr.run(0, 1, 2, 7); // faulty run: accumulates watchdog cycles
        assert_eq!(arr.health(0).busy_since_done, 7);

        let (circuit, status) = arr.unload(0).expect("loaded");
        assert!(!status, "faulty run left the status bit low");
        let h = arr.health(0);
        assert_eq!(
            (h.fault_count, h.quarantined, h.stuck_done),
            (3, true, true),
            "slot-level history survives unload"
        );
        assert!(!h.config_corrupt, "corrupt frames left with the configuration");
        assert_eq!(h.busy_since_done, 0, "watchdog accumulator reset");

        arr.load(0, circuit);
        let h = arr.health(0);
        assert_eq!(
            (h.fault_count, h.quarantined, h.stuck_done),
            (3, true, true),
            "re-installing a circuit keeps quarantine history"
        );
        assert!(arr.status(0), "full reconfiguration still resets the status register");
    }

    #[test]
    fn available_pfus_excludes_quarantined_slots() {
        let mut arr = PfuArray::new(3);
        arr.load(1, add_circuit(1));
        arr.health_mut(2).quarantined = true;
        assert_eq!(arr.free_pfus().collect::<Vec<_>>(), vec![0, 2], "free list is occupancy only");
        assert_eq!(arr.available_pfus().collect::<Vec<_>>(), vec![0], "allocation skips quarantine");
    }

    #[test]
    fn faulty_slot_burns_budget_without_completing() {
        let mut arr = PfuArray::new(1);
        arr.load(0, add_circuit(1)); // 1-cycle adder: would finish instantly
        arr.health_mut(0).stuck_done = true;
        match arr.run(0, 2, 3, 50) {
            RunOutcome::OutOfBudget { cycles: 50 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(arr.counters().read(0), 0, "no completion counted");
        assert_eq!(arr.health(0).busy_since_done, 50);
        // Repair (clear the stuck fault) and reissue: init restarts the
        // instruction and it completes correctly.
        arr.health_mut(0).stuck_done = false;
        arr.set_status(0, true);
        match arr.run(0, 2, 3, 50) {
            RunOutcome::Done { value: 5, cycles: 1 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(arr.health(0).busy_since_done, 0, "completion clears the accumulator");
    }
}

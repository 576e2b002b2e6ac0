//! Model test for the RFU's custom-instruction dispatch: random
//! sequences of loads, unloads, TLB programming, health faults and
//! issues on a 4-PFU unit must behave exactly like a plain model of
//! Figure 1's three-stage dispatch (TLB1 → PFU, TLB2 → software
//! handler, else fault) and the §4.4 status-register protocol, clocked
//! one cycle at a time.

use proptest::prelude::*;
use proteus_cpu::coproc::{CoprocResult, Coprocessor, OperandBlock};
use proteus_rfu::behavioral::FixedLatency;
use proteus_rfu::{DispatchCounters, FaultInfo, PfuHealth, Rfu, RfuConfig, TupleKey};

const PFUS: usize = 4;
const TLB_SLOTS: usize = 4;

/// The datapaths the circuits compute, by index.
const FUNCS: [fn(u32, u32) -> u32; 2] = [u32::wrapping_add, |a, b| a ^ b.rotate_left(7)];

/// A fixed-latency circuit, clocked one edge at a time.
#[derive(Debug, Clone, Copy)]
struct Circuit {
    latency: u32,
    func: usize,
    elapsed: u32,
    latched: (u32, u32),
}

impl Circuit {
    /// One clock edge. `init` latches the operands and restarts the
    /// instruction; the result comes with `done` on the `latency`-th
    /// clock since the last start.
    fn clock(&mut self, a: u32, b: u32, init: bool) -> Option<u32> {
        if init {
            self.elapsed = 0;
            self.latched = (a, b);
        }
        self.elapsed += 1;
        if self.elapsed < self.latency {
            return None;
        }
        self.elapsed = 0;
        Some(FUNCS[self.func](self.latched.0, self.latched.1))
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    circuit: Option<Circuit>,
    /// §4.4: reset to 1, so the first clock of an issue sees `init`
    /// high; afterwards it holds the last `done`.
    status: bool,
    health: PfuHealth,
}

/// One TLB: a slot vector of `(key, RAM word)` with unique keys.
#[derive(Debug)]
struct Tlb(Vec<Option<(TupleKey, u32)>>);

impl Tlb {
    fn lookup(&self, key: TupleKey) -> Option<u32> {
        self.0.iter().flatten().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    fn insert(&mut self, slot: usize, key: TupleKey, value: u32) {
        self.invalidate(key);
        self.0[slot] = Some((key, value));
    }

    fn invalidate(&mut self, key: TupleKey) -> Option<u32> {
        let slot = self.0.iter().position(|s| s.is_some_and(|(k, _)| k == key))?;
        self.0[slot].take().map(|(_, v)| v)
    }
}

/// The reference unit.
#[derive(Debug)]
struct Model {
    config: RfuConfig,
    slots: Vec<Slot>,
    completions: Vec<u64>,
    tlb_hw: Tlb,
    tlb_sw: Tlb,
    operand: OperandBlock,
    fault: Option<FaultInfo>,
    counters: DispatchCounters,
}

impl Model {
    fn new(config: RfuConfig) -> Self {
        Self {
            config,
            slots: vec![Slot { circuit: None, status: true, health: PfuHealth::default() }; PFUS],
            completions: vec![0; PFUS],
            tlb_hw: Tlb(vec![None; TLB_SLOTS]),
            tlb_sw: Tlb(vec![None; TLB_SLOTS]),
            operand: OperandBlock::default(),
            fault: None,
            counters: DispatchCounters::default(),
        }
    }

    /// Install or remove a circuit. Either way the status register
    /// resets and the configuration-tied health (corrupt frames, the
    /// watchdog accumulator) clears; the old circuit's status comes back.
    fn configure(&mut self, pfu: usize, circuit: Option<Circuit>) -> Option<bool> {
        let slot = &mut self.slots[pfu];
        let old = std::mem::replace(&mut slot.circuit, circuit).map(|_| slot.status);
        slot.status = true;
        slot.health.config_corrupt = false;
        slot.health.busy_since_done = 0;
        old
    }

    /// The circuit TLB1 would dispatch `key` to, if it is loaded.
    fn hw_target(&self, key: TupleKey) -> Option<&Circuit> {
        self.slots[self.tlb_hw.lookup(key)? as usize].circuit.as_ref()
    }

    fn raise(&mut self, fault: FaultInfo) -> CoprocResult {
        self.fault = Some(fault);
        self.counters.faults += 1;
        CoprocResult::Fault
    }

    fn issue(&mut self, key: TupleKey, a: u32, b: u32, rd: u8, ret_addr: u32, budget: u64) -> CoprocResult {
        // Stage 1: TLB1 names a PFU.
        if let Some(pfu) = self.tlb_hw.lookup(key) {
            let pfu = pfu as usize;
            if self.slots[pfu].circuit.is_none() {
                return self.raise(FaultInfo::EmptyPfu { key, pfu });
            }
            let max = self.config.max_instruction_cycles;
            // The clocks this issue may take: the interrupt budget (when
            // honoured), the hardware cap, and what is left of the
            // slot's watchdog allowance (always at least one clock).
            let mut clocks = if self.config.interruptible { budget.min(max) } else { max };
            if let Some(wd) = self.config.watchdog_cycles {
                clocks = clocks.min(wd.saturating_sub(self.slots[pfu].health.busy_since_done).max(1));
            }
            let (used, value) = self.clock_pfu(pfu, a, b, clocks);
            if let Some(value) = value {
                self.counters.hw_dispatches += 1;
                return CoprocResult::Done { value, cycles: used };
            }
            let busy = self.slots[pfu].health.busy_since_done;
            if self.config.watchdog_cycles.is_some_and(|wd| busy >= wd) {
                return self.raise(FaultInfo::Watchdog { key, pfu, burned: used });
            }
            // Runaway: the circuit had the whole hardware cap, and the
            // cap, not a pending interrupt, ended the issue.
            if used == max && (!self.config.interruptible || budget > max) {
                return self.raise(FaultInfo::Runaway { key, pfu });
            }
            self.counters.hw_dispatches += 1;
            return CoprocResult::Interrupted { cycles: used };
        }
        // Stage 2: TLB2 names a software handler.
        if let Some(target) = self.tlb_sw.lookup(key) {
            self.operand.op_a = a;
            self.operand.op_b = b;
            self.operand.control = u32::from(rd) & 0xF;
            self.operand.ret_addr = ret_addr;
            self.counters.sw_dispatches += 1;
            return CoprocResult::SoftwareDispatch { target, cycles: 1 };
        }
        // Stage 3: fault to the OS.
        self.raise(FaultInfo::Miss { key })
    }

    /// Clock `pfu` for at most `clocks` edges, stopping at `done`.
    fn clock_pfu(&mut self, pfu: usize, a: u32, b: u32, clocks: u64) -> (u64, Option<u32>) {
        let slot = &mut self.slots[pfu];
        if clocks == 0 {
            return (0, None);
        }
        if slot.health.stuck_done || slot.health.config_corrupt {
            // The clock runs, `done` never reaches the status register,
            // and the circuit's progress does not move.
            slot.status = false;
            slot.health.busy_since_done += clocks;
            return (clocks, None);
        }
        let circuit = slot.circuit.as_mut().expect("dispatch checked the slot");
        let mut used = 0;
        while used < clocks {
            used += 1;
            let done = circuit.clock(a, b, slot.status);
            slot.status = done.is_some();
            if done.is_some() {
                slot.health.busy_since_done = 0;
                slot.health.retries = 0;
                self.completions[pfu] += 1;
                return (used, done);
            }
        }
        slot.health.busy_since_done += used;
        (used, None)
    }
}

/// An issue budget, resolved against the target circuit's latency and
/// the unit's cycle cap when the issue is made.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Zero,
    One,
    LatencyLess1,
    Latency,
    Cap,
    CapPlus(u64),
    Unbounded,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Load { pfu: usize, latency: u32, func: usize },
    Unload(usize),
    HwInsert { slot: usize, key: TupleKey, pfu: u32 },
    HwInvalidate(TupleKey),
    SwInsert { slot: usize, key: TupleKey, addr: u32 },
    SwInvalidate(TupleKey),
    StuckDone { pfu: usize, on: bool },
    ConfigCorrupt { pfu: usize, on: bool },
    Retry(usize),
    Issue { key: TupleKey, a: u32, b: u32, rd: u8, ret_addr: u32, budget: Budget },
}

/// Two PIDs × two CIDs, so TLB entries collide, go stale and map the
/// same tuple in both TLBs.
fn arb_key() -> impl Strategy<Value = TupleKey> {
    (1u32..=2, 0u8..=1).prop_map(|(pid, cid)| TupleKey::new(pid, cid))
}

fn arb_budget() -> impl Strategy<Value = Budget> {
    prop_oneof![
        Just(Budget::Zero),
        Just(Budget::One),
        Just(Budget::LatencyLess1),
        Just(Budget::Latency),
        Just(Budget::Cap),
        (1u64..=3).prop_map(Budget::CapPlus),
        Just(Budget::Unbounded),
    ]
}

fn arb_issue() -> impl Strategy<Value = Op> {
    (arb_key(), any::<u32>(), any::<u32>(), 0u8..16, any::<u32>(), arb_budget())
        .prop_map(|(key, a, b, rd, ret_addr, budget)| Op::Issue { key, a, b, rd, ret_addr, budget })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PFUS, 1u32..=8, 0..FUNCS.len()).prop_map(|(pfu, latency, func)| Op::Load { pfu, latency, func }),
        (0..PFUS).prop_map(Op::Unload),
        (0..TLB_SLOTS, arb_key(), 0..PFUS as u32).prop_map(|(slot, key, pfu)| Op::HwInsert {
            slot,
            key,
            pfu
        }),
        arb_key().prop_map(Op::HwInvalidate),
        (0..TLB_SLOTS, arb_key(), 0x8000u32..0x8004).prop_map(|(slot, key, addr)| Op::SwInsert {
            slot,
            key,
            addr
        }),
        arb_key().prop_map(Op::SwInvalidate),
        (0..PFUS, any::<bool>()).prop_map(|(pfu, on)| Op::StuckDone { pfu, on }),
        (0..PFUS, any::<bool>()).prop_map(|(pfu, on)| Op::ConfigCorrupt { pfu, on }),
        (0..PFUS).prop_map(Op::Retry),
        // Listed four times: issues are weighted up so interrupted
        // instructions get reissued.
        arb_issue(),
        arb_issue(),
        arb_issue(),
        arb_issue(),
    ]
}

fn arb_config() -> impl Strategy<Value = RfuConfig> {
    let cap = prop_oneof![1u64..=10, Just(1u64 << 20)];
    (any::<bool>(), proptest::option::of(1u64..=24), cap).prop_map(|(interruptible, watchdog_cycles, cap)| {
        RfuConfig {
            pfus: PFUS,
            tlb_capacity: TLB_SLOTS,
            max_instruction_cycles: cap,
            interruptible,
            watchdog_cycles,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dispatch_matches_figure_1_model(config in arb_config(), ops in proptest::collection::vec(arb_op(), 1..96)) {
        let mut rfu = Rfu::new(config);
        let mut model = Model::new(config);
        for op in ops {
            match op {
                Op::Load { pfu, latency, func } => {
                    let circuit = Box::new(FixedLatency::new("model", latency, 4, FUNCS[func]));
                    let evicted = rfu.pfus_mut().load(pfu, circuit).map(|(_, status)| status);
                    let circuit = Circuit { latency, func, elapsed: 0, latched: (0, 0) };
                    prop_assert_eq!(evicted, model.configure(pfu, Some(circuit)), "{:?}", op);
                }
                Op::Unload(pfu) => {
                    let evicted = rfu.pfus_mut().unload(pfu).map(|(_, status)| status);
                    prop_assert_eq!(evicted, model.configure(pfu, None), "{:?}", op);
                }
                Op::HwInsert { slot, key, pfu } => {
                    rfu.tlb_hw_mut().insert(slot, key, pfu);
                    model.tlb_hw.insert(slot, key, pfu);
                }
                Op::HwInvalidate(key) => {
                    prop_assert_eq!(rfu.tlb_hw_mut().invalidate(key), model.tlb_hw.invalidate(key));
                }
                Op::SwInsert { slot, key, addr } => {
                    rfu.tlb_sw_mut().insert(slot, key, addr);
                    model.tlb_sw.insert(slot, key, addr);
                }
                Op::SwInvalidate(key) => {
                    prop_assert_eq!(rfu.tlb_sw_mut().invalidate(key), model.tlb_sw.invalidate(key));
                }
                Op::StuckDone { pfu, on } => {
                    rfu.pfus_mut().health_mut(pfu).stuck_done = on;
                    model.slots[pfu].health.stuck_done = on;
                }
                Op::ConfigCorrupt { pfu, on } => {
                    rfu.pfus_mut().health_mut(pfu).config_corrupt = on;
                    model.slots[pfu].health.config_corrupt = on;
                }
                Op::Retry(pfu) => {
                    rfu.pfus_mut().health_mut(pfu).retries += 1;
                    model.slots[pfu].health.retries += 1;
                }
                Op::Issue { key, a, b, rd, ret_addr, budget } => {
                    let latency = model.hw_target(key).map_or(4, |c| u64::from(c.latency));
                    let cap = config.max_instruction_cycles;
                    let budget = match budget {
                        Budget::Zero => 0,
                        Budget::One => 1,
                        Budget::LatencyLess1 => latency - 1,
                        Budget::Latency => latency,
                        Budget::Cap => cap,
                        Budget::CapPlus(n) => cap + n,
                        Budget::Unbounded => u64::MAX,
                    };
                    let got = rfu.exec_custom(key.pid, key.cid, a, b, rd, ret_addr, budget);
                    let want = model.issue(key, a, b, rd, ret_addr, budget);
                    prop_assert_eq!(got, want, "{:?} with budget {}", op, budget);
                }
            }
            prop_assert_eq!(rfu.take_fault(), model.fault.take(), "after {:?}", op);
            prop_assert_eq!(rfu.take_dispatch_counters(), std::mem::take(&mut model.counters), "after {:?}", op);
            prop_assert_eq!(*rfu.operand_block(), model.operand, "after {:?}", op);
            for (pfu, slot) in model.slots.iter().enumerate() {
                prop_assert_eq!(rfu.pfus().is_loaded(pfu), slot.circuit.is_some(), "PFU {} after {:?}", pfu, op);
                prop_assert_eq!(rfu.pfus().status(pfu), slot.status, "PFU {} after {:?}", pfu, op);
                prop_assert_eq!(rfu.pfus().health(pfu), slot.health, "PFU {} after {:?}", pfu, op);
                prop_assert_eq!(rfu.pfus().counters().read(pfu), model.completions[pfu], "PFU {} after {:?}", pfu, op);
            }
        }
    }
}

//! The Custom Instruction Scheduler (CIS).
//!
//! "POrSCHE implements a Custom Instruction Scheduler as part of the
//! kernel, which manages the circuits registered with the OS by different
//! applications. The CIS is responsible for loading and unloading
//! circuits and for managing the dispatch hardware." (§5)
//!
//! The fault handler implements §4.2's required behaviour: "When the
//! operating system sees a custom instruction fault it must first check
//! if it is just a mapping fault before attempting to load the hardware."

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use proteus_rfu::{Cam, FaultInfo, PfuIndex, Rfu, TupleKey};

use crate::costs::CostModel;
use crate::fault::{FaultUnit, RecoveryPolicy};
use crate::kernel::KernelConfig;
use crate::policy::{PolicyView, ReplacementPolicy};
use crate::probe::{Callsite, Event, PfuFaultKind, Probe, Tag};
use crate::process::{CircuitSpec, Pid, Registered};

/// How the CIS resolves contention (the paper's two experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Always swap circuits: pick a victim and reconfigure
    /// (§5.1.1, the Circuit Switching Test).
    #[default]
    HardwareOnly,
    /// "The operating system can defer execution to the software
    /// alternative rather than swapping circuits on and off the processor
    /// if the FPL is full" (§2; §5.1.2, the Software Dispatch Test).
    /// Falls back to swapping when no software alternative is registered.
    SoftwareFallback,
}

/// Outcome of the custom-instruction fault handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// Mapping repaired or circuit loaded; reissue the faulting
    /// instruction. `cycles` is the management cost to charge.
    Reissue {
        /// Kernel cycles consumed resolving the fault.
        cycles: u64,
    },
    /// The mapping request was illegal (unregistered CID), the circuit
    /// ran away, or every recovery rung was exhausted — terminate the
    /// process (§4.2). `cycles` is the handler work spent reaching the
    /// verdict (entry, diagnosis, failed retries); the kernel must
    /// charge it so every cost the handler emitted stays conserved.
    Kill {
        /// Kernel cycles consumed before deciding to kill.
        cycles: u64,
    },
}

impl FaultResolution {
    /// The same verdict with `more` cycles of earlier handler work
    /// charged on top.
    fn plus(self, more: u64) -> Self {
        match self {
            FaultResolution::Reissue { cycles } => FaultResolution::Reissue { cycles: cycles + more },
            FaultResolution::Kill { cycles } => FaultResolution::Kill { cycles: cycles + more },
        }
    }
}

/// All circuit-management state: the registration records, who owns
/// each PFU (the only residency table — a slot's configuration image is
/// its owner's), load/use recency, the TLB cursor, and the policies the
/// kernel was configured with.
#[derive(Debug)]
pub struct Cis {
    mode: DispatchMode,
    share_circuits: bool,
    policy: Box<dyn ReplacementPolicy>,
    recovery: RecoveryPolicy,
    costs: CostModel,
    registry: BTreeMap<TupleKey, Registered>,
    pfu_owner: Vec<Option<TupleKey>>,
    load_seq: Vec<u64>,
    last_use_seq: Vec<u64>,
    seq: u64,
    tlb_hand: usize,
}

impl Cis {
    /// A CIS with `config`'s replacement policy, recovery ladder, cost
    /// model, dispatch mode and §4.2 sharing switch, and no
    /// registrations. Its per-PFU tables are sized by [`Cis::fit`].
    pub fn new(config: &KernelConfig) -> Self {
        Self {
            mode: config.mode,
            share_circuits: config.share_circuits,
            policy: config.policy.build(),
            recovery: config.recovery,
            costs: config.costs,
            registry: BTreeMap::new(),
            pfu_owner: Vec::new(),
            load_seq: Vec::new(),
            last_use_seq: Vec::new(),
            seq: 1,
            tlb_hand: 0,
        }
    }

    /// Size the per-PFU tables for `rfu`'s array (a no-op once sized).
    pub fn fit(&mut self, rfu: &Rfu) {
        let pfus = rfu.pfus().len();
        self.pfu_owner.resize(pfus, None);
        self.load_seq.resize(pfus, 0);
        self.last_use_seq.resize(pfus, 0);
    }

    /// Register `spec` as the custom instruction `key`. Returns `false`,
    /// registering nothing, if `key` is already registered.
    pub fn register(&mut self, key: TupleKey, spec: CircuitSpec) -> bool {
        match self.registry.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Registered::new(spec.circuit, spec.software_alt, spec.image));
                true
            }
        }
    }

    /// The registration record of `key`, if registered.
    pub fn registration(&self, key: TupleKey) -> Option<&Registered> {
        self.registry.get(&key)
    }

    /// The PFU hosting `key`'s circuit, if resident.
    fn resident(&self, key: TupleKey) -> Option<PfuIndex> {
        self.pfu_owner.iter().position(|&owner| owner == Some(key))
    }

    /// The first PFU whose owner's configuration image is `image`.
    fn hosting(&self, image: u64) -> Option<PfuIndex> {
        self.pfu_owner.iter().position(|owner| {
            owner.and_then(|k| self.registry.get(&k)).and_then(|r| r.image) == Some(image)
        })
    }

    /// Whether `pfu` holds corrupt frames that a reload may still repair:
    /// repairs by the scrubber and by the ladder's rung 0 share the
    /// slot's reconfiguration allowance (`retries`, reset on every
    /// completion). Under upsets denser than the reload time an
    /// unconditional repair would loop forever — the scrubber
    /// re-repairing at every scheduling boundary, rung 0 without ever
    /// recording a strike — so beyond the allowance the corruption stays
    /// for the ladder to escalate on.
    fn repairable(&self, rfu: &Rfu, pfu: PfuIndex) -> bool {
        let health = rfu.pfus().health(pfu);
        health.config_corrupt && health.retries <= self.recovery.max_retries
    }

    /// Pull fresh completion counts out of the hardware and update the
    /// recency sequence (feeds LRU/Second Chance).
    fn refresh_usage(&mut self, rfu: &mut Rfu) -> Vec<u64> {
        let n = self.pfu_owner.len();
        let mut counts = Vec::with_capacity(n);
        for i in 0..n {
            let c = rfu.pfus_mut().counters_mut().read_and_clear(i);
            if c > 0 {
                self.seq += 1;
                self.last_use_seq[i] = self.seq;
            }
            counts.push(c);
        }
        counts
    }

    /// Program `key → value` into `cam`, evicting round-robin over its
    /// slots when it is full. Returns whether an entry was evicted.
    fn program_tlb(&mut self, cam: &mut Cam, key: TupleKey, value: u32) -> bool {
        let (slot, evicted) = match cam.free_slot() {
            Some(s) => (s, false),
            None => {
                let s = self.tlb_hand % cam.capacity();
                self.tlb_hand = (s + 1) % cam.capacity();
                (s, true)
            }
        };
        cam.insert(slot, key, value);
        evicted
    }

    /// Program a TLB1 (`soft = false`) or TLB2 entry and emit the
    /// [`Event::TlbProgram`] — attributed to `tag`'s callsite, since TLB
    /// programming happens on behalf of whichever path asked for it —
    /// returning its cycle cost so the caller's charge and the event
    /// stay structurally paired.
    #[allow(clippy::too_many_arguments)]
    fn tlb_insert(
        &mut self,
        rfu: &mut Rfu,
        key: TupleKey,
        value: u32,
        soft: bool,
        probe: &mut Probe,
        at: u64,
        tag: Tag,
    ) -> u64 {
        let cam = if soft { rfu.tlb_sw_mut() } else { rfu.tlb_hw_mut() };
        let evicted = self.program_tlb(cam, key, value);
        let cost = self.costs.tlb_program;
        probe.emit(at, tag, Event::TlbProgram { key, soft, evicted, cost });
        cost
    }

    /// Take `pfu`'s circuit off the array and home to its owner's
    /// registration record together with its status bit, dropping the
    /// slot's TLB1 mappings. Emits nothing. Returns the former owner, or
    /// `None` if the slot was free.
    fn detach(&mut self, pfu: PfuIndex, rfu: &mut Rfu) -> Option<TupleKey> {
        let owner = self.pfu_owner[pfu].take()?;
        rfu.tlb_hw_mut().invalidate_value(pfu as u32);
        // A faulty slot's status bit is untrustworthy: burned issues
        // drive it low without ever latching operands into the circuit,
        // so saving the 0 would make the next home "resume" an
        // instruction that never started — with stale operands. Saving
        // 1 restarts it instead, which is always sound: circuit state
        // only mutates on completion (DESIGN.md §9).
        let faulty = rfu.pfus().health(pfu).is_faulty();
        let (circuit, status) = rfu.pfus_mut().unload(pfu)?;
        if let Some(reg) = self.registry.get_mut(&owner) {
            reg.instance = Some(circuit);
            reg.status = status || faulty;
        }
        Some(owner)
    }

    /// Install `key`'s home instance in the empty slot `pfu`, restoring
    /// the status bit it was saved with, and record the ownership and
    /// use. Returns the registration, or `None` if the instance was not
    /// home (a registry bug).
    fn attach(&mut self, key: TupleKey, pfu: PfuIndex, rfu: &mut Rfu) -> Option<&Registered> {
        let Some(circuit) = self.registry.get_mut(&key).and_then(|r| r.instance.take()) else {
            debug_assert!(false, "attaching a tuple without a home instance");
            return None;
        };
        let evicted = rfu.pfus_mut().load(pfu, circuit);
        debug_assert!(evicted.is_none(), "attach target was freed");
        self.pfu_owner[pfu] = Some(key);
        self.seq += 1;
        self.last_use_seq[pfu] = self.seq;
        let reg = self.registry.get(&key)?;
        rfu.pfus_mut().set_status(pfu, reg.status);
        Some(reg)
    }

    /// Unload the circuit in `pfu`, saving its state frames (and, under
    /// the A4 ablation, the full configuration) back to the owner's
    /// registration record. Returns the cycle cost. `tag` attributes the
    /// work to whoever forced the unload (the placement requester or the
    /// recovery ladder), not the evicted owner.
    fn unload(&mut self, pfu: PfuIndex, rfu: &mut Rfu, probe: &mut Probe, at: u64, tag: Tag) -> u64 {
        let Some(owner) = self.detach(pfu, rfu) else {
            return 0;
        };
        probe.emit(at, tag, Event::Eviction { key: owner, pfu });
        let Some(reg) = self.registry.get(&owner) else {
            return 0;
        };
        let cycles = self.costs.unload_cycles(reg.static_bytes, reg.state_words);
        let words = reg.state_words as u64
            + if self.costs.save_full_config_on_unload {
                (reg.static_bytes as u64).div_ceil(4)
            } else {
                0
            };
        probe.emit(at, tag, Event::BusTransfer { words, cost: cycles });
        cycles
    }

    /// The custom-instruction fault handler (Figure 1's "Fault" leg).
    ///
    /// Every action emits its [`Event`] on `probe` at cycle `at` (the
    /// simulated clock does not advance while the handler runs; the
    /// kernel charges the returned `cycles` afterwards). The event
    /// costs along any path sum exactly to the returned charge — the
    /// conservation law the ledger is built on.
    pub fn handle_fault(
        &mut self,
        key: TupleKey,
        rfu: &mut Rfu,
        faults: &mut FaultUnit,
        probe: &mut Probe,
        at: u64,
    ) -> FaultResolution {
        let cycles = self.costs.fault_entry;
        let miss = Tag::new(key.pid, Callsite::TlbMiss);
        probe.emit(at, miss, Event::Fault { key, cost: cycles });

        match rfu.take_fault() {
            // Runaway circuits are fatal (the OS's timeliness
            // guarantee, §2).
            Some(FaultInfo::Runaway { .. }) => return FaultResolution::Kill { cycles },
            // The per-PFU watchdog tripped: diagnose, then enter the
            // recovery ladder (DESIGN.md §9) instead of the placement
            // path. Diagnosis reads the slot's frames back; the burned
            // clocks are real time the faulting issue consumed that
            // never came back through the coprocessor port, so they are
            // charged (and attributed to detection) here.
            Some(FaultInfo::Watchdog { pfu, burned, .. }) => {
                let kind = if rfu.pfus().health(pfu).config_corrupt {
                    PfuFaultKind::CrcMismatch
                } else {
                    PfuFaultKind::Watchdog
                };
                let detect = burned + self.costs.crc_check;
                let rungs = Tag::new(key.pid, Callsite::FaultRungs);
                probe.emit(at, rungs, Event::PfuFault { key, pfu, kind, cost: detect });
                return self.recover_pfu_fault(key, pfu, rfu, faults, probe, at).plus(cycles + detect);
            }
            _ => {}
        }

        // "terminate the process if the mapping request was illegal".
        let Some(reg) = self.registry.get(&key) else {
            return FaultResolution::Kill { cycles };
        };
        let (soft_active, software_alt, image) = (reg.soft_active, reg.software_alt, reg.image);

        // §4.2: check for a plain mapping fault first — the circuit is
        // resident but its TLB entry was pushed out.
        if let Some(pfu) = self.resident(key) {
            probe.emit(at, miss, Event::MappingRepair { key });
            let cost = self.tlb_insert(rfu, key, pfu as u32, false, probe, at, miss);
            return FaultResolution::Reissue { cycles: cycles + cost };
        }

        // A tuple already dispatched to software stays on the software
        // path (its instruction may hold mid-protocol shadow state in
        // process memory); this fault just means the TLB2 entry was
        // pushed out.
        if soft_active {
            // soft_active is only ever set alongside a registered
            // alternative; a missing one is an illegal mapping request.
            debug_assert!(software_alt.is_some(), "soft_active without an alternative");
            let Some(addr) = software_alt else {
                return FaultResolution::Kill { cycles };
            };
            probe.emit(at, miss, Event::MappingRepair { key });
            let cost = self.tlb_insert(rfu, key, addr, true, probe, at, miss);
            return FaultResolution::Reissue { cycles: cycles + cost };
        }

        // Sharing fast path (§4.2): another process's instance of the
        // same configuration image is resident. (Allocatable = free and
        // not quarantined; identical to the free list when no fault plan
        // is active.)
        if self.share_circuits && rfu.pfus().available_pfus().is_empty() {
            if let Some(pfu) = image.and_then(|img| self.hosting(img)) {
                return self.hand_over(key, pfu, rfu, probe, at).plus(cycles);
            }
        }

        self.place_and_load(key, rfu, faults, probe, at).plus(cycles)
    }

    /// Hand `pfu`, which hosts another process's instance of `key`'s
    /// configuration image, over to `key`: the resident instance goes
    /// home with its state and `key`'s moves in. The static frames are
    /// identical, so only the state frames cross the bus — and the
    /// static frames stay exactly as they were, corruption included.
    fn hand_over(
        &mut self,
        key: TupleKey,
        pfu: PfuIndex,
        rfu: &mut Rfu,
        probe: &mut Probe,
        at: u64,
    ) -> FaultResolution {
        let corrupt = rfu.pfus().health(pfu).config_corrupt;
        self.detach(pfu, rfu);
        let Some(state_words) = self.attach(key, pfu, rfu).map(|r| r.state_words) else {
            return FaultResolution::Kill { cycles: 0 };
        };
        rfu.pfus_mut().health_mut(pfu).config_corrupt = corrupt;
        let reconf = Tag::new(key.pid, Callsite::Reconfiguration);
        probe.emit(at, reconf, Event::StateSwap { key, pfu });
        let swap_cost = self.costs.state_swap_cycles(state_words);
        probe.emit(at, reconf, Event::BusTransfer { words: 2 * state_words as u64, cost: swap_cost });
        let cycles = swap_cost + self.tlb_insert(rfu, key, pfu as u32, false, probe, at, reconf);
        FaultResolution::Reissue { cycles }
    }

    /// Find a home for `key`'s circuit — an allocatable PFU, the
    /// software alternative, or a victim's slot — and drive the full
    /// configuration across the bus, verifying the transfer when the
    /// fault plan models transit corruption. The returned resolution
    /// charges every cost emitted here.
    fn place_and_load(
        &mut self,
        key: TupleKey,
        rfu: &mut Rfu,
        faults: &mut FaultUnit,
        probe: &mut Probe,
        at: u64,
    ) -> FaultResolution {
        let Some(software_alt) = self.registry.get(&key).map(|r| r.software_alt) else {
            debug_assert!(false, "placement for an unregistered tuple");
            return FaultResolution::Kill { cycles: 0 };
        };
        let reconf = Tag::new(key.pid, Callsite::Reconfiguration);
        let mut cycles = 0;

        // Find a home: an allocatable PFU, the software alternative, or
        // a victim.
        let target = match rfu.pfus().available_pfus().first().copied() {
            Some(free) => free,
            None => {
                // With every slot quarantined there is nothing to
                // evict; software dispatch is the only way forward.
                let no_victims = self.pfu_owner.iter().all(Option::is_none);
                if self.mode == DispatchMode::SoftwareFallback || no_victims {
                    if let Some(addr) = software_alt {
                        let sw = Tag::new(key.pid, Callsite::SwDispatch);
                        probe.emit(at, sw, Event::SoftwareInstall { key });
                        cycles += self.tlb_insert(rfu, key, addr, true, probe, at, sw);
                        if let Some(reg) = self.registry.get_mut(&key) {
                            reg.soft_active = true;
                        }
                        return FaultResolution::Reissue { cycles };
                    }
                }
                if no_victims {
                    return FaultResolution::Kill { cycles };
                }
                let counts = self.refresh_usage(rfu);
                let victim = self.policy.select_victim(&PolicyView {
                    occupied: &self.pfu_owner,
                    completions: &counts,
                    last_use_seq: &self.last_use_seq,
                    load_seq: &self.load_seq,
                    current_pid: key.pid,
                });
                assert!(victim < self.pfu_owner.len(), "policy returned bad PFU {victim}");
                cycles += self.unload(victim, rfu, probe, at, reconf);
                victim
            }
        };

        // Full configuration load: static frames + state frames (§4.1).
        let Some((static_bytes, state_words)) =
            self.attach(key, target, rfu).map(|r| (r.static_bytes, r.state_words))
        else {
            return FaultResolution::Kill { cycles };
        };
        self.load_seq[target] = self.seq;
        probe.emit(at, reconf, Event::ConfigLoad { key, pfu: target });
        let full_words = (static_bytes as u64).div_ceil(4) + state_words as u64;
        let load_cost = self.costs.full_load_cycles(static_bytes, state_words);
        probe.emit(at, reconf, Event::BusTransfer { words: full_words, cost: load_cost });
        cycles += load_cost;

        // Transit verification (DESIGN.md §9): when transfers can
        // corrupt, every load is CRC-checked on arrival and re-driven
        // (bounded) until it verifies. A transfer still corrupt after
        // the retry budget stays in place flagged corrupt — the
        // watchdog path repairs it on first use.
        if faults.transit_active() {
            let rungs = Tag::new(key.pid, Callsite::FaultRungs);
            let crc = self.costs.crc_check;
            let mut corrupt = faults.transit_corrupts();
            probe.emit(at, rungs, Event::ScrubCheck { pfu: target, corrupt, cost: crc });
            cycles += crc;
            let mut attempt = 0u32;
            while corrupt && attempt < self.recovery.max_retries {
                attempt += 1;
                let cost = self.costs.retry_load_cycles(static_bytes, state_words, attempt);
                probe.emit(
                    at,
                    rungs,
                    Event::RecoveryRetry { key, pfu: target, attempt, words: full_words, cost },
                );
                cycles += cost;
                corrupt = faults.transit_corrupts();
                probe.emit(at, rungs, Event::ScrubCheck { pfu: target, corrupt, cost: crc });
                cycles += crc;
            }
            if corrupt {
                rfu.pfus_mut().health_mut(target).config_corrupt = true;
            }
        }

        cycles += self.tlb_insert(rfu, key, target as u32, false, probe, at, reconf);
        FaultResolution::Reissue { cycles }
    }

    /// Re-drive the full configuration of `pfu`'s owner into the slot it
    /// already occupies (a recovery reconfiguration): fresh static frames
    /// clear any corruption, and the status-register reset restarts the
    /// interrupted instruction cleanly — a faulty slot never clocked it,
    /// so no progress is lost. The [`Event::RecoveryRetry`] is attributed
    /// to the owner at `callsite` and stamped at `stamp(cost)`: the fault
    /// handler stamps all its work at its entry cycle, the scrubber at
    /// the clock after the work. Returns the cycle cost, or `None` if the
    /// slot was unexpectedly empty.
    fn reload_in_place(
        &mut self,
        pfu: PfuIndex,
        rfu: &mut Rfu,
        probe: &mut Probe,
        callsite: Callsite,
        stamp: impl FnOnce(u64) -> u64,
    ) -> Option<u64> {
        let key = self.pfu_owner[pfu]?;
        let reg = self.registry.get(&key)?;
        let attempt = rfu.pfus().health(pfu).retries + 1;
        rfu.pfus_mut().health_mut(pfu).retries = attempt;
        let (circuit, _) = rfu.pfus_mut().unload(pfu)?;
        rfu.pfus_mut().load(pfu, circuit);
        let cost = self.costs.retry_load_cycles(reg.static_bytes, reg.state_words, attempt);
        let words = (reg.static_bytes as u64).div_ceil(4) + reg.state_words as u64;
        probe.emit(
            stamp(cost),
            Tag::new(key.pid, callsite),
            Event::RecoveryRetry { key, pfu, attempt, words, cost },
        );
        Some(cost)
    }

    /// The DESIGN.md §9 recovery ladder for a tripped PFU watchdog,
    /// entered after [`Cis::handle_fault`] has charged the detection.
    ///
    /// Corrupt frames (an SEU hit) are repaired in place; otherwise the
    /// slot takes a hard-fault strike and the ladder climbs: bounded
    /// retry reconfiguration → software-dispatch failover →
    /// quarantine-and-relocate, killing the process only when every
    /// rung is exhausted or disabled.
    fn recover_pfu_fault(
        &mut self,
        key: TupleKey,
        pfu: PfuIndex,
        rfu: &mut Rfu,
        faults: &mut FaultUnit,
        probe: &mut Probe,
        at: u64,
    ) -> FaultResolution {
        let Some(software_alt) = self.registry.get(&key).map(|r| r.software_alt) else {
            return FaultResolution::Kill { cycles: 0 };
        };
        debug_assert_eq!(self.resident(key), Some(pfu), "watchdog names the hosting slot");
        let rungs = Tag::new(key.pid, Callsite::FaultRungs);

        // Rung 0 — SEU repair: corrupt frames explain the hang, and the
        // damage lives in the configuration SRAM, not the slot (within
        // the allowance `repairable` shares with the scrubber).
        if !self.repairable(rfu, pfu) {
            // A hard fault: the frames verify but the slot never
            // completes (stuck `done`, hung circuit) — or
            // repair-in-place keeps failing to clear the hang. Strike
            // one against the slot.
            rfu.pfus_mut().health_mut(pfu).fault_count += 1;
            let health = rfu.pfus().health(pfu);

            // Top rung — quarantine: a persistent offender stops being
            // allocatable, and the circuit relocates through the normal
            // placement path (relocation loads are ordinary config-bus
            // work, charged by the ordinary events).
            if self.recovery.quarantine_threshold.is_some_and(|t| health.fault_count >= t) {
                rfu.pfus_mut().health_mut(pfu).quarantined = true;
                let cycles = self.unload(pfu, rfu, probe, at, rungs);
                probe.emit(at, rungs, Event::Quarantine { pfu });
                // The stuck slot never clocked the instruction; restart
                // it from scratch on the new home.
                if let Some(reg) = self.registry.get_mut(&key) {
                    reg.status = true;
                }
                return self.place_and_load(key, rfu, faults, probe, at).plus(cycles);
            }

            // First rung — bounded blind retries reconfigure the same
            // slot (below) in case the hang was transient. Past them:
            if health.retries >= self.recovery.max_retries {
                // Second rung — software failover: abandon the slot and
                // reroute the tuple through TLB2 (§2's graceful
                // degradation).
                if let (true, Some(addr)) = (self.recovery.software_failover, software_alt) {
                    let cycles = self.unload(pfu, rfu, probe, at, rungs);
                    if let Some(reg) = self.registry.get_mut(&key) {
                        reg.soft_active = true;
                        reg.status = true;
                    }
                    self.program_tlb(rfu.tlb_sw_mut(), key, addr);
                    // The TLB2 programming is charged through the
                    // failover event so the work lands in the
                    // fault-recovery ledger category rather than routine
                    // TLB maintenance.
                    let cost = self.costs.tlb_program;
                    probe.emit(at, rungs, Event::SoftwareFailover { key, pfu, cost });
                    return FaultResolution::Reissue { cycles: cycles + cost };
                }
                // Every rung exhausted or disabled (§4.2: "terminate the
                // process").
                return FaultResolution::Kill { cycles: 0 };
            }
        }

        match self.reload_in_place(pfu, rfu, probe, Callsite::FaultRungs, |_| at) {
            Some(cycles) => FaultResolution::Reissue { cycles },
            None => {
                debug_assert!(false, "watchdog tripped on an empty slot");
                FaultResolution::Kill { cycles: 0 }
            }
        }
    }

    /// One scrub pass (DESIGN.md §9): CRC-read every resident
    /// configuration and repair corrupt frames before dispatch hits
    /// them. Returns the cycles spent; the kernel advances its clock by
    /// them, and each event is stamped at `now` plus the work up to and
    /// including it.
    pub fn scrub(&mut self, rfu: &mut Rfu, probe: &mut Probe, now: u64) -> u64 {
        let mut spent = 0;
        for pfu in 0..self.pfu_owner.len() {
            if !rfu.pfus().is_loaded(pfu) {
                continue;
            }
            let corrupt = rfu.pfus().health(pfu).config_corrupt;
            let cost = self.costs.crc_check;
            spent += cost;
            // Scrub work is charged to the slot's owner when it has one.
            let owner = self.pfu_owner[pfu].map_or(0, |k| k.pid);
            probe.emit(now + spent, Tag::new(owner, Callsite::Scrub), Event::ScrubCheck {
                pfu,
                corrupt,
                cost,
            });
            if self.repairable(rfu, pfu) {
                let before = now + spent;
                spent += self
                    .reload_in_place(pfu, rfu, probe, Callsite::Scrub, |cost| before + cost)
                    .unwrap_or(0);
            }
        }
        spent
    }

    /// Process teardown: free its PFUs, purge its TLB entries and drop
    /// its registrations.
    pub fn release_process(&mut self, pid: Pid, rfu: &mut Rfu) {
        for pfu in 0..self.pfu_owner.len() {
            if self.pfu_owner[pfu].is_some_and(|k| k.pid == pid) {
                self.detach(pfu, rfu);
            }
        }
        self.registry.retain(|key, _| key.pid != pid);
        rfu.tlb_hw_mut().invalidate_pid(pid);
        rfu.tlb_sw_mut().invalidate_pid(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use proteus_cpu::coproc::CoprocResult;
    use proteus_cpu::Coprocessor;
    use proteus_rfu::behavioral::FixedLatency;
    use proteus_rfu::RfuConfig;

    fn circuit(cid: u8, latency: u32, sw: Option<u32>, image: Option<u64>) -> CircuitSpec {
        CircuitSpec {
            cid,
            circuit: Box::new(FixedLatency::new("add", latency, 4, |a, b| a + b)),
            software_alt: sw,
            image,
        }
    }

    /// A CIS under `config`, fitted to an RFU with `pfus` slots and an
    /// optional watchdog.
    fn machine(config: KernelConfig, pfus: usize, watchdog: Option<u64>) -> (Cis, Rfu, Probe) {
        let mut cis = Cis::new(&config);
        let rfu = Rfu::new(RfuConfig { pfus, watchdog_cycles: watchdog, ..RfuConfig::default() });
        cis.fit(&rfu);
        (cis, rfu, Probe::new(256))
    }

    /// `machine` with processes `1..=n_procs` each registering a
    /// one-cycle adder as CID 0.
    fn setup(n_procs: u32, pfus: usize, mode: DispatchMode, sw: Option<u32>) -> (Cis, Rfu, Probe) {
        let (mut cis, rfu, probe) = machine(KernelConfig { mode, ..KernelConfig::default() }, pfus, None);
        for pid in 1..=n_procs {
            assert!(cis.register(TupleKey::new(pid, 0), circuit(0, 1, sw, None)));
        }
        (cis, rfu, probe)
    }

    fn fault(cis: &mut Cis, rfu: &mut Rfu, probe: &mut Probe, key: TupleKey) -> FaultResolution {
        cis.handle_fault(key, rfu, &mut FaultUnit::new(FaultPlan::default()), probe, 0)
    }

    #[test]
    fn first_fault_loads_into_free_pfu() {
        let (mut cis, mut rfu, mut probe) = setup(1, 4, DispatchMode::HardwareOnly, None);
        let res = fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        match res {
            FaultResolution::Reissue { cycles } => {
                assert!(cycles > 13_000, "full 54 KB load, got {cycles}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(probe.stats().config_loads, 1);
        // Instruction now dispatches in hardware.
        assert!(matches!(rfu.exec_custom(1, 0, 2, 3, 0, 0, 100), CoprocResult::Done { value: 5, .. }));
    }

    #[test]
    fn unregistered_cid_kills() {
        let (mut cis, mut rfu, mut probe) = setup(1, 4, DispatchMode::HardwareOnly, None);
        let res = fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 9));
        assert!(matches!(res, FaultResolution::Kill { .. }));
    }

    #[test]
    fn contention_evicts_a_victim() {
        let (mut cis, mut rfu, mut probe) = setup(5, 4, DispatchMode::HardwareOnly, None);
        for pid in 1..=5 {
            let res = fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(pid, 0));
            assert!(matches!(res, FaultResolution::Reissue { .. }));
        }
        assert_eq!(probe.stats().config_loads, 5);
        assert_eq!(probe.stats().evictions, 1, "fifth circuit evicted one of the four");
        // The evicted process's registration got its instance (and
        // state) back.
        let evicted = (1..=5)
            .map(|pid| TupleKey::new(pid, 0))
            .find(|&k| cis.resident(k).is_none())
            .expect("someone was evicted");
        assert!(cis.registry[&evicted].instance.is_some());
    }

    #[test]
    fn software_fallback_avoids_eviction() {
        let (mut cis, mut rfu, mut probe) = setup(5, 4, DispatchMode::SoftwareFallback, Some(0x4000));
        for pid in 1..=5 {
            fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(pid, 0));
        }
        assert_eq!(probe.stats().config_loads, 4, "only the four free PFUs were filled");
        assert_eq!(probe.stats().evictions, 0);
        assert_eq!(probe.stats().software_installs, 1);
        // Fifth process now dispatches to software.
        assert!(matches!(
            rfu.exec_custom(5, 0, 2, 3, 0, 0x88, 100),
            CoprocResult::SoftwareDispatch { target: 0x4000, .. }
        ));
    }

    #[test]
    fn mapping_fault_is_cheap() {
        let (mut cis, mut rfu, mut probe) = setup(1, 4, DispatchMode::HardwareOnly, None);
        let key = TupleKey::new(1, 0);
        fault(&mut cis, &mut rfu, &mut probe, key);
        // Simulate the TLB entry being pushed out while the circuit
        // stays resident.
        rfu.tlb_hw_mut().invalidate(key);
        match fault(&mut cis, &mut rfu, &mut probe, key) {
            FaultResolution::Reissue { cycles } => {
                assert!(cycles < 200, "mapping fault must not reload 54 KB, got {cycles}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(probe.stats().mapping_faults, 1);
        assert_eq!(probe.stats().config_loads, 1, "no second load");
    }

    /// One PFU with sharing on, processes 1 and 2 registering CID 0
    /// with configuration images `a` and `b`.
    fn sharing(a: u64, b: u64) -> (Cis, Rfu, Probe) {
        let config = KernelConfig { share_circuits: true, ..KernelConfig::default() };
        let (mut cis, rfu, probe) = machine(config, 1, None);
        assert!(cis.register(TupleKey::new(1, 0), circuit(0, 1, None, Some(a))));
        assert!(cis.register(TupleKey::new(2, 0), circuit(0, 1, None, Some(b))));
        (cis, rfu, probe)
    }

    #[test]
    fn sharing_hands_over_via_state_swap() {
        // One PFU, two processes with the SAME configuration image:
        // the second fault must resolve with a state swap, not a load.
        let (mut cis, mut rfu, mut probe) = sharing(77, 77);
        let r1 = fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        assert!(matches!(r1, FaultResolution::Reissue { cycles } if cycles > 13_000), "first is a full load");
        match fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(2, 0)) {
            FaultResolution::Reissue { cycles } => {
                assert!(cycles < 500, "handover must be a state swap, took {cycles}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(probe.stats().config_loads, 1);
        assert_eq!(probe.stats().state_swaps, 1);
        assert_eq!(probe.stats().evictions, 0);
        // Process 2 now dispatches in hardware; process 1's mapping is
        // gone and its instance is home with its state.
        assert!(matches!(rfu.exec_custom(2, 0, 4, 5, 0, 0, 100), CoprocResult::Done { value: 9, .. }));
        assert!(rfu.tlb_hw().lookup(TupleKey::new(1, 0)).is_none());
        assert!(cis.registry[&TupleKey::new(1, 0)].instance.is_some());
    }

    #[test]
    fn sharing_handover_keeps_corruption() {
        // The handover rewrites only state frames: an SEU in the shared
        // static frames is still there for the scrubber or the watchdog
        // path to repair.
        let (mut cis, mut rfu, mut probe) = sharing(77, 77);
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        rfu.pfus_mut().health_mut(0).config_corrupt = true;
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(2, 0));
        assert_eq!(probe.stats().state_swaps, 1);
        assert_eq!(cis.resident(TupleKey::new(2, 0)), Some(0));
        assert!(rfu.pfus().health(0).config_corrupt, "a state swap cannot repair static frames");
        // Process 1 went home with a restart-not-resume status: the
        // corrupt slot's status bit was untrustworthy.
        assert!(cis.registry[&TupleKey::new(1, 0)].status);
    }

    #[test]
    fn different_images_do_not_share() {
        let (mut cis, mut rfu, mut probe) = sharing(77, 88);
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(2, 0));
        assert_eq!(probe.stats().state_swaps, 0);
        assert_eq!(probe.stats().config_loads, 2);
        assert_eq!(probe.stats().evictions, 1, "incompatible images evict as usual");
    }

    #[test]
    fn release_process_frees_pfus_and_tlbs() {
        let (mut cis, mut rfu, mut probe) = setup(2, 4, DispatchMode::HardwareOnly, None);
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(2, 0));
        cis.release_process(1, &mut rfu);
        assert_eq!(rfu.pfus().free_pfus().len(), 3);
        assert_eq!(rfu.tlb_hw().lookup(TupleKey::new(1, 0)), None);
        assert!(rfu.tlb_hw().lookup(TupleKey::new(2, 0)).is_some());
        assert!(cis.registration(TupleKey::new(1, 0)).is_none(), "registrations dropped");
        assert!(cis.registration(TupleKey::new(2, 0)).is_some());
    }

    /// A CIS with `recovery`, one process registering CID 0 (with
    /// software alternative `sw`), on `pfus` slots guarded by a
    /// 100-cycle watchdog, with the circuit already loaded.
    fn loaded_with_watchdog(pfus: usize, recovery: RecoveryPolicy, sw: Option<u32>) -> (Cis, Rfu, Probe) {
        let (mut cis, mut rfu, mut probe) =
            machine(KernelConfig { recovery, ..KernelConfig::default() }, pfus, Some(100));
        assert!(cis.register(TupleKey::new(1, 0), circuit(0, 1, sw, None)));
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        (cis, rfu, probe)
    }

    /// Drive one watchdog trip: issue the instruction until the RFU
    /// reports a fault (the faulty slot burns its watchdog allowance).
    fn trip(rfu: &mut Rfu, pid: Pid) {
        assert!(
            matches!(rfu.exec_custom(pid, 0, 2, 3, 0, 0, 100_000), CoprocResult::Fault),
            "expected a watchdog trip"
        );
    }

    #[test]
    fn seu_corruption_is_repaired_in_place() {
        let (mut cis, mut rfu, mut probe) = loaded_with_watchdog(4, RecoveryPolicy::default(), None);
        let key = TupleKey::new(1, 0);
        let pfu = cis.resident(key).expect("loaded");

        // An SEU corrupts the resident frames; the next issue hangs,
        // the watchdog trips, and the handler repairs in place.
        rfu.pfus_mut().health_mut(pfu).config_corrupt = true;
        trip(&mut rfu, 1);
        match fault(&mut cis, &mut rfu, &mut probe, key) {
            FaultResolution::Reissue { cycles } => {
                assert!(cycles > 13_000, "repair re-drives the full configuration: {cycles}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(probe.stats().pfu_faults, 1);
        assert_eq!(probe.stats().crc_errors, 1, "readback attributed the trip to corruption");
        assert_eq!(probe.stats().recovery_retries, 1);
        assert_eq!(probe.stats().quarantines, 0);
        // Recovered: same slot, correct result.
        assert_eq!(cis.resident(key), Some(pfu));
        assert!(matches!(rfu.exec_custom(1, 0, 2, 3, 0, 0, 100_000), CoprocResult::Done { value: 5, .. }));
    }

    #[test]
    fn stuck_done_escalates_to_quarantine_and_relocation() {
        let recovery =
            RecoveryPolicy { max_retries: 1, software_failover: false, quarantine_threshold: Some(2) };
        let (mut cis, mut rfu, mut probe) = loaded_with_watchdog(4, recovery, None);
        let key = TupleKey::new(1, 0);
        let home = cis.resident(key).expect("loaded");
        rfu.pfus_mut().health_mut(home).stuck_done = true;

        // Trip 1: the blind retry reconfigures the same (still stuck)
        // slot. Trip 2: strike two, quarantine and relocate.
        trip(&mut rfu, 1);
        fault(&mut cis, &mut rfu, &mut probe, key);
        assert_eq!(probe.stats().recovery_retries, 1);
        trip(&mut rfu, 1);
        let res = fault(&mut cis, &mut rfu, &mut probe, key);
        assert!(matches!(res, FaultResolution::Reissue { .. }));

        assert_eq!(probe.stats().quarantines, 1);
        assert!(rfu.pfus().health(home).quarantined);
        let new_home = cis.resident(key).expect("relocated");
        assert_ne!(new_home, home, "circuit moved off the quarantined slot");
        assert!(!rfu.pfus().available_pfus().contains(&home));
        // Degraded but correct: the instruction completes on the new
        // home.
        assert!(matches!(rfu.exec_custom(1, 0, 2, 3, 0, 0, 100_000), CoprocResult::Done { value: 5, .. }));
    }

    #[test]
    fn exhausted_retries_fail_over_to_software() {
        let recovery =
            RecoveryPolicy { max_retries: 0, software_failover: true, quarantine_threshold: None };
        let (mut cis, mut rfu, mut probe) = loaded_with_watchdog(1, recovery, Some(0x4000));
        let key = TupleKey::new(1, 0);
        rfu.pfus_mut().health_mut(0).stuck_done = true;

        trip(&mut rfu, 1);
        let res = fault(&mut cis, &mut rfu, &mut probe, key);
        assert!(matches!(res, FaultResolution::Reissue { .. }));
        assert_eq!(probe.stats().fault_failovers, 1);
        assert_eq!(probe.stats().recovery_retries, 0, "retry rung was disabled");
        assert!(cis.registry[&key].soft_active);
        assert!(rfu.pfus().free_pfus().contains(&0), "the abandoned slot was unloaded");
        // The reissue dispatches through TLB2 to the alternative.
        assert!(matches!(
            rfu.exec_custom(1, 0, 2, 3, 0, 0x88, 100_000),
            CoprocResult::SoftwareDispatch { target: 0x4000, .. }
        ));
    }

    #[test]
    fn retry_only_policy_kills_on_persistent_fault() {
        let (mut cis, mut rfu, mut probe) =
            loaded_with_watchdog(1, RecoveryPolicy::retry_only(1), Some(0x4000));
        let key = TupleKey::new(1, 0);
        rfu.pfus_mut().health_mut(0).stuck_done = true;

        trip(&mut rfu, 1);
        assert!(matches!(fault(&mut cis, &mut rfu, &mut probe, key), FaultResolution::Reissue { .. }));
        trip(&mut rfu, 1);
        // Retries exhausted, failover disabled: the ladder bottoms out.
        assert!(matches!(fault(&mut cis, &mut rfu, &mut probe, key), FaultResolution::Kill { .. }));
    }

    #[test]
    fn eviction_preserves_mid_instruction_state() {
        // One PFU, two processes with multi-cycle circuits: process 1's
        // instruction is interrupted, evicted, reloaded, and must resume
        // where it stopped.
        let (mut cis, mut rfu, mut probe) = machine(KernelConfig::default(), 1, None);
        for pid in 1..=2u32 {
            assert!(cis.register(TupleKey::new(pid, 0), circuit(0, 10, None, None)));
        }

        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        // Run 4 of 10 cycles, then get interrupted.
        assert!(matches!(rfu.exec_custom(1, 0, 20, 22, 0, 0, 4), CoprocResult::Interrupted { cycles: 4 }));
        // Process 2 steals the PFU.
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(2, 0));
        assert!(matches!(rfu.exec_custom(2, 0, 1, 1, 0, 0, 1000), CoprocResult::Done { value: 2, .. }));
        // Process 1 faults (its mapping is gone), gets reloaded, and the
        // reissued instruction needs only the remaining 6 cycles.
        assert!(matches!(rfu.exec_custom(1, 0, 20, 22, 0, 0, 1000), CoprocResult::Fault));
        fault(&mut cis, &mut rfu, &mut probe, TupleKey::new(1, 0));
        assert!(matches!(
            rfu.exec_custom(1, 0, 20, 22, 0, 0, 1000),
            CoprocResult::Done { value: 42, cycles: 6 }
        ));
    }

    #[test]
    fn registering_a_key_twice_is_refused() {
        let (mut cis, _, _) = setup(1, 4, DispatchMode::HardwareOnly, Some(0x4000));
        assert!(!cis.register(TupleKey::new(1, 0), circuit(0, 1, None, None)));
        assert_eq!(cis.registry[&TupleKey::new(1, 0)].software_alt, Some(0x4000), "first record kept");
    }
}

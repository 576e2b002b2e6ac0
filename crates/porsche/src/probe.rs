//! The unified instrumentation bus.
//!
//! Every observable management action — scheduling, faults, TLB
//! programming, configuration-bus transfers, executed compute spans,
//! idle gaps — is emitted exactly once, *at the point of action*, as a
//! typed [`Event`]. Consumers ([`KernelStats`], [`Trace`],
//! [`CycleLedger`], or any custom [`EventSink`]) are pure folds over
//! that one stream: no counter is hand-bumped anywhere else, and no
//! event is reconstructed after the fact by diffing snapshots.
//!
//! Cost-carrying events satisfy a conservation law the integration
//! tests pin down: over a whole run, the sum of every `cost` (plus the
//! compute and idle spans) equals the simulated clock, so
//! [`CycleLedger::total`] reproduces `cpu.cycles()` exactly and each
//! cycle lands in exactly one category — the §5.1.3 "where did the time
//! go" breakdown the paper argues from.
//!
//! Every emission additionally carries a [`Tag`] — `(pid, callsite)` —
//! naming the process the work was done *for* and the kernel code path
//! that did it. The [`AttributedLedger`] folds the same stream into
//! per-process × per-callsite × category cycle matrices whose refold
//! reproduces the global [`CycleLedger`] exactly (conservation survives
//! attribution), which is what the flamegraph and Chrome-trace
//! exporters are built on.

use std::collections::BTreeMap;
use std::fmt;

use proteus_rfu::TupleKey;

use crate::json::Object;
use crate::object;
use crate::process::Pid;
use crate::stats::KernelStats;
use crate::trace::Trace;

/// One instrumentation event. Variants that consume simulated time
/// carry the cycles charged (`cost` or explicit span fields); the rest
/// are zero-cost markers that only order the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A process was created.
    Spawn {
        /// New process.
        pid: Pid,
    },
    /// The CPU switched from one process to another.
    ContextSwitch {
        /// Previously running process (`None` right after a terminate).
        from: Option<Pid>,
        /// Now-running process.
        to: Pid,
        /// Cycles charged for the switch.
        cost: u64,
    },
    /// The quantum expired with no other runnable process.
    TimerTick {
        /// The process that keeps running.
        pid: Pid,
        /// Cycles charged to acknowledge the timer.
        cost: u64,
    },
    /// A custom-instruction fault was taken (every fault, whatever the
    /// resolution).
    Fault {
        /// The faulting tuple.
        key: TupleKey,
        /// Handler entry/exit cycles.
        cost: u64,
    },
    /// The fault was a mapping fault: the circuit (or its software
    /// route) was still installed and only a TLB entry is re-programmed.
    MappingRepair {
        /// The repaired tuple.
        key: TupleKey,
    },
    /// A dispatch-TLB entry was programmed.
    TlbProgram {
        /// The tuple mapped.
        key: TupleKey,
        /// `true` for TLB2 (software dispatch), `false` for TLB1.
        soft: bool,
        /// Whether a resident entry was evicted to make the slot.
        evicted: bool,
        /// Cycles charged for the programming.
        cost: u64,
    },
    /// A full configuration was loaded.
    ConfigLoad {
        /// The tuple now resident.
        key: TupleKey,
        /// The PFU slot the configuration landed in.
        pfu: usize,
    },
    /// A resident circuit was evicted to make room.
    Eviction {
        /// The tuple whose circuit was swapped out.
        key: TupleKey,
        /// The PFU slot vacated.
        pfu: usize,
    },
    /// A shared configuration changed hands via a state-frame swap.
    StateSwap {
        /// The tuple now owning the shared PFU.
        key: TupleKey,
        /// The shared PFU slot.
        pfu: usize,
    },
    /// The fault was resolved by mapping the software alternative.
    SoftwareInstall {
        /// The tuple now dispatching to software.
        key: TupleKey,
    },
    /// Words moved over the configuration bus (static frames, state
    /// frames, or both), including the per-operation controller
    /// overhead in `cost`.
    BusTransfer {
        /// 32-bit words transferred.
        words: u64,
        /// Cycles the bus operation took.
        cost: u64,
    },
    /// A system call was serviced.
    Syscall {
        /// Calling process.
        pid: Pid,
        /// SWI number.
        number: u32,
        /// Kernel entry/exit cycles.
        cost: u64,
    },
    /// A span of guest execution completed (emitted when control
    /// returns to the kernel), split by where the cycles went.
    Compute {
        /// The process that ran.
        pid: Pid,
        /// Plain core instructions.
        user: u64,
        /// Cycles clocking PFU circuits (custom-instruction execute).
        custom: u64,
        /// Cycles in software-dispatch handlers (dispatch branch,
        /// handler body, `retsd`) — including custom issues made while
        /// inside a handler.
        soft: u64,
        /// Custom instructions dispatched to hardware in this span.
        hw_dispatches: u64,
        /// Custom instructions dispatched to software in this span.
        sw_dispatches: u64,
    },
    /// The machine sat idle waiting for external work to arrive.
    Idle {
        /// Idle cycles.
        cycles: u64,
    },
    /// A process exited.
    Exit {
        /// The process.
        pid: Pid,
        /// Exit code.
        code: u32,
    },
    /// A process was killed by the kernel.
    Kill {
        /// The process.
        pid: Pid,
    },
    /// A single-event upset struck a PFU's configuration SRAM
    /// (zero-cost environmental marker; detection and repair are
    /// charged by their own events).
    SeuStrike {
        /// The struck PFU slot.
        pfu: usize,
    },
    /// A PFU fault was detected (watchdog trip). `cost` carries the
    /// cycles the slot burned before detection plus the readback check —
    /// cycles the faulting issue consumed but never reported through
    /// the coprocessor port.
    PfuFault {
        /// The faulting tuple.
        key: TupleKey,
        /// The faulty PFU slot.
        pfu: usize,
        /// What the readback found.
        kind: PfuFaultKind,
        /// Detection cycles (burned clocks + CRC readback).
        cost: u64,
    },
    /// A CRC readback of a resident configuration (periodic scrub, or
    /// verification of a just-transferred bitstream).
    ScrubCheck {
        /// The checked PFU slot.
        pfu: usize,
        /// Whether the frames failed their CRCs.
        corrupt: bool,
        /// Readback/compare cycles.
        cost: u64,
    },
    /// A recovery reconfiguration: the configuration was pushed across
    /// the bus again (SEU repair, transit-error retry, or blind retry
    /// of an unresponsive slot), with backoff included in `cost`.
    RecoveryRetry {
        /// The tuple being repaired.
        key: TupleKey,
        /// The target PFU slot.
        pfu: usize,
        /// Retry attempt number (1-based) since the last completion.
        attempt: u32,
        /// Words re-transferred.
        words: u64,
        /// Bus + backoff cycles.
        cost: u64,
    },
    /// Recovery fell back to the registered software alternative: the
    /// tuple now dispatches through TLB2 (the paper's §3 graceful-
    /// degradation path). `cost` covers the TLB reprogramming.
    SoftwareFailover {
        /// The tuple rerouted to software.
        key: TupleKey,
        /// The PFU abandoned by the failover.
        pfu: usize,
        /// TLB reprogramming cycles.
        cost: u64,
    },
    /// A persistently-faulty PFU was quarantined: placement and
    /// replacement stop allocating it (zero-cost marker; any relocation
    /// load is charged by the normal configuration-bus events).
    Quarantine {
        /// The quarantined PFU slot.
        pfu: usize,
    },
}

/// What a PFU fault detection attributed the failure to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfuFaultKind {
    /// The slot clocked past its watchdog allowance without `done` and
    /// readback found the static frames intact (hung or stuck circuit).
    Watchdog,
    /// Readback found corrupt static frames (an SEU hit the resident
    /// configuration).
    CrcMismatch,
}

impl PfuFaultKind {
    /// Stable lower-case name (traces, JSON).
    pub fn name(self) -> &'static str {
        match self {
            PfuFaultKind::Watchdog => "watchdog",
            PfuFaultKind::CrcMismatch => "crc_mismatch",
        }
    }
}

impl Event {
    /// Stable snake_case name: the `kind` of a `--trace` JSON line and
    /// the name of the event's Chrome process-track slice.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Spawn { .. } => "spawn",
            Event::ContextSwitch { .. } => "context_switch",
            Event::TimerTick { .. } => "timer_tick",
            Event::Fault { .. } => "fault",
            Event::MappingRepair { .. } => "mapping_repair",
            Event::TlbProgram { .. } => "tlb_program",
            Event::ConfigLoad { .. } => "config_load",
            Event::Eviction { .. } => "eviction",
            Event::StateSwap { .. } => "state_swap",
            Event::SoftwareInstall { .. } => "software_install",
            Event::BusTransfer { .. } => "bus_transfer",
            Event::Syscall { .. } => "syscall",
            Event::Compute { .. } => "compute",
            Event::Idle { .. } => "idle",
            Event::Exit { .. } => "exit",
            Event::Kill { .. } => "kill",
            Event::SeuStrike { .. } => "seu_strike",
            Event::PfuFault { .. } => "pfu_fault",
            Event::ScrubCheck { .. } => "scrub_check",
            Event::RecoveryRetry { .. } => "recovery_retry",
            Event::SoftwareFailover { .. } => "software_failover",
            Event::Quarantine { .. } => "quarantine",
        }
    }

    /// The event's schema: append its fields, in export order, to `obj`.
    /// Every JSON rendering of an event (timeline lines, Chrome slice
    /// args) goes through this one table.
    pub fn fields(&self, obj: Object) -> Object {
        let tuple = |obj: Object, key: TupleKey| obj.field("pid", key.pid).field("cid", key.cid);
        match *self {
            Event::Spawn { pid } | Event::Kill { pid } => obj.field("pid", pid),
            Event::ContextSwitch { from, to, cost } => {
                obj.field("from", from).field("to", to).field("cost", cost)
            }
            Event::TimerTick { pid, cost } => obj.field("pid", pid).field("cost", cost),
            Event::Fault { key, cost } => tuple(obj, key).field("cost", cost),
            Event::MappingRepair { key } | Event::SoftwareInstall { key } => tuple(obj, key),
            Event::TlbProgram { key, soft, evicted, cost } => {
                tuple(obj, key).field("soft", soft).field("evicted", evicted).field("cost", cost)
            }
            Event::ConfigLoad { key, pfu }
            | Event::Eviction { key, pfu }
            | Event::StateSwap { key, pfu } => tuple(obj, key).field("pfu", pfu),
            Event::BusTransfer { words, cost } => obj.field("words", words).field("cost", cost),
            Event::Syscall { pid, number, cost } => {
                obj.field("pid", pid).field("number", number).field("cost", cost)
            }
            Event::Compute { pid, user, custom, soft, hw_dispatches, sw_dispatches } => {
                let obj = obj.field("pid", pid).field("user", user).field("custom", custom);
                let obj = obj.field("soft", soft).field("hw_dispatches", hw_dispatches);
                obj.field("sw_dispatches", sw_dispatches)
            }
            Event::Idle { cycles } => obj.field("cycles", cycles),
            Event::Exit { pid, code } => obj.field("pid", pid).field("code", code),
            Event::SeuStrike { pfu } | Event::Quarantine { pfu } => obj.field("pfu", pfu),
            Event::PfuFault { key, pfu, kind, cost } => {
                tuple(obj, key).field("pfu", pfu).field("fault", kind.name()).field("cost", cost)
            }
            Event::ScrubCheck { pfu, corrupt, cost } => {
                obj.field("pfu", pfu).field("corrupt", corrupt).field("cost", cost)
            }
            Event::RecoveryRetry { key, pfu, attempt, words, cost } => {
                let obj = tuple(obj, key).field("pfu", pfu).field("attempt", attempt);
                obj.field("words", words).field("cost", cost)
            }
            Event::SoftwareFailover { key, pfu, cost } => {
                tuple(obj, key).field("pfu", pfu).field("cost", cost)
            }
        }
    }

    /// Render as one JSON line of the `repro --trace` timeline dump:
    /// the cycle, the attribution tag (`by` is the process the work was
    /// done for, 0 = kernel housekeeping; `callsite` the emitting kernel
    /// path), the [`Event::kind`] and the event's [`Event::fields`].
    pub fn to_json(&self, at: u64, tag: Tag) -> String {
        let (by, site) = (tag.pid, tag.callsite.name());
        let head = object! { "cycle" => at, "by" => by, "callsite" => site, "kind" => self.kind() };
        self.fields(head).finish()
    }
}

/// The kernel code path an event was emitted from — the second axis of
/// the attribution matrix (the first is the process). The taxonomy is
/// deliberately small and static: one variant per emit site family, so
/// a flamegraph frame names *why* the kernel was running, not just what
/// it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Callsite {
    /// Guest execution (user instructions and the dispatch split made
    /// by [`AttributedLedger`]: custom-execute under
    /// [`Callsite::HwDispatch`], handler cycles under
    /// [`Callsite::SwDispatch`]).
    Compute,
    /// Custom instructions executed on PFU hardware.
    HwDispatch,
    /// The software-dispatch route: handler execution and the TLB2
    /// programming that installs it.
    SwDispatch,
    /// The custom-instruction fault handler's entry and mapping-fault
    /// repairs (§4.2's fast path).
    TlbMiss,
    /// Full configuration traffic: placement loads, evictions,
    /// state-frame swaps and the TLB programming that publishes them.
    Reconfiguration,
    /// Scheduler work: context switches, timer ticks, process lifecycle
    /// markers.
    ContextSwitch,
    /// System-call entry/exit.
    Syscall,
    /// Periodic configuration scrub: CRC sweeps and in-place repairs.
    Scrub,
    /// The watchdog-trip recovery ladder (retry → failover →
    /// quarantine) and transit verification of fresh loads.
    FaultRungs,
    /// The machine sat idle.
    Idle,
}

impl Callsite {
    /// Every callsite, in the stable order used by exports.
    pub const ALL: [Callsite; 10] = [
        Callsite::Compute,
        Callsite::HwDispatch,
        Callsite::SwDispatch,
        Callsite::TlbMiss,
        Callsite::Reconfiguration,
        Callsite::ContextSwitch,
        Callsite::Syscall,
        Callsite::Scrub,
        Callsite::FaultRungs,
        Callsite::Idle,
    ];

    /// Stable lower-case name (folded stacks, JSON).
    pub fn name(self) -> &'static str {
        match self {
            Callsite::Compute => "compute",
            Callsite::HwDispatch => "hw_dispatch",
            Callsite::SwDispatch => "sw_dispatch",
            Callsite::TlbMiss => "tlb_miss",
            Callsite::Reconfiguration => "reconfig",
            Callsite::ContextSwitch => "context_switch",
            Callsite::Syscall => "syscall",
            Callsite::Scrub => "scrub",
            Callsite::FaultRungs => "fault_rungs",
            Callsite::Idle => "idle",
        }
    }
}

/// The attribution stamp every emission carries: which process the work
/// was done *for* (`pid` 0 = kernel housekeeping not chargeable to any
/// process, e.g. idle) and which kernel path did it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    /// Beneficiary process (0 = none/kernel).
    pub pid: Pid,
    /// Emitting kernel path.
    pub callsite: Callsite,
}

impl Tag {
    /// A tag charging `callsite` work to process `pid`.
    pub fn new(pid: Pid, callsite: Callsite) -> Self {
        Self { pid, callsite }
    }

    /// Kernel housekeeping not chargeable to any process (pid 0).
    pub fn kernel(callsite: Callsite) -> Self {
        Self { pid: 0, callsite }
    }
}

/// A consumer of the event stream. Sinks must be pure folds: they may
/// accumulate state from the events they see but must not feed back
/// into the simulation.
pub trait EventSink: Send {
    /// Observe one event, stamped at simulated cycle `at` and
    /// attributed by `tag`.
    fn on_event(&mut self, at: u64, tag: Tag, event: &Event);
}

/// Where every simulated cycle went — the paper's §5.1.3 discussion as
/// an invariant: the categories partition the clock, so
/// [`CycleLedger::total`] equals total simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleLedger {
    /// Plain core instructions in user code.
    pub user_compute: u64,
    /// Cycles clocking PFU circuits (custom-instruction execute).
    pub custom_execute: u64,
    /// Cycles in software-dispatch handlers.
    pub soft_dispatch: u64,
    /// Context switches and timer ticks.
    pub context_switch: u64,
    /// Custom-instruction fault handler entry/exit.
    pub fault_handling: u64,
    /// Dispatch-TLB programming.
    pub tlb_programming: u64,
    /// Configuration-bus transfers (loads, unload write-backs, state
    /// swaps, including controller overhead).
    pub config_bus: u64,
    /// System-call entry/exit.
    pub syscall: u64,
    /// Fault detection: cycles burned by a slot before its watchdog
    /// tripped, plus CRC readback/scrub checks.
    pub fault_detection: u64,
    /// Fault recovery: retry reconfigurations (with backoff) and
    /// software-failover TLB reprogramming.
    pub fault_recovery: u64,
    /// Idle waiting for work.
    pub idle: u64,
}

impl CycleLedger {
    /// Category names, in the order [`CycleLedger::values`] returns them
    /// (also the CSV column order).
    pub const CATEGORIES: [&'static str; 11] = [
        "user_compute",
        "custom_execute",
        "soft_dispatch",
        "context_switch",
        "fault_handling",
        "tlb_programming",
        "config_bus",
        "syscall",
        "fault_detection",
        "fault_recovery",
        "idle",
    ];

    /// Category values in [`CycleLedger::CATEGORIES`] order.
    pub fn values(&self) -> [u64; 11] {
        [
            self.user_compute,
            self.custom_execute,
            self.soft_dispatch,
            self.context_switch,
            self.fault_handling,
            self.tlb_programming,
            self.config_bus,
            self.syscall,
            self.fault_detection,
            self.fault_recovery,
            self.idle,
        ]
    }

    /// Total attributed cycles. Equals the simulated clock at the end of
    /// a run (the conservation property).
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }

    /// Sum of the management-only categories (everything except user
    /// compute, custom execute and idle).
    pub fn management(&self) -> u64 {
        self.soft_dispatch
            + self.context_switch
            + self.fault_handling
            + self.tlb_programming
            + self.config_bus
            + self.syscall
            + self.fault_detection
            + self.fault_recovery
    }

    /// Merge another ledger into this one.
    pub fn absorb(&mut self, other: &CycleLedger) {
        self.user_compute += other.user_compute;
        self.custom_execute += other.custom_execute;
        self.soft_dispatch += other.soft_dispatch;
        self.context_switch += other.context_switch;
        self.fault_handling += other.fault_handling;
        self.tlb_programming += other.tlb_programming;
        self.config_bus += other.config_bus;
        self.syscall += other.syscall;
        self.fault_detection += other.fault_detection;
        self.fault_recovery += other.fault_recovery;
        self.idle += other.idle;
    }
}

impl EventSink for CycleLedger {
    fn on_event(&mut self, _at: u64, _tag: Tag, event: &Event) {
        match *event {
            Event::Compute { user, custom, soft, .. } => {
                self.user_compute += user;
                self.custom_execute += custom;
                self.soft_dispatch += soft;
            }
            Event::ContextSwitch { cost, .. } | Event::TimerTick { cost, .. } => {
                self.context_switch += cost;
            }
            Event::Fault { cost, .. } => self.fault_handling += cost,
            Event::TlbProgram { cost, .. } => self.tlb_programming += cost,
            Event::BusTransfer { cost, .. } => self.config_bus += cost,
            Event::Syscall { cost, .. } => self.syscall += cost,
            Event::PfuFault { cost, .. } | Event::ScrubCheck { cost, .. } => {
                self.fault_detection += cost;
            }
            Event::RecoveryRetry { cost, .. } | Event::SoftwareFailover { cost, .. } => {
                self.fault_recovery += cost;
            }
            Event::Idle { cycles } => self.idle += cycles,
            Event::Spawn { .. }
            | Event::MappingRepair { .. }
            | Event::ConfigLoad { .. }
            | Event::Eviction { .. }
            | Event::StateSwap { .. }
            | Event::SoftwareInstall { .. }
            | Event::Exit { .. }
            | Event::Kill { .. }
            | Event::SeuStrike { .. }
            | Event::Quarantine { .. } => {}
        }
    }
}

/// The per-process × per-callsite × category cycle matrix: the same
/// fold as [`CycleLedger`], but keyed by each event's [`Tag`], so the
/// global breakdown can be sliced by *who* the work was for and *which*
/// kernel path did it.
///
/// Conservation survives attribution by construction: every event's
/// category delta lands in exactly one `(pid, callsite)` cell, so
/// [`AttributedLedger::refold`] reproduces the global ledger and
/// [`AttributedLedger::total`] equals the simulated clock. Cells are a
/// `BTreeMap`, so iteration (and every export built on it) is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttributedLedger {
    cells: BTreeMap<(Pid, Callsite), CycleLedger>,
}

impl AttributedLedger {
    fn cell(&mut self, pid: Pid, callsite: Callsite) -> &mut CycleLedger {
        self.cells.entry((pid, callsite)).or_default()
    }

    /// Iterate the non-empty cells in deterministic `(pid, callsite)`
    /// order.
    pub fn cells(&self) -> impl Iterator<Item = (Pid, Callsite, &CycleLedger)> + '_ {
        self.cells.iter().map(|(&(pid, callsite), ledger)| (pid, callsite, ledger))
    }

    /// True when nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Collapse the matrix into the global [`CycleLedger`]: what a
    /// plain `CycleLedger` fold over the same stream yields — the
    /// conservation law extended through attribution.
    pub fn refold(&self) -> CycleLedger {
        let mut out = CycleLedger::default();
        for ledger in self.cells.values() {
            out.absorb(ledger);
        }
        out
    }

    /// Total attributed cycles (equals the simulated clock over a run).
    pub fn total(&self) -> u64 {
        self.cells.values().map(CycleLedger::total).sum()
    }

    /// Merge another matrix into this one (cell-wise; used by the
    /// runner to assemble per-job matrices into a figure-wide one —
    /// u64 sums commute, so assembly order cannot affect the result).
    pub fn absorb(&mut self, other: &AttributedLedger) {
        for (&(pid, callsite), ledger) in &other.cells {
            self.cell(pid, callsite).absorb(ledger);
        }
    }

    /// Render as Brendan-Gregg folded stacks — one
    /// `scenario;pid<N>;<callsite>;<category> <cycles>` line per
    /// non-zero cell/category pair, in deterministic order — directly
    /// consumable by `flamegraph.pl` or inferno.
    pub fn to_folded(&self, scenario: &str) -> String {
        let mut out = String::new();
        for (pid, callsite, ledger) in self.cells() {
            for (name, value) in CycleLedger::CATEGORIES.iter().zip(ledger.values()) {
                if value > 0 {
                    out.push_str(&format!(
                        "{scenario};pid{pid};{};{name} {value}\n",
                        callsite.name()
                    ));
                }
            }
        }
        out
    }

    /// The `k` largest `(pid, callsite, category, cycles)` sinks,
    /// largest first (ties broken by cell order for determinism).
    pub fn top_sinks(&self, k: usize) -> Vec<(Pid, Callsite, &'static str, u64)> {
        let mut flat: Vec<(Pid, Callsite, &'static str, u64)> = Vec::new();
        for (pid, callsite, ledger) in self.cells() {
            for (name, value) in CycleLedger::CATEGORIES.iter().zip(ledger.values()) {
                if value > 0 {
                    flat.push((pid, callsite, name, value));
                }
            }
        }
        flat.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        flat.truncate(k);
        flat
    }
}

impl EventSink for AttributedLedger {
    fn on_event(&mut self, at: u64, tag: Tag, event: &Event) {
        match *event {
            // Compute spans split across the dispatch callsites (user
            // cycles under `Compute`, custom-execute under
            // `HwDispatch`, handler cycles under `SwDispatch`); the
            // event's own pid equals the tag's.
            Event::Compute { pid, user, custom, soft, .. } => {
                if user > 0 {
                    self.cell(pid, Callsite::Compute).user_compute += user;
                }
                if custom > 0 {
                    self.cell(pid, Callsite::HwDispatch).custom_execute += custom;
                }
                if soft > 0 {
                    self.cell(pid, Callsite::SwDispatch).soft_dispatch += soft;
                }
            }
            // Everything else books its category delta into the tag's
            // cell. Routing through the CycleLedger fold keeps the
            // category mapping single-sourced, so refold == global
            // ledger by construction.
            _ => {
                let mut delta = CycleLedger::default();
                delta.on_event(at, tag, event);
                if delta.total() > 0 {
                    self.cell(tag.pid, tag.callsite).absorb(&delta);
                }
            }
        }
    }
}

/// The fan-out point: one `emit` call feeds the stats fold, the
/// attribution matrix (whose [`AttributedLedger::refold`] is the global
/// cycle ledger), the bounded trace, and any extra sinks the embedder
/// added.
pub struct Probe {
    stats: KernelStats,
    attributed: AttributedLedger,
    trace: Trace,
    extra: Vec<Box<dyn EventSink>>,
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("stats", &self.stats)
            .field("attributed", &self.attributed)
            .field("trace", &self.trace)
            .field("extra_sinks", &self.extra.len())
            .finish()
    }
}

impl Probe {
    /// A probe whose trace keeps at most `trace_capacity` events
    /// (0 disables tracing; stats and attribution always accumulate).
    pub fn new(trace_capacity: usize) -> Self {
        Self {
            stats: KernelStats::default(),
            attributed: AttributedLedger::default(),
            trace: Trace::with_capacity(trace_capacity),
            extra: Vec::new(),
        }
    }

    /// Emit one event at simulated cycle `at`, attributed by `tag`, to
    /// every sink.
    pub fn emit(&mut self, at: u64, tag: Tag, event: Event) {
        self.stats.on_event(at, tag, &event);
        self.attributed.on_event(at, tag, &event);
        self.trace.on_event(at, tag, &event);
        for sink in &mut self.extra {
            sink.on_event(at, tag, &event);
        }
    }

    /// Emit the [`Event::Compute`] of a completed execution span,
    /// tagged to `pid` at [`Callsite::Compute`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn compute_span(
        &mut self,
        at: u64,
        pid: Pid,
        user: u64,
        custom: u64,
        soft: u64,
        hw_dispatches: u64,
        sw_dispatches: u64,
    ) {
        self.emit(
            at,
            Tag::new(pid, Callsite::Compute),
            Event::Compute { pid, user, custom, soft, hw_dispatches, sw_dispatches },
        );
    }

    /// The folded statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The per-process × per-callsite attribution matrix.
    pub fn attributed(&self) -> &AttributedLedger {
        &self.attributed
    }

    /// The bounded event timeline.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attach an additional sink; it sees every event emitted from now
    /// on.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.extra.push(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_folds_costs_into_categories() {
        let mut probe = Probe::new(16);
        let key = TupleKey::new(1, 0);
        let sched = Tag::new(1, Callsite::ContextSwitch);
        let miss = Tag::new(1, Callsite::TlbMiss);
        let reconf = Tag::new(1, Callsite::Reconfiguration);
        let stream = [
            (0, sched, Event::Spawn { pid: 1 }),
            (10, Tag::new(1, Callsite::Compute), Event::Compute { pid: 1, user: 7, custom: 2, soft: 1, hw_dispatches: 1, sw_dispatches: 1 }),
            (10, miss, Event::Fault { key, cost: 120 }),
            (10, reconf, Event::BusTransfer { words: 100, cost: 164 }),
            (10, reconf, Event::ConfigLoad { key, pfu: 0 }),
            (10, reconf, Event::TlbProgram { key, soft: false, evicted: true, cost: 12 }),
            (306, Tag::new(1, Callsite::Syscall), Event::Syscall { pid: 1, number: 0, cost: 40 }),
            (306, Tag::kernel(Callsite::Idle), Event::Idle { cycles: 50 }),
        ];
        // A plain CycleLedger folds the same stream independently of
        // the probe's attribution matrix.
        let mut plain = CycleLedger::default();
        for (at, tag, event) in stream {
            probe.emit(at, tag, event);
            plain.on_event(at, tag, &event);
        }

        let l = &plain;
        assert_eq!(l.user_compute, 7);
        assert_eq!(l.custom_execute, 2);
        assert_eq!(l.soft_dispatch, 1);
        assert_eq!(l.fault_handling, 120);
        assert_eq!(l.config_bus, 164);
        assert_eq!(l.tlb_programming, 12);
        assert_eq!(l.syscall, 40);
        assert_eq!(l.idle, 50);
        assert_eq!(l.total(), 7 + 2 + 1 + 120 + 164 + 12 + 40 + 50);

        let s = probe.stats();
        assert_eq!(s.custom_faults, 1);
        assert_eq!(s.config_loads, 1);
        assert_eq!(s.tlb_evictions, 1);
        assert_eq!(s.config_words_moved, 100);
        assert_eq!(s.syscalls, 1);

        assert_eq!(probe.trace().len(), 8);

        // Attribution conserves: the matrix refolds to the plain fold,
        // and the cells land where the tags said.
        let a = probe.attributed();
        assert_eq!(&a.refold(), l);
        assert_eq!(a.total(), l.total());
        let cells: Vec<(Pid, Callsite, u64)> =
            a.cells().map(|(p, c, lg)| (p, c, lg.total())).collect();
        assert_eq!(
            cells,
            vec![
                (0, Callsite::Idle, 50),
                (1, Callsite::Compute, 7),
                (1, Callsite::HwDispatch, 2),
                (1, Callsite::SwDispatch, 1),
                (1, Callsite::TlbMiss, 120),
                (1, Callsite::Reconfiguration, 164 + 12),
                (1, Callsite::Syscall, 40),
            ]
        );
    }

    #[test]
    fn folded_stacks_and_top_sinks_are_deterministic() {
        let mut probe = Probe::new(16);
        let key = TupleKey::new(2, 0);
        probe.emit(10, Tag::new(2, Callsite::Compute), Event::Compute { pid: 2, user: 500, custom: 80, soft: 0, hw_dispatches: 4, sw_dispatches: 0 });
        probe.emit(20, Tag::new(2, Callsite::TlbMiss), Event::Fault { key, cost: 120 });
        probe.emit(30, Tag::kernel(Callsite::Idle), Event::Idle { cycles: 9 });

        let folded = probe.attributed().to_folded("demo");
        assert_eq!(
            folded,
            "demo;pid0;idle;idle 9\n\
             demo;pid2;compute;user_compute 500\n\
             demo;pid2;hw_dispatch;custom_execute 80\n\
             demo;pid2;tlb_miss;fault_handling 120\n"
        );
        // Folded per-category sums reproduce the global ledger.
        let mut by_category: BTreeMap<&str, u64> = BTreeMap::new();
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("line has a count");
            let category = stack.rsplit(';').next().expect("has a category frame");
            *by_category.entry(category).or_default() += value.parse::<u64>().expect("count");
        }
        for (name, value) in CycleLedger::CATEGORIES.iter().zip(probe.attributed().refold().values()) {
            assert_eq!(by_category.get(name).copied().unwrap_or(0), value, "{name}");
        }

        let top = probe.attributed().top_sinks(2);
        assert_eq!(top[0], (2, Callsite::Compute, "user_compute", 500));
        assert_eq!(top[1], (2, Callsite::TlbMiss, "fault_handling", 120));
    }

    #[test]
    fn fault_events_fold_into_their_own_categories() {
        let mut probe = Probe::new(16);
        let key = TupleKey::new(2, 1);
        let rungs = Tag::new(2, Callsite::FaultRungs);
        probe.emit(5, Tag::kernel(Callsite::Scrub), Event::SeuStrike { pfu: 1 });
        probe.emit(9, rungs, Event::PfuFault { key, pfu: 1, kind: PfuFaultKind::CrcMismatch, cost: 250 });
        probe.emit(9, rungs, Event::RecoveryRetry { key, pfu: 1, attempt: 1, words: 13_500, cost: 13_600 });
        probe.emit(20, Tag::kernel(Callsite::Scrub), Event::ScrubCheck { pfu: 0, corrupt: false, cost: 30 });
        probe.emit(33, rungs, Event::PfuFault { key, pfu: 2, kind: PfuFaultKind::Watchdog, cost: 400 });
        probe.emit(33, rungs, Event::SoftwareFailover { key, pfu: 2, cost: 12 });
        probe.emit(40, rungs, Event::Quarantine { pfu: 2 });

        let l = probe.attributed().refold();
        assert_eq!(l.fault_detection, 250 + 30 + 400);
        assert_eq!(l.fault_recovery, 13_600 + 12);
        assert_eq!(l.total(), 250 + 30 + 400 + 13_600 + 12);
        assert_eq!(l.management(), l.total(), "fault work is management overhead");

        let s = probe.stats();
        assert_eq!(s.seu_strikes, 1);
        assert_eq!(s.pfu_faults, 2);
        assert_eq!(s.crc_errors, 1, "only the CRC-mismatch trip counts");
        assert_eq!(s.recovery_retries, 1);
        assert_eq!(s.config_words_moved, 13_500, "retries are bus traffic");
        assert_eq!(s.fault_failovers, 1);
        assert_eq!(s.quarantines, 1);
    }

    #[test]
    fn spans_reach_extra_sinks_as_events() {
        struct Seen(std::sync::mpsc::Sender<Event>);
        impl EventSink for Seen {
            fn on_event(&mut self, _at: u64, _tag: Tag, event: &Event) {
                let _ = self.0.send(*event);
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let mut probe = Probe::new(0);
        probe.add_sink(Box::new(Seen(tx)));
        probe.compute_span(10, 1, 7, 2, 1, 0, 0);
        probe.emit(60, Tag::kernel(Callsite::Idle), Event::Idle { cycles: 50 });
        let seen: Vec<Event> = rx.try_iter().collect();
        assert_eq!(
            seen,
            vec![
                Event::Compute { pid: 1, user: 7, custom: 2, soft: 1, hw_dispatches: 0, sw_dispatches: 0 },
                Event::Idle { cycles: 50 },
            ]
        );
    }

    #[test]
    fn extra_sinks_see_every_event() {
        struct Counter(std::sync::mpsc::Sender<u64>);
        impl EventSink for Counter {
            fn on_event(&mut self, at: u64, _tag: Tag, _event: &Event) {
                let _ = self.0.send(at);
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let mut probe = Probe::new(0);
        probe.add_sink(Box::new(Counter(tx)));
        let sched = Tag::new(1, Callsite::ContextSwitch);
        probe.emit(5, sched, Event::Spawn { pid: 1 });
        probe.emit(9, sched, Event::Exit { pid: 1, code: 0 });
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![5, 9]);
    }

    #[test]
    fn event_json_is_one_object_per_event() {
        let key = TupleKey::new(3, 1);
        let j = Event::Fault { key, cost: 120 }.to_json(42, Tag::new(3, Callsite::TlbMiss));
        assert_eq!(
            j,
            "{\"cycle\":42,\"by\":3,\"callsite\":\"tlb_miss\",\
             \"kind\":\"fault\",\"pid\":3,\"cid\":1,\"cost\":120}"
        );
        let j = Event::ContextSwitch { from: None, to: 2, cost: 220 }
            .to_json(7, Tag::new(2, Callsite::ContextSwitch));
        assert!(j.contains("\"from\":null"));
    }
}

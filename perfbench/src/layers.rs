//! Per-layer host time from the traced run.
//!
//! [`LayerSink`] is attached to a machine with `Machine::add_sink` right
//! before `Machine::run`. It stamps `Instant::now()` at every event and
//! charges the host interval since the previous stamp to the layer that
//! emitted the event: the work that led up to an event is the work of the
//! code path that emits it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use porsche::probe::{Event, EventSink, Tag};

/// Host time and counts one traced run charged to each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `Cpu::run`: intervals ending in `Event::Compute` (interpretation,
    /// hardware dispatch and the software-dispatch handler lane).
    pub cpu: Duration,
    /// The scheduler: context switches, timer ticks, system calls,
    /// spawn, exit, kill and idle.
    pub sched: Duration,
    /// The custom-instruction scheduler (CIS): faults, mapping repairs,
    /// TLB programming, configuration loads, evictions, state swaps,
    /// software installs and bus transfers.
    pub cis: Duration,
    /// The fault ladder: PFU faults, scrubs, retries, failovers,
    /// quarantines and SEU strikes.
    pub fault: Duration,
    /// Events observed.
    pub events: u64,
    /// `Event::Compute` spans observed.
    pub compute_spans: u64,
    /// Custom instructions dispatched to hardware (from compute spans).
    pub hw_dispatches: u64,
    /// Custom instructions dispatched to software (from compute spans).
    pub sw_dispatches: u64,
    /// When the last event was stamped.
    pub last_event: Option<Instant>,
}

impl LayerTimes {
    /// Host time charged to the four kernel-run layers.
    pub fn charged(&self) -> Duration {
        self.cpu + self.sched + self.cis + self.fault
    }

    /// Merge another run's times into this one.
    pub fn absorb(&mut self, other: &LayerTimes) {
        self.cpu += other.cpu;
        self.sched += other.sched;
        self.cis += other.cis;
        self.fault += other.fault;
        self.events += other.events;
        self.compute_spans += other.compute_spans;
        self.hw_dispatches += other.hw_dispatches;
        self.sw_dispatches += other.sw_dispatches;
        self.last_event = self.last_event.max(other.last_event);
    }
}

/// The benchmark's event sink. Owns its accumulators, so an event costs
/// one `Instant::now()` and a few additions; it hands them to `out` when
/// the machine drops it.
pub struct LayerSink {
    last: Instant,
    times: LayerTimes,
    out: Arc<Mutex<LayerTimes>>,
}

impl LayerSink {
    /// A sink whose first interval starts at `start`.
    pub fn starting_at(start: Instant, out: Arc<Mutex<LayerTimes>>) -> Self {
        Self { last: start, times: LayerTimes::default(), out }
    }
}

impl EventSink for LayerSink {
    fn on_event(&mut self, _at: u64, _tag: Tag, event: &Event) {
        let now = Instant::now();
        let dt = now - self.last;
        self.last = now;
        let t = &mut self.times;
        t.events += 1;
        t.last_event = Some(now);
        *match event {
            Event::Compute { .. } => &mut t.cpu,
            Event::ContextSwitch { .. }
            | Event::TimerTick { .. }
            | Event::Syscall { .. }
            | Event::Spawn { .. }
            | Event::Exit { .. }
            | Event::Kill { .. }
            | Event::Idle { .. } => &mut t.sched,
            Event::Fault { .. }
            | Event::MappingRepair { .. }
            | Event::TlbProgram { .. }
            | Event::ConfigLoad { .. }
            | Event::Eviction { .. }
            | Event::StateSwap { .. }
            | Event::SoftwareInstall { .. }
            | Event::BusTransfer { .. } => &mut t.cis,
            Event::PfuFault { .. }
            | Event::ScrubCheck { .. }
            | Event::RecoveryRetry { .. }
            | Event::SoftwareFailover { .. }
            | Event::Quarantine { .. }
            | Event::SeuStrike { .. } => &mut t.fault,
        } += dt;
        if let Event::Compute { hw_dispatches, sw_dispatches, .. } = *event {
            t.compute_spans += 1;
            t.hw_dispatches += hw_dispatches;
            t.sw_dispatches += sw_dispatches;
        }
    }
}

impl Drop for LayerSink {
    fn drop(&mut self) {
        // A poisoned lock means the job panicked; its result is recorded
        // as a failure, so losing its layer times is harmless.
        if let Ok(mut out) = self.out.lock() {
            out.absorb(&self.times);
        }
    }
}

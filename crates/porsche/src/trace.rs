//! Bounded event timeline: a ring-buffer sink over the probe stream.
//!
//! When enabled ([`crate::kernel::KernelConfig::trace_capacity`] > 0),
//! the trace keeps the most recent `capacity` events emitted on the
//! instrumentation bus ([`crate::probe`]). It is a pure fold over the
//! same stream that feeds [`crate::stats::KernelStats`] and
//! [`crate::probe::CycleLedger`]. Useful for debugging policies, for
//! asserting ordering invariants in tests, and as the source of the
//! `repro --trace` JSON-lines dump.

use std::collections::VecDeque;

pub use crate::probe::Event;
use crate::probe::{EventSink, Tag};

/// A bounded event timeline of `(cycle, tag, event)` triples in
/// emission order. The buffer is a ring: once `capacity` is reached the
/// *oldest* event is dropped for each new one, so long runs with small
/// capacities keep the interesting tail. [`Trace::dropped`] counts the
/// discards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: VecDeque<(u64, Tag, Event)>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace that keeps at most the latest `capacity` events
    /// (0 disables recording entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { events: VecDeque::new(), capacity, dropped: 0 }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Record an event at `cycle`, evicting the oldest entry when full.
    pub fn record(&mut self, cycle: u64, tag: Tag, event: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((cycle, tag, event));
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded from the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the retained timeline, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Tag, Event)> + '_ {
        self.events.iter().copied()
    }

    /// The retained timeline as a contiguous vector (oldest first).
    pub fn snapshot(&self) -> Vec<(u64, Tag, Event)> {
        self.iter().collect()
    }
}

impl EventSink for Trace {
    fn on_event(&mut self, at: u64, tag: Tag, event: &Event) {
        self.record(at, tag, *event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::probe::Callsite;

    #[test]
    fn ring_keeps_latest_events_and_counts_drops() {
        let mut t = Trace::with_capacity(2);
        let tag = Tag::new(1, Callsite::ContextSwitch);
        for i in 0..5 {
            t.record(i, tag, Event::TimerTick { pid: 1, cost: 60 });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let cycles: Vec<u64> = t.iter().map(|(c, _, _)| c).collect();
        assert_eq!(cycles, vec![3, 4], "latest events survive");
        assert!(t.enabled());
        assert!(!Trace::with_capacity(0).enabled());
        assert_eq!(Trace::with_capacity(0).dropped(), 0);
    }
}

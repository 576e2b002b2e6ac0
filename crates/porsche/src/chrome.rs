//! Chrome trace-event JSON exporter for the probe timeline.
//!
//! Renders a recorded [`crate::trace::Trace`] snapshot as the Trace
//! Event Format consumed by `chrome://tracing` / Perfetto's
//! `trace_viewer`: one track per simulated process (from each event's
//! [`Tag`]), plus one track per PFU slot reconstructing circuit
//! residency and quarantine windows from the
//! [`Event::ConfigLoad`]/[`Event::Eviction`]/[`Event::StateSwap`]/
//! [`Event::Quarantine`] markers. Simulated cycles are written into the
//! `ts`/`dur` microsecond fields unscaled — the viewer's time axis
//! reads directly in cycles.
//!
//! A process-track slice is the event's timeline line in another
//! shape: its name is [`Event::kind`] and its args are the callsite
//! plus [`Event::fields`].

use std::collections::{BTreeMap, BTreeSet};

use proteus_rfu::TupleKey;

use crate::json::{Array, Object};
use crate::object;
use crate::probe::{Event, Tag};
use crate::process::Pid;

/// Synthetic Chrome "process" id hosting the per-PFU tracks. Simulated
/// pids are small (they start at 1), so this cannot collide.
const RFU_TRACK: u64 = 1_000_000;

/// A complete ("X") slice on track `(pid, tid)`.
fn complete(name: &str, cat: &str, ts: u64, dur: u64, track: (u64, u64), args: Object) -> Object {
    object! {
        "name" => name, "cat" => cat, "ph" => "X", "ts" => ts, "dur" => dur,
        "pid" => track.0, "tid" => track.1, "args" => args,
    }
}

/// A thread-scoped instant ("i") on track `(pid, tid)`.
fn instant(name: &str, cat: &str, ts: u64, track: (u64, u64), args: Object) -> Object {
    object! {
        "name" => name, "cat" => cat, "ph" => "i", "s" => "t", "ts" => ts,
        "pid" => track.0, "tid" => track.1, "args" => args,
    }
}

/// A track-naming metadata ("M") record.
fn meta(meta: &str, track: (u64, u64), value: &str) -> Object {
    let args = object! { "name" => value };
    object! { "name" => meta, "ph" => "M", "pid" => track.0, "tid" => track.1, "args" => args }
}

/// How an event shows on its beneficiary's process track.
enum Mark {
    /// Cost-carrying work: a complete slice.
    Slice { ts: u64, dur: u64 },
    /// A zero-cost lifecycle marker.
    Instant,
}

/// The process-track mark of an event stamped at `at`; `None` for the
/// markers drawn only on PFU tracks.
fn process_mark(at: u64, event: &Event) -> Option<Mark> {
    match *event {
        Event::ContextSwitch { cost, .. }
        | Event::TimerTick { cost, .. }
        | Event::Fault { cost, .. }
        | Event::TlbProgram { cost, .. }
        | Event::BusTransfer { cost, .. }
        | Event::Syscall { cost, .. }
        | Event::PfuFault { cost, .. }
        | Event::ScrubCheck { cost, .. }
        | Event::RecoveryRetry { cost, .. }
        | Event::SoftwareFailover { cost, .. }
        | Event::Idle { cycles: cost } => Some(Mark::Slice { ts: at, dur: cost }),
        // Compute events are stamped at span end; rewind so the slice
        // covers the cycles it accounts for.
        Event::Compute { user, custom, soft, .. } => {
            let span = user + custom + soft;
            Some(Mark::Slice { ts: at.saturating_sub(span), dur: span })
        }
        Event::Spawn { .. } | Event::Exit { .. } | Event::Kill { .. } => Some(Mark::Instant),
        Event::MappingRepair { .. } | Event::SoftwareInstall { .. } => Some(Mark::Instant),
        Event::ConfigLoad { .. } | Event::Eviction { .. } | Event::StateSwap { .. } => None,
        Event::SeuStrike { .. } | Event::Quarantine { .. } => None,
    }
}

/// The Chrome track of PFU slot `pfu`.
fn pfu_track(pfu: usize) -> (u64, u64) {
    (RFU_TRACK, pfu as u64)
}

/// What occupies a PFU slot, and since when.
struct Residency {
    label: String,
    since: u64,
}

impl Residency {
    fn loaded(key: TupleKey, at: u64) -> Self {
        Self { label: format!("pid{} cid{}", key.pid, key.cid), since: at }
    }

    /// The residency window on `pfu`'s track, closed at `until`.
    fn slice(&self, pfu: usize, until: u64) -> Object {
        let dur = until.saturating_sub(self.since);
        complete(&self.label, "resident", self.since, dur, pfu_track(pfu), Object::new())
    }
}

/// Render a trace snapshot as one Chrome trace-event JSON document.
///
/// `events` is a [`crate::trace::Trace::snapshot`] (oldest first),
/// `dropped` the ring's discard count — recorded in `otherData` so a
/// truncated timeline is never silently presented as complete — and
/// `total_cycles` the run's final clock, used to close residency
/// windows still open at the end of the run.
pub fn chrome_trace_json(
    scenario: &str,
    events: &[(u64, Tag, Event)],
    dropped: u64,
    total_cycles: u64,
) -> String {
    let mut out = Array::default();
    let window_start = events.first().map_or(0, |&(at, _, _)| at);

    // Which simulated processes and PFU slots need tracks.
    let mut pids: BTreeSet<Pid> = BTreeSet::new();
    let mut pfus: BTreeSet<usize> = BTreeSet::new();
    for &(_, tag, ref event) in events {
        pids.insert(tag.pid);
        match *event {
            Event::ConfigLoad { pfu, .. }
            | Event::Eviction { pfu, .. }
            | Event::StateSwap { pfu, .. }
            | Event::SeuStrike { pfu }
            | Event::PfuFault { pfu, .. }
            | Event::ScrubCheck { pfu, .. }
            | Event::RecoveryRetry { pfu, .. }
            | Event::SoftwareFailover { pfu, .. }
            | Event::Quarantine { pfu } => {
                pfus.insert(pfu);
            }
            _ => {}
        }
    }

    // Metadata: track names.
    for &pid in &pids {
        let name = if pid == 0 { "kernel".to_string() } else { format!("pid {pid}") };
        out.push(meta("process_name", (u64::from(pid), 0), &name));
    }
    if !pfus.is_empty() {
        out.push(meta("process_name", (RFU_TRACK, 0), "RFU"));
        for &pfu in &pfus {
            out.push(meta("thread_name", pfu_track(pfu), &format!("PFU {pfu}")));
        }
    }

    // Per-PFU residency/quarantine reconstruction state.
    let mut resident: BTreeMap<usize, Residency> = BTreeMap::new();

    for &(at, tag, ref event) in events {
        let site = tag.callsite.name();
        if let Some(mark) = process_mark(at, event) {
            let track = (u64::from(tag.pid), 0);
            let args = event.fields(Object::new().field("callsite", site));
            out.push(match mark {
                Mark::Slice { ts, dur } => complete(event.kind(), site, ts, dur, track, args),
                Mark::Instant => instant(event.kind(), site, at, track, args),
            });
        }
        match *event {
            Event::PfuFault { pfu, .. } | Event::SeuStrike { pfu } => {
                out.push(instant(event.kind(), "fault", at, pfu_track(pfu), Object::new()));
            }
            // Residency bookkeeping: loads open a window on the PFU
            // track, evictions/swaps close it. A window whose opening
            // fell off the ring buffer starts at the retained window's
            // first timestamp.
            Event::ConfigLoad { key, pfu } | Event::StateSwap { key, pfu } => {
                if let Some(r) = resident.insert(pfu, Residency::loaded(key, at)) {
                    out.push(r.slice(pfu, at));
                }
            }
            Event::Eviction { pfu, .. } => {
                let r = resident.remove(&pfu).unwrap_or_else(|| Residency {
                    label: "resident (pre-window)".to_string(),
                    since: window_start,
                });
                out.push(r.slice(pfu, at));
            }
            Event::Quarantine { pfu } => {
                if let Some(r) = resident.remove(&pfu) {
                    out.push(r.slice(pfu, at));
                }
                let dur = total_cycles.saturating_sub(at);
                out.push(complete("quarantined", "fault", at, dur, pfu_track(pfu), Object::new()));
            }
            _ => {}
        }
    }
    // Close residency windows still open at the end of the run.
    for (&pfu, r) in &resident {
        out.push(r.slice(pfu, total_cycles));
    }

    let other = object! {
        "scenario" => scenario, "clock" => "simulated cycles (unscaled in ts/dur)",
        "total_cycles" => total_cycles, "dropped_events" => dropped,
    };
    object! { "traceEvents" => out, "displayTimeUnit" => "ms", "otherData" => other }.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Callsite;
    use proteus_rfu::TupleKey;

    #[test]
    fn exporter_builds_process_and_pfu_tracks() {
        let key = TupleKey::new(1, 0);
        let reconf = Tag::new(1, Callsite::Reconfiguration);
        let events = vec![
            (0, Tag::new(1, Callsite::ContextSwitch), Event::Spawn { pid: 1 }),
            (10, Tag::new(1, Callsite::TlbMiss), Event::Fault { key, cost: 120 }),
            (10, reconf, Event::ConfigLoad { key, pfu: 0 }),
            (10, reconf, Event::BusTransfer { words: 100, cost: 164 }),
            (500, Tag::new(1, Callsite::Compute), Event::Compute {
                pid: 1,
                user: 300,
                custom: 50,
                soft: 0,
                hw_dispatches: 2,
                sw_dispatches: 0,
            }),
            (600, reconf, Event::Eviction { key, pfu: 0 }),
        ];
        let json = chrome_trace_json("demo", &events, 3, 700);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with('}'), "{json}");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"PFU 0\""));
        // The residency window spans load -> eviction.
        assert!(
            json.contains("\"name\":\"pid1 cid0\",\"cat\":\"resident\",\"ph\":\"X\",\"ts\":10,\"dur\":590"),
            "{json}"
        );
        // The compute slice is rewound to cover its span.
        assert!(json.contains("\"name\":\"compute\",\"cat\":\"compute\",\"ph\":\"X\",\"ts\":150,\"dur\":350"), "{json}");
        assert!(json.contains("\"dropped_events\":3"));
        // Balanced braces => structurally sound JSON (no parser in the
        // workspace; the schema sanity check lives in integration tests).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn quarantine_and_unclosed_residency_extend_to_run_end() {
        let key = TupleKey::new(2, 1);
        let rungs = Tag::new(2, Callsite::FaultRungs);
        let events = vec![
            (5, Tag::new(2, Callsite::Reconfiguration), Event::ConfigLoad { key, pfu: 1 }),
            (50, rungs, Event::Quarantine { pfu: 1 }),
            (60, Tag::new(2, Callsite::Reconfiguration), Event::ConfigLoad { key, pfu: 2 }),
        ];
        let json = chrome_trace_json("q", &events, 0, 100);
        assert!(json.contains("\"name\":\"quarantined\",\"cat\":\"fault\",\"ph\":\"X\",\"ts\":50,\"dur\":50"), "{json}");
        assert!(json.contains("\"ts\":60,\"dur\":40"), "open residency closes at run end: {json}");
    }
}

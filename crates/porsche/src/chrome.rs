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
//! Hand-rolled JSON, like every other exporter in the workspace: the
//! simulator carries no serialization dependency.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::probe::{Event, Tag};
use crate::process::Pid;

/// Synthetic Chrome "process" id hosting the per-PFU tracks. Simulated
/// pids are small (they start at 1), so this cannot collide.
const RFU_TRACK: u64 = 1_000_000;

fn push_complete(
    out: &mut String,
    name: &str,
    cat: &str,
    ts: u64,
    dur: u64,
    (pid, tid): (u64, u64),
    args: &str,
) {
    let _ = write!(
        out,
        ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
    );
}

fn push_instant(out: &mut String, name: &str, cat: &str, ts: u64, pid: u64, tid: u64, args: &str) {
    let _ = write!(
        out,
        ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
    );
}

fn push_meta(out: &mut String, meta: &str, pid: u64, tid: u64, value: &str) {
    let _ = write!(
        out,
        ",\n{{\"name\":\"{meta}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{value}\"}}}}"
    );
}

/// Escape a string for inclusion in a JSON string literal: quotes,
/// backslashes and control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
    let mut body = String::new();
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
        push_meta(&mut body, "process_name", u64::from(pid), 0, &name);
    }
    if !pfus.is_empty() {
        push_meta(&mut body, "process_name", RFU_TRACK, 0, "RFU");
        for &pfu in &pfus {
            push_meta(&mut body, "thread_name", RFU_TRACK, pfu as u64, &format!("PFU {pfu}"));
        }
    }

    // Per-PFU residency/quarantine reconstruction state: what occupies
    // each slot and since when.
    let mut resident: Vec<(usize, TagKeyed)> = Vec::new();
    struct TagKeyed {
        label: String,
        since: u64,
    }
    let close_residency = |body: &mut String, resident: &mut Vec<(usize, TagKeyed)>,
                           pfu: usize, at: u64| {
        if let Some(i) = resident.iter().position(|(p, _)| *p == pfu) {
            let (_, r) = resident.swap_remove(i);
            push_complete(
                body,
                &r.label,
                "resident",
                r.since,
                at.saturating_sub(r.since),
                (RFU_TRACK, pfu as u64),
                "",
            );
        }
    };

    for &(at, tag, ref event) in events {
        let pid = u64::from(tag.pid);
        let site = tag.callsite.name();
        let args = format!("\"callsite\":\"{site}\"");
        match *event {
            // Cost-carrying work: complete ("X") slices on the
            // beneficiary process's track.
            Event::ContextSwitch { cost, .. } => {
                push_complete(&mut body, "context_switch", site, at, cost, (pid, 0), &args);
            }
            Event::TimerTick { cost, .. } => {
                push_complete(&mut body, "timer_tick", site, at, cost, (pid, 0), &args);
            }
            Event::Fault { cost, .. } => {
                push_complete(&mut body, "fault", site, at, cost, (pid, 0), &args);
            }
            Event::TlbProgram { soft, cost, .. } => {
                let name = if soft { "tlb_program_sw" } else { "tlb_program" };
                push_complete(&mut body, name, site, at, cost, (pid, 0), &args);
            }
            Event::BusTransfer { words, cost } => {
                let args = format!("{args},\"words\":{words}");
                push_complete(&mut body, "bus_transfer", site, at, cost, (pid, 0), &args);
            }
            Event::Syscall { number, cost, .. } => {
                let args = format!("{args},\"number\":{number}");
                push_complete(&mut body, "syscall", site, at, cost, (pid, 0), &args);
            }
            // Compute events are stamped at span end; rewind so the
            // slice covers the cycles it accounts for.
            Event::Compute { user, custom, soft, .. } => {
                let span = user + custom + soft;
                let args = format!("{args},\"user\":{user},\"custom\":{custom},\"soft\":{soft}");
                push_complete(
                    &mut body,
                    "compute",
                    site,
                    at.saturating_sub(span),
                    span,
                    (pid, 0),
                    &args,
                );
            }
            Event::Idle { cycles } => {
                push_complete(&mut body, "idle", site, at, cycles, (pid, 0), &args);
            }
            Event::PfuFault { pfu, kind, cost, .. } => {
                let args = format!("{args},\"pfu\":{pfu},\"fault\":\"{}\"", kind.name());
                push_complete(&mut body, "pfu_fault", site, at, cost, (pid, 0), &args);
                push_instant(&mut body, "pfu_fault", "fault", at, RFU_TRACK, pfu as u64, "");
            }
            Event::ScrubCheck { pfu, corrupt, cost } => {
                let args = format!("{args},\"pfu\":{pfu},\"corrupt\":{corrupt}");
                push_complete(&mut body, "scrub_check", site, at, cost, (pid, 0), &args);
            }
            Event::RecoveryRetry { pfu, attempt, cost, .. } => {
                let args = format!("{args},\"pfu\":{pfu},\"attempt\":{attempt}");
                push_complete(&mut body, "recovery_retry", site, at, cost, (pid, 0), &args);
            }
            Event::SoftwareFailover { pfu, cost, .. } => {
                let args = format!("{args},\"pfu\":{pfu}");
                push_complete(&mut body, "software_failover", site, at, cost, (pid, 0), &args);
            }
            // Zero-cost lifecycle markers: instants on the process track.
            Event::Spawn { .. } => {
                push_instant(&mut body, "spawn", site, at, pid, 0, &args);
            }
            Event::Exit { code, .. } => {
                let args = format!("{args},\"code\":{code}");
                push_instant(&mut body, "exit", site, at, pid, 0, &args);
            }
            Event::Kill { .. } => {
                push_instant(&mut body, "kill", site, at, pid, 0, &args);
            }
            Event::MappingRepair { .. } => {
                push_instant(&mut body, "mapping_repair", site, at, pid, 0, &args);
            }
            Event::SoftwareInstall { .. } => {
                push_instant(&mut body, "software_install", site, at, pid, 0, &args);
            }
            Event::SeuStrike { pfu } => {
                push_instant(&mut body, "seu_strike", "fault", at, RFU_TRACK, pfu as u64, "");
            }
            // Residency bookkeeping: loads open a window on the PFU
            // track, evictions/swaps close it. A window whose opening
            // fell off the ring buffer starts at the retained window's
            // first timestamp.
            Event::ConfigLoad { key, pfu } => {
                close_residency(&mut body, &mut resident, pfu, at);
                resident.push((
                    pfu,
                    TagKeyed { label: format!("pid{} cid{}", key.pid, key.cid), since: at },
                ));
            }
            Event::Eviction { pfu, .. } => {
                if !resident.iter().any(|(p, _)| *p == pfu) {
                    resident.push((
                        pfu,
                        TagKeyed { label: "resident (pre-window)".to_string(), since: window_start },
                    ));
                }
                close_residency(&mut body, &mut resident, pfu, at);
            }
            Event::StateSwap { key, pfu } => {
                close_residency(&mut body, &mut resident, pfu, at);
                resident.push((
                    pfu,
                    TagKeyed { label: format!("pid{} cid{}", key.pid, key.cid), since: at },
                ));
            }
            Event::Quarantine { pfu } => {
                close_residency(&mut body, &mut resident, pfu, at);
                push_complete(
                    &mut body,
                    "quarantined",
                    "fault",
                    at,
                    total_cycles.saturating_sub(at),
                    (RFU_TRACK, pfu as u64),
                    "",
                );
            }
        }
    }
    // Close residency windows still open at the end of the run.
    resident.sort_by_key(|(pfu, _)| *pfu);
    for (pfu, r) in resident {
        push_complete(
            &mut body,
            &r.label,
            "resident",
            r.since,
            total_cycles.saturating_sub(r.since),
            (RFU_TRACK, pfu as u64),
            "",
        );
    }

    let events_json = body.strip_prefix(',').unwrap_or(&body);
    format!(
        "{{\"traceEvents\":[{events_json}\n],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"scenario\":\"{}\",\"clock\":\"simulated cycles (unscaled in ts/dur)\",\
         \"total_cycles\":{total_cycles},\"dropped_events\":{dropped}}}}}",
        escape(scenario)
    )
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

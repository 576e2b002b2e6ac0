//! The profiling exporters' external contracts: folded-stack output is
//! byte-identical at any `--jobs` worker count (the flamegraph analogue
//! of the runner's CSV determinism guarantee), and the Chrome
//! trace-event JSON is structurally sound and complete enough for
//! `trace_viewer` (metadata tracks, X/i phases, drop accounting).

use std::collections::BTreeSet;

use porsche::chrome::chrome_trace_json;
use porsche::probe::{Callsite, CycleLedger, Event, PfuFaultKind, Tag};
use proteus::experiment::{
    demo_scenario, fig3_plan, plan_for, resolve_target, RunTarget, Scale, EXPERIMENTS,
};
use proteus_apps::AppKind;

fn tiny() -> Scale {
    Scale { target_cycles: 300_000, max_instances: 2, seed: 7 }
}

/// The acceptance criterion: `flamegraph_fig3.folded` is byte-identical
/// at `--jobs 1` and `--jobs 8`, and its per-category sums equal the
/// run's `CycleLedger` values exactly.
#[test]
fn folded_stacks_are_byte_identical_at_any_worker_count() {
    let (_, serial) = fig3_plan(&tiny()).execute(1);
    let (_, parallel) = fig3_plan(&tiny()).execute(8);
    let folded_serial = serial.attributed.to_folded("fig3");
    let folded_parallel = parallel.attributed.to_folded("fig3");
    assert!(!folded_serial.is_empty());
    assert_eq!(folded_serial, folded_parallel, "--jobs must not change the folded output");
    assert_eq!(serial.attributed, parallel.attributed);

    // Per-category folded sums == the sum of the plan's per-job
    // breakdown rows.
    let mut aggregate = CycleLedger::default();
    for row in &serial.breakdown.rows {
        aggregate.absorb(&row.ledger);
    }
    assert_eq!(serial.attributed.refold(), aggregate);
    for (name, value) in CycleLedger::CATEGORIES.iter().zip(aggregate.values()) {
        let suffix = format!(";{name}");
        let sum: u64 = folded_serial
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .filter(|(stack, _)| stack.ends_with(&suffix))
            .map(|(_, n)| n.parse::<u64>().expect("numeric count"))
            .sum();
        assert_eq!(sum, value, "category {name}");
    }
}

/// Every folded line follows `scenario;pid<N>;<callsite>;<category> <n>`
/// with frames drawn from the declared vocabularies — what flamegraph.pl
/// and inferno consume without preprocessing.
#[test]
fn folded_lines_use_the_declared_vocabulary() {
    let result = demo_scenario(AppKind::Alpha, true).run().expect("demo runs");
    assert!(result.valid);
    let folded = result.attributed.to_folded("alpha");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("space-separated count");
        assert!(count.parse::<u64>().expect("numeric count") > 0, "zero cells are skipped");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 4, "{line}");
        assert_eq!(frames[0], "alpha");
        assert!(frames[1].strip_prefix("pid").is_some_and(|p| p.parse::<u32>().is_ok()));
        assert!(Callsite::ALL.iter().any(|c| c.name() == frames[2]), "{line}");
        assert!(CycleLedger::CATEGORIES.contains(&frames[3]), "{line}");
    }
}

/// Minimal structural JSON scan (the workspace carries no JSON parser):
/// quote-aware bracket balance plus top-level key presence.
fn assert_balanced_json(doc: &str) {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in doc.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_string, "unterminated string");
}

#[test]
fn chrome_trace_schema_is_sane() {
    let result = demo_scenario(AppKind::Echo, true).run().expect("demo runs");
    assert!(result.valid);
    let json = chrome_trace_json("echo", &result.trace, result.trace_dropped, result.total_cycles);
    assert_balanced_json(&json);
    assert!(json.starts_with("{\"traceEvents\":["));
    // Track metadata for processes and the PFU pseudo-process.
    assert!(json.contains("\"name\":\"process_name\",\"ph\":\"M\""));
    assert!(json.contains("\"PFU 0\""));
    // Work slices and lifecycle instants both present.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"i\""));
    assert!(json.contains("\"name\":\"compute\""));
    assert!(json.contains("\"cat\":\"resident\""), "PFU residency slices reconstructed");
    // Drop accounting is explicit even when zero.
    assert!(json.contains(&format!("\"dropped_events\":{}", result.trace_dropped)));
    assert!(json.contains(&format!("\"total_cycles\":{}", result.total_cycles)));
    // Events carry their attribution callsite.
    assert!(json.contains("\"callsite\":\"reconfig\""));
}

/// One fixture per `Event` variant: every kind is distinct, and every
/// rendering — timeline line and Chrome slice — is sound JSON that
/// names the event by its kind.
#[test]
fn every_event_variant_renders_through_the_one_schema() {
    let key = proteus_rfu::TupleKey::new(3, 1);
    let fixtures = [
        Event::Spawn { pid: 3 },
        Event::ContextSwitch { from: None, to: 3, cost: 220 },
        Event::TimerTick { pid: 3, cost: 60 },
        Event::Fault { key, cost: 120 },
        Event::MappingRepair { key },
        Event::TlbProgram { key, soft: true, evicted: false, cost: 12 },
        Event::ConfigLoad { key, pfu: 0 },
        Event::Eviction { key, pfu: 0 },
        Event::StateSwap { key, pfu: 1 },
        Event::SoftwareInstall { key },
        Event::BusTransfer { words: 100, cost: 164 },
        Event::Syscall { pid: 3, number: 2, cost: 40 },
        Event::Compute { pid: 3, user: 7, custom: 2, soft: 1, hw_dispatches: 1, sw_dispatches: 1 },
        Event::Idle { cycles: 50 },
        Event::Exit { pid: 3, code: 0 },
        Event::Kill { pid: 3 },
        Event::SeuStrike { pfu: 1 },
        Event::PfuFault { key, pfu: 1, kind: PfuFaultKind::CrcMismatch, cost: 250 },
        Event::ScrubCheck { pfu: 1, corrupt: true, cost: 30 },
        Event::RecoveryRetry { key, pfu: 1, attempt: 2, words: 13_500, cost: 13_600 },
        Event::SoftwareFailover { key, pfu: 1, cost: 12 },
        Event::Quarantine { pfu: 1 },
    ];
    let kinds: BTreeSet<&str> = fixtures.iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), fixtures.len(), "kinds are distinct");
    let tag = Tag::new(3, Callsite::FaultRungs);
    for (at, event) in fixtures.iter().enumerate() {
        let line = event.to_json(at as u64, tag);
        assert_balanced_json(&line);
        assert!(line.contains(&format!("\"kind\":\"{}\"", event.kind())), "{line}");
        assert!(!line.contains('\n'), "one line per event: {line}");
    }
    let events: Vec<(u64, Tag, Event)> =
        fixtures.iter().enumerate().map(|(at, &e)| (at as u64 * 10, tag, e)).collect();
    let json = chrome_trace_json("all \"kinds\"\n", &events, 0, 1_000);
    assert_balanced_json(&json);
    assert!(json.contains(r#""scenario":"all \"kinds\"\u000a""#), "{json}");
    assert!(
        json.contains(r#""name":"tlb_program","cat":"fault_rungs","ph":"X","ts":50,"dur":12,"pid":3,"tid":0,"args":{"callsite":"fault_rungs","pid":3,"cid":1,"soft":true,"evicted":false,"cost":12}"#),
        "software TLB programming is a tlb_program slice with soft in its args: {json}"
    );
}

/// The shared resolver accepts every registry experiment and every demo
/// app, and rejects unknown names with the full valid list.
#[test]
fn run_target_resolver_tracks_the_registry() {
    for name in EXPERIMENTS {
        assert_eq!(resolve_target(name), Ok(RunTarget::Experiment(name)));
        assert!(plan_for(name, &tiny()).is_some());
    }
    for app in AppKind::ALL {
        assert_eq!(resolve_target(app.name()), Ok(RunTarget::Demo(app)));
    }
    let err = resolve_target("not-a-scenario").expect_err("unknown name");
    for name in EXPERIMENTS {
        assert!(err.contains(name), "error must list {name}: {err}");
    }
    for app in AppKind::ALL {
        assert!(err.contains(app.name()), "error must list {}: {err}", app.name());
    }
}

//! Event-timeline goldens for the Custom Instruction Scheduler.
//!
//! The figure, breakdown and folded-profile goldens are sums over a
//! run, so a change that reorders CIS events (or moves one to another
//! cycle) while keeping every total can pass them all. These tests pin
//! the full event stream of small scenarios — every eviction, mapping
//! repair, state swap, software install, scrub repair, retry, failover
//! and quarantine, in order, with its cycle and attribution — against
//! `scripts/golden/timeline_<name>.jsonl`, one `Event::to_json` line per
//! event.
//!
//! On a mismatch the actual timeline is written to the test's
//! `CARGO_TARGET_TMPDIR` for diffing.

use std::path::PathBuf;

use porsche::cis::DispatchMode;
use porsche::fault::{FaultPlan, RecoveryPolicy};
use porsche::policy::PolicyKind;
use proteus::scenario::Scenario;
use proteus_apps::AppKind;

/// Large enough that no scenario below drops an event.
const TRACE_CAPACITY: usize = 1 << 20;

fn small(app: AppKind, instances: usize, passes: u32) -> Scenario {
    Scenario::new(app)
        .instances(instances)
        .size(16)
        .passes(passes)
        .quantum(5_000)
        .trace_capacity(TRACE_CAPACITY)
}

/// The fault-ladder campaign: SEUs, transit corruption, a stuck slot
/// and periodic scrubbing on a contended array.
fn faulty(plan: FaultPlan, recovery: RecoveryPolicy) -> Scenario {
    small(AppKind::Alpha, 5, 40).software_alts().watchdog(2_000).faults(plan).recovery(recovery)
}

/// Run `scenario`, check the trace is complete and covers `kinds`, and
/// compare its JSON-lines rendering with the committed golden.
fn check(name: &str, scenario: Scenario, kinds: &[&str]) {
    let r = scenario.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(r.trace_dropped, 0, "{name}: the trace ring dropped events");
    let mut rendered = String::new();
    for &(at, tag, ref event) in &r.trace {
        rendered.push_str(&event.to_json(at, tag));
        rendered.push('\n');
    }
    for kind in kinds {
        let needle = format!("\"kind\":\"{kind}\"");
        assert!(rendered.contains(&needle), "{name}: no {kind} event in the timeline");
    }
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scripts/golden")
        .join(format!("timeline_{name}.jsonl"));
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if golden != rendered {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("timeline_{name}.jsonl"));
        std::fs::write(&actual, &rendered).expect("write actual timeline");
        panic!(
            "{name}: timeline differs from {}; actual written to {}",
            golden_path.display(),
            actual.display()
        );
    }
}

#[test]
fn contention_timeline() {
    check(
        "contention",
        small(AppKind::Alpha, 6, 20).tlb_capacity(2),
        &["config_load", "eviction", "mapping_repair", "tlb_program"],
    );
}

#[test]
fn random_policy_timeline() {
    check(
        "random",
        small(AppKind::Echo, 3, 20).policy(PolicyKind::Random { seed: 7 }),
        &["config_load", "eviction"],
    );
}

#[test]
fn sharing_timeline() {
    check("sharing", small(AppKind::Alpha, 6, 20).sharing(true), &["state_swap", "config_load"]);
}

#[test]
fn software_fallback_timeline() {
    check(
        "software_fallback",
        small(AppKind::Alpha, 6, 20).mode(DispatchMode::SoftwareFallback),
        &["software_install", "config_load"],
    );
}

#[test]
fn fault_ladder_timeline() {
    let plan = FaultPlan {
        seed: 11,
        seu_mean_cycles: 60_000,
        transit_error_rate: 0.3,
        stuck_pfu: Some((0, 50_000)),
        scrub_interval: Some(40_000),
    };
    check(
        "fault_ladder",
        faulty(plan, RecoveryPolicy::default()),
        &["seu_strike", "scrub_check", "recovery_retry", "pfu_fault", "software_failover"],
    );
}

#[test]
fn quarantine_timeline() {
    let plan = FaultPlan { stuck_pfu: Some((0, 30_000)), ..FaultPlan::default() };
    let recovery =
        RecoveryPolicy { max_retries: 1, software_failover: false, quarantine_threshold: Some(2) };
    check(
        "quarantine",
        faulty(plan, recovery),
        &["pfu_fault", "recovery_retry", "quarantine", "eviction", "config_load"],
    );
}

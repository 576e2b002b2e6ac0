//! The DESIGN.md §9 acceptance demos: each rung of the recovery ladder
//! carries a run to a *correct* result, with the recovery work visibly
//! attributed in the cycle ledger.
//!
//! Three scenarios, one per rung:
//! 1. transient SEUs — detected by the watchdog + CRC readback,
//!    repaired by retry reconfiguration, full hardware throughput;
//! 2. a hung PFU — retries cannot help, the kernel fails over to the
//!    registered software alternative (TLB2 dispatch);
//! 3. a persistently faulty PFU — quarantined, the circuit relocated,
//!    the run completing correctly at reduced throughput.

use porsche::fault::{FaultPlan, RecoveryPolicy};
use proteus::scenario::{Scenario, ScenarioResult};
use proteus_apps::AppKind;

/// A small but multi-quantum Alpha run; `pfus` narrows the array so the
/// injected fault is guaranteed to land under the workload.
fn scenario(pfus: usize, instances: usize) -> Scenario {
    Scenario::new(AppKind::Alpha)
        .instances(instances)
        .size(256)
        .passes(20)
        .quantum(10_000)
        .pfus(pfus)
        .software_alts()
        .watchdog(2_000)
}

/// Every demo must keep the conservation law: the two fault categories
/// are real attributed work, and all eleven categories still sum to the
/// simulated total.
fn assert_fault_work_attributed(r: &ScenarioResult) {
    assert!(r.ledger.fault_detection > 0, "no detection cycles: {:?}", r.ledger);
    assert!(r.ledger.fault_recovery > 0, "no recovery cycles: {:?}", r.ledger);
    assert_eq!(r.ledger.total(), r.total_cycles, "conservation broken: {:?}", r.ledger);
}

#[test]
fn transient_seus_recover_by_retry_reconfiguration() {
    // One PFU so every strike hits the resident configuration.
    let faulty = scenario(1, 1)
        .faults(FaultPlan { seed: 7, seu_mean_cycles: 30_000, ..FaultPlan::default() })
        .recovery(RecoveryPolicy::retry_only(2))
        .run()
        .expect("run");
    assert!(faulty.valid, "SEU recovery must preserve results: {:?}", faulty.stats);
    assert!(faulty.stats.seu_strikes > 0, "{:?}", faulty.stats);
    assert!(faulty.stats.crc_errors > 0, "strikes must surface as CRC mismatches");
    assert!(faulty.stats.recovery_retries > 0, "repairs go through retry reloads");
    assert_eq!(faulty.stats.fault_failovers, 0, "retry suffices for soft errors");
    assert_eq!(faulty.stats.quarantines, 0, "soft errors must not condemn the slot");
    assert_fault_work_attributed(&faulty);

    // Recovery costs cycles: slower than the fault-free twin, but the
    // slowdown is exactly the attributed fault work (same schedule
    // otherwise on a single-PFU machine).
    let clean = scenario(1, 1).run().expect("clean run");
    assert!(clean.valid);
    assert!(faulty.makespan > clean.makespan, "burned + repair cycles must show up");
}

#[test]
fn hung_pfu_fails_over_to_software_dispatch() {
    // Slot 0's done line sticks almost immediately; with one PFU there
    // is nowhere to relocate, so the ladder's failover rung is the only
    // way to finish.
    let faulty = scenario(1, 1)
        .faults(FaultPlan { stuck_pfu: Some((0, 5_000)), ..FaultPlan::default() })
        .recovery(RecoveryPolicy {
            max_retries: 1,
            software_failover: true,
            quarantine_threshold: None,
        })
        .run()
        .expect("run");
    assert!(faulty.valid, "software path must produce identical results");
    assert!(faulty.stats.pfu_faults > 0, "{:?}", faulty.stats);
    assert_eq!(faulty.stats.fault_failovers, 1, "{:?}", faulty.stats);
    assert_eq!(faulty.stats.quarantines, 0, "quarantine was disabled");
    assert!(faulty.ledger.soft_dispatch > 0, "the tail of the run dispatches to software");
    assert_fault_work_attributed(&faulty);

    let clean = scenario(1, 1).run().expect("clean run");
    assert!(
        faulty.makespan > clean.makespan,
        "software dispatch degrades throughput: {} vs {}",
        faulty.makespan,
        clean.makespan
    );
}

#[test]
fn persistent_fault_quarantines_the_slot_and_relocates() {
    // Two instances on four PFUs; slot 0 sticks early. The default
    // ladder retries, strikes out, quarantines the slot and relocates
    // the circuit to a healthy one — correct results, fewer usable PFUs.
    let faulty = scenario(4, 2)
        .faults(FaultPlan { stuck_pfu: Some((0, 5_000)), ..FaultPlan::default() })
        .recovery(RecoveryPolicy::default())
        .run()
        .expect("run");
    assert!(faulty.valid, "relocation must preserve results: {:?}", faulty.stats);
    assert!(faulty.stats.pfu_faults >= 3, "three strikes before quarantine");
    assert_eq!(faulty.stats.quarantines, 1, "{:?}", faulty.stats);
    assert_eq!(faulty.stats.fault_failovers, 0, "hardware kept working via relocation");
    assert_fault_work_attributed(&faulty);

    let clean = scenario(4, 2).run().expect("clean run");
    assert!(clean.valid);
    assert!(
        faulty.makespan > clean.makespan,
        "burned budgets + relocation cost throughput: {} vs {}",
        faulty.makespan,
        clean.makespan
    );
}

#[test]
fn retry_only_policy_cannot_survive_a_hard_fault() {
    // The negative control for the ladder: with failover and quarantine
    // disabled a stuck slot exhausts the retry budget and the §4.2 rule
    // applies — the process is terminated, not given wrong results.
    let r = scenario(1, 1)
        .faults(FaultPlan { stuck_pfu: Some((0, 5_000)), ..FaultPlan::default() })
        .recovery(RecoveryPolicy::retry_only(2))
        .run()
        .expect("run");
    assert!(!r.valid, "nothing can finish on the only, dead, PFU");
    assert!(r.stats.kills > 0, "{:?}", r.stats);
    assert_eq!(r.ledger.total(), r.total_cycles, "conservation holds even for kills");
}

#[test]
fn scrubbing_repairs_corruption_before_dispatch_hits_it() {
    // With a scrub pass far shorter than the SEU inter-arrival time,
    // most corruption is caught by the scrubber (ScrubCheck + repair at
    // the scheduling boundary), not by a watchdog trip mid-dispatch.
    let r = scenario(1, 1)
        .faults(FaultPlan {
            seed: 11,
            seu_mean_cycles: 60_000,
            scrub_interval: Some(4_000),
            ..FaultPlan::default()
        })
        .recovery(RecoveryPolicy::default())
        .run()
        .expect("run");
    assert!(r.valid);
    assert!(r.stats.seu_strikes > 0, "{:?}", r.stats);
    assert!(r.stats.recovery_retries > 0, "scrub repairs are retry reloads");
    assert!(
        r.stats.pfu_faults < r.stats.recovery_retries,
        "the scrubber should beat the watchdog to most strikes: {:?}",
        r.stats
    );
    assert_fault_work_attributed(&r);
}

//! The instrumentation-bus consistency contract: statistics, the cycle
//! ledger, the attributed ledger and the trace are all pure folds over
//! ONE event stream, so (a) re-folding the recorded stream through
//! fresh sinks must reproduce the kernel's own `KernelStats` and
//! `CycleLedger` exactly, (b) the ledger's categories must sum to the
//! total simulated cycles — every cycle is attributed to exactly one
//! category, none invented, none lost — and (c) the global ledger is
//! the refold of the per-process × per-callsite `AttributedLedger`, so
//! the independent re-fold in (a) checks the matrix too, and its
//! folded-stack export conserves every category.

use std::collections::BTreeMap;

use porsche::cis::DispatchMode;
use porsche::fault::{FaultPlan, RecoveryPolicy};
use porsche::policy::PolicyKind;
use porsche::probe::{AttributedLedger, CycleLedger, Event, EventSink};
use porsche::stats::KernelStats;
use proptest::prelude::*;
use proteus::scenario::{Scenario, ScenarioResult};
use proteus_apps::AppKind;

/// Per-category cycle sums parsed back out of a folded-stack export
/// (`scenario;pid<N>;<callsite>;<category> <cycles>` lines).
fn folded_category_sums(folded: &str) -> BTreeMap<&str, u64> {
    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
    for line in folded.lines() {
        let (stack, cycles) = line.rsplit_once(' ').expect("folded line has a cycle count");
        let category = stack.rsplit(';').next().expect("folded stack has frames");
        *sums.entry(category).or_default() += cycles.parse::<u64>().expect("numeric cycles");
    }
    sums
}

/// The tentpole's conservation law, checked three ways: the attributed
/// ledger refolds to the global ledger, its total matches the simulated
/// cycle count, and the folded-stack export's per-category sums equal
/// the global ledger's values exactly.
fn assert_attribution_conserves(result: &ScenarioResult) {
    assert_eq!(result.attributed.refold(), result.ledger, "attributed refold diverged");
    assert_eq!(result.attributed.total(), result.total_cycles, "attributed total diverged");
    let folded = result.attributed.to_folded("t");
    let sums = folded_category_sums(&folded);
    for (name, value) in CycleLedger::CATEGORIES.iter().zip(result.ledger.values()) {
        assert_eq!(
            sums.get(name).copied().unwrap_or(0),
            value,
            "folded-stack sum for {name} diverged from the global ledger"
        );
    }
}

fn arb_app() -> impl Strategy<Value = AppKind> {
    prop_oneof![Just(AppKind::Alpha), Just(AppKind::Twofish), Just(AppKind::Echo)]
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::RoundRobin),
        any::<u64>().prop_map(|seed| PolicyKind::Random { seed }),
        Just(PolicyKind::Lru),
        Just(PolicyKind::SecondChance),
        Just(PolicyKind::Fifo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_stream_reproduces_stats_and_conserves_cycles(
        app in arb_app(),
        instances in 1usize..5,
        policy in arb_policy(),
        quantum in 5_000u64..100_000,
        pfus in 1usize..5,
        tlb_capacity in 1usize..8,
        soft in any::<bool>(),
    ) {
        let mode = if soft { DispatchMode::SoftwareFallback } else { DispatchMode::HardwareOnly };
        let result = Scenario::new(app)
            .instances(instances)
            .size(16)
            .passes(2)
            .quantum(quantum)
            .policy(policy)
            .pfus(pfus)
            .tlb_capacity(tlb_capacity)
            .mode(mode)
            .trace_capacity(1 << 22)
            .run()
            .expect("run completes");
        prop_assert!(result.valid, "{result:?}");

        // Re-fold the recorded stream through fresh sinks.
        let mut stats = KernelStats::default();
        let mut ledger = CycleLedger::default();
        let mut attributed = AttributedLedger::default();
        for &(at, tag, ref event) in &result.trace {
            stats.on_event(at, tag, event);
            ledger.on_event(at, tag, event);
            attributed.on_event(at, tag, event);
        }
        prop_assert_eq!(stats, result.stats, "stats fold diverged");
        prop_assert_eq!(ledger, result.ledger, "ledger fold diverged");
        prop_assert_eq!(&attributed, &result.attributed, "attributed fold diverged");
        assert_attribution_conserves(&result);

        // Conservation: every simulated cycle lands in exactly one
        // category.
        prop_assert_eq!(
            result.ledger.total(),
            result.total_cycles,
            "ledger categories must sum to the simulated cycle count: {:?}",
            result.ledger
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The contract must survive active fault injection: whatever the
    /// ladder does — burned budgets, CRC readbacks, retry reloads,
    /// failover, quarantine, even killing the process — the stream
    /// refolds to the kernel's own sinks and the two fault categories
    /// join the conservation sum. Validity is NOT asserted (a hostile
    /// enough plan under a weak enough policy legitimately kills).
    #[test]
    fn fault_injection_preserves_the_instrumentation_contract(
        instances in 1usize..4,
        pfus in 1usize..4,
        quantum in 5_000u64..50_000,
        seed in any::<u64>(),
        seu_mean in prop_oneof![Just(0u64), 2_000u64..40_000],
        transit_pct in prop_oneof![Just(0u32), 5u32..50],
        stuck in proptest::option::of((0usize..4, 0u64..60_000)),
        scrub in proptest::option::of(1_000u64..10_000),
        (max_retries, software_failover, quarantine_threshold)
            in (0u32..3, any::<bool>(), proptest::option::of(1u32..4)),
    ) {
        let plan = FaultPlan {
            seed,
            seu_mean_cycles: seu_mean,
            transit_error_rate: f64::from(transit_pct) / 100.0,
            // Fold the drawn slot onto the machine's actual array.
            stuck_pfu: stuck.map(|(slot, at)| (slot % pfus, at)),
            scrub_interval: scrub,
        };
        let recovery = RecoveryPolicy { max_retries, software_failover, quarantine_threshold };
        let result = Scenario::new(AppKind::Alpha)
            .instances(instances)
            .size(16)
            .passes(3)
            .quantum(quantum)
            .pfus(pfus)
            .software_alts()
            .watchdog(1_500)
            .faults(plan)
            .recovery(recovery)
            .trace_capacity(1 << 22)
            .run()
            .expect("run completes");

        let mut stats = KernelStats::default();
        let mut ledger = CycleLedger::default();
        for &(at, tag, ref event) in &result.trace {
            stats.on_event(at, tag, event);
            ledger.on_event(at, tag, event);
        }
        prop_assert_eq!(stats, result.stats, "stats fold diverged under faults");
        prop_assert_eq!(ledger, result.ledger, "ledger fold diverged under faults");
        assert_attribution_conserves(&result);
        prop_assert_eq!(
            result.ledger.total(),
            result.total_cycles,
            "conservation must hold with fault categories: {:?}",
            result.ledger
        );

        // A process that did not finish must have been killed by the
        // ladder, never silently wedged or given wrong results.
        if !result.valid {
            prop_assert!(result.stats.kills > 0, "invalid without a kill: {:?}", result.stats);
        }
    }
}

/// Pin the case the old stats-snapshot diffing could drop: ONE fault
/// whose repair evicts a resident circuit, loads a configuration AND
/// displaces a dispatch-TLB entry. All three must appear in the event
/// stream at the fault's cycle stamp, and all three counters must
/// advance.
#[test]
fn single_repair_emits_eviction_load_and_tlb_displacement_together() {
    use proteus::machine::{Machine, MachineConfig};
    use porsche::kernel::KernelConfig;
    use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
    use proteus_rfu::RfuConfig;

    // Four alpha instances on three PFUs with a two-slot TLB: a reload
    // evicts one of three resident circuits while the TLB holds entries
    // for only two of them, so the insert after the load regularly
    // displaces a *live* entry belonging to a circuit that stayed
    // resident — eviction, config load and TLB displacement in one
    // repair. (Unloading the victim scrubs its own TLB entries, which is
    // why a 1-slot TLB can never show all three at once.)
    let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Alpha, 64, 8));
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig {
            quantum: 10_000,
            trace_capacity: 1 << 20,
            ..KernelConfig::default()
        },
        rfu: RfuConfig { pfus: 3, tlb_capacity: 2, ..RfuConfig::default() },
    });
    for _ in 0..4 {
        machine.spawn(spec.spawn_spec(false)).expect("spawn");
    }
    let report = machine.run(2_000_000_000).expect("run");
    assert!(report.killed.is_empty(), "{report:?}");

    let events = machine.kernel().trace().snapshot();
    let mut pinned = false;
    for (i, &(at, _, event)) in events.iter().enumerate() {
        if !matches!(event, Event::Fault { .. }) {
            continue;
        }
        // All events of one repair carry the fault's cycle stamp (the
        // clock does not advance inside the handler).
        let repair: Vec<Event> = events[i + 1..]
            .iter()
            .take_while(|&&(a, _, _)| a == at)
            .map(|&(_, _, e)| e)
            .collect();
        let evicted = repair.iter().any(|e| matches!(e, Event::Eviction { .. }));
        let loaded = repair.iter().any(|e| matches!(e, Event::ConfigLoad { .. }));
        let displaced =
            repair.iter().any(|e| matches!(e, Event::TlbProgram { evicted: true, .. }));
        if evicted && loaded && displaced {
            pinned = true;
            break;
        }
    }
    assert!(pinned, "no repair combined eviction + config load + TLB displacement");

    // And the fold sees all three — the snapshot-diffing bug dropped one.
    assert!(report.stats.evictions > 0, "{:?}", report.stats);
    assert!(report.stats.config_loads > 0, "{:?}", report.stats);
    assert!(report.stats.tlb_evictions > 0, "{:?}", report.stats);
    assert_eq!(report.ledger.total(), machine.cycles(), "{:?}", report.ledger);
}

/// The ledger distinguishes execution modes: a software-only run books
/// no custom-execute cycles, an accelerated run books many, and a
/// software-dispatch run under contention books soft-dispatch cycles.
#[test]
fn ledger_attributes_execution_modes() {
    let accel = Scenario::new(AppKind::Alpha).size(32).passes(2).run().expect("accel");
    assert!(accel.ledger.custom_execute > 0, "{:?}", accel.ledger);
    assert_eq!(accel.ledger.total(), accel.total_cycles);

    let soft = Scenario::new(AppKind::Alpha)
        .software_only()
        .size(32)
        .passes(2)
        .run()
        .expect("software");
    assert_eq!(soft.ledger.custom_execute, 0, "{:?}", soft.ledger);
    assert_eq!(soft.ledger.soft_dispatch, 0, "{:?}", soft.ledger);
    assert_eq!(soft.ledger.total(), soft.total_cycles);

    let fallback = Scenario::new(AppKind::Alpha)
        .instances(6)
        .size(64)
        .passes(20)
        .quantum(5_000)
        .mode(DispatchMode::SoftwareFallback)
        .run()
        .expect("fallback");
    assert!(fallback.ledger.soft_dispatch > 0, "{:?}", fallback.ledger);
    assert_eq!(fallback.ledger.total(), fallback.total_cycles);
}

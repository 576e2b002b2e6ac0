//! Property tests over the scheduler: whatever the configuration, the
//! system must compute correct results, and management costs must obey
//! the paper's structural claims.

use proptest::prelude::*;
use proteus::scenario::Scenario;
use proteus_apps::AppKind;
use porsche::cis::DispatchMode;
use porsche::policy::PolicyKind;

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::RoundRobin),
        any::<u64>().prop_map(|seed| PolicyKind::Random { seed }),
        Just(PolicyKind::Lru),
        Just(PolicyKind::SecondChance),
        Just(PolicyKind::Fifo),
    ]
}

fn arb_app() -> impl Strategy<Value = AppKind> {
    prop_oneof![Just(AppKind::Alpha), Just(AppKind::Twofish), Just(AppKind::Echo)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Correctness is scheduling-independent: any mix of quantum,
    /// policy, dispatch mode, PFU count and instance count yields the
    /// reference checksum from every process.
    #[test]
    fn results_are_schedule_independent(
        app in arb_app(),
        instances in 1usize..6,
        policy in arb_policy(),
        quantum in 20_000u64..300_000,
        pfus in 1usize..6,
        soft in any::<bool>(),
    ) {
        let mode = if soft { DispatchMode::SoftwareFallback } else { DispatchMode::HardwareOnly };
        let result = Scenario::new(app)
            .instances(instances)
            .size(32)
            .passes(4)
            .quantum(quantum)
            .policy(policy)
            .pfus(pfus)
            .mode(mode)
            .run()
            .expect("run completes");
        prop_assert!(result.valid, "{:?}", result);
    }

    /// No contention below the PFU limit: N single-circuit instances on
    /// >= N PFUs never evict and load each configuration exactly once.
    #[test]
    fn no_evictions_when_everything_fits(instances in 1usize..5, extra_pfus in 0usize..3) {
        let result = Scenario::new(AppKind::Alpha)
            .instances(instances)
            .size(64)
            .passes(12)
            .quantum(10_000)
            .pfus(instances + extra_pfus)
            .run()
            .expect("run");
        prop_assert!(result.valid);
        prop_assert_eq!(result.stats.evictions, 0);
        prop_assert_eq!(result.stats.config_loads, instances as u64);
    }

    /// Makespan grows monotonically with the instance count (the linear
    /// region of Figure 2, then super-linear under contention).
    #[test]
    fn makespan_monotonic_in_instances(app in arb_app(), quantum in 50_000u64..200_000) {
        let mut last = 0u64;
        for n in [1usize, 2, 4, 6] {
            let result = Scenario::new(app)
                .instances(n)
                .size(32)
                .passes(6)
                .quantum(quantum)
                .run()
                .expect("run");
            prop_assert!(result.valid);
            prop_assert!(result.makespan > last, "n={n}: {} <= {last}", result.makespan);
            last = result.makespan;
        }
    }

    /// The split-configuration design (§4.1) never moves more bus words
    /// than the naive full-writeback alternative.
    #[test]
    fn split_config_moves_less_data(instances in 5usize..8, seed in any::<u64>()) {
        use porsche::costs::CostModel;
        let base = Scenario::new(AppKind::Alpha)
            .instances(instances)
            .size(64)
            .passes(12)
            .quantum(30_000)
            .policy(PolicyKind::Random { seed });
        let split = base.clone().run().expect("split run");
        let naive = base
            .costs(CostModel { save_full_config_on_unload: true, ..CostModel::default() })
            .run()
            .expect("naive run");
        prop_assert!(split.valid && naive.valid);
        prop_assert!(
            split.stats.config_words_moved <= naive.stats.config_words_moved,
            "split {} > naive {}",
            split.stats.config_words_moved,
            naive.stats.config_words_moved
        );
    }

    /// Software fallback never evicts: when the concurrently-live circuit
    /// population exceeds the PFUs, the overflow defers to software
    /// instead of swapping. (The workload spans several quanta so the
    /// instances genuinely overlap.)
    #[test]
    fn software_fallback_caps_loads(instances in 5usize..8) {
        let result = Scenario::new(AppKind::Alpha)
            .instances(instances)
            .size(64)
            .passes(40)
            .quantum(10_000)
            .mode(DispatchMode::SoftwareFallback)
            .run()
            .expect("run");
        prop_assert!(result.valid);
        prop_assert_eq!(result.stats.evictions, 0, "{:?}", result.stats);
        prop_assert!(result.stats.software_installs >= 1, "{:?}", result.stats);
        // Loads can exceed the PFU count only when exits free PFUs; they
        // never coexist with evictions in this mode.
        prop_assert!(result.stats.config_loads >= 4, "{:?}", result.stats);
    }
}

/// Pinned corner of `results_are_schedule_independent`: the checked-in
/// regression seed shrinks to `instances = 5` — the first count that
/// overcommits the default 4-PFU array, where eviction of running
/// (possibly mid-instruction) circuits begins. Proptest shrinking drives
/// every other parameter to its lower bound, so the suspect
/// configuration is Alpha × RoundRobin × quantum 20 000 × 1 PFU ×
/// hardware dispatch; we sweep the whole shrink frontier (every app,
/// every policy, both modes, boundary quanta, 1 and 4 PFUs) so the
/// corner stays pinned whatever the original draw was.
#[test]
fn five_instances_on_overcommitted_pfus_stay_valid() {
    for app in [AppKind::Alpha, AppKind::Twofish, AppKind::Echo] {
        for policy in [
            PolicyKind::RoundRobin,
            PolicyKind::Random { seed: 0 },
            PolicyKind::Lru,
            PolicyKind::SecondChance,
            PolicyKind::Fifo,
        ] {
            for mode in [DispatchMode::HardwareOnly, DispatchMode::SoftwareFallback] {
                for (quantum, pfus) in [(20_000u64, 1usize), (20_000, 4), (299_999, 1)] {
                    let result = Scenario::new(app)
                        .instances(5)
                        .size(32)
                        .passes(4)
                        .quantum(quantum)
                        .policy(policy)
                        .pfus(pfus)
                        .mode(mode)
                        .run()
                        .expect("run completes");
                    assert!(
                        result.valid,
                        "{app:?} {policy:?} {mode:?} q={quantum} pfus={pfus}: {result:?}"
                    );
                }
            }
        }
    }
}

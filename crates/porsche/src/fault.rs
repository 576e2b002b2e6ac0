//! Kernel-side fault injection and the recovery policy.
//!
//! Configuration damage is modelled as PFU health state, not as bits in
//! a bitstream image: an SEU strike sets the struck slot's
//! `config_corrupt` flag, a transit error leaves a freshly loaded slot
//! corrupt, and a CRC readback (scrub pass, watchdog diagnosis, load
//! verification) reads that flag and charges `CostModel::crc_check`.
//! This module owns the *campaign plan* — when upsets arrive, which slot
//! is stuck, how often the kernel scrubs — the seeded [`FaultUnit`] that
//! draws it against the simulated clock, and the policy ladder the
//! fault handler climbs: retry → software dispatch → quarantine
//! (DESIGN.md §9).

use proteus_rfu::PfuIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic fault-injection plan for one run.
///
/// Everything is driven by one seeded RNG, so a plan replays
/// identically regardless of host parallelism. The default plan
/// injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injection RNG.
    pub seed: u64,
    /// Mean cycles between single-event upsets on the PFU configuration
    /// SRAM (exponential inter-arrival); 0 disables SEUs.
    pub seu_mean_cycles: u64,
    /// Probability that a configuration transfer arrives corrupted and
    /// fails its load-time CRC verification; 0.0 disables.
    pub transit_error_rate: f64,
    /// Force a stuck-at-0 `done` fault on slot `.0` at cycle `.1` — the
    /// persistent hardware defect the quarantine rung exists for.
    pub stuck_pfu: Option<(PfuIndex, u64)>,
    /// Periodic scrub: every this many cycles the kernel reads back the
    /// CRCs of every resident configuration and repairs corruption
    /// before it is hit; `None` leaves detection to the watchdog.
    pub scrub_interval: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 2003,
            seu_mean_cycles: 0,
            transit_error_rate: 0.0,
            stuck_pfu: None,
            scrub_interval: None,
        }
    }
}

/// How far the kernel goes to keep a faulting custom instruction alive.
///
/// The rungs are climbed in order on every hard PFU fault: bounded
/// retry reconfiguration, then software-dispatch failover, with
/// quarantine short-circuiting both once a slot proves persistently
/// faulty. SEU-corrupt configurations are repaired in place (the
/// damage is in the SRAM, not the slot) — but only within the slot's
/// reconfiguration allowance; once repairs keep failing to clear the
/// hang, the fault counts as hard and the ladder escalates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Reconfiguration attempts per slot between completions before
    /// escalating past the retry rung.
    pub max_retries: u32,
    /// Whether the kernel may fail over to a registered software
    /// alternative (TLB2 dispatch) when retries are exhausted.
    pub software_failover: bool,
    /// Quarantine a slot after this many hard faults (`None` = never).
    pub quarantine_threshold: Option<u32>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_retries: 2, software_failover: true, quarantine_threshold: Some(3) }
    }
}

impl RecoveryPolicy {
    /// Retry-only ladder: reconfigure up to `max_retries` times, then
    /// give up (no failover, no quarantine).
    pub fn retry_only(max_retries: u32) -> Self {
        Self { max_retries, software_failover: false, quarantine_threshold: None }
    }
}

/// The kernel's fault-injection unit: drives a [`FaultPlan`] against
/// the simulated clock.
///
/// The kernel polls it at scheduling boundaries; due events (SEU
/// strikes, the stuck-at onset) are applied to PFU health state, and
/// the configuration-bus path consults [`FaultUnit::transit_corrupts`]
/// per transfer. Every draw — SEU gaps, victim slots, transit coin
/// flips — comes from one `StdRng` seeded by the plan, so equal plans
/// replay exactly; a plan with every rate at zero draws nothing.
#[derive(Debug)]
pub struct FaultUnit {
    rng: StdRng,
    plan: FaultPlan,
    /// Absolute cycle of the next SEU strike.
    next_seu: Option<u64>,
    /// Absolute cycle of the next scrub pass.
    next_scrub: Option<u64>,
    stuck_applied: bool,
}

impl FaultUnit {
    /// A unit executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let mut unit = Self {
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            next_seu: None,
            next_scrub: plan.scrub_interval,
            stuck_applied: false,
        };
        unit.next_seu = unit.next_seu_gap();
        unit
    }

    /// Draw the gap (in cycles) until the next SEU strike, or `None` if
    /// upsets are disabled: exponential inter-arrival via inverse
    /// transform, matching the dynamic-load arrival harness.
    fn next_seu_gap(&mut self) -> Option<u64> {
        if self.plan.seu_mean_cycles == 0 {
            return None;
        }
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        Some(((-u.ln() * self.plan.seu_mean_cycles as f64) as u64).max(1))
    }

    /// Whether configuration transfers can corrupt in transit (the
    /// load path skips CRC verification entirely when they cannot).
    pub fn transit_active(&self) -> bool {
        self.plan.transit_error_rate > 0.0
    }

    /// Draw whether one configuration transfer arrives corrupted.
    pub fn transit_corrupts(&mut self) -> bool {
        self.transit_active() && self.rng.gen_range(0.0..1.0) < self.plan.transit_error_rate
    }

    /// Earliest cycle at which something is due (SEU, scrub, or the
    /// stuck-at onset); `None` when the plan has nothing pending.
    pub fn next_due(&self) -> Option<u64> {
        let stuck = match (self.stuck_applied, self.plan.stuck_pfu) {
            (false, Some((_, at))) => Some(at),
            _ => None,
        };
        [self.next_seu, self.next_scrub, stuck].into_iter().flatten().min()
    }

    /// Whether a scrub pass is due at `now`; if so, consume it and
    /// schedule the next. The kernel performs the actual readbacks
    /// (it owns the cost model and the probe).
    pub fn take_due_scrub(&mut self, now: u64) -> bool {
        match (self.next_scrub, self.plan.scrub_interval) {
            (Some(due), Some(interval)) if due <= now => {
                // Fixed cadence from the start of the run, skipping any
                // passes the kernel slept through.
                let mut next = due;
                while next <= now {
                    next += interval;
                }
                self.next_scrub = Some(next);
                true
            }
            _ => false,
        }
    }

    /// Whether the stuck-at fault fires at `now`; if so, consume it and
    /// return the slot to damage.
    pub fn take_due_stuck(&mut self, now: u64) -> Option<PfuIndex> {
        match self.plan.stuck_pfu {
            Some((pfu, at)) if !self.stuck_applied && at <= now => {
                self.stuck_applied = true;
                Some(pfu)
            }
            _ => None,
        }
    }

    /// SEU strikes due at `now`: returns the slots struck (one entry
    /// per strike, drawn uniformly over `pfus` slots) and schedules
    /// the next arrival.
    pub fn take_due_seus(&mut self, now: u64, pfus: usize) -> Vec<PfuIndex> {
        let mut struck = Vec::new();
        while let Some(due) = self.next_seu {
            if due > now {
                break;
            }
            struck.push(self.rng.gen_range(0..pfus));
            self.next_seu = self.next_seu_gap().map(|gap| due + gap);
        }
        struck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let fu = FaultUnit::new(FaultPlan::default());
        assert_eq!(fu.next_due(), None);
        assert!(!fu.transit_active());
    }

    #[test]
    fn seu_arrivals_are_deterministic_and_advance() {
        let plan = FaultPlan { seu_mean_cycles: 10_000, ..FaultPlan::default() };
        let mut a = FaultUnit::new(plan);
        let mut b = FaultUnit::new(plan);
        let due = a.next_due().expect("SEUs scheduled");
        assert_eq!(b.next_due(), Some(due));
        let hits_a = a.take_due_seus(due + 50_000, 4);
        let hits_b = b.take_due_seus(due + 50_000, 4);
        assert_eq!(hits_a, hits_b, "same seed, same strikes");
        assert!(!hits_a.is_empty());
        assert!(hits_a.iter().all(|&p| p < 4));
        assert!(a.next_due().expect("more to come") > due + 50_000);
    }

    /// SEU victims and transit draws of `plan` interleaved over 20
    /// scheduling boundaries, the way the kernel consumes them.
    fn draws(plan: FaultPlan) -> (Vec<PfuIndex>, Vec<bool>) {
        let mut fu = FaultUnit::new(plan);
        let (mut struck, mut transit) = (Vec::new(), Vec::new());
        for step in 1..=20 {
            struck.extend(fu.take_due_seus(step * 5_000, 4));
            transit.push(fu.transit_corrupts());
        }
        (struck, transit)
    }

    const NOISY: FaultPlan = FaultPlan {
        seed: 2003,
        seu_mean_cycles: 2_000,
        transit_error_rate: 0.5,
        stuck_pfu: None,
        scrub_interval: None,
    };

    #[test]
    fn injector_is_deterministic() {
        let (struck, transit) = draws(NOISY);
        assert_eq!(draws(NOISY), (struck.clone(), transit.clone()), "same plan, same draws");
        assert!(!struck.is_empty() && struck.iter().all(|&p| p < 4));
        assert!(transit.contains(&true) && transit.contains(&false));
    }

    #[test]
    fn different_seeds_draw_differently() {
        let other = FaultPlan { seed: NOISY.seed + 1, ..NOISY };
        let (struck_a, transit_a) = draws(NOISY);
        let (struck_b, transit_b) = draws(other);
        assert_ne!(struck_a, struck_b, "victim slots depend on the seed");
        assert_ne!(transit_a, transit_b, "transit draws depend on the seed");
    }

    #[test]
    fn transit_only_plan_schedules_no_seu() {
        let mut fu = FaultUnit::new(FaultPlan { transit_error_rate: 1.0, ..FaultPlan::default() });
        assert!(fu.transit_active());
        assert_eq!(fu.next_due(), None);
        assert!(fu.transit_corrupts());
        assert!(fu.take_due_seus(u64::MAX, 4).is_empty());
    }

    #[test]
    fn disabled_rates_draw_nothing() {
        let mut fu = FaultUnit::new(FaultPlan::default());
        assert!((0..64).all(|_| !fu.transit_corrupts()));
        assert!(fu.take_due_seus(u64::MAX, 4).is_empty());
    }

    #[test]
    fn scrub_cadence_skips_missed_passes() {
        let plan = FaultPlan { scrub_interval: Some(1_000), ..FaultPlan::default() };
        let mut fu = FaultUnit::new(plan);
        assert!(fu.take_due_scrub(1_000));
        assert!(!fu.take_due_scrub(1_500));
        // Sleeping past several periods yields one pass, rescheduled
        // beyond `now`.
        assert!(fu.take_due_scrub(5_700));
        assert_eq!(fu.next_due(), Some(6_000));
    }

    #[test]
    fn stuck_fault_fires_once() {
        let plan = FaultPlan { stuck_pfu: Some((2, 300)), ..FaultPlan::default() };
        let mut fu = FaultUnit::new(plan);
        assert_eq!(fu.take_due_stuck(299), None);
        assert_eq!(fu.take_due_stuck(300), Some(2));
        assert_eq!(fu.take_due_stuck(301), None);
        assert_eq!(fu.next_due(), None);
    }
}

//! Generators for every figure of the paper's evaluation plus the
//! DESIGN.md ablations.
//!
//! | ID   | Paper artifact | Plan |
//! |------|----------------|------|
//! | Fig2 | Basic Scheduling Test (12 series) | [`fig2_plan`] |
//! | Fig3 | Software Dispatch Test (8 plotted + twofish) | [`fig3_plan`] |
//! | T-acc| "order of magnitude faster than unaccelerated" | [`speedup_plan`] |
//! | A1   | replacement policy comparison | [`ablation_policies_plan`] |
//! | A2   | quantum sweep incl. the 100 ms NT/BSD point | [`ablation_quanta_plan`] |
//! | A3   | PFU count sweep | [`ablation_pfus_plan`] |
//! | A4   | split vs. full configuration save | [`ablation_config_split_plan`] |
//! | A5   | dispatch-TLB capacity | [`ablation_tlb_plan`] |
//! | A6   | interruptible long instructions | [`ablation_long_instructions_plan`] |
//! | A7   | software-dispatch crossover vs. quantum | [`ablation_soft_crossover_plan`] |
//! | A8   | circuit sharing on/off | [`ablation_sharing_plan`] |
//! | D1   | dynamic arrival loads (§6 future work) | [`dynamic_load_plan`] |
//! | F1   | fault-injection campaign (DESIGN.md §9) | [`fault_campaign_plan`] |
//!
//! Each generator *describes* its figure as an [`ExperimentPlan`]: one
//! [`ScenarioJob`](crate::runner::ScenarioJob) per independent
//! simulation. The plan is executed — serially or on a worker pool —
//! by [`crate::runner`], which guarantees the assembled
//! [`SeriesSet`](crate::series::SeriesSet) is identical at any worker
//! count; `plan.execute(1)` runs it serially.
//!
//! Workload sizes are scaled (see DESIGN.md §3): completion times are
//! smaller than the paper's absolute numbers by a constant factor, but
//! quanta, configuration-transfer costs and instruction latencies keep
//! the paper's values, so contention points and series ordering are
//! preserved.

use porsche::cis::DispatchMode;
use porsche::costs::CostModel;
use porsche::fault::{FaultPlan, RecoveryPolicy};
use porsche::kernel::{KernelConfig, SpawnSpec};
use porsche::policy::PolicyKind;
use porsche::process::CircuitSpec;
use proteus_apps::AppKind;
use proteus_rfu::behavioral::FixedLatency;
use proteus_rfu::RfuConfig;

use crate::machine::{Machine, MachineConfig};
use crate::runner::{ExperimentPlan, JobOutput};
use crate::scenario::Scenario;
use crate::series::Series;

/// The quantum the paper calls batch scheduling: 10 ms at the DESIGN.md
/// 100 MHz clock.
pub const QUANTUM_10MS: u64 = 1_000_000;

/// The interactive quantum: 1 ms.
pub const QUANTUM_1MS: u64 = 100_000;

/// The Windows NT / BSD batch quantum the discussion mentions: 100 ms.
pub const QUANTUM_100MS: u64 = 10_000_000;

/// Experiment sizing. The paper's single-instance runs take ~1.2×10⁸
/// cycles; `target_cycles` scales that down for tractable simulation
/// (the completion-time *shape* is preserved — see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Approximate single-instance completion target in cycles.
    pub target_cycles: u64,
    /// Largest concurrent-instance count (paper: 8).
    pub max_instances: usize,
    /// Seed for the random replacement policy.
    pub seed: u64,
}

impl Scale {
    /// Full-figure scale used by the `repro` binary (~1.5×10⁷ cycles per
    /// instance, ≈15 batch quanta).
    pub fn full() -> Self {
        Self { target_cycles: 15_000_000, max_instances: 8, seed: 2003 }
    }

    /// Reduced scale for CI (`repro --quick`).
    pub fn quick() -> Self {
        Self { target_cycles: 1_500_000, max_instances: 4, seed: 2003 }
    }

    /// Per-app `(size, passes)` hitting roughly `target_cycles`.
    pub fn sizing(&self, app: AppKind) -> (usize, u32) {
        // Estimated accelerated cost per work unit (see guest.rs loops).
        let (size, unit_cycles) = match app {
            AppKind::Alpha => (1024, 19u64),
            AppKind::Echo => (2048, 18),
            AppKind::Twofish => (64, 54),
        };
        let per_pass = size as u64 * unit_cycles;
        let passes = (self.target_cycles / per_pass).max(1) as u32;
        (size, passes)
    }

    /// One instance of `app` at [`Scale::sizing`] on the default machine:
    /// the base scenario that each plan varies.
    pub fn scenario(&self, app: AppKind) -> Scenario {
        let (size, passes) = self.sizing(app);
        Scenario::new(app).size(size).passes(passes)
    }
}

/// Every experiment name the `repro` binary accepts, in emission order.
pub const EXPERIMENTS: &[&str] = &[
    "fig2",
    "fig3",
    "speedup",
    "policies",
    "quanta",
    "pfus",
    "config-split",
    "tlb",
    "longinstr",
    "soft-crossover",
    "sharing",
    "dynamic",
    "faults",
];

/// Look up an experiment plan by its `repro` name.
pub fn plan_for(name: &str, scale: &Scale) -> Option<ExperimentPlan> {
    Some(match name {
        "fig2" => fig2_plan(scale),
        "fig3" => fig3_plan(scale),
        "speedup" => speedup_plan(scale),
        "policies" => ablation_policies_plan(scale),
        "quanta" => ablation_quanta_plan(scale),
        "pfus" => ablation_pfus_plan(scale),
        "config-split" => ablation_config_split_plan(scale),
        "tlb" => ablation_tlb_plan(scale),
        "longinstr" => ablation_long_instructions_plan(),
        "soft-crossover" => ablation_soft_crossover_plan(scale),
        "sharing" => ablation_sharing_plan(scale),
        "dynamic" => dynamic_load_plan(scale),
        "faults" => fault_campaign_plan(scale),
        _ => return None,
    })
}

/// What a profiling/tracing flag's name argument resolved to: a figure
/// from the [`EXPERIMENTS`] registry, or a single demo scenario of one
/// application (the `--trace` workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunTarget {
    /// A registered experiment plan (use [`plan_for`]).
    Experiment(&'static str),
    /// A one-application demo scenario (use [`demo_scenario`]).
    Demo(AppKind),
}

impl RunTarget {
    /// The canonical name (registry spelling or app name).
    pub fn name(&self) -> &'static str {
        match self {
            RunTarget::Experiment(name) => name,
            RunTarget::Demo(app) => app.name(),
        }
    }
}

/// Resolve a user-supplied scenario name for `--trace` / `--flame` /
/// `--chrome-trace`: experiment names come from the [`EXPERIMENTS`]
/// registry (never a hardcoded subset), app names from
/// [`AppKind::ALL`].
///
/// # Errors
///
/// An unknown name returns the full list of valid spellings, so the
/// error message stays in sync with the registry by construction.
pub fn resolve_target(name: &str) -> Result<RunTarget, String> {
    if let Some(&canonical) = EXPERIMENTS.iter().find(|&&e| e == name) {
        return Ok(RunTarget::Experiment(canonical));
    }
    if let Some(&app) = AppKind::ALL.iter().find(|a| a.name() == name) {
        return Ok(RunTarget::Demo(app));
    }
    let apps: Vec<&str> = AppKind::ALL.iter().map(|a| a.name()).collect();
    Err(format!(
        "unknown scenario '{name}'; valid experiments: {}; valid demo apps: {}",
        EXPERIMENTS.join(", "),
        apps.join(", ")
    ))
}

/// The contended single-application demo used by `repro --trace` (and
/// as the `--flame`/`--chrome-trace` demo target): enough instances to
/// overlap on four PFUs, with a trace ring large enough to usually keep
/// the whole timeline.
pub fn demo_scenario(app: AppKind, quick: bool) -> Scenario {
    let (instances, passes) = if quick { (3, 4) } else { (5, 12) };
    Scenario::new(app)
        .instances(instances)
        .passes(passes)
        .quantum(QUANTUM_1MS)
        .trace_capacity(1 << 20)
}

fn quantum_label(q: u64) -> &'static str {
    match q {
        QUANTUM_10MS => "10ms",
        QUANTUM_1MS => "1ms",
        QUANTUM_100MS => "100ms",
        _ => "q",
    }
}

fn app_label(app: AppKind) -> &'static str {
    match app {
        AppKind::Alpha => "Alpha",
        AppKind::Echo => "Echo",
        AppKind::Twofish => "Twofish",
    }
}

/// **Figure 2 — Basic Scheduling Test.** Completion time vs. 1–8
/// concurrent instances for {Echo, Alpha, Twofish} × {Round Robin,
/// Random} replacement × {10 ms, 1 ms} quanta. Hardware-only dispatch,
/// no sharing.
pub fn fig2_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("fig2");
    for app in [AppKind::Echo, AppKind::Alpha, AppKind::Twofish] {
        let base = scale.scenario(app);
        for (policy, pname) in [
            (PolicyKind::RoundRobin, "Round Robin"),
            (PolicyKind::Random { seed: scale.seed }, "Random"),
        ] {
            for quantum in [QUANTUM_10MS, QUANTUM_1MS] {
                plan.instance_sweep(
                    format!("{}, {}, {}", app_label(app), pname, quantum_label(quantum)),
                    scale.max_instances,
                    base.clone().quantum(quantum).policy(policy),
                );
            }
        }
    }
    plan
}

/// **Figure 3 — Software Dispatch Test.** The same axes, comparing
/// round-robin circuit switching against deferring to the software
/// alternative once the array is full. The paper plots Echo and Alpha
/// (noting Twofish tracks Alpha); we emit all three.
pub fn fig3_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("fig3");
    for app in [AppKind::Echo, AppKind::Alpha, AppKind::Twofish] {
        for quantum in [QUANTUM_10MS, QUANTUM_1MS] {
            let base = scale.scenario(app).quantum(quantum).policy(PolicyKind::RoundRobin);
            plan.instance_sweep(
                format!("{}, Round Robin, {}", app_label(app), quantum_label(quantum)),
                scale.max_instances,
                base.clone(),
            );
            plan.instance_sweep(
                format!("{}, Soft, {}", app_label(app), quantum_label(quantum)),
                scale.max_instances,
                base.mode(DispatchMode::SoftwareFallback),
            );
        }
    }
    plan
}

/// **T-acc — the speedup claim.** Single-instance accelerated vs.
/// pure-software completion per application; the paper states "all runs
/// performed an order of magnitude faster than the unaccelerated
/// applications". Series: per app, `x=0` accelerated cycles, `x=1`
/// software cycles, plus a `speedup_factor` series with the ratios
/// (derived in the plan's finish pass once both runs are in).
pub fn speedup_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("speedup");
    for app in AppKind::ALL {
        let base = scale.scenario(app).quantum(QUANTUM_10MS);
        let series = format!("{}_cycles", app.name());
        plan.scenario_point(series.clone(), 0.0, base.clone());
        plan.scenario_point(series, 1.0, base.software_only());
    }
    plan.with_finish(|set| {
        let mut ratios = Series::new("speedup_factor");
        for (i, app) in AppKind::ALL.iter().enumerate() {
            let s = set
                .series_named(&format!("{}_cycles", app.name()))
                .expect("per-app cycle series");
            let accelerated = s.y_at(0.0).expect("accelerated point");
            let software = s.y_at(1.0).expect("software point");
            ratios.push(i as f64, software / accelerated);
        }
        set.push(ratios);
    })
}

/// **A1 — replacement policies.** Alpha at the 1 ms quantum (heavy
/// swapping) under all five victim-selection policies.
pub fn ablation_policies_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_policies");
    let base = scale.scenario(AppKind::Alpha).quantum(QUANTUM_1MS);
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::Random { seed: scale.seed },
        PolicyKind::Lru,
        PolicyKind::SecondChance,
        PolicyKind::Fifo,
    ] {
        plan.instance_sweep(policy.name(), scale.max_instances, base.clone().policy(policy));
    }
    plan
}

/// **A2 — quantum sweep**, including the 100 ms NT/BSD point the
/// discussion predicts would help further.
pub fn ablation_quanta_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_quanta");
    let base = scale.scenario(AppKind::Alpha).policy(PolicyKind::RoundRobin);
    for quantum in [QUANTUM_100MS, QUANTUM_10MS, QUANTUM_1MS] {
        plan.instance_sweep(
            format!("Alpha, RR, {}", quantum_label(quantum)),
            scale.max_instances,
            base.clone().quantum(quantum),
        );
    }
    plan
}

/// **A3 — PFU count.** The paper limited the chip to 4 PFUs "to
/// demonstrate the system behaviour under contention" and estimates it
/// could hold twice that.
pub fn ablation_pfus_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_pfus");
    let base = scale.scenario(AppKind::Alpha).quantum(QUANTUM_10MS);
    for pfus in [2usize, 4, 6, 8] {
        plan.instance_sweep(
            format!("Alpha, RR, 10ms, {pfus} PFUs"),
            scale.max_instances,
            base.clone().pfus(pfus),
        );
    }
    plan
}

/// **A4 — split configuration.** The §4.1 design saves only state
/// frames on unload; the ablation also writes back the full static
/// configuration, doubling bus traffic per swap.
pub fn ablation_config_split_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_config_split");
    let base = scale.scenario(AppKind::Alpha).quantum(QUANTUM_1MS);
    for (save_full, name) in [(false, "state frames only"), (true, "full config writeback")] {
        let costs = CostModel { save_full_config_on_unload: save_full, ..CostModel::default() };
        plan.instance_sweep(name, scale.max_instances, base.clone().costs(costs));
    }
    plan
}

/// **A5 — dispatch-TLB capacity.** With fewer TLB slots than live
/// tuples, resident circuits take mapping faults (§4.2's cheap path) —
/// visible but far milder than reconfiguration.
pub fn ablation_tlb_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_tlb");
    let base = scale.scenario(AppKind::Alpha).quantum(QUANTUM_10MS);
    for slots in [2usize, 4, 16] {
        plan.instance_sweep(
            format!("{slots} TLB slots"),
            scale.max_instances,
            base.clone().tlb_capacity(slots),
        );
    }
    plan
}

/// **A7 — the software-dispatch crossover.** §5.1.3 concludes software
/// dispatch "proved useful only during periods when applications just
/// get short quanta". Sweep the quantum at 8 concurrent echo instances:
/// as quanta shrink, per-quantum reconfiguration overhead explodes and
/// deferring to the software alternative wins.
pub fn ablation_soft_crossover_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_soft_crossover");
    let base = scale.scenario(AppKind::Echo).instances(scale.max_instances);
    for (mode, name) in [
        (DispatchMode::HardwareOnly, "circuit switching"),
        (DispatchMode::SoftwareFallback, "software dispatch"),
    ] {
        for quantum in [QUANTUM_10MS, QUANTUM_1MS, 30_000, 10_000] {
            plan.scenario_point(name, quantum as f64, base.clone().quantum(quantum).mode(mode));
        }
    }
    plan
}

/// **A8 — circuit sharing (§4.2).** The paper disables sharing "since we
/// are interested in the effect of overloading", noting that "in the
/// final system applications using the same circuits would attempt to
/// share instances, just changing the state in a single PFU". With
/// sharing on, N instances of one application stop contending: handovers
/// move ~tens of state words instead of 54 KB.
pub fn ablation_sharing_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("ablation_sharing");
    let base = scale.scenario(AppKind::Alpha).quantum(QUANTUM_1MS);
    for (sharing, name) in [(false, "sharing off (paper setup)"), (true, "sharing on")] {
        plan.instance_sweep(name, scale.max_instances, base.clone().sharing(sharing));
    }
    plan
}

/// **D1 — dynamic scheduling loads** (the paper's §6 future work): mean
/// job turnaround vs. offered load (mean inter-arrival gap), for the
/// three management strategies. Series x = mean inter-arrival cycles.
pub fn dynamic_load_plan(scale: &Scale) -> ExperimentPlan {
    use crate::dynamic::DynamicLoad;
    let mut plan = ExperimentPlan::new("dynamic_load");
    let (size, passes) = scale.sizing(AppKind::Alpha);
    let gaps = [2_000_000u64, 500_000, 125_000, 30_000];
    for (name, mode, sharing) in [
        ("circuit switching", DispatchMode::HardwareOnly, false),
        ("software dispatch", DispatchMode::SoftwareFallback, false),
        ("circuit sharing", DispatchMode::HardwareOnly, true),
    ] {
        for gap in gaps {
            let load = DynamicLoad {
                jobs: 2 * scale.max_instances,
                mean_interarrival: gap,
                job_size: (size, (passes / 4).max(1)),
                seed: scale.seed,
                machine: MachineConfig {
                    kernel: KernelConfig {
                        quantum: QUANTUM_1MS,
                        mode,
                        share_circuits: sharing,
                        ..KernelConfig::default()
                    },
                    ..MachineConfig::default()
                },
            };
            plan.push_job(name, move || {
                let result = load.run().unwrap_or_else(|e| panic!("{name} gap={gap}: {e}"));
                assert!(result.valid, "{name} gap={gap}: checksum mismatch");
                JobOutput::point(gap as f64, result.mean_turnaround, result.makespan)
                    .with_breakdown(gap as f64, result.attributed)
            });
        }
    }
    plan
}

/// Outcome codes for one fault-campaign cell (the y values of the
/// `outcome:` series and the x values of `outcome_counts`).
pub mod outcome {
    /// No fault ever reached the run.
    pub const CLEAN: f64 = 0.0;
    /// Faults occurred; retries/scrub repaired everything and all
    /// checksums match at full hardware throughput.
    pub const RECOVERED: f64 = 1.0;
    /// All checksums match, but the run finished degraded — software
    /// failover or a quarantined slot.
    pub const DEGRADED: f64 = 2.0;
    /// At least one process was killed or produced a wrong checksum.
    pub const FAILED: f64 = 3.0;
}

/// **F1 — fault-injection campaign (DESIGN.md §9).** Five Alpha
/// instances contend on four PFUs (so configuration traffic is
/// sustained, giving every fault kind a surface) while the fault unit
/// injects one kind at three severities under three recovery policies:
///
/// * kinds — `seu` (configuration-SRAM upsets, mean inter-arrival
///   shrinking 4× per severity step), `transit` (per-transfer
///   corruption probability 0.1/0.3/0.6), `stuck` (slot 0's `done`
///   line sticks at cycle `target >> (severity-1)` — earlier is worse);
/// * policies — `retry` ([`RecoveryPolicy::retry_only`]; hard faults
///   eventually kill), `failover` (one retry then software dispatch,
///   never quarantine), `full` (the default ladder plus periodic
///   scrubbing).
///
/// Each cell emits its makespan on `"{kind}, {policy}"`, an
/// [`outcome`] code on `"outcome: {kind}, {policy}"`, the
/// fault-attributed cycles on `"recovery_cycles: {kind}, {policy}"`,
/// and a cycle-attribution row (the `fault_detection` /
/// `fault_recovery` ledger columns). A fault-free `baseline` cell
/// (watchdog armed, injector off) pins the zero-overhead point, and a
/// finish pass folds every outcome code into `outcome_counts`
/// (x = code, y = cells).
pub fn fault_campaign_plan(scale: &Scale) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new("fault_campaign");
    let target = scale.target_cycles;
    let base = scale
        .scenario(AppKind::Alpha)
        .instances(5)
        .quantum(QUANTUM_1MS)
        .pfus(4)
        .software_alts()
        .watchdog(5_000);

    fault_campaign_cell(&mut plan, "baseline".into(), 0.0, base.clone());

    let policies: [(&str, RecoveryPolicy, bool); 3] = [
        ("retry", RecoveryPolicy::retry_only(2), false),
        (
            "failover",
            RecoveryPolicy { max_retries: 1, software_failover: true, quarantine_threshold: None },
            false,
        ),
        ("full", RecoveryPolicy::default(), true),
    ];
    for (pname, policy, scrub) in policies {
        for kind in ["seu", "transit", "stuck"] {
            for severity in 1u32..=3 {
                let mut fp = FaultPlan {
                    seed: scale.seed + u64::from(severity),
                    ..FaultPlan::default()
                };
                match kind {
                    "seu" => fp.seu_mean_cycles = (target >> (2 * (severity - 1))).max(1),
                    "transit" => fp.transit_error_rate = [0.1, 0.3, 0.6][severity as usize - 1],
                    _ => fp.stuck_pfu = Some((0, target >> (severity - 1))),
                }
                if scrub {
                    fp.scrub_interval = Some((target / 8).max(1));
                }
                fault_campaign_cell(
                    &mut plan,
                    format!("{kind}, {pname}"),
                    f64::from(severity),
                    base.clone().faults(fp).recovery(policy),
                );
            }
        }
    }

    plan.with_finish(|set| {
        let mut counts = [0u64; 4];
        for s in set.series.iter().filter(|s| s.name.starts_with("outcome: ")) {
            for p in &s.points {
                counts[(p.y as usize).min(3)] += 1;
            }
        }
        let mut summary = Series::new("outcome_counts");
        for (code, &n) in counts.iter().enumerate() {
            summary.push(code as f64, n as f64);
        }
        set.push(summary);
    })
}

/// One campaign simulation: makespan on `series`, outcome and
/// fault-cycle overhead on sibling series. Unlike the figure jobs a
/// cell does *not* assert validity — failures are data here (the
/// [`outcome::FAILED`] row), only simulation errors panic.
fn fault_campaign_cell(plan: &mut ExperimentPlan, series: String, x: f64, scenario: Scenario) {
    let label = series.clone();
    let outcome_series = format!("outcome: {label}");
    let overhead_series = format!("recovery_cycles: {label}");
    plan.push_job(series, move || {
        let result = scenario.run().unwrap_or_else(|e| panic!("{label} x={x}: {e}"));
        let s = &result.stats;
        let code = if !result.valid {
            outcome::FAILED
        } else if s.fault_failovers > 0 || s.quarantines > 0 {
            outcome::DEGRADED
        } else if s.pfu_faults > 0 || s.crc_errors > 0 || s.recovery_retries > 0 {
            outcome::RECOVERED
        } else {
            outcome::CLEAN
        };
        let overhead = result.ledger.fault_detection + result.ledger.fault_recovery;
        JobOutput::point(x, result.makespan as f64, result.makespan)
            .with_breakdown(x, result.attributed)
            .with_extra(outcome_series, x, code)
            .with_extra(overhead_series, x, overhead as f64)
    });
}

/// **A6 — interruptible long instructions (§4.4).** Two synthetic
/// processes loop on a 70 000-cycle custom instruction under a 1 ms
/// quantum. With the status-register mechanism the scheduler preempts on
/// time; with uninterruptible instructions a quantum stretches by up to
/// the instruction latency. Each mode's series holds, at x = 0, the
/// *mean* scheduling overshoot in cycles (makespan / context switches −
/// quantum) and, at x = 1, the makespan. (Fixed synthetic workload —
/// takes no [`Scale`].)
pub fn ablation_long_instructions_plan() -> ExperimentPlan {
    const LATENCY: u32 = 70_000;
    let mut plan = ExperimentPlan::new("ablation_longinstr");
    for (interruptible, name) in
        [(true, "interruptible (status register)"), (false, "run to completion")]
    {
        plan.push_job(name, move || {
            let program = proteus_isa::assemble(
                "start:\n\
                 \x20   ldr r2, =100\n\
                 loop:\n\
                 \x20   pfu 0, r1, r0, r0\n\
                 \x20   subs r2, r2, #1\n\
                 \x20   bne loop\n\
                 \x20   mov r0, #0\n\
                 \x20   swi #0\n",
            )
            .expect("long-instruction program assembles");
            let quantum = QUANTUM_1MS;
            let mut machine = Machine::new(MachineConfig {
                kernel: KernelConfig { quantum, ..KernelConfig::default() },
                rfu: RfuConfig { interruptible, ..RfuConfig::default() },
            });
            // Two competitors so quanta actually matter.
            for _ in 0..2 {
                let entry = program.symbol("start").expect("start");
                let spec = SpawnSpec::new(&program).entry(entry).circuit(CircuitSpec {
                    cid: 0,
                    circuit: Box::new(FixedLatency::new("long", LATENCY, 4, |a, _| a)),
                    software_alt: None,
                    image: None,
                });
                machine.spawn(spec).expect("spawn");
            }
            let report = machine.run(50_000_000_000).expect("run");
            assert!(report.killed.is_empty());
            // Overshoot proxy: with N quanta of Q cycles and S switches, a
            // perfectly timely scheduler switches every ~Q cycles. We report
            // observed mean inter-switch distance minus Q.
            let switches = report.stats.context_switches.max(1);
            let mean_gap = report.makespan / switches;
            let overshoot = mean_gap.saturating_sub(quantum);
            JobOutput {
                points: vec![(0.0, overshoot as f64), (1.0, report.makespan as f64)],
                sim_cycles: report.makespan,
                ..JobOutput::default()
            }
            .with_breakdown(0.0, report.attributed)
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesSet;

    fn tiny() -> Scale {
        Scale { target_cycles: 400_000, max_instances: 3, seed: 7 }
    }

    #[test]
    fn fig2_produces_twelve_series() {
        let set = fig2_plan(&tiny()).execute(1).0;
        assert_eq!(set.series.len(), 12);
        for s in &set.series {
            assert_eq!(s.points.len(), 3, "{}", s.name);
            // Completion time grows with instances.
            assert!(s.points[2].y > s.points[0].y, "{}", s.name);
        }
    }

    #[test]
    fn fig3_soft_series_exist() {
        let set = fig3_plan(&tiny()).execute(1).0;
        assert_eq!(set.series.len(), 12);
        assert!(set.series.iter().any(|s| s.name.contains("Soft")));
    }

    #[test]
    fn speedup_is_substantial() {
        let set = speedup_plan(&tiny()).execute(1).0;
        let ratios = set.series_named("speedup_factor").expect("ratios");
        for p in &ratios.points {
            assert!(p.y > 1.5, "speedup {} too small", p.y);
        }
    }

    #[test]
    fn long_instruction_ablation_shows_latency_gap() {
        let set = ablation_long_instructions_plan().execute(1).0;
        let good = set.series_named("interruptible (status register)").expect("series").points[0].y;
        let bad = set.series_named("run to completion").expect("series").points[0].y;
        assert!(bad > good, "uninterruptible overshoot {bad} should exceed {good}");
    }

    #[test]
    fn registry_covers_every_experiment() {
        let scale = tiny();
        for name in EXPERIMENTS {
            let plan = plan_for(name, &scale).unwrap_or_else(|| panic!("{name} missing"));
            assert!(plan.job_count() > 0, "{name} has no jobs");
        }
        assert!(plan_for("nonsense", &scale).is_none());
    }

    #[test]
    fn fig2_plan_is_parallel_deterministic() {
        // The core --jobs guarantee: identical SeriesSet (hence
        // byte-identical CSV) at any worker count.
        let scale = Scale { target_cycles: 200_000, max_instances: 2, seed: 7 };
        let (serial, m1) = fig2_plan(&scale).execute(1);
        let (parallel, m4) = fig2_plan(&scale).execute(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        // The attribution table carries the same guarantee.
        assert_eq!(m1.breakdown, m4.breakdown);
        assert_eq!(m1.breakdown.to_csv(), m4.breakdown.to_csv());
        assert_eq!(m1.breakdown.rows.len(), m1.jobs, "one row per scenario job");
    }

    #[test]
    fn fault_campaign_emits_every_cell_with_outcomes() {
        let set = fault_campaign_plan(&tiny()).execute(1).0;
        // 1 baseline + 9 grid series, each with outcome + overhead
        // siblings, plus the outcome_counts summary.
        assert_eq!(set.series.len(), 31, "{:?}", series_names(&set));
        let counts = set.series_named("outcome_counts").expect("summary");
        assert_eq!(counts.points.len(), 4);
        let cells: f64 = counts.points.iter().map(|p| p.y).sum();
        assert!((cells - 28.0).abs() < 1e-9, "28 cells counted, got {cells}");
        // The baseline saw no faults at all.
        let baseline = set.series_named("outcome: baseline").expect("baseline outcome");
        assert_eq!(baseline.points[0].y, outcome::CLEAN);
        let overhead = set.series_named("recovery_cycles: baseline").expect("baseline overhead");
        assert_eq!(overhead.points[0].y, 0.0);
    }

    fn series_names(set: &SeriesSet) -> Vec<&str> {
        set.series.iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn speedup_finish_hook_matches_serial_ratio() {
        let scale = tiny();
        let (set, metrics) = speedup_plan(&scale).execute(3);
        let ratios = set.series_named("speedup_factor").expect("ratios");
        assert_eq!(ratios.points.len(), AppKind::ALL.len());
        assert_eq!(set.series.last().expect("last").name, "speedup_factor");
        assert!(metrics.sim_cycles > 0);
    }
}

//! Parallel experiment execution.
//!
//! The paper's evaluation is ~150 *independent* scenario simulations
//! (every `(series, instance-count)` point of every figure). The
//! generators in [`crate::experiment`] describe those runs declaratively
//! as an [`ExperimentPlan`] — a list of [`ScenarioJob`]s, each one
//! simulation — and this module executes the plan on a `std::thread`
//! worker pool.
//!
//! # Determinism
//!
//! Result assembly is decoupled from execution order: workers pull jobs
//! from one queue and send back each output tagged with the job's
//! position in the plan, and the [`SeriesSet`] is assembled from the
//! outputs in plan order, appending points to their series in
//! first-mention order. A plan therefore produces a **byte-identical CSV
//! at any worker count** — `--jobs 1` and `--jobs 8` differ only in wall
//! time. Each simulation is itself deterministic (seeded policies, no
//! wall-clock inputs), so this holds for the values too, not just the
//! ordering.
//!
//! # Instrumentation
//!
//! Execution returns [`PlanMetrics`] alongside the results: wall time of
//! the whole plan, summed per-job wall time (their ratio is the achieved
//! parallel efficiency) and total simulated cycles, from which the
//! `repro` binary derives simulated-cycles-per-host-second throughput
//! for `results/summary.json`.

use std::panic;
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use porsche::probe::AttributedLedger;

use crate::scenario::Scenario;
use crate::series::{BreakdownRow, BreakdownSet, Series, SeriesSet};

/// What one job contributes to the figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutput {
    /// `(x, y)` points appended to the job's series, in order.
    pub points: Vec<(f64, f64)>,
    /// Simulated cycles this job advanced (for throughput accounting).
    pub sim_cycles: u64,
    /// The x of the job's cycle-attribution row in the plan's
    /// [`BreakdownSet`]; the row's ledger is `attributed.refold()`.
    /// `None` contributes no row.
    pub breakdown: Option<f64>,
    /// Per-process × per-callsite attribution, absorbed into the plan's
    /// merged [`PlanMetrics::attributed`] ledger (cell-wise u64 sums, so
    /// the merge commutes and worker count cannot affect the result).
    pub attributed: AttributedLedger,
    /// `(series, x, y)` points appended to *other* named series — for
    /// jobs whose one simulation yields several metrics (the fault
    /// campaign emits makespan on its own series plus an outcome code
    /// on a sibling). Extra series obey the same first-mention ordering
    /// as job series, so determinism is unaffected.
    pub extra: Vec<(String, f64, f64)>,
}

impl JobOutput {
    /// The common case: one `(x, y)` point, no breakdown.
    pub fn point(x: f64, y: f64, sim_cycles: u64) -> Self {
        Self {
            points: vec![(x, y)],
            sim_cycles,
            breakdown: None,
            attributed: AttributedLedger::default(),
            extra: Vec::new(),
        }
    }

    /// Attach the run's per-process × per-callsite ledger: it feeds
    /// the plan-wide fold behind the flamegraph exporter, and its
    /// refold becomes the breakdown row for `x`.
    #[must_use]
    pub fn with_breakdown(mut self, x: f64, attributed: AttributedLedger) -> Self {
        self.breakdown = Some(x);
        self.attributed = attributed;
        self
    }

    /// Attach a point on a different series than the job's own.
    #[must_use]
    pub fn with_extra(mut self, series: impl Into<String>, x: f64, y: f64) -> Self {
        self.extra.push((series.into(), x, y));
        self
    }
}

/// One schedulable unit of work: a single simulation producing points
/// for one named series.
pub struct ScenarioJob {
    /// The series the points belong to.
    pub series: String,
    /// The simulation itself. Runs on a worker thread; must therefore
    /// capture only owned, [`Send`] data (a [`Scenario`] qualifies — it
    /// is plain data; the [`crate::machine::Machine`] is built *inside*
    /// the closure).
    pub run: Box<dyn FnOnce() -> JobOutput + Send>,
}

impl std::fmt::Debug for ScenarioJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioJob").field("series", &self.series).finish_non_exhaustive()
    }
}

/// Post-execution hook: derived series (e.g. the speedup ratios) that
/// need several jobs' results at once. Runs on the caller's thread after
/// assembly, so it sees the complete, deterministically-ordered set.
type FinishHook = Box<dyn FnOnce(&mut SeriesSet) + Send>;

/// A declarative experiment: an ordered list of independent jobs plus an
/// optional finishing pass.
pub struct ExperimentPlan {
    /// Figure identifier (becomes [`SeriesSet::figure`]).
    pub figure: String,
    jobs: Vec<ScenarioJob>,
    finish: Option<FinishHook>,
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("figure", &self.figure)
            .field("jobs", &self.jobs.len())
            .field("finish", &self.finish.is_some())
            .finish()
    }
}

/// Execution metrics for one plan (feeds `results/summary.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanMetrics {
    /// Figure identifier.
    pub figure: String,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall time of the whole plan.
    pub wall: Duration,
    /// Sum of per-job wall times (≈ `wall × workers` at full efficiency).
    pub job_wall: Duration,
    /// Total simulated cycles across all jobs.
    pub sim_cycles: u64,
    /// Cycle-attribution rows contributed by the jobs, in plan order.
    pub breakdown: BreakdownSet,
    /// All jobs' per-process × per-callsite ledgers merged cell-wise —
    /// the source of `results/flamegraph_<figure>.folded`.
    pub attributed: AttributedLedger,
}

impl PlanMetrics {
    /// Simulated cycles per host second — the headline throughput
    /// number ("as fast as the hardware allows").
    pub fn sim_cycles_per_host_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }
}

impl ExperimentPlan {
    /// An empty plan for `figure`.
    pub fn new(figure: impl Into<String>) -> Self {
        Self { figure: figure.into(), jobs: Vec::new(), finish: None }
    }

    /// Number of jobs queued so far.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Append a raw job.
    pub fn push_job(
        &mut self,
        series: impl Into<String>,
        run: impl FnOnce() -> JobOutput + Send + 'static,
    ) {
        self.jobs.push(ScenarioJob { series: series.into(), run: Box::new(run) });
    }

    /// Append the common case: run `scenario`, validate its checksums,
    /// contribute the point `(x, makespan)`.
    ///
    /// The scenario is described *now* (it is plain data) but simulated
    /// only when the job runs.
    pub fn scenario_point(&mut self, series: impl Into<String>, x: f64, scenario: Scenario) {
        let series = series.into();
        let label = series.clone();
        self.push_job(series, move || {
            let result = scenario.run().unwrap_or_else(|e| panic!("{label} x={x}: {e}"));
            assert!(result.valid, "{label} x={x}: checksum mismatch");
            JobOutput::point(x, result.makespan as f64, result.makespan)
                .with_breakdown(x, result.attributed)
        });
    }

    /// Append one job per instance count `1..=max_instances`, each running
    /// `base` with that many instances — the shape of every
    /// completion-time-vs-instances series in the paper.
    pub fn instance_sweep(&mut self, series: impl Into<String>, max_instances: usize, base: Scenario) {
        let series = series.into();
        for n in 1..=max_instances {
            self.scenario_point(series.clone(), n as f64, base.clone().instances(n));
        }
    }

    /// Install a finishing pass that runs after all jobs are assembled
    /// (derived series such as ratios).
    #[must_use]
    pub fn with_finish(mut self, f: impl FnOnce(&mut SeriesSet) + Send + 'static) -> Self {
        self.finish = Some(Box::new(f));
        self
    }

    /// Execute every job on `workers` threads (clamped to `1..=jobs`)
    /// and assemble the results. `workers == 1` runs the jobs in plan
    /// order on a single pool thread — the serial path goes through the
    /// same machinery.
    ///
    /// # Panics
    ///
    /// Re-raises the first job panic (checksum mismatches and simulation
    /// errors are job panics).
    pub fn execute(self, workers: usize) -> (SeriesSet, PlanMetrics) {
        let figure = self.figure;
        let n = self.jobs.len();
        let workers = workers.max(1).min(n.max(1));
        let t0 = Instant::now();

        // Names stay here for assembly; workers pull the closures from one
        // queue and send back each output tagged with its plan index.
        let (names, runs): (Vec<String>, Vec<_>) =
            self.jobs.into_iter().map(|job| (job.series, job.run)).unzip();
        let queue = Mutex::new(runs.into_iter().enumerate());
        // Room for every output, so no send blocks. The bounded channel
        // allocates its buffer here, once; an unbounded one allocates its
        // blocks on the workers, which raised perfbench's peak RSS from
        // 13.6 to 16.7 MB on `mgmt_storm` (glibc per-thread arenas).
        let (done_tx, done_rx) = mpsc::sync_channel(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (queue, done_tx) = (&queue, done_tx.clone());
                    s.spawn(move || loop {
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, run)) = next else { break };
                        let t = Instant::now();
                        let output = run();
                        // `done_rx` outlives every worker.
                        let _ = done_tx.send((i, output, t.elapsed()));
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    panic::resume_unwind(payload);
                }
            }
        });
        drop(done_tx);
        // Every job ran exactly once (a panic re-raised above), so sorting
        // by plan index lines the outputs up with `names`.
        let mut done: Vec<_> = done_rx.iter().collect();
        done.sort_unstable_by_key(|&(i, ..)| i);

        // Deterministic assembly: plan order, first-mention series order.
        // PROTEUS_JOB_TIMES=1 dumps one timing line per job to stderr —
        // the cheap way to see where host time goes without a profiler.
        let job_times = std::env::var_os("PROTEUS_JOB_TIMES").is_some();
        let mut set = SeriesSet::new(figure.clone());
        let mut breakdown = BreakdownSet::new(figure.clone());
        let mut attributed = AttributedLedger::default();
        let mut job_wall = Duration::ZERO;
        let mut sim_cycles = 0u64;
        for (name, (i, output, dur)) in names.iter().zip(done) {
            if job_times {
                eprintln!(
                    "[job {i:>3}] {:>8.3}s {:>14} cyc {:>9.3e} cyc/s  {name}",
                    dur.as_secs_f64(),
                    output.sim_cycles,
                    output.sim_cycles as f64 / dur.as_secs_f64().max(1e-9),
                );
            }
            job_wall += dur;
            sim_cycles += output.sim_cycles;
            attributed.absorb(&output.attributed);
            if let Some(x) = output.breakdown {
                let ledger = output.attributed.refold();
                breakdown.rows.push(BreakdownRow { series: name.clone(), x, ledger });
            }
            let idx = series_index(&mut set, name);
            for (x, y) in output.points {
                set.series[idx].push(x, y);
            }
            for (extra_name, x, y) in output.extra {
                let idx = series_index(&mut set, &extra_name);
                set.series[idx].push(x, y);
            }
        }
        if let Some(finish) = self.finish {
            finish(&mut set);
        }

        let metrics = PlanMetrics {
            figure,
            jobs: n,
            workers,
            wall: t0.elapsed(),
            job_wall,
            sim_cycles,
            breakdown,
            attributed,
        };
        (set, metrics)
    }
}

/// Index of `name` in `set`, appending a fresh series on first mention.
fn series_index(set: &mut SeriesSet, name: &str) -> usize {
    match set.series.iter().position(|s| s.name == name) {
        Some(idx) => idx,
        None => {
            set.push(Series::new(name.to_owned()));
            set.series.len() - 1
        }
    }
}

/// The host's available parallelism (the `--jobs` default).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan() -> ExperimentPlan {
        // Interleaved series mentions, out-of-order x production: the
        // assembly must still yield first-mention series order and
        // plan-order points.
        let mut plan = ExperimentPlan::new("toy");
        for n in 1..=3u32 {
            plan.push_job("a", move || {
                JobOutput::point(n as f64, (10 * n) as f64, u64::from(n))
            });
            plan.push_job("b", move || {
                JobOutput::point(n as f64, (20 * n) as f64, 2 * u64::from(n))
            });
        }
        plan
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let (serial, m1) = toy_plan().execute(1);
        let (parallel, m4) = toy_plan().execute(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(m1.workers, 1);
        assert_eq!(m4.workers, 4, "6 jobs admit 4 workers");
        assert_eq!(m1.sim_cycles, 18);
        assert_eq!(m4.sim_cycles, 18);
    }

    #[test]
    fn series_appear_in_first_mention_order() {
        let (set, metrics) = toy_plan().execute(8);
        assert_eq!(set.series.len(), 2);
        assert_eq!(set.series[0].name, "a");
        assert_eq!(set.series[1].name, "b");
        assert_eq!(set.series[0].points.len(), 3);
        assert_eq!(set.series[0].points[2].y, 30.0);
        assert_eq!(metrics.jobs, 6);
        assert_eq!(metrics.workers, 6, "workers clamp to the job count");
    }

    #[test]
    fn finish_hook_sees_assembled_set() {
        let plan = toy_plan().with_finish(|set| {
            let sum: f64 =
                set.series.iter().flat_map(|s| s.points.iter().map(|p| p.y)).sum();
            let mut derived = Series::new("sum");
            derived.push(0.0, sum);
            set.push(derived);
        });
        let (set, _) = plan.execute(3);
        assert_eq!(set.series.last().expect("derived").points[0].y, 180.0);
        assert_eq!(set.series.last().expect("derived").name, "sum");
    }

    #[test]
    fn extra_points_land_on_their_named_series_deterministically() {
        let plan = || {
            let mut plan = ExperimentPlan::new("x");
            for n in 1..=3u32 {
                plan.push_job("main", move || {
                    JobOutput::point(n as f64, n as f64, 1)
                        .with_extra("aux", n as f64, (100 * n) as f64)
                });
            }
            plan
        };
        let (serial, _) = plan().execute(1);
        let (parallel, _) = plan().execute(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.series.len(), 2);
        assert_eq!(serial.series[0].name, "main");
        assert_eq!(serial.series[1].name, "aux");
        assert_eq!(serial.series[1].points.len(), 3);
        assert_eq!(serial.series[1].points[2].y, 300.0);
    }

    #[test]
    fn empty_plan_executes() {
        let (set, metrics) = ExperimentPlan::new("empty").execute(4);
        assert!(set.series.is_empty());
        assert_eq!(metrics.jobs, 0);
        assert_eq!(metrics.wall.as_secs(), 0);
    }

    #[test]
    fn throughput_is_cycles_over_wall() {
        let m = PlanMetrics {
            figure: "f".into(),
            jobs: 1,
            workers: 1,
            wall: Duration::from_secs(2),
            job_wall: Duration::from_secs(2),
            sim_cycles: 10_000_000,
            breakdown: BreakdownSet::new("f"),
            attributed: AttributedLedger::default(),
        };
        let thr = m.sim_cycles_per_host_second();
        assert!((thr - 5_000_000.0).abs() < 1.0, "{thr}");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panic_propagates() {
        let mut plan = ExperimentPlan::new("p");
        plan.push_job("s", || panic!("boom"));
        let _ = plan.execute(2);
    }

    #[test]
    fn scenario_point_runs_a_real_simulation() {
        use proteus_apps::AppKind;
        let scenario = Scenario::new(AppKind::Alpha).size(16).passes(1);
        let clock = scenario.run().expect("direct run").total_cycles;
        let mut plan = ExperimentPlan::new("real");
        plan.scenario_point("alpha", 1.0, scenario);
        let (set, metrics) = plan.execute(2);
        assert_eq!(set.series.len(), 1);
        assert!(set.series[0].points[0].y > 0.0);
        assert!(metrics.sim_cycles > 0);
        assert!(metrics.sim_cycles_per_host_second() > 0.0);
        // Every scenario job contributes one attribution row, and the
        // ledger conserves the run's clock (read from a direct run of
        // the same deterministic scenario).
        assert_eq!(metrics.breakdown.rows.len(), 1);
        let row = &metrics.breakdown.rows[0];
        assert_eq!(row.series, "alpha");
        assert!(clock > 0);
        assert_eq!(row.ledger.total(), clock);
        // The plan-wide attributed fold refolds to exactly the same
        // ledger (one job here, so plan fold == job fold).
        assert_eq!(metrics.attributed.refold(), row.ledger);
        assert_eq!(metrics.attributed.total(), clock);
    }
}

//! The repository benchmark: three dispatch regimes of the Proteus
//! simulator, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <hw_contended|soft_dispatch|mgmt_storm> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! With `--trace 0` it repeats the workload's batch, untraced, on one
//! worker for `--seconds`, times the reference loop before every job, and
//! reports the end-to-end metrics. With `--trace 1` it alternates
//! untraced and traced batches on up to two workers and reports the
//! per-layer metrics. Either way it checks every scenario's outputs, prints one
//! line per metric, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` beside this package for the workloads and metrics.

mod batch;
mod layers;
mod micro;
mod reference;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use batch::{Batch, Mode, Prepared, SimOutput};
use layers::LayerTimes;
use workloads::{Scale, Seeds, WORKLOADS};

/// Set-ups before the first batch. One more follows every batch, so the
/// set-ups sample the host across the whole run as the batches do;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 9;

/// Most worker threads a traced-run batch may use.
const MAX_WORKERS: usize = 2;

/// Worker threads of an end-to-end batch. Two jobs at once on a 2-vCPU
/// guest measure where the host places the vCPUs (the same batch took
/// 1.0 s and 2.2 s) more than the program.
const TIMED_WORKERS: usize = 1;

/// Problems printed before the rest are only counted.
const MAX_PROBLEMS_SHOWN: usize = 12;

/// The layer times must account for this share of job wall time.
const COVERAGE_TOLERANCE: f64 = 0.02;

/// A metric as the benchmark reports it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// What an end-to-end metric means, or which end-to-end metric, on
    /// which workload, a per-layer metric should move.
    note: &'static str,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: &'static str) -> Metric {
    Metric { name, unit, value, note }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale full|smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(bad("expected a positive number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            "--scale" => {
                scale = Scale::parse(&value).ok_or_else(|| bad("expected full or smoke"))?
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn median_of(batches: &[&Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    median(&batches.iter().map(|b| f(b)).collect::<Vec<_>>())
}

/// One batch's host time in reference units: for every cell, the median
/// over batches of its job time over the time of the reference loop run
/// just before it on the same thread, summed over the cells.
fn batch_time_ref(batches: &[&Batch]) -> f64 {
    (0..batches[0].records.len())
        .map(|i| {
            median_of(batches, |b| {
                let r = &b.records[i];
                r.reference.map_or(f64::NAN, |t| r.wall.as_secs_f64() / t.as_secs_f64())
            })
        })
        .sum()
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Tallies scenario runs and failures, checking every run against the
/// reference outputs of the first untraced batch.
#[derive(Default)]
struct Checker {
    reference: Option<Vec<Option<SimOutput>>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn check(&mut self, batch: &Batch, what: &str) {
        let outputs = batch.outputs();
        let reference =
            self.reference.get_or_insert_with(|| outputs.iter().map(|o| o.cloned()).collect());
        for (i, (out, want)) in outputs.iter().zip(reference.iter()).enumerate() {
            self.attempted += 1;
            let problem = match (out, want) {
                (Some(out), Some(want)) => out.first_difference(want).map(|field| {
                    let label = &batch.records[i].label;
                    format!("{label}: {what} run's {field} differs from the first run's")
                }),
                (Some(_), None) => None,
                (None, _) => batch.records[i].outcome.as_ref().err().cloned(),
            };
            if let Some(p) = problem {
                self.failed += 1;
                self.problems.push(p);
            }
        }
    }
}

/// Simulated totals of one batch (identical in every repetition).
#[derive(Default)]
struct SimTotals {
    makespan: u64,
    interp_cycles: u64,
    management: u64,
    total: u64,
    custom_faults: u64,
    config_loads: u64,
    context_switches: u64,
}

fn sim_totals(batch: &Batch) -> SimTotals {
    let mut t = SimTotals::default();
    for o in batch.outputs().into_iter().flatten() {
        t.makespan += o.makespan;
        t.interp_cycles += o.ledger.user_compute + o.ledger.soft_dispatch;
        t.management += o.ledger.management();
        t.total += o.total_cycles;
        t.custom_faults += o.stats.custom_faults;
        t.config_loads += o.stats.config_loads;
        t.context_switches += o.stats.context_switches;
    }
    t
}

/// Host times of every set-up in a run, in seconds.
#[derive(Default)]
struct SetUpTimes {
    /// Whole set-ups.
    total: Vec<f64>,
    /// `WorkloadSpec::build`, all cells.
    build: Vec<f64>,
}

/// The set-up step: describe the workload's cells, build every cell's
/// workload and one batch plan, and record the times.
fn set_up(args: &Args, seeds: Seeds, times: &mut SetUpTimes) -> Vec<Prepared> {
    let t = Instant::now();
    let cells = workloads::cells(&args.workload, seeds, args.scale)
        .expect("parse_args accepts only known workloads");
    let (cells, build) = batch::prepare(cells);
    drop(batch::plan(&cells, if args.trace { Mode::Traced } else { Mode::Timed }));
    times.total.push(t.elapsed().as_secs_f64());
    times.build.push(build.as_secs_f64());
    cells
}

fn end_to_end(
    untraced: &[&Batch],
    sim: &SimTotals,
    setups: &[f64],
    checker: &mut Checker,
) -> Vec<Metric> {
    let time_ref = batch_time_ref(untraced);
    let rss = peak_rss_mb().unwrap_or_else(|| {
        checker.problems.push("cannot read VmHWM from /proc/self/status".to_owned());
        f64::NAN
    });
    vec![
        metric("batch_time_ref", "ref", time_ref, "host time per batch in reference-loop units"),
        metric(
            "interp_mcycles_per_ref",
            "Mcycles/ref",
            sim.interp_cycles as f64 / 1e6 / time_ref,
            "interpreted (user + soft-dispatch) cycles per reference unit",
        ),
        metric("setup_s", "s", median(setups), "building the workloads and the plan"),
        metric("peak_rss_mb", "MB", rss, "peak resident set"),
        metric(
            "sim_makespan_mcycles",
            "Mcycles",
            sim.makespan as f64 / 1e6,
            "simulated: summed makespan of the batch",
        ),
        metric(
            "mgmt_cycles_pct",
            "%",
            100.0 * sim.management as f64 / sim.total as f64,
            "simulated: management share of all cycles",
        ),
    ]
}

fn per_layer(
    untraced: &[&Batch],
    traced: &[&Batch],
    sim: &SimTotals,
    builds: &[f64],
    scale: Scale,
    checker: &mut Checker,
) -> Vec<Metric> {
    // Layer coverage: every traced batch's layers must add up to its
    // summed job wall time.
    let mut coverage = Vec::new();
    for b in traced {
        let (share, missing) = b.coverage();
        let tail: Duration = b.records.iter().map(|r| r.tail).sum();
        println!(
            "layer coverage {:.3}% of job wall; unaccounted {:.6} s \
             (of which after the last event {:.6} s)",
            100.0 * share,
            missing.as_secs_f64(),
            tail.as_secs_f64()
        );
        if (share - 1.0).abs() > COVERAGE_TOLERANCE {
            checker.problems.push(format!(
                "layer coverage {:.3}% is outside 100 ± {}%",
                100.0 * share,
                100.0 * COVERAGE_TOLERANCE
            ));
        }
        coverage.push(share);
    }
    let m = micro::measure(if scale == Scale::Full { 10 } else { 1 }).unwrap_or_else(|e| {
        checker.problems.push(e);
        micro::Micro::UNMEASURED
    });
    let first = traced[0].layers();
    let layer_median =
        |f: fn(&LayerTimes) -> Duration| median_of(traced, |b| f(&b.layers()).as_secs_f64());
    let untraced_wall = median_of(untraced, |b| b.wall.as_secs_f64());
    let traced_wall = median_of(traced, |b| b.wall.as_secs_f64());
    let kernel = "batch_time_ref on mgmt_storm; flat on soft_dispatch";
    let count = "work count";
    vec![
        metric(
            "cpu.ns_per_interp_cycle",
            "ns",
            layer_median(|l| l.cpu) * 1e9 / sim.interp_cycles as f64,
            "batch_time_ref on soft_dispatch (most) and hw_contended; flat on mgmt_storm",
        ),
        metric("cpu.run_spans", "count", first.compute_spans as f64, count),
        metric("rfu.hw_dispatches", "count", first.hw_dispatches as f64, count),
        metric("rfu.sw_dispatches", "count", first.sw_dispatches as f64, count),
        metric(
            "rfu.ns_per_hw_dispatch",
            "ns",
            m.ns_per_hw_dispatch,
            "batch_time_ref on hw_contended, not soft_dispatch",
        ),
        metric(
            "rfu.ns_per_sw_roundtrip",
            "ns",
            m.ns_per_sw_roundtrip,
            "batch_time_ref on soft_dispatch, not hw_contended",
        ),
        metric(
            "rfu.ns_per_tlb_lookup",
            "ns",
            m.ns_per_tlb_lookup,
            "batch_time_ref on hw_contended and soft_dispatch",
        ),
        metric("kernel.sched_s", "s", layer_median(|l| l.sched), kernel),
        metric("kernel.cis_s", "s", layer_median(|l| l.cis), kernel),
        metric("kernel.fault_s", "s", layer_median(|l| l.fault), kernel),
        metric(
            "kernel.ns_per_custom_fault",
            "ns",
            layer_median(|l| l.cis) * 1e9 / sim.custom_faults.max(1) as f64,
            kernel,
        ),
        metric("kernel.custom_faults", "count", sim.custom_faults as f64, count),
        metric("kernel.config_loads", "count", sim.config_loads as f64, count),
        metric("kernel.context_switches", "count", sim.context_switches as f64, count),
        metric("probe.events", "count", first.events as f64, count),
        metric("probe.ns_per_emit", "ns", m.ns_per_emit, "batch_time_ref on mgmt_storm"),
        metric(
            "probe.ns_per_compute_span",
            "ns",
            m.ns_per_compute_span,
            "batch_time_ref on mgmt_storm",
        ),
        metric(
            "probe.trace_overhead_pct",
            "%",
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
            "batch_time_ref on mgmt_storm (event path against fast path)",
        ),
        metric(
            "runner.parallel_eff",
            "ratio",
            median_of(untraced, Batch::parallel_eff),
            "batch_time_ref on soft_dispatch (longest-job-first)",
        ),
        metric(
            "runner.straggler_s",
            "s",
            median_of(untraced, |b| b.straggler().as_secs_f64()),
            "batch_time_ref on soft_dispatch (longest-job-first)",
        ),
        metric(
            "runner.assembly_s",
            "s",
            median_of(untraced, |b| b.assembly().as_secs_f64()),
            "batch_time_ref on every workload",
        ),
        metric(
            "runner.layer_coverage_pct",
            "%",
            100.0 * median(&coverage),
            "check: layers add up to job wall",
        ),
        metric("apps.build_ms", "ms", 1e3 * median(builds), "setup_s on every workload"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seeds = Seeds::derive(args.seed);
    let workers = if args.trace {
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_WORKERS)
    } else {
        TIMED_WORKERS
    };
    let untraced_mode = if args.trace { Mode::Untraced } else { Mode::Timed };
    let mut set_up_times = SetUpTimes::default();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        prepared = set_up(&args, seeds, &mut set_up_times);
    }
    println!(
        "perfbench: workload {} seed {} ({:?}), {} cells on {workers} workers, trace {}",
        args.workload,
        args.seed,
        seeds,
        prepared.len(),
        u8::from(args.trace)
    );

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut checker = Checker::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let b = batch::run(&prepared, untraced_mode, workers);
        checker.check(&b, "untraced");
        untraced.push(b);
        if args.trace {
            let b = batch::run(&prepared, Mode::Traced, workers);
            checker.check(&b, "traced");
            traced.push(b);
        }
        drop(set_up(&args, seeds, &mut set_up_times));
        if Instant::now() >= deadline {
            break;
        }
    }
    let untraced: Vec<&Batch> = untraced.iter().collect();
    let traced: Vec<&Batch> = traced.iter().collect();
    let sim = sim_totals(untraced[0]);
    let metrics = if args.trace {
        per_layer(&untraced, &traced, &sim, &set_up_times.build, args.scale, &mut checker)
    } else {
        end_to_end(&untraced, &sim, &set_up_times.total, &mut checker)
    };

    let walls = |bs: &[&Batch]| -> Vec<String> {
        bs.iter().map(|b| format!("{:.4}", b.wall.as_secs_f64())).collect()
    };
    println!("untraced batch walls (s): {}", walls(&untraced).join(" "));
    if !args.trace {
        let reference: Vec<f64> = untraced
            .iter()
            .flat_map(|b| b.records.iter().filter_map(|r| r.reference))
            .map(|t| t.as_secs_f64())
            .collect();
        println!(
            "median batch wall {:.4} s; median reference loop {:.6} s",
            median_of(&untraced, |b| b.wall.as_secs_f64()),
            median(&reference)
        );
    }
    if args.trace {
        println!("traced batch walls (s): {}", walls(&traced).join(" "));
    }
    println!(
        "failed_frac {} ({} of {} scenario runs failed)",
        checker.failed as f64 / checker.attempted as f64,
        checker.failed,
        checker.attempted
    );
    for p in checker.problems.iter().take(MAX_PROBLEMS_SHOWN) {
        println!("problem: {p}");
    }
    if checker.problems.len() > MAX_PROBLEMS_SHOWN {
        println!("... and {} more problems", checker.problems.len() - MAX_PROBLEMS_SHOWN);
    }
    println!("{:<28} {:>16} {:<10} meaning / should move", "metric", "value", "unit");
    for m in &metrics {
        println!("{:<28} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note);
    }

    // Any failed scenario, failed check or unmeasurable value makes the
    // run incorrect; JSON has no NaN, so such a value is written as 0.
    let correct = checker.problems.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

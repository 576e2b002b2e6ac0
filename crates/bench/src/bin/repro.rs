//! Regenerate every figure and claim of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--jobs N] [--out DIR] [--trace SCENARIO]
//!       [--flame SCENARIO] [--chrome-trace SCENARIO] [--bench]
//!       [fig2] [fig3] [speedup] [policies] [quanta] [pfus]
//!       [config-split] [tlb] [longinstr] [soft-crossover] [sharing]
//!       [dynamic] [faults] [all]
//! ```
//!
//! With no experiment names, runs `all`. Each experiment is a
//! declarative [`proteus::runner::ExperimentPlan`] executed on a worker
//! pool of `--jobs` threads (default: the host's available
//! parallelism). Result assembly is deterministic, so the CSVs are
//! **byte-identical at any `--jobs` value** — only wall time changes.
//!
//! Results are printed as tables and written as long-format CSVs into
//! `--out` (default `results/`): `<figure>.csv` with the plotted points
//! and `breakdown_<figure>.csv` attributing every simulated cycle of
//! every job to a [`proteus::CycleLedger`] category. `summary.json`
//! records per-figure and total wall time, job counts,
//! simulated-cycles-per-host-second throughput, a `cycle_breakdown`
//! section (per-experiment and aggregate category totals), the top
//! per-process × per-callsite cycle sinks, and per-trace ring-buffer
//! drop counts. A run that could not write one of its outputs says so
//! and exits 1 once it is done.
//!
//! Profiling flags (scenario names resolve through
//! [`proteus::experiment::resolve_target`] — experiment figures from
//! the registry, demo apps by name):
//!
//! * `--trace <app>` runs a small contended demo of the named
//!   application with tracing on and dumps its event timeline as JSON
//!   lines into `trace_<app>.jsonl` (one object per event, oldest
//!   first, each carrying its `(pid, callsite)` attribution tag);
//! * `--flame <experiment|app>` writes a Brendan-Gregg folded-stack
//!   profile `flamegraph_<name>.folded` — for an experiment, the merged
//!   attribution of every job in the plan (byte-identical at any
//!   `--jobs`); for an app, the demo scenario's attribution;
//! * `--chrome-trace <app>` renders the demo's trace ring plus per-PFU
//!   residency/quarantine timelines as `chrome_trace_<app>.json` for
//!   `chrome://tracing` / Perfetto.

use std::path::Path;
use std::time::Instant;

use porsche::chrome::chrome_trace_json;
use porsche::json::{self, Array, Fixed, Object};
use porsche::object;
use porsche::probe::{AttributedLedger, CycleLedger};
use proteus::experiment::{demo_scenario, plan_for, resolve_target, RunTarget, Scale, EXPERIMENTS};
use proteus::runner::{default_workers, PlanMetrics};
use proteus::scenario::ScenarioResult;
use proteus::series::SeriesSet;
use proteus_apps::AppKind;

/// The `--out` directory and the number of outputs that could not be
/// written into it: a run that lost any exits 1 once it is done.
struct OutDir<'a> {
    path: &'a Path,
    failed: usize,
}

impl OutDir<'_> {
    /// `path`, created if missing. A directory that cannot be created is
    /// reported here; every write into it then fails and is counted.
    fn create(path: &Path) -> OutDir<'_> {
        if let Err(e) = std::fs::create_dir_all(path) {
            eprintln!("could not create {}: {e}", path.display());
        }
        OutDir { path, failed: 0 }
    }

    /// Write `contents` to `file` in the directory and say so, with `note`
    /// after the path; report and count a failure.
    fn write(&mut self, file: &str, contents: impl AsRef<[u8]>, note: &str) {
        let path = self.path.join(file);
        match std::fs::write(&path, contents) {
            Ok(()) => println!("wrote {}{note}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                self.failed += 1;
            }
        }
    }

    /// Exit 1 if any output was lost.
    fn finish(&self) {
        if self.failed > 0 {
            eprintln!("{} output file(s) could not be written", self.failed);
            std::process::exit(1);
        }
    }
}

fn emit(set: &SeriesSet, out: &mut OutDir) {
    println!("== {} ==", set.figure);
    println!("{}", set.to_table());
    out.write(&format!("{}.csv", set.figure), set.to_csv(), "");
    println!();
}

/// Run the contended demo scenario of `app` with tracing enabled,
/// panicking on simulation/checksum failure and warning when the trace
/// ring overflowed (the dump is then the *tail* of the timeline).
fn run_demo(app: AppKind, quick: bool) -> ScenarioResult {
    let name = app.name();
    let result = demo_scenario(app, quick)
        .run()
        .unwrap_or_else(|e| panic!("demo scenario {name}: {e}"));
    assert!(result.valid, "demo scenario {name}: checksum mismatch");
    result
}

/// `--trace <app>` / `--chrome-trace <app>`: run the demo and write its
/// trace ring as JSON lines (`trace_<app>.jsonl`) or, with `chrome`, as
/// a Chrome trace-event document with per-PFU residency timelines
/// (`chrome_trace_<app>.json`). Returns the dump's entry for
/// `summary.json`'s `traces` section: truncated timelines must be
/// visible, not silent.
fn dump_trace(app: AppKind, quick: bool, out: &mut OutDir, chrome: bool) -> Object {
    let name = app.name();
    let result = run_demo(app, quick);
    let dropped = result.trace_dropped;
    let (file, contents) = if chrome {
        let json = chrome_trace_json(name, &result.trace, dropped, result.total_cycles);
        (format!("chrome_trace_{name}.json"), json)
    } else {
        let lines = result.trace.iter().map(|&(at, tag, e)| e.to_json(at, tag) + "\n").collect();
        (format!("trace_{name}.jsonl"), lines)
    };
    let (events, cycles) = (result.trace.len(), result.total_cycles);
    out.write(&file, contents, &format!(" ({events} events over {cycles} cycles)"));
    if dropped > 0 {
        eprintln!(
            "warning: trace ring dropped {dropped} events for {name}; \
             the dump holds only the timeline tail"
        );
    }
    object! {
        "scenario" => name, "output" => file.as_str(), "events" => events,
        "dropped_events" => dropped, "total_cycles" => cycles,
    }
}

/// `--flame <target>`: write a folded-stack profile. Experiment targets
/// run the whole plan on `jobs` workers and merge every job's
/// attribution (cell-wise sums commute, so the output is byte-identical
/// at any worker count); demo targets profile the single contended
/// scenario.
fn dump_flame(target: RunTarget, scale: &Scale, quick: bool, jobs: usize, out: &mut OutDir) {
    let name = target.name();
    let attributed = match target {
        RunTarget::Experiment(exp) => {
            let plan = plan_for(exp, scale).expect("resolver only yields registered experiments");
            let (_, m) = plan.execute(jobs);
            println!(
                "[flame {exp}] {} jobs on {} workers in {:.2}s",
                m.jobs,
                m.workers,
                m.wall.as_secs_f64(),
            );
            m.attributed
        }
        RunTarget::Demo(app) => run_demo(app, quick).attributed,
    };
    let folded = attributed.to_folded(name);
    let note = format!(" ({} stacks, {} cycles)", folded.lines().count(), attributed.total());
    out.write(&format!("flamegraph_{name}.folded"), folded, &note);
}

fn metrics_json(m: &PlanMetrics) -> Object {
    object! {
        "figure" => m.figure.as_str(), "jobs" => m.jobs, "workers" => m.workers,
        "wall_seconds" => Fixed(m.wall.as_secs_f64(), 6),
        "job_wall_seconds" => Fixed(m.job_wall.as_secs_f64(), 6),
        "sim_cycles" => m.sim_cycles,
        "sim_cycles_per_host_second" => Fixed(m.sim_cycles_per_host_second(), 1),
    }
}

/// Host metadata as a JSON object: the context that makes throughput
/// numbers comparable across machines and PRs.
fn host_json(jobs: usize) -> Object {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    object! {
        "rustc" => env!("PROTEUS_RUSTC_VERSION"), "os" => std::env::consts::OS,
        "arch" => std::env::consts::ARCH, "logical_cpus" => cpus, "jobs" => jobs,
    }
}

/// A cycle ledger as category → cycles, plus `total`.
fn ledger_json(ledger: &CycleLedger) -> Object {
    CycleLedger::CATEGORIES
        .iter()
        .zip(ledger.values())
        .fold(Object::new(), |obj, (name, value)| obj.field(name, value))
        .field("total", ledger.total())
}

/// Largest per-process × per-callsite sinks surfaced in `summary.json`.
const TOP_SINKS: usize = 5;

fn summary_json(
    metrics: &[PlanMetrics],
    traces: Array,
    workers: usize,
    quick: bool,
    total_wall_seconds: f64,
) -> String {
    let total_jobs: usize = metrics.iter().map(|m| m.jobs).sum();
    let total_job_wall: f64 = metrics.iter().map(|m| m.job_wall.as_secs_f64()).sum();
    let total_cycles: u64 = metrics.iter().map(|m| m.sim_cycles).sum();
    let throughput =
        if total_wall_seconds > 0.0 { total_cycles as f64 / total_wall_seconds } else { 0.0 };
    // Per-experiment and aggregate cycle attribution: the refold of
    // each plan's merged attribution matrix.
    let mut attributed = AttributedLedger::default();
    let mut breakdown = Object::new();
    for m in metrics {
        attributed.absorb(&m.attributed);
        breakdown = breakdown.field(&m.figure, ledger_json(&m.attributed.refold()));
    }
    let top_sinks = attributed.top_sinks(TOP_SINKS).into_iter().map(|(pid, site, category, n)| {
        object! { "pid" => pid, "callsite" => site.name(), "category" => category, "cycles" => n }
    });
    let summary = object! {
        "workers" => workers, "quick" => quick, "host" => host_json(workers),
        "experiments" => metrics.iter().map(metrics_json).collect::<Array>(),
        "cycle_breakdown" => breakdown.field("aggregate", ledger_json(&attributed.refold())),
        "top_sinks" => top_sinks.collect::<Array>(),
        "traces" => traces,
        "total" => object! {
            "jobs" => total_jobs, "wall_seconds" => Fixed(total_wall_seconds, 6),
            "job_wall_seconds" => Fixed(total_job_wall, 6), "sim_cycles" => total_cycles,
            "sim_cycles_per_host_second" => Fixed(throughput, 1),
        },
    };
    summary.finish() + "\n"
}

/// The figure the pinned benchmark runs: fig3 is the most
/// interpreter-bound experiment (≈ 90 % of its cycles are interpreted
/// instructions), so it tracks hot-loop throughput most directly.
const BENCH_FIGURE: &str = "fig3";
/// Benchmarks always run on one worker so records measure single-thread
/// interpreter throughput, not host parallelism.
const BENCH_JOBS: usize = 1;

/// The `BENCH_<n>.json` records in `outdir` as `(n, file name)`, newest
/// (highest `n`) first. Only the names count: a record that no longer
/// parses still holds its number, so the numbering stays append-only.
fn bench_records(outdir: &Path) -> Vec<(u32, String)> {
    let mut found: Vec<(u32, String)> = std::fs::read_dir(outdir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let number = name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()?;
            Some((number, name))
        })
        .collect();
    found.sort_by_key(|&(number, _)| std::cmp::Reverse(number));
    found
}

/// The number the next record takes: one past the highest on disk.
fn next_bench_number(records: &[(u32, String)]) -> u32 {
    records.first().map_or(0, |(n, _)| n + 1)
}

/// A prior benchmark record parsed just enough to compare against.
struct PriorBench {
    file: String,
    figure: String,
    quick: bool,
    jobs: usize,
    throughput: f64,
}

impl PriorBench {
    /// `None` when any compared field is missing or malformed.
    fn parse(file: &str, doc: &str) -> Option<Self> {
        Some(Self {
            file: file.to_string(),
            figure: json::field(doc, &["figure"])?.to_string(),
            quick: json::field(doc, &["quick"])?.parse().ok()?,
            jobs: json::field(doc, &["jobs"])?.parse().ok()?,
            throughput: json::field(doc, &["sim_cycles_per_host_second"])?.parse().ok()?,
        })
    }
}

/// The latest record comparable with this run (same figure, scale and
/// worker count). Records that do not parse are skipped here only.
fn find_baseline(outdir: &Path, records: &[(u32, String)], quick: bool) -> Option<PriorBench> {
    records
        .iter()
        .filter_map(|(_, file)| {
            PriorBench::parse(file, &std::fs::read_to_string(outdir.join(file)).ok()?)
        })
        .find(|b| b.figure == BENCH_FIGURE && b.quick == quick && b.jobs == BENCH_JOBS)
}

/// One `BENCH_<n>.json` record.
fn bench_record(number: u32, quick: bool, m: &PlanMetrics, baseline: Option<Object>) -> String {
    let record = object! {
        "bench" => number, "figure" => BENCH_FIGURE, "quick" => quick, "jobs" => BENCH_JOBS,
        "sim_cycles" => m.sim_cycles, "wall_seconds" => Fixed(m.wall.as_secs_f64(), 6),
        "sim_cycles_per_host_second" => Fixed(m.sim_cycles_per_host_second(), 1),
        "host" => host_json(BENCH_JOBS), "baseline" => baseline,
    };
    record.finish() + "\n"
}

/// `repro --bench`: run the pinned benchmark subset on one worker,
/// append a numbered `BENCH_<n>.json` record, and compare against the
/// latest comparable record (same figure, scale and worker count). The
/// figure CSVs are *not* rewritten — bench mode measures, it does not
/// regenerate results.
fn run_bench(quick: bool, out: &mut OutDir) {
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let plan = plan_for(BENCH_FIGURE, &scale).expect("registry covers the bench figure");
    println!(
        "bench: {BENCH_FIGURE} at --jobs {BENCH_JOBS}{} ...",
        if quick { " (quick scale)" } else { "" }
    );
    let (_, m) = plan.execute(BENCH_JOBS);
    let throughput = m.sim_cycles_per_host_second();
    println!(
        "bench: {} jobs, {} sim cycles in {:.2}s -> {:.3e} sim cycles/s",
        m.jobs,
        m.sim_cycles,
        m.wall.as_secs_f64(),
        throughput,
    );

    let records = bench_records(out.path);
    let number = next_bench_number(&records);
    let baseline = find_baseline(out.path, &records, quick).map(|b| {
        let speedup = if b.throughput > 0.0 { throughput / b.throughput } else { 0.0 };
        let regression = speedup < 0.8;
        println!(
            "bench: vs {} ({:.3e} sim cycles/s): {speedup:.2}x{}",
            b.file,
            b.throughput,
            if regression { "  ** REGRESSION > 20% **" } else { "" },
        );
        object! {
            "file" => b.file.as_str(), "sim_cycles_per_host_second" => Fixed(b.throughput, 1),
            "speedup" => Fixed(speedup, 4), "regression" => regression,
        }
    });
    if baseline.is_none() {
        println!("bench: no comparable baseline record in {}", out.path.display());
    }
    out.write(&format!("BENCH_{number}.json"), bench_record(number, quick, &m, baseline), "");
}

fn usage() -> ! {
    let apps: Vec<&str> = AppKind::ALL.iter().map(|a| a.name()).collect();
    eprintln!(
        "usage: repro [--quick] [--jobs N] [--out DIR] [--trace SCENARIO] [--flame SCENARIO]\n\
         \x20            [--chrome-trace SCENARIO] [--bench] [experiment...|all]\n\
         experiments: {}\n\
         demo apps (for --trace/--chrome-trace, also valid for --flame): {}\n\
         --flame: write results/flamegraph_<name>.folded (experiment figure or demo app)\n\
         --chrome-trace: write results/chrome_trace_<app>.json for chrome://tracing\n\
         --bench: run the pinned perf benchmark ({BENCH_FIGURE}, 1 worker) and append results/BENCH_<n>.json",
        EXPERIMENTS.join(" "),
        apps.join(" "),
    );
    std::process::exit(2);
}

/// Resolve a `--trace`/`--flame`/`--chrome-trace` argument or exit with
/// the resolver's full list of valid names.
fn resolve_or_usage(flag: &str, name: Option<String>) -> RunTarget {
    let Some(name) = name else {
        eprintln!("{flag} needs a scenario name");
        usage();
    };
    match resolve_target(&name) {
        Ok(target) => target,
        Err(e) => {
            eprintln!("{flag}: {e}");
            usage();
        }
    }
}

/// Demo-only flags reject experiment targets with a pointer to the flag
/// that handles them.
fn demo_or_usage(flag: &str, target: RunTarget) -> AppKind {
    match target {
        RunTarget::Demo(app) => app,
        RunTarget::Experiment(name) => {
            eprintln!(
                "{flag} profiles a single demo scenario; '{name}' is an experiment figure \
                 (use --flame {name} for its merged folded-stack profile)"
            );
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut bench = false;
    let mut jobs = default_workers();
    let mut outdir = String::from("results");
    let mut traces: Vec<AppKind> = Vec::new();
    let mut chrome_traces: Vec<AppKind> = Vec::new();
    let mut flames: Vec<RunTarget> = Vec::new();
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--bench" => bench = true,
            "--trace" => {
                traces.push(demo_or_usage("--trace", resolve_or_usage("--trace", it.next())));
            }
            "--chrome-trace" => {
                chrome_traces.push(demo_or_usage(
                    "--chrome-trace",
                    resolve_or_usage("--chrome-trace", it.next()),
                ));
            }
            "--flame" => {
                flames.push(resolve_or_usage("--flame", it.next()));
            }
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok().filter(|n| *n > 0))
                else {
                    eprintln!("--jobs needs a positive integer");
                    usage();
                };
                jobs = n;
            }
            "--out" => {
                let Some(dir) = it.next() else {
                    eprintln!("--out needs a directory");
                    usage();
                };
                outdir = dir;
            }
            "--help" | "-h" => usage(),
            name if name.starts_with("--") => {
                eprintln!("unknown flag {name}");
                usage();
            }
            name => wanted.push(name.to_string()),
        }
    }
    if bench {
        if !wanted.is_empty() || !traces.is_empty() || !chrome_traces.is_empty() || !flames.is_empty()
        {
            eprintln!("--bench runs the pinned subset only; drop experiment/trace arguments");
            usage();
        }
        let mut out = OutDir::create(Path::new(&outdir));
        run_bench(quick, &mut out);
        out.finish();
        return;
    }
    // Profiling flags alone run without rerunning every figure; with
    // explicit experiment names they do both.
    if wanted.is_empty() && traces.is_empty() && chrome_traces.is_empty() && flames.is_empty() {
        wanted.push("all".into());
    }
    let all = wanted.contains(&"all".to_string());
    for name in &wanted {
        if name != "all" && !EXPERIMENTS.contains(&name.as_str()) {
            eprintln!("unknown experiment {name}");
            usage();
        }
    }

    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut out = OutDir::create(Path::new(&outdir));

    let t0 = Instant::now();
    let mut trace_entries = Array::default();
    for app in &traces {
        trace_entries.push(dump_trace(*app, quick, &mut out, false));
    }
    for app in &chrome_traces {
        trace_entries.push(dump_trace(*app, quick, &mut out, true));
    }
    for target in &flames {
        dump_flame(*target, &scale, quick, jobs, &mut out);
    }
    let mut metrics: Vec<PlanMetrics> = Vec::new();
    for name in EXPERIMENTS {
        if !(all || wanted.iter().any(|w| w == name)) {
            continue;
        }
        let plan = plan_for(name, &scale).expect("registry covers EXPERIMENTS");
        let (set, m) = plan.execute(jobs);
        println!(
            "[{name}] {} jobs on {} workers in {:.2}s ({:.2e} sim cycles/s)",
            m.jobs,
            m.workers,
            m.wall.as_secs_f64(),
            m.sim_cycles_per_host_second(),
        );
        emit(&set, &mut out);
        out.write(&format!("breakdown_{}.csv", m.breakdown.figure), m.breakdown.to_csv(), "");
        metrics.push(m);
    }
    let total_wall = t0.elapsed().as_secs_f64();

    if !metrics.is_empty() || !traces.is_empty() || !chrome_traces.is_empty() {
        // Report the effective worker count (the runner clamps to each
        // plan's job count), not the raw `--jobs` request.
        let effective_workers = metrics.iter().map(|m| m.workers).max().unwrap_or(1);
        let summary = summary_json(&metrics, trace_entries, effective_workers, quick, total_wall);
        out.write("summary.json", summary, "");
    }
    println!("done in {total_wall:.1}s with {jobs} worker(s) (scale: {scale:?})");
    out.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    use proteus::series::BreakdownSet;

    fn metrics(sim_cycles: u64, wall: Duration) -> PlanMetrics {
        PlanMetrics {
            figure: BENCH_FIGURE.to_string(),
            jobs: 48,
            workers: BENCH_JOBS,
            wall,
            job_wall: wall,
            sim_cycles,
            breakdown: BreakdownSet::new(BENCH_FIGURE),
            attributed: AttributedLedger::default(),
        }
    }

    /// A scratch directory unique to one test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn out_dir_counts_the_writes_it_loses() {
        let dir = scratch_dir("out-dir");
        let mut out = OutDir::create(&dir);
        out.write("fig.csv", "figure,series,x,y\n", "");
        assert_eq!(std::fs::read_to_string(dir.join("fig.csv")).expect("written"), "figure,series,x,y\n");
        assert_eq!(out.failed, 0);
        // A directory where the file should go, then a file where the
        // directory should be: both writes fail and both are counted.
        std::fs::create_dir(dir.join("summary.json")).expect("create blocker");
        out.write("summary.json", "{}", "");
        let under_a_file = dir.join("fig.csv");
        let mut lost = OutDir::create(&under_a_file);
        lost.write("summary.json", "{}", "");
        assert_eq!((out.failed, lost.failed), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_record_round_trips_through_the_reader() {
        let baseline = Object::new()
            .field("file", "BENCH_6.json")
            .field("sim_cycles_per_host_second", Fixed(1.5e8, 1))
            .field("speedup", Fixed(0.5, 4))
            .field("regression", true);
        let record =
            bench_record(7, true, &metrics(300_000_000, Duration::from_secs(4)), Some(baseline));
        assert!(record.ends_with("}\n") && !record.trim_end().contains('\n'), "{record}");
        assert_eq!(json::field(&record, &["bench"]), Some("7"));
        assert_eq!(json::field(&record, &["jobs"]), Some("1"));
        assert_eq!(json::field(&record, &["host", "jobs"]), Some("1"));
        assert_eq!(json::field(&record, &["sim_cycles_per_host_second"]), Some("75000000.0"));
        assert_eq!(
            json::field(&record, &["baseline", "sim_cycles_per_host_second"]),
            Some("150000000.0")
        );
        assert_eq!(json::field(&record, &["baseline", "regression"]), Some("true"));
        let prior = PriorBench::parse("BENCH_7.json", &record).expect("own record parses");
        assert_eq!(
            (prior.figure.as_str(), prior.quick, prior.jobs),
            (BENCH_FIGURE, true, BENCH_JOBS)
        );
        assert_eq!(prior.throughput.to_bits(), 75_000_000.0f64.to_bits());

        // No baseline renders as null, and the record still parses.
        let record = bench_record(0, false, &metrics(10, Duration::from_secs(1)), None);
        assert_eq!(json::field(&record, &["baseline"]), Some("null"));
        assert!(PriorBench::parse("BENCH_0.json", &record).is_some());
    }

    #[test]
    fn committed_pretty_printed_record_still_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_4.json");
        let doc = std::fs::read_to_string(path).expect("committed BENCH_4.json");
        let b = PriorBench::parse("BENCH_4.json", &doc).expect("BENCH_4.json parses");
        assert_eq!((b.figure.as_str(), b.quick, b.jobs), ("fig3", false, 1));
        assert_eq!(b.throughput.to_bits(), 117_468_186.8f64.to_bits());
    }

    #[test]
    fn unparseable_newest_record_keeps_its_number() {
        let dir = scratch_dir("bench-numbering");
        let good = bench_record(0, true, &metrics(10, Duration::from_secs(1)), None);
        std::fs::write(dir.join("BENCH_0.json"), good).expect("write");
        let truncated = r#"{"bench": 1, "figure": "fig3""#;
        std::fs::write(dir.join("BENCH_1.json"), truncated).expect("write");
        std::fs::write(dir.join("BENCH_x.json"), "{}").expect("write");
        std::fs::write(dir.join("notes.txt"), "").expect("write");
        let records = bench_records(&dir);
        assert_eq!(records, vec![(1, "BENCH_1.json".to_string()), (0, "BENCH_0.json".to_string())]);
        // The next run takes number 2; the malformed record is only
        // skipped when searching for a baseline.
        assert_eq!(next_bench_number(&records), 2);
        let baseline = find_baseline(&dir, &records, true).expect("BENCH_0 is comparable");
        assert_eq!(baseline.file, "BENCH_0.json");
        assert!(find_baseline(&dir, &records, false).is_none(), "scale must match");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

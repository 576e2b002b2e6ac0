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
//! drop counts.
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

use porsche::chrome::{chrome_trace_json, escape as json_escape};
use porsche::probe::AttributedLedger;
use proteus::experiment::{demo_scenario, plan_for, resolve_target, RunTarget, Scale, EXPERIMENTS};
use proteus::runner::{default_workers, PlanMetrics};
use proteus::scenario::ScenarioResult;
use proteus::series::SeriesSet;
use proteus_apps::AppKind;

fn emit(set: &SeriesSet, outdir: &Path) {
    println!("== {} ==", set.figure);
    println!("{}", set.to_table());
    let path = outdir.join(format!("{}.csv", set.figure));
    match set.write_csv(&path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!();
}

fn emit_breakdown(m: &PlanMetrics, outdir: &Path) {
    let path = outdir.join(format!("breakdown_{}.csv", m.breakdown.figure));
    match m.breakdown.write_csv(&path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// What one traced demo run contributed, for `summary.json`'s `traces`
/// section: truncated timelines must be visible, not silent.
struct TraceInfo {
    scenario: &'static str,
    output: String,
    events: usize,
    dropped: u64,
    total_cycles: u64,
}

impl TraceInfo {
    fn to_json(&self) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"output\": \"{}\", \"events\": {}, \
             \"dropped_events\": {}, \"total_cycles\": {}}}",
            json_escape(self.scenario),
            json_escape(&self.output),
            self.events,
            self.dropped,
            self.total_cycles,
        )
    }
}

/// Run the contended demo scenario of `app` with tracing enabled,
/// panicking on simulation/checksum failure and warning when the trace
/// ring overflowed (the dump is then the *tail* of the timeline).
fn run_demo(app: AppKind, quick: bool) -> ScenarioResult {
    let name = app.name();
    let result = demo_scenario(app, quick)
        .run()
        .unwrap_or_else(|e| panic!("demo scenario {name}: {e}"));
    assert!(result.all_valid(), "demo scenario {name}: checksum mismatch");
    result
}

fn warn_on_drops(name: &str, dropped: u64) {
    if dropped > 0 {
        eprintln!(
            "warning: trace ring dropped {dropped} events for {name}; \
             the dump holds only the timeline tail"
        );
    }
}

/// `--trace <app>`: dump the demo's event timeline as JSON lines.
fn dump_trace(app: AppKind, quick: bool, outdir: &Path) -> TraceInfo {
    let name = app.name();
    let result = run_demo(app, quick);
    let dropped = result.trace_dropped;
    let mut out = String::new();
    for &(at, tag, ref event) in &result.trace {
        out.push_str(&event.to_json(at, tag));
        out.push('\n');
    }
    let file = format!("trace_{name}.jsonl");
    let path = outdir.join(&file);
    match std::fs::write(&path, &out) {
        Ok(()) => println!(
            "wrote {} ({} events over {} cycles)",
            path.display(),
            result.trace.len(),
            result.total_cycles,
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    warn_on_drops(name, dropped);
    TraceInfo {
        scenario: name,
        output: file,
        events: result.trace.len(),
        dropped,
        total_cycles: result.total_cycles,
    }
}

/// `--chrome-trace <app>`: render the demo's trace ring plus per-PFU
/// residency timelines as Chrome trace-event JSON.
fn dump_chrome_trace(app: AppKind, quick: bool, outdir: &Path) -> TraceInfo {
    let name = app.name();
    let result = run_demo(app, quick);
    let dropped = result.trace_dropped;
    let json = chrome_trace_json(name, &result.trace, dropped, result.total_cycles);
    let file = format!("chrome_trace_{name}.json");
    let path = outdir.join(&file);
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} ({} events over {} cycles)",
            path.display(),
            result.trace.len(),
            result.total_cycles,
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    warn_on_drops(name, dropped);
    TraceInfo {
        scenario: name,
        output: file,
        events: result.trace.len(),
        dropped,
        total_cycles: result.total_cycles,
    }
}

/// `--flame <target>`: write a folded-stack profile. Experiment targets
/// run the whole plan on `jobs` workers and merge every job's
/// attribution (cell-wise sums commute, so the output is byte-identical
/// at any worker count); demo targets profile the single contended
/// scenario.
fn dump_flame(target: RunTarget, scale: &Scale, quick: bool, jobs: usize, outdir: &Path) {
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
    let path = outdir.join(format!("flamegraph_{name}.folded"));
    match std::fs::write(&path, &folded) {
        Ok(()) => println!(
            "wrote {} ({} stacks, {} cycles)",
            path.display(),
            folded.lines().count(),
            attributed.total(),
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn metrics_json(m: &PlanMetrics, indent: &str) -> String {
    format!(
        "{indent}{{\n\
         {indent}  \"figure\": \"{}\",\n\
         {indent}  \"jobs\": {},\n\
         {indent}  \"workers\": {},\n\
         {indent}  \"wall_seconds\": {:.6},\n\
         {indent}  \"job_wall_seconds\": {:.6},\n\
         {indent}  \"sim_cycles\": {},\n\
         {indent}  \"sim_cycles_per_host_second\": {:.1}\n\
         {indent}}}",
        json_escape(&m.figure),
        m.jobs,
        m.workers,
        m.wall.as_secs_f64(),
        m.job_wall.as_secs_f64(),
        m.sim_cycles,
        m.sim_cycles_per_host_second(),
    )
}

/// Host metadata as a JSON object: the context that makes throughput
/// numbers comparable across machines and PRs.
fn host_json(jobs: usize) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    format!(
        "{{\"rustc\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\", \"logical_cpus\": {cpus}, \"jobs\": {jobs}}}",
        json_escape(env!("PROTEUS_RUSTC_VERSION")),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// Hand-rolled `summary.json` (the workspace carries no JSON
/// dependency; the schema is small and fixed).
/// Largest per-process × per-callsite sinks surfaced in `summary.json`.
const TOP_SINKS: usize = 5;

fn summary_json(
    metrics: &[PlanMetrics],
    traces: &[TraceInfo],
    workers: usize,
    quick: bool,
    total_wall_seconds: f64,
) -> String {
    let total_jobs: usize = metrics.iter().map(|m| m.jobs).sum();
    let total_job_wall: f64 = metrics.iter().map(|m| m.job_wall.as_secs_f64()).sum();
    let total_cycles: u64 = metrics.iter().map(|m| m.sim_cycles).sum();
    let throughput =
        if total_wall_seconds > 0.0 { total_cycles as f64 / total_wall_seconds } else { 0.0 };
    let per_figure: Vec<String> = metrics.iter().map(|m| metrics_json(m, "    ")).collect();
    // Per-experiment and aggregate cycle attribution: the refold of
    // each plan's merged attribution matrix.
    let mut attributed = AttributedLedger::default();
    let per_figure_breakdown: Vec<String> = metrics
        .iter()
        .map(|m| {
            let ledger = m.attributed.refold();
            attributed.absorb(&m.attributed);
            format!("    \"{}\": {}", json_escape(&m.figure), ledger.to_json())
        })
        .collect();
    let trace_entries: Vec<String> =
        traces.iter().map(|t| format!("    {}", t.to_json())).collect();
    format!(
        "{{\n\
         \x20 \"workers\": {workers},\n\
         \x20 \"quick\": {quick},\n\
         \x20 \"host\": {},\n\
         \x20 \"experiments\": [\n{}\n  ],\n\
         \x20 \"cycle_breakdown\": {{\n{}{}\
         \x20   \"aggregate\": {}\n\
         \x20 }},\n\
         \x20 \"top_sinks\": {},\n\
         \x20 \"traces\": [{}],\n\
         \x20 \"total\": {{\n\
         \x20   \"jobs\": {total_jobs},\n\
         \x20   \"wall_seconds\": {total_wall_seconds:.6},\n\
         \x20   \"job_wall_seconds\": {total_job_wall:.6},\n\
         \x20   \"sim_cycles\": {total_cycles},\n\
         \x20   \"sim_cycles_per_host_second\": {throughput:.1}\n\
         \x20 }}\n\
         }}\n",
        host_json(workers),
        per_figure.join(",\n"),
        per_figure_breakdown.join(",\n"),
        if per_figure_breakdown.is_empty() { "" } else { ",\n" },
        attributed.refold().to_json(),
        attributed.top_sinks_json(TOP_SINKS),
        if trace_entries.is_empty() {
            String::new()
        } else {
            format!("\n{}\n  ", trace_entries.join(",\n"))
        },
    )
}

/// Extract the raw token following `"key":` in one of our own
/// hand-rolled JSON documents (no nesting-aware parsing needed: every
/// key we look up maps to a scalar on the same line).
fn json_field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let rest = doc[start..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The figure the pinned benchmark runs: fig3 is the most
/// interpreter-bound experiment (≈ 90 % of its cycles are interpreted
/// instructions), so it tracks hot-loop throughput most directly.
const BENCH_FIGURE: &str = "fig3";
/// Benchmarks always run on one worker so records measure single-thread
/// interpreter throughput, not host parallelism.
const BENCH_JOBS: usize = 1;

/// A prior benchmark record: `BENCH_<n>.json` parsed just enough to
/// compare against.
struct PriorBench {
    file: String,
    number: u32,
    figure: String,
    quick: bool,
    jobs: usize,
    throughput: f64,
}

/// Scan `outdir` for `BENCH_<n>.json` records, newest (highest `n`)
/// first.
fn prior_benches(outdir: &Path) -> Vec<PriorBench> {
    let mut found: Vec<PriorBench> = Vec::new();
    let Ok(entries) = std::fs::read_dir(outdir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(number) =
            name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json")).and_then(|s| s.parse().ok())
        else {
            continue;
        };
        let Ok(doc) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let figure = json_field(&doc, "figure").map(|v| v.trim_matches('"').to_string());
        let quick = json_field(&doc, "quick").map(|v| v == "true");
        let jobs = json_field(&doc, "jobs").and_then(|v| v.parse().ok());
        let throughput =
            json_field(&doc, "sim_cycles_per_host_second").and_then(|v| v.parse().ok());
        if let (Some(figure), Some(quick), Some(jobs), Some(throughput)) =
            (figure, quick, jobs, throughput)
        {
            found.push(PriorBench { file: name, number, figure, quick, jobs, throughput });
        }
    }
    found.sort_by_key(|b| std::cmp::Reverse(b.number));
    found
}

/// `repro --bench`: run the pinned benchmark subset on one worker,
/// append a numbered `BENCH_<n>.json` record, and compare against the
/// latest comparable record (same figure, scale and worker count). The
/// figure CSVs are *not* rewritten — bench mode measures, it does not
/// regenerate results.
fn run_bench(quick: bool, outdir: &Path) {
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

    let prior = prior_benches(outdir);
    let number = prior.first().map_or(0, |b| b.number + 1);
    let baseline = prior
        .iter()
        .find(|b| b.figure == BENCH_FIGURE && b.quick == quick && b.jobs == BENCH_JOBS);
    let baseline_json = match baseline {
        Some(b) => {
            let speedup = if b.throughput > 0.0 { throughput / b.throughput } else { 0.0 };
            let regression = speedup < 0.8;
            println!(
                "bench: vs {} ({:.3e} sim cycles/s): {speedup:.2}x{}",
                b.file,
                b.throughput,
                if regression { "  ** REGRESSION > 20% **" } else { "" },
            );
            format!(
                "{{\n    \"file\": \"{}\",\n    \"sim_cycles_per_host_second\": {:.1},\n    \
                 \"speedup\": {speedup:.4},\n    \"regression\": {regression}\n  }}",
                json_escape(&b.file),
                b.throughput,
            )
        }
        None => {
            println!("bench: no comparable baseline record in {}", outdir.display());
            "null".to_string()
        }
    };
    let record = format!(
        "{{\n\
         \x20 \"bench\": {number},\n\
         \x20 \"figure\": \"{BENCH_FIGURE}\",\n\
         \x20 \"quick\": {quick},\n\
         \x20 \"jobs\": {BENCH_JOBS},\n\
         \x20 \"sim_cycles\": {},\n\
         \x20 \"wall_seconds\": {:.6},\n\
         \x20 \"sim_cycles_per_host_second\": {throughput:.1},\n\
         \x20 \"host\": {},\n\
         \x20 \"baseline\": {baseline_json}\n\
         }}\n",
        m.sim_cycles,
        m.wall.as_secs_f64(),
        host_json(BENCH_JOBS),
    );
    let path = outdir.join(format!("BENCH_{number}.json"));
    match std::fs::write(&path, &record) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
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
        let outdir = Path::new(&outdir);
        if let Err(e) = std::fs::create_dir_all(outdir) {
            eprintln!("could not create {}: {e}", outdir.display());
        }
        run_bench(quick, outdir);
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
    let outdir = Path::new(&outdir);
    if let Err(e) = std::fs::create_dir_all(outdir) {
        eprintln!("could not create {}: {e}", outdir.display());
    }

    let t0 = Instant::now();
    let mut trace_infos: Vec<TraceInfo> = Vec::new();
    for app in &traces {
        trace_infos.push(dump_trace(*app, quick, outdir));
    }
    for app in &chrome_traces {
        trace_infos.push(dump_chrome_trace(*app, quick, outdir));
    }
    for target in &flames {
        dump_flame(*target, &scale, quick, jobs, outdir);
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
        emit(&set, outdir);
        emit_breakdown(&m, outdir);
        metrics.push(m);
    }
    let total_wall = t0.elapsed().as_secs_f64();

    if !metrics.is_empty() || !trace_infos.is_empty() {
        // Report the effective worker count (the runner clamps to each
        // plan's job count), not the raw `--jobs` request.
        let effective_workers = metrics.iter().map(|m| m.workers).max().unwrap_or(1);
        let summary = summary_json(&metrics, &trace_infos, effective_workers, quick, total_wall);
        let summary_path = outdir.join("summary.json");
        match std::fs::write(&summary_path, &summary) {
            Ok(()) => println!("wrote {}", summary_path.display()),
            Err(e) => eprintln!("could not write {}: {e}", summary_path.display()),
        }
    }
    println!("done in {total_wall:.1}s with {jobs} worker(s) (scale: {scale:?})");
}

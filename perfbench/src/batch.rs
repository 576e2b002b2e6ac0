//! Running a workload's cells as one `ExperimentPlan` batch.
//!
//! Every cell runs inside a job wrapper that turns a `KernelError`, a
//! panic, a killed process, a checksum mismatch or a broken conservation
//! law into a recorded failure, so one bad scenario never aborts the
//! batch (`ExperimentPlan::execute` itself re-raises the first job panic).

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use porsche::kernel::KernelConfig;
use porsche::probe::{AttributedLedger, CycleLedger};
use porsche::stats::KernelStats;
use proteus::{ExperimentPlan, JobOutput, Machine, MachineConfig};
use proteus_apps::{WorkloadConfig, WorkloadSpec};
use proteus_rfu::RfuConfig;

use crate::layers::{LayerSink, LayerTimes};
use crate::reference;
use crate::workloads::Cell;

/// A cell whose guest program and ground truth are built.
pub struct Prepared {
    cell: Cell,
    spec: Arc<WorkloadSpec>,
}

/// Build every cell's workload; returns them with the time
/// `WorkloadSpec::build` took in total.
pub fn prepare(cells: Vec<Cell>) -> (Vec<Prepared>, Duration) {
    let mut build = Duration::ZERO;
    let prepared = cells
        .into_iter()
        .map(|cell| {
            let t = Instant::now();
            let mut config = WorkloadConfig::new(cell.app, cell.size, cell.passes);
            config.seed = cell.data_seed;
            let spec = Arc::new(WorkloadSpec::build(config));
            build += t.elapsed();
            Prepared { cell, spec }
        })
        .collect();
    (prepared, build)
}

/// The simulated outputs of one cell: what every repetition, traced or
/// not, must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutput {
    /// Completion cycle of the last process.
    pub makespan: u64,
    /// Simulated clock at the end of the run.
    pub total_cycles: u64,
    /// Where every simulated cycle went.
    pub ledger: CycleLedger,
    /// Per-process × per-callsite attribution of the same cycles.
    pub attributed: AttributedLedger,
    /// Kernel management statistics.
    pub stats: KernelStats,
}

impl SimOutput {
    /// The first field in which `self` and `other` differ.
    pub fn first_difference(&self, other: &SimOutput) -> Option<&'static str> {
        [
            ("makespan", self.makespan != other.makespan),
            ("total cycles", self.total_cycles != other.total_cycles),
            ("cycle ledger", self.ledger != other.ledger),
            ("attributed ledger refold", self.attributed.refold() != other.attributed.refold()),
            ("attributed ledger", self.attributed != other.attributed),
            ("kernel stats", self.stats != other.stats),
        ]
        .into_iter()
        .find_map(|(name, differs)| differs.then_some(name))
    }
}

/// Host-time marks inside one job.
#[derive(Debug, Clone, Copy, Default)]
struct RunMarks {
    run_start: Option<Instant>,
    run_end: Option<Instant>,
}

/// What one job left behind.
#[derive(Debug)]
pub struct JobRecord {
    /// The cell's label.
    pub label: String,
    /// The scenario's outputs, or why it failed.
    pub outcome: Result<SimOutput, String>,
    /// Host time of the whole job.
    pub wall: Duration,
    /// Host time outside `Machine::run`: machine build, spawns, result
    /// checks and teardown.
    pub glue: Duration,
    /// `Machine::run` end minus the last traced event.
    pub tail: Duration,
    /// Layer times (traced runs only).
    pub layers: Option<LayerTimes>,
    /// Host time of the reference loop run just before the job (timed
    /// runs only).
    pub reference: Option<Duration>,
    end: Instant,
    worker: ThreadId,
}

/// One execution of a workload's cells.
#[derive(Debug)]
pub struct Batch {
    /// Host time of `ExperimentPlan::execute`.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// One record per cell, in cell order.
    pub records: Vec<JobRecord>,
    start: Instant,
    end: Instant,
}

type Slots = Arc<Vec<Mutex<Option<JobRecord>>>>;

/// How a batch runs its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced, each job preceded by the reference loop on its thread.
    Timed,
    /// Untraced, without the reference loop.
    Untraced,
    /// With the layer sink attached.
    Traced,
}

/// Build the plan for one batch; each job writes its record to its slot.
pub fn plan(cells: &[Prepared], mode: Mode) -> (ExperimentPlan, Slots) {
    let slots: Slots = Arc::new(cells.iter().map(|_| Mutex::new(None)).collect());
    let mut plan = ExperimentPlan::new("perfbench");
    for (i, p) in cells.iter().enumerate() {
        let cell = p.cell.clone();
        let spec = Arc::clone(&p.spec);
        let slots = Arc::clone(&slots);
        plan.push_job(cell.label.clone(), move || {
            let record = run_job(&cell, &spec, mode);
            let (makespan, cycles) =
                record.outcome.as_ref().map_or((0, 0), |o| (o.makespan, o.total_cycles));
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(record);
            JobOutput::point(i as f64, makespan as f64, cycles)
        });
    }
    (plan, slots)
}

/// Run one batch of `cells` on `workers` threads.
pub fn run(cells: &[Prepared], mode: Mode, workers: usize) -> Batch {
    let (plan, slots) = plan(cells, mode);
    let start = Instant::now();
    let (_, metrics) = plan.execute(workers);
    let end = Instant::now();
    let records = slots
        .iter()
        .zip(cells)
        .map(|(slot, p)| {
            slot.lock().unwrap_or_else(PoisonError::into_inner).take().unwrap_or_else(|| {
                JobRecord {
                    label: p.cell.label.clone(),
                    outcome: Err(format!("{}: job left no record", p.cell.label)),
                    wall: Duration::ZERO,
                    glue: Duration::ZERO,
                    tail: Duration::ZERO,
                    layers: None,
                    reference: None,
                    end,
                    worker: thread::current().id(),
                }
            })
        })
        .collect();
    Batch { wall: end - start, workers: metrics.workers, records, start, end }
}

/// The job wrapper: time the job and record any failure as data.
fn run_job(cell: &Cell, spec: &WorkloadSpec, mode: Mode) -> JobRecord {
    let reference = (mode == Mode::Timed).then(reference::run);
    let start = Instant::now();
    let mut marks = RunMarks::default();
    let layers = (mode == Mode::Traced).then(|| Arc::new(Mutex::new(LayerTimes::default())));
    let outcome =
        panic::catch_unwind(AssertUnwindSafe(|| run_cell(cell, spec, layers.clone(), &mut marks)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_owned());
                Err(format!("panic: {msg}"))
            })
            .map_err(|e| format!("{}: {e}", cell.label));
    let end = Instant::now();
    let layers = layers.map(|l| *l.lock().unwrap_or_else(PoisonError::into_inner));
    let (glue, tail) = match (marks.run_start, marks.run_end) {
        (Some(rs), Some(re)) => {
            let last = layers.and_then(|l| l.last_event).unwrap_or(re);
            ((rs - start) + (end - re), re.saturating_duration_since(last))
        }
        _ => (end - start, Duration::ZERO),
    };
    JobRecord {
        label: cell.label.clone(),
        outcome,
        wall: end - start,
        glue,
        tail,
        layers,
        reference,
        end,
        worker: thread::current().id(),
    }
}

/// Build the machine, spawn the instances, run to completion and check
/// every output the paper's figures rest on.
fn run_cell(
    cell: &Cell,
    spec: &WorkloadSpec,
    layers: Option<Arc<Mutex<LayerTimes>>>,
    marks: &mut RunMarks,
) -> Result<SimOutput, String> {
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig {
            quantum: cell.quantum,
            policy: cell.policy,
            mode: cell.mode,
            faults: cell.faults,
            recovery: cell.recovery,
            ..KernelConfig::default()
        },
        rfu: RfuConfig { pfus: 4, watchdog_cycles: cell.watchdog, ..RfuConfig::default() },
    });
    for _ in 0..cell.instances {
        machine.spawn(spec.spawn_spec(cell.software_alts)).map_err(|e| e.to_string())?;
    }
    let run_start = Instant::now();
    if let Some(out) = layers {
        machine.add_sink(Box::new(LayerSink::starting_at(run_start, out)));
    }
    marks.run_start = Some(run_start);
    let report = machine.run(cell.cycle_limit);
    marks.run_end = Some(Instant::now());
    let report = report.map_err(|e| e.to_string())?;
    let total_cycles = machine.cycles();
    // Dropping the machine drops the sink, which hands over its times.
    drop(machine);

    let expected = spec.expected_checksum();
    if !report.killed.is_empty() {
        return Err(format!("killed pids {:?}", report.killed));
    }
    if report.exited.len() != cell.instances {
        return Err(format!("{} of {} instances exited", report.exited.len(), cell.instances));
    }
    if let Some(&(pid, _, code)) = report.exited.iter().find(|(_, _, code)| *code != expected) {
        return Err(format!("pid {pid} checksum {code:#010x}, expected {expected:#010x}"));
    }
    if report.ledger.total() != total_cycles {
        return Err(format!("ledger total {} != clock {total_cycles}", report.ledger.total()));
    }
    if report.attributed.refold() != report.ledger {
        return Err("attributed ledger does not refold to the global ledger".to_owned());
    }
    Ok(SimOutput {
        makespan: report.makespan,
        total_cycles,
        ledger: report.ledger,
        attributed: report.attributed,
        stats: report.stats,
    })
}

impl Batch {
    /// The successful outputs, one per cell (`None` where a cell failed).
    pub fn outputs(&self) -> Vec<Option<&SimOutput>> {
        self.records.iter().map(|r| r.outcome.as_ref().ok()).collect()
    }

    /// Sum of per-job wall times.
    pub fn job_wall(&self) -> Duration {
        self.records.iter().map(|r| r.wall).sum()
    }

    /// Summed job wall over `wall × workers`.
    pub fn parallel_eff(&self) -> f64 {
        self.job_wall().as_secs_f64() / (self.wall.as_secs_f64() * self.workers as f64)
    }

    /// How long the busiest worker ran on after the first worker went
    /// idle for good.
    pub fn straggler(&self) -> Duration {
        let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
        for r in &self.records {
            match last_end.iter_mut().find(|(w, _)| *w == r.worker) {
                Some((_, end)) => *end = (*end).max(r.end),
                None => last_end.push((r.worker, r.end)),
            }
        }
        let latest = last_end.iter().map(|&(_, e)| e).max().unwrap_or(self.start);
        // A worker that never got a job went idle at the start.
        let earliest = if last_end.len() < self.workers {
            self.start
        } else {
            last_end.iter().map(|&(_, e)| e).min().unwrap_or(self.start)
        };
        latest - earliest
    }

    /// Host time spent around the simulations: per-job glue outside
    /// `Machine::run` plus the plan's assembly after the last job.
    pub fn assembly(&self) -> Duration {
        let last_job = self.records.iter().map(|r| r.end).max().unwrap_or(self.start);
        self.records.iter().map(|r| r.glue).sum::<Duration>() + (self.end - last_job)
    }

    /// Summed layer times of a traced batch.
    pub fn layers(&self) -> LayerTimes {
        let mut total = LayerTimes::default();
        for l in self.records.iter().filter_map(|r| r.layers.as_ref()) {
            total.absorb(l);
        }
        total
    }

    /// Share of summed job wall that the layers (cpu, scheduler, CIS,
    /// fault ladder, runner glue) account for, and the unaccounted
    /// remainder.
    pub fn coverage(&self) -> (f64, Duration) {
        let accounted: Duration =
            self.layers().charged() + self.records.iter().map(|r| r.glue).sum::<Duration>();
        let wall = self.job_wall();
        (accounted.as_secs_f64() / wall.as_secs_f64(), wall.saturating_sub(accounted))
    }
}

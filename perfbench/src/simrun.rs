//! Full-stack simulation jobs: a fresh engine and scheduler per job, built
//! from cheap clones of set-up handles, with every `Scheduler::schedule`
//! call timed by a forwarding decorator.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hotpotato::{HotPotato, HotPotatoConfig, RotationPeakSolver};
use hp_manycore::Machine;
use hp_sched::{PcMig, PcMigConfig};
use hp_sim::{
    Action, Metrics, RunOptions, Scheduler, SchedulerHealth, SimConfig, SimError, SimView,
    Simulation, ThreadView,
};
use hp_thermal::{RcThermalModel, TransientSolver};
use hp_workload::Job;

use crate::hostref::{self, Stopwatch};
use crate::trace::Tracer;
use crate::Checks;

/// A completed job may not exceed the DTM threshold by more than this, °C.
const PEAK_MARGIN_C: f64 = 1.0;
/// Wall-clock watchdog per job: a job still running after this aborts.
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// Thread placements are captured for probe replay at every
/// `CAPTURE_EVERY`-th hook of the first round.
const CAPTURE_EVERY: u64 = 4;
/// Rounds every pass runs, however short its seconds.
pub const MIN_ROUNDS: u64 = 3;
/// Jobs of the first round that are run again to check that a job's
/// simulated statistics repeat exactly.
const RERUN_JOBS: usize = 8;

/// The chip handles a job's engine and scheduler are cloned from.
pub struct SimHandles {
    pub machine: Machine,
    pub model: RcThermalModel,
    pub transient: TransientSolver,
    pub solver: RotationPeakSolver,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    HotPotato,
    PcMig,
}

/// One simulation job of a round.
pub struct SimJob {
    pub label: String,
    pub policy: Policy,
    pub jobs: Vec<Job>,
    pub config: SimConfig,
    /// Whether the job must stay within `T_DTM + 1 °C` (fault-free jobs).
    pub peak_limited: bool,
}

/// Simulated statistics that must repeat exactly for the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    makespan_bits: u64,
    peak_bits: u64,
    migrations: u64,
    dtm_intervals: u64,
}

impl Fingerprint {
    fn of(m: &Metrics) -> Self {
        Fingerprint {
            makespan_bits: m.makespan.to_bits(),
            peak_bits: m.peak_temperature.to_bits(),
            migrations: m.migrations,
            dtm_intervals: m.dtm_intervals,
        }
    }

    /// Makespan bits, peak bits and migrations: what a campaign job's
    /// outcome records of the same run.
    pub fn outcome(&self) -> (u64, u64, u64) {
        (self.makespan_bits, self.peak_bits, self.migrations)
    }
}

/// Times every `schedule` call of the wrapped scheduler and optionally
/// snapshots the threads it was shown; forwards everything else.
struct Timed<'a> {
    inner: &'a mut dyn Scheduler,
    span: &'static str,
    tracer: &'a Tracer,
    samples: &'a mut Vec<f64>,
    capture: Option<&'a mut Vec<Vec<ThreadView>>>,
    hooks: u64,
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        if let Some(capture) = self.capture.as_deref_mut() {
            if self.hooks.is_multiple_of(CAPTURE_EVERY) {
                capture.push(view.threads.to_vec());
            }
        }
        self.hooks += 1;
        let t = Stopwatch::start();
        let actions = self.tracer.span(self.span, || self.inner.schedule(view));
        self.samples.push(t.seconds());
        hostref::tick(self.tracer);
        actions
    }

    fn health(&self) -> SchedulerHealth {
        self.inner.health()
    }

    fn observability(&self) -> Option<hp_obs::RunReport> {
        self.inner.observability()
    }

    fn snapshot(&self) -> Option<String> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore(state)
    }
}

/// Raw samples and totals of a simulation phase.
#[derive(Debug, Default)]
pub struct SimResult {
    /// Reference seconds (`hostref`) of each HotPotato `schedule` call.
    pub hook_hp_s: Vec<f64>,
    /// Reference seconds of each PCMig `schedule` call.
    pub hook_pcmig_s: Vec<f64>,
    /// Algorithm-1 evaluations HotPotato performed.
    pub hp_evaluations: u64,
    /// Simulated seconds over every job.
    pub simulated_s: f64,
    /// Engine intervals over every job.
    pub intervals: u64,
    /// Jobs attempted.
    pub jobs: u64,
    pub failed: u64,
    pub rounds: u64,
    /// Per-round reference seconds, simulated time and completed jobs.
    pub per_round: Vec<RoundStats>,
    /// Makespans (s) and peaks (°C) of the completed jobs of the first
    /// [`MIN_ROUNDS`] rounds.
    pub makespans_s: Vec<f64>,
    pub peaks_c: Vec<f64>,
    /// Fingerprints of the jobs of the first [`MIN_ROUNDS`] rounds, in
    /// order.
    pub fingerprints: Vec<Option<Fingerprint>>,
    pub migration_faults: u64,
    pub dropped_actions: u64,
    /// Thread placements captured in the first round.
    pub captured: Vec<Vec<ThreadView>>,
}

/// What one round of jobs took and produced.
#[derive(Debug)]
pub struct RoundStats {
    pub wall_s: f64,
    /// Reference seconds of each job, in round order.
    pub job_wall_s: Vec<f64>,
    pub simulated_s: f64,
    pub completed: u64,
}

impl SimResult {
    /// Simulated seconds, completed jobs and reference seconds of every
    /// job of every round.
    pub fn round_times(&self) -> (f64, u64, f64) {
        self.per_round
            .iter()
            .fold((0.0, 0, 0.0), |(sim, done, wall), r| {
                (
                    sim + r.simulated_s,
                    done + r.completed,
                    wall + r.job_wall_s.iter().sum::<f64>(),
                )
            })
    }
}

/// Runs one round: every job of `round`, recording what the round took.
/// The first round's threads are captured for probe replay; makespans,
/// peaks and fingerprints are kept for the first [`MIN_ROUNDS`] rounds,
/// which every pass runs, so that they depend on the seed alone.
pub fn run_round(
    handles: &SimHandles,
    round: &[SimJob],
    out: &mut SimResult,
    tracer: &Tracer,
    checks: &mut Checks,
) {
    let (capture, record) = (out.rounds == 0, out.rounds < MIN_ROUNDS);
    let round_start = Stopwatch::start();
    let (simulated0, completed0) = (out.simulated_s, out.jobs - out.failed);
    let mut job_wall_s = Vec::with_capacity(round.len());
    for job in round {
        let t = Stopwatch::start();
        let fp = run_job(handles, job, capture, record, tracer, checks, out);
        job_wall_s.push(t.seconds());
        hostref::tick(tracer);
        if record {
            out.fingerprints.push(fp);
        }
    }
    out.per_round.push(RoundStats {
        wall_s: round_start.seconds(),
        job_wall_s,
        simulated_s: out.simulated_s - simulated0,
        completed: out.jobs - out.failed - completed0,
    });
    out.rounds += 1;
}

/// Runs the first [`RERUN_JOBS`] jobs of the first round again, untimed,
/// and checks that each reproduces its fingerprint bit for bit. Counts the
/// jobs in `out.jobs` and every one that differs in `out.failed`.
pub fn rerun_check(
    handles: &SimHandles,
    first_round: &[SimJob],
    out: &mut SimResult,
    tracer: &Tracer,
    checks: &mut Checks,
) {
    let mut scratch = SimResult::default();
    for (job, recorded) in first_round
        .iter()
        .zip(out.fingerprints.clone())
        .take(RERUN_JOBS)
    {
        let fp = run_job(handles, job, false, false, tracer, checks, &mut scratch);
        if fp.is_some() && fp != recorded {
            scratch.failed += 1;
            checks.fail(&format!(
                "{}: simulated statistics differ when the job is run again",
                job.label
            ));
        }
    }
    out.jobs += scratch.jobs;
    out.failed += scratch.failed;
}

/// Runs one job; returns its fingerprint when it completed. `capture`
/// snapshots the threads at hooks for probe replay; `record` keeps the
/// job's makespan and peak.
fn run_job(
    handles: &SimHandles,
    job: &SimJob,
    capture: bool,
    record: bool,
    tracer: &Tracer,
    checks: &mut Checks,
    out: &mut SimResult,
) -> Option<Fingerprint> {
    out.jobs += 1;
    let sim = tracer.span("sim.with_thermal", || {
        Simulation::with_thermal(
            handles.machine.clone(),
            handles.model.clone(),
            handles.transient.clone(),
            job.config,
        )
    });
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            out.failed += 1;
            checks.fail(&format!("{}: engine construction: {e}", job.label));
            return None;
        }
    };
    let mut hotpotato: Option<HotPotato> = None;
    let mut pcmig: Option<PcMig> = None;
    let (inner, span, samples): (&mut dyn Scheduler, _, _) = match job.policy {
        Policy::HotPotato => {
            let built = tracer.span("core.with_solver", || {
                HotPotato::with_solver(handles.solver.clone(), HotPotatoConfig::default())
            });
            match built {
                Ok(s) => (hotpotato.insert(s), "core.hook", &mut out.hook_hp_s),
                Err(e) => {
                    out.failed += 1;
                    checks.fail(&format!("{}: scheduler construction: {e}", job.label));
                    return None;
                }
            }
        }
        Policy::PcMig => {
            let built = tracer.span("sched.new", || {
                PcMig::new(handles.model.clone(), PcMigConfig::default())
            });
            (pcmig.insert(built), "sched.hook", &mut out.hook_pcmig_s)
        }
    };
    let mut timed = Timed {
        inner,
        span,
        tracer,
        samples,
        capture: capture.then_some(&mut out.captured),
        hooks: 0,
    };
    let options = RunOptions {
        deadline: Some(Instant::now() + JOB_DEADLINE),
        ..RunOptions::default()
    };
    let workload = job.jobs.clone();
    let run = tracer.span("sim.run", || {
        catch_unwind(AssertUnwindSafe(|| {
            sim.run_with_options(workload, &mut timed, &options)
        }))
    });
    out.hp_evaluations += hotpotato.as_ref().map_or(0, HotPotato::evaluations);
    let metrics = match run {
        Ok(Ok(m)) => m,
        Ok(Err(e)) => {
            out.failed += 1;
            if let SimError::Aborted { partial, .. } = &e {
                account(out, partial);
            }
            checks.fail(&format!("{}: {e}", job.label));
            return None;
        }
        Err(_) => {
            out.failed += 1;
            checks.fail(&format!("{}: simulation panicked", job.label));
            return None;
        }
    };
    account(out, &metrics);
    tracer.span("obs.report_json", || {
        std::hint::black_box(metrics.observability.to_json_string())
    });
    let t_dtm = job.config.t_dtm;
    let too_hot = job.peak_limited && metrics.peak_temperature > t_dtm + PEAK_MARGIN_C;
    if metrics.completed_jobs() != metrics.jobs.len() || too_hot {
        out.failed += 1;
        checks.fail(&format!(
            "{}: {}/{} jobs completed, peak {:.3} °C (limit {:.1} °C)",
            job.label,
            metrics.completed_jobs(),
            metrics.jobs.len(),
            metrics.peak_temperature,
            t_dtm + PEAK_MARGIN_C
        ));
        return None;
    }
    if record {
        out.makespans_s.push(metrics.makespan);
        out.peaks_c.push(metrics.peak_temperature);
    }
    Some(Fingerprint::of(&metrics))
}

/// Folds one run's simulated totals into the phase result.
fn account(out: &mut SimResult, m: &Metrics) {
    out.simulated_s += m.simulated_time;
    out.intervals += m.observability.counter("engine.intervals").unwrap_or(0);
    out.migration_faults += m.robustness.migration_faults;
    out.dropped_actions += m.robustness.dropped_actions;
}

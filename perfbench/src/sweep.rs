//! The 4×4 scenario sweep: a seeded `SweepSpec` run through
//! `run_campaign`, plus the round of its jobs the benchmark drives itself
//! to time scheduler hooks.

use std::path::Path;
use std::time::Instant;

use hp_campaign::{
    run_campaign, CampaignConfig, CampaignJob, JobStatus, SweepSpec, Workload, SCHEDULER_NAMES,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::hostref;
use crate::simrun::{Fingerprint, Policy, SimJob};
use crate::trace::Tracer;
use crate::Checks;

/// Campaign workers: the core count of the reference machine, fixed so
/// that runs on larger machines stay comparable.
pub const WORKERS: usize = 2;
/// Benchmarks of the sweep; `mixed` is the open Poisson system.
const BENCHMARKS: [&str; 4] = ["blackscholes", "canneal", "x264", "mixed"];
/// Workload seeds per scenario.
const SEEDS_PER_SCENARIO: usize = 5;
/// Fewest campaigns per run; each runs a fresh seeded spec.
pub const MIN_CAMPAIGNS: u64 = 3;
/// A campaign job may run this long before the runner's watchdog aborts it.
const JOB_TIMEOUT_S: f64 = 60.0;
/// Jobs per `run_campaign` call of a campaign (see [`run_campaign_once`]).
const CHUNK_JOBS: usize = 64;
/// The abort cause of the known scheduler defect.
const KNOWN_DEFECT: &str = "multiply occupied";
/// Schedulers whose open-system (`mixed`) jobs abort under the faulted
/// plan with the known defect ([`KNOWN_DEFECT`]).
const DEFECT_SCHEDULERS: [&str; 3] = ["hotpotato", "hybrid", "fallback"];

/// The seeded sweep spec: every scheduler × {blackscholes, canneal, x264,
/// mixed} × loads {0.5, 1} × five workload seeds × {inert, faulted} on the
/// 4×4 chip.
pub fn spec_json(rng: &mut StdRng) -> String {
    let quoted = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let seeds: Vec<String> = (0..SEEDS_PER_SCENARIO)
        .map(|_| rng.gen_range(1u64..1_000_000).to_string())
        .collect();
    let fault_seed = rng.gen_range(1u64..1_000_000);
    format!(
        "{{\"schedulers\":[{}],\"benchmarks\":[{}],\"loads\":[0.5,1.0],\"grids\":[\"4x4\"],\
         \"seeds\":[{}],\"fault_plans\":[{{}},{{\"seed\":{fault_seed},\
         \"sensor_noise_sigma_celsius\":0.5,\"sensor_dropout_rate\":0.02,\
         \"migration_failure_rate\":0.05}}]}}",
        quoted(SCHEDULER_NAMES),
        quoted(&BENCHMARKS),
        seeds.join(",")
    )
}

/// Parses and expands the spec (the sweep's set-up).
pub fn expand(spec: &str, tracer: &Tracer) -> Result<Vec<CampaignJob>, String> {
    tracer.span("campaign.expand", || {
        SweepSpec::from_json_str(spec)
            .and_then(|s| s.expand())
            .map_err(|e| e.to_string())
    })
}

/// Splits the expanded jobs into the timed campaign's and the known
/// defect's: the faulted `mixed` jobs of [`DEFECT_SCHEDULERS`]. Those abort
/// in every campaign, and how many of them the timed seconds fit would make
/// the failure count a property of the host's speed; they run once per run
/// instead ([`run_known_defect`]).
pub fn split_known_defect(jobs: Vec<CampaignJob>) -> (Vec<CampaignJob>, Vec<CampaignJob>) {
    jobs.into_iter().partition(|job| {
        !(DEFECT_SCHEDULERS.contains(&job.scheduler.as_str())
            && matches!(job.workload, Workload::OpenPoisson { .. })
            && !job.sim.faults.is_inert())
    })
}

/// Runs the known defect's jobs once, untimed. Each abort with the known
/// cause is listed as the known defect; any other outcome than completion
/// fails a check. Returns the number of aborts with the known cause.
pub fn run_known_defect(
    jobs: &[CampaignJob],
    out_dir: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
) -> u64 {
    let _ = std::fs::remove_dir_all(out_dir);
    let config = CampaignConfig {
        workers: WORKERS,
        out_dir: Some(out_dir.to_path_buf()),
        job_timeout_seconds: Some(JOB_TIMEOUT_S),
        ..CampaignConfig::default()
    };
    let report = match tracer.span("campaign.run", || run_campaign(jobs, &config)) {
        Ok(r) => r,
        Err(e) => {
            checks.fail(&format!("run_campaign (known defect jobs): {e}"));
            return 0;
        }
    };
    let mut aborts = 0;
    for o in &report.jobs {
        match o.status {
            JobStatus::Completed | JobStatus::DegradedNumerics => {}
            JobStatus::Aborted if o.cause.contains(KNOWN_DEFECT) => {
                aborts += 1;
                checks.known_defect(&format!("{}: {}", o.label, o.cause));
            }
            status => checks.fail(&format!("{}: {}: {}", o.label, status.label(), o.cause)),
        }
    }
    aborts
}

/// Totals of the campaign loop.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// Per campaign: reference seconds (`hostref`) inside `run_campaign`,
    /// completed jobs and simulated seconds.
    pub per_campaign: Vec<(f64, u64, f64)>,
    pub campaigns: u64,
    pub jobs: u64,
    pub failed: u64,
    pub simulated_s: f64,
    /// Makespans (s) and peaks (°C) of the completed jobs of the first
    /// [`MIN_CAMPAIGNS`] campaigns.
    pub makespans_s: Vec<f64>,
    pub peaks_c: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Per-job labels and outcomes of the first campaign.
    first: Vec<(String, JobKey)>,
}

/// What the decorator check compares: status, makespan and peak bits,
/// migrations.
type JobKey = (&'static str, u64, u64, u64);

/// Runs one campaign as consecutive `run_campaign` calls of
/// [`CHUNK_JOBS`] jobs, writing each call's manifest and per-job reports
/// under `out_dir` (emptied first). Makespans and peaks are kept for the
/// first [`MIN_CAMPAIGNS`] campaigns, which every pass runs, and the per-job
/// outcomes of the first for the decorator check.
///
/// The campaign's two workers leave no point inside a call to time the
/// reference kernel, and they run on both vCPUs, which a burst on this
/// thread alone does not see: the same campaign of one seed took 2.8 to
/// 3.9 s of wall time in four runs. So a two-thread burst
/// (`hostref::pair_factor`) is taken between calls, and each call's wall
/// time is read at the mean of the bursts before and after it.
pub fn run_campaign_once(
    jobs: &[CampaignJob],
    out_dir: &Path,
    out: &mut CampaignResult,
    tracer: &Tracer,
    checks: &mut Checks,
) {
    let _ = std::fs::remove_dir_all(out_dir);
    out.jobs += jobs.len() as u64;
    out.campaigns += 1;
    let first = out.campaigns == 1;
    let record = out.campaigns <= MIN_CAMPAIGNS;
    let (failed0, simulated0) = (out.failed, out.simulated_s);
    let mut reference_s = 0.0;
    let mut factor = hostref::pair_factor(tracer);
    for (k, chunk) in jobs.chunks(CHUNK_JOBS).enumerate() {
        let config = CampaignConfig {
            workers: WORKERS,
            out_dir: Some(out_dir.join(format!("call-{k:03}"))),
            job_timeout_seconds: Some(JOB_TIMEOUT_S),
            ..CampaignConfig::default()
        };
        let t = Instant::now();
        let report = tracer.span("campaign.run", || run_campaign(chunk, &config));
        let wall_s = t.elapsed().as_secs_f64();
        let next = hostref::pair_factor(tracer);
        reference_s += wall_s * (factor + next) / 2.0;
        factor = next;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.failed += chunk.len() as u64;
                checks.fail(&format!("run_campaign: {e}"));
                continue;
            }
        };
        tracer.span("campaign.report_json", || {
            std::hint::black_box(report.to_json_string())
        });
        let counter = |name: &str| report.campaign.counter(name).unwrap_or(0);
        out.cache_hits += counter("campaign.cache.hits");
        out.cache_misses += counter("campaign.cache.misses");
        for o in &report.jobs {
            out.simulated_s += o.simulated_seconds;
            match o.status {
                JobStatus::Completed | JobStatus::DegradedNumerics => {
                    if record {
                        out.makespans_s.push(o.makespan_seconds);
                        out.peaks_c.push(o.peak_celsius);
                    }
                }
                status => {
                    out.failed += 1;
                    checks.fail(&format!("{}: {}: {}", o.label, status.label(), o.cause));
                }
            }
            if first {
                out.first.push((
                    o.label.clone(),
                    (
                        o.status.label(),
                        o.makespan_seconds.to_bits(),
                        o.peak_celsius.to_bits(),
                        o.migrations,
                    ),
                ));
            }
        }
    }
    out.per_campaign.push((
        reference_s,
        jobs.len() as u64 - (out.failed - failed0),
        out.simulated_s - simulated0,
    ));
}

impl CampaignResult {
    /// Simulated seconds, completed jobs and reference seconds of every
    /// campaign.
    pub fn campaign_times(&self) -> (f64, u64, f64) {
        self.per_campaign.iter().fold(
            (0.0, 0, 0.0),
            |(sim, done, wall), &(w, completed, simulated)| {
                (sim + simulated, done + completed, wall + w)
            },
        )
    }
}

/// The decorator check. Every job of the directly driven round ran through
/// the timing decorator; the job with the same label in the first campaign
/// ran undecorated. Their outcomes (completed or not, makespan, peak,
/// migrations) must be identical. Returns the number of jobs that differ.
pub fn check_decorator(
    round: &[SimJob],
    fingerprints: &[Option<Fingerprint>],
    campaign: &CampaignResult,
    checks: &mut Checks,
) -> u64 {
    let completed = JobStatus::Completed.label();
    let mut differing = 0;
    for (job, fp) in round.iter().zip(fingerprints) {
        let undecorated = campaign
            .first
            .iter()
            .find(|(label, _)| *label == job.label)
            .map(|&(_, (status, makespan, peak, migrations))| {
                (status == completed).then_some((makespan, peak, migrations))
            });
        if undecorated != Some(fp.map(|f| f.outcome())) {
            differing += 1;
            checks.fail(&format!(
                "{}: the decorated run and the campaign's undecorated run differ",
                job.label
            ));
        }
    }
    differing
}

/// The round the benchmark drives itself: every closed-batch HotPotato and
/// PCMig job of the sweep. The open-system (`mixed`) jobs stay in the
/// campaign only: their hook count is set by the Poisson draw (an idle chip
/// between arrivals still gets a hook every period), so their hooks would
/// make the hook quantiles a property of the draw rather than of the
/// scheduler.
pub fn direct_round(jobs: &[CampaignJob], tracer: &Tracer) -> Vec<SimJob> {
    jobs.iter()
        .filter(|job| matches!(job.workload, Workload::Closed { .. }))
        .filter_map(|job| {
            let policy = match job.scheduler.as_str() {
                "hotpotato" => Policy::HotPotato,
                "pcmig" => Policy::PcMig,
                _ => return None,
            };
            Some(SimJob {
                label: job.label.clone(),
                policy,
                jobs: tracer.span("workload.gen", || job.workload.materialize()),
                config: job.sim,
                peak_limited: job.sim.faults.is_inert(),
            })
        })
        .collect()
}

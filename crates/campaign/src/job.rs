//! One executable unit of a campaign.
//!
//! A [`CampaignJob`] is a fully materialized scenario: scheduler name,
//! grid, workload and engine configuration. Declarative sweeps expand a
//! [`SweepSpec`](crate::SweepSpec) into a job vector; experiment
//! binaries with needs beyond the spec grammar (pinned cores, fixed τ)
//! construct jobs programmatically and feed them to the same runner.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_floorplan::CoreId;
use hp_sched::{
    FallbackChain, FallbackConfig, HotPotatoDvfs, PcGov, PcMig, PcMigConfig, TspUniform,
};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{Scheduler, SimConfig};
use hp_workload::{closed_batch, open_poisson, Benchmark, Job};

use crate::cache::{ChipArtifacts, ThermalProfile};
use crate::error::{CampaignError, Result};

/// Scheduler names accepted by [`build_scheduler`], mirroring the CLI.
pub const SCHEDULER_NAMES: &[&str] = &[
    "hotpotato",
    "hybrid",
    "fallback",
    "pcmig",
    "pcgov",
    "tsp",
    "pinned",
];

/// The workload dimension of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// `closed_batch(benchmark, cores, seed)`: vari-sized instances of
    /// one benchmark filling `cores` cores, all arriving at t = 0.
    Closed {
        /// The benchmark to instantiate.
        benchmark: Benchmark,
        /// Total cores the batch fills.
        cores: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `open_poisson(count, rate, seed)`: a heterogeneous open system.
    OpenPoisson {
        /// Number of arriving jobs.
        count: usize,
        /// Poisson arrival rate, jobs per second.
        rate_per_s: f64,
        /// Generator seed.
        seed: u64,
    },
    /// An explicit, caller-built job list (programmatic campaigns).
    Explicit(Vec<Job>),
}

impl Workload {
    /// Instantiates the engine's job vector.
    pub fn materialize(&self) -> Vec<Job> {
        match self {
            Workload::Closed {
                benchmark,
                cores,
                seed,
            } => closed_batch(*benchmark, (*cores).max(1), *seed),
            Workload::OpenPoisson {
                count,
                rate_per_s,
                seed,
            } => open_poisson((*count).max(1), *rate_per_s, *seed),
            Workload::Explicit(jobs) => jobs.clone(),
        }
    }

    /// A canonical one-line description (digest + report input).
    pub fn describe(&self) -> String {
        match self {
            Workload::Closed {
                benchmark,
                cores,
                seed,
            } => format!("closed:{}:{cores}:{seed}", benchmark.name()),
            Workload::OpenPoisson {
                count,
                rate_per_s,
                seed,
            } => format!("open:{count}:{rate_per_s}:{seed}"),
            Workload::Explicit(jobs) => {
                let mut s = String::from("explicit");
                for j in jobs {
                    s.push_str(&format!(
                        ":{}x{}@{}",
                        j.benchmark.name(),
                        j.spec.thread_count(),
                        j.arrival
                    ));
                }
                s
            }
        }
    }
}

/// One scenario of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJob {
    /// Stable human-readable identifier, unique within the campaign.
    pub label: String,
    /// Scheduler name (see [`SCHEDULER_NAMES`]).
    pub scheduler: String,
    /// Chip grid `(width, height)`.
    pub grid: (usize, usize),
    /// The workload to run.
    pub workload: Workload,
    /// Engine configuration (horizon, DTM, faults, tracing).
    pub sim: SimConfig,
    /// Named RC parameter set (the model-cache key alongside the grid).
    pub thermal: ThermalProfile,
    /// Fixed rotation interval for HotPotato-family schedulers, seconds
    /// (`None` keeps the default adaptive τ ladder).
    pub fixed_tau_seconds: Option<f64>,
    /// Preferred placement cores for `pinned` / `tsp` (empty = default).
    pub preferred_cores: Vec<usize>,
    /// Keep the hottest-junction trace series in the job outcome
    /// (requires `sim.record_trace`).
    pub keep_peak_series: bool,
}

impl CampaignJob {
    /// A job with default engine settings for the given coordinates.
    pub fn new(
        label: impl Into<String>,
        scheduler: impl Into<String>,
        grid: (usize, usize),
        workload: Workload,
        sim: SimConfig,
    ) -> Self {
        CampaignJob {
            label: label.into(),
            scheduler: scheduler.into(),
            grid,
            workload,
            sim,
            thermal: ThermalProfile::default(),
            fixed_tau_seconds: None,
            preferred_cores: Vec::new(),
            keep_peak_series: false,
        }
    }

    /// FNV-1a digest over the job's scenario coordinates, used by the
    /// resume manifest to detect spec drift: a completed job is only
    /// reused when its recorded digest matches the current expansion.
    pub fn digest(&self) -> u64 {
        let desc = format!(
            "{}|{}|{}x{}|{}|h={}|dt={}|sp={}|dtm={}:{:?}:{}|trace={}|tau={:?}|pref={:?}|faults={}|thermal={}",
            self.label,
            self.scheduler,
            self.grid.0,
            self.grid.1,
            self.workload.describe(),
            self.sim.horizon,
            self.sim.dt,
            self.sim.sched_period,
            self.sim.dtm_enabled,
            self.sim.dtm_scope,
            self.sim.t_dtm,
            self.sim.record_trace,
            self.fixed_tau_seconds,
            self.preferred_cores,
            self.sim.faults.to_json_string(),
            self.thermal.name(),
        );
        hp_obs::fnv1a(desc.as_bytes())
    }
}

/// Deliberately misbehaving schedulers, hidden from [`SCHEDULER_NAMES`]:
/// chaos fixtures for the supervision layer's tests and CI drills. They
/// build through [`build_scheduler`] like any other name but are never
/// suggested to users.
mod chaos {
    use hp_sim::{Action, Scheduler, SimView};

    /// Panics on its first scheduling hook — exercises worker panic
    /// isolation (`JobStatus::Panicked`).
    #[derive(Debug, Default)]
    pub struct ChaosPanic;

    impl Scheduler for ChaosPanic {
        fn name(&self) -> &str {
            "chaos-panic"
        }

        fn schedule(&mut self, _view: &SimView<'_>) -> Vec<Action> {
            // xtask: allow(panic) — this fixture exists to detonate so
            // the campaign supervisor's catch_unwind path stays tested.
            panic!("chaos-panic: deliberate test-fixture panic")
        }
    }

    /// Never places a thread, so the workload makes no progress and only
    /// a watchdog (interval budget / wall-clock deadline) or the horizon
    /// ends the run — exercises `JobStatus::TimedOut`.
    #[derive(Debug, Default)]
    pub struct ChaosStall;

    impl Scheduler for ChaosStall {
        fn name(&self) -> &str {
            "chaos-stall"
        }

        fn schedule(&mut self, _view: &SimView<'_>) -> Vec<Action> {
            Vec::new()
        }
    }
}

/// Builds the job's scheduler from the shared chip artifacts.
///
/// HotPotato-family schedulers clone the cached [`RotationPeakSolver`]
/// handle (no eigendecomposition); model-based baselines clone the
/// cached [`RcThermalModel`] (no LU factorization).
///
/// [`RotationPeakSolver`]: hotpotato::RotationPeakSolver
/// [`RcThermalModel`]: hp_thermal::RcThermalModel
///
/// # Errors
///
/// Returns [`CampaignError::Spec`] for unknown scheduler names or
/// invalid fixed-τ configurations.
pub fn build_scheduler(job: &CampaignJob, art: &ChipArtifacts) -> Result<Box<dyn Scheduler>> {
    let mut config = HotPotatoConfig::default();
    if let Some(tau) = job.fixed_tau_seconds {
        config.tau_levels = vec![tau];
        config.initial_tau_index = 0;
    }
    let preferred: Vec<CoreId> = job.preferred_cores.iter().map(|&c| CoreId(c)).collect();
    let sched_err = |e: &dyn std::fmt::Display| -> CampaignError {
        CampaignError::Spec(format!(
            "job `{}`: scheduler `{}`: {e}",
            job.label, job.scheduler
        ))
    };
    Ok(match job.scheduler.as_str() {
        "hotpotato" => {
            Box::new(HotPotato::with_solver(art.peak.clone(), config).map_err(|e| sched_err(&e))?)
        }
        "hybrid" => Box::new(
            HotPotatoDvfs::with_solver(art.peak.clone(), config).map_err(|e| sched_err(&e))?,
        ),
        "fallback" => Box::new(
            FallbackChain::with_solver(art.peak.clone(), config, FallbackConfig::default())
                .map_err(|e| sched_err(&e))?,
        ),
        "pcmig" => Box::new(PcMig::new(art.model.clone(), PcMigConfig::default())),
        "pcgov" => Box::new(PcGov::new(art.model.clone(), 70.0, 0.3)),
        "tsp" => {
            let tsp = TspUniform::new(art.model.clone(), 70.0, 0.3);
            if preferred.is_empty() {
                Box::new(tsp)
            } else {
                Box::new(tsp.with_preferred_cores(preferred))
            }
        }
        "pinned" => {
            if preferred.is_empty() {
                Box::new(PinnedScheduler::new())
            } else {
                Box::new(PinnedScheduler::with_preferred_cores(preferred))
            }
        }
        // Hidden chaos fixtures (see the `chaos` module).
        "chaos-panic" => Box::new(chaos::ChaosPanic),
        "chaos-stall" => Box::new(chaos::ChaosStall),
        other => {
            return Err(CampaignError::Spec(format!(
                "unknown scheduler `{other}` (expected one of {SCHEDULER_NAMES:?})"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ModelCache;

    fn job(name: &str) -> CampaignJob {
        CampaignJob::new(
            format!("test-{name}"),
            name,
            (4, 4),
            Workload::Closed {
                benchmark: Benchmark::Canneal,
                cores: 4,
                seed: 1,
            },
            SimConfig::default(),
        )
    }

    #[test]
    fn every_known_scheduler_builds() {
        let cache = ModelCache::new(true);
        let art = cache
            .get_or_build(4, 4, crate::cache::ThermalProfile::Default)
            .unwrap();
        for name in SCHEDULER_NAMES {
            let s = build_scheduler(&job(name), &art).unwrap();
            assert!(!s.name().is_empty());
        }
        assert!(build_scheduler(&job("magic"), &art).is_err());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = job("hotpotato");
        let b = job("hotpotato");
        assert_eq!(a.digest(), b.digest(), "same coordinates, same digest");
        let mut c = job("hotpotato");
        c.sim.horizon = 12.0;
        assert_ne!(a.digest(), c.digest(), "config change moves the digest");
        let mut d = job("hotpotato");
        d.scheduler = "pcmig".into();
        assert_ne!(a.digest(), d.digest());
        let mut e = job("hotpotato");
        e.thermal = crate::cache::ThermalProfile::IllConditioned;
        assert_ne!(a.digest(), e.digest(), "thermal profile moves the digest");
    }

    #[test]
    fn workloads_materialize_deterministically() {
        let w = Workload::Closed {
            benchmark: Benchmark::Swaptions,
            cores: 8,
            seed: 42,
        };
        let a = w.materialize();
        let b = w.materialize();
        assert_eq!(a.len(), b.len());
        let threads: usize = a.iter().map(|j| j.spec.thread_count()).sum();
        assert_eq!(threads, 8);
        let o = Workload::OpenPoisson {
            count: 3,
            rate_per_s: 40.0,
            seed: 7,
        };
        assert_eq!(o.materialize().len(), 3);
        assert!(o.describe().starts_with("open:3"));
    }
}

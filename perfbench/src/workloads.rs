//! The three workloads. Each reports every end-to-end metric, measured on
//! its own chip and inputs; what each exists to isolate is in README.md.

use std::collections::BTreeMap;
use std::time::Instant;

use hotpotato::{Alg1Stats, HotPotato, HotPotatoConfig, RotationPeakSolver};
use hp_campaign::{ChipArtifacts, ThermalProfile};
use hp_manycore::Machine;
use hp_sched::{PcMig, PcMigConfig};
use hp_sim::{SimConfig, Simulation, ThreadView};
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use hp_workload::{closed_batch, Benchmark};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chip::ChipState;
use crate::hostref::{self, Stopwatch};
use crate::probe::{ProbePool, ProbeResult};
use crate::simrun::{
    rerun_check, run_round, Fingerprint, Policy, SimHandles, SimJob, SimResult, MIN_ROUNDS,
};
use crate::stats::{mean, median, per_operation, quantile, MIN_OPERATIONS, MIN_SAMPLES};
use crate::sweep::{self, CampaignResult};
use crate::trace::Tracer;
use crate::{machine, Checks, Fallible};

pub const WORKLOADS: [&str; 3] = ["alg1_probe", "sim_8x8", "sweep_4x4"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The sweep's set-up (parse + expand) takes about a quarter of a
/// millisecond, so it is repeated more often for a steady median.
const SWEEP_SETUP_REPEATS: usize = 500;
/// Workload seeds per benchmark in a simulation round. One benchmark's
/// makespan can double with its seed (a canneal batch does), so the mean
/// makespan spans several seeds of each.
const SEEDS_PER_BENCHMARK: usize = 5;
/// Shares of each workload's time spent in the probe loop; the rest goes
/// to simulation rounds (and, in `sweep_4x4`, campaigns).
const ALG1_PROBE_SHARE: f64 = 0.25;
const SIM_PROBE_SHARE: f64 = 0.15;
const SWEEP_PROBE_SHARE: f64 = 0.15;
/// Synthetic chip states in the probe pool.
const SYNTHETIC_STATES: usize = 512;
/// The paper's reference overhead per schedule on 64 cores, µs (§VI).
pub const PAPER_ALG1_US: f64 = 23.76;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Values the metric is taken over: operations for a latency or a
    /// rate, jobs for a simulation figure, 1 for a total or a ratio.
    pub samples: usize,
}

impl Metric {
    /// A metric; `-0.0` (an empty sum) is stored as `0.0`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value: value + 0.0,
            unit,
            samples,
        }
    }
}

/// The end-to-end metrics, in print order: name and unit.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("alg1_p50_us", "us"),
    ("alg1_p90_us", "us"),
    ("probe_mean_us", "us"),
    ("alg1_evals_per_s", "seq/s"),
    ("hook_mean_us", "us"),
    ("hook_p90_us", "us"),
    ("sim_ms_per_s", "ms/s"),
    ("jobs_per_s", "jobs/s"),
    ("makespan_sim_ms", "ms"),
    ("peak_sim_c", "C"),
    ("rss_peak_mb", "MB"),
];

/// One pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub e2e: Vec<Metric>,
    /// Per-layer values that are counts or ratios rather than spans.
    pub counts: BTreeMap<&'static str, f64>,
    pub ops: u64,
    pub failed: u64,
    /// Fingerprints of the counted simulation rounds (traced and untraced
    /// passes must agree).
    pub fingerprints: Vec<Option<Fingerprint>>,
    /// The pass's extent on the tracer clock.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Fallible<Pass> {
    let start_ns = tracer.clock_ns();
    let mut pass = match name {
        "alg1_probe" => alg1_probe(seed, seconds, tracer, checks)?,
        "sim_8x8" => sim_8x8(seed, seconds, tracer, checks)?,
        "sweep_4x4" => sweep_4x4(seed, seconds, tracer, checks)?,
        other => {
            return Err(
                format!("unknown workload `{other}` (expected one of {WORKLOADS:?})").into(),
            )
        }
    };
    pass.start_ns = start_ns;
    pass.end_ns = tracer.clock_ns();
    Ok(pass)
}

/// Everything one pass measured, before it is reduced to metrics.
struct Phases<'a> {
    setup_s: Vec<f64>,
    pool: &'a ProbePool,
    probe: ProbeResult,
    probe_stats: Alg1Stats,
    oracle: (u64, u64),
    sim: SimResult,
    campaign: Option<CampaignResult>,
    /// Failed checks that are not already counted by a phase.
    checks_failed: u64,
}

/// Peak resident set size of this process, MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Phases<'_> {
    fn finish(self, checks: &mut Checks) -> Pass {
        let p = &self.probe;
        let sim = &self.sim;
        // Every state of the pool is issued many times: each is timed over
        // its repetitions (`stats::per_operation`) and the probe metrics are
        // taken over those times. Hooks, jobs and campaigns are fresh draws,
        // pooled over the run.
        let pool_n = self.pool.state_count();
        let alg1_us = per_operation(&p.alg1_s, pool_n);
        let probe_us = per_operation(&p.probe_s, pool_n);
        let seqs: usize = (0..alg1_us.len()).map(|i| self.pool.sequences(i)).sum();
        let evals_per_s =
            seqs as f64 / (alg1_us.iter().sum::<f64>() + probe_us.iter().sum::<f64>());
        let q_us = |xs: &[f64], q: f64| quantile(xs, q).unwrap_or(0.0) * 1e6;
        let hooks_us = &sim.hook_hp_s;
        let mut checks_failed = self.checks_failed;
        for (what, n, ops) in [
            ("alg1", p.alg1_s.len(), alg1_us.len()),
            ("hook", hooks_us.len(), hooks_us.len()),
        ] {
            if n < MIN_SAMPLES || ops < MIN_OPERATIONS {
                checks_failed += 1;
                checks.fail(&format!(
                    "{what}: {n} samples of {ops} operations, fewer than \
                     {MIN_SAMPLES} of {MIN_OPERATIONS}"
                ));
            }
        }
        // Throughput of the rounds, or of the campaigns on the sweep: their
        // simulated seconds and completed jobs over their reference seconds.
        let ((simulated_s, completed, wall_s), makespans, peaks) = match &self.campaign {
            Some(c) => (c.campaign_times(), &c.makespans_s, &c.peaks_c),
            None => (sim.round_times(), &sim.makespans_s, &sim.peaks_c),
        };
        let jobs_n = completed as usize;
        let sim_ms_per_s = simulated_s * 1e3 / wall_s;
        let jobs_per_s = completed as f64 / wall_s;
        let values = [
            (median(&self.setup_s), self.setup_s.len()),
            (q_us(&alg1_us, 0.5), alg1_us.len()),
            (q_us(&alg1_us, 0.9), alg1_us.len()),
            (mean(&probe_us) * 1e6, probe_us.len()),
            (evals_per_s, alg1_us.len()),
            (mean(hooks_us) * 1e6, hooks_us.len()),
            (q_us(hooks_us, 0.9), hooks_us.len()),
            (sim_ms_per_s, jobs_n),
            (jobs_per_s, jobs_n),
            (mean(makespans) * 1e3, makespans.len()),
            (
                peaks.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                peaks.len(),
            ),
            (rss_peak_mb(), 1),
        ];
        let e2e = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Metric::new(name, value, unit, samples))
            .collect();

        let lookups =
            (self.probe_stats.decay_cache_hits + self.probe_stats.decay_cache_misses).max(1);
        let hp_hooks = sim.hook_hp_s.len().max(1) as f64;
        let mut counts = BTreeMap::new();
        counts.insert("core.probe_seqs", self.pool.mean_batch());
        counts.insert(
            "core.decay_hit_ratio",
            self.probe_stats.decay_cache_hits as f64 / lookups as f64,
        );
        counts.insert("core.evals_per_hook", sim.hp_evaluations as f64 / hp_hooks);
        counts.insert("sim.intervals", sim.intervals as f64);
        counts.insert("faults.migration_faults", sim.migration_faults as f64);
        counts.insert("faults.dropped_actions", sim.dropped_actions as f64);
        if let Some(c) = &self.campaign {
            let lookups = (c.cache_hits + c.cache_misses).max(1);
            counts.insert(
                "campaign.cache_hit_ratio",
                c.cache_hits as f64 / lookups as f64,
            );
        }
        let campaign_ops = self
            .campaign
            .as_ref()
            .map_or((0, 0), |c| (c.jobs, c.failed));
        Pass {
            e2e,
            counts,
            ops: p.ops + sim.jobs + campaign_ops.0 + self.oracle.0,
            failed: p.failed + sim.failed + campaign_ops.1 + self.oracle.1 + checks_failed,
            fingerprints: self.sim.fingerprints,
            start_ns: 0,
            end_ns: 0,
        }
    }
}

/// Fisher–Yates shuffle driven by the workload seed.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// Chip states from the threads captured at simulation hooks, each with
/// a seeded τ from HotPotato's levels, shuffled so that a pass over the pool
/// cut short by the end of the run still covers every job rather than the
/// first jobs' hooks.
fn captured_states(
    machine: &Machine,
    captured: &[Vec<ThreadView>],
    t_dtm: f64,
    rng: &mut StdRng,
) -> Vec<ChipState> {
    let taus = HotPotatoConfig::default().tau_levels;
    let mut states: Vec<ChipState> = captured
        .iter()
        .filter_map(|threads| {
            let tau = taus[rng.gen_range(0..taus.len())];
            ChipState::capture(machine, threads, t_dtm, tau)
        })
        .collect();
    shuffle(&mut states, rng);
    states
}

/// Synthetic chip states for the probe pool. Each takes the ring occupancy
/// of a state captured at a hook on the same chip, so the batch sizes follow
/// the scheduler's real probe traffic, with seeded powers and τ.
fn synthetic_states(captured: Vec<ChipState>, rng: &mut StdRng) -> Vec<ChipState> {
    if captured.is_empty() {
        return Vec::new();
    }
    (0..SYNTHETIC_STATES)
        .map(|_| ChipState::reseeded(&captured[rng.gen_range(0..captured.len())], rng))
        .collect()
}

/// Builds the probe pool, runs the linearity oracle on it, and zeroes the
/// solver's tallies so that they count the timed probes only. The solver
/// must not be one that simulation jobs clone theirs from: the oracle warms
/// its decay cache.
fn probe_pool(
    states: Vec<ChipState>,
    solver: &RotationPeakSolver,
    machine: &Machine,
    checks: &mut Checks,
) -> Fallible<(ProbePool, (u64, u64))> {
    if states.is_empty() {
        return Err("no chip state with an occupied innermost ring to probe".into());
    }
    let pool = ProbePool::new(states, machine.rings(), machine.core_count());
    let ambient = solver.model().config().ambient;
    let oracle = pool.check_linearity(solver, machine.rings(), ambient, checks);
    solver.reset_stats();
    Ok((pool, oracle))
}

/// The probe slice that gives the probe loop `share` of the time, after
/// other work that took `other_s`.
fn probe_slice(other_s: f64, share: f64) -> f64 {
    other_s * share / (1.0 - share)
}

/// Whether an interleaved loop that started at `start` may stop: `seconds`
/// have passed and every phase has its minimum, or four times `seconds`
/// have passed.
fn finished(start: Instant, seconds: f64, sim: &SimResult, probe: &ProbeResult) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let enough = sim.rounds >= MIN_ROUNDS
        && sim.hook_hp_s.len() >= MIN_SAMPLES
        && probe.alg1_s.len() >= MIN_SAMPLES;
    (elapsed >= seconds && enough) || elapsed >= 4.0 * seconds
}

/// One simulation round on the 8×8 chip: a full-load `closed_batch` of
/// each benchmark for each of `SEEDS_PER_BENCHMARK` workload seeds, under
/// each policy, in seeded order.
fn closed_round(policies: &[Policy], rng: &mut StdRng, tracer: &Tracer) -> Vec<SimJob> {
    let mut round = Vec::new();
    for b in Benchmark::all() {
        for _ in 0..SEEDS_PER_BENCHMARK {
            let seed = rng.gen_range(0u64..1_000_000);
            let jobs = tracer.span("workload.gen", || closed_batch(b, 64, seed));
            for &policy in policies {
                round.push(SimJob {
                    label: format!("8x8 {policy:?} {} seed={seed}", b.name()),
                    policy,
                    jobs: jobs.clone(),
                    config: SimConfig::default(),
                    peak_limited: true,
                });
            }
        }
    }
    shuffle(&mut round, rng);
    round
}

/// Simulation rounds on the 8×8 chip, each a fresh seeded
/// [`closed_round`] of `policies`, alternating with probe slices that take
/// `share` of the time, both sampling the host over the whole run. The
/// first round captures the states the probe pool is made from
/// (`pool_states` turns the captured states into the pool); its first jobs
/// are run again at the end to check that they repeat exactly.
struct Interleaved<'a> {
    handles: &'a SimHandles,
    policies: &'a [Policy],
    probe_solver: &'a RotationPeakSolver,
    share: f64,
}

impl Interleaved<'_> {
    fn run(
        &self,
        seconds: f64,
        pool_states: impl FnOnce(Vec<ChipState>, &mut StdRng) -> Vec<ChipState>,
        rng: &mut StdRng,
        tracer: &Tracer,
        checks: &mut Checks,
    ) -> Fallible<(SimResult, ProbePool, ProbeResult, (u64, u64))> {
        let machine = &self.handles.machine;
        let mut sim = SimResult::default();
        let start = Instant::now();
        let first = closed_round(self.policies, rng, tracer);
        run_round(self.handles, &first, &mut sim, tracer, checks);
        let t_dtm = SimConfig::default().t_dtm;
        let captured = captured_states(machine, &sim.captured, t_dtm, rng);
        let states = pool_states(captured, rng);
        let (pool, oracle) = probe_pool(states, self.probe_solver, machine, checks)?;
        let mut probe = ProbeResult::default();
        loop {
            let last = sim.per_round.last().map_or(0.0, |r| r.wall_s);
            let slice = probe_slice(last, self.share);
            pool.run(self.probe_solver, slice, &mut probe, tracer, checks);
            if finished(start, seconds, &sim, &probe) {
                break;
            }
            let round = closed_round(self.policies, rng, tracer);
            run_round(self.handles, &round, &mut sim, tracer, checks);
        }
        rerun_check(self.handles, &first, &mut sim, tracer, checks);
        Ok((sim, pool, probe, oracle))
    }
}

/// Algorithm 1 in isolation: seeded synthetic chip states on the 8×8
/// chip through the solver's public API, alternating with HotPotato-only
/// simulation rounds on the same chip for the simulation metrics.
fn alg1_probe(seed: u64, seconds: f64, tracer: &Tracer, checks: &mut Checks) -> Fallible<Pass> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // A burst before each step: a step's time is read at the host's
        // speed just before it.
        hostref::burst(tracer);
        let t = Stopwatch::start();
        let machine = tracer.span("manycore.machine", || machine(8, 8))?;
        let model = tracer.span_arg("thermal.model", 64, || {
            RcThermalModel::new(machine.floorplan(), &ThermalConfig::default())
        })?;
        hostref::burst(tracer);
        let solver = tracer.span("core.setup", || RotationPeakSolver::new(model.clone()))?;
        setup_s.push(t.seconds());
        built = Some((machine, model, solver));
    }
    let (machine, model, solver) = built.ok_or("no set-up")?;
    // The jobs clone their solvers from this handle, which nothing probes,
    // so every job starts from the set-up state.
    let handles = SimHandles {
        transient: TransientSolver::with_eigen(solver.eigen().clone()),
        solver: solver.clone(),
        machine,
        model,
    };
    let (sim, pool, probe, oracle) = Interleaved {
        handles: &handles,
        policies: &[Policy::HotPotato],
        probe_solver: &solver,
        share: ALG1_PROBE_SHARE,
    }
    .run(seconds, synthetic_states, &mut rng, tracer, checks)?;
    Ok(Phases {
        setup_s,
        pool: &pool,
        probe,
        probe_stats: solver.stats(),
        oracle,
        sim,
        campaign: None,
        checks_failed: 0,
    }
    .finish(checks))
}

/// The paper's 64-core platform, full stack: rounds of HotPotato and PCMig
/// jobs over the eight benchmarks, alternating with the chip states the
/// first round visited replayed through Algorithm 1.
fn sim_8x8(seed: u64, seconds: f64, tracer: &Tracer, checks: &mut Checks) -> Fallible<Pass> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // A burst before each step: a step's time is read at the host's
        // speed just before it.
        hostref::burst(tracer);
        let t = Stopwatch::start();
        let machine = tracer.span("manycore.machine", || machine(8, 8))?;
        let sim = tracer.span("sim.setup", || {
            Simulation::new(
                machine.clone(),
                ThermalConfig::default(),
                SimConfig::default(),
            )
        })?;
        hostref::burst(tracer);
        let model = tracer.span_arg("thermal.model", 64, || {
            RcThermalModel::new(machine.floorplan(), &ThermalConfig::default())
        })?;
        hostref::burst(tracer);
        let hotpotato = tracer.span("core.setup", || {
            HotPotato::new(model.clone(), HotPotatoConfig::default())
        })?;
        hostref::burst(tracer);
        let pcmig = tracer.span("sched.new", || {
            PcMig::new(model.clone(), PcMigConfig::default())
        });
        setup_s.push(t.seconds());
        built = Some((machine, sim, model, hotpotato, pcmig));
    }
    let (machine, _sim, model, hotpotato, _pcmig) = built.ok_or("no set-up")?;
    // The jobs clone their solvers from this handle; the probes run on the
    // scheduler's own solver.
    let handles = SimHandles {
        transient: TransientSolver::with_eigen(hotpotato.solver().eigen().clone()),
        solver: hotpotato.solver().clone(),
        machine,
        model,
    };
    let (sim, pool, probe, oracle) = Interleaved {
        handles: &handles,
        policies: &[Policy::HotPotato, Policy::PcMig],
        probe_solver: hotpotato.solver(),
        share: SIM_PROBE_SHARE,
    }
    .run(seconds, |captured, _| captured, &mut rng, tracer, checks)?;
    Ok(Phases {
        setup_s,
        pool: &pool,
        probe,
        probe_stats: hotpotato.solver().stats(),
        oracle,
        sim,
        campaign: None,
        checks_failed: 0,
    }
    .finish(checks))
}

/// The 4×4 scenario sweep through the campaign runner, alternating with
/// a round of its HotPotato and PCMig jobs driven directly for hook
/// timings and with the states those jobs visited replayed through
/// Algorithm 1.
fn sweep_4x4(seed: u64, seconds: f64, tracer: &Tracer, checks: &mut Checks) -> Fallible<Pass> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = sweep::spec_json(&mut rng);
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SWEEP_SETUP_REPEATS {
        hostref::tick(tracer);
        let t = Stopwatch::start();
        jobs = sweep::expand(&spec, tracer)?;
        setup_s.push(t.seconds());
    }
    let (jobs, defect_jobs) = sweep::split_known_defect(jobs);
    let out_dir = std::path::Path::new(".bench_out").join(format!("sweep-{}", std::process::id()));
    let art = tracer.span("campaign.artifacts", || {
        ChipArtifacts::build(4, 4, ThermalProfile::Default)
    })?;
    let t_dtm = SimConfig::default().t_dtm;
    let handles = SimHandles {
        machine: art.machine,
        model: art.model,
        transient: art.transient,
        solver: art.peak,
    };
    // The probes run on a clone, so the handle the jobs clone their
    // solvers from stays in its set-up state.
    let probe_solver = handles.solver.clone();
    let first_round = sweep::direct_round(&jobs, tracer);
    let mut sim = SimResult::default();
    let start = Instant::now();
    run_round(&handles, &first_round, &mut sim, tracer, checks);
    let states = captured_states(&handles.machine, &sim.captured, t_dtm, &mut rng);
    let (pool, oracle) = probe_pool(states, &probe_solver, &handles.machine, checks)?;
    let (mut probe, mut campaign) = (ProbeResult::default(), CampaignResult::default());
    let mut jobs = jobs;
    loop {
        let t = Instant::now();
        sweep::run_campaign_once(&jobs, &out_dir, &mut campaign, tracer, checks);
        let last = t.elapsed().as_secs_f64() + sim.per_round.last().map_or(0.0, |r| r.wall_s);
        let slice = probe_slice(last, SWEEP_PROBE_SHARE);
        pool.run(&probe_solver, slice, &mut probe, tracer, checks);
        if campaign.campaigns >= sweep::MIN_CAMPAIGNS && finished(start, seconds, &sim, &probe) {
            break;
        }
        // The next campaign and direct round run a fresh spec.
        jobs = sweep::split_known_defect(sweep::expand(&sweep::spec_json(&mut rng), tracer)?).0;
        run_round(
            &handles,
            &sweep::direct_round(&jobs, tracer),
            &mut sim,
            tracer,
            checks,
        );
    }
    rerun_check(&handles, &first_round, &mut sim, tracer, checks);
    let defect_aborts = sweep::run_known_defect(&defect_jobs, &out_dir, tracer, checks);
    let _ = std::fs::remove_dir_all(&out_dir);
    let checks_failed = sweep::check_decorator(&first_round, &sim.fingerprints, &campaign, checks);
    let mut pass = Phases {
        setup_s,
        pool: &pool,
        probe,
        probe_stats: probe_solver.stats(),
        oracle,
        sim,
        campaign: Some(campaign),
        checks_failed,
    }
    .finish(checks);
    pass.counts
        .insert("faults.known_defect_aborts", defect_aborts as f64);
    Ok(pass)
}

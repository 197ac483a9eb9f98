//! The HotPotato run-time scheduler (paper §V, Algorithm 2).
//!
//! HotPotato keeps every core at peak frequency and manages temperature
//! purely through *where* threads run and *how fast they rotate*:
//!
//! * new threads go to the innermost (lowest-AMD, fastest) ring whose
//!   rotation stays below `T_DTM − Δ` according to Algorithm 1;
//! * under thermal pressure, the most compute-bound (lowest-CPI, hottest)
//!   threads are evicted outward, then the rotation accelerates;
//! * with spare headroom, the most memory-bound (highest-CPI) threads are
//!   promoted inward — they benefit most from a low-AMD ring — and the
//!   rotation decelerates (less migration overhead), stopping entirely
//!   when the workload is sustainable without it.
//!
//! ## Deviations from the paper (documented in DESIGN.md §5)
//!
//! * **Slot choice inside a ring** — the paper evaluates every empty slot
//!   in parallel; because ring cores are thermally homogeneous by
//!   symmetry, we pick the free slot farthest (in rotation order) from the
//!   occupied slots and evaluate Algorithm 1 once. On a symmetric grid this
//!   selects the same slot the exhaustive search would.
//! * **Cross-ring coupling** — when evaluating one ring's rotation, other
//!   rings contribute their *time-averaged* power on their own cores
//!   (they rotate too, so their long-run contribution on each of their
//!   cores is the mean). `T_peak` is the max over per-ring evaluations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hp_floorplan::CoreId;
use hp_linalg::{Matrix, Vector};
use hp_obs::json::{self, push_float_tagged, push_list, push_lit, Cursor, Layout, Obj};
use hp_obs::{Registry, RunReport};
use hp_sim::{Action, Scheduler, SchedulerHealth, SimView, ThreadId};
use hp_thermal::RcThermalModel;

use crate::{Alg1Stats, EpochPowerSequence, Result, RingRotation, RotationPeakSolver};

/// Tuning knobs of the HotPotato scheduler.
///
/// # Example
///
/// ```
/// use hotpotato::HotPotatoConfig;
///
/// let cfg = HotPotatoConfig::default();
/// assert_eq!(cfg.tau_levels[cfg.initial_tau_index], 0.5e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HotPotatoConfig {
    /// DTM threshold temperature, °C (paper: 70 °C).
    pub t_dtm: f64,
    /// Thermal headroom hysteresis Δ, °C (paper: 1 °C).
    pub delta_headroom: f64,
    /// Available rotation intervals τ, seconds, fastest first.
    ///
    /// Effective rotation granularity is bounded below by the engine's
    /// [`hp_sim::SimConfig::sched_period`] — the scheduler can only act
    /// when it is invoked, so a τ below the scheduling period behaves
    /// like the period itself.
    pub tau_levels: Vec<f64>,
    /// Index into `tau_levels` used at start (paper: 0.5 ms).
    pub initial_tau_index: usize,
    /// Idle-core power estimate used in power maps, W (paper: 0.3 W).
    pub idle_power: f64,
    /// Master ablation switch: with rotation disabled HotPotato degrades
    /// to ring-aware placement only.
    pub rotation_enabled: bool,
    /// Re-evaluate `T_peak` at least this often even without assignment
    /// changes, s (power drift tracking).
    pub reevaluate_period: f64,
    /// Maximum ring moves (evictions + promotions) per scheduling call.
    pub max_moves_per_call: usize,
}

impl Default for HotPotatoConfig {
    fn default() -> Self {
        HotPotatoConfig {
            t_dtm: 70.0,
            delta_headroom: 1.0,
            tau_levels: vec![0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3],
            initial_tau_index: 1,
            idle_power: 0.3,
            rotation_enabled: true,
            reevaluate_period: 5e-3,
            max_moves_per_call: 4,
        }
    }
}

impl HotPotatoConfig {
    fn validate(&self) -> Result<()> {
        if self.tau_levels.is_empty() || self.initial_tau_index >= self.tau_levels.len() {
            return Err(crate::HotPotatoError::InvalidParameter {
                name: "initial_tau_index",
                value: self.initial_tau_index as f64,
            });
        }
        for &t in &self.tau_levels {
            if !(t.is_finite() && t > 0.0) {
                return Err(crate::HotPotatoError::InvalidParameter {
                    name: "tau_levels",
                    value: t,
                });
            }
        }
        Ok(())
    }
}

/// The HotPotato scheduler: synchronous thread rotations over AMD rings,
/// no DVFS.
///
/// Implements [`hp_sim::Scheduler`]; see the module-level documentation
/// for the policy and the [crate docs](crate) for the analytics underneath.
#[derive(Debug)]
pub struct HotPotato {
    config: HotPotatoConfig,
    solver: RotationPeakSolver,
    /// Ring bookkeeping, built lazily from the machine on the first
    /// `schedule` call (empty until then).
    rings: Vec<RingRotation<ThreadId>>,
    tau_index: usize,
    rotating: bool,
    last_rotation: f64,
    last_peak: f64,
    last_evaluation: f64,
    assignment_dirty: bool,
    /// Cached per-thread power estimates from the last call.
    powers: BTreeMap<ThreadId, f64>,
    /// Number of Algorithm-1 evaluations performed (for the overhead study).
    evaluations: u64,
    /// Number of Algorithm-1 evaluations that failed (malformed sequence
    /// or solver error) and were read as `T_peak = ∞`.
    solver_failures: u64,
    /// Ring occupancy restored from a checkpoint before the rings
    /// themselves exist ([`Scheduler::restore`] has no machine access);
    /// applied and consumed by the first `schedule` call after the lazy
    /// ring construction. `None` outside that window.
    restored_slots: Option<Vec<Vec<(usize, ThreadId)>>>,
    /// Probe wall-clock histograms and policy counters, surfaced through
    /// [`Scheduler::observability`].
    obs: Registry,
}

impl HotPotato {
    /// Builds the scheduler for a chip with the given thermal model.
    ///
    /// The model must match the machine the simulation runs on; the
    /// design-time phase of Algorithm 1 (eigendecomposition) happens here.
    ///
    /// # Errors
    ///
    /// Propagates configuration and eigendecomposition failures.
    pub fn new(model: RcThermalModel, config: HotPotatoConfig) -> Result<Self> {
        let solver = RotationPeakSolver::new(model)?;
        Self::with_solver(solver, config)
    }

    /// Builds the scheduler around a prebuilt [`RotationPeakSolver`]
    /// (e.g. a cheap clone of a shared, cached handle), skipping the
    /// design-time eigendecomposition entirely.
    ///
    /// Sweep runners use this so N jobs on the same chip configuration
    /// pay for one factorization instead of N.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn with_solver(solver: RotationPeakSolver, config: HotPotatoConfig) -> Result<Self> {
        config.validate()?;
        Ok(HotPotato {
            tau_index: config.initial_tau_index,
            rotating: config.rotation_enabled,
            config,
            solver,
            rings: Vec::new(),
            last_rotation: 0.0,
            last_peak: 0.0,
            last_evaluation: f64::NEG_INFINITY,
            assignment_dirty: true,
            powers: BTreeMap::new(),
            evaluations: 0,
            solver_failures: 0,
            restored_slots: None,
            obs: Registry::new(),
        })
    }

    /// Current rotation interval τ, seconds.
    pub fn tau(&self) -> f64 {
        self.config.tau_levels[self.tau_index]
    }

    /// Whether rotations are currently active.
    pub fn is_rotating(&self) -> bool {
        self.rotating
    }

    /// The most recent Algorithm-1 peak estimate, °C.
    pub fn estimated_peak(&self) -> f64 {
        self.last_peak
    }

    /// Number of Algorithm-1 evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of Algorithm-1 evaluations that failed and degraded to a
    /// `T_peak = ∞` reading. A monotone counter: fallback wrappers detect
    /// fresh failures by differencing across scheduling hooks.
    pub fn solver_failures(&self) -> u64 {
        self.solver_failures
    }

    /// Rebuilds the internal ring occupancy from the engine's ground
    /// truth.
    ///
    /// Under injected migration faults (or after a fallback policy has
    /// been driving the chip), the scheduler's slot bookkeeping can
    /// drift from where threads actually run. This drops every ring
    /// assignment and power estimate and re-seats each live thread at
    /// the slot of the core it currently occupies, so the next
    /// [`Scheduler::schedule`] call starts from reality.
    pub fn resync_from_view(&mut self, view: &SimView<'_>) {
        if self.rings.is_empty() {
            self.rings = view
                .machine
                .rings()
                .iter()
                .map(|r| RingRotation::new(r.cores().to_vec()))
                .collect();
        }
        for ring in &mut self.rings {
            for s in 0..ring.capacity() {
                if let Some(t) = ring.occupant(s) {
                    ring.remove(t);
                }
            }
        }
        self.powers.clear();
        for t in view.threads {
            for ring in &mut self.rings {
                let Some(slot) = (0..ring.capacity()).find(|&s| ring.core_of_slot(s) == t.core)
                else {
                    continue;
                };
                if ring.occupant(slot).is_none() {
                    ring.occupy(slot, t.id);
                }
                break;
            }
        }
        self.assignment_dirty = true;
    }

    /// Access to the peak solver (for the overhead benchmarks).
    pub fn solver(&self) -> &RotationPeakSolver {
        &self.solver
    }

    /// Estimated power of a thread: the maximum of its *current-phase*
    /// work-point power (instant reaction to an idle→busy phase switch)
    /// and its windowed average (the paper's 10 ms history). Taking the
    /// max is conservative: a thread that just went hot is seen hot
    /// immediately, one that went idle cools the estimate only as the
    /// window drains.
    fn thread_power(view: &SimView<'_>, t: &hp_sim::ThreadView) -> f64 {
        let ladder = &view.machine.config().dvfs;
        let current = if t.work.is_idle() {
            0.0
        } else {
            match view
                .machine
                .cpi_stack_at_level(&t.work, t.core, ladder.max_level())
            {
                Ok(stack) => view
                    .machine
                    .core_power(&stack, ladder.max_level(), view.t_dtm),
                // A live thread's core is always in range; if the model
                // disagrees, trust the windowed average over crashing.
                Err(_) => t.avg_power,
            }
        };
        current.max(t.avg_power)
    }

    /// `T_peak` of the current assignment (Algorithm 1 over every occupied
    /// ring, cross-ring coupling averaged). Each probe's wall-clock time
    /// lands in the `alg1.probe` histogram — this is the quantity behind
    /// the paper's per-decision scheduling-overhead measurement.
    fn estimate_peak(
        &mut self,
        rings: &[RingRotation<ThreadId>],
        powers: &BTreeMap<ThreadId, f64>,
        tau: f64,
        rotating: bool,
    ) -> f64 {
        // xtask: allow(nondet) — wall-clock observability timing; the
        // histogram it feeds is excluded from golden outputs.
        let probe_start = Instant::now();
        let peak = self.estimate_peak_inner(rings, powers, tau, rotating);
        self.obs
            .observe_seconds("alg1.probe", probe_start.elapsed().as_secs_f64());
        peak
    }

    fn estimate_peak_inner(
        &mut self,
        rings: &[RingRotation<ThreadId>],
        powers: &BTreeMap<ThreadId, f64>,
        tau: f64,
        rotating: bool,
    ) -> f64 {
        let n = self.solver.model().core_count();
        let idle = self.config.idle_power;

        // Ring-averaged background power per core.
        let mut background = Vector::constant(n, idle);
        for ring in rings {
            let occ = ring.occupants();
            if occ == 0 {
                continue;
            }
            let sum: f64 = (0..ring.capacity())
                .filter_map(|s| ring.occupant(s))
                .map(|t| powers.get(&t).copied().unwrap_or(idle))
                .sum();
            let avg = (sum + (ring.capacity() - occ) as f64 * idle) / ring.capacity() as f64;
            for &c in ring.cores() {
                background[c.index()] = avg;
            }
        }

        if !rotating {
            // Pinned evaluation: single epoch with threads at their slots.
            let mut p = Vector::constant(n, idle);
            for ring in rings {
                for s in 0..ring.capacity() {
                    if let Some(t) = ring.occupant(s) {
                        p[ring.core_of_slot(s).index()] = powers.get(&t).copied().unwrap_or(idle);
                    }
                }
            }
            let Ok(seq) = EpochPowerSequence::new(tau.max(1e-6), vec![p]) else {
                self.solver_failures += 1;
                return f64::INFINITY; // malformed sequence reads as unsafe
            };
            self.evaluations += 1;
            return match self.solver.peak_celsius(&seq) {
                Ok(peak) => peak,
                Err(_) => {
                    self.solver_failures += 1;
                    f64::INFINITY
                }
            };
        }

        // One rotation sequence per occupied ring, evaluated as one batch
        // (a single pair of GEMMs instead of per-ring dot-product loops).
        let mut seqs = Vec::new();
        for ring in rings {
            if ring.occupants() == 0 {
                continue;
            }
            let delta = ring.capacity().max(1);
            let epochs: Vec<Vector> = (0..delta)
                .map(|e| {
                    let mut p = background.clone();
                    // This ring is resolved exactly: occupants shifted by e.
                    for s in 0..delta {
                        let target = (s + e) % delta;
                        let core = ring.core_of_slot(target).index();
                        p[core] = match ring.occupant(s) {
                            Some(t) => powers.get(&t).copied().unwrap_or(idle),
                            None => idle,
                        };
                    }
                    p
                })
                .collect();
            match EpochPowerSequence::new(tau, epochs) {
                Ok(seq) => seqs.push(seq),
                Err(_) => {
                    self.solver_failures += 1;
                    return f64::INFINITY; // malformed sequence reads as unsafe
                }
            }
        }
        if seqs.is_empty() {
            // Empty chip: idle steady state.
            let p = Vector::constant(n, idle);
            let Ok(seq) = EpochPowerSequence::new(tau.max(1e-6), vec![p]) else {
                self.solver_failures += 1;
                return f64::INFINITY; // malformed sequence reads as unsafe
            };
            self.evaluations += 1;
            return match self.solver.peak_celsius(&seq) {
                Ok(peak) => peak,
                Err(_) => {
                    self.solver_failures += 1;
                    f64::INFINITY
                }
            };
        }
        self.evaluations += seqs.len() as u64;
        match self.solver.peak_celsius_many(&seqs) {
            Ok(peaks) => peaks.into_iter().fold(f64::NEG_INFINITY, f64::max),
            Err(_) => {
                self.solver_failures += 1;
                f64::INFINITY
            }
        }
    }

    /// Picks the free slot of `ring` farthest from its occupants
    /// (maximal minimum cyclic distance).
    fn best_free_slot(ring: &RingRotation<ThreadId>) -> Option<usize> {
        let k = ring.capacity();
        let free = ring.free_slots();
        if free.is_empty() {
            return None;
        }
        if ring.occupants() == 0 {
            return free.first().copied();
        }
        free.into_iter().max_by_key(|&s| {
            (0..k)
                .filter(|&o| ring.occupant(o).is_some())
                .map(|o| {
                    let d = (s as isize - o as isize).unsigned_abs();
                    d.min(k - d)
                })
                .min()
                .unwrap_or(0)
        })
    }
}

/// Layout of scheduler snapshot blobs.
const C: Layout = Layout::Canonical;

impl HotPotato {
    /// Applies a [`Scheduler::snapshot`] blob; errors name the field.
    fn apply_snapshot(&mut self, state: &str) -> hp_obs::Result<()> {
        let parsed = json::parse(state)?;
        let doc = parsed.cursor("snapshot");
        let thread = |job: &Cursor<'_>, index: &Cursor<'_>| -> hp_obs::Result<ThreadId> {
            Ok(ThreadId {
                job: hp_sim::JobId(job.usize()?),
                index: index.usize()?,
            })
        };

        // Ring occupancy: stash for the first `schedule` call — rings are
        // built lazily from the machine, which `restore` cannot see.
        let rings = doc.field("rings")?;
        self.restored_slots = if rings.is_null() {
            None
        } else {
            Some(rings.list(|ring| {
                ring.list(|seat| {
                    let [slot, job, index] = seat.tuple()?;
                    Ok((slot.usize()?, thread(&job, &index)?))
                })
            })?)
        };

        let tau = doc.field("tau_index")?;
        let levels = self.config.tau_levels.len();
        let tau_index = tau.usize()?;
        if tau_index >= levels {
            return Err(tau.error(&format!("an index below {levels}")));
        }
        self.tau_index = tau_index;
        self.rotating = doc.field("rotating")?.bool()?;
        self.last_rotation = doc.field("last_rotation")?.f64_tagged()?;
        self.last_peak = doc.field("last_peak")?.f64_tagged()?;
        self.last_evaluation = doc.field("last_evaluation")?.f64_tagged()?;
        self.assignment_dirty = doc.field("assignment_dirty")?.bool()?;
        self.powers = doc
            .field("powers")?
            .list(|entry| {
                let [job, index, power] = entry.tuple()?;
                Ok((thread(&job, &index)?, power.f64_tagged()?))
            })?
            .into_iter()
            .collect();
        self.evaluations = doc.field("evaluations")?.u64()?;
        self.solver_failures = doc.field("solver_failures")?.u64()?;

        let [calls, candidates, hits, misses] = doc.field("alg1_stats")?.tuple()?;
        let stats = Alg1Stats {
            batch_calls: calls.u64()?,
            batched_candidates: candidates.u64()?,
            decay_cache_hits: hits.u64()?,
            decay_cache_misses: misses.u64()?,
        };
        let taus = doc.field("cached_taus")?.list(Cursor::f64_tagged)?;
        // Re-warm exactly the decay chains the snapshotted solver had
        // cached, then overwrite the stats (discarding the warm-up
        // misses) so every subsequent lookup hits and the alg1.* counters
        // in the final report match an uninterrupted run bit-for-bit.
        self.solver.reset_stats();
        for tau in taus {
            self.solver.warm_decay_cache(tau);
        }
        self.solver.restore_stats(stats);
        // Numerics tallies: optional for snapshots taken before the
        // numerical-integrity layer existed (absent means all-zero).
        if let Some(numerics) = doc.opt("numerics_stats") {
            let [activations, steps, trips] = numerics.tuple()?;
            self.solver.restore_numerics(hp_thermal::NumericsStats {
                fallback_activations: activations.u64()?,
                fallback_steps: steps.u64()?,
                guard_trips: trips.u64()?,
            });
        }
        Ok(())
    }
}

impl Scheduler for HotPotato {
    fn name(&self) -> &str {
        "hotpotato"
    }

    fn health(&self) -> SchedulerHealth {
        // An infinite peak estimate means Algorithm 1 could not evaluate
        // the current assignment — the policy is flying blind.
        if self.last_peak.is_infinite() {
            SchedulerHealth::Degraded
        } else {
            SchedulerHealth::Nominal
        }
    }

    fn observability(&self) -> Option<RunReport> {
        let mut report = self.obs.snapshot();
        report.push_counter("alg1.evaluations", self.evaluations);
        report.push_counter("alg1.solver_failures", self.solver_failures);
        let s = self.solver.stats();
        report.push_counter("alg1.batch_calls", s.batch_calls);
        report.push_counter("alg1.batched_candidates", s.batched_candidates);
        report.push_counter("alg1.decay_cache_hits", s.decay_cache_hits);
        report.push_counter("alg1.decay_cache_misses", s.decay_cache_misses);
        let n = self.solver.numerics();
        report.push_counter("numerics.fallback.activations", n.fallback_activations);
        report.push_counter("numerics.fallback.steps", n.fallback_steps);
        report.push_counter("numerics.guard.trips", n.guard_trips);
        report.push_counter("numerics.degraded", u64::from(self.solver.degraded()));
        report.push_counter("rotation.active", u64::from(self.rotating));
        report.push_gauge("rotation.tau_seconds", self.tau());
        report.push_gauge("alg1.estimated_peak_celsius", self.last_peak);
        report.push_meta("gemm_backend", Matrix::gemm_backend());
        Some(report)
    }

    // The snapshot captures every field that influences future decisions
    // or final counters: ring occupancy (as `[slot, job, thread]` triples
    // per ring, `null` when the lazy construction has not happened yet),
    // the τ ladder position, rotation phase, Algorithm-1 bookkeeping, the
    // per-thread power cache, and the solver's counters plus the τ values
    // whose decay chains it has cached (so a resumed run re-warms exactly
    // those and the hit/miss counters stay bit-identical). The probe
    // histograms in `obs` are wall-clock noise and deliberately excluded —
    // reports are compared with timings stripped.
    fn snapshot(&self) -> Option<String> {
        let mut out = String::new();
        let mut s = Obj::open(&mut out, C);
        let seat = |out: &mut String, (slot, t): (usize, ThreadId)| {
            push_list(out, C, [slot, t.job.0, t.index], push_lit);
        };
        if let Some(pending) = &self.restored_slots {
            // Restored occupancy not yet applied (no `schedule` call since
            // `restore`): re-emit it verbatim so a checkpoint taken in
            // that window still carries the seats.
            push_list(s.key("rings"), C, pending, |out, seats| {
                push_list(out, C, seats.iter().copied(), seat);
            });
        } else if self.rings.is_empty() {
            s.key("rings").push_str("null");
        } else {
            push_list(s.key("rings"), C, &self.rings, |out, ring| {
                let seats =
                    (0..ring.capacity()).filter_map(|slot| ring.occupant(slot).map(|t| (slot, t)));
                push_list(out, C, seats, seat);
            });
        }
        s.lit("tau_index", self.tau_index)
            .lit("rotating", self.rotating)
            .f64_tagged("last_rotation", self.last_rotation)
            .f64_tagged("last_peak", self.last_peak)
            .f64_tagged("last_evaluation", self.last_evaluation)
            .lit("assignment_dirty", self.assignment_dirty);
        push_list(s.key("powers"), C, &self.powers, |out, (t, &p)| {
            let _ = write!(out, "[{},{},", t.job.0, t.index);
            push_float_tagged(out, p);
            out.push(']');
        });
        s.lit("evaluations", self.evaluations)
            .lit("solver_failures", self.solver_failures);
        let st = self.solver.stats();
        push_list(
            s.key("alg1_stats"),
            C,
            [
                st.batch_calls,
                st.batched_candidates,
                st.decay_cache_hits,
                st.decay_cache_misses,
            ],
            push_lit,
        );
        let nu = self.solver.numerics();
        push_list(
            s.key("numerics_stats"),
            C,
            [nu.fallback_activations, nu.fallback_steps, nu.guard_trips],
            push_lit,
        );
        push_list(
            s.key("cached_taus"),
            C,
            self.solver.cached_taus(),
            push_float_tagged,
        );
        s.close();
        Some(out)
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        self.apply_snapshot(state)
            .map_err(|e| format!("hotpotato snapshot: {e}"))
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        // Lazy ring construction from the machine's AMD rings.
        if self.rings.is_empty() {
            self.rings = view
                .machine
                .rings()
                .iter()
                .map(|r| RingRotation::new(r.cores().to_vec()))
                .collect();
        }
        // Re-seat checkpoint-restored occupancy now that the rings exist.
        // The engine's spec-hash binding guarantees the machine (and so
        // the ring structure) matches the one that produced the snapshot.
        if let Some(pending) = self.restored_slots.take() {
            for (ring, slots) in self.rings.iter_mut().zip(pending) {
                for (slot, tid) in slots {
                    if slot < ring.capacity() && ring.occupant(slot).is_none() {
                        ring.occupy(slot, tid);
                    }
                }
            }
        }

        let mut actions = Vec::new();

        // --- Sync with the engine: drop departed threads. ---
        let live: BTreeMap<ThreadId, &hp_sim::ThreadView> =
            view.threads.iter().map(|t| (t.id, t)).collect();
        for ring in &mut self.rings {
            for s in 0..ring.capacity() {
                if let Some(t) = ring.occupant(s) {
                    if !live.contains_key(&t) {
                        ring.remove(t);
                    }
                }
            }
        }
        let departed: Vec<ThreadId> = self
            .powers
            .keys()
            .filter(|t| !live.contains_key(t))
            .copied()
            .collect();
        for t in departed {
            self.powers.remove(&t);
            self.assignment_dirty = true;
        }

        // --- Refresh power estimates. ---
        for t in view.threads {
            let p = Self::thread_power(view, t);
            let old = self.powers.insert(t.id, p);
            if old.is_none_or(|o| (o - p).abs() > 0.25) {
                self.assignment_dirty = true;
            }
        }

        // --- Placement of pending jobs (Algorithm 2, lines 1–14). ---
        let ring_count = self.rings.len();
        for job in view.pending {
            let est = {
                // Estimate new-thread power on a representative inner core.
                let work = job.benchmark.work_point();
                let ladder = &view.machine.config().dvfs;
                let core = self.rings.first().map_or(CoreId(0), |r| r.cores()[0]);
                match view
                    .machine
                    .cpi_stack_at_level(&work, core, ladder.max_level())
                {
                    Ok(stack) => view
                        .machine
                        .core_power(&stack, ladder.max_level(), view.t_dtm),
                    // Ring cores are always in range; a disagreeing model
                    // degrades to the idle estimate instead of crashing.
                    Err(_) => self.config.idle_power,
                }
            };
            // Skip jobs that cannot fit in the free slots at all.
            let free_total: usize = self.rings.iter().map(|r| r.free_slots().len()).sum();
            if free_total < job.threads {
                continue;
            }
            let mut placed: Vec<(usize, usize, CoreId)> = Vec::new(); // (ring, slot, core)
            let mut trial_powers = self.powers.clone();
            let mut tau_index = self.tau_index;
            for i in 0..job.threads {
                let tid = ThreadId {
                    job: job.job,
                    index: i,
                };
                // Walk rings inner → outer; remember the coolest option as
                // a best-effort fallback (a new thread is never starved —
                // the rotation and, ultimately, the hardware DTM cope).
                let mut fallback: Option<(usize, usize, f64)> = None;
                let mut chosen: Option<(usize, usize)> = None;
                for r in 0..ring_count {
                    let Some(slot) = Self::best_free_slot(&self.rings[r]) else {
                        continue;
                    };
                    self.rings[r].occupy(slot, tid);
                    trial_powers.insert(tid, est);
                    let rings_snapshot = self.rings.clone();
                    let peak = self.estimate_peak(
                        &rings_snapshot,
                        &trial_powers,
                        self.config.tau_levels[tau_index],
                        self.rotating && self.config.rotation_enabled,
                    );
                    if peak + self.config.delta_headroom < self.config.t_dtm {
                        chosen = Some((r, slot));
                        break;
                    }
                    self.rings[r].remove(tid);
                    trial_powers.remove(&tid);
                    if fallback.is_none_or(|(_, _, p)| peak < p) {
                        fallback = Some((r, slot, peak));
                    }
                }
                // Lines 12–14: no ring fits — accelerate the rotation and
                // retry the coolest ring until it fits or τ bottoms out.
                if chosen.is_none() && self.config.rotation_enabled {
                    if let Some((r, slot, _)) = fallback {
                        while tau_index > 0 && chosen.is_none() {
                            tau_index -= 1;
                            self.rotating = true;
                            self.rings[r].occupy(slot, tid);
                            trial_powers.insert(tid, est);
                            let rings_snapshot = self.rings.clone();
                            let peak = self.estimate_peak(
                                &rings_snapshot,
                                &trial_powers,
                                self.config.tau_levels[tau_index],
                                true,
                            );
                            if peak + self.config.delta_headroom < self.config.t_dtm {
                                chosen = Some((r, slot));
                            } else {
                                self.rings[r].remove(tid);
                                trial_powers.remove(&tid);
                            }
                        }
                    }
                }
                // Best effort: take the coolest slot found.
                let (r, slot) = chosen.unwrap_or_else(|| {
                    // xtask: allow(panic) — free_total ≥ job.threads was
                    // checked above, so some ring offered a slot.
                    let (r, slot, _) = fallback.expect("free_total checked above");
                    self.rings[r].occupy(slot, tid);
                    trial_powers.insert(tid, est);
                    (r, slot)
                });
                let core = self.rings[r].core_of_slot(slot);
                placed.push((r, slot, core));
            }
            debug_assert_eq!(placed.len(), job.threads);
            self.tau_index = tau_index;
            let cores: Vec<CoreId> = placed.iter().map(|&(_, _, c)| c).collect();
            self.powers.extend((0..job.threads).map(|i| {
                (
                    ThreadId {
                        job: job.job,
                        index: i,
                    },
                    est,
                )
            }));
            actions.push(Action::PlaceJob {
                job: job.job,
                cores,
            });
            self.assignment_dirty = true;
        }

        // --- Re-evaluate T_peak when needed. ---
        let due = view.time - self.last_evaluation >= self.config.reevaluate_period;
        if self.assignment_dirty || due || view.dtm_active {
            let rings_snapshot = self.rings.clone();
            let powers = self.powers.clone();
            self.last_peak =
                self.estimate_peak(&rings_snapshot, &powers, self.tau(), self.rotating);
            self.last_evaluation = view.time;
            self.assignment_dirty = false;
        }

        // --- Thermal pressure: evict hot threads outward, then speed up
        //     the rotation (lines 7–14). The loop engages when either the
        //     *predicted* or the *measured* headroom shrinks below Δ — the
        //     paper's "sudden increase ... in thermal headroom" adjustment
        //     — not only on violation.
        let measured_max = view.core_temps.max();
        let mut moves = 0usize;
        while self.last_peak.max(measured_max) > self.config.t_dtm - self.config.delta_headroom
            && moves < self.config.max_moves_per_call
        {
            // Cheapest knob first: if rotation is parked, restart it.
            if self.config.rotation_enabled && !self.rotating {
                self.rotating = true;
                let rings_snapshot = self.rings.clone();
                let powers = self.powers.clone();
                self.last_peak = self.estimate_peak(&rings_snapshot, &powers, self.tau(), true);
                self.last_evaluation = view.time;
                moves += 1;
                continue;
            }
            // Hottest = lowest CPI. Find the lowest-CPI thread that can move
            // to a higher-AMD ring with free capacity.
            let mut candidates: Vec<(f64, ThreadId, usize)> = Vec::new(); // (cpi, thread, ring)
            for (r, ring) in self.rings.iter().enumerate() {
                for s in 0..ring.capacity() {
                    if let Some(t) = ring.occupant(s) {
                        if let Some(tv) = live.get(&t) {
                            candidates.push((tv.last_cpi, t, r));
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut moved = false;
            for (_, tid, r) in candidates {
                let target = (r + 1..ring_count)
                    .find_map(|r2| Self::best_free_slot(&self.rings[r2]).map(|s| (r2, s)));
                let Some((r2, slot)) = target else { continue };
                let to = {
                    self.rings[r].remove(tid);
                    self.rings[r2].occupy(slot, tid);
                    self.rings[r2].core_of_slot(slot)
                };
                actions.push(Action::Migrate { thread: tid, to });
                moved = true;
                moves += 1;
                break;
            }
            if !moved {
                // No eviction possible: accelerate the rotation.
                if self.tau_index > 0 {
                    self.tau_index -= 1;
                } else {
                    break; // fastest rotation already; DTM is the backstop
                }
            }
            let rings_snapshot = self.rings.clone();
            let powers = self.powers.clone();
            self.last_peak =
                self.estimate_peak(&rings_snapshot, &powers, self.tau(), self.rotating);
            self.last_evaluation = view.time;
        }

        // --- Headroom: promote memory-bound threads inward, slow the
        //     rotation (lines 16–27). Triggered at twice the hysteresis so
        //     phase transitions (which overshoot the steady cycle) cannot
        //     ping-pong against the pressure loop above.
        while self.config.t_dtm - self.last_peak.max(measured_max)
            > 2.0 * self.config.delta_headroom
            && moves < self.config.max_moves_per_call
        {
            // Highest CPI first (most memory-bound benefits most).
            let mut candidates: Vec<(f64, ThreadId, usize)> = Vec::new();
            for (r, ring) in self.rings.iter().enumerate() {
                if r == 0 {
                    continue; // already innermost
                }
                for s in 0..ring.capacity() {
                    if let Some(t) = ring.occupant(s) {
                        if let Some(tv) = live.get(&t) {
                            candidates.push((tv.last_cpi, t, r));
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut improved = false;
            'promote: for (_, tid, r) in candidates {
                // The candidate was read out of ring r above; a vanished
                // slot means the bookkeeping changed under us — skip it.
                let Some(origin_slot) = self.rings[r].slot_of(tid) else {
                    continue;
                };
                for r2 in 0..r {
                    let Some(slot) = Self::best_free_slot(&self.rings[r2]) else {
                        continue;
                    };
                    // Tentative move; the origin slot lets the revert
                    // restore the exact engine-visible position.
                    self.rings[r].remove(tid);
                    self.rings[r2].occupy(slot, tid);
                    let rings_snapshot = self.rings.clone();
                    let powers = self.powers.clone();
                    let peak =
                        self.estimate_peak(&rings_snapshot, &powers, self.tau(), self.rotating);
                    if peak + self.config.delta_headroom < self.config.t_dtm {
                        let to = self.rings[r2].core_of_slot(slot);
                        actions.push(Action::Migrate { thread: tid, to });
                        self.last_peak = peak;
                        self.last_evaluation = view.time;
                        moves += 1;
                        improved = true;
                        break 'promote;
                    }
                    // Revert to the exact origin slot (a different slot
                    // would silently desynchronize the ring bookkeeping
                    // from the engine's core assignment).
                    self.rings[r2].remove(tid);
                    self.rings[r].occupy(origin_slot, tid);
                }
            }
            if !improved {
                // Slow the rotation (less overhead) while still safe.
                if self.rotating && self.tau_index + 1 < self.config.tau_levels.len() {
                    let rings_snapshot = self.rings.clone();
                    let powers = self.powers.clone();
                    let peak = self.estimate_peak(
                        &rings_snapshot,
                        &powers,
                        self.config.tau_levels[self.tau_index + 1],
                        true,
                    );
                    if peak + 2.0 * self.config.delta_headroom < self.config.t_dtm {
                        self.tau_index += 1;
                        self.last_peak = peak;
                        self.last_evaluation = view.time;
                        continue;
                    }
                }
                if self.rotating {
                    // Sustainable without rotation at all?
                    let rings_snapshot = self.rings.clone();
                    let powers = self.powers.clone();
                    let pinned = self.estimate_peak(&rings_snapshot, &powers, self.tau(), false);
                    if pinned + 2.0 * self.config.delta_headroom < self.config.t_dtm {
                        self.rotating = false;
                        self.last_peak = pinned;
                        self.last_evaluation = view.time;
                    }
                }
                break;
            }
        }

        // --- Synchronous rotation. ---
        if self.rotating
            && self.config.rotation_enabled
            && view.time - self.last_rotation >= self.tau() - 1e-12
        {
            for ring in &mut self.rings {
                if ring.occupants() == 0
                    || ring.occupants() == ring.capacity() && ring.capacity() == 1
                {
                    continue;
                }
                for (tid, _, to) in ring.advance() {
                    actions.push(Action::Migrate { thread: tid, to });
                }
            }
            self.last_rotation = view.time;
        }

        // A thread may have been both ring-moved and rotated in this call;
        // only its final destination goes to the engine (the ring
        // bookkeeping above already reflects it).
        dedupe_migrations(actions)
    }
}

/// Keeps only the last `Migrate` action per thread, preserving order
/// otherwise.
fn dedupe_migrations(actions: Vec<Action>) -> Vec<Action> {
    let mut last_target: BTreeMap<ThreadId, usize> = BTreeMap::new();
    for (i, a) in actions.iter().enumerate() {
        if let Action::Migrate { thread, .. } = a {
            last_target.insert(*thread, i);
        }
    }
    actions
        .into_iter()
        .enumerate()
        .filter(|(i, a)| match a {
            Action::Migrate { thread, .. } => last_target.get(thread) == Some(i),
            _ => true,
        })
        .map(|(_, a)| a)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::GridFloorplan;
    use hp_manycore::{ArchConfig, Machine};
    use hp_sim::{SimConfig, Simulation};
    use hp_thermal::ThermalConfig;
    use hp_workload::{Benchmark, Job, JobId};

    fn machine_4x4() -> Machine {
        Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .unwrap()
    }

    fn model_4x4() -> RcThermalModel {
        RcThermalModel::new(
            &GridFloorplan::new(4, 4).unwrap(),
            &ThermalConfig::default(),
        )
        .unwrap()
    }

    fn blackscholes_job() -> Vec<Job> {
        vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(2),
            arrival: 0.0,
        }]
    }

    #[test]
    fn dedupe_keeps_last_migration_per_thread() {
        let t1 = ThreadId {
            job: hp_workload::JobId(0),
            index: 0,
        };
        let t2 = ThreadId {
            job: hp_workload::JobId(0),
            index: 1,
        };
        let actions = vec![
            Action::Migrate {
                thread: t1,
                to: CoreId(1),
            },
            Action::SetAllLevels {
                level: hp_power::DvfsLevel(3),
            },
            Action::Migrate {
                thread: t2,
                to: CoreId(2),
            },
            Action::Migrate {
                thread: t1,
                to: CoreId(5),
            },
        ];
        let out = dedupe_migrations(actions);
        assert_eq!(out.len(), 3);
        // Non-migration actions survive untouched.
        assert!(matches!(out[0], Action::SetAllLevels { .. }));
        // t1's final target wins; t2 untouched.
        let targets: Vec<(ThreadId, CoreId)> = out
            .iter()
            .filter_map(|a| match a {
                Action::Migrate { thread, to } => Some((*thread, *to)),
                _ => None,
            })
            .collect();
        assert!(targets.contains(&(t1, CoreId(5))));
        assert!(targets.contains(&(t2, CoreId(2))));
        assert!(!targets.contains(&(t1, CoreId(1))));
    }

    #[test]
    fn best_free_slot_maximizes_separation() {
        // Occupant at slot 0 of a 4-ring: the farthest free slot is 2.
        let mut ring = RingRotation::new(vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        ring.occupy(
            0,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 0,
            },
        );
        assert_eq!(HotPotato::best_free_slot(&ring), Some(2));
        // Fill slot 2 as well: remaining slots 1 and 3 are equidistant.
        ring.occupy(
            2,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 1,
            },
        );
        let s = HotPotato::best_free_slot(&ring).expect("slots remain");
        assert!(s == 1 || s == 3);
        ring.occupy(
            s,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 2,
            },
        );
        let last = HotPotato::best_free_slot(&ring).expect("one slot left");
        ring.occupy(
            last,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 3,
            },
        );
        assert_eq!(HotPotato::best_free_slot(&ring), None);
    }

    #[test]
    fn best_free_slot_on_empty_ring_is_first() {
        let ring: RingRotation<ThreadId> = RingRotation::new(vec![CoreId(0), CoreId(1), CoreId(2)]);
        assert_eq!(HotPotato::best_free_slot(&ring), Some(0));
    }

    #[test]
    fn config_validation() {
        let bad = HotPotatoConfig {
            tau_levels: vec![],
            ..HotPotatoConfig::default()
        };
        assert!(HotPotato::new(model_4x4(), bad).is_err());
        let bad = HotPotatoConfig {
            initial_tau_index: 99,
            ..HotPotatoConfig::default()
        };
        assert!(HotPotato::new(model_4x4(), bad).is_err());
    }

    #[test]
    fn runs_blackscholes_thermally_safe() {
        // The Fig. 2(c) scenario: HotPotato must complete the job without
        // ever crossing the threshold, by rotating on the centre ring.
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig {
                record_trace: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let m = sim.run(blackscholes_job(), &mut hp).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(
            m.migrations > 10,
            "rotation happened ({} migrations)",
            m.migrations
        );
        assert!(
            m.peak_temperature < 70.5,
            "thermally safe (peak {:.1})",
            m.peak_temperature
        );
        assert_eq!(m.dtm_intervals, 0, "no DTM events");
    }

    #[test]
    fn rotation_disabled_is_respected() {
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let cfg = HotPotatoConfig {
            rotation_enabled: false,
            ..HotPotatoConfig::default()
        };
        let mut hp = HotPotato::new(model_4x4(), cfg).unwrap();
        let m = sim.run(blackscholes_job(), &mut hp).unwrap();
        assert_eq!(m.completed_jobs(), 1);
    }

    #[test]
    fn cool_job_eventually_stops_rotating() {
        // A memory-bound canneal instance is sustainable pinned; after the
        // headroom logic runs, rotation should stop.
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(2),
            arrival: 0.0,
        }];
        let m = sim.run(jobs, &mut hp).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(!hp.is_rotating(), "rotation stopped for a cool workload");
    }

    #[test]
    fn evaluations_counted() {
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        sim.run(blackscholes_job(), &mut hp).unwrap();
        assert!(hp.evaluations() > 0);
    }

    #[test]
    fn observability_reports_probe_activity() {
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let metrics = sim.run(blackscholes_job(), &mut hp).unwrap();
        let report = hp.observability().expect("hotpotato reports");
        assert_eq!(report.counter("alg1.evaluations"), Some(hp.evaluations()));
        assert_eq!(report.counter("alg1.solver_failures"), Some(0));
        assert!(report.counter("alg1.batched_candidates").unwrap_or(0) > 0);
        assert!(report.histogram("alg1.probe").is_some_and(|h| h.count > 0));
        assert!(report.meta_value("gemm_backend").is_some());
        // The engine folded the same report in under the `sched.` prefix.
        let merged = &metrics.observability;
        assert_eq!(
            merged.counter("sched.alg1.evaluations"),
            Some(hp.evaluations())
        );
        assert!(merged.counter("engine.intervals").unwrap_or(0) > 0);
        assert!(merged
            .histogram("hook.schedule")
            .is_some_and(|h| h.count > 0));
        assert_eq!(
            merged.meta_value("gemm_backend"),
            Matrix::gemm_backend().into()
        );
    }

    #[test]
    fn snapshot_round_trips_through_restore() {
        // Drive the scheduler through a real run so every field
        // (rings, powers, tau ladder, solver stats) is non-trivial,
        // then check snapshot -> restore -> snapshot is a fixpoint.
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        sim.run(blackscholes_job(), &mut hp).unwrap();
        let blob = hp.snapshot().expect("hotpotato snapshots");

        let mut fresh = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        fresh.restore(&blob).expect("restore accepts own snapshot");
        assert_eq!(
            fresh.snapshot().expect("snapshot after restore"),
            blob,
            "snapshot/restore must be a fixpoint"
        );
        assert_eq!(fresh.evaluations(), hp.evaluations());
        assert_eq!(fresh.solver_failures(), hp.solver_failures());
        assert_eq!(fresh.tau(), hp.tau());
        assert_eq!(fresh.is_rotating(), hp.is_rotating());
        let a = fresh.solver().stats();
        let b = hp.solver().stats();
        assert_eq!(a.decay_cache_hits, b.decay_cache_hits);
        assert_eq!(a.decay_cache_misses, b.decay_cache_misses);
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        assert!(hp.restore("not json").is_err());
        assert!(hp.restore("{}").is_err(), "missing fields rejected");
        // tau_index beyond the ladder must be refused, not clamped.
        let blob = hp.snapshot().expect("snapshots");
        let bad = blob.replace("\"tau_index\":1", "\"tau_index\":99");
        assert_ne!(bad, blob);
        assert!(hp.restore(&bad).is_err());
    }
}

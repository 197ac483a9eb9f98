//! Versioned engine checkpoints (`hp-ckpt-v1`): mid-run state capture
//! with content digests and spec binding (DESIGN.md §13).
//!
//! A checkpoint freezes everything [`Simulation::run_with_options`]
//! (crate::Simulation) mutates between intervals — simulated time, the
//! thermal node-state vector, queues, per-thread runtimes, fault-injector
//! RNG cursors, metrics and observability counters, the recorded trace,
//! and the scheduler's opaque snapshot blob — so a run killed at a
//! checkpoint boundary resumes *bit-identical* to an uninterrupted one
//! (same trace, same `RunReport::without_timings`).
//!
//! The document is JSON written and read with the workspace codec
//! (`hp_obs::json`), wrapped in an integrity envelope:
//!
//! ```json
//! {"schema": "hp-ckpt-v1",
//!  "spec_hash": "0011223344556677",
//!  "digest":    "8899aabbccddeeff",
//!  "state": { ... }}
//! ```
//!
//! * `digest` is FNV-1a over the *canonical* encoding of `state`: the
//!   loader decodes the state, re-encodes it canonically and compares.
//!   A corrupted-but-parseable document is a typed
//!   [`CheckpointError::DigestMismatch`], never a silent wrong resume.
//! * `spec_hash` binds the checkpoint to one (machine, config, workload,
//!   scheduler) tuple; resuming against anything else is a typed
//!   [`CheckpointError::SpecMismatch`].
//! * Truncated or malformed documents are [`CheckpointError::Parse`];
//!   an unknown schema string is [`CheckpointError::Version`].
//!
//! Floats follow the codec's tagged rule (a fresh thread's `last_cpi`
//! is ∞, written `"inf"`), so decode→encode is bit-identical.

use std::fmt::Write as _;
use std::path::Path;

use hp_faults::{ConditionerSnapshot, InjectorSnapshot};
use hp_manycore::Machine;
use hp_obs::fnv1a;
use hp_obs::json::{self, push_float_tagged, push_list, push_lit, push_str, Cursor, Obj};
use hp_workload::Job;

use crate::job::ThreadId;
use crate::metrics::{JobRecord, Robustness};
use crate::trace::{TraceEvent, TraceEventKind};
use crate::SimConfig;

/// The schema string every `hp-ckpt-v1` document carries.
pub const CHECKPOINT_SCHEMA: &str = "hp-ckpt-v1";

/// Typed failures of checkpoint save/load/verify.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The document is truncated or not well-formed `hp-ckpt-v1` JSON.
    Parse {
        /// What failed, with position where available.
        message: String,
    },
    /// The document's schema string is not [`CHECKPOINT_SCHEMA`].
    Version {
        /// The schema string found in the document.
        found: String,
    },
    /// The stored content digest does not match the canonical re-encoding
    /// of the decoded state — the document was corrupted in flight.
    DigestMismatch {
        /// Digest stored in the document.
        expected: u64,
        /// Digest of the re-encoded state.
        found: u64,
    },
    /// The checkpoint was taken under a different (machine, config,
    /// workload, scheduler) tuple than the one it is being resumed into.
    SpecMismatch {
        /// Spec hash of the run being resumed.
        expected: u64,
        /// Spec hash stored in the checkpoint.
        found: u64,
    },
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The OS error, with the path.
        message: String,
    },
    /// The document verified but could not be re-bound to the run (e.g.
    /// a job id that the supplied workload does not contain).
    Invalid {
        /// What failed to rebind.
        message: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse { message } => {
                write!(f, "malformed checkpoint document: {message}")
            }
            CheckpointError::Version { found } => {
                write!(
                    f,
                    "unsupported checkpoint schema `{found}` (expected `{CHECKPOINT_SCHEMA}`)"
                )
            }
            CheckpointError::DigestMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint digest mismatch: document says {expected:016x}, state re-encodes to {found:016x}"
                )
            }
            CheckpointError::SpecMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint belongs to a different run: spec hash {found:016x}, this run is {expected:016x}"
                )
            }
            CheckpointError::Io { message } => write!(f, "checkpoint I/O failure: {message}"),
            CheckpointError::Invalid { message } => {
                write!(f, "checkpoint cannot be re-bound to this run: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<hp_obs::ObsError> for CheckpointError {
    fn from(e: hp_obs::ObsError) -> Self {
        CheckpointError::Parse {
            message: e.to_string(),
        }
    }
}

/// Crate-local result alias for checkpoint operations.
pub(crate) type CkptResult<T> = std::result::Result<T, CheckpointError>;

/// Fingerprint of everything a checkpoint is only valid against: the
/// machine geometry, the full engine configuration (including the fault
/// plan), the workload (in the arrival order the engine will use) and
/// the scheduler's name. Two runs with equal spec hashes walk identical
/// deterministic trajectories, which is what makes mid-run state
/// transplantable between them.
pub(crate) fn spec_hash(
    machine: &Machine,
    config: &SimConfig,
    jobs: &[Job],
    scheduler_name: &str,
) -> u64 {
    let arch = machine.config();
    let mut s = String::new();
    let _ = write!(s, "grid={}x{};", arch.grid_width, arch.grid_height);
    let _ = write!(
        s,
        "dt={};sched_period={};t_dtm={};dtm={};scope={:?};horizon={};trace={};window={};prewarm={:?};hyst={};stale={};",
        config.dt,
        config.sched_period,
        config.t_dtm,
        config.dtm_enabled,
        config.dtm_scope,
        config.horizon,
        config.record_trace,
        config.power_history_window,
        config.prewarm_power,
        config.dtm_hysteresis_celsius,
        config.sensor_staleness_budget_intervals,
    );
    s.push_str("faults=");
    s.push_str(&config.faults.to_json_string());
    s.push(';');
    // Hash jobs in the stable arrival order init_run will sort them
    // into, so the hash is invariant to the caller's vector order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].arrival.total_cmp(&jobs[b].arrival));
    for i in order {
        let j = &jobs[i];
        let _ = write!(
            s,
            "job={}|{}|{}|{};",
            j.id.0,
            j.benchmark.name(),
            j.arrival,
            j.spec.thread_count()
        );
    }
    s.push_str("scheduler=");
    s.push_str(scheduler_name);
    fnv1a(s.as_bytes())
}

/// One thread's frozen runtime.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThreadState {
    pub core: usize,
    /// `Some(remaining)` while running, `None` at the barrier.
    pub running: Option<u64>,
    pub stall_until: f64,
    pub warmup_until: f64,
    /// `(samples, window, total_time, total_energy)` of the power
    /// history, verbatim.
    pub history: (Vec<(f64, f64)>, f64, f64, f64),
    pub last_cpi: f64,
    pub migrations: u64,
    pub instructions_retired: u64,
    pub energy: f64,
}

/// One active job's frozen runtime (the `Job` itself is re-bound from
/// the workload at resume; the spec hash guarantees it matches).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveJobState {
    pub job: usize,
    pub phase: usize,
    pub completed: Option<f64>,
    pub threads: Vec<ThreadState>,
}

/// Frozen scalar metrics (per-job records travel separately; derived
/// fields are recomputed at finalize).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct MetricsState {
    pub makespan: f64,
    pub peak_temperature: f64,
    pub dtm_intervals: u64,
    pub migrations: u64,
    pub energy: f64,
    pub simulated_time: f64,
}

/// Frozen fault-layer runtime: injector RNG cursor and episode state,
/// conditioner hold/staleness state, and the last conditioned view.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultState {
    pub injector: InjectorSnapshot,
    pub conditioner: ConditionerSnapshot,
    pub sensed_temps: Vec<f64>,
    pub confidence: Vec<f64>,
    pub sensors_degraded: bool,
}

/// Frozen observability registry: seed-deterministic counters, gauges
/// and metadata. Wall-clock histograms are deliberately dropped — they
/// are excluded from `RunReport::without_timings` and cannot be resumed
/// meaningfully.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ObsState {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub meta: Vec<(String, String)>,
}

/// Frozen temperature trace + degradation event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct TraceState {
    pub times: Vec<f64>,
    pub temps: Vec<Vec<f64>>,
    pub events: Vec<TraceEvent>,
}

/// Everything the engine needs to rebuild a `RunState` mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointState {
    pub step: u64,
    pub node_temps: Vec<f64>,
    pub levels: Vec<usize>,
    pub occupancy: Vec<Option<ThreadId>>,
    pub pending: Vec<usize>,
    pub arrivals: Vec<usize>,
    pub active: Vec<ActiveJobState>,
    pub records: Vec<JobRecord>,
    pub completed: u64,
    pub dtm_last_interval: bool,
    pub dtm_core_latch: Vec<bool>,
    pub busy_freq_integral: f64,
    pub busy_time: f64,
    pub sched_was_degraded: bool,
    pub metrics: MetricsState,
    pub robustness: Robustness,
    pub faults: Option<FaultState>,
    pub obs: ObsState,
    pub trace: TraceState,
    /// `TransientStats` of the thermal solver, in declaration order:
    /// `[batch_calls, batched_states, decay_cache_hits, decay_cache_misses]`.
    pub thermal_stats: [u64; 4],
    /// `NumericsStats` of the thermal solver, in declaration order:
    /// `[fallback_activations, fallback_steps, guard_trips]`. Absent in
    /// checkpoints predating the numerical-integrity layer (all zero).
    pub numerics_stats: [u64; 3],
    pub scheduler_name: String,
    pub scheduler_blob: Option<String>,
}

/// A verified, versioned engine checkpoint — the unit of crash recovery
/// for long simulations (DESIGN.md §13).
///
/// Construct one by running with
/// [`RunOptions::checkpoint_every_seconds`](crate::RunOptions) and load
/// it back with [`EngineCheckpoint::load_from_path`]; hand it to
/// [`RunOptions::resume_from`](crate::RunOptions) to continue the run.
/// The loader has already digest-verified the state; the spec-hash
/// binding is enforced again by the engine at resume time.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    pub(crate) spec_hash: u64,
    pub(crate) state: CheckpointState,
}

impl EngineCheckpoint {
    /// The fingerprint of the (machine, config, workload, scheduler)
    /// tuple the checkpoint was taken under.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// The simulation interval counter at capture time.
    pub fn step(&self) -> u64 {
        self.state.step
    }

    /// Simulated seconds elapsed at capture time.
    pub fn simulated_seconds(&self) -> f64 {
        self.state.metrics.simulated_time
    }

    /// Renders the full `hp-ckpt-v1` document, digest included.
    pub fn to_json_string(&self) -> String {
        let state = encode_state(&self.state);
        let digest = fnv1a(state.as_bytes());
        format!(
            "{{\"schema\": \"{CHECKPOINT_SCHEMA}\", \"spec_hash\": \"{:016x}\", \"digest\": \"{digest:016x}\", \"state\": {state}}}",
            self.spec_hash
        )
    }

    /// Parses and verifies an `hp-ckpt-v1` document.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Parse`] — truncated or malformed JSON, or a
    ///   structurally wrong state block.
    /// * [`CheckpointError::Version`] — unknown schema string.
    /// * [`CheckpointError::DigestMismatch`] — the state decodes but its
    ///   canonical re-encoding does not hash to the stored digest.
    pub fn from_json_str(src: &str) -> CkptResult<Self> {
        let parsed = json::parse(src)?;
        let doc = parsed.cursor("checkpoint");
        let schema = doc.field("schema")?.str()?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Version {
                found: schema.to_string(),
            });
        }
        let spec_hash = hex_field(&doc, "spec_hash")?;
        let digest = hex_field(&doc, "digest")?;
        let state = decode_state(&doc.field("state")?)?;
        let found = fnv1a(encode_state(&state).as_bytes());
        if found != digest {
            return Err(CheckpointError::DigestMismatch {
                expected: digest,
                found,
            });
        }
        Ok(EngineCheckpoint { spec_hash, state })
    }

    /// Atomically writes the document to `path` (tmp file + rename, so a
    /// crash mid-write never leaves a truncated checkpoint under the
    /// real name).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures.
    pub fn save_to_path(&self, path: &Path) -> CkptResult<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json_string()).map_err(|e| CheckpointError::Io {
            message: format!("writing {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io {
            message: format!("renaming {} to {}: {e}", tmp.display(), path.display()),
        })
    }

    /// Reads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures, plus everything
    /// [`EngineCheckpoint::from_json_str`] can raise.
    pub fn load_from_path(path: &Path) -> CkptResult<Self> {
        let src = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            message: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_json_str(&src)
    }
}

fn hex_field(doc: &Cursor<'_>, key: &str) -> CkptResult<u64> {
    let field = doc.field(key)?;
    let raw = field.str()?;
    u64::from_str_radix(raw, 16).map_err(|_| field.error("a 64-bit hex string").into())
}

// ---------------------------------------------------------------------
// Canonical encoding. The digest is computed over exactly this output,
// so every choice here (member order, float rule, the whitespace-free
// canonical layout) is part of the format contract.
// ---------------------------------------------------------------------

const C: json::Layout = json::Layout::Canonical;

fn lits<T: std::fmt::Display>(out: &mut String, items: &[T]) {
    push_list(out, C, items, push_lit);
}

fn floats(out: &mut String, items: &[f64]) {
    push_list(out, C, items.iter().copied(), push_float_tagged);
}

fn opt_float(out: &mut String, v: Option<f64>) {
    match v {
        None => out.push_str("null"),
        Some(v) => push_float_tagged(out, v),
    }
}

fn encode_state(s: &CheckpointState) -> String {
    let mut out = String::with_capacity(4096);
    let mut o = Obj::open(&mut out, C);
    o.lit("step", s.step);
    floats(o.key("node_temps"), &s.node_temps);
    lits(o.key("levels"), &s.levels);
    push_list(
        o.key("occupancy"),
        C,
        &s.occupancy,
        |out, slot| match slot {
            None => out.push_str("null"),
            Some(t) => lits(out, &[t.job.0, t.index]),
        },
    );
    lits(o.key("pending"), &s.pending);
    lits(o.key("arrivals"), &s.arrivals);
    push_list(o.key("active"), C, &s.active, encode_active_job);
    push_list(o.key("records"), C, &s.records, |out, r| {
        let mut o = Obj::open(out, C);
        o.lit("job", r.job.0)
            .str("benchmark", &r.benchmark)
            .lit("threads", r.threads)
            .f64_tagged("arrival", r.arrival)
            .f64_tagged("started", r.started);
        opt_float(o.key("completed"), r.completed);
        o.lit("instructions", r.instructions)
            .lit("migrations", r.migrations)
            .f64_tagged("energy", r.energy);
        o.close();
    });
    o.lit("completed", s.completed)
        .lit("dtm_last_interval", s.dtm_last_interval);
    lits(o.key("dtm_core_latch"), &s.dtm_core_latch);
    o.f64_tagged("busy_freq_integral", s.busy_freq_integral)
        .f64_tagged("busy_time", s.busy_time)
        .lit("sched_was_degraded", s.sched_was_degraded);
    let m = &s.metrics;
    let mut mo = Obj::open(o.key("metrics"), C);
    mo.f64_tagged("makespan", m.makespan)
        .f64_tagged("peak_temperature", m.peak_temperature)
        .lit("dtm_intervals", m.dtm_intervals)
        .lit("migrations", m.migrations)
        .f64_tagged("energy", m.energy)
        .f64_tagged("simulated_time", m.simulated_time);
    mo.close();
    let r = &s.robustness;
    let mut ro = Obj::open(o.key("robustness"), C);
    ro.lit("faults_enabled", r.faults_enabled)
        .lit("noisy_readings", r.noisy_readings)
        .lit("stuck_readings", r.stuck_readings)
        .lit("sensor_dropouts", r.sensor_dropouts)
        .lit("migration_faults", r.migration_faults)
        .lit("power_spikes", r.power_spikes)
        .lit("dropped_actions", r.dropped_actions)
        .f64_tagged("min_sensor_confidence", r.min_sensor_confidence)
        .lit("fallback_intervals", r.fallback_intervals)
        .lit("fallback_activations", r.fallback_activations)
        .lit("watchdog_intervals", r.watchdog_intervals)
        .lit("watchdog_activations", r.watchdog_activations);
    ro.close();
    match &s.faults {
        None => o.key("faults").push_str("null"),
        Some(f) => encode_faults(o.key("faults"), f),
    }
    let mut ob = Obj::open(o.key("obs"), C);
    push_list(ob.key("counters"), C, &s.obs.counters, |out, (name, v)| {
        out.push('[');
        push_str(out, name);
        let _ = write!(out, ",{v}]");
    });
    push_list(ob.key("gauges"), C, &s.obs.gauges, |out, (name, v)| {
        out.push('[');
        push_str(out, name);
        out.push(',');
        push_float_tagged(out, *v);
        out.push(']');
    });
    push_list(ob.key("meta"), C, &s.obs.meta, |out, (name, v)| {
        out.push('[');
        push_str(out, name);
        out.push(',');
        push_str(out, v);
        out.push(']');
    });
    ob.close();
    let mut tr = Obj::open(o.key("trace"), C);
    floats(tr.key("times"), &s.trace.times);
    push_list(tr.key("temps"), C, &s.trace.temps, |out, row| {
        floats(out, row);
    });
    push_list(tr.key("events"), C, &s.trace.events, |out, ev| {
        out.push('[');
        push_float_tagged(out, ev.time_seconds);
        out.push(',');
        push_str(out, ev.kind.label());
        out.push(',');
        push_str(out, &ev.detail);
        out.push(']');
    });
    tr.close();
    lits(o.key("thermal_stats"), &s.thermal_stats);
    lits(o.key("numerics_stats"), &s.numerics_stats);
    let mut sc = Obj::open(o.key("scheduler"), C);
    sc.str("name", &s.scheduler_name);
    match &s.scheduler_blob {
        None => sc.key("blob").push_str("null"),
        Some(b) => push_str(sc.key("blob"), b),
    }
    sc.close();
    o.close();
    out
}

fn encode_active_job(out: &mut String, a: &ActiveJobState) {
    let mut o = Obj::open(out, C);
    o.lit("job", a.job).lit("phase", a.phase);
    opt_float(o.key("completed"), a.completed);
    push_list(o.key("threads"), C, &a.threads, |out, t| {
        let mut o = Obj::open(out, C);
        o.lit("core", t.core);
        match t.running {
            None => o.key("running").push_str("null"),
            Some(r) => push_lit(o.key("running"), r),
        }
        o.f64_tagged("stall_until", t.stall_until)
            .f64_tagged("warmup_until", t.warmup_until);
        let (samples, window, total_time, total_energy) = &t.history;
        let mut h = Obj::open(o.key("history"), C);
        h.f64_tagged("window", *window)
            .f64_tagged("total_time", *total_time)
            .f64_tagged("total_energy", *total_energy);
        push_list(h.key("samples"), C, samples, |out, &(d, w)| {
            floats(out, &[d, w]);
        });
        h.close();
        o.f64_tagged("last_cpi", t.last_cpi)
            .lit("migrations", t.migrations)
            .lit("instructions_retired", t.instructions_retired)
            .f64_tagged("energy", t.energy);
        o.close();
    });
    o.close();
}

fn encode_faults(out: &mut String, f: &FaultState) {
    let mut o = Obj::open(out, C);
    let inj = &f.injector;
    let mut io = Obj::open(o.key("injector"), C);
    lits(io.key("rng_state"), &inj.rng_state);
    lits(io.key("stuck_until"), &inj.stuck_until);
    floats(io.key("stuck_value_celsius"), &inj.stuck_value_celsius);
    io.lit("blackout_until", inj.blackout_until)
        .lit("spike_core", inj.spike_core)
        .lit("spike_until", inj.spike_until)
        .lit("interval", inj.interval);
    let st = &inj.stats;
    let mut so = Obj::open(io.key("stats"), C);
    so.lit("noisy_readings", st.noisy_readings)
        .lit("stuck_episodes", st.stuck_episodes)
        .lit("stuck_readings", st.stuck_readings)
        .lit("dropouts", st.dropouts)
        .lit("migration_failures", st.migration_failures)
        .lit("migration_blackouts", st.migration_blackouts)
        .lit("power_spikes", st.power_spikes);
    so.close();
    io.close();
    let c = &f.conditioner;
    let mut co = Obj::open(o.key("conditioner"), C);
    floats(co.key("last_good_celsius"), &c.last_good_celsius);
    lits(co.key("staleness"), &c.staleness);
    lits(co.key("seen"), &c.seen);
    co.close();
    floats(o.key("sensed_temps"), &f.sensed_temps);
    floats(o.key("confidence"), &f.confidence);
    o.lit("sensors_degraded", f.sensors_degraded);
    o.close();
}

// ---------------------------------------------------------------------
// Decoding. Every shape failure is CheckpointError::Parse naming the
// field's path, so a hand-edited or truncated document fails loudly.
// ---------------------------------------------------------------------

fn opt_tagged(c: &Cursor<'_>) -> hp_obs::Result<Option<f64>> {
    if c.is_null() {
        Ok(None)
    } else {
        c.f64_tagged().map(Some)
    }
}

/// An array of exactly `N` counters.
fn counters<const N: usize>(c: &Cursor<'_>) -> hp_obs::Result<[u64; N]> {
    c.list(Cursor::u64)?
        .try_into()
        .map_err(|_| c.error(&format!("an array of {N} counters")))
}

/// A `[name, value]` pair.
fn named<'a, T>(
    c: &Cursor<'a>,
    value: impl Fn(&Cursor<'a>) -> hp_obs::Result<T>,
) -> hp_obs::Result<(String, T)> {
    let [name, v] = c.tuple()?;
    Ok((name.str()?.to_string(), value(&v)?))
}

fn decode_state(v: &Cursor<'_>) -> hp_obs::Result<CheckpointState> {
    let m = v.field("metrics")?;
    let metrics = MetricsState {
        makespan: m.field("makespan")?.f64_tagged()?,
        peak_temperature: m.field("peak_temperature")?.f64_tagged()?,
        dtm_intervals: m.field("dtm_intervals")?.u64()?,
        migrations: m.field("migrations")?.u64()?,
        energy: m.field("energy")?.f64_tagged()?,
        simulated_time: m.field("simulated_time")?.f64_tagged()?,
    };
    let r = v.field("robustness")?;
    let robustness = Robustness {
        faults_enabled: r.field("faults_enabled")?.bool()?,
        noisy_readings: r.field("noisy_readings")?.u64()?,
        stuck_readings: r.field("stuck_readings")?.u64()?,
        sensor_dropouts: r.field("sensor_dropouts")?.u64()?,
        migration_faults: r.field("migration_faults")?.u64()?,
        power_spikes: r.field("power_spikes")?.u64()?,
        dropped_actions: r.field("dropped_actions")?.u64()?,
        min_sensor_confidence: r.field("min_sensor_confidence")?.f64_tagged()?,
        fallback_intervals: r.field("fallback_intervals")?.u64()?,
        fallback_activations: r.field("fallback_activations")?.u64()?,
        watchdog_intervals: r.field("watchdog_intervals")?.u64()?,
        watchdog_activations: r.field("watchdog_activations")?.u64()?,
    };
    let faults = v.field("faults")?;
    let ob = v.field("obs")?;
    let tr = v.field("trace")?;
    let sc = v.field("scheduler")?;
    let blob = sc.field("blob")?;
    Ok(CheckpointState {
        step: v.field("step")?.u64()?,
        node_temps: v.field("node_temps")?.list(Cursor::f64_tagged)?,
        levels: v.field("levels")?.list(Cursor::usize)?,
        occupancy: v.field("occupancy")?.list(|slot| {
            if slot.is_null() {
                return Ok(None);
            }
            let [job, index] = slot.tuple()?;
            Ok(Some(ThreadId {
                job: hp_workload::JobId(job.usize()?),
                index: index.usize()?,
            }))
        })?,
        pending: v.field("pending")?.list(Cursor::usize)?,
        arrivals: v.field("arrivals")?.list(Cursor::usize)?,
        active: v.field("active")?.list(decode_active_job)?,
        records: v.field("records")?.list(|r| {
            Ok(JobRecord {
                job: hp_workload::JobId(r.field("job")?.usize()?),
                benchmark: r.field("benchmark")?.str()?.to_string(),
                threads: r.field("threads")?.usize()?,
                arrival: r.field("arrival")?.f64_tagged()?,
                started: r.field("started")?.f64_tagged()?,
                completed: opt_tagged(&r.field("completed")?)?,
                instructions: r.field("instructions")?.u64()?,
                migrations: r.field("migrations")?.u64()?,
                energy: r.field("energy")?.f64_tagged()?,
            })
        })?,
        completed: v.field("completed")?.u64()?,
        dtm_last_interval: v.field("dtm_last_interval")?.bool()?,
        dtm_core_latch: v.field("dtm_core_latch")?.list(Cursor::bool)?,
        busy_freq_integral: v.field("busy_freq_integral")?.f64_tagged()?,
        busy_time: v.field("busy_time")?.f64_tagged()?,
        sched_was_degraded: v.field("sched_was_degraded")?.bool()?,
        metrics,
        robustness,
        faults: if faults.is_null() {
            None
        } else {
            Some(decode_faults(&faults)?)
        },
        obs: ObsState {
            counters: ob.field("counters")?.list(|e| named(e, Cursor::u64))?,
            gauges: ob.field("gauges")?.list(|e| named(e, Cursor::f64_tagged))?,
            meta: ob
                .field("meta")?
                .list(|e| named(e, |v| v.str().map(str::to_string)))?,
        },
        trace: TraceState {
            times: tr.field("times")?.list(Cursor::f64_tagged)?,
            temps: tr
                .field("temps")?
                .list(|row| row.list(Cursor::f64_tagged))?,
            events: tr.field("events")?.list(|e| {
                let [time, kind, detail] = e.tuple()?;
                Ok(TraceEvent {
                    time_seconds: time.f64_tagged()?,
                    kind: TraceEventKind::from_label(kind.str()?)
                        .ok_or_else(|| kind.error("a trace event kind"))?,
                    detail: detail.str()?.to_string(),
                })
            })?,
        },
        thermal_stats: counters(&v.field("thermal_stats")?)?,
        // Optional: absent in checkpoints predating the numerical-integrity layer.
        numerics_stats: match v.opt("numerics_stats") {
            Some(c) => counters(&c)?,
            None => [0, 0, 0],
        },
        scheduler_name: sc.field("name")?.str()?.to_string(),
        scheduler_blob: if blob.is_null() {
            None
        } else {
            Some(blob.str()?.to_string())
        },
    })
}
fn decode_active_job(a: &Cursor<'_>) -> hp_obs::Result<ActiveJobState> {
    Ok(ActiveJobState {
        job: a.field("job")?.usize()?,
        phase: a.field("phase")?.usize()?,
        completed: opt_tagged(&a.field("completed")?)?,
        threads: a.field("threads")?.list(|t| {
            let running = t.field("running")?;
            let h = t.field("history")?;
            Ok(ThreadState {
                core: t.field("core")?.usize()?,
                running: if running.is_null() {
                    None
                } else {
                    Some(running.u64()?)
                },
                stall_until: t.field("stall_until")?.f64_tagged()?,
                warmup_until: t.field("warmup_until")?.f64_tagged()?,
                history: (
                    h.field("samples")?.list(|s| {
                        let [d, w] = s.tuple()?;
                        Ok((d.f64_tagged()?, w.f64_tagged()?))
                    })?,
                    h.field("window")?.f64_tagged()?,
                    h.field("total_time")?.f64_tagged()?,
                    h.field("total_energy")?.f64_tagged()?,
                ),
                last_cpi: t.field("last_cpi")?.f64_tagged()?,
                migrations: t.field("migrations")?.u64()?,
                instructions_retired: t.field("instructions_retired")?.u64()?,
                energy: t.field("energy")?.f64_tagged()?,
            })
        })?,
    })
}

fn decode_faults(f: &Cursor<'_>) -> hp_obs::Result<FaultState> {
    let inj = f.field("injector")?;
    let st = inj.field("stats")?;
    let c = f.field("conditioner")?;
    Ok(FaultState {
        injector: InjectorSnapshot {
            rng_state: counters(&inj.field("rng_state")?)?,
            stuck_until: inj.field("stuck_until")?.list(Cursor::u64)?,
            stuck_value_celsius: inj.field("stuck_value_celsius")?.list(Cursor::f64_tagged)?,
            blackout_until: inj.field("blackout_until")?.u64()?,
            spike_core: inj.field("spike_core")?.usize()?,
            spike_until: inj.field("spike_until")?.u64()?,
            interval: inj.field("interval")?.u64()?,
            stats: hp_faults::FaultStats {
                noisy_readings: st.field("noisy_readings")?.u64()?,
                stuck_episodes: st.field("stuck_episodes")?.u64()?,
                stuck_readings: st.field("stuck_readings")?.u64()?,
                dropouts: st.field("dropouts")?.u64()?,
                migration_failures: st.field("migration_failures")?.u64()?,
                migration_blackouts: st.field("migration_blackouts")?.u64()?,
                power_spikes: st.field("power_spikes")?.u64()?,
            },
        },
        conditioner: ConditionerSnapshot {
            last_good_celsius: c.field("last_good_celsius")?.list(Cursor::f64_tagged)?,
            staleness: c.field("staleness")?.list(Cursor::u64)?,
            seen: c.field("seen")?.list(Cursor::bool)?,
        },
        sensed_temps: f.field("sensed_temps")?.list(Cursor::f64_tagged)?,
        confidence: f.field("confidence")?.list(Cursor::f64_tagged)?,
        sensors_degraded: f.field("sensors_degraded")?.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_workload::JobId;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            step: 42,
            node_temps: vec![45.0, 46.25, -0.0],
            levels: vec![2, 0],
            occupancy: vec![
                Some(ThreadId {
                    job: JobId(1),
                    index: 0,
                }),
                None,
            ],
            pending: vec![3],
            arrivals: vec![4, 5],
            active: vec![ActiveJobState {
                job: 1,
                phase: 1,
                completed: None,
                threads: vec![ThreadState {
                    core: 0,
                    running: Some(12345),
                    stall_until: 0.0015,
                    warmup_until: 0.002,
                    history: (vec![(1e-4, 2.5), (1e-4, 2.75)], 0.01, 2e-4, 5.25e-4),
                    last_cpi: f64::INFINITY,
                    migrations: 2,
                    instructions_retired: 777,
                    energy: 0.125,
                }],
            }],
            records: vec![JobRecord {
                job: JobId(1),
                benchmark: "canneal".into(),
                threads: 1,
                arrival: 0.0,
                started: 0.0,
                completed: None,
                instructions: 0,
                migrations: 0,
                energy: 0.0,
            }],
            completed: 0,
            dtm_last_interval: true,
            dtm_core_latch: vec![true, false],
            busy_freq_integral: 1.23,
            busy_time: 0.42,
            sched_was_degraded: false,
            metrics: MetricsState {
                makespan: 0.0,
                peak_temperature: 71.5,
                dtm_intervals: 3,
                migrations: 2,
                energy: 9.75,
                simulated_time: 0.0042,
            },
            robustness: Robustness {
                faults_enabled: true,
                noisy_readings: 7,
                min_sensor_confidence: 0.5,
                ..Robustness::default()
            },
            faults: Some(FaultState {
                injector: InjectorSnapshot {
                    rng_state: [u64::MAX, 1, 2, 3],
                    stuck_until: vec![0, 9],
                    stuck_value_celsius: vec![0.0, 55.5],
                    blackout_until: 0,
                    spike_core: 1,
                    spike_until: 50,
                    interval: 42,
                    stats: hp_faults::FaultStats {
                        noisy_readings: 7,
                        ..hp_faults::FaultStats::default()
                    },
                },
                conditioner: ConditionerSnapshot {
                    last_good_celsius: vec![45.0, 55.5],
                    staleness: vec![0, 2],
                    seen: vec![true, true],
                },
                sensed_temps: vec![45.0, 55.5],
                confidence: vec![1.0, 0.5],
                sensors_degraded: false,
            }),
            obs: ObsState {
                counters: vec![("engine.intervals".into(), 42)],
                gauges: vec![("g".into(), f64::NEG_INFINITY)],
                meta: vec![("k".into(), "v — µ".into())],
            },
            trace: TraceState {
                times: vec![0.0, 1e-4],
                temps: vec![vec![45.0, 46.0], vec![45.5, 46.5]],
                events: vec![TraceEvent {
                    time_seconds: 1e-4,
                    kind: TraceEventKind::WatchdogEngaged,
                    detail: "peak 70.1 C".into(),
                }],
            },
            thermal_stats: [42, 42, 41, 1],
            numerics_stats: [0, 0, 0],
            scheduler_name: "hotpotato".into(),
            scheduler_blob: Some("{\"tau_index\":1}".into()),
        }
    }

    #[test]
    fn document_roundtrips_bit_identically() {
        let ckpt = EngineCheckpoint {
            spec_hash: 0x0123_4567_89ab_cdef,
            state: sample_state(),
        };
        let json = ckpt.to_json_string();
        let back = EngineCheckpoint::from_json_str(&json).expect("roundtrip");
        assert_eq!(back, ckpt);
        assert_eq!(back.to_json_string(), json, "encode is canonical");
    }

    /// The canonical encoding, pinned byte for byte: the fixture was
    /// written from these two states by the encoder that predates the
    /// shared codec layer, and the digest hashes exactly these bytes.
    #[test]
    fn canonical_encoding_is_pinned() {
        let golden = include_str!("../../../tests/golden/codecs/checkpoint_state.jsonl");
        let full = EngineCheckpoint {
            spec_hash: 0x0123_4567_89ab_cdef,
            state: sample_state(),
        };
        let mut state = sample_state();
        state.faults = None;
        state.scheduler_blob = None;
        state.busy_time = f64::NAN;
        state.busy_freq_integral = f64::NEG_INFINITY;
        state.metrics.makespan = -0.0;
        let sparse = EngineCheckpoint {
            spec_hash: 7,
            state,
        };
        let encoded = format!("{}\n{}\n", full.to_json_string(), sparse.to_json_string());
        assert!(encoded == golden, "encoding drifted:\n{encoded}");
        for line in golden.lines() {
            let back = EngineCheckpoint::from_json_str(line).expect("pinned document verifies");
            assert_eq!(back.to_json_string(), line);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Arbitrary floats (NaN, ±∞, ±0, subnormals) and counters in
        /// float- and counter-bearing positions survive encode → decode →
        /// encode byte for byte; engine-made checkpoints rarely hold
        /// non-finite values, so these are drawn directly.
        #[test]
        fn encode_decode_encode_is_byte_identical(
            f in proptest::collection::vec(proptest::num::f64::ANY, 12),
            n in proptest::collection::vec(0u64..u64::MAX, 4),
        ) {
            let mut s = sample_state();
            s.node_temps = f[..3].to_vec();
            s.busy_time = f[3];
            s.busy_freq_integral = f[4];
            s.metrics.makespan = f[5];
            let thread = &mut s.active[0].threads[0];
            thread.last_cpi = f[6];
            thread.stall_until = f[7];
            thread.history.0[0] = (f[8], f[9]);
            s.records[0].completed = Some(f[10]);
            s.obs.gauges[0].1 = f[11];
            s.step = n[0];
            s.obs.counters[0].1 = n[1];
            s.thermal_stats[0] = n[2];
            let ckpt = EngineCheckpoint {
                spec_hash: n[3],
                state: s,
            };
            let first = ckpt.to_json_string();
            let again = EngineCheckpoint::from_json_str(&first).map(|c| c.to_json_string());
            proptest::prop_assert_eq!(again, Ok(first));
        }
    }

    #[test]
    fn digest_rejects_tampering() {
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let json = ckpt.to_json_string().replace("\"step\":42", "\"step\":43");
        match EngineCheckpoint::from_json_str(&json) {
            Err(CheckpointError::DigestMismatch { .. }) => {}
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_a_parse_error() {
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let json = ckpt.to_json_string();
        let cut = &json[..json.len() / 2];
        assert!(matches!(
            EngineCheckpoint::from_json_str(cut),
            Err(CheckpointError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_schema_is_a_version_error() {
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let json = ckpt.to_json_string().replace("hp-ckpt-v1", "hp-ckpt-v9");
        assert!(matches!(
            EngineCheckpoint::from_json_str(&json),
            Err(CheckpointError::Version { found }) if found == "hp-ckpt-v9"
        ));
    }

    #[test]
    fn whitespace_and_key_order_do_not_break_the_digest() {
        // The digest covers the canonical re-encoding, not the raw
        // bytes: a pretty-printed but semantically identical document
        // still verifies. (The blob is dropped so the naive reformatter
        // below cannot touch an escaped `\":` *inside* a string value —
        // that would be a real content change, correctly rejected.)
        let mut state = sample_state();
        state.scheduler_blob = None;
        let ckpt = EngineCheckpoint {
            spec_hash: 7,
            state,
        };
        let json = ckpt.to_json_string().replace("\":", "\": ");
        let back = EngineCheckpoint::from_json_str(&json).expect("reformatted doc verifies");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn nonfinite_floats_roundtrip() {
        let mut state = sample_state();
        state.busy_time = f64::NAN;
        state.busy_freq_integral = f64::NEG_INFINITY;
        let ckpt = EngineCheckpoint {
            spec_hash: 2,
            state,
        };
        let back = EngineCheckpoint::from_json_str(&ckpt.to_json_string()).expect("roundtrip");
        assert!(back.state.busy_time.is_nan());
        assert_eq!(back.state.busy_freq_integral, f64::NEG_INFINITY);
    }

    #[test]
    fn save_and_load_are_atomic_and_typed() {
        let dir = std::env::temp_dir().join(format!("hp-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.ckpt.json");
        let ckpt = EngineCheckpoint {
            spec_hash: 3,
            state: sample_state(),
        };
        ckpt.save_to_path(&path).expect("save");
        assert!(
            !path.with_extension("json.tmp").exists(),
            "tmp file renamed away"
        );
        let back = EngineCheckpoint::load_from_path(&path).expect("load");
        assert_eq!(back, ckpt);
        let missing = dir.join("absent.ckpt.json");
        assert!(matches!(
            EngineCheckpoint::load_from_path(&missing),
            Err(CheckpointError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_is_order_invariant_and_sensitive() {
        use hp_manycore::{ArchConfig, Machine};
        use hp_workload::{Benchmark, Job};
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .expect("machine");
        let config = SimConfig::default();
        // Distinct arrivals: the engine's stable arrival sort then fully
        // determines the order, so the caller's vector order must not
        // matter. (Tied arrivals keep caller order — which genuinely
        // changes admission order, so such hashes legitimately differ.)
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job {
                id: JobId(i),
                benchmark: Benchmark::Canneal,
                spec: Benchmark::Canneal.spec(2),
                arrival: i as f64 * 0.1,
            })
            .collect();
        let mut reversed = jobs.clone();
        reversed.reverse();
        let a = spec_hash(&machine, &config, &jobs, "pinned");
        assert_eq!(
            a,
            spec_hash(&machine, &config, &reversed, "pinned"),
            "caller's vector order is immaterial"
        );
        assert_ne!(a, spec_hash(&machine, &config, &jobs, "hotpotato"));
        let other = SimConfig {
            t_dtm: 71.0,
            ..config
        };
        assert_ne!(a, spec_hash(&machine, &other, &jobs, "pinned"));
    }
}

//! The declarative sweep specification.
//!
//! A [`SweepSpec`] names the axes of a cartesian scenario grid —
//! scheduler × benchmark × load level × chip size × fault plan × seed —
//! and [`SweepSpec::expand`] unrolls it into the runner's job vector in
//! a deterministic nested-loop order. The JSON grammar is read and
//! written with [`hp_obs::json`]; inline fault plans use the `hp-faults`
//! plan format.
//!
//! ```json
//! {
//!   "schedulers": ["hotpotato", "pcmig"],
//!   "benchmarks": ["blackscholes"],
//!   "loads": [0.5, 1.0],
//!   "grids": ["4x4"],
//!   "seeds": [42],
//!   "horizon_seconds": 2.0
//! }
//! ```

use std::fmt::Write as _;

use hp_faults::FaultPlan;
use hp_obs::json::{self, push_float, push_list, push_lit, push_str, Cursor, Json, Layout, Obj};
use hp_obs::ObsError;
use hp_sim::SimConfig;
use hp_workload::Benchmark;

use crate::cache::ThermalProfile;
use crate::error::{CampaignError, Result};
use crate::job::{CampaignJob, Workload, SCHEDULER_NAMES};
use crate::report::parse_grid;

/// The keys a spec document may carry, in document order.
const KEYS: [&str; 10] = [
    "schedulers",
    "benchmarks",
    "loads",
    "grids",
    "seeds",
    "fault_plans",
    "thermal",
    "horizon_seconds",
    "open_jobs",
    "rate_per_s",
];

/// The benchmark axis value selecting an open heterogeneous system
/// instead of a closed single-benchmark batch.
pub const MIXED: &str = "mixed";

/// A declarative cartesian sweep over scenario coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Scheduler names (required, each from
    /// [`SCHEDULER_NAMES`](crate::SCHEDULER_NAMES)).
    pub schedulers: Vec<String>,
    /// Benchmark names, or [`MIXED`] for an open Poisson system.
    pub benchmarks: Vec<String>,
    /// Load levels: fraction of the chip's cores filled by the closed
    /// batch (or multiplier on `open_jobs` for [`MIXED`]).
    pub loads: Vec<f64>,
    /// Chip grids `(width, height)`.
    pub grids: Vec<(usize, usize)>,
    /// Workload generator seeds.
    pub seeds: Vec<u64>,
    /// Fault plans (the default is a single inert plan).
    pub fault_plans: Vec<FaultPlan>,
    /// Named RC parameter set every job runs under (`"default"` or
    /// `"ill-conditioned"` in the JSON grammar). Not an axis: numerical
    /// drills sweep scenarios within one profile, they do not mix
    /// physics inside a campaign.
    pub thermal: ThermalProfile,
    /// Simulation horizon per job, seconds.
    pub horizon_seconds: f64,
    /// Job count for [`MIXED`] workloads at load 1.0.
    pub open_jobs: usize,
    /// Poisson arrival rate for [`MIXED`] workloads, jobs per second.
    pub rate_per_s: f64,
}

impl SweepSpec {
    /// A spec sweeping the given schedulers with every other axis at its
    /// default (blackscholes, full load, 8×8, seed 42, no faults).
    pub fn new<S: Into<String>>(schedulers: impl IntoIterator<Item = S>) -> Self {
        SweepSpec {
            schedulers: schedulers.into_iter().map(Into::into).collect(),
            benchmarks: vec!["blackscholes".into()],
            loads: vec![1.0],
            grids: vec![(8, 8)],
            seeds: vec![42],
            fault_plans: vec![FaultPlan::default()],
            thermal: ThermalProfile::Default,
            horizon_seconds: 10.0,
            open_jobs: 16,
            rate_per_s: 50.0,
        }
    }

    /// Parses a spec document, rejecting unknown and duplicate keys so
    /// typos and edit slips fail loudly instead of silently sweeping a
    /// default axis.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] on malformed JSON, unknown or
    /// duplicate keys, or invalid axis values.
    pub fn from_json_str(src: &str) -> Result<Self> {
        let spec = json::parse(src)
            .and_then(|doc| Self::decode(&doc))
            .map_err(|e| CampaignError::Spec(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    fn decode(doc: &Json) -> hp_obs::Result<Self> {
        let doc = doc.cursor("spec");
        doc.strict(&KEYS)?;
        let strings = |c: &Cursor<'_>| c.list(|s| s.str().map(str::to_string));
        let mut spec = SweepSpec::new(strings(&doc.field("schedulers")?)?);
        if let Some(c) = doc.opt("benchmarks") {
            spec.benchmarks = strings(&c)?;
        }
        if let Some(c) = doc.opt("loads") {
            spec.loads = c.list(Cursor::f64)?;
        }
        if let Some(c) = doc.opt("grids") {
            spec.grids = c.list(|g| {
                parse_grid(g.str()?).ok_or_else(|| g.error("a grid `WxH` with nonzero sides"))
            })?;
        }
        if let Some(c) = doc.opt("seeds") {
            spec.seeds = c.list(Cursor::u64)?;
        }
        if let Some(c) = doc.opt("fault_plans") {
            spec.fault_plans = c.list(|p| {
                FaultPlan::from_json(p.value()).map_err(|e| ObsError::Parse {
                    message: format!("`{}`: {e}", p.path()),
                })
            })?;
        }
        if let Some(c) = doc.opt("thermal") {
            spec.thermal = ThermalProfile::from_name(c.str()?)
                .ok_or_else(|| c.error("a thermal profile (\"default\" or \"ill-conditioned\")"))?;
        }
        if let Some(c) = doc.opt("horizon_seconds") {
            spec.horizon_seconds = c.f64()?;
        }
        if let Some(c) = doc.opt("open_jobs") {
            spec.open_jobs = c.usize()?;
        }
        if let Some(c) = doc.opt("rate_per_s") {
            spec.rate_per_s = c.f64()?;
        }
        Ok(spec)
    }

    /// Serialises the spec back to its JSON grammar.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut o = Obj::open(&mut out, Layout::Pretty(0));
        let strings = |out: &mut String, items: &[String]| {
            push_list(out, Layout::Line, items, |out, s| push_str(out, s));
        };
        strings(o.key("schedulers"), &self.schedulers);
        strings(o.key("benchmarks"), &self.benchmarks);
        push_list(
            o.key("loads"),
            Layout::Line,
            self.loads.iter().copied(),
            push_float,
        );
        push_list(o.key("grids"), Layout::Line, &self.grids, |out, (w, h)| {
            let _ = write!(out, "\"{w}x{h}\"");
        });
        push_list(o.key("seeds"), Layout::Line, &self.seeds, push_lit);
        push_list(
            o.key("fault_plans"),
            Layout::Line,
            &self.fault_plans,
            |out, p| p.write_json(out, true),
        );
        o.str("thermal", self.thermal.name())
            .f64("horizon_seconds", self.horizon_seconds)
            .lit("open_jobs", self.open_jobs)
            .f64("rate_per_s", self.rate_per_s);
        o.close();
        out.push('\n');
        out
    }

    /// Checks the axes for semantic validity.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] naming the offending axis.
    pub fn validate(&self) -> Result<()> {
        if self.schedulers.is_empty() {
            return Err(CampaignError::Spec("`schedulers` axis is empty".into()));
        }
        for s in &self.schedulers {
            // `chaos-*` fixtures are accepted (supervision drills) but
            // deliberately absent from the advertised name list.
            if !SCHEDULER_NAMES.contains(&s.as_str()) && !s.starts_with("chaos-") {
                return Err(CampaignError::Spec(format!(
                    "unknown scheduler `{s}` (expected one of {SCHEDULER_NAMES:?})"
                )));
            }
        }
        for b in &self.benchmarks {
            if b != MIXED && parse_benchmark(b).is_none() {
                return Err(CampaignError::Spec(format!("unknown benchmark `{b}`")));
            }
        }
        if self.benchmarks.is_empty() {
            return Err(CampaignError::Spec("`benchmarks` axis is empty".into()));
        }
        if self.loads.is_empty() {
            return Err(CampaignError::Spec("`loads` axis is empty".into()));
        }
        for &l in &self.loads {
            if !l.is_finite() || l <= 0.0 {
                return Err(CampaignError::Spec(format!(
                    "load `{l}` must be finite and positive"
                )));
            }
        }
        if self.grids.is_empty() {
            return Err(CampaignError::Spec("`grids` axis is empty".into()));
        }
        if self.seeds.is_empty() {
            return Err(CampaignError::Spec("`seeds` axis is empty".into()));
        }
        if self.fault_plans.is_empty() {
            return Err(CampaignError::Spec("`fault_plans` axis is empty".into()));
        }
        if !self.horizon_seconds.is_finite() || self.horizon_seconds <= 0.0 {
            return Err(CampaignError::Spec(format!(
                "horizon `{}` must be finite and positive",
                self.horizon_seconds
            )));
        }
        if !self.rate_per_s.is_finite() || self.rate_per_s <= 0.0 {
            return Err(CampaignError::Spec(format!(
                "rate `{}` must be finite and positive",
                self.rate_per_s
            )));
        }
        Ok(())
    }

    /// Unrolls the cartesian grid into the runner's job vector.
    ///
    /// Order is the deterministic nested-loop order grid → scheduler →
    /// benchmark → load → fault plan → seed; job labels encode the full
    /// coordinates and are unique within the campaign.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] if [`SweepSpec::validate`] fails.
    pub fn expand(&self) -> Result<Vec<CampaignJob>> {
        self.validate()?;
        let mut jobs = Vec::new();
        for &(w, h) in &self.grids {
            for scheduler in &self.schedulers {
                for benchmark in &self.benchmarks {
                    for &load in &self.loads {
                        for (fi, plan) in self.fault_plans.iter().enumerate() {
                            for &seed in &self.seeds {
                                let workload = if benchmark == MIXED {
                                    let scaled = (self.open_jobs as f64 * load).round();
                                    Workload::OpenPoisson {
                                        count: (scaled as usize).max(1),
                                        rate_per_s: self.rate_per_s,
                                        seed,
                                    }
                                } else {
                                    let Some(b) = parse_benchmark(benchmark) else {
                                        // validate() already rejected unknown names.
                                        continue;
                                    };
                                    let scaled = ((w * h) as f64 * load).round();
                                    Workload::Closed {
                                        benchmark: b,
                                        cores: (scaled as usize).max(1),
                                        seed,
                                    }
                                };
                                let label = format!(
                                    "g={w}x{h} s={scheduler} b={benchmark} l={load} f={fi} seed={seed}"
                                );
                                let mut sim = SimConfig {
                                    horizon: self.horizon_seconds,
                                    ..SimConfig::default()
                                };
                                sim.faults = *plan;
                                let mut job = CampaignJob::new(
                                    label,
                                    scheduler.clone(),
                                    (w, h),
                                    workload,
                                    sim,
                                );
                                job.thermal = self.thermal;
                                jobs.push(job);
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }
}

/// Resolves a benchmark by its canonical name.
fn parse_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"]}").unwrap();
        assert_eq!(spec.benchmarks, vec!["blackscholes"]);
        assert_eq!(spec.grids, vec![(8, 8)]);
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].grid, (8, 8));
        assert!(matches!(
            jobs[0].workload,
            Workload::Closed { cores: 64, .. }
        ));
    }

    #[test]
    fn expansion_is_the_full_cartesian_product_in_stable_order() {
        let spec = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\", \"pcmig\"], \"loads\": [0.5, 1.0], \
             \"grids\": [\"4x4\"], \"seeds\": [1, 2]}",
        )
        .unwrap();
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        assert_eq!(
            jobs[0].label,
            "g=4x4 s=hotpotato b=blackscholes l=0.5 f=0 seed=1"
        );
        // Seeds are the innermost axis.
        assert_eq!(
            jobs[1].label,
            "g=4x4 s=hotpotato b=blackscholes l=0.5 f=0 seed=2"
        );
        // Half load on 4x4 fills 8 cores.
        assert!(matches!(
            jobs[0].workload,
            Workload::Closed { cores: 8, .. }
        ));
        let labels: std::collections::BTreeSet<_> = jobs.iter().map(|j| &j.label).collect();
        assert_eq!(labels.len(), jobs.len(), "labels are unique");
    }

    #[test]
    fn mixed_benchmark_expands_to_open_poisson() {
        let mut spec = SweepSpec::new(["hotpotato"]);
        spec.benchmarks = vec![MIXED.into()];
        spec.loads = vec![0.5];
        spec.open_jobs = 10;
        let jobs = spec.expand().unwrap();
        assert!(matches!(
            jobs[0].workload,
            Workload::OpenPoisson { count: 5, .. }
        ));
    }

    #[test]
    fn round_trips_through_json() {
        let mut spec = SweepSpec::new(["hotpotato", "tsp"]);
        spec.loads = vec![0.25, 1.0];
        spec.grids = vec![(4, 4), (6, 6)];
        spec.thermal = ThermalProfile::IllConditioned;
        let text = spec.to_json_string();
        let parsed = SweepSpec::from_json_str(&text).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn thermal_profile_parses_and_reaches_every_job() {
        let spec = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"thermal\": \"ill-conditioned\", \
             \"grids\": [\"4x4\"], \"seeds\": [1, 2]}",
        )
        .unwrap();
        assert_eq!(spec.thermal, ThermalProfile::IllConditioned);
        let jobs = spec.expand().unwrap();
        assert!(jobs
            .iter()
            .all(|j| j.thermal == ThermalProfile::IllConditioned));
        // Absent key keeps the default profile.
        let plain = SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"]}").unwrap();
        assert_eq!(plain.thermal, ThermalProfile::Default);
        // Unknown profiles fail loudly.
        let err =
            SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"], \"thermal\": \"toasty\"}")
                .unwrap_err();
        assert!(err.to_string().contains("thermal profile"), "{err}");
    }

    #[test]
    fn rejects_bad_specs() {
        // Unknown key.
        let err = SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"], \"schedulrs\": []}")
            .unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        // Missing required axis.
        assert!(SweepSpec::from_json_str("{}").is_err());
        // Unknown scheduler / benchmark.
        assert!(SweepSpec::from_json_str("{\"schedulers\": [\"magic\"]}").is_err());
        assert!(SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"benchmarks\": [\"quake\"]}"
        )
        .is_err());
        // Bad load and grid values.
        assert!(
            SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"], \"loads\": [0]}").is_err()
        );
        assert!(SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"grids\": [\"4by4\"]}"
        )
        .is_err());
        // Malformed JSON and repeated keys are typed errors, never a
        // silent last-wins.
        assert!(matches!(
            SweepSpec::from_json_str("{\"schedulers\": [\"hotpotato\"],, }"),
            Err(CampaignError::Spec(_))
        ));
        let err = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"schedulers\": [\"pcmig\"]}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate key"), "{err}");
        let err = SweepSpec::from_json_str(
            "{\"schedulers\": [\"hotpotato\"], \"fault_plans\": [{\"seed\": 1, \"seed\": 2}]}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate key `seed`"), "{err}");
        // `open_jobs` is a checked conversion: fractions, negatives and
        // values past u64 are rejected instead of truncated.
        for bad in ["1.5", "-3", "18446744073709551616"] {
            let src = format!("{{\"schedulers\": [\"hotpotato\"], \"open_jobs\": {bad}}}");
            assert!(SweepSpec::from_json_str(&src).is_err(), "{bad}");
        }
        // Hostile nesting is a typed error, not a stack overflow.
        let src = format!("{{\"schedulers\": {}", "[".repeat(200_000));
        let err = SweepSpec::from_json_str(&src).unwrap_err();
        assert!(err.to_string().contains("nests deeper than"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// encode → decode → encode is byte-identical over valid specs.
        #[test]
        fn encode_decode_encode_is_byte_identical(
            schedulers in proptest::collection::vec(0usize..SCHEDULER_NAMES.len(), 1..4),
            loads in proptest::collection::vec(1e-3..8.0f64, 1..4),
            grids in proptest::collection::vec((1usize..17, 1usize..17), 1..3),
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..4),
            plan in (0u64..u64::MAX, 0.0..1.0f64, 0.0..10.0f64),
            knobs in (1e-3..100.0f64, 0usize..10_000, 1e-3..1e3f64, 0u8..2, 0u8..2),
        ) {
            let (horizon_seconds, open_jobs, rate_per_s, mixed, ill) = knobs;
            let mut spec = SweepSpec::new(schedulers.iter().map(|&i| SCHEDULER_NAMES[i]));
            spec.benchmarks = if mixed == 1 {
                vec![MIXED.into(), "canneal".into()]
            } else {
                vec!["x264".into()]
            };
            spec.loads = loads;
            spec.grids = grids;
            spec.seeds = seeds;
            spec.fault_plans.push(FaultPlan {
                seed: plan.0,
                sensor_dropout_rate: plan.1,
                power_spike_watts: plan.2,
                ..FaultPlan::default()
            });
            if ill == 1 {
                spec.thermal = ThermalProfile::IllConditioned;
            }
            spec.horizon_seconds = horizon_seconds;
            spec.open_jobs = open_jobs;
            spec.rate_per_s = rate_per_s;
            let text = spec.to_json_string();
            let back = SweepSpec::from_json_str(&text);
            proptest::prop_assert_eq!(back.as_ref(), Ok(&spec));
            proptest::prop_assert_eq!(back.map(|s| s.to_json_string()), Ok(text));
        }
    }

    #[test]
    fn inline_fault_plans_round_trip() {
        let plan = FaultPlan::default();
        let src = format!(
            "{{\"schedulers\": [\"hotpotato\"], \"fault_plans\": [{}]}}",
            plan.to_json_string()
        );
        let spec = SweepSpec::from_json_str(&src).unwrap();
        assert_eq!(spec.fault_plans.len(), 1);
    }
}

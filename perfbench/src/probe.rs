//! The Algorithm-1 probe loop: a single-threaded closed loop that replays
//! chip states through `RotationPeakSolver::peak_celsius` (the innermost
//! ring, δ = 4) and `peak_celsius_many` (every occupied ring, the
//! scheduler's full probe).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hotpotato::{HotPotatoConfig, RotationPeakSolver};
use hp_floorplan::RingSet;

use crate::chip::{ChipState, Probe};
use crate::hostref::{self, Stopwatch};
use crate::trace::Tracer;
use crate::Checks;

/// Batched and single evaluations of one sequence must agree this
/// closely, °C (the solver documents them as bit-identical).
const BATCH_SINGLE_TOL_C: f64 = 1e-9;
/// Eq. 3 linearity: `peak(k·P) − T_amb = k·(peak(P) − T_amb)` within this
/// many °C. Rounding in the eigen-space recurrence stays far below it.
const LINEARITY_TOL_C: f64 = 1e-6;
/// Every `ORACLE_STRIDE`-th state of the pool is checked against the
/// linearity oracle.
const ORACLE_STRIDE: usize = 16;
/// Scale factors of the linearity oracle.
const ORACLE_SCALES: [f64; 2] = [0.5, 2.0];

/// Raw samples of one probe loop.
#[derive(Debug, Default)]
pub struct ProbeResult {
    /// Reference seconds (`hostref`) of each single δ = 4 `peak_celsius`
    /// call.
    pub alg1_s: Vec<f64>,
    /// Reference seconds of each `peak_celsius_many` call.
    pub probe_s: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

/// Prebuilt probe traffic for a pool of chip states.
pub struct ProbePool {
    states: Vec<ChipState>,
    probes: Vec<Probe>,
}

impl ProbePool {
    pub fn new(states: Vec<ChipState>, rings: &RingSet, cores: usize) -> Self {
        let idle = HotPotatoConfig::default().idle_power;
        let probes = states
            .iter()
            .map(|s| s.probe(rings, cores, idle, 1.0))
            .collect();
        ProbePool { states, probes }
    }

    /// States in the pool; the probe loop issues state `k % state_count()`
    /// as its `k`-th state.
    pub fn state_count(&self) -> usize {
        self.probes.len()
    }

    /// Sequences evaluated (single + batched) for state `i`.
    pub fn sequences(&self, i: usize) -> usize {
        1 + self.probes[i].batch.len()
    }

    /// Mean sequences per full probe.
    pub fn mean_batch(&self) -> f64 {
        let total: usize = self.probes.iter().map(|p| p.batch.len()).sum();
        total as f64 / self.probes.len().max(1) as f64
    }

    /// Eq. 3 linearity oracle on every `ORACLE_STRIDE`-th state. The RC
    /// model is linear in power, so scaling every power (idle included)
    /// by `k` scales every temperature rise over ambient by `k`. Returns
    /// the operations attempted and failed.
    pub fn check_linearity(
        &self,
        solver: &RotationPeakSolver,
        rings: &RingSet,
        ambient_c: f64,
        checks: &mut Checks,
    ) -> (u64, u64) {
        let idle = HotPotatoConfig::default().idle_power;
        let cores = solver.model().core_count();
        let (mut ops, mut failed) = (0, 0);
        for (state, probe) in self.states.iter().zip(&self.probes).step_by(ORACLE_STRIDE) {
            ops += 1;
            let Ok(base) = solver.peak_celsius_many(&probe.batch) else {
                failed += 1;
                checks.fail("alg1 linearity oracle: base batch returned an error");
                continue;
            };
            for k in ORACLE_SCALES {
                let scaled = state.probe(rings, cores, idle, k);
                match solver.peak_celsius_many(&scaled.batch) {
                    Ok(peaks) => {
                        let worst = peaks
                            .iter()
                            .zip(&base)
                            .map(|(pk, pb)| ((pk - ambient_c) - k * (pb - ambient_c)).abs())
                            .fold(0.0, f64::max);
                        if worst > LINEARITY_TOL_C {
                            failed += 1;
                            checks.fail(&format!(
                                "alg1 linearity oracle: k = {k} off by {worst:e} °C"
                            ));
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        checks.fail(&format!("alg1 linearity oracle: k = {k}: {e}"));
                    }
                }
            }
        }
        (ops, failed)
    }

    /// Closed loop over the pool for `budget_s` (at least one state),
    /// appending to `out` and continuing where the last call stopped.
    pub fn run(
        &self,
        solver: &RotationPeakSolver,
        budget_s: f64,
        out: &mut ProbeResult,
        tracer: &Tracer,
        checks: &mut Checks,
    ) {
        let start = Instant::now();
        loop {
            let probe = &self.probes[out.alg1_s.len() % self.probes.len()];

            out.ops += 1;
            let t = Stopwatch::start();
            let single = tracer.span_arg("core.alg1", probe.single.delta() as u64, || {
                catch_unwind(AssertUnwindSafe(|| solver.peak_celsius(&probe.single)))
            });
            out.alg1_s.push(t.seconds());

            out.ops += 1;
            let t = Stopwatch::start();
            let batch = tracer.span_arg("core.probe", probe.batch.len() as u64, || {
                catch_unwind(AssertUnwindSafe(|| solver.peak_celsius_many(&probe.batch)))
            });
            out.probe_s.push(t.seconds());
            hostref::tick(tracer);

            match (single, batch) {
                (Ok(Ok(single)), Ok(Ok(batch))) => {
                    let diff = (single - batch[0]).abs();
                    if diff.is_nan() || diff > BATCH_SINGLE_TOL_C {
                        out.failed += 1;
                        checks.fail(&format!(
                            "alg1: batched and single peaks differ by {diff:e} °C"
                        ));
                    }
                }
                (single, batch) => {
                    out.failed += u64::from(!matches!(single, Ok(Ok(_))))
                        + u64::from(!matches!(batch, Ok(Ok(_))));
                    checks.fail("alg1: a peak evaluation returned an error or panicked");
                }
            }
            if start.elapsed().as_secs_f64() >= budget_s {
                return;
            }
        }
    }
}

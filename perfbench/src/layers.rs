//! Fixed-input layer timings of the traced run: calls whose cost depends
//! only on the chip size, timed the same way on every workload.
//!
//! Span arguments carry the chip's core count (model, eigendecomposition),
//! the GEMM's left-hand row count, the ring capacity δ, or — for calls far
//! shorter than a span's own cost — the number of calls one span covers.

use std::hint::black_box;

use hotpotato::{HotPotatoConfig, RotationPeakSolver};
use hp_floorplan::CoreId;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{LuDecomposition, Matrix, Vector};
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};
use hp_workload::Benchmark;
use rand::rngs::StdRng;
use rand::Rng;

use crate::chip::ChipState;
use crate::trace::Tracer;
use crate::{machine, Fallible};

/// Grids whose eigendecomposition is timed: the sweep's, the paper's, and
/// one larger to show how design time scales with N.
pub const EIGEN_GRIDS: [(usize, usize); 3] = [(4, 4), (8, 8), (10, 10)];
/// Left-hand row counts of the timed GEMMs: a seven-sequence probe batch
/// and one transient step.
pub const GEMM_ROWS: [usize; 2] = [7, 1];
/// Interval of the timed transient steps, s (the engine's default dt).
pub const STEP_DT_S: f64 = 100e-6;

const LU_REPS: usize = 5;
const GEMM_REPS: usize = 400;
const STEP_REPS: usize = 2000;
const PERF_REPS: usize = 20;
const ALG1_STATES: usize = 256;

/// Counts the suite measures besides its spans.
pub struct SuiteCounts {
    pub step_decay_hit_ratio: f64,
    /// Floating-point operations of one GEMM per left-hand row count.
    pub gemm_flops: Vec<(usize, f64)>,
}

pub fn run(rng: &mut StdRng, tracer: &Tracer) -> Fallible<SuiteCounts> {
    let mut paper_chip = None;
    for (w, h) in EIGEN_GRIDS {
        let machine = machine(w, h)?;
        let cores = (w * h) as u64;
        let model = tracer.span_arg("thermal.model", cores, || {
            RcThermalModel::new(machine.floorplan(), &ThermalConfig::default())
        })?;
        let eigen = tracer.span_arg("linalg.eigen", cores, || {
            SystemEigen::new(model.a_diag(), model.b())
        })?;
        if (w, h) == (8, 8) {
            paper_chip = Some((machine, model, eigen));
        }
    }
    let (machine, model, eigen) = paper_chip.ok_or("no 8x8 chip in EIGEN_GRIDS")?;

    for _ in 0..LU_REPS {
        black_box(tracer.span("linalg.lu", || LuDecomposition::new(model.b()))?);
    }

    let nodes = model.node_count();
    let rhs = Matrix::from_fn(nodes, nodes, |_, _| rng.gen_range(-1.0..1.0));
    let mut gemm_flops = Vec::new();
    for rows in GEMM_ROWS {
        let lhs = Matrix::from_fn(rows, nodes, |_, _| rng.gen_range(-1.0..1.0));
        for _ in 0..GEMM_REPS {
            black_box(tracer.span_arg("linalg.gemm", rows as u64, || lhs.mul_matrix(&rhs))?);
        }
        gemm_flops.push((rows, 2.0 * (rows * nodes * nodes) as f64));
    }

    let stepper = TransientSolver::with_eigen(eigen.clone());
    let cores = model.core_count();
    let powers: Vec<Vector> = (0..8)
        .map(|_| Vector::from_fn(cores, |_| rng.gen_range(0.3..7.0)))
        .collect();
    let mut temps = model.ambient_state();
    for i in 0..STEP_REPS {
        let p = &powers[i % powers.len()];
        temps = tracer.span("thermal.step", || {
            stepper.step(&model, &temps, p, STEP_DT_S)
        })?;
    }
    let s = stepper.stats();
    let lookups = (s.decay_cache_hits + s.decay_cache_misses).max(1);
    let step_decay_hit_ratio = s.decay_cache_hits as f64 / lookups as f64;

    let works: Vec<_> = Benchmark::all().iter().map(Benchmark::work_point).collect();
    let top = machine.config().dvfs.max_level();
    let calls = (PERF_REPS * works.len() * cores) as u64;
    let stacks = tracer.span_arg("manycore.cpi_stack", calls, || {
        let mut stacks = Vec::with_capacity(calls as usize);
        for _ in 0..PERF_REPS {
            for w in &works {
                for c in 0..cores {
                    stacks.push(machine.cpi_stack_at_level(w, CoreId(c), top));
                }
            }
        }
        stacks
    });
    let stacks = stacks.into_iter().collect::<Result<Vec<_>, _>>()?;
    let watts = tracer.span_arg("power.core_power", calls, || {
        stacks
            .iter()
            .map(|st| machine.core_power(st, top, 60.0))
            .sum::<f64>()
    });
    black_box(watts);

    let solver = RotationPeakSolver::with_eigen(model, eigen);
    let idle = HotPotatoConfig::default().idle_power;
    let full = ChipState::full(machine.rings());
    for _ in 0..ALG1_STATES {
        let state = ChipState::reseeded(&full, rng);
        for (delta, seq) in state.per_delta(machine.rings(), cores, idle) {
            black_box(tracer.span_arg("core.alg1_delta", delta as u64, || {
                solver.peak_celsius(&seq)
            })?);
        }
    }
    Ok(SuiteCounts {
        step_decay_hit_ratio,
        gemm_flops,
    })
}

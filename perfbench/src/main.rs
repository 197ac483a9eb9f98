//! `perfbench`: the end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! perfbench --workload <alg1_probe|sim_8x8|sweep_4x4> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints a machine fingerprint and every metric by name with its unit
//! and sample count, then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the workload once untraced and
//! once traced (half the seconds each), adds the fixed-input layer
//! timings, and reports the per-layer metrics, the unattributed residual
//! and the tracing overhead, and writes the spans as Chrome trace JSON to
//! `.bench_out/trace-<workload>.json`. See README.md.

mod chip;
mod hostref;
mod layers;
mod probe;
mod simrun;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hp_linalg::Matrix;
use hp_manycore::{ArchConfig, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use stats::median;
use trace::Tracer;
use workloads::{Metric, Pass, PAPER_ALG1_US};

pub type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// Directory (relative to the working directory) for traces and the
/// sweep's campaign output.
const OUT_DIR: &str = ".bench_out";

/// The machine of a `w × h` chip with the default architecture.
pub fn machine(w: usize, h: usize) -> Fallible<Machine> {
    Ok(Machine::new(ArchConfig {
        grid_width: w,
        grid_height: h,
        ..ArchConfig::default()
    })?)
}

/// Correctness verdicts of one run. A failed check makes the run
/// incorrect; the known scheduler defect is only counted.
#[derive(Debug, Default)]
pub struct Checks {
    failures: BTreeMap<String, u64>,
    known: BTreeMap<String, u64>,
}

impl Checks {
    pub fn fail(&mut self, what: &str) {
        *self.failures.entry(what.to_string()).or_default() += 1;
    }

    pub fn known_defect(&mut self, what: &str) {
        *self.known.entry(what.to_string()).or_default() += 1;
    }

    fn print(&self) {
        let total = |m: &BTreeMap<String, u64>| m.values().sum::<u64>();
        println!(
            "known defect (scheduler action leaves a core multiply occupied), \
             faulted mixed jobs run once untimed: {} aborts",
            total(&self.known)
        );
        for (what, n) in self.known.iter().take(20) {
            println!("  known defect x{n}: {what}");
        }
        println!("check failures: {}", total(&self.failures));
        for (what, n) in self.failures.iter().take(20) {
            println!("  FAILED x{n}: {what}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_fingerprint(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "fingerprint: gemm_backend={} nproc={nproc} rustc=\"{}\" profile={} workload={} seed={} seconds={} trace={}",
        Matrix::gemm_backend(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

fn print_metric(m: &Metric) {
    println!(
        "{:<38} {:>16.6} {:<7} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

/// The result line. Any non-finite value makes the run incorrect and is
/// written as 0 so the line stays valid JSON.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        correct && all_finite,
        attempted.max(1)
    )
}

/// Layers that receive spans; their self time is reported.
const LAYERS: [&str; 10] = [
    "linalg", "thermal", "core", "sched", "sim", "manycore", "power", "workload", "obs", "campaign",
];

fn layer_metrics(
    tracer: &Tracer,
    pass: &Pass,
    untraced: &Pass,
    suite: &layers::SuiteCounts,
) -> Vec<Metric> {
    let med = |name: &str, arg: Option<u64>| median(&tracer.durations(name, arg));
    let total = |name: &str| tracer.durations(name, None).iter().sum::<f64>();
    let per_call_ns = |name: &str| {
        let spans: Vec<_> = tracer
            .spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect();
        let calls: u64 = spans.iter().map(|s| s.arg).sum();
        let ns: u64 = spans.iter().map(|s| s.dur_ns()).sum();
        ns as f64 / calls.max(1) as f64
    };
    let count = |name: &str| pass.counts.get(name).copied().unwrap_or(0.0);
    let self_s = tracer.self_seconds_by_name(pass.start_ns, pass.end_ns);
    let self_of = |prefix: &str| -> f64 {
        self_s
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(prefix))
            .map(|(_, s)| s)
            .sum()
    };
    let intervals = count("sim.intervals");
    let gemm_us = |rows: usize| med("linalg.gemm", Some(rows as u64)) * 1e6;
    let gflops = |rows: usize| {
        let flops = suite
            .gemm_flops
            .iter()
            .find(|(r, _)| *r == rows)
            .map_or(0.0, |(_, f)| *f);
        flops / (gemm_us(rows) * 1e-6) * 1e-9
    };

    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "linalg.eigen_ms.4x4".into(),
            med("linalg.eigen", Some(16)) * 1e3,
            "ms",
        ),
        (
            "linalg.eigen_ms.8x8".into(),
            med("linalg.eigen", Some(64)) * 1e3,
            "ms",
        ),
        (
            "linalg.eigen_ms.10x10".into(),
            med("linalg.eigen", Some(100)) * 1e3,
            "ms",
        ),
        ("linalg.lu_ms".into(), med("linalg.lu", None) * 1e3, "ms"),
        ("linalg.gemm_us.probe".into(), gemm_us(7), "us"),
        ("linalg.gemm_us.step".into(), gemm_us(1), "us"),
        (
            "linalg.gemm_gflops_computed.probe".into(),
            gflops(7),
            "GFLOP/s",
        ),
        (
            "linalg.gemm_gflops_computed.step".into(),
            gflops(1),
            "GFLOP/s",
        ),
        (
            "thermal.model_ms".into(),
            med("thermal.model", Some(64)) * 1e3,
            "ms",
        ),
        (
            "thermal.step_us".into(),
            med("thermal.step", None) * 1e6,
            "us",
        ),
        (
            "thermal.decay_hit_ratio".into(),
            suite.step_decay_hit_ratio,
            "ratio",
        ),
        (
            "core.alg1_us.d4".into(),
            med("core.alg1_delta", Some(4)) * 1e6,
            "us",
        ),
        (
            "core.alg1_us.d8".into(),
            med("core.alg1_delta", Some(8)) * 1e6,
            "us",
        ),
        (
            "core.alg1_us.d12".into(),
            med("core.alg1_delta", Some(12)) * 1e6,
            "us",
        ),
        ("core.probe_us".into(), med("core.probe", None) * 1e6, "us"),
        ("core.probe_seqs".into(), count("core.probe_seqs"), "count"),
        (
            "core.decay_hit_ratio".into(),
            count("core.decay_hit_ratio"),
            "ratio",
        ),
        ("core.hook_us".into(), med("core.hook", None) * 1e6, "us"),
        (
            "core.evals_per_hook".into(),
            count("core.evals_per_hook"),
            "count",
        ),
        ("core.setup_ms".into(), med("core.setup", None) * 1e3, "ms"),
        ("sched.hook_us".into(), med("sched.hook", None) * 1e6, "us"),
        ("sim.setup_ms".into(), med("sim.setup", None) * 1e3, "ms"),
        ("sim.run_s".into(), total("sim.run"), "s"),
        ("sim.intervals".into(), intervals, "count"),
        (
            "sim.engine_self_us".into(),
            self_s.get("sim.run").copied().unwrap_or(0.0) / intervals.max(1.0) * 1e6,
            "us",
        ),
        (
            "manycore.cpi_stack_ns".into(),
            per_call_ns("manycore.cpi_stack"),
            "ns",
        ),
        (
            "power.core_power_ns".into(),
            per_call_ns("power.core_power"),
            "ns",
        ),
        ("workload.gen_ms".into(), total("workload.gen") * 1e3, "ms"),
        (
            "faults.migration_faults".into(),
            count("faults.migration_faults"),
            "count",
        ),
        (
            "faults.dropped_actions".into(),
            count("faults.dropped_actions"),
            "count",
        ),
        (
            "faults.known_defect_aborts".into(),
            count("faults.known_defect_aborts"),
            "count",
        ),
        (
            "obs.report_json_us".into(),
            med("obs.report_json", None) * 1e6,
            "us",
        ),
        (
            "campaign.expand_ms".into(),
            med("campaign.expand", None) * 1e3,
            "ms",
        ),
        ("campaign.run_s".into(), total("campaign.run"), "s"),
        (
            "campaign.report_json_ms".into(),
            med("campaign.report_json", None) * 1e3,
            "ms",
        ),
        (
            "campaign.cache_hit_ratio".into(),
            count("campaign.cache_hit_ratio"),
            "ratio",
        ),
    ];
    for layer in LAYERS {
        out.push((format!("self_ms.{layer}"), self_of(layer) * 1e3, "ms"));
    }
    let wall = (pass.end_ns - pass.start_ns) as f64 * 1e-9;
    // The reference bursts (`bench.hostref`) are the benchmark's own work.
    let attributed: f64 = self_s
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, s)| s)
        .sum();
    out.push(("unattributed_ms".into(), (wall - attributed) * 1e3, "ms"));
    for (traced, plain) in pass.e2e.iter().zip(&untraced.e2e) {
        out.push((
            format!("trace_overhead.{}", traced.name),
            traced.value - plain.value,
            traced.unit,
        ));
    }
    out.into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit, 1))
        .collect()
}

fn run(args: &Args) -> Fallible<(bool, u64, u64, Vec<Metric>)> {
    let mut checks = Checks::default();
    if !args.trace {
        let pass = workloads::run(
            &args.workload,
            args.seed,
            args.seconds,
            &Tracer::new(false),
            &mut checks,
        )?;
        checks.print();
        return Ok((checks.failures.is_empty(), pass.ops, pass.failed, pass.e2e));
    }
    let half = args.seconds / 2.0;
    let untraced = workloads::run(
        &args.workload,
        args.seed,
        half,
        &Tracer::new(false),
        &mut checks,
    )?;
    let tracer = Tracer::new(true);
    let traced = workloads::run(&args.workload, args.seed, half, &tracer, &mut checks)?;
    // Tracing must perturb nothing: both passes run the same rounds.
    let differing = traced
        .fingerprints
        .len()
        .abs_diff(untraced.fingerprints.len())
        + traced
            .fingerprints
            .iter()
            .zip(&untraced.fingerprints)
            .filter(|(a, b)| a != b)
            .count();
    for _ in 0..differing {
        checks.fail("a job's simulated statistics differ between the traced and the untraced pass");
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed);
    let suite = layers::run(&mut rng, &tracer)?;
    println!("untraced pass (end-to-end, for the overhead):");
    for m in &untraced.e2e {
        print_metric(m);
    }
    println!("traced pass (end-to-end):");
    for m in &traced.e2e {
        print_metric(m);
    }
    let metrics = layer_metrics(&tracer, &traced, &untraced, &suite);
    std::fs::create_dir_all(OUT_DIR)?;
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}.json", args.workload));
    std::fs::write(
        &path,
        tracer.chrome_json(&format!("perfbench {}", args.workload)),
    )?;
    println!(
        "chrome trace: {} ({} spans)",
        path.display(),
        tracer.spans().len()
    );
    checks.print();
    Ok((
        checks.failures.is_empty(),
        untraced.ops + traced.ops,
        untraced.failed + traced.failed + differing as u64,
        metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                workloads::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    print_fingerprint(&args);
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            let (kernel_us, bursts) = hostref::kernel_us();
            println!(
                "host reference kernel: median {kernel_us:.3} us over {bursts} bursts; \
                 host-time metrics are at {} us per kernel call",
                hostref::REFERENCE_US
            );
            println!(
                "metrics ({}):",
                if args.trace {
                    "per layer"
                } else {
                    "end to end"
                }
            );
            for m in &metrics {
                print_metric(m);
            }
            if !args.trace {
                println!("reference: paper overhead per schedule on 64 cores {PAPER_ALG1_US} us (not a gate)");
            }
            println!("ops={attempted} ops_failed={failed} correct={correct}");
            println!("{}", result_json(correct, attempted, failed, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

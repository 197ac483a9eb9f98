//! Byte-for-byte pins of every document writer the workspace ships.
//!
//! Each fixture in `tests/golden/codecs/` was written by the hand-rolled
//! writers that predate the shared `hp_obs::json` codec layer, from the
//! fixed inputs below. The current writers must reproduce them exactly:
//! the files are the format contract (checkpoint digests, job digests and
//! spec hashes are computed over these bytes), so a diff here is a format
//! change, never a cosmetic one. There is deliberately no regeneration
//! switch.
//!
//! The crate-private writers are pinned next to their code: the manifest
//! line in `hp-campaign`, the canonical checkpoint state in `hp-sim` and
//! the `hp-audit-v1` documents in `xtask`.

use std::fs;
use std::path::PathBuf;

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_campaign::{CampaignReport, JobOutcome, JobStatus, SweepSpec, ThermalProfile, MIXED};
use hp_faults::FaultPlan;
use hp_floorplan::{CoreId, GridFloorplan};
use hp_manycore::{ArchConfig, Machine};
use hp_obs::{HistogramSummary, RunReport};
use hp_sched::{FallbackChain, FallbackConfig, HotPotatoDvfs, TspUniform};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{EngineCheckpoint, Metrics, RunOptions, Scheduler, SimConfig, Simulation};
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::{closed_batch, Benchmark};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/codecs")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

fn assert_golden(name: &str, actual: &str) {
    assert!(
        actual == golden(name),
        "{name}: writer output differs from the pinned bytes:\n{actual}"
    );
}

fn plan() -> FaultPlan {
    FaultPlan {
        seed: 42,
        sensor_noise_sigma_celsius: 0.25,
        sensor_stuck_rate: 0.01,
        sensor_stuck_intervals: 30,
        sensor_dropout_rate: 0.05,
        migration_failure_rate: 0.1,
        migration_blackout_intervals: 20,
        power_spike_rate: 0.02,
        power_spike_watts: 4.0,
        power_spike_intervals: 15,
        force_active: true,
    }
}

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::new(["hotpotato", "pcmig"]);
    spec.benchmarks = vec!["blackscholes".into(), MIXED.into()];
    spec.loads = vec![0.25, 1.0];
    spec.grids = vec![(4, 4), (6, 6)];
    spec.seeds = vec![1, 1 << 63];
    spec.fault_plans = vec![FaultPlan::default(), plan()];
    spec.thermal = ThermalProfile::IllConditioned;
    spec.horizon_seconds = 2.5;
    spec.open_jobs = 12;
    spec.rate_per_s = 40.0;
    spec
}

fn report() -> RunReport {
    let mut r = RunReport::new();
    r.push_counter("engine.intervals", 600);
    r.push_counter("saturated", u64::MAX);
    r.push_gauge("metrics.peak_celsius", 68.4375);
    r.push_gauge("metrics.mean_response_seconds", f64::NAN);
    r.push_gauge("inf", f64::INFINITY);
    r.push_gauge("neg_zero", -0.0);
    r.push_gauge("tiny", 1e-300);
    r.push_gauge("huge", 1.5e20);
    r.push_histogram(
        "hook.schedule",
        HistogramSummary {
            count: 600,
            mean_us: 21.5,
            p50_us: 19.03,
            p95_us: 45.25,
            max_us: 113.0,
        },
    );
    r.push_histogram(
        "hook.idle",
        HistogramSummary {
            count: 0,
            mean_us: f64::NAN,
            p50_us: 0.0,
            p95_us: 0.0,
            max_us: f64::NEG_INFINITY,
        },
    );
    r.push_meta("gemm_backend", "avx2");
    r.push_meta("quote\"back\\slash", "line\nbreak\ttab\u{1} — µs");
    r.push_event(1.0, "dtm", "core 3 above \"threshold\"");
    r.push_event(f64::NAN, "degraded", "");
    r
}

fn outcome(label: &str, status: JobStatus) -> JobOutcome {
    JobOutcome {
        label: label.into(),
        scheduler: "hotpotato".into(),
        grid: (4, 4),
        workload: "closed:canneal:8:42".into(),
        digest: 0xdead_beef,
        status,
        cause: String::new(),
        makespan_seconds: 0.123456789,
        peak_celsius: 69.25,
        simulated_seconds: 0.2,
        energy_joules: 10.5,
        avg_frequency_ghz: 4.0,
        dtm_intervals: 3,
        migrations: 17,
        jobs_completed: 2,
        jobs_total: 2,
        resumed: false,
        attempts: 1,
        quarantined: false,
        peak_series: vec![45.0, 61.5],
        report: report(),
    }
}

fn campaign() -> CampaignReport {
    let mut failed = outcome("g=4x4 s=chaos-panic \"quoted\"", JobStatus::Failed);
    failed.cause = "panicked: boom\nsecond line".into();
    failed.makespan_seconds = f64::NAN;
    failed.peak_celsius = f64::NEG_INFINITY;
    failed.attempts = 3;
    failed.quarantined = true;
    failed.resumed = true;
    failed.peak_series = vec![45.0, f64::NAN, -0.0];
    failed.report = RunReport::new();
    let mut campaign = RunReport::new();
    campaign.push_counter("campaign.cache.hits", 3);
    campaign.push_counter("campaign.jobs.failed", 1);
    CampaignReport {
        jobs: vec![outcome("g=4x4 s=hotpotato", JobStatus::Completed), failed],
        campaign,
    }
}

fn model() -> RcThermalModel {
    RcThermalModel::new(
        &GridFloorplan::new(4, 4).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("thermal model")
}

/// A HotPotato snapshot exercising every field shape: pending seats,
/// tagged non-finite floats, the power cache, counters and cached τs.
const HOTPOTATO_BLOB: &str = "{\"rings\":[[[0,0,0],[2,0,1]],[[1,1,0]]],\"tau_index\":1,\
     \"rotating\":true,\"last_rotation\":0.0125,\"last_peak\":\"inf\",\
     \"last_evaluation\":-0.5,\"assignment_dirty\":false,\
     \"powers\":[[0,0,7.25],[0,1,\"nan\"],[1,0,3]],\"evaluations\":17,\
     \"solver_failures\":2,\"alg1_stats\":[5,40,30,10],\"numerics_stats\":[1,2,3],\
     \"cached_taus\":[0.0005,0.001]}";

type Make = fn() -> Box<dyn Scheduler>;

fn hotpotato() -> Box<dyn Scheduler> {
    Box::new(HotPotato::new(model(), HotPotatoConfig::default()).expect("hotpotato"))
}

fn hybrid() -> Box<dyn Scheduler> {
    Box::new(HotPotatoDvfs::new(model(), HotPotatoConfig::default()).expect("hybrid"))
}

fn fallback() -> Box<dyn Scheduler> {
    let chain = FallbackChain::new(
        model(),
        HotPotatoConfig::default(),
        FallbackConfig::default(),
    );
    Box::new(chain.expect("fallback chain"))
}

fn tsp_uniform() -> Box<dyn Scheduler> {
    Box::new(TspUniform::new(model(), 80.0, 0.3))
}

fn pinned() -> Box<dyn Scheduler> {
    Box::new(PinnedScheduler::with_preferred_cores(vec![
        CoreId(5),
        CoreId(0),
    ]))
}

/// `value` as a JSON string literal.
fn quoted(value: &str) -> String {
    let mut out = String::new();
    hp_obs::json::push_str(&mut out, value);
    out
}

/// The blobs of the three HotPotato-family schedulers around one
/// HotPotato state.
fn family(blob: &str, throttle: u64, hooks: u64) -> [(Make, String); 3] {
    let inner = quoted(blob);
    [
        (hotpotato, blob.to_string()),
        (
            hybrid,
            format!("{{\"throttle\":{throttle},\"inner\":{inner}}}"),
        ),
        (
            fallback,
            format!(
                "{{\"degraded\":true,\"hooks_on_fallback\":{hooks},\"degradations\":1,\
                 \"recoveries\":0,\"primary\":{inner}}}"
            ),
        ),
    ]
}

/// The scheduler's snapshot fresh, then after restoring `blob` into a
/// second fresh instance — one line each.
fn snapshots(make: Make, blob: &str) -> String {
    let fresh = make().snapshot().unwrap_or_default();
    let mut restored = make();
    restored.restore(blob).expect("fixture blob restores");
    format!("{fresh}\n{}\n", restored.snapshot().unwrap_or_default())
}

#[test]
fn fault_plan_bytes_are_pinned() {
    assert_golden("fault_plan.json", &plan().to_json_string());
    assert_golden(
        "fault_plan_default.json",
        &FaultPlan::default().to_json_string(),
    );
}

#[test]
fn sweep_spec_bytes_are_pinned() {
    assert_golden("sweep_spec.json", &spec().to_json_string());
}

#[test]
fn run_report_bytes_are_pinned() {
    assert_golden("run_report.json", &report().to_json_string());
    assert_golden("run_report_empty.json", &RunReport::new().to_json_string());
}

#[test]
fn campaign_report_bytes_are_pinned() {
    assert_golden("campaign_report.json", &campaign().to_json_string());
}

#[test]
fn scheduler_snapshot_bytes_are_pinned() {
    let names = ["hotpotato", "hybrid", "fallback"];
    for (name, (make, blob)) in names.into_iter().zip(family(HOTPOTATO_BLOB, 2, 3)) {
        assert_golden(&format!("snapshot_{name}.txt"), &snapshots(make, &blob));
    }
    assert_golden(
        "snapshot_tsp_uniform.txt",
        &snapshots(tsp_uniform, "{\"preferred\":[3,1,2]}"),
    );
    assert_golden(
        "snapshot_pinned.txt",
        &snapshots(pinned, "{\"preferred\":null}"),
    );
}

/// The run behind `checkpoint_run.json`: HotPotato on the 4×4 chip with
/// a noisy, lossy sensor plan and trace recording on.
fn checkpointed_run(options: &RunOptions) -> (hp_sim::Result<Metrics>, Simulation) {
    let machine = Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("machine");
    let config = SimConfig {
        record_trace: true,
        faults: FaultPlan {
            seed: 11,
            sensor_noise_sigma_celsius: 0.1,
            sensor_dropout_rate: 0.05,
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(machine, ThermalConfig::default(), config).expect("sim");
    let mut sched = HotPotato::new(model(), HotPotatoConfig::default()).expect("hotpotato");
    let result = sim.run_with_options(closed_batch(Benchmark::Canneal, 4, 7), &mut sched, options);
    (result, sim)
}

#[test]
fn checkpoint_from_the_previous_writer_verifies_and_resumes() {
    // Written mid-run (step 200) by the pre-codec-layer engine.
    let doc = golden("checkpoint_run.json");
    let ckpt = EngineCheckpoint::from_json_str(&doc).expect("digest verifies");
    assert_eq!(ckpt.to_json_string(), doc, "re-encodes to the same bytes");
    assert_eq!(ckpt.step(), 200);

    let (resumed, sim) = checkpointed_run(&RunOptions {
        resume_from: Some(ckpt),
        ..RunOptions::default()
    });
    let resumed = resumed.expect("spec hash matches and the run completes");
    assert_eq!(sim.checkpoint_resumes(), 1);
    let (whole, _) = checkpointed_run(&RunOptions::default());
    let whole = whole.expect("uninterrupted run completes");
    // Both legs replay the same seeded trajectory; temperatures get the
    // golden-trace slack for cross-platform libm differences.
    assert!((resumed.peak_temperature - whole.peak_temperature).abs() < 1e-6);
    assert!((resumed.makespan - whole.makespan).abs() < 1e-9);
    assert_eq!(resumed.migrations, whole.migrations);
    assert_eq!(resumed.dtm_intervals, whole.dtm_intervals);
}

/// A canonical HotPotato blob: `f` feeds the tagged floats, `n` the
/// counters and indices.
fn hotpotato_blob(f: &[f64], n: &[u64]) -> String {
    let [a, b, c, p, q] = [0, 1, 2, 3, 4].map(|i| {
        let mut s = String::new();
        hp_obs::json::push_float_tagged(&mut s, f[i]);
        s
    });
    let (seat, tau) = (n[0] % 16, n[1] % 5);
    let (n0, n1, n2, n3) = (n[0], n[1], n[2], n[3]);
    format!(
        "{{\"rings\":[[[{seat},0,0]],[]],\"tau_index\":{tau},\"rotating\":true,\
         \"last_rotation\":{a},\"last_peak\":{b},\"last_evaluation\":{c},\
         \"assignment_dirty\":false,\"powers\":[[0,0,{p}],[1,2,{q}]],\"evaluations\":{n0},\
         \"solver_failures\":{n1},\"alg1_stats\":[{n0},{n1},{n2},{n3}],\
         \"numerics_stats\":[{n3},{n2},{n1}],\"cached_taus\":[0.0005]}}"
    )
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(16))]

    /// Every scheduler snapshot codec is a fixpoint on canonical blobs,
    /// non-finite floats included: restore → snapshot gives the blob
    /// back, and restoring that snapshot gives it back again.
    #[test]
    fn scheduler_snapshots_encode_decode_encode_byte_identically(
        f in proptest::collection::vec(proptest::num::f64::ANY, 5),
        n in proptest::collection::vec(0u64..u64::MAX, 4),
        cores in proptest::collection::vec(0usize..16, 0..5),
    ) {
        let list: Vec<String> = cores.iter().map(usize::to_string).collect();
        let preferred = format!("{{\"preferred\":[{}]}}", list.join(","));
        let mut cases = family(&hotpotato_blob(&f, &n), n[2] % 8, n[3]).to_vec();
        cases.push((tsp_uniform, preferred.clone()));
        cases.push((pinned, preferred));
        for (make, blob) in cases {
            let mut first = make();
            first.restore(&blob).expect("drawn blob restores");
            let encoded = first.snapshot().unwrap_or_default();
            let mut second = make();
            second.restore(&encoded).expect("own snapshot restores");
            proptest::prop_assert_eq!(&encoded, &blob);
            proptest::prop_assert_eq!(second.snapshot().unwrap_or_default(), blob);
        }
    }
}

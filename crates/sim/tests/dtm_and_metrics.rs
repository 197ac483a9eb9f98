//! DTM-scope behaviour and the average-frequency metric.

use hp_floorplan::CoreId;
use hp_manycore::{ArchConfig, Machine};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{DtmScope, Metrics, SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::{Benchmark, Job, JobId};

fn machine() -> Machine {
    Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("valid config")
}

fn hot_jobs() -> Vec<Job> {
    vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Swaptions,
        spec: Benchmark::Swaptions.spec(4),
        arrival: 0.0,
    }]
}

fn run(scope: DtmScope, dtm: bool) -> Metrics {
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            dtm_enabled: dtm,
            dtm_scope: scope,
            horizon: 120.0,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    let mut pinned =
        PinnedScheduler::with_preferred_cores(vec![CoreId(5), CoreId(6), CoreId(9), CoreId(10)]);
    sim.run(hot_jobs(), &mut pinned).expect("completes")
}

#[test]
fn per_core_dtm_is_gentler_than_chip_wide() {
    let chip = run(DtmScope::Chip, true);
    let per_core = run(DtmScope::PerCore, true);
    // Both contain the excursion...
    assert!(chip.peak_temperature < 72.0);
    assert!(per_core.peak_temperature < 72.0);
    // ...but per-core throttling only touches the hot cores, so the run
    // finishes no later (and its average frequency is no lower).
    assert!(
        per_core.makespan <= chip.makespan + 1e-9,
        "per-core {:.1} ms vs chip {:.1} ms",
        per_core.makespan * 1e3,
        chip.makespan * 1e3
    );
    assert!(per_core.avg_frequency_ghz >= chip.avg_frequency_ghz - 1e-9);
}

#[test]
fn avg_frequency_reflects_throttling() {
    let unmanaged = run(DtmScope::Chip, false);
    let managed = run(DtmScope::Chip, true);
    // Without DTM everything runs at 4 GHz.
    assert!(
        (unmanaged.avg_frequency_ghz - 4.0).abs() < 1e-9,
        "unmanaged avg {:.3}",
        unmanaged.avg_frequency_ghz
    );
    // DTM episodes drag the average below peak.
    assert!(managed.dtm_intervals > 0);
    assert!(managed.avg_frequency_ghz < 4.0);
    assert!(managed.avg_frequency_ghz > 1.0, "not pinned at minimum");
}

#[test]
fn avg_frequency_zero_without_work() {
    // A job with an initial serial phase on one thread: the other threads
    // idle, but avg frequency only counts busy time, so it stays at the
    // running thread's frequency.
    let mut sim = Simulation::new(
        machine(),
        ThermalConfig::default(),
        SimConfig {
            dtm_enabled: false,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    let jobs = vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Canneal,
        spec: Benchmark::Canneal.spec(1),
        arrival: 0.0,
    }];
    let mut pinned = PinnedScheduler::new();
    let m = sim.run(jobs, &mut pinned).expect("completes");
    assert!((m.avg_frequency_ghz - 4.0).abs() < 1e-9);
}

#[test]
fn default_scope_is_the_papers_chip_wide_crash() {
    assert_eq!(DtmScope::default(), DtmScope::Chip);
}

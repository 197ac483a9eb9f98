//! Golden-sweep regression: replays the committed 2×2 sweep spec
//! (`tests/golden/sweep_small.json` — 2 schedulers × 2 load levels on
//! the 4×4 chip) through `hp-campaign` and diffs every job's headline
//! metrics against `tests/golden/sweep_small.expected.json`.
//!
//! Any change to spec expansion, the model cache, the worker pool, the
//! engine, or a scheduler's decisions shows up here as a metric diff.
//! The same spec file is what CI's sweep-smoke job feeds to
//! `hotpotato-cli sweep`, so the fixture also guards the CLI grammar.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p hp-integration --test sweep_golden
//! ```
//!
//! Temperatures/energies compare at 1e-6, makespans at 1e-9 (the
//! fixture stores 9 decimal places), counters exactly.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use hp_campaign::{run_campaign, CampaignConfig, CampaignReport, SweepSpec};
use hp_obs::json::{self, Json};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn spec_path() -> PathBuf {
    golden_dir().join("sweep_small.json")
}

fn expected_path() -> PathBuf {
    golden_dir().join("sweep_small.expected.json")
}

fn run_sweep() -> CampaignReport {
    let raw = fs::read_to_string(spec_path())
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", spec_path().display()));
    let spec = SweepSpec::from_json_str(&raw).expect("golden spec parses");
    let jobs = spec.expand().expect("golden spec expands");
    assert_eq!(jobs.len(), 4, "2 schedulers x 2 loads");
    run_campaign(
        &jobs,
        &CampaignConfig {
            workers: 2,
            ..CampaignConfig::default()
        },
    )
    .expect("campaign runs")
}

fn render(report: &CampaignReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": \"sweep_small\",\n");
    out.push_str(
        "  \"description\": \"hotpotato+pcmig x loads 0.5/1.0, blackscholes on 4x4, seed 42; \
         regenerate with GOLDEN_REGEN=1 cargo test -p hp-integration --test sweep_golden\",\n",
    );
    out.push_str("  \"jobs\": [\n");
    for (i, o) in report.jobs.iter().enumerate() {
        let sep = if i + 1 == report.jobs.len() { "" } else { "," };
        let mut label = String::new();
        json::push_str(&mut label, &o.label);
        let _ = writeln!(
            out,
            "    {{\"label\": {label}, \"status\": \"{}\", \"makespan\": {:.9}, \
             \"peak\": {:.9}, \"energy\": {:.9}, \"migrations\": {}, \
             \"dtm_intervals\": {}, \"jobs_completed\": {}}}{sep}",
            o.status.label(),
            o.makespan_seconds,
            o.peak_celsius,
            o.energy_joules,
            o.migrations,
            o.dtm_intervals,
            o.jobs_completed,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn small_sweep_matches_golden_fixture() {
    let report = run_sweep();
    let path = expected_path();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir golden");
        fs::write(&path, render(&report)).expect("write golden fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let raw = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} unreadable ({e}); regenerate with \
             GOLDEN_REGEN=1 cargo test -p hp-integration --test sweep_golden",
            path.display()
        )
    });
    let doc = json::parse(&raw).expect("golden fixture parses");
    let Some(Json::Arr(expected)) = doc.get("jobs") else {
        panic!("golden fixture has no jobs array");
    };
    assert_eq!(
        report.jobs.len(),
        expected.len(),
        "job count drifted: {} vs golden {}",
        report.jobs.len(),
        expected.len()
    );
    for (o, want) in report.jobs.iter().zip(expected) {
        let s = |key: &str| want.get(key).and_then(Json::as_str).expect(key);
        let f = |key: &str| want.get(key).and_then(Json::as_f64).expect(key);
        let u = |key: &str| want.get(key).and_then(Json::as_u64).expect(key);
        assert_eq!(o.label, s("label"), "expansion order drifted");
        assert_eq!(o.status.label(), s("status"), "{}: status drifted", o.label);
        assert!(
            (o.makespan_seconds - f("makespan")).abs() < 1e-9,
            "{}: makespan drifted: {} vs golden {}",
            o.label,
            o.makespan_seconds,
            f("makespan")
        );
        assert!(
            (o.peak_celsius - f("peak")).abs() < 1e-6,
            "{}: peak drifted: {} vs golden {}",
            o.label,
            o.peak_celsius,
            f("peak")
        );
        assert!(
            (o.energy_joules - f("energy")).abs() < 1e-6,
            "{}: energy drifted: {} vs golden {}",
            o.label,
            o.energy_joules,
            f("energy")
        );
        assert_eq!(o.migrations, u("migrations"), "{}: migrations", o.label);
        assert_eq!(
            o.dtm_intervals,
            u("dtm_intervals"),
            "{}: DTM count",
            o.label
        );
        assert_eq!(
            o.jobs_completed as u64,
            u("jobs_completed"),
            "{}: completions",
            o.label
        );
    }
}

#[test]
fn golden_spec_round_trips_through_the_grammar() {
    // The committed spec is also the CI sweep-smoke input; guard that it
    // stays parseable and that serialisation round-trips.
    let raw = fs::read_to_string(spec_path()).expect("spec readable");
    let spec = SweepSpec::from_json_str(&raw).expect("spec parses");
    let reparsed = SweepSpec::from_json_str(&spec.to_json_string()).expect("round-trip parses");
    assert_eq!(reparsed, spec);
}

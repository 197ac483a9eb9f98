//! Property-based invariants of the fault-injection layer in isolation:
//! arbitrary plans never panic, replay deterministically, and an inert
//! plan is an honest pass-through. The engine-level differential (zero
//! rates bit-identical to the no-fault path) lives in the integration
//! suite; these pin the primitives it builds on.

use hp_faults::{mesh_neighbors, FaultInjector, FaultPlan, SensorConditioner};
use proptest::prelude::*;

fn plans() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..u64::MAX, 0.0..2.0f64, 0.0..1.0f64, 1u64..100),
        (0.0..1.0f64, 0.0..1.0f64, 0u64..50),
        (0.0..1.0f64, 0.0..10.0f64, 1u64..50),
    )
        .prop_map(
            |(
                (seed, sigma, stuck_rate, stuck_intervals),
                (dropout_rate, mig_rate, blackout),
                (spike_rate, spike_watts, spike_intervals),
            )| FaultPlan {
                seed,
                sensor_noise_sigma_celsius: sigma,
                sensor_stuck_rate: stuck_rate,
                sensor_stuck_intervals: stuck_intervals,
                sensor_dropout_rate: dropout_rate,
                migration_failure_rate: mig_rate,
                migration_blackout_intervals: blackout,
                power_spike_rate: spike_rate,
                power_spike_watts: spike_watts,
                power_spike_intervals: spike_intervals,
                force_active: false,
            },
        )
}

/// Drives injector + conditioner together for `intervals` steps on a
/// 4×4 mesh and returns everything observable.
fn drive(plan: &FaultPlan, intervals: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<bool>) {
    let cores = 16;
    let mut injector = FaultInjector::new(plan, cores).expect("generated plans are valid");
    let mut conditioner = SensorConditioner::new(mesh_neighbors(4, 4), 3, 45.0);
    let mut temps = Vec::new();
    let mut confs = Vec::new();
    let mut migs = Vec::new();
    for t in 0..intervals {
        injector.begin_interval();
        let readings: Vec<_> = (0..cores)
            .map(|c| injector.sense(c, 45.0 + (t as f64) * 0.1 + (c as f64) * 0.5))
            .collect();
        let trusted = conditioner.condition(&readings);
        assert_eq!(trusted.temps_celsius.len(), cores);
        assert_eq!(trusted.confidence.len(), cores);
        temps.push(trusted.temps_celsius);
        confs.push(trusted.confidence);
        migs.push(injector.migration_fails());
    }
    (temps, confs, migs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated plan validates, runs without panicking, and keeps
    /// every confidence inside [0, 1] with finite conditioned temps.
    #[test]
    fn arbitrary_plans_run_and_stay_bounded(plan in plans()) {
        prop_assert!(plan.validate().is_ok());
        let (temps, confs, _) = drive(&plan, 150);
        for row in &confs {
            for &c in row {
                prop_assert!((0.0..=1.0).contains(&c), "confidence {c} out of range");
            }
        }
        for row in &temps {
            for &t in row {
                prop_assert!(t.is_finite(), "non-finite conditioned temp {t}");
            }
        }
    }

    /// The same plan replays bit-identically: faults are a pure function
    /// of (plan, call order).
    #[test]
    fn replay_is_bit_identical(plan in plans()) {
        prop_assert_eq!(drive(&plan, 120), drive(&plan, 120));
    }

    /// With every rate zeroed the layer is an honest pass-through: the
    /// conditioned view equals the true temperatures at full confidence
    /// and no migration ever fails, regardless of seed.
    #[test]
    fn zero_rates_are_transparent(seed in 0u64..u64::MAX) {
        let plan = FaultPlan { seed, force_active: true, ..FaultPlan::default() };
        prop_assert!(plan.validate().is_ok());
        prop_assert!(!plan.is_inert());
        let cores = 16;
        let mut injector = FaultInjector::new(&plan, cores).expect("valid plan");
        let mut conditioner = SensorConditioner::new(mesh_neighbors(4, 4), 3, 45.0);
        for t in 0..100 {
            injector.begin_interval();
            let truth: Vec<f64> = (0..cores)
                .map(|c| 45.0 + f64::from(t) * 0.1 + (c as f64) * 0.5)
                .collect();
            let readings: Vec<_> = (0..cores).map(|c| injector.sense(c, truth[c])).collect();
            let trusted = conditioner.condition(&readings);
            prop_assert_eq!(&trusted.temps_celsius, &truth);
            prop_assert!(trusted.confidence.iter().all(|&c| c == 1.0));
            prop_assert!(!injector.migration_fails());
            for c in 0..cores {
                prop_assert_eq!(injector.power_spike_watts(c), 0.0);
            }
        }
    }

    /// JSON round-trips preserve every field of an arbitrary plan, and
    /// encode → decode → encode reproduces the bytes in both layouts.
    #[test]
    fn json_roundtrip_preserves_plan(plan in plans(), force_active in 0u8..2) {
        let plan = FaultPlan { force_active: force_active == 1, ..plan };
        let text = plan.to_json_string();
        let back = FaultPlan::from_json_str(&text);
        prop_assert_eq!(back, Ok(plan));
        prop_assert_eq!(back.map(|p| p.to_json_string()), Ok(text));
        let mut compact = String::new();
        plan.write_json(&mut compact, true);
        let mut again = String::new();
        if let Ok(p) = FaultPlan::from_json_str(&compact) {
            p.write_json(&mut again, true);
        }
        prop_assert_eq!(again, compact);
    }
}

use hp_obs::json::{self, Json, Layout, Obj};

use crate::{FaultError, Result};

/// The JSON member names of a plan, in document order.
const FIELDS: [&str; 11] = [
    "seed",
    "sensor_noise_sigma_celsius",
    "sensor_stuck_rate",
    "sensor_stuck_intervals",
    "sensor_dropout_rate",
    "migration_failure_rate",
    "migration_blackout_intervals",
    "power_spike_rate",
    "power_spike_watts",
    "power_spike_intervals",
    "force_active",
];

/// A deterministic, JSON-configurable fault-injection plan.
///
/// All rates are per-draw probabilities in `[0, 1]` and default to zero:
/// `FaultPlan::default()` is *inert* ([`is_inert`](FaultPlan::is_inert)
/// returns `true`) and the engine skips the fault layer entirely, which
/// keeps the no-fault path bit-identical. Durations are measured in
/// simulation intervals; magnitudes carry their unit in the field name.
///
/// The same plan + seed + workload always produces the same fault
/// sequence — the determinism contract behind the pinned golden fault
/// scenario (DESIGN.md §8).
///
/// # Example
///
/// ```
/// use hp_faults::FaultPlan;
///
/// let plan = FaultPlan {
///     sensor_dropout_rate: 0.05,
///     seed: 7,
///     ..FaultPlan::default()
/// };
/// assert!(!plan.is_inert());
/// assert!(plan.validate().is_ok());
/// assert!(FaultPlan::default().is_inert());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the whole fault sequence is a pure function of the seed
    /// and the engine's call order.
    pub seed: u64,
    /// Standard deviation of zero-mean Gaussian noise added to every
    /// delivered sensor reading, °C (0 = no noise).
    pub sensor_noise_sigma_celsius: f64,
    /// Per-core, per-interval probability of a sensor entering a
    /// stuck-at-last-value episode.
    pub sensor_stuck_rate: f64,
    /// Length of a stuck episode, in simulation intervals.
    pub sensor_stuck_intervals: u64,
    /// Per-core, per-interval probability that a reading is dropped
    /// entirely (the sensor returns nothing).
    pub sensor_dropout_rate: f64,
    /// Per-requested-migration probability that the move silently does
    /// not take effect.
    pub migration_failure_rate: f64,
    /// After a migration failure, *all* migrations keep failing for this
    /// many intervals (a migration-subsystem blackout).
    pub migration_blackout_intervals: u64,
    /// Per-interval probability that a transient power spike starts on a
    /// uniformly chosen core (at most one spike active at a time).
    pub power_spike_rate: f64,
    /// Extra power drawn by a spiking core, W.
    pub power_spike_watts: f64,
    /// Length of one power spike, in simulation intervals.
    pub power_spike_intervals: u64,
    /// Keep the fault layer engaged even when every rate is zero. Only
    /// used by the differential tests that pin down the contract "zero
    /// rates through the fault layer is bit-identical to no fault layer".
    pub force_active: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            sensor_noise_sigma_celsius: 0.0,
            sensor_stuck_rate: 0.0,
            sensor_stuck_intervals: 50,
            sensor_dropout_rate: 0.0,
            migration_failure_rate: 0.0,
            migration_blackout_intervals: 10,
            power_spike_rate: 0.0,
            power_spike_watts: 0.0,
            power_spike_intervals: 10,
            force_active: false,
        }
    }
}

impl FaultPlan {
    /// `true` when the plan can never produce a fault, in which case the
    /// engine bypasses the fault layer entirely (bit-identical runs).
    pub fn is_inert(&self) -> bool {
        !self.force_active
            && self.sensor_noise_sigma_celsius == 0.0
            && self.sensor_stuck_rate == 0.0
            && self.sensor_dropout_rate == 0.0
            && self.migration_failure_rate == 0.0
            && self.power_spike_rate == 0.0
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] naming the first
    /// offender: rates outside `[0, 1]`, non-finite or negative
    /// magnitudes, or a zero duration paired with a non-zero rate.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("sensor_stuck_rate", self.sensor_stuck_rate),
            ("sensor_dropout_rate", self.sensor_dropout_rate),
            ("migration_failure_rate", self.migration_failure_rate),
            ("power_spike_rate", self.power_spike_rate),
        ] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(FaultError::InvalidParameter { name, value });
            }
        }
        for (name, value) in [
            (
                "sensor_noise_sigma_celsius",
                self.sensor_noise_sigma_celsius,
            ),
            ("power_spike_watts", self.power_spike_watts),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(FaultError::InvalidParameter { name, value });
            }
        }
        if self.sensor_stuck_rate > 0.0 && self.sensor_stuck_intervals == 0 {
            return Err(FaultError::InvalidParameter {
                name: "sensor_stuck_intervals",
                value: 0.0,
            });
        }
        if self.power_spike_rate > 0.0 && self.power_spike_intervals == 0 {
            return Err(FaultError::InvalidParameter {
                name: "power_spike_intervals",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// Parses a plan from a flat JSON object, e.g.
    /// `{"seed": 42, "sensor_dropout_rate": 0.05}`.
    ///
    /// Absent fields keep their [`Default`] value. Unknown and repeated
    /// fields are errors: they are almost certainly typos or edit
    /// slips that would otherwise turn a chaos experiment into a silent
    /// no-op.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Parse`] on malformed JSON, unknown or
    /// duplicate keys and mistyped values, and
    /// [`FaultError::InvalidParameter`] when the parsed plan fails
    /// [`validate`](FaultPlan::validate).
    pub fn from_json_str(json: &str) -> Result<Self> {
        Self::from_json(&json::parse(json)?)
    }

    /// Decodes a plan from an already-parsed JSON object (e.g. one
    /// embedded in a sweep spec), under the rules of
    /// [`from_json_str`](FaultPlan::from_json_str).
    ///
    /// # Errors
    ///
    /// As [`from_json_str`](FaultPlan::from_json_str), minus syntax.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let doc = doc.cursor("plan");
        doc.strict(&FIELDS)?;
        let int = |key: &str, slot: &mut u64| -> hp_obs::Result<()> {
            if let Some(v) = doc.opt(key) {
                *slot = v.u64()?;
            }
            Ok(())
        };
        let num = |key: &str, slot: &mut f64| -> hp_obs::Result<()> {
            if let Some(v) = doc.opt(key) {
                *slot = v.f64()?;
            }
            Ok(())
        };
        let mut plan = FaultPlan::default();
        int("seed", &mut plan.seed)?;
        num(
            "sensor_noise_sigma_celsius",
            &mut plan.sensor_noise_sigma_celsius,
        )?;
        num("sensor_stuck_rate", &mut plan.sensor_stuck_rate)?;
        int("sensor_stuck_intervals", &mut plan.sensor_stuck_intervals)?;
        num("sensor_dropout_rate", &mut plan.sensor_dropout_rate)?;
        num("migration_failure_rate", &mut plan.migration_failure_rate)?;
        int(
            "migration_blackout_intervals",
            &mut plan.migration_blackout_intervals,
        )?;
        num("power_spike_rate", &mut plan.power_spike_rate)?;
        num("power_spike_watts", &mut plan.power_spike_watts)?;
        int("power_spike_intervals", &mut plan.power_spike_intervals)?;
        if let Some(v) = doc.opt("force_active") {
            plan.force_active = v.bool()?;
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Renders the plan as the flat JSON object
    /// [`from_json_str`](FaultPlan::from_json_str) accepts.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(384);
        self.write_json(&mut out, false);
        out.push('\n');
        out
    }

    /// Writes the plan into `out`: pretty-printed as by
    /// [`to_json_string`](FaultPlan::to_json_string) (without its final
    /// newline) or, with `compact`, on one line as embedded in a sweep
    /// spec.
    pub fn write_json(&self, out: &mut String, compact: bool) {
        let layout = if compact {
            Layout::Compact
        } else {
            Layout::Pretty(0)
        };
        let mut o = Obj::open(out, layout);
        o.lit("seed", self.seed)
            .f64(
                "sensor_noise_sigma_celsius",
                self.sensor_noise_sigma_celsius,
            )
            .f64("sensor_stuck_rate", self.sensor_stuck_rate)
            .lit("sensor_stuck_intervals", self.sensor_stuck_intervals)
            .f64("sensor_dropout_rate", self.sensor_dropout_rate)
            .f64("migration_failure_rate", self.migration_failure_rate)
            .lit(
                "migration_blackout_intervals",
                self.migration_blackout_intervals,
            )
            .f64("power_spike_rate", self.power_spike_rate)
            .f64("power_spike_watts", self.power_spike_watts)
            .lit("power_spike_intervals", self.power_spike_intervals)
            .lit("force_active", self.force_active);
        o.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn force_active_defeats_inertness() {
        let plan = FaultPlan {
            force_active: true,
            ..FaultPlan::default()
        };
        assert!(!plan.is_inert());
    }

    #[test]
    fn any_nonzero_rate_defeats_inertness() {
        for plan in [
            FaultPlan {
                sensor_noise_sigma_celsius: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                sensor_stuck_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                sensor_dropout_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                migration_failure_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                power_spike_rate: 0.1,
                ..FaultPlan::default()
            },
        ] {
            assert!(!plan.is_inert(), "{plan:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_rates_and_durations() {
        let bad = FaultPlan {
            sensor_dropout_rate: 1.5,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            sensor_noise_sigma_celsius: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            sensor_stuck_rate: 0.1,
            sensor_stuck_intervals: 0,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            power_spike_rate: 0.1,
            power_spike_intervals: 0,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            migration_failure_rate: -0.1,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan {
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
            force_active: false,
        };
        let json = plan.to_json_string();
        let back = FaultPlan::from_json_str(&json).expect("roundtrip parses");
        assert_eq!(plan, back);
    }

    #[test]
    fn json_partial_object_keeps_defaults() {
        let plan = FaultPlan::from_json_str(r#"{"seed": 7, "sensor_dropout_rate": 0.5}"#)
            .expect("partial plan parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.sensor_dropout_rate, 0.5);
        assert_eq!(
            plan.sensor_stuck_intervals,
            FaultPlan::default().sensor_stuck_intervals
        );
    }

    #[test]
    fn json_rejects_unknown_and_malformed() {
        assert!(FaultPlan::from_json_str("not json").is_err());
        assert!(FaultPlan::from_json_str(r#"{"sensor_dropout": 0.5}"#).is_err());
        assert!(FaultPlan::from_json_str(r#"{"seed": "high"}"#).is_err());
        assert!(FaultPlan::from_json_str(r#"{"force_active": 1}"#).is_err());
        assert!(FaultPlan::from_json_str(r#"{"sensor_dropout_rate": 2.0}"#).is_err());
        assert!(FaultPlan::from_json_str(r#"{seed: 3}"#).is_err());
        // Malformed JSON with a repeated key: no silent last-wins.
        assert!(matches!(
            FaultPlan::from_json_str(r#"{"seed": 1,, "seed": 2,}"#),
            Err(FaultError::Parse { .. })
        ));
        let err = FaultPlan::from_json_str(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert!(err.to_string().contains("duplicate key `seed`"), "{err}");
    }

    #[test]
    fn json_empty_object_is_default() {
        let plan = FaultPlan::from_json_str("{}").expect("empty object parses");
        assert_eq!(plan, FaultPlan::default());
    }

    fn parse_message(json: &str) -> String {
        match FaultPlan::from_json_str(json) {
            Err(FaultError::Parse { message }) => message,
            other => panic!("{json:?} gave {other:?}"),
        }
    }

    #[test]
    fn json_rejects_integers_that_do_not_fit_u64() {
        for bad in ["-1", "1.5", "1e3", "18446744073709551616"] {
            let message = parse_message(&format!(r#"{{"seed": {bad}}}"#));
            assert!(message.contains("`plan.seed`"), "{bad}: {message}");
        }
        let plan = FaultPlan::from_json_str(r#"{"seed": 18446744073709551615}"#).unwrap();
        assert_eq!(plan.seed, u64::MAX);
    }

    #[test]
    fn json_errors_name_the_offending_field() {
        let message = parse_message(r#"{"power_spike_watts": "4"}"#);
        assert!(
            message.contains("`plan.power_spike_watts` is not a number"),
            "{message}"
        );
        let message = parse_message(r#"{"force_active": "yes"}"#);
        assert!(
            message.contains("`plan.force_active` is not a boolean"),
            "{message}"
        );
    }

    #[test]
    fn json_null_rate_is_nan_and_fails_validation() {
        assert!(matches!(
            FaultPlan::from_json_str(r#"{"sensor_dropout_rate": null}"#),
            Err(FaultError::InvalidParameter {
                name: "sensor_dropout_rate",
                value,
            }) if value.is_nan()
        ));
    }

    #[test]
    fn json_non_object_documents_are_rejected() {
        for doc in ["[]", "42", "null", r#""seed""#] {
            let message = parse_message(doc);
            assert!(
                message.contains("`plan` is not an object"),
                "{doc}: {message}"
            );
        }
    }

    #[test]
    fn json_too_deep_plan_is_a_parse_error() {
        let deep = format!(r#"{{"seed": {}"#, "[".repeat(100_000));
        let message = parse_message(&deep);
        assert!(message.contains("nests deeper than"), "{message}");
    }

    #[test]
    fn pretty_layout_lists_every_field_once_in_order() {
        let json = FaultPlan::default().to_json_string();
        assert!(json.starts_with("{\n  \"seed\": 0,\n"), "{json}");
        assert!(json.ends_with("\n}\n"), "{json}");
        let mut from = 0;
        for field in FIELDS {
            let key = format!("\n  \"{field}\": ");
            let at = json[from..].find(&key).expect(field) + from;
            from = at + key.len();
            assert_eq!(json.matches(&key).count(), 1, "{field}");
        }
        assert_eq!(json.lines().count(), FIELDS.len() + 2);
    }

    #[test]
    fn compact_layout_is_one_line_and_parses_back() {
        let plan = FaultPlan {
            seed: 9,
            sensor_noise_sigma_celsius: 0.5,
            power_spike_rate: 0.25,
            power_spike_watts: 3.0,
            power_spike_intervals: 4,
            ..FaultPlan::default()
        };
        let mut line = String::new();
        plan.write_json(&mut line, true);
        assert!(!line.contains('\n'), "{line}");
        assert!(line.starts_with(r#"{"seed": 9,"sensor_noise_sigma_celsius": 0.5,"#));
        assert_eq!(FaultPlan::from_json_str(&line), Ok(plan));
    }
}

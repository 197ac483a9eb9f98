use crate::{PowerError, Result};

/// Per-core power model: switching power plus temperature-dependent leakage.
///
/// ```text
/// P(f, V, a, T) = C_eff · a · V² · f  +  P_leak0 · (V / V_nom) · (1 + k_T · (T − T_ref))
/// ```
///
/// `a ∈ [0, 1]` is the activity factor the performance model reports for an
/// interval (fraction of cycles the core switches at full effective
/// capacitance; memory-stalled cycles contribute much less). The defaults
/// are calibrated to the paper's operating points:
///
/// * fully active at 4 GHz / 1.2 V: ≈ 7 W,
/// * idle (clock-gated, `a = 0`): ≈ 0.3 W — the paper's stated idle power.
///
/// # Example
///
/// ```
/// use hp_power::PowerModel;
///
/// let m = PowerModel::default();
/// let hot = m.core_power(4.0, 1.2, 1.0, 45.0);
/// let throttled = m.core_power(2.0, 0.8, 1.0, 45.0);
/// assert!(throttled < hot / 2.0); // DVFS is super-linear in power
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Effective switched capacitance at full activity, in nF (10⁻⁹ F).
    pub c_eff_nf: f64,
    /// Leakage at nominal voltage and reference temperature, W.
    pub leak_w: f64,
    /// Nominal voltage for the leakage term, V.
    pub v_nom: f64,
    /// Leakage temperature coefficient, 1/K.
    pub leak_temp_coeff: f64,
    /// Reference temperature for leakage, °C.
    pub t_ref: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            // 1.33 nF: with the ~0.87 activity a compute-bound thread
            // reaches, peak-frequency power lands at ~7 W (Fig. 2 regime).
            c_eff_nf: 1.33,
            leak_w: 0.30,
            v_nom: 1.20,
            // +1.2 %/K: leakage grows ~40% from 45 C to 80 C.
            leak_temp_coeff: 0.012,
            t_ref: 45.0,
        }
    }
}

impl PowerModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] naming the first offender.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("c_eff_nf", self.c_eff_nf),
            ("leak_w", self.leak_w),
            ("v_nom", self.v_nom),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(PowerError::InvalidParameter { name, value });
            }
        }
        if !(self.leak_temp_coeff.is_finite() && self.leak_temp_coeff >= 0.0) {
            return Err(PowerError::InvalidParameter {
                name: "leak_temp_coeff",
                value: self.leak_temp_coeff,
            });
        }
        if !self.t_ref.is_finite() {
            return Err(PowerError::InvalidParameter {
                name: "t_ref",
                value: self.t_ref,
            });
        }
        Ok(())
    }

    /// Switching (dynamic) power at `freq_ghz`, `voltage` and activity `a`.
    ///
    /// Activity outside `[0, 1]` is clamped.
    pub fn dynamic_power(&self, freq_ghz: f64, voltage: f64, activity: f64) -> f64 {
        let a = activity.clamp(0.0, 1.0);
        self.c_eff_nf * 1e-9 * a * voltage * voltage * freq_ghz * 1e9
    }

    /// Leakage power at `voltage` and junction temperature `temp_c`.
    ///
    /// The temperature factor is clamped at zero so extreme sub-ambient
    /// temperatures cannot produce negative power.
    pub fn leakage_power(&self, voltage: f64, temp_c: f64) -> f64 {
        let temp_factor = (1.0 + self.leak_temp_coeff * (temp_c - self.t_ref)).max(0.0);
        self.leak_w * (voltage / self.v_nom) * temp_factor
    }

    /// Total core power: dynamic + leakage.
    pub fn core_power(&self, freq_ghz: f64, voltage: f64, activity: f64, temp_c: f64) -> f64 {
        self.dynamic_power(freq_ghz, voltage, activity) + self.leakage_power(voltage, temp_c)
    }

    /// Idle power: leakage at nominal voltage and reference temperature —
    /// the paper sets this to 0.3 W.
    pub fn idle_power(&self) -> f64 {
        self.leakage_power(self.v_nom, self.t_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DvfsLadder;

    #[test]
    fn peak_power_near_seven_watts() {
        let m = PowerModel::default();
        let p = m.core_power(4.0, 1.2, 1.0, 45.0);
        assert!(p > 6.5 && p < 8.5, "peak power {p:.2}");
    }

    #[test]
    fn idle_power_matches_paper() {
        let m = PowerModel::default();
        assert!((m.idle_power() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dvfs_power_is_superlinear() {
        // Halving frequency (with voltage scaling) should cut dynamic power
        // by much more than half.
        let m = PowerModel::default();
        let ladder = DvfsLadder::default();
        let hi = ladder.max_level();
        let lo = ladder.level_for_frequency(2.0).unwrap();
        let p_hi = m.dynamic_power(ladder.frequency_ghz(hi), ladder.voltage(hi), 1.0);
        let p_lo = m.dynamic_power(ladder.frequency_ghz(lo), ladder.voltage(lo), 1.0);
        assert!(p_lo < 0.4 * p_hi, "p_lo {p_lo:.2} vs p_hi {p_hi:.2}");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let m = PowerModel::default();
        let cold = m.leakage_power(1.2, 45.0);
        let hot = m.leakage_power(1.2, 80.0);
        assert!(hot > cold * 1.3 && hot < cold * 1.6);
    }

    #[test]
    fn leakage_never_negative() {
        let m = PowerModel::default();
        assert!(m.leakage_power(1.2, -500.0) >= 0.0);
    }

    #[test]
    fn activity_clamped() {
        let m = PowerModel::default();
        assert_eq!(
            m.dynamic_power(4.0, 1.2, 2.0),
            m.dynamic_power(4.0, 1.2, 1.0)
        );
        assert_eq!(m.dynamic_power(4.0, 1.2, -1.0), 0.0);
    }

    #[test]
    fn power_monotone_in_activity() {
        let m = PowerModel::default();
        let mut last = 0.0;
        for a in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = m.core_power(4.0, 1.2, a, 45.0);
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn validate_rejects_bad() {
        let m = PowerModel {
            c_eff_nf: -1.0,
            ..PowerModel::default()
        };
        assert!(m.validate().is_err());
        let m = PowerModel {
            leak_temp_coeff: f64::NAN,
            ..PowerModel::default()
        };
        assert!(m.validate().is_err());
        assert!(PowerModel::default().validate().is_ok());
    }
}

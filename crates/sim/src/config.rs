use hp_faults::{FaultError, FaultPlan};

use crate::{Result, SimError};

/// How the hardware DTM reacts when a junction crosses the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DtmScope {
    /// Crash the whole chip to the minimum frequency while any junction
    /// is above the threshold — the paper's description ("crashes the
    /// many-core's operating frequency").
    #[default]
    Chip,
    /// Throttle only the offending cores (modern per-core throttling).
    PerCore,
}

/// Engine parameters of the interval simulation.
///
/// # Example
///
/// ```
/// use hp_sim::SimConfig;
///
/// let cfg = SimConfig { t_dtm: 75.0, ..SimConfig::default() };
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulation interval, s. The thermal step is exact for constant
    /// power, so `dt` only bounds how often power and scheduling can
    /// change. Default 100 µs — five steps per 0.5 ms rotation epoch.
    pub dt: f64,
    /// Scheduler invocation period, s (default 500 µs, the paper's initial
    /// rotation epoch).
    pub sched_period: f64,
    /// DTM threshold temperature, °C (paper: 70 °C).
    pub t_dtm: f64,
    /// Whether the hardware DTM (frequency crash above `t_dtm`) is active.
    pub dtm_enabled: bool,
    /// Whether DTM throttles the whole chip or only the hot cores.
    pub dtm_scope: DtmScope,
    /// Hard wall-clock horizon for a run, simulated seconds.
    pub horizon: f64,
    /// Record a per-interval temperature trace (costs memory; used by the
    /// Fig. 2 experiments).
    pub record_trace: bool,
    /// Window for the per-thread average power history the scheduler sees,
    /// s (paper Algorithm 1 uses "the power history of a thread from the
    /// last 10 ms").
    pub power_history_window: f64,
    /// Start the chip at the steady state of this uniform per-core power
    /// instead of at ambient (W). Models a long-running system whose heat
    /// sink is already warm — the regime where Algorithm 1's d→∞ cycle is
    /// exact. `None` (default) starts cold at ambient.
    pub prewarm_power: Option<f64>,
    /// Width of the DTM hysteresis band, °C: the throttle engages when a
    /// junction reaches `t_dtm` and releases only once it falls below
    /// `t_dtm − dtm_hysteresis_celsius`. A band of `0.0` reproduces the
    /// historical stateless comparison bit-for-bit (and its per-interval
    /// oscillation at the boundary).
    pub dtm_hysteresis_celsius: f64,
    /// Fault-injection plan. [`FaultPlan::default`] is inert: the fault
    /// layer is bypassed entirely and runs are bit-identical to builds
    /// without it.
    pub faults: FaultPlan,
    /// How many consecutive missed sensor readings the conditioning
    /// layer bridges with the core's last good value before falling back
    /// to the spatial median of its neighbours. Only consulted when
    /// `faults` is active.
    pub sensor_staleness_budget_intervals: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt: 100e-6,
            sched_period: 500e-6,
            t_dtm: 70.0,
            dtm_enabled: true,
            dtm_scope: DtmScope::Chip,
            horizon: 30.0,
            record_trace: false,
            power_history_window: 10e-3,
            prewarm_power: None,
            dtm_hysteresis_celsius: 1.0,
            faults: FaultPlan::default(),
            sensor_staleness_budget_intervals: 5,
        }
    }
}

impl SimConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] naming the first offender.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("dt", self.dt),
            ("sched_period", self.sched_period),
            ("horizon", self.horizon),
            ("power_history_window", self.power_history_window),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidParameter { name, value });
            }
        }
        if !self.t_dtm.is_finite() {
            return Err(SimError::InvalidParameter {
                name: "t_dtm",
                value: self.t_dtm,
            });
        }
        if let Some(p) = self.prewarm_power {
            if !(p.is_finite() && p >= 0.0) {
                return Err(SimError::InvalidParameter {
                    name: "prewarm_power",
                    value: p,
                });
            }
        }
        if self.sched_period < self.dt {
            return Err(SimError::InvalidParameter {
                name: "sched_period",
                value: self.sched_period,
            });
        }
        if !(self.dtm_hysteresis_celsius.is_finite() && self.dtm_hysteresis_celsius >= 0.0) {
            return Err(SimError::InvalidParameter {
                name: "dtm_hysteresis_celsius",
                value: self.dtm_hysteresis_celsius,
            });
        }
        self.faults.validate().map_err(|e| match e {
            FaultError::InvalidParameter { name, value } => {
                SimError::InvalidParameter { name, value }
            }
            _ => SimError::InvalidParameter {
                name: "faults",
                value: f64::NAN,
            },
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_zero_dt() {
        let c = SimConfig {
            dt: 0.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_sched_period_below_dt() {
        let c = SimConfig {
            dt: 1e-3,
            sched_period: 1e-4,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_negative_hysteresis() {
        let c = SimConfig {
            dtm_hysteresis_celsius: -0.5,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_invalid_fault_plan() {
        let c = SimConfig {
            faults: FaultPlan {
                sensor_dropout_rate: 2.0,
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(SimError::InvalidParameter {
                name: "sensor_dropout_rate",
                ..
            })
        ));
    }
}

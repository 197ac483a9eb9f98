use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{FaultError, FaultPlan, Result};

/// One delivered sensor sample: `Some(reading)` (possibly noisy or
/// stuck) or `None` when the sensor dropped out this interval.
pub type SensorReading = Option<f64>;

/// Running counters for every fault the injector has produced.
///
/// The engine folds these into `Metrics` so a chaos run reports exactly
/// how much abuse it absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Readings perturbed by Gaussian noise.
    pub noisy_readings: u64,
    /// Stuck-at-last-value episodes started.
    pub stuck_episodes: u64,
    /// Readings served from a stuck sensor.
    pub stuck_readings: u64,
    /// Readings dropped entirely.
    pub dropouts: u64,
    /// Requested migrations that silently failed.
    pub migration_failures: u64,
    /// Migration-subsystem blackout windows opened.
    pub migration_blackouts: u64,
    /// Transient power spikes started.
    pub power_spikes: u64,
}

/// A serializable capture of a [`FaultInjector`]'s mutable runtime
/// state — RNG cursor, stuck/blackout/spike windows and the accumulated
/// [`FaultStats`] — sufficient to resume the fault stream exactly where
/// it stopped ([`FaultInjector::restore`]). The plan itself is *not*
/// part of the snapshot: the restoring caller must hold the same plan,
/// which checkpoint formats bind via their spec hash.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectorSnapshot {
    /// Raw xoshiro256++ state of the fault RNG.
    pub rng_state: [u64; 4],
    /// Per-core stuck-episode end intervals.
    pub stuck_until: Vec<u64>,
    /// Per-core captured stuck values, °C.
    pub stuck_value_celsius: Vec<f64>,
    /// Migration-blackout end interval.
    pub blackout_until: u64,
    /// Core carrying the active power spike.
    pub spike_core: usize,
    /// Power-spike end interval.
    pub spike_until: u64,
    /// Current interval index.
    pub interval: u64,
    /// Counters accumulated so far.
    pub stats: FaultStats,
}

/// Draws the faults described by a [`FaultPlan`] from a deterministic
/// RNG.
///
/// The sequence of faults is a pure function of the plan (including its
/// seed) and the order of calls the engine makes, so a fixed workload
/// and schedule replays bit-identically — the property the pinned golden
/// fault fixture locks down.
///
/// Call protocol, once per simulated interval:
/// 1. [`begin_interval`](FaultInjector::begin_interval)
/// 2. [`sense`](FaultInjector::sense) once per core, in core order
/// 3. [`power_spike_watts`](FaultInjector::power_spike_watts) per core
/// 4. [`migration_fails`](FaultInjector::migration_fails) once per
///    requested migration
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    cores: usize,
    /// Interval index; the core's sensor is stuck while `interval < stuck_until`.
    stuck_until: Vec<u64>,
    /// Value a stuck sensor keeps reporting, °C.
    stuck_value_celsius: Vec<f64>,
    /// Migrations fail unconditionally while `interval < blackout_until`.
    blackout_until: u64,
    /// Core carrying the active power spike (meaningful while `interval < spike_until`).
    spike_core: usize,
    spike_until: u64,
    interval: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] when the plan fails
    /// [`FaultPlan::validate`] or `cores` is zero.
    pub fn new(plan: &FaultPlan, cores: usize) -> Result<Self> {
        plan.validate()?;
        if cores == 0 {
            return Err(FaultError::InvalidParameter {
                name: "cores",
                value: 0.0,
            });
        }
        Ok(FaultInjector {
            plan: *plan,
            rng: StdRng::seed_from_u64(plan.seed),
            cores,
            stuck_until: vec![0; cores],
            stuck_value_celsius: vec![0.0; cores],
            blackout_until: 0,
            spike_core: 0,
            spike_until: 0,
            interval: 0,
            stats: FaultStats::default(),
        })
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Captures the injector's mutable runtime state for checkpointing.
    pub fn snapshot(&self) -> InjectorSnapshot {
        InjectorSnapshot {
            rng_state: self.rng.state(),
            stuck_until: self.stuck_until.clone(),
            stuck_value_celsius: self.stuck_value_celsius.clone(),
            blackout_until: self.blackout_until,
            spike_core: self.spike_core,
            spike_until: self.spike_until,
            interval: self.interval,
            stats: self.stats,
        }
    }

    /// Restores a previously captured [`InjectorSnapshot`], resuming the
    /// fault stream exactly where the snapshot was taken.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] when the snapshot's
    /// per-core vectors do not match this injector's core count (a
    /// wrong-run snapshot).
    pub fn restore(&mut self, snap: &InjectorSnapshot) -> Result<()> {
        if snap.stuck_until.len() != self.cores || snap.stuck_value_celsius.len() != self.cores {
            return Err(FaultError::InvalidParameter {
                name: "snapshot cores",
                value: snap.stuck_until.len() as f64,
            });
        }
        self.rng = StdRng::from_state(snap.rng_state);
        self.stuck_until.clone_from(&snap.stuck_until);
        self.stuck_value_celsius
            .clone_from(&snap.stuck_value_celsius);
        self.blackout_until = snap.blackout_until;
        self.spike_core = snap.spike_core;
        self.spike_until = snap.spike_until;
        self.interval = snap.interval;
        self.stats = snap.stats;
        Ok(())
    }

    /// Advances to the next interval and rolls for a new power spike
    /// (at most one spike is active at a time).
    pub fn begin_interval(&mut self) {
        self.interval += 1;
        if self.plan.power_spike_rate > 0.0
            && self.interval >= self.spike_until
            && self.rng.gen_bool(self.plan.power_spike_rate)
        {
            self.spike_core = self.rng.gen_range(0..self.cores);
            self.spike_until = self.interval + self.plan.power_spike_intervals;
            self.stats.power_spikes += 1;
        }
    }

    /// Produces the sensor reading delivered for `core` this interval,
    /// given the physically true temperature.
    ///
    /// Fault precedence: an active stuck episode overrides everything
    /// (the sensor keeps repeating its captured value); otherwise a
    /// dropout roll may suppress the reading; otherwise the true value
    /// (plus optional Gaussian noise) is delivered and may start a new
    /// stuck episode capturing that delivered value.
    pub fn sense(&mut self, core: usize, true_temp_celsius: f64) -> SensorReading {
        if core >= self.cores {
            // Out-of-range cores see an honest sensor; the engine never
            // asks for one, but the library must not panic if it does.
            return Some(true_temp_celsius);
        }
        if self.interval < self.stuck_until.get(core).copied().unwrap_or(0) {
            self.stats.stuck_readings += 1;
            return Some(self.stuck_value_celsius.get(core).copied().unwrap_or(0.0));
        }
        if self.plan.sensor_dropout_rate > 0.0 && self.rng.gen_bool(self.plan.sensor_dropout_rate) {
            self.stats.dropouts += 1;
            return None;
        }
        let mut reading = true_temp_celsius;
        if self.plan.sensor_noise_sigma_celsius > 0.0 {
            reading += self.plan.sensor_noise_sigma_celsius * self.sample_standard_normal();
            self.stats.noisy_readings += 1;
        }
        if self.plan.sensor_stuck_rate > 0.0 && self.rng.gen_bool(self.plan.sensor_stuck_rate) {
            if let (Some(until), Some(value)) = (
                self.stuck_until.get_mut(core),
                self.stuck_value_celsius.get_mut(core),
            ) {
                *until = self.interval + self.plan.sensor_stuck_intervals;
                *value = reading;
                self.stats.stuck_episodes += 1;
            }
        }
        Some(reading)
    }

    /// Extra power drawn by `core` this interval from the active
    /// transient spike, W (zero for every core but the spiking one).
    pub fn power_spike_watts(&self, core: usize) -> f64 {
        if self.interval < self.spike_until && core == self.spike_core {
            self.plan.power_spike_watts
        } else {
            0.0
        }
    }

    /// Rolls whether one requested migration silently fails.
    ///
    /// A failure opens a blackout window during which every further
    /// migration request also fails, modelling a wedged migration
    /// subsystem rather than independent per-request coin flips.
    pub fn migration_fails(&mut self) -> bool {
        if self.interval < self.blackout_until {
            self.stats.migration_failures += 1;
            return true;
        }
        if self.plan.migration_failure_rate > 0.0
            && self.rng.gen_bool(self.plan.migration_failure_rate)
        {
            self.blackout_until = self.interval + self.plan.migration_blackout_intervals;
            self.stats.migration_failures += 1;
            self.stats.migration_blackouts += 1;
            return true;
        }
        false
    }

    /// Standard normal sample via Box–Muller (the vendored RNG only
    /// offers uniform draws).
    fn sample_standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlan {
        FaultPlan {
            seed: 11,
            sensor_noise_sigma_celsius: 0.5,
            sensor_stuck_rate: 0.05,
            sensor_stuck_intervals: 4,
            sensor_dropout_rate: 0.1,
            migration_failure_rate: 0.2,
            migration_blackout_intervals: 3,
            power_spike_rate: 0.1,
            power_spike_watts: 2.0,
            power_spike_intervals: 5,
            ..FaultPlan::default()
        }
    }

    fn drive(
        mut inj: FaultInjector,
        intervals: u64,
    ) -> (Vec<SensorReading>, Vec<bool>, FaultStats) {
        let mut readings = Vec::new();
        let mut failures = Vec::new();
        for t in 0..intervals {
            inj.begin_interval();
            for core in 0..4 {
                readings.push(inj.sense(core, 50.0 + (t as f64) + (core as f64)));
            }
            failures.push(inj.migration_fails());
        }
        (readings, failures, *inj.stats())
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let plan = noisy_plan();
        let a = drive(FaultInjector::new(&plan, 4).expect("valid plan"), 200);
        let b = drive(FaultInjector::new(&plan, 4).expect("valid plan"), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = noisy_plan();
        let other = FaultPlan { seed: 12, ..plan };
        let a = drive(FaultInjector::new(&plan, 4).expect("valid plan"), 200);
        let b = drive(FaultInjector::new(&other, 4).expect("valid plan"), 200);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn inert_plan_is_a_perfect_sensor() {
        let mut inj = FaultInjector::new(&FaultPlan::default(), 4).expect("valid plan");
        for t in 0..100 {
            inj.begin_interval();
            for core in 0..4 {
                let true_temp = 40.0 + f64::from(t);
                assert_eq!(inj.sense(core, true_temp), Some(true_temp));
                assert_eq!(inj.power_spike_watts(core), 0.0);
            }
            assert!(!inj.migration_fails());
        }
        assert_eq!(*inj.stats(), FaultStats::default());
    }

    #[test]
    fn stuck_sensor_repeats_captured_value() {
        let plan = FaultPlan {
            seed: 1,
            sensor_stuck_rate: 1.0,
            sensor_stuck_intervals: 5,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 1).expect("valid plan");
        inj.begin_interval();
        let captured = inj.sense(0, 55.0).expect("delivered");
        assert_eq!(captured, 55.0);
        for t in 1..5 {
            inj.begin_interval();
            assert_eq!(inj.sense(0, 55.0 + f64::from(t)), Some(captured));
        }
        assert!(inj.stats().stuck_readings >= 4);
    }

    #[test]
    fn certain_dropout_always_drops() {
        let plan = FaultPlan {
            sensor_dropout_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 2).expect("valid plan");
        inj.begin_interval();
        assert_eq!(inj.sense(0, 50.0), None);
        assert_eq!(inj.sense(1, 50.0), None);
        assert_eq!(inj.stats().dropouts, 2);
    }

    #[test]
    fn migration_blackout_window_holds() {
        let plan = FaultPlan {
            migration_failure_rate: 1.0,
            migration_blackout_intervals: 3,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 1).expect("valid plan");
        inj.begin_interval();
        assert!(inj.migration_fails());
        assert_eq!(inj.stats().migration_blackouts, 1);
        // Subsequent requests inside the window fail without new rolls.
        inj.begin_interval();
        assert!(inj.migration_fails());
        assert!(inj.migration_fails());
        assert_eq!(inj.stats().migration_blackouts, 1);
    }

    #[test]
    fn power_spike_targets_one_core_then_expires() {
        let plan = FaultPlan {
            seed: 3,
            power_spike_rate: 1.0,
            power_spike_watts: 4.0,
            power_spike_intervals: 2,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 8).expect("valid plan");
        inj.begin_interval();
        let spiking: Vec<usize> = (0..8).filter(|&c| inj.power_spike_watts(c) > 0.0).collect();
        assert_eq!(spiking.len(), 1);
        assert_eq!(inj.power_spike_watts(spiking[0]), 4.0);
        assert_eq!(inj.stats().power_spikes, 1);
    }

    #[test]
    fn snapshot_restore_resumes_fault_stream() {
        let plan = noisy_plan();
        let mut golden = FaultInjector::new(&plan, 4).expect("valid plan");
        let mut live = FaultInjector::new(&plan, 4).expect("valid plan");
        // Advance both in lockstep, then fork `live` through a snapshot.
        for t in 0..50 {
            golden.begin_interval();
            live.begin_interval();
            for core in 0..4 {
                let temp = 50.0 + f64::from(t);
                assert_eq!(golden.sense(core, temp), live.sense(core, temp));
            }
            assert_eq!(golden.migration_fails(), live.migration_fails());
        }
        let snap = live.snapshot();
        let mut resumed = FaultInjector::new(&plan, 4).expect("valid plan");
        resumed.restore(&snap).expect("matching cores");
        assert_eq!(*resumed.stats(), *golden.stats());
        for t in 50..150 {
            golden.begin_interval();
            resumed.begin_interval();
            for core in 0..4 {
                let temp = 50.0 + f64::from(t);
                assert_eq!(golden.sense(core, temp), resumed.sense(core, temp));
            }
            assert_eq!(golden.migration_fails(), resumed.migration_fails());
        }
        assert_eq!(*resumed.stats(), *golden.stats());
    }

    #[test]
    fn restore_rejects_wrong_core_count() {
        let plan = noisy_plan();
        let donor = FaultInjector::new(&plan, 2).expect("valid plan");
        let mut target = FaultInjector::new(&plan, 4).expect("valid plan");
        assert!(target.restore(&donor.snapshot()).is_err());
    }

    #[test]
    fn zero_cores_is_rejected() {
        assert!(FaultInjector::new(&FaultPlan::default(), 0).is_err());
    }

    #[test]
    fn out_of_range_core_reads_honestly() {
        let mut inj = FaultInjector::new(&noisy_plan(), 2).expect("valid plan");
        inj.begin_interval();
        assert_eq!(inj.sense(99, 42.0), Some(42.0));
    }
}

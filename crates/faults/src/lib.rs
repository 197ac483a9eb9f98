//! Deterministic fault injection for the interval thermal simulator.
//!
//! HotPotato's run-time guarantee (`T_peak < T_DTM`) is only as good as
//! the inputs it acts on. Real thermal managers live with noisy or stuck
//! sensors, migration requests that silently fail, and transient power
//! excursions; a simulator that assumes all three away either skews
//! results quietly or aborts a run and discards everything it measured.
//! This crate supplies the three pieces the engine composes into a
//! graceful-degradation chain:
//!
//! * [`FaultPlan`] — a seed-driven, JSON-configurable description of *what*
//!   to inject: per-interval sensor faults (Gaussian noise, stuck-at-
//!   last-value, dropout), migration failures with a blackout window,
//!   and transient power spikes. All rates default to zero; a default
//!   plan is inert and the engine bypasses the fault layer entirely, so
//!   the no-fault path stays bit-identical.
//! * [`FaultInjector`] — the runtime that draws those faults from a
//!   deterministic RNG ([`rand`]'s xoshiro stand-in seeded from the
//!   plan). Two runs with the same plan, workload and schedule see the
//!   same faults at the same intervals.
//! * [`SensorConditioner`] — turns raw (possibly missing or stale)
//!   readings into a [`TrustedTemps`] view with per-core confidence:
//!   last-good-value hold inside a staleness budget, then a
//!   median-of-neighbours spatial fallback, with confidence decaying at
//!   each step down the ladder. Schedulers consume the conditioned view
//!   and can compare its confidence against their own floor to decide
//!   when to degrade to a simpler policy.
//!
//! The crate is deliberately dependency-light (no simulator types): the
//! engine hands in plain slices and neighbour lists, which keeps every
//! rule unit-testable without a thermal model.

mod condition;
mod error;
mod inject;
mod plan;

pub use condition::{mesh_neighbors, ConditionerSnapshot, SensorConditioner, TrustedTemps};
pub use error::FaultError;
pub use inject::{FaultInjector, FaultStats, InjectorSnapshot, SensorReading};
pub use plan::FaultPlan;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FaultError>;

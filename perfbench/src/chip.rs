//! Chip states and the Algorithm-1 probe sequences built from them.
//!
//! A [`ChipState`] is what the HotPotato scheduler probes: which ring slot
//! holds a thread of what power, and the rotation interval τ. The
//! sequences are built exactly as the scheduler's `estimate_peak` builds
//! them — one ring resolved slot by slot per epoch, every other ring at
//! its ring-averaged power, idle cores at the idle estimate — so the
//! benchmark replays the scheduler's real probe traffic through the public
//! solver API.

use hotpotato::{EpochPowerSequence, HotPotatoConfig};
use hp_floorplan::{CoreId, RingSet};
use hp_linalg::Vector;
use hp_manycore::Machine;
use hp_sim::ThreadView;
use rand::rngs::StdRng;
use rand::Rng;

/// Thread power range of the synthetic states, W.
const MIN_THREAD_W: f64 = 0.3;
const MAX_THREAD_W: f64 = 7.0;

/// One chip state: per ring, per slot, the occupant's power (if any).
#[derive(Debug, Clone)]
pub struct ChipState {
    pub tau: f64,
    pub slots: Vec<Vec<Option<f64>>>,
}

/// The probe traffic of one chip state.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Single Algorithm-1 evaluation: the innermost ring's rotation.
    pub single: EpochPowerSequence,
    /// The full-scheduler probe: one sequence per occupied ring, the
    /// innermost first.
    pub batch: Vec<EpochPowerSequence>,
}

/// Slot `s` of `ring` in rotation order.
fn slot_core(rings: &RingSet, ring: usize, slot: usize) -> CoreId {
    rings.ring(ring).cores()[slot]
}

impl ChipState {
    /// A seeded synthetic state with the occupancy of `pattern`: every
    /// slot `pattern` occupies gets a thread of uniform 0.3–7 W, and τ is
    /// one of HotPotato's levels. Taking the occupancy from states the
    /// scheduler really saw keeps the batch sizes of its probe traffic.
    pub fn reseeded(pattern: &ChipState, rng: &mut StdRng) -> Self {
        let taus = HotPotatoConfig::default().tau_levels;
        let slots = pattern
            .slots
            .iter()
            .map(|ring| {
                ring.iter()
                    .map(|s| s.map(|_| rng.gen_range(MIN_THREAD_W..MAX_THREAD_W)))
                    .collect()
            })
            .collect();
        ChipState {
            tau: taus[rng.gen_range(0..taus.len())],
            slots,
        }
    }

    /// A fully occupied chip (every ring slot holds a thread), the
    /// pattern of the per-δ layer timings.
    pub fn full(rings: &RingSet) -> Self {
        ChipState {
            tau: 0.0,
            slots: rings
                .iter()
                .map(|r| vec![Some(0.0); r.capacity()])
                .collect(),
        }
    }

    /// The state a scheduler saw at one hook: each running thread on the
    /// ring slot of its core, at HotPotato's power estimate (the larger of
    /// its current work-point power at the top DVFS level and its windowed
    /// average). `None` when the innermost ring is empty, because the
    /// single δ = 4 evaluation is defined on that ring.
    pub fn capture(
        machine: &Machine,
        threads: &[ThreadView],
        t_dtm: f64,
        tau: f64,
    ) -> Option<Self> {
        let rings = machine.rings();
        let top = machine.config().dvfs.max_level();
        let mut slots: Vec<Vec<Option<f64>>> =
            rings.iter().map(|r| vec![None; r.capacity()]).collect();
        for t in threads {
            let ring = rings.ring_of(t.core).index();
            let slot = rings.ring(ring).slot_of(t.core)?;
            let current = if t.work.is_idle() {
                0.0
            } else {
                match machine.cpi_stack_at_level(&t.work, t.core, top) {
                    Ok(stack) => machine.core_power(&stack, top, t_dtm),
                    Err(_) => t.avg_power,
                }
            };
            slots[ring][slot] = Some(current.max(t.avg_power));
        }
        slots[0]
            .iter()
            .any(Option::is_some)
            .then_some(ChipState { tau, slots })
    }

    /// The power on one ring slot: its thread's, or the idle estimate.
    fn ring_power(&self, ring: usize, slot: usize, idle: f64) -> f64 {
        self.slots[ring][slot].unwrap_or(idle)
    }

    /// The innermost-ring single sequence and the all-occupied-rings
    /// batch, every power (idle estimate included) multiplied by `scale`.
    pub fn probe(&self, rings: &RingSet, cores: usize, idle: f64, scale: f64) -> Probe {
        let mut background = Vector::constant(cores, idle * scale);
        for (r, ring) in rings.iter().enumerate() {
            if self.slots[r].iter().all(Option::is_none) {
                continue;
            }
            let sum: f64 = (0..ring.capacity())
                .map(|s| self.ring_power(r, s, idle))
                .sum();
            let avg = sum / ring.capacity() as f64 * scale;
            for &c in ring.cores() {
                background[c.index()] = avg;
            }
        }
        let sequence = |r: usize| -> EpochPowerSequence {
            let delta = rings.ring(r).capacity();
            let epochs = (0..delta)
                .map(|e| {
                    let mut p = background.clone();
                    for s in 0..delta {
                        let core = slot_core(rings, r, (s + e) % delta);
                        p[core.index()] = self.ring_power(r, s, idle) * scale;
                    }
                    p
                })
                .collect();
            EpochPowerSequence::new(self.tau, epochs).expect("valid epoch sequence")
        };
        let batch: Vec<EpochPowerSequence> = (0..rings.len())
            .filter(|&r| self.slots[r].iter().any(Option::is_some))
            .map(sequence)
            .collect();
        Probe {
            single: sequence(0),
            batch,
        }
    }

    /// One single-ring sequence per ring capacity present on the chip
    /// (the first ring of each capacity), for the per-δ layer timings.
    pub fn per_delta(
        &self,
        rings: &RingSet,
        cores: usize,
        idle: f64,
    ) -> Vec<(usize, EpochPowerSequence)> {
        let probe_rings: Vec<usize> = (0..rings.len())
            .filter(|&r| self.slots[r].iter().any(Option::is_some))
            .collect();
        let full = self.probe(rings, cores, idle, 1.0);
        let mut out: Vec<(usize, EpochPowerSequence)> = Vec::new();
        for (i, &r) in probe_rings.iter().enumerate() {
            let delta = rings.ring(r).capacity();
            if !out.iter().any(|(d, _)| *d == delta) {
                out.push((delta, full.batch[i].clone()));
            }
        }
        out
    }
}

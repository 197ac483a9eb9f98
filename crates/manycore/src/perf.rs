/// An interval workload description: what a thread *is doing* during a
/// simulation interval, independent of where it runs.
///
/// The mechanistic interval model (the approach of Sniper, on which
/// HotSniper builds) characterises a thread by its base CPI and its memory
/// access intensity; the machine then adds the location-dependent stall
/// cycles. Power derives from the same numbers: execution cycles switch the
/// core at `activity_exec`, stall cycles at `activity_stall`.
///
/// # Example
///
/// ```
/// use hp_manycore::WorkPoint;
///
/// let hot = WorkPoint::compute_bound();
/// let cool = WorkPoint::memory_bound();
/// assert!(hot.l1_mpki < cool.l1_mpki);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkPoint {
    /// Cycles per instruction with a perfect memory hierarchy.
    pub cpi_base: f64,
    /// L1 misses per kilo-instruction (these travel to the S-NUCA LLC).
    pub l1_mpki: f64,
    /// LLC misses per kilo-instruction (these go to off-chip memory).
    pub llc_mpki: f64,
    /// Switching activity while executing (0–1).
    pub activity_exec: f64,
    /// Switching activity while stalled on memory (0–1).
    pub activity_stall: f64,
}

impl WorkPoint {
    /// A typical compute-bound point (e.g. *blackscholes*, *swaptions*):
    /// high IPC, few misses, hot.
    pub fn compute_bound() -> Self {
        WorkPoint {
            cpi_base: 0.55,
            l1_mpki: 1.0,
            llc_mpki: 0.1,
            activity_exec: 1.0,
            activity_stall: 0.15,
        }
    }

    /// A typical memory-bound point (e.g. *canneal*): low IPC, many misses,
    /// cool.
    pub fn memory_bound() -> Self {
        WorkPoint {
            cpi_base: 0.9,
            l1_mpki: 30.0,
            llc_mpki: 8.0,
            activity_exec: 0.75,
            activity_stall: 0.12,
        }
    }

    /// An idle point: no instructions retire, the core sits clock-gated.
    pub fn idle() -> Self {
        WorkPoint {
            cpi_base: 0.0,
            l1_mpki: 0.0,
            llc_mpki: 0.0,
            activity_exec: 0.0,
            activity_stall: 0.0,
        }
    }

    /// Returns `true` for the idle point (no execution).
    pub fn is_idle(&self) -> bool {
        self.cpi_base == 0.0
    }

    /// Returns a copy with the L1 miss rate scaled by `factor`.
    pub fn with_l1_miss_factor(&self, factor: f64) -> Self {
        WorkPoint {
            l1_mpki: self.l1_mpki * factor,
            ..*self
        }
    }

    /// Returns a copy with `extra` additional L1 misses per
    /// kilo-instruction — the capacity-bounded cold-cache penalty after a
    /// migration (the refill traffic cannot exceed the private cache's
    /// line count, no matter how memory-bound the thread is).
    pub fn with_extra_l1_mpki(&self, extra: f64) -> Self {
        WorkPoint {
            l1_mpki: self.l1_mpki + extra.max(0.0),
            ..*self
        }
    }
}

/// The resolved cycles-per-instruction breakdown of a [`WorkPoint`] on a
/// specific core at a specific frequency.
///
/// Produced by [`Machine::cpi_stack`](crate::Machine::cpi_stack); exposes
/// the intermediate quantities (per C-INTERMEDIATE) so schedulers can sort
/// threads by CPI, as HotPotato's Algorithm 2 requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiStack {
    /// Base (execution) component.
    pub base: f64,
    /// Stall cycles on LLC accesses (AMD-dependent).
    pub llc: f64,
    /// Stall cycles on off-chip memory accesses.
    pub memory: f64,
    /// Clock frequency used, GHz.
    pub freq_ghz: f64,
    /// Switching activity factor for the power model.
    pub activity: f64,
}

impl CpiStack {
    /// Total cycles per instruction.
    pub fn total(&self) -> f64 {
        self.base + self.llc + self.memory
    }

    /// Instructions per second at the stack's frequency.
    ///
    /// Returns `0.0` for an idle stack.
    pub fn ips(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.freq_ghz * 1e9 / total
    }

    /// Fraction of cycles spent executing (not stalled).
    pub fn execute_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.base / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_points_are_consistent() {
        let c = WorkPoint::compute_bound();
        let m = WorkPoint::memory_bound();
        assert!(c.cpi_base < m.cpi_base);
        assert!(c.llc_mpki < m.llc_mpki);
        assert!(!c.is_idle() && !m.is_idle());
        assert!(WorkPoint::idle().is_idle());
    }

    #[test]
    fn miss_factor_scales_only_l1() {
        let w = WorkPoint::memory_bound().with_l1_miss_factor(2.0);
        assert_eq!(w.l1_mpki, 60.0);
        assert_eq!(w.llc_mpki, WorkPoint::memory_bound().llc_mpki);
    }

    #[test]
    fn stack_arithmetic() {
        let s = CpiStack {
            base: 0.5,
            llc: 0.3,
            memory: 0.2,
            freq_ghz: 2.0,
            activity: 0.6,
        };
        assert_eq!(s.total(), 1.0);
        assert_eq!(s.ips(), 2.0e9);
        assert_eq!(s.execute_fraction(), 0.5);
    }

    #[test]
    fn idle_stack_has_zero_ips() {
        let s = CpiStack {
            base: 0.0,
            llc: 0.0,
            memory: 0.0,
            freq_ghz: 4.0,
            activity: 0.0,
        };
        assert_eq!(s.ips(), 0.0);
        assert_eq!(s.execute_fraction(), 0.0);
    }
}

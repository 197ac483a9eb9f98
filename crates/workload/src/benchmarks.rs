use hp_manycore::WorkPoint;

use crate::{PhaseWork, TaskPhase, TaskSpec};

/// The eight PARSEC benchmarks the paper evaluates with (`sim-small`
/// inputs), as synthetic phase-structured models.
///
/// Instruction budgets are sized so a benchmark instance completes in tens
/// of milliseconds at 4 GHz — the same scale as the paper's Fig. 2 (a
/// 2-thread *blackscholes* run takes ~68 ms unmanaged). The relative
/// characteristics follow PARSEC's published characterisation:
/// *swaptions*/*blackscholes* compute-bound and hot, *canneal*
/// memory-bound and cool, the rest in between.
///
/// # Example
///
/// ```
/// use hp_workload::Benchmark;
///
/// // canneal is the memory-bound outlier: lowest activity, most misses.
/// let cool = Benchmark::Canneal.work_point();
/// let hot = Benchmark::Swaptions.work_point();
/// assert!(cool.l1_mpki > 10.0 * hot.l1_mpki);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Option pricing; compute-bound with a serial master–slave structure.
    Blackscholes,
    /// Body tracking; alternates compute and data-heavy phases.
    Bodytrack,
    /// Simulated annealing on a netlist; strongly memory-bound and cool.
    Canneal,
    /// Stream compression pipeline; moderate memory intensity.
    Dedup,
    /// Particle fluid simulation; compute-heavy with barrier phases.
    Fluidanimate,
    /// Online clustering of streamed points; memory-streaming.
    Streamcluster,
    /// Monte-Carlo swaption pricing; embarrassingly parallel and hottest.
    Swaptions,
    /// Video encoding; compute-heavy with variable parallelism.
    X264,
}

impl Benchmark {
    /// All benchmarks, in the order of the paper's Fig. 4(a).
    pub fn all() -> [Benchmark; 8] {
        [
            Benchmark::Streamcluster,
            Benchmark::X264,
            Benchmark::Bodytrack,
            Benchmark::Canneal,
            Benchmark::Blackscholes,
            Benchmark::Dedup,
            Benchmark::Fluidanimate,
            Benchmark::Swaptions,
        ]
    }

    /// Lower-case benchmark name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Bodytrack => "bodytrack",
            Benchmark::Canneal => "canneal",
            Benchmark::Dedup => "dedup",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Streamcluster => "streamcluster",
            Benchmark::Swaptions => "swaptions",
            Benchmark::X264 => "x264",
        }
    }

    /// The benchmark's dominant [`WorkPoint`] (parallel-phase behaviour).
    pub fn work_point(&self) -> WorkPoint {
        match self {
            Benchmark::Blackscholes => WorkPoint {
                cpi_base: 0.55,
                l1_mpki: 1.0,
                llc_mpki: 0.1,
                activity_exec: 1.0,
                activity_stall: 0.15,
            },
            Benchmark::Bodytrack => WorkPoint {
                cpi_base: 0.60,
                l1_mpki: 3.0,
                llc_mpki: 0.5,
                activity_exec: 0.90,
                activity_stall: 0.15,
            },
            Benchmark::Canneal => WorkPoint {
                cpi_base: 0.90,
                l1_mpki: 30.0,
                llc_mpki: 8.0,
                activity_exec: 0.75,
                activity_stall: 0.12,
            },
            Benchmark::Dedup => WorkPoint {
                cpi_base: 0.70,
                l1_mpki: 10.0,
                llc_mpki: 1.5,
                activity_exec: 0.85,
                activity_stall: 0.13,
            },
            Benchmark::Fluidanimate => WorkPoint {
                cpi_base: 0.60,
                l1_mpki: 5.0,
                llc_mpki: 0.8,
                activity_exec: 0.95,
                activity_stall: 0.14,
            },
            Benchmark::Streamcluster => WorkPoint {
                cpi_base: 0.75,
                l1_mpki: 20.0,
                llc_mpki: 3.0,
                activity_exec: 0.80,
                activity_stall: 0.12,
            },
            Benchmark::Swaptions => WorkPoint {
                cpi_base: 0.50,
                l1_mpki: 0.8,
                llc_mpki: 0.05,
                activity_exec: 1.0,
                activity_stall: 0.15,
            },
            Benchmark::X264 => WorkPoint {
                cpi_base: 0.58,
                l1_mpki: 4.0,
                llc_mpki: 0.6,
                activity_exec: 0.95,
                activity_stall: 0.15,
            },
        }
    }

    /// A serial-section work point (used by the master thread in serial
    /// phases): same memory behaviour, slightly lower ILP.
    fn serial_point(&self) -> WorkPoint {
        let mut w = self.work_point();
        w.cpi_base *= 1.15;
        w
    }

    /// Builds the synthetic [`TaskSpec`] for an instance with `threads`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn spec(&self, threads: usize) -> TaskSpec {
        assert!(threads > 0, "a task needs at least one thread");
        match self {
            Benchmark::Blackscholes => self.master_slave(threads, 60, 220, 45),
            Benchmark::Bodytrack => self.alternating(threads, 4, 180),
            Benchmark::Canneal => self.flat(threads, 240),
            Benchmark::Dedup => self.master_slave(threads, 25, 160, 20),
            Benchmark::Fluidanimate => self.barriered(threads, 5, 160),
            Benchmark::Streamcluster => self.barriered(threads, 3, 220),
            Benchmark::Swaptions => self.flat(threads, 880),
            Benchmark::X264 => self.alternating(threads, 6, 240),
        }
    }

    /// Serial(master) → parallel(all-but-master) → serial(master) — the
    /// Fig. 2 structure. Budgets in mega-instructions.
    fn master_slave(
        &self,
        threads: usize,
        serial1_mi: u64,
        par_mi: u64,
        serial2_mi: u64,
    ) -> TaskSpec {
        let w = self.work_point();
        let sw = self.serial_point();
        let mi = 1_000_000u64;
        if threads == 1 {
            return TaskSpec::new(
                self.name(),
                vec![TaskPhase::new(vec![PhaseWork::busy(
                    (serial1_mi + par_mi + serial2_mi) * mi,
                    sw,
                )])],
            );
        }
        let slaves = (threads - 1) as u64;
        let per_slave = par_mi * mi / slaves;
        let phase1 = TaskPhase::new(
            (0..threads)
                .map(|t| {
                    if t == 0 {
                        PhaseWork::busy(serial1_mi * mi, sw)
                    } else {
                        PhaseWork::idle()
                    }
                })
                .collect(),
        );
        let phase2 = TaskPhase::new(
            (0..threads)
                .map(|t| {
                    if t == 0 {
                        PhaseWork::idle()
                    } else {
                        PhaseWork::busy(per_slave, w)
                    }
                })
                .collect(),
        );
        let phase3 = TaskPhase::new(
            (0..threads)
                .map(|t| {
                    if t == 0 {
                        PhaseWork::busy(serial2_mi * mi, sw)
                    } else {
                        PhaseWork::idle()
                    }
                })
                .collect(),
        );
        TaskSpec::new(self.name(), vec![phase1, phase2, phase3])
    }

    /// One fully parallel phase: `total_mi` mega-instructions divided
    /// evenly across threads (strong scaling — PARSEC's `sim-small`
    /// input is fixed regardless of thread count).
    fn flat(&self, threads: usize, total_mi: u64) -> TaskSpec {
        let w = self.work_point();
        let per_thread = total_mi * 1_000_000 / threads as u64;
        TaskSpec::new(
            self.name(),
            vec![TaskPhase::new(
                (0..threads)
                    .map(|_| PhaseWork::busy(per_thread, w))
                    .collect(),
            )],
        )
    }

    /// `phases` barrier-separated parallel phases dividing `total_mi`
    /// mega-instructions across phases and threads (strong scaling).
    fn barriered(&self, threads: usize, phases: usize, total_mi: u64) -> TaskSpec {
        let w = self.work_point();
        let per_entry = total_mi * 1_000_000 / (phases * threads) as u64;
        TaskSpec::new(
            self.name(),
            (0..phases)
                .map(|_| {
                    TaskPhase::new(
                        (0..threads)
                            .map(|_| PhaseWork::busy(per_entry, w))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Alternating parallel-compute / parallel-memory phases (bodytrack,
    /// x264 style): `pairs` pairs of phases dividing `total_mi`
    /// mega-instructions (strong scaling).
    fn alternating(&self, threads: usize, pairs: usize, total_mi: u64) -> TaskSpec {
        let hot = self.work_point();
        let cool = WorkPoint {
            cpi_base: hot.cpi_base * 1.2,
            l1_mpki: hot.l1_mpki * 4.0 + 5.0,
            llc_mpki: hot.llc_mpki * 3.0 + 1.0,
            activity_exec: hot.activity_exec * 0.9,
            activity_stall: hot.activity_stall,
        };
        let per_phase = total_mi * 1_000_000 / (2 * pairs * threads) as u64;
        let mut phases = Vec::with_capacity(2 * pairs);
        for _ in 0..pairs {
            phases.push(TaskPhase::new(
                (0..threads)
                    .map(|_| PhaseWork::busy(per_phase, hot))
                    .collect(),
            ));
            phases.push(TaskPhase::new(
                (0..threads)
                    .map(|_| PhaseWork::busy(per_phase, cool))
                    .collect(),
            ));
        }
        TaskSpec::new(self.name(), phases)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_at_various_sizes() {
        for b in Benchmark::all() {
            for threads in [1, 2, 3, 4, 8] {
                let spec = b.spec(threads);
                assert_eq!(spec.thread_count(), threads, "{b} x{threads}");
                assert!(spec.total_instructions() > 0);
            }
        }
    }

    #[test]
    fn blackscholes_has_master_slave_structure() {
        let spec = Benchmark::Blackscholes.spec(2);
        assert_eq!(spec.phases().len(), 3);
        // Phase 1: master busy, slave idle.
        assert!(spec.phases()[0].thread(0).instructions > 0);
        assert_eq!(spec.phases()[0].thread(1).instructions, 0);
        // Phase 2: master idle, slave busy.
        assert_eq!(spec.phases()[1].thread(0).instructions, 0);
        assert!(spec.phases()[1].thread(1).instructions > 0);
        // Phase 3: master wraps up.
        assert!(spec.phases()[2].thread(0).instructions > 0);
    }

    #[test]
    fn blackscholes_single_thread_collapses_to_one_phase() {
        let spec = Benchmark::Blackscholes.spec(1);
        assert_eq!(spec.phases().len(), 1);
        assert!(spec.total_instructions() > 0);
    }

    #[test]
    fn slave_work_splits_evenly() {
        let two = Benchmark::Blackscholes.spec(2);
        let five = Benchmark::Blackscholes.spec(5);
        let slave2 = two.phases()[1].thread(1).instructions;
        let slave5 = five.phases()[1].thread(1).instructions;
        assert_eq!(slave2, slave5 * 4);
    }

    #[test]
    fn canneal_is_memory_bound_and_flat() {
        let spec = Benchmark::Canneal.spec(4);
        assert_eq!(spec.phases().len(), 1);
        let w = spec.phases()[0].thread(0).work;
        assert!(w.l1_mpki >= 30.0);
    }

    #[test]
    fn swaptions_is_hot() {
        let w = Benchmark::Swaptions.work_point();
        assert!(w.activity_exec >= 1.0 && w.l1_mpki < 1.0);
    }

    #[test]
    fn alternating_benchmarks_alternate() {
        let spec = Benchmark::Bodytrack.spec(2);
        assert!(spec.phases().len() >= 4);
        let hot = spec.phases()[0].thread(0).work;
        let cool = spec.phases()[1].thread(0).work;
        assert!(cool.l1_mpki > hot.l1_mpki);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        Benchmark::Swaptions.spec(0);
    }
}

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Benchmark, TaskSpec};

/// Identifier of a job (task instance) inside a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A task instance submitted to the system at a given time.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id within the workload.
    pub id: JobId,
    /// The benchmark this job is an instance of.
    pub benchmark: Benchmark,
    /// The task specification (phases, per-thread work).
    pub spec: TaskSpec,
    /// Arrival time in seconds (0 for closed/batch workloads).
    pub arrival: f64,
}

/// Builds the paper's **homogeneous closed workload**: vari-sized
/// multi-threaded instances of a single benchmark that together fully load
/// `total_cores` cores, all arriving at `t = 0` (Fig. 4(a) setup).
///
/// Instance sizes cycle through a small set of thread counts, seeded for
/// reproducibility, until the core count is exactly filled.
///
/// # Panics
///
/// Panics if `total_cores == 0`.
///
/// # Example
///
/// ```
/// use hp_workload::{closed_batch, Benchmark};
///
/// let jobs = closed_batch(Benchmark::Swaptions, 64, 7);
/// let threads: usize = jobs.iter().map(|j| j.spec.thread_count()).sum();
/// assert_eq!(threads, 64);
/// ```
pub fn closed_batch(benchmark: Benchmark, total_cores: usize, seed: u64) -> Vec<Job> {
    assert!(total_cores > 0, "workload needs at least one core");
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = [2usize, 4, 8, 4, 2, 8];
    let mut jobs = Vec::new();
    let mut used = 0;
    let mut next = 0usize;
    while used < total_cores {
        let remaining = total_cores - used;
        let mut threads = sizes[next % sizes.len()];
        next += 1;
        // Jitter the size a little so instances are "vari-sized".
        if threads > 2 && rng.gen_bool(0.3) {
            threads -= 1;
        }
        if threads > remaining {
            threads = remaining;
        }
        jobs.push(Job {
            id: JobId(jobs.len()),
            benchmark,
            spec: benchmark.spec(threads),
            arrival: 0.0,
        });
        used += threads;
    }
    jobs
}

/// Builds the paper's **heterogeneous open workload**: `count` jobs of
/// random benchmarks and sizes arriving as a Poisson process with
/// `rate_per_s` arrivals per second (Fig. 4(b) setup: "a random
/// 20-benchmark multi-program multi-threaded workload ... tasks arrive at
/// different arrival rates following a Poisson distribution").
///
/// # Panics
///
/// Panics if `rate_per_s` is not positive or `count == 0`.
///
/// # Example
///
/// ```
/// use hp_workload::open_poisson;
///
/// let jobs = open_poisson(20, 50.0, 42);
/// assert_eq!(jobs.len(), 20);
/// // Arrivals are sorted and strictly increasing from zero.
/// assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
pub fn open_poisson(count: usize, rate_per_s: f64, seed: u64) -> Vec<Job> {
    assert!(count > 0, "workload needs at least one job");
    assert!(
        rate_per_s.is_finite() && rate_per_s > 0.0,
        "arrival rate must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let benchmarks = Benchmark::all();
    let sizes = [1usize, 2, 2, 4, 4, 8];
    let mut t = 0.0;
    (0..count)
        .map(|i| {
            // Exponential inter-arrival via inverse transform.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_per_s;
            let benchmark = benchmarks[rng.gen_range(0..benchmarks.len())];
            let threads = sizes[rng.gen_range(0..sizes.len())];
            Job {
                id: JobId(i),
                benchmark,
                spec: benchmark.spec(threads),
                arrival: t,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_batch_fills_exactly() {
        for cores in [1, 7, 16, 64] {
            let jobs = closed_batch(Benchmark::Canneal, cores, 3);
            let total: usize = jobs.iter().map(|j| j.spec.thread_count()).sum();
            assert_eq!(total, cores);
            assert!(jobs.iter().all(|j| j.arrival == 0.0));
        }
    }

    #[test]
    fn closed_batch_is_deterministic() {
        let a = closed_batch(Benchmark::X264, 64, 9);
        let b = closed_batch(Benchmark::X264, 64, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn closed_batch_ids_sequential() {
        let jobs = closed_batch(Benchmark::Dedup, 32, 1);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i));
        }
    }

    #[test]
    fn poisson_arrivals_increase() {
        let jobs = open_poisson(50, 100.0, 11);
        assert_eq!(jobs.len(), 50);
        for w in jobs.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
        assert!(jobs[0].arrival > 0.0);
    }

    #[test]
    fn poisson_rate_controls_density() {
        let slow = open_poisson(100, 10.0, 5);
        let fast = open_poisson(100, 1000.0, 5);
        assert!(slow.last().unwrap().arrival > fast.last().unwrap().arrival * 10.0);
    }

    #[test]
    fn poisson_mean_interarrival_plausible() {
        let rate = 200.0;
        let jobs = open_poisson(2000, rate, 17);
        let mean = jobs.last().unwrap().arrival / jobs.len() as f64;
        let expected = 1.0 / rate;
        assert!((mean / expected - 1.0).abs() < 0.15, "mean {mean:.5}");
    }

    #[test]
    fn poisson_mixes_benchmarks() {
        let jobs = open_poisson(200, 100.0, 23);
        let mut names: Vec<&str> = jobs.iter().map(|j| j.benchmark.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() >= 6, "only {} distinct benchmarks", names.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        open_poisson(5, 0.0, 1);
    }
}

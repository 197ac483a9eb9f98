//! Host time at a reference speed.
//!
//! On a shared host, other tenants slow this process down in blocks of a
//! tenth of a second to minutes. On the 2-vCPU Xeon VM this benchmark was
//! built on, the same δ = 4 `peak_celsius` call reads about 51 µs in some
//! blocks and about 72 µs in others, and whole 30 s runs can sit in either.
//! A latency-bound scalar loop keeps its speed in both; code that needs
//! floating-point throughput and cache — Algorithm 1, the transient step, a
//! dense product — slows by about the same factor. So the benchmark times a
//! fixed kernel of its own ([`reference_kernel`]: a 7×192·192×192 dense
//! product, the shape of a full probe) in short bursts between the
//! program's operations, at least every [`PERIOD`], and runs a clock that
//! advances by wall time × [`REFERENCE_US`] / (the latest burst's time).
//! Host-time metrics are read from that clock ([`Stopwatch`]): seconds at
//! the speed at which the kernel takes [`REFERENCE_US`], its time when
//! undisturbed on that VM. The bursts themselves are not counted. Across
//! the host's fast and slow blocks the ratio of the Algorithm-1 call to
//! the kernel stayed within ±3%, while the call itself moved by 40%.
//!
//! Work that keeps both vCPUs busy (the campaign runner's two workers) is
//! read at two-thread bursts instead ([`pair_factor`]).
//!
//! The kernel is the benchmark's code, not the program's: a change to the
//! program moves the metrics and leaves the kernel alone.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// The kernel's time on the reference host when undisturbed, µs.
pub const REFERENCE_US: f64 = 60.0;
/// Longest wall time between bursts, where the benchmark can take one.
pub const PERIOD: Duration = Duration::from_millis(5);
/// Kernel calls per burst; a burst reads their median.
const BURST: usize = 3;
/// Kernel shape: `ROWS × N` times `N × N`.
const ROWS: usize = 7;
const N: usize = 192;

struct Host {
    /// Wall time of the end of the latest burst.
    last: Instant,
    /// The reference clock at `last`, seconds.
    clock_at_last: f64,
    /// Reference seconds per wall second since `last`.
    factor: f64,
    /// Every burst's kernel time, µs.
    bursts_us: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

thread_local! {
    static HOST: RefCell<Option<Host>> = const { RefCell::new(None) };
}

/// `c += a · b` for a `ROWS × N` `a` and an `N × N` `b`, row by row.
#[inline(never)]
fn reference_kernel(a: &[f64], b: &[f64], c: &mut [f64]) {
    for i in 0..ROWS {
        let out = &mut c[i * N..(i + 1) * N];
        for k in 0..N {
            let x = a[i * N + k];
            for (o, y) in out.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                *o += x * y;
            }
        }
    }
}

/// The median time of [`BURST`] kernel calls, µs.
fn burst_us(a: &[f64], b: &[f64], c: &mut [f64]) -> f64 {
    let mut times = [0.0; BURST];
    for t in &mut times {
        c.fill(0.0);
        let start = Instant::now();
        reference_kernel(a, b, c);
        black_box(&mut *c);
        *t = start.elapsed().as_secs_f64() * 1e6;
    }
    times.sort_by(f64::total_cmp);
    times[BURST / 2]
}

/// Kernel operands: `a`, `b` and a zeroed `c`.
fn operands() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        (0..ROWS * N).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect(),
        (0..N * N).map(|i| 1.0 - (i % 11) as f64 * 1e-3).collect(),
        vec![0.0; ROWS * N],
    )
}

impl Host {
    fn new() -> Self {
        let (a, b, c) = operands();
        let mut host = Host {
            last: Instant::now(),
            clock_at_last: 0.0,
            factor: 1.0,
            bursts_us: Vec::new(),
            a,
            b,
            c,
        };
        host.burst();
        host
    }

    fn clock(&self, now: Instant) -> f64 {
        self.clock_at_last + now.duration_since(self.last).as_secs_f64() * self.factor
    }

    fn burst(&mut self) {
        self.clock_at_last = self.clock(Instant::now());
        let us = burst_us(&self.a, &self.b, &mut self.c);
        self.bursts_us.push(us);
        self.factor = REFERENCE_US / us;
        self.last = Instant::now();
    }
}

fn with<T>(f: impl FnOnce(&mut Host) -> T) -> T {
    HOST.with(|h| f(h.borrow_mut().get_or_insert_with(Host::new)))
}

/// Takes a burst if [`PERIOD`] has passed since the last one. Call it
/// between operations, never inside a timed one.
pub fn tick(tracer: &Tracer) {
    if with(|h| h.last.elapsed() >= PERIOD) {
        burst(tracer);
    }
}

/// Takes a burst now, inside a `bench.hostref` span, so that the traced
/// run does not count it in the self time of the span it falls in.
pub fn burst(tracer: &Tracer) {
    tracer.span("bench.hostref", || with(Host::burst));
}

/// The kernel's median time over every burst so far, µs, and the number
/// of bursts.
pub fn kernel_us() -> (f64, usize) {
    with(|h| (crate::stats::median(&h.bursts_us), h.bursts_us.len()))
}

/// Reference seconds per wall second of a process that keeps both vCPUs
/// busy, as the campaign runner's two workers do: a burst on this thread
/// and one on a helper thread at the same time, read at the mean of their
/// medians. Does not move the clock.
pub fn pair_factor(tracer: &Tracer) -> f64 {
    tracer.span("bench.hostref", || {
        let helper = || {
            let (a, b, mut c) = operands();
            burst_us(&a, &b, &mut c)
        };
        let (mine, theirs) = std::thread::scope(|scope| {
            let other = scope.spawn(helper);
            let mine = with(|h| burst_us(&h.a, &h.b, &mut h.c));
            (mine, other.join().unwrap_or(mine))
        });
        REFERENCE_US / ((mine + theirs) / 2.0)
    })
}

/// Measures reference seconds from its start.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            start: with(|h| h.clock(Instant::now())),
        }
    }

    /// Reference seconds since the start, bursts excluded.
    pub fn seconds(&self) -> f64 {
        with(|h| h.clock(Instant::now())) - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_are_not_counted() {
        let sw = Stopwatch::start();
        let tracer = Tracer::new(false);
        burst(&tracer);
        burst(&tracer);
        // Two bursts of three ~60 µs products; the clock skips them.
        assert!(sw.seconds() < 150e-6, "{}", sw.seconds());
        assert!(kernel_us().1 >= 3);
    }

    #[test]
    fn kernel_computes_the_product() {
        let a = vec![1.0; ROWS * N];
        let b = vec![2.0; N * N];
        let mut c = vec![0.0; ROWS * N];
        reference_kernel(&a, &b, &mut c);
        assert!(c.iter().all(|&x| x == 2.0 * N as f64));
    }
}

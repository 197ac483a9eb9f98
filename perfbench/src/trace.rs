//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API: name (`<layer>.<call>`), start, end, the enclosing span and
//! one integer argument (a ring capacity, a batch size). Spans stay in
//! memory until the run ends; [`Tracer::chrome_json`] exports them in the
//! Chrome trace-event format (`chrome://tracing`, Perfetto).
//!
//! A disabled tracer records nothing, so the untraced runs that produce
//! the end-to-end metrics pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub arg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_arg(name, 0, f)
    }

    /// Runs `f` inside a span named `name` carrying `arg`.
    pub fn span_arg<T>(&self, name: &'static str, arg: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                arg,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds since the tracer was created (the trace's time base).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in seconds of every span named `name` (and, when given,
    /// carrying `arg`).
    pub fn durations(&self, name: &str, arg: Option<u64>) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && arg.is_none_or(|a| s.arg == a))
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time in seconds by span name, over the spans inside
    /// `[from_ns, to_ns]`: each span's duration minus the part its direct
    /// children cover. A span's layer is its name up to the first `.`.
    pub fn self_seconds_by_name(&self, from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.start_ns < from_ns || s.end_ns > to_ns {
                continue;
            }
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events, µs).
    pub fn chrome_json(&self, process_name: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(64 + spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"arg\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                s.parent.map_or(-1, |p| p as i64),
                s.arg
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("sim.run", || {
            t.span("core.hook", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let by_name = t.self_seconds_by_name(0, u64::MAX);
        assert!(by_name["core.hook"] >= 0.002);
        assert!(by_name["sim.run"] < by_name["core.hook"]);
        assert!(t.chrome_json("x").contains("\"name\":\"core.hook\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("sim.run", || 7), 7);
        assert!(t.spans().is_empty());
    }
}

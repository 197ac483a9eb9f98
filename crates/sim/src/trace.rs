use std::io::{self, Write};

/// What kind of degradation transition a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The DTM watchdog latch engaged (temperature reached `t_dtm`).
    WatchdogEngaged,
    /// The DTM watchdog latch released (fell below `t_dtm − ΔT`).
    WatchdogReleased,
    /// The scheduler reported leaving its nominal policy.
    FallbackEngaged,
    /// The scheduler reported returning to its nominal policy.
    FallbackRecovered,
    /// Per-core sensor confidence dropped below the degraded threshold.
    SensorsDegraded,
    /// Sensor confidence recovered above the degraded threshold.
    SensorsRecovered,
    /// The engine dropped scheduler actions invalidated by injected
    /// faults (lenient mode).
    ActionsDropped,
    /// The thermal solver degraded to its dense numerical fallback (a
    /// construction-time arming or a runtime invariant-guard trip).
    NumericalDegradation,
}

impl TraceEventKind {
    /// Stable snake-case label used as the `kind` of exported report
    /// events ([`hp_obs::ReportEvent`]).
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::WatchdogEngaged => "watchdog_engaged",
            TraceEventKind::WatchdogReleased => "watchdog_released",
            TraceEventKind::FallbackEngaged => "fallback_engaged",
            TraceEventKind::FallbackRecovered => "fallback_recovered",
            TraceEventKind::SensorsDegraded => "sensors_degraded",
            TraceEventKind::SensorsRecovered => "sensors_recovered",
            TraceEventKind::ActionsDropped => "actions_dropped",
            TraceEventKind::NumericalDegradation => "numerical_degradation",
        }
    }

    /// Inverse of [`label`](TraceEventKind::label) — used when decoding
    /// checkpointed traces. `None` for an unknown label.
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "watchdog_engaged" => TraceEventKind::WatchdogEngaged,
            "watchdog_released" => TraceEventKind::WatchdogReleased,
            "fallback_engaged" => TraceEventKind::FallbackEngaged,
            "fallback_recovered" => TraceEventKind::FallbackRecovered,
            "sensors_degraded" => TraceEventKind::SensorsDegraded,
            "sensors_recovered" => TraceEventKind::SensorsRecovered,
            "actions_dropped" => TraceEventKind::ActionsDropped,
            "numerical_degradation" => TraceEventKind::NumericalDegradation,
            _ => return None,
        })
    }
}

/// One timestamped degradation transition, recorded unconditionally
/// (independent of [`record_trace`](crate::SimConfig::record_trace) —
/// events are sparse; temperature samples are not).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the transition, s.
    pub time_seconds: f64,
    /// The transition.
    pub kind: TraceEventKind,
    /// Human-readable context (peak temperature, counts, …).
    pub detail: String,
}

/// A recorded per-interval temperature trace (the raw material of the
/// paper's Fig. 2 thermal plots) plus the run's degradation event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TemperatureTrace {
    times: Vec<f64>,
    /// `temps[k][c]` = junction temperature of core `c` at `times[k]`, °C.
    temps: Vec<Vec<f64>>,
    events: Vec<TraceEvent>,
}

impl TemperatureTrace {
    /// An empty trace.
    pub fn new() -> Self {
        TemperatureTrace::default()
    }

    pub(crate) fn push(&mut self, time: f64, core_temps: Vec<f64>) {
        self.times.push(time);
        self.temps.push(core_temps);
    }

    pub(crate) fn push_event(&mut self, time: f64, kind: TraceEventKind, detail: String) {
        self.events.push(TraceEvent {
            time_seconds: time,
            kind,
            detail,
        });
    }

    /// Rebuilds a trace from checkpointed parts (the engine resume path).
    pub(crate) fn from_parts(
        times: Vec<f64>,
        temps: Vec<Vec<f64>>,
        events: Vec<TraceEvent>,
    ) -> Self {
        TemperatureTrace {
            times,
            temps,
            events,
        }
    }

    /// Degradation transitions recorded during the run, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample timestamps, s.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Junction temperatures at sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn sample(&self, k: usize) -> &[f64] {
        &self.temps[k]
    }

    /// The trace of a single core over time.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the recorded samples.
    pub fn core_series(&self, core: usize) -> Vec<f64> {
        self.temps.iter().map(|t| t[core]).collect()
    }

    /// The hottest junction at each sample.
    pub fn peak_series(&self) -> Vec<f64> {
        self.temps
            .iter()
            .map(|t| t.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)))
            .collect()
    }

    /// The hottest junction over the whole trace (`None` if empty).
    pub fn peak(&self) -> Option<f64> {
        self.peak_series()
            .into_iter()
            .fold(None, |m, x| Some(m.map_or(x, |v: f64| v.max(x))))
    }

    /// Writes the trace as CSV (`time_s,core0,core1,…`) to `writer`.
    ///
    /// A `&mut` reference can be passed for writers you want to keep
    /// using afterwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let cores = self.temps.first().map_or(0, |t| t.len());
        write!(writer, "time_s")?;
        for c in 0..cores {
            write!(writer, ",core{c}")?;
        }
        writeln!(writer)?;
        for (t, temps) in self.times.iter().zip(&self.temps) {
            write!(writer, "{t}")?;
            for v in temps {
                write!(writer, ",{v}")?;
            }
            writeln!(writer)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_and_queries() {
        let mut t = TemperatureTrace::new();
        assert!(t.is_empty());
        t.push(0.0, vec![45.0, 46.0]);
        t.push(0.1, vec![50.0, 44.0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.core_series(0), vec![45.0, 50.0]);
        assert_eq!(t.peak_series(), vec![46.0, 50.0]);
        assert_eq!(t.peak(), Some(50.0));
        assert_eq!(t.times(), &[0.0, 0.1]);
        assert_eq!(t.sample(1), &[50.0, 44.0]);
    }

    #[test]
    fn empty_peak_is_none() {
        assert_eq!(TemperatureTrace::new().peak(), None);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = TemperatureTrace::new();
        t.push(0.0, vec![45.0, 46.0]);
        t.push(0.1, vec![50.0, 44.0]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time_s,core0,core1");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,45"));
    }

    #[test]
    fn empty_trace_writes_header_only() {
        let mut buf = Vec::new();
        TemperatureTrace::new().write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "time_s\n");
    }

    #[test]
    fn events_are_recorded_in_order() {
        let mut t = TemperatureTrace::new();
        assert!(t.events().is_empty());
        t.push_event(0.1, TraceEventKind::WatchdogEngaged, "peak 70.2 C".into());
        t.push_event(0.3, TraceEventKind::WatchdogReleased, "peak 68.9 C".into());
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].kind, TraceEventKind::WatchdogEngaged);
        assert_eq!(t.events()[1].time_seconds, 0.3);
    }
}

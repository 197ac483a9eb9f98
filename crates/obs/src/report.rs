//! The structured run report: an immutable, serialisable snapshot of
//! everything a run recorded, and its `hp-report-v1` JSON form.
//!
//! The document schema (`hp-report-v1`):
//!
//! ```json
//! {
//!   "schema": "hp-report-v1",
//!   "meta": {"gemm_backend": "avx2", ...},
//!   "counters": {"engine.intervals": 600, ...},
//!   "gauges": {"metrics.peak_celsius": 68.4, ...},
//!   "histograms": {
//!     "hook.schedule": {"count": 600, "mean_us": 21.3,
//!                       "p50_us": 19.8, "p95_us": 40.2, "max_us": 113.0}
//!   },
//!   "events": [{"time_seconds": 1.0, "kind": "dtm", "detail": "..."}]
//! }
//! ```
//!
//! Counters and gauges are seed-deterministic; histogram blocks hold
//! wall-clock timings and are expected to differ between runs
//! (DESIGN.md §10). Entries are stored as name-sorted vectors rather
//! than maps, so ordering stays deterministic.

use crate::json::{self, Json, Layout, Obj};
use crate::{ObsError, Result};

/// Magic schema tag written to and required from every report document.
pub const SCHEMA: &str = "hp-report-v1";

/// A named monotonic counter value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterEntry {
    /// Dotted counter name, e.g. `engine.intervals`.
    pub name: String,
    /// Final value at snapshot time.
    pub value: u64,
}

/// A named point-in-time gauge value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GaugeEntry {
    /// Dotted gauge name, e.g. `metrics.peak_celsius`.
    pub name: String,
    /// Last recorded value (may be NaN if the source was undefined).
    pub value: f64,
}

/// Percentile summary of one duration histogram, in microseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median estimate, µs (log-bucket resolution, ≤ 19 % relative).
    pub p50_us: f64,
    /// 95th-percentile estimate, µs.
    pub p95_us: f64,
    /// Exact maximum, µs.
    pub max_us: f64,
}

/// A named duration histogram summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramEntry {
    /// Dotted histogram name, e.g. `hook.schedule`.
    pub name: String,
    /// The percentile summary.
    pub summary: HistogramSummary,
}

/// A named free-form metadata string.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetaEntry {
    /// Metadata key, e.g. `gemm_backend`.
    pub name: String,
    /// Metadata value.
    pub value: String,
}

/// One timestamped run event (degradations, DTM trips, aborts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportEvent {
    /// Simulated time of the event, seconds.
    pub time_seconds: f64,
    /// Event class, e.g. `dtm`, `degraded`, `aborted`.
    pub kind: String,
    /// Human-readable detail line.
    pub detail: String,
}

/// The complete observability snapshot of one simulation run.
///
/// Produced by [`Registry::snapshot`](crate::Registry::snapshot),
/// merged across layers via [`merge_prefixed`](RunReport::merge_prefixed),
/// embedded in `hp_sim::Metrics`, and written by `hp simulate --report`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Seed-deterministic counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Seed-deterministic gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// Wall-clock duration histograms, sorted by name. *Not*
    /// deterministic across runs.
    pub histograms: Vec<HistogramEntry>,
    /// Free-form metadata, sorted by name.
    pub meta: Vec<MetaEntry>,
    /// Timestamped run events, in chronological order.
    pub events: Vec<ReportEvent>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.meta.is_empty()
            && self.events.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.summary)
    }

    /// Looks up a metadata value by name.
    pub fn meta_value(&self, name: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.as_str())
    }

    /// Inserts or replaces a counter, keeping name order.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|c| c.name.as_str().cmp(name))
        {
            Ok(i) => {
                if let Some(c) = self.counters.get_mut(i) {
                    c.value = value;
                }
            }
            Err(i) => self.counters.insert(
                i,
                CounterEntry {
                    name: name.to_string(),
                    value,
                },
            ),
        }
    }

    /// Inserts or replaces a gauge, keeping name order.
    pub fn push_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.binary_search_by(|g| g.name.as_str().cmp(name)) {
            Ok(i) => {
                if let Some(g) = self.gauges.get_mut(i) {
                    g.value = value;
                }
            }
            Err(i) => self.gauges.insert(
                i,
                GaugeEntry {
                    name: name.to_string(),
                    value,
                },
            ),
        }
    }

    /// Inserts or replaces a histogram summary, keeping name order.
    pub fn push_histogram(&mut self, name: &str, summary: HistogramSummary) {
        match self
            .histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
        {
            Ok(i) => {
                if let Some(h) = self.histograms.get_mut(i) {
                    h.summary = summary;
                }
            }
            Err(i) => self.histograms.insert(
                i,
                HistogramEntry {
                    name: name.to_string(),
                    summary,
                },
            ),
        }
    }

    /// Inserts or replaces a metadata entry, keeping name order.
    pub fn push_meta(&mut self, name: &str, value: &str) {
        match self.meta.binary_search_by(|m| m.name.as_str().cmp(name)) {
            Ok(i) => {
                if let Some(m) = self.meta.get_mut(i) {
                    m.value = value.to_string();
                }
            }
            Err(i) => self.meta.insert(
                i,
                MetaEntry {
                    name: name.to_string(),
                    value: value.to_string(),
                },
            ),
        }
    }

    /// Appends a run event.
    pub fn push_event(&mut self, time_seconds: f64, kind: &str, detail: &str) {
        self.events.push(ReportEvent {
            time_seconds,
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Folds `other` into `self`, namespacing every entry name under
    /// `prefix.` (events are appended unprefixed — their `kind` already
    /// identifies the source).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &RunReport) {
        for c in &other.counters {
            self.push_counter(&format!("{prefix}.{}", c.name), c.value);
        }
        for g in &other.gauges {
            self.push_gauge(&format!("{prefix}.{}", g.name), g.value);
        }
        for h in &other.histograms {
            self.push_histogram(&format!("{prefix}.{}", h.name), h.summary.clone());
        }
        for m in &other.meta {
            self.push_meta(&format!("{prefix}.{}", m.name), &m.value);
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// A copy with all wall-clock histograms removed: the
    /// seed-deterministic subset of the report, suitable for
    /// bit-identical comparison across same-config runs.
    pub fn without_timings(&self) -> RunReport {
        let mut copy = self.clone();
        copy.histograms.clear();
        copy
    }

    /// Serialises to the `hp-report-v1` JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write_json(&mut out, false);
        out.push('\n');
        out
    }

    /// Writes the document into `out`: pretty-printed as by
    /// [`to_json_string`](RunReport::to_json_string) (without its final
    /// newline) or, with `compact`, on one line as embedded in a
    /// campaign job.
    pub fn write_json(&self, out: &mut String, compact: bool) {
        let (top, section, record) = if compact {
            (Layout::Compact, Layout::Compact, Layout::Compact)
        } else {
            (Layout::Pretty(0), Layout::Pretty(1), Layout::Line)
        };
        let mut doc = Obj::open(out, top);
        doc.str("schema", SCHEMA);
        let mut meta = Obj::open(doc.key("meta"), section);
        for m in &self.meta {
            meta.str(&m.name, &m.value);
        }
        meta.close();
        let mut counters = Obj::open(doc.key("counters"), section);
        for c in &self.counters {
            counters.lit(&c.name, c.value);
        }
        counters.close();
        let mut gauges = Obj::open(doc.key("gauges"), section);
        for g in &self.gauges {
            gauges.f64(&g.name, g.value);
        }
        gauges.close();
        let mut histograms = Obj::open(doc.key("histograms"), section);
        for h in &self.histograms {
            let s = &h.summary;
            let mut o = Obj::open(histograms.key(&h.name), record);
            o.lit("count", s.count)
                .f64("mean_us", s.mean_us)
                .f64("p50_us", s.p50_us)
                .f64("p95_us", s.p95_us)
                .f64("max_us", s.max_us);
            o.close();
        }
        histograms.close();
        json::push_list(doc.key("events"), section, &self.events, |out, e| {
            let mut o = Obj::open(out, record);
            o.f64("time_seconds", e.time_seconds)
                .str("kind", &e.kind)
                .str("detail", &e.detail);
            o.close();
        });
        doc.close();
    }

    /// Deserialises an `hp-report-v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ObsError`] on malformed JSON, a missing or unknown
    /// `schema` tag, or entries of the wrong shape.
    pub fn from_json_str(src: &str) -> Result<RunReport> {
        Self::from_json(&json::parse(src)?)
    }

    /// Decodes an already-parsed `hp-report-v1` document, e.g. one
    /// embedded in a campaign report.
    ///
    /// # Errors
    ///
    /// As [`from_json_str`](RunReport::from_json_str), minus syntax.
    pub fn from_json(doc: &Json) -> Result<RunReport> {
        let doc = doc.cursor("report");
        let schema = doc.field("schema")?.str()?;
        if schema != SCHEMA {
            return Err(ObsError::Parse {
                message: format!("unknown schema `{schema}` (expected `{SCHEMA}`)"),
            });
        }
        let mut report = RunReport::new();
        if let Some(meta) = doc.opt("meta") {
            meta.entries(|name, v| {
                report.push_meta(name, v.str()?);
                Ok(())
            })?;
        }
        if let Some(counters) = doc.opt("counters") {
            counters.entries(|name, v| {
                report.push_counter(name, v.u64()?);
                Ok(())
            })?;
        }
        if let Some(gauges) = doc.opt("gauges") {
            gauges.entries(|name, v| {
                report.push_gauge(name, v.f64()?);
                Ok(())
            })?;
        }
        if let Some(histograms) = doc.opt("histograms") {
            histograms.entries(|name, v| {
                let summary = HistogramSummary {
                    count: v.field("count")?.u64()?,
                    mean_us: v.field("mean_us")?.f64()?,
                    p50_us: v.field("p50_us")?.f64()?,
                    p95_us: v.field("p95_us")?.f64()?,
                    max_us: v.field("max_us")?.f64()?,
                };
                report.push_histogram(name, summary);
                Ok(())
            })?;
        }
        if let Some(events) = doc.opt("events") {
            report.events = events.list(|e| {
                Ok(ReportEvent {
                    time_seconds: e.field("time_seconds")?.f64()?,
                    kind: e.field("kind")?.str()?.to_string(),
                    detail: e.field("detail")?.str()?.to_string(),
                })
            })?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new();
        r.push_counter("engine.intervals", 600);
        r.push_counter("thermal.decay_cache_hits", 599);
        r.push_gauge("metrics.peak_celsius", 68.4375);
        r.push_histogram(
            "hook.schedule",
            HistogramSummary {
                count: 600,
                mean_us: 21.5,
                p50_us: 19.03,
                p95_us: 45.25,
                max_us: 113.0,
            },
        );
        r.push_meta("gemm_backend", "avx2");
        r.push_event(1.0, "dtm", "core 3 above threshold");
        r
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let original = sample();
        let text = original.to_json_string();
        let parsed = RunReport::from_json_str(&text).expect("well-formed document");
        assert_eq!(parsed, original);
    }

    #[test]
    fn empty_report_roundtrips() {
        let text = RunReport::new().to_json_string();
        let parsed = RunReport::from_json_str(&text).expect("well-formed document");
        assert!(parsed.is_empty());
    }

    #[test]
    fn accessors_find_entries() {
        let r = sample();
        assert_eq!(r.counter("engine.intervals"), Some(600));
        assert_eq!(r.gauge("metrics.peak_celsius"), Some(68.4375));
        assert_eq!(r.histogram("hook.schedule").map(|h| h.count), Some(600));
        assert_eq!(r.meta_value("gemm_backend"), Some("avx2"));
        assert_eq!(r.counter("nope"), None);
    }

    #[test]
    fn push_replaces_existing_names() {
        let mut r = RunReport::new();
        r.push_counter("c", 1);
        r.push_counter("c", 2);
        assert_eq!(r.counters.len(), 1);
        assert_eq!(r.counter("c"), Some(2));
    }

    #[test]
    fn merge_prefixed_namespaces_entries() {
        let mut outer = RunReport::new();
        outer.push_counter("engine.intervals", 10);
        let mut inner = RunReport::new();
        inner.push_counter("alg1.evaluations", 42);
        inner.push_meta("gemm_backend", "scalar");
        inner.push_event(2.0, "probe", "ring rotation");
        outer.merge_prefixed("sched", &inner);
        assert_eq!(outer.counter("sched.alg1.evaluations"), Some(42));
        assert_eq!(outer.meta_value("sched.gemm_backend"), Some("scalar"));
        assert_eq!(outer.counter("engine.intervals"), Some(10));
        assert_eq!(outer.events.len(), 1);
    }

    #[test]
    fn without_timings_strips_histograms_only() {
        let r = sample();
        let stripped = r.without_timings();
        assert!(stripped.histograms.is_empty());
        assert_eq!(stripped.counters, r.counters);
        assert_eq!(stripped.gauges, r.gauges);
        assert_eq!(stripped.events, r.events);
    }

    #[test]
    fn nan_gauges_survive_as_null() {
        let mut r = RunReport::new();
        r.push_gauge("metrics.mean_response_seconds", f64::NAN);
        let text = r.to_json_string();
        assert!(text.contains("null"));
        let parsed = RunReport::from_json_str(&text).expect("well-formed document");
        assert!(parsed
            .gauge("metrics.mean_response_seconds")
            .is_some_and(f64::is_nan));
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = RunReport::new()
            .to_json_string()
            .replace(SCHEMA, "hp-report-v9");
        assert!(RunReport::from_json_str(&text).is_err());
        assert!(RunReport::from_json_str("{}").is_err());
        assert!(RunReport::from_json_str("not json").is_err());
    }

    #[test]
    fn rejects_malformed_entries() {
        let text = r#"{"schema": "hp-report-v1", "counters": {"c": -1}}"#;
        assert!(RunReport::from_json_str(text).is_err());
        let text = r#"{"schema": "hp-report-v1", "histograms": {"h": {"count": 1}}}"#;
        assert!(RunReport::from_json_str(text).is_err());
    }

    #[test]
    fn serialized_counters_are_bit_identical_across_builds() {
        let a = sample().to_json_string();
        let b = sample().to_json_string();
        assert_eq!(a, b);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// encode → decode → encode is byte-identical in both layouts,
        /// for arbitrary names and arbitrary floats (non-finite values
        /// travel as `null` and come back as NaN).
        #[test]
        fn encode_decode_encode_is_byte_identical(
            f in proptest::collection::vec(proptest::num::f64::ANY, 6),
            n in proptest::collection::vec(0u64..u64::MAX, 2),
            codes in proptest::collection::vec(0u32..0x1_0000, 0..10),
        ) {
            let name: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
            let mut r = RunReport::new();
            r.push_counter(&name, n[0]);
            r.push_counter("z", n[1]);
            r.push_gauge(&name, f[0]);
            r.push_histogram(
                &name,
                HistogramSummary {
                    count: n[1],
                    mean_us: f[1],
                    p50_us: f[2],
                    p95_us: f[3],
                    max_us: f[4],
                },
            );
            r.push_meta(&name, &name);
            r.push_event(f[5], &name, &name);
            let text = r.to_json_string();
            let again = RunReport::from_json_str(&text).map(|b| b.to_json_string());
            proptest::prop_assert_eq!(again, Ok(text));
            let mut compact = String::new();
            r.write_json(&mut compact, true);
            let mut again = String::new();
            let back = json::parse(&compact).and_then(|doc| RunReport::from_json(&doc));
            if let Ok(b) = &back {
                b.write_json(&mut again, true);
            }
            proptest::prop_assert!(back.is_ok(), "{back:?}");
            proptest::prop_assert_eq!(again, compact);
        }
    }
}

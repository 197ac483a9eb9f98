//! The deterministic campaign result document (`hp-campaign-v1`).
//!
//! A [`CampaignReport`] collects one [`JobOutcome`] per expanded job —
//! in job-index order, independent of worker count or completion order —
//! plus a campaign-level hp-obs [`RunReport`] carrying the
//! `campaign.*` counters (cache traffic, job tallies).
//!
//! # Determinism contract
//!
//! Everything in the document except wall-clock histograms inside the
//! embedded run reports is a function of the expanded job list and the
//! seeds (DESIGN.md §11): comparing
//! `report.without_timings().to_json_string()` across runs with
//! different `--jobs` values must be a bit-identical comparison.

use std::fmt::Write as _;

use hp_obs::json::{self, push_float, Cursor, Layout, Obj};
use hp_obs::{ObsError, RunReport};

use crate::error::{CampaignError, Result};

/// Document schema tag.
pub const SCHEMA: &str = "hp-campaign-v1";

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The workload ran to completion.
    Completed,
    /// The workload ran to completion, but the thermal solver spent at
    /// least part of the run on its verified dense numerical fallback
    /// (`numerics.fallback.activations ≥ 1` in the job report). The
    /// metrics are valid — the dense path is authoritative — but the
    /// eigen fast path was not trusted, which is worth investigating.
    /// Deterministic, so never retried.
    DegradedNumerics,
    /// The engine aborted mid-run ([`hp_sim::SimError::Aborted`]); the
    /// outcome carries the partial metrics and report.
    Aborted,
    /// The job could not be set up (bad scheduler/spec/model); no
    /// simulation output exists.
    Failed,
    /// The job's worker caught a panic; no simulation output exists.
    Panicked,
    /// A supervision watchdog (interval budget or wall-clock deadline)
    /// aborted the job mid-run; partial metrics are retained.
    TimedOut,
}

impl JobStatus {
    /// The status as its JSON label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::DegradedNumerics => "degraded-numerics",
            JobStatus::Aborted => "aborted",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed-out",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(JobStatus::Completed),
            "degraded-numerics" => Some(JobStatus::DegradedNumerics),
            "aborted" => Some(JobStatus::Aborted),
            "failed" => Some(JobStatus::Failed),
            "panicked" => Some(JobStatus::Panicked),
            "timed-out" => Some(JobStatus::TimedOut),
            _ => None,
        }
    }

    /// Whether the supervision layer's retry policy applies: setup
    /// failures, panics, and watchdog timeouts are worth another
    /// attempt; completed and (deterministically) aborted jobs are not.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            JobStatus::Failed | JobStatus::Panicked | JobStatus::TimedOut
        )
    }
}

/// The result of one campaign job: scenario coordinates, headline
/// metrics and the job's full observability report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's stable label (unique within the campaign).
    pub label: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Chip grid `(width, height)`.
    pub grid: (usize, usize),
    /// Canonical workload description.
    pub workload: String,
    /// Spec digest used by the resume manifest.
    pub digest: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// Failure/abort cause (empty for completed jobs).
    pub cause: String,
    /// Makespan, seconds (0 when nothing completed).
    pub makespan_seconds: f64,
    /// Peak junction temperature over the run, °C.
    pub peak_celsius: f64,
    /// Simulated time reached, seconds.
    pub simulated_seconds: f64,
    /// Total energy, joules.
    pub energy_joules: f64,
    /// Busy-time-weighted average core frequency, GHz.
    pub avg_frequency_ghz: f64,
    /// Intervals with the DTM watchdog engaged.
    pub dtm_intervals: u64,
    /// Thread migrations performed.
    pub migrations: u64,
    /// Jobs of the workload that completed.
    pub jobs_completed: usize,
    /// Jobs of the workload in total.
    pub jobs_total: usize,
    /// Whether this outcome was loaded from a resume manifest instead of
    /// being re-run.
    pub resumed: bool,
    /// Execution attempts this outcome took (1 = no retries).
    pub attempts: u32,
    /// Whether the job exhausted its retry budget and was quarantined:
    /// the sweep finished without it and it should not be retried again
    /// without investigation.
    pub quarantined: bool,
    /// Hottest-junction trace series (empty unless the job asked for it).
    pub peak_series: Vec<f64>,
    /// The job's hp-obs run report (timings are wall-clock and excluded
    /// from the determinism contract).
    pub report: RunReport,
}

/// The full result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-job outcomes in expansion (job-index) order.
    pub jobs: Vec<JobOutcome>,
    /// Campaign-level counters (`campaign.cache.*`, `campaign.jobs.*`).
    pub campaign: RunReport,
}

impl CampaignReport {
    /// A copy with every wall-clock histogram stripped (per-job and
    /// campaign-level): the seed-deterministic subset, suitable for
    /// bit-identical comparison across worker counts.
    pub fn without_timings(&self) -> CampaignReport {
        CampaignReport {
            jobs: self
                .jobs
                .iter()
                .map(|j| JobOutcome {
                    report: j.report.without_timings(),
                    ..j.clone()
                })
                .collect(),
            campaign: self.campaign.without_timings(),
        }
    }

    /// Outcomes that completed.
    pub fn completed(&self) -> usize {
        self.count(JobStatus::Completed)
    }

    /// Outcomes that completed on the dense numerical fallback.
    pub fn degraded_numerics(&self) -> usize {
        self.count(JobStatus::DegradedNumerics)
    }

    /// Outcomes that aborted mid-run (partials retained).
    pub fn aborted(&self) -> usize {
        self.count(JobStatus::Aborted)
    }

    /// Outcomes that failed to set up.
    pub fn failed(&self) -> usize {
        self.count(JobStatus::Failed)
    }

    /// Outcomes whose worker caught a panic.
    pub fn panicked(&self) -> usize {
        self.count(JobStatus::Panicked)
    }

    /// Outcomes aborted by a supervision watchdog (a job count, not a
    /// duration).
    // xtask: allow(unit) — returns a job count; "time" here names the
    // TimedOut status, not a physical quantity.
    pub fn timed_out(&self) -> usize {
        self.count(JobStatus::TimedOut)
    }

    /// Outcomes that exhausted their retry budget and were quarantined.
    pub fn quarantined(&self) -> usize {
        self.jobs.iter().filter(|j| j.quarantined).count()
    }

    /// Whether any outcome ended in a failure class (failed, panicked,
    /// or timed out) — the sweep-level health verdict behind the CLI's
    /// distinct exit codes.
    pub fn has_failures(&self) -> bool {
        self.jobs.iter().any(|j| j.status.is_retryable())
    }

    fn count(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// Serialises to the `hp-campaign-v1` JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut o = Obj::open(&mut out, Layout::Pretty(0));
        o.str("schema", SCHEMA);
        json::push_list(o.key("jobs"), Layout::Pretty(1), &self.jobs, |out, job| {
            write_job(out, job, |o| job.report.write_json(o.key("report"), true));
        });
        self.campaign.write_json(o.key("campaign"), false);
        o.close();
        out.push('\n');
        out
    }

    /// Deserialises an `hp-campaign-v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] on malformed JSON, a wrong
    /// schema tag, or entries of the wrong shape.
    pub fn from_json_str(src: &str) -> Result<CampaignReport> {
        let decode = || -> hp_obs::Result<CampaignReport> {
            let parsed = json::parse(src)?;
            let doc = parsed.cursor("campaign");
            let schema = doc.field("schema")?.str()?;
            if schema != SCHEMA {
                return Err(ObsError::Parse {
                    message: format!("unknown schema `{schema}` (expected `{SCHEMA}`)"),
                });
            }
            Ok(CampaignReport {
                jobs: match doc.opt("jobs") {
                    Some(jobs) => jobs.list(decode_job)?,
                    None => Vec::new(),
                },
                campaign: match doc.opt("campaign") {
                    Some(c) => RunReport::from_json(c.value())?,
                    None => RunReport::new(),
                },
            })
        };
        decode().map_err(|e| CampaignError::Parse(e.to_string()))
    }
}

/// Writes one job outcome as a one-line JSON object; `tail` appends the
/// members that differ between the campaign document (the embedded run
/// report) and the manifest (the job's report file name).
fn write_job(out: &mut String, job: &JobOutcome, tail: impl FnOnce(&mut Obj<'_>)) {
    let mut o = Obj::open(out, Layout::Line);
    o.str("label", &job.label).str("scheduler", &job.scheduler);
    let _ = write!(o.key("grid"), "\"{}x{}\"", job.grid.0, job.grid.1);
    o.str("workload", &job.workload);
    let _ = write!(o.key("digest"), "\"{:016x}\"", job.digest);
    o.str("status", job.status.label())
        .str("cause", &job.cause)
        .f64("makespan_s", job.makespan_seconds)
        .f64("peak_c", job.peak_celsius)
        .f64("simulated_s", job.simulated_seconds)
        .f64("energy_j", job.energy_joules)
        .f64("avg_freq_ghz", job.avg_frequency_ghz)
        .lit("dtm_intervals", job.dtm_intervals)
        .lit("migrations", job.migrations)
        .lit("jobs_completed", job.jobs_completed)
        .lit("jobs_total", job.jobs_total)
        .lit("resumed", job.resumed)
        .lit("attempts", job.attempts)
        .lit("quarantined", job.quarantined);
    json::push_list(
        o.key("peak_series"),
        Layout::Line,
        job.peak_series.iter().copied(),
        push_float,
    );
    tail(&mut o);
    o.close();
}

/// One `manifest.jsonl` line: the job outcome without its (potentially
/// large) run report, which lives in the job's own `file`.
pub(crate) fn manifest_line(job: &JobOutcome, file: &str) -> String {
    let mut line = String::with_capacity(512);
    write_job(&mut line, job, |o| {
        o.str("file", file);
    });
    line
}

/// Decodes one job outcome object (campaign document or manifest line).
/// A missing `report` member yields an empty run report — the manifest
/// caller re-attaches it from the job's report file.
pub(crate) fn decode_job(c: &Cursor<'_>) -> hp_obs::Result<JobOutcome> {
    let string = |key: &str| -> hp_obs::Result<String> { Ok(c.field(key)?.str()?.to_string()) };
    let grid = c.field("grid")?;
    let digest = c.field("digest")?;
    let status = c.field("status")?;
    // Supervision fields are optional for pre-supervision manifests.
    let flag = |key: &str| c.opt(key).map_or(Ok(false), |v| v.bool());
    let attempts = match c.opt("attempts") {
        Some(a) => u32::try_from(a.u64()?.max(1)).map_err(|_| a.error("an attempt count"))?,
        None => 1,
    };
    Ok(JobOutcome {
        label: string("label")?,
        scheduler: string("scheduler")?,
        grid: parse_grid(grid.str()?).ok_or_else(|| grid.error("a grid `WxH`"))?,
        workload: string("workload")?,
        digest: u64::from_str_radix(digest.str()?, 16).map_err(|_| digest.error("a hex digest"))?,
        status: JobStatus::from_label(status.str()?).ok_or_else(|| status.error("a job status"))?,
        cause: string("cause")?,
        makespan_seconds: c.field("makespan_s")?.f64()?,
        peak_celsius: c.field("peak_c")?.f64()?,
        simulated_seconds: c.field("simulated_s")?.f64()?,
        energy_joules: c.field("energy_j")?.f64()?,
        avg_frequency_ghz: c.field("avg_freq_ghz")?.f64()?,
        dtm_intervals: c.field("dtm_intervals")?.u64()?,
        migrations: c.field("migrations")?.u64()?,
        jobs_completed: c.field("jobs_completed")?.usize()?,
        jobs_total: c.field("jobs_total")?.usize()?,
        resumed: flag("resumed")?,
        attempts,
        quarantined: flag("quarantined")?,
        peak_series: match c.opt("peak_series") {
            Some(series) => series.list(Cursor::f64)?,
            None => Vec::new(),
        },
        report: match c.opt("report") {
            Some(r) => RunReport::from_json(r.value())?,
            None => RunReport::new(),
        },
    })
}

/// Parses `"WxH"` into grid dimensions (both nonzero).
pub(crate) fn parse_grid(raw: &str) -> Option<(usize, usize)> {
    let (a, b) = raw.split_once(['x', 'X'])?;
    let w: usize = a.trim().parse().ok()?;
    let h: usize = b.trim().parse().ok()?;
    (w > 0 && h > 0).then_some((w, h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> JobOutcome {
        let mut report = RunReport::new();
        report.push_counter("engine.intervals", 42);
        report.push_meta("gemm_backend", "scalar");
        JobOutcome {
            label: "s=hotpotato b=canneal".into(),
            scheduler: "hotpotato".into(),
            grid: (4, 4),
            workload: "closed:canneal:8:42".into(),
            digest: 0xdead_beef,
            status: JobStatus::Completed,
            cause: String::new(),
            makespan_seconds: 0.123456789,
            peak_celsius: 69.25,
            simulated_seconds: 0.2,
            energy_joules: 10.5,
            avg_frequency_ghz: 4.0,
            dtm_intervals: 3,
            migrations: 17,
            jobs_completed: 2,
            jobs_total: 2,
            resumed: false,
            attempts: 1,
            quarantined: false,
            peak_series: vec![45.0, 61.5],
            report,
        }
    }

    #[test]
    fn document_round_trips_exactly() {
        let report = CampaignReport {
            jobs: vec![outcome()],
            campaign: {
                let mut r = RunReport::new();
                r.push_counter("campaign.cache.hits", 3);
                r
            },
        };
        let text = report.to_json_string();
        let parsed = CampaignReport::from_json_str(&text).unwrap();
        assert_eq!(parsed, report);
        // Canonical form is a fixed point.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn without_timings_strips_all_histograms() {
        let mut o = outcome();
        o.report.push_histogram(
            "hook.schedule",
            hp_obs::HistogramSummary {
                count: 1,
                mean_us: 1.0,
                p50_us: 1.0,
                p95_us: 1.0,
                max_us: 1.0,
            },
        );
        let report = CampaignReport {
            jobs: vec![o],
            campaign: RunReport::new(),
        };
        let stripped = report.without_timings();
        assert!(stripped.jobs[0].report.histogram("hook.schedule").is_none());
        assert_eq!(
            stripped.jobs[0].report.counter("engine.intervals"),
            Some(42)
        );
    }

    fn decode_line(line: &str) -> hp_obs::Result<JobOutcome> {
        decode_job(&json::parse(line)?.cursor("line"))
    }

    #[test]
    fn manifest_shape_omits_the_report() {
        let o = outcome();
        let line = manifest_line(&o, "job-000.report.json");
        assert!(!line.contains("\"report\""));
        let parsed = decode_line(&line).unwrap();
        assert!(parsed.report.is_empty());
        assert_eq!(parsed.label, o.label);
        assert_eq!(parsed.digest, o.digest);
        assert_eq!(parsed.peak_series, o.peak_series);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(CampaignReport::from_json_str("{}").is_err());
        assert!(CampaignReport::from_json_str("{\"schema\": \"other\"}").is_err());
        assert!(parse_grid("4by4").is_none());
        assert!(parse_grid("0x4").is_none());
        let bad_status = "{\"label\": \"x\", \"scheduler\": \"s\", \"grid\": \"4x4\", \
             \"workload\": \"w\", \"digest\": \"ff\", \"status\": \"exploded\"}";
        assert!(decode_line(bad_status).is_err());
    }

    #[test]
    fn status_counts() {
        let mut a = outcome();
        a.status = JobStatus::Aborted;
        let report = CampaignReport {
            jobs: vec![outcome(), a],
            campaign: RunReport::new(),
        };
        assert_eq!(report.completed(), 1);
        assert_eq!(report.aborted(), 1);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.panicked(), 0);
        assert_eq!(report.timed_out(), 0);
        assert!(!report.has_failures());
    }

    #[test]
    fn supervision_statuses_round_trip_and_classify() {
        let mut p = outcome();
        p.status = JobStatus::Panicked;
        p.cause = "panicked: boom".into();
        p.attempts = 3;
        p.quarantined = true;
        let line = manifest_line(&p, "job-001.report.json");
        let parsed = decode_line(&line).unwrap();
        assert_eq!(parsed.status, JobStatus::Panicked);
        assert_eq!(parsed.attempts, 3);
        assert!(parsed.quarantined);

        let report = CampaignReport {
            jobs: vec![outcome(), p],
            campaign: RunReport::new(),
        };
        assert_eq!(report.panicked(), 1);
        assert_eq!(report.quarantined(), 1);
        assert!(report.has_failures());

        // Pre-supervision manifest lines (no attempts/quarantined keys)
        // still parse, with conservative defaults.
        let legacy = manifest_line(&outcome(), "job-000.report.json")
            .replace(", \"attempts\": 1, \"quarantined\": false", "");
        let parsed = decode_line(&legacy).unwrap();
        assert_eq!(parsed.attempts, 1);
        assert!(!parsed.quarantined);
    }

    /// Manifest lines, pinned byte for byte: the fixture was written from
    /// these outcomes by the writer that predates the shared codec layer.
    #[test]
    fn manifest_line_bytes_are_pinned() {
        let golden = include_str!("../../../tests/golden/codecs/manifest_lines.jsonl");
        let mut p = outcome();
        p.status = JobStatus::Panicked;
        p.cause = "panicked: \"boom\"\n".into();
        p.makespan_seconds = f64::NAN;
        p.peak_series = vec![f64::NAN, 1.5];
        p.attempts = 3;
        p.quarantined = true;
        p.resumed = true;
        let lines = format!(
            "{}\n{}\n",
            manifest_line(&outcome(), "job-000.report.json"),
            manifest_line(&p, "job-007.report.json")
        );
        assert!(lines == golden, "manifest line drifted:\n{lines}");
        for line in golden.lines() {
            let back = decode_line(line).expect("pinned line decodes");
            let file = json::parse(line).ok();
            let file = file.as_ref().and_then(|v| v.get("file")?.as_str());
            assert_eq!(manifest_line(&back, file.unwrap_or_default()), line);
        }
    }

    /// `outcome()` with every float, counter, flag and text field drawn.
    fn arbitrary_outcome(f: &[f64], n: &[u64], status: usize, codes: &[u32]) -> JobOutcome {
        let text: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let mut job = outcome();
        job.report.push_counter(&text, n[0]);
        job.report.push_gauge("g", f[5]);
        job.report.push_event(f[6], "dtm", &text);
        job.status = [
            JobStatus::Completed,
            JobStatus::DegradedNumerics,
            JobStatus::Aborted,
            JobStatus::Failed,
            JobStatus::Panicked,
            JobStatus::TimedOut,
        ][status];
        job.grid = (n[1] as usize % 16 + 1, n[2] as usize % 16 + 1);
        job.makespan_seconds = f[0];
        job.peak_celsius = f[1];
        job.simulated_seconds = f[2];
        job.energy_joules = f[3];
        job.avg_frequency_ghz = f[4];
        job.digest = n[3];
        job.dtm_intervals = n[0];
        job.migrations = n[1];
        job.jobs_completed = n[2] as usize;
        job.jobs_total = n[3] as usize;
        job.resumed = n[0].is_multiple_of(2);
        job.quarantined = n[2].is_multiple_of(2);
        job.attempts = (n[1] % 5) as u32 + 1;
        job.peak_series = f[7..].to_vec();
        job.label.clone_from(&text);
        job.cause = text;
        job
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Campaign documents and manifest lines: encode → decode →
        /// encode is byte-identical, non-finite metrics included (they
        /// travel as `null` and come back as NaN).
        #[test]
        fn encode_decode_encode_is_byte_identical(
            f in proptest::collection::vec(proptest::num::f64::ANY, 7..12),
            n in proptest::collection::vec(0u64..u64::MAX, 4),
            status in 0usize..6,
            codes in proptest::collection::vec(0u32..0x1_0000, 0..12),
        ) {
            let job = arbitrary_outcome(&f, &n, status, &codes);
            let line = manifest_line(&job, "job-000.report.json");
            let again = decode_line(&line).map(|j| manifest_line(&j, "job-000.report.json"));
            proptest::prop_assert_eq!(again, Ok(line));
            let doc = CampaignReport {
                jobs: vec![job.clone(), job],
                campaign: RunReport::new(),
            }
            .to_json_string();
            let again = CampaignReport::from_json_str(&doc).map(|r| r.to_json_string());
            proptest::prop_assert_eq!(again, Ok(doc));
        }
    }
}

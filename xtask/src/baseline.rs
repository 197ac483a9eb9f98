//! `hp-audit-v1` findings serialisation and the reviewed-baseline diff.
//!
//! The audit emits machine-readable findings as JSON through the
//! workspace codec (`hp_obs::json`, dependency-free, so the gate still
//! runs in offline CI). A reviewed `xtask/audit.baseline.json`
//! enumerates every accountable finding (suppressed sites included):
//!
//! * a finding whose key is **not** in the baseline is *new* — CI fails
//!   until it is fixed or reviewed into the baseline;
//! * a baseline entry with **no** matching finding is *stale* — CI
//!   fails until the entry is removed (fixed findings must not linger).
//!
//! Keys are line-number-free (`rule|file|function|detail[#k]`) so
//! unrelated edits do not churn the ledger.

use hp_obs::json::{self, push_list, push_str, Cursor, Layout, Obj};
use hp_obs::ObsError;

use crate::audit::Finding;

/// Schema tag of the findings document.
pub const AUDIT_SCHEMA: &str = "hp-audit-v1";

/// Schema tag of the baseline document.
pub const BASELINE_SCHEMA: &str = "hp-audit-baseline-v1";

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// Writes a document of one-line records under `key`: the layout shared
/// by the findings and baseline documents, whose closing bracket sits on
/// its own line even when the list is empty.
fn records<T>(schema: &str, key: &str, items: &[T], each: impl Fn(&mut Obj<'_>, &T)) -> String {
    let mut out = String::new();
    let mut doc = Obj::open(&mut out, Layout::Pretty(0));
    doc.str("schema", schema).lit("count", items.len());
    if items.is_empty() {
        doc.key(key).push_str("[\n  ]");
    } else {
        push_list(doc.key(key), Layout::Pretty(1), items, |out, item| {
            let mut o = Obj::open(out, Layout::Line);
            each(&mut o, item);
            o.close();
        });
    }
    doc.close();
    out.push('\n');
    out
}

/// Serialises findings as an `hp-audit-v1` document.
pub fn findings_to_json(findings: &[Finding]) -> String {
    records(AUDIT_SCHEMA, "findings", findings, |o, f| {
        o.str("key", &f.key())
            .str("rule", &f.rule)
            .str("crate", &f.crate_name)
            .str("file", &f.file)
            .lit("line", f.line)
            .lit("col", f.col)
            .str("function", &f.function)
            .str("detail", &f.detail)
            .lit("occurrence", f.occurrence)
            .lit("suppressed", f.suppressed)
            .lit("advisory", f.advisory)
            .str("reason", &f.reason);
        push_list(o.key("chain"), Layout::Line, &f.chain, |out, link| {
            push_str(out, link);
        });
        o.str("message", &f.message);
    })
}

/// Opens a document and checks its schema tag; `kind` names the tag
/// in the error.
fn open_document<'a>(
    doc: &'a json::Json,
    kind: &str,
    schema: &str,
) -> Result<Cursor<'a>, ObsError> {
    let doc = doc.cursor("document");
    let found = doc.field("schema")?.str()?;
    if found == schema {
        Ok(doc)
    } else {
        Err(ObsError::Parse {
            message: format!("unsupported {kind} `{found}` (expected `{schema}`)"),
        })
    }
}

fn string(c: &Cursor<'_>, key: &str) -> Result<String, ObsError> {
    Ok(c.field(key)?.str()?.to_string())
}

/// Parses an `hp-audit-v1` document back into findings (round-trip
/// counterpart of [`findings_to_json`]).
pub fn findings_from_json(src: &str) -> Result<Vec<Finding>, String> {
    let decode = || -> Result<Vec<Finding>, ObsError> {
        let parsed = json::parse(src)?;
        let doc = open_document(&parsed, "schema", AUDIT_SCHEMA)?;
        doc.field("findings")?.list(|f| {
            Ok(Finding {
                rule: string(f, "rule")?,
                crate_name: string(f, "crate")?,
                file: string(f, "file")?,
                line: f.field("line")?.usize()?,
                col: f.field("col")?.usize()?,
                function: string(f, "function")?,
                detail: string(f, "detail")?,
                message: string(f, "message")?,
                chain: match f.opt("chain") {
                    Some(chain) => chain.list(|link| Ok(link.str()?.to_string()))?,
                    None => Vec::new(),
                },
                suppressed: f.field("suppressed")?.bool()?,
                reason: string(f, "reason")?,
                advisory: f.field("advisory")?.bool()?,
                occurrence: f.field("occurrence")?.usize()?,
            })
        })
    };
    decode().map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// One reviewed baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Stable finding key (`rule|file|function|detail[#k]`).
    pub key: String,
    /// Rule the entry belongs to (redundant with the key, kept for
    /// human review).
    pub rule: String,
    /// Whether the finding was marker-suppressed when reviewed.
    pub suppressed: bool,
    /// Marker justification (or reviewer note for grandfathered,
    /// unsuppressed findings).
    pub note: String,
}

/// The reviewed ledger of accountable findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Entries sorted by key.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Builds a baseline from a finished audit run: every accountable
    /// (non-advisory) finding becomes an entry.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: Vec<BaselineEntry> = findings
            .iter()
            .filter(|f| f.accountable())
            .map(|f| BaselineEntry {
                key: f.key(),
                rule: f.rule.clone(),
                suppressed: f.suppressed,
                note: f.reason.clone(),
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries.dedup_by(|a, b| a.key == b.key);
        Baseline { entries }
    }

    /// Serialises as an `hp-audit-baseline-v1` document.
    pub fn to_json(&self) -> String {
        records(BASELINE_SCHEMA, "entries", &self.entries, |o, e| {
            o.str("key", &e.key)
                .str("rule", &e.rule)
                .lit("suppressed", e.suppressed)
                .str("note", &e.note);
        })
    }

    /// Parses an `hp-audit-baseline-v1` document.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let decode = || -> Result<Baseline, ObsError> {
            let parsed = json::parse(src)?;
            let doc = open_document(&parsed, "baseline schema", BASELINE_SCHEMA)?;
            let optional = |e: &Cursor<'_>, key: &str| match e.opt(key) {
                Some(v) => v.str().map(str::to_string),
                None => Ok(String::new()),
            };
            let entries = doc.field("entries")?.list(|e| {
                Ok(BaselineEntry {
                    key: string(e, "key")?,
                    rule: optional(e, "rule")?,
                    suppressed: match e.opt("suppressed") {
                        Some(v) => v.bool()?,
                        None => false,
                    },
                    note: optional(e, "note")?,
                })
            })?;
            Ok(Baseline { entries })
        };
        decode().map_err(|e| e.to_string())
    }
}

/// Outcome of diffing a run's findings against the reviewed baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Findings not present in the baseline (fail CI until fixed or
    /// reviewed in).
    pub new: Vec<Finding>,
    /// Baseline entries with no matching finding (fail CI until the
    /// stale entry is removed).
    pub stale: Vec<BaselineEntry>,
}

impl BaselineDiff {
    /// The gate passes only on an empty diff.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Diffs accountable findings against the baseline, both directions.
pub fn diff(findings: &[Finding], baseline: &Baseline) -> BaselineDiff {
    let mut have: Vec<&str> = Vec::new();
    let mut out = BaselineDiff::default();
    let keys: Vec<String> = findings.iter().map(Finding::key).collect();
    for (f, key) in findings.iter().zip(keys.iter()) {
        if !f.accountable() {
            continue;
        }
        have.push(key.as_str());
        if !baseline.entries.iter().any(|e| &e.key == key) {
            out.new.push(f.clone());
        }
    }
    for e in &baseline.entries {
        if !have.contains(&e.key.as_str()) {
            out.stale.push(e.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_finding() -> Finding {
        Finding {
            rule: "panic".to_string(),
            crate_name: "hp-thermal".to_string(),
            file: "crates/thermal/src/solver.rs".to_string(),
            line: 42,
            col: 17,
            function: "Solver::step".to_string(),
            detail: ".unwrap()".to_string(),
            message: "`.unwrap()` reachable from public API `hp-thermal::Solver::run`".to_string(),
            chain: vec![
                "hp-thermal::Solver::run".to_string(),
                "hp-thermal::Solver::step".to_string(),
            ],
            suppressed: false,
            reason: String::new(),
            advisory: false,
            occurrence: 1,
        }
    }

    #[test]
    fn findings_round_trip_through_hp_audit_v1() {
        let mut second = sample_finding();
        second.rule = "nondet".to_string();
        second.detail = "Instant::now".to_string();
        second.suppressed = true;
        second.reason = "wall-clock histogram, \"excluded\" from goldens — see §12".to_string();
        second.occurrence = 2;
        second.chain.clear();
        let originals = vec![sample_finding(), second];
        let json = findings_to_json(&originals);
        let parsed = findings_from_json(&json).unwrap();
        assert_eq!(parsed, originals);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let json = findings_to_json(&[sample_finding()]).replace("hp-audit-v1", "hp-audit-v0");
        let err = findings_from_json(&json).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn baseline_round_trips_and_diffs_clean() {
        let findings = vec![sample_finding()];
        let baseline = Baseline::from_findings(&findings);
        let parsed = Baseline::parse(&baseline.to_json()).unwrap();
        assert_eq!(parsed, baseline);
        let d = diff(&findings, &parsed);
        assert!(d.is_clean(), "{d:?}");
    }

    #[test]
    fn new_finding_fails_the_diff() {
        let baseline = Baseline::from_findings(&[]);
        let d = diff(&[sample_finding()], &baseline);
        assert_eq!(d.new.len(), 1);
        assert!(d.stale.is_empty());
        assert!(!d.is_clean());
    }

    #[test]
    fn stale_entry_fails_the_diff() {
        let baseline = Baseline::from_findings(&[sample_finding()]);
        let d = diff(&[], &baseline);
        assert!(d.new.is_empty());
        assert_eq!(d.stale.len(), 1);
        assert_eq!(
            d.stale.first().map(|e| e.key.as_str()),
            Some("panic|crates/thermal/src/solver.rs|Solver::step|.unwrap()")
        );
    }

    #[test]
    fn advisory_findings_are_not_accountable() {
        let mut f = sample_finding();
        f.advisory = true;
        let baseline = Baseline::from_findings(&[f.clone()]);
        assert!(baseline.entries.is_empty());
        assert!(diff(&[f], &baseline).is_clean());
    }

    #[test]
    fn parser_handles_escapes_and_rejects_trailing_garbage() {
        let doc = findings_to_json(&[sample_finding()]);
        let escaped = doc.replace("\"detail\": \".unwrap()\"", "\"detail\": \"x\\n\\\"y\\\"\"");
        assert_eq!(findings_from_json(&escaped).unwrap()[0].detail, "x\n\"y\"");
        assert!(findings_from_json(&format!("{doc} junk")).is_err());
        let overflow = doc.replace("\"line\": 42", "\"line\": 99999999999999999999999");
        assert!(findings_from_json(&overflow).is_err());
    }

    /// Both documents, pinned byte for byte: the fixtures were written
    /// from these findings by the writer that predates the shared codec
    /// layer.
    #[test]
    fn document_bytes_are_pinned() {
        let mut second = sample_finding();
        second.rule = "nondet".to_string();
        second.detail = "Instant::now".to_string();
        second.suppressed = true;
        second.reason =
            "wall-clock histogram, \"excluded\" from goldens — see §12\u{1}".to_string();
        second.occurrence = 2;
        second.chain.clear();
        let findings = vec![sample_finding(), second];
        let golden = |name: &str| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../tests/golden/codecs")
                .join(name);
            std::fs::read_to_string(&path).unwrap_or_default()
        };
        assert_eq!(findings_to_json(&findings), golden("audit_findings.json"));
        assert_eq!(findings_to_json(&[]), golden("audit_findings_empty.json"));
        let baseline = Baseline::from_findings(&findings);
        assert_eq!(baseline.to_json(), golden("audit_baseline.json"));
        let doc = golden("audit_findings.json");
        assert_eq!(
            findings_from_json(&doc).map(|f| findings_to_json(&f)),
            Ok(doc)
        );
        let doc = golden("audit_baseline.json");
        assert_eq!(Baseline::parse(&doc).map(|b| b.to_json()), Ok(doc));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Findings and baseline documents: encode → decode → encode is
        /// byte-identical for arbitrary text and counts.
        #[test]
        fn encode_decode_encode_is_byte_identical(
            codes in proptest::collection::vec(0u32..0x1_0000, 0..12),
            nums in proptest::collection::vec(0usize..usize::MAX, 3),
            flags in (0u8..2, 0u8..2),
            links in 0usize..4,
        ) {
            let text: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
            let finding = Finding {
                rule: text.clone(),
                crate_name: text.clone(),
                file: text.clone(),
                line: nums[0],
                col: nums[1],
                function: text.clone(),
                detail: text.clone(),
                message: text.clone(),
                chain: vec![text.clone(); links],
                suppressed: flags.0 == 1,
                reason: text,
                advisory: flags.1 == 1,
                occurrence: nums[2],
            };
            let doc = findings_to_json(&[finding.clone(), sample_finding()]);
            let again = findings_from_json(&doc).map(|f| findings_to_json(&f));
            proptest::prop_assert_eq!(again, Ok(doc));
            let mut accountable = finding;
            accountable.advisory = false;
            let doc = Baseline::from_findings(&[accountable]).to_json();
            let again = Baseline::parse(&doc).map(|b| b.to_json());
            proptest::prop_assert_eq!(again, Ok(doc));
        }
    }
}

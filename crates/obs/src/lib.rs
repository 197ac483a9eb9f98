//! # hp-obs — lightweight observability for the HotPotato stack
//!
//! A dependency-free metrics layer shared by the thermal solvers, the
//! interval engine, the schedulers and the CLI:
//!
//! - [`Registry`] — named monotonic counters, point-in-time gauges,
//!   log-bucketed duration histograms and free-form metadata behind one
//!   interior-mutable handle (`&self` everywhere, poison-tolerant).
//! - [`ScopedTimer`] — an RAII guard recording wall-clock time of a
//!   scope into a registry histogram; this is how per-hook scheduler
//!   overhead (the paper's 23.76 µs table) is measured.
//! - [`RunReport`] — the immutable snapshot embedded in
//!   `hp_sim::Metrics` and exported by `hp simulate --report` as an
//!   `hp-report-v1` JSON document.
//! - [`json`] — the workspace's one JSON codec: a depth-bounded parser,
//!   streaming writers with the two float rules, and path-carrying
//!   typed decoders. Fault plans, sweep specs, campaign reports,
//!   checkpoints, scheduler snapshots and the audit ledger all use it.
//! - [`fnv1a`] — the workspace's content hash (checkpoint digests and
//!   spec hashes, campaign job digests).
//!
//! ## Determinism contract (DESIGN.md §10)
//!
//! Counters, gauges, metadata and events are functions of the run
//! configuration and seed: two runs with identical config produce
//! bit-identical blocks. Histograms summarise *wall-clock* durations
//! and are explicitly excluded from that guarantee — compare reports
//! with [`RunReport::without_timings`].

#![forbid(unsafe_code)]

mod error;
pub mod json;
mod registry;
mod report;

pub use error::{ObsError, Result};
pub use registry::{Registry, ScopedTimer};
pub use report::{
    CounterEntry, GaugeEntry, HistogramEntry, HistogramSummary, MetaEntry, ReportEvent, RunReport,
    SCHEMA,
};

/// 64-bit FNV-1a: dependency-free and stable across platforms and
/// releases, which the persisted digests that use it rely on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_depends_on_byte_order_and_length() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"a\0"));
    }
}

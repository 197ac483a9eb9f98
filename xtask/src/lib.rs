//! Workspace automation library behind the `cargo xtask` binary.
//!
//! Two gates share the scrubbing [`lexer`]:
//!
//! * [`lints`] — the per-line textual rules of `cargo xtask check`
//!   (no-panic, SAFETY comments, dispatch guards, audited casts, units).
//! * [`audit`] — the semantic passes of `cargo xtask audit`, built on
//!   the [`graph`] symbol table / intra-workspace call graph:
//!   transitive panic-reachability, determinism of report/trace paths,
//!   atomics-and-locks discipline, and suppression accounting against a
//!   reviewed [`baseline`].
//!
//! The only dependency is the workspace's own JSON codec (`hp-obs`, for
//! the findings and baseline documents), so the gates run in offline CI
//! with nothing but the workspace itself.

pub mod audit;
pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod workspace;

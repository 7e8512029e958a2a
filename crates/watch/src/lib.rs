//! # mercurial-watch
//!
//! Trace-driven alerting for the mercurial laboratory — the always-on
//! monitor layer the paper's detection story assumes. Google's Fig. 1
//! "automatically detected" curve exists because monitors watch fleet
//! telemetry continuously; Dixit et al. describe the same loop at Meta:
//! scanners feed signals into alerting that pages when corruption rates
//! or detection latencies regress. This crate is that consumer for the
//! telemetry `mercurial-trace` produces.
//!
//! * [`rule`] — the serde rule grammar: thresholds, rate-of-change,
//!   histogram percentiles, and cross-run regressions;
//! * [`input`] — the [`input::WatchInput`] snapshot, built identically
//!   from a live run (`MetricSet` + `EpochSeries`) or an exported JSONL
//!   trace;
//! * [`eval`] — the single evaluator: [`rule::RuleSet::evaluate`]
//!   offline, [`eval::WatchEngine`] in-loop (same code path, same
//!   alerts);
//! * [`baseline`] — persisted known-good snapshots for regression rules.
//!
//! Zero-dependency beyond the workspace's own trace/metrics layers and
//! the vendored serde shims; deterministic by construction — alerts are a
//! pure function of (scenario, seed, rules), identical at any worker
//! count.
#![warn(missing_docs)]

pub mod baseline;
pub mod eval;
pub mod input;
pub mod promrules;
pub mod rule;

pub use baseline::Baseline;
pub use eval::{Alert, RuleOutcome, RuleStatus, WatchEngine, WatchReport};
pub use input::{EpochRow, HistoSummary, WatchInput};
pub use rule::{Cmp, EpochField, Rule, RuleKind, RuleScope, RuleSet, Source};

//! # mercurial-prof — wall-clock self-observability
//!
//! Everything else in this workspace observes **simulation time**: the
//! trace recorder stamps sim-hours, the scoreboard counts epochs, the
//! audit ledger replays decisions. This crate observes the *runtime
//! itself* — where the wall clock and memory actually go — and exports
//! it through three surfaces:
//!
//! 1. [`SelfProfile`]: a hierarchical phase tree (wall ms, call counts,
//!    % of parent, peak-RSS sample) rendered as a table or as
//!    `flamegraph.pl`-compatible folded stacks;
//! 2. per-phase gauges for the serve status page;
//! 3. [`BenchMeta`]: the shared envelope every `BENCH_*.json` embeds so
//!    perf numbers are comparable across PRs, hosts, and experiments.
//!
//! The one inviolable rule, inherited from the determinism contract:
//! wall-clock readings are **write-only**. Nothing measured here may
//! feed sim-visible state, so a prof-on run is bit-for-bit identical to
//! a prof-off run (`crates/core/tests/prof_parity.rs` pins this against
//! the E20 digests).

mod meta;
mod profiler;
mod report;

pub use meta::{BenchMeta, HostInfo, MetaPhase, BENCH_META_SCHEMA};
pub use profiler::{peak_rss_bytes, PhaseGuard, Prof};
pub use report::{PhaseNode, ProfileEntry, SelfProfile};

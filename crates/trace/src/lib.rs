//! # mercurial-trace
//!
//! Deterministic structured tracing for the mercurial laboratory.
//!
//! The paper's detection story is an observability story: Google finds
//! mercurial cores by mining fleet-wide signal streams and per-core
//! incident histories. This crate is the telemetry layer the rest of the
//! workspace instruments itself with — spans and instant events on a
//! *simulated* clock, counters/gauges/log-bucketed histograms, and
//! exporters a human or a tool can read (JSONL, Prometheus text
//! exposition, Chrome trace-event JSON, ASCII incident timelines).
//!
//! ## Determinism contract
//!
//! Events carry the simulation hour, never wall-clock time, and a run
//! records on one thread in emission order. A trace is therefore a pure
//! function of `(scenario, seed)`: byte-for-byte identical on every
//! replay. Served runs split the fleet across worker processes; the
//! server concatenates their event streams in worker order.
//!
//! ## Cost when disabled
//!
//! A disabled recorder is a `None`: every recording method is one branch
//! and no allocation, so instrumented hot loops run at full speed when
//! tracing is off.
//!
//! This crate sits below every other workspace crate: exporters
//! hand-roll their formats, and [`export::read_jsonl`], the one reader of
//! the JSONL export, parses through the in-tree `serde_json`.
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metric;
pub mod recorder;
pub mod stream;
pub mod timeline;

pub use event::{EventKind, TraceEvent};
pub use export::prom_label_escape;
pub use metric::{intern, LogHistogram, MetricSet};
pub use recorder::{Recorder, Trace, TraceLevel};
pub use stream::{JsonlStreamSink, TraceSink};
pub use timeline::{incident_timeline, stage_label};

//! The [`Recorder`]: the single handle instrumented code writes through.
//!
//! Enabled recorders buffer events and metrics; disabled recorders are a
//! `None` and every method is one branch with no allocation. A run
//! records on one thread, so events land in emission order.

use crate::event::{EventKind, TraceEvent};
use crate::metric::MetricSet;

/// How much a recorder keeps. Each level includes the one before it, so
/// an audited run always records: the decision ledger is derived from the
/// trace, and auditing a run that recorded nothing would observe nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Inert: every recording method is one branch.
    #[default]
    Off,
    /// Events and metrics are buffered.
    Record,
    /// As [`TraceLevel::Record`], plus decision provenance: the
    /// `audit.*` counters and one `score.signal` instant per signal the
    /// scoreboard ingests.
    Audit,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    events: Vec<TraceEvent>,
    metrics: MetricSet,
    audit: bool,
}

/// Buffering telemetry sink threaded through the simulator's hot layers.
///
/// All methods take the simulation hour explicitly — the recorder never
/// reads a wall clock, which is what keeps traces reproducible.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything at the cost of one branch per call.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder at `level`; [`TraceLevel::Off`] yields the same inert
    /// recorder as [`Recorder::disabled`].
    pub fn new(level: TraceLevel) -> Self {
        Recorder {
            inner: (level != TraceLevel::Off).then(|| {
                Box::new(Inner {
                    audit: level == TraceLevel::Audit,
                    ..Inner::default()
                })
            }),
        }
    }

    /// Whether this recorder keeps anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this recorder keeps decision provenance
    /// ([`TraceLevel::Audit`]).
    pub fn audits(&self) -> bool {
        self.inner.as_deref().is_some_and(|i| i.audit)
    }

    /// Open a span at `hour`. Must be matched by [`Recorder::end`] with the
    /// same name; spans nest in emission order.
    pub fn begin(&mut self, hour: f64, name: &'static str) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.events.push(TraceEvent {
            hour,
            kind: EventKind::Begin,
            name,
            core: None,
            value: 0.0,
        });
    }

    /// Close the innermost open span of `name` at `hour`.
    pub fn end(&mut self, hour: f64, name: &'static str) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.events.push(TraceEvent {
            hour,
            kind: EventKind::End,
            name,
            core: None,
            value: 0.0,
        });
    }

    /// Record a point event, optionally tied to a packed `CoreUid`.
    pub fn instant(&mut self, hour: f64, name: &'static str, core: Option<u64>, value: f64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.events.push(TraceEvent {
            hour,
            kind: EventKind::Instant,
            name,
            core,
            value,
        });
    }

    /// Sample a gauge: records both a timeline event and the latest value
    /// in the metric set.
    pub fn gauge(&mut self, hour: f64, name: &'static str, value: f64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.events.push(TraceEvent {
            hour,
            kind: EventKind::Gauge,
            name,
            core: None,
            value,
        });
        inner.metrics.gauge_set(name, value);
    }

    /// Bump a counter (metric only, no timeline event — counters are read
    /// out once at export time).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.counter_add(name, delta);
    }

    /// Bump an `audit.*` counter: a no-op unless this recorder audits.
    pub fn audit_add(&mut self, name: &'static str, delta: u64) {
        if let Some(inner) = self.inner.as_deref_mut().filter(|i| i.audit) {
            inner.metrics.counter_add(name, delta);
        }
    }

    /// Record a histogram sample (metric only).
    pub fn observe(&mut self, name: &'static str, sample: f64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.metrics.observe(name, sample);
    }

    /// Number of buffered events (0 when disabled).
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.events.len())
    }

    /// The metric set accumulated so far (`None` when disabled).
    pub fn metrics(&self) -> Option<&MetricSet> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Drain the buffered events, leaving metrics in place — the
    /// hook a streaming [`crate::stream::TraceSink`] uses to flush merged
    /// events to disk incrementally instead of holding the whole run in
    /// memory. Returns an empty vec when disabled.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.inner
            .as_deref_mut()
            .map_or_else(Vec::new, |i| std::mem::take(&mut i.events))
    }

    /// Consume the recorder and return the finished trace. A disabled
    /// recorder yields an empty trace.
    pub fn finish(self) -> Trace {
        match self.inner {
            Some(inner) => Trace {
                events: inner.events,
                metrics: inner.metrics,
            },
            None => Trace::default(),
        }
    }
}

/// A completed trace: the merged event stream plus the final metric set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in deterministic merge order.
    pub events: Vec<TraceEvent>,
    /// Final counters/gauges/histograms.
    pub metrics: MetricSet,
}

impl Trace {
    /// True when nothing was recorded (e.g. tracing was disabled).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.metrics.is_empty()
    }

    /// JSONL export — one event per line, then one `metric` line per
    /// counter/gauge/histogram. See [`crate::export::to_jsonl`].
    pub fn to_jsonl(&self) -> String {
        crate::export::to_jsonl(self)
    }

    /// Prometheus text exposition. See [`crate::export::to_prometheus`].
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }

    /// Chrome trace-event JSON (Perfetto-loadable). See
    /// [`crate::export::to_chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        crate::export::to_chrome_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.begin(0.0, "sim");
        r.instant(1.0, "x", Some(7), 1.0);
        r.gauge(2.0, "g", 0.5);
        r.counter_add("c", 10);
        r.observe("h", 3.0);
        r.end(3.0, "sim");
        assert!(!r.enabled());
        assert_eq!(r.event_count(), 0);
        let t = r.finish();
        assert!(t.is_empty());
    }

    #[test]
    fn levels_nest() {
        let off = Recorder::new(TraceLevel::Off);
        assert!(!off.enabled() && !off.audits());
        let mut traced = Recorder::new(TraceLevel::Record);
        assert!(traced.enabled() && !traced.audits());
        traced.audit_add("audit.confirms", 1);
        assert!(traced.finish().is_empty());
        let mut audited = Recorder::new(TraceLevel::Audit);
        assert!(audited.enabled() && audited.audits());
        audited.audit_add("audit.confirms", 2);
        assert_eq!(audited.finish().metrics.counter("audit.confirms"), 2);
    }

    #[test]
    fn enabled_recorder_buffers_in_order() {
        let mut r = Recorder::new(TraceLevel::Record);
        r.begin(0.0, "a");
        r.instant(1.0, "b", Some(42), 2.0);
        r.end(3.0, "a");
        let t = r.finish();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].kind, EventKind::Begin);
        assert_eq!(t.events[1].core, Some(42));
        assert_eq!(t.events[2].kind, EventKind::End);
    }

    #[test]
    fn take_events_drains_but_keeps_metrics() {
        let mut r = Recorder::new(TraceLevel::Record);
        r.begin(0.0, "a");
        r.counter_add("n", 3);
        r.end(1.0, "a");
        let drained = r.take_events();
        assert_eq!(drained.len(), 2);
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.metrics().unwrap().counter("n"), 3);
        // Subsequent events buffer afresh.
        r.instant(2.0, "x", None, 0.0);
        assert_eq!(r.take_events().len(), 1);
        assert!(Recorder::disabled().take_events().is_empty());
        assert!(Recorder::disabled().metrics().is_none());
    }
}

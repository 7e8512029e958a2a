//! Incremental trace sinks: stream merged events to disk as the run
//! progresses instead of buffering the whole trace in memory.
//!
//! The ROADMAP's "runs too large to buffer" item: a paper-scale closed
//! loop holds ~10k events comfortably, but longer windows or
//! machine-span-enabled runs do not. A [`TraceSink`] is handed to the
//! driver, which drains the recorder's event buffer through it at every
//! epoch boundary — memory stays bounded by one epoch's events, and
//! because [`JsonlStreamSink`] formats through the exact same line
//! writers as [`crate::export::to_jsonl`], the streamed file is
//! byte-identical to the buffered export. Each drain ends on a complete
//! line, so a run aborted mid-window leaves a well-formed JSONL prefix.

use std::io::{self, Write};

use crate::export::{write_jsonl_event, write_jsonl_metrics, HourCache};
use crate::recorder::Recorder;

/// An incremental consumer of a [`Recorder`]'s event stream.
///
/// The driver calls [`TraceSink::drain`] after each deterministic merge
/// point (an epoch boundary, after shards are absorbed in input-index
/// order) and [`TraceSink::finish`] once at the end of the run. Draining
/// empties the recorder's event buffer ([`Recorder::take_events`]); the
/// metric set stays in the recorder so counters and histograms keep
/// accumulating until `finish`.
pub trait TraceSink {
    /// Flush the recorder's buffered events. Must leave the output on a
    /// complete record boundary so an aborted run's file is well-formed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O error.
    fn drain(&mut self, rec: &mut Recorder) -> io::Result<()>;

    /// Flush any remaining events plus the end-of-run metric readout.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O error.
    fn finish(&mut self, rec: &mut Recorder) -> io::Result<()>;
}

/// Streams JSONL — the same format as [`crate::export::to_jsonl`] — into
/// any [`Write`] target, one flush per drain.
///
/// Event lines stream out in merge order as the run progresses; the
/// `metric` tail lines are written by [`TraceSink::finish`]. The
/// concatenation of all writes is byte-identical to the buffered export
/// of the same run (both go through `write_jsonl_event` /
/// `write_jsonl_metrics`).
pub struct JsonlStreamSink<W: Write> {
    out: W,
    buf: String,
    /// Kept across drains, as the buffered export keeps it across events.
    hours: HourCache,
}

impl<W: Write> JsonlStreamSink<W> {
    /// Wrap a writer (typically a `BufWriter<File>` or a `Vec<u8>`).
    pub fn new(out: W) -> JsonlStreamSink<W> {
        JsonlStreamSink {
            out,
            buf: String::new(),
            hours: HourCache::default(),
        }
    }

    /// Unwrap the underlying writer (e.g. to inspect streamed bytes).
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Borrow the underlying writer mutably — a socket-backed sink needs
    /// this to take the bytes accumulated since the last drain without
    /// consuming the sink.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }
}

impl<W: Write> TraceSink for JsonlStreamSink<W> {
    fn drain(&mut self, rec: &mut Recorder) -> io::Result<()> {
        let events = rec.take_events();
        if events.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        for e in &events {
            write_jsonl_event(&mut self.buf, &mut self.hours, e);
        }
        self.out.write_all(self.buf.as_bytes())?;
        // One flush per drain: after every epoch the on-disk file ends on
        // a complete line, which is the abort-safety contract.
        self.out.flush()
    }

    fn finish(&mut self, rec: &mut Recorder) -> io::Result<()> {
        self.drain(rec)?;
        if let Some(metrics) = rec.metrics() {
            self.buf.clear();
            write_jsonl_metrics(&mut self.buf, metrics);
            self.out.write_all(self.buf.as_bytes())?;
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceLevel;

    fn record_epoch(rec: &mut Recorder, h0: f64) {
        rec.begin(h0, "loop.epoch");
        rec.instant(h0 + 1.0, "detect.online", Some(7), 0.0);
        rec.gauge(h0 + 73.0, "capacity.availability", 0.99);
        rec.counter_add("sim.corruptions", 2);
        rec.observe("detect.latency_hours", 120.0);
        rec.end(h0 + 73.0, "loop.epoch");
    }

    #[test]
    fn streamed_bytes_match_buffered_export() {
        // Buffered reference.
        let mut buffered = Recorder::new(TraceLevel::Record);
        record_epoch(&mut buffered, 0.0);
        record_epoch(&mut buffered, 73.0);
        buffered.instant(146.25, "score.signal", Some(7), 3.0);
        buffered.instant(146.25, "score.first_signal", Some(7), 0.0);
        record_epoch(&mut buffered, 146.5);
        let reference = buffered.finish().to_jsonl();

        // Streamed run, drained mid-way: the hours 73 and 146.25 straddle
        // a drain, so the sink's hour cache spans drains.
        let mut rec = Recorder::new(TraceLevel::Record);
        let mut sink = JsonlStreamSink::new(Vec::new());
        record_epoch(&mut rec, 0.0);
        sink.drain(&mut rec).unwrap();
        record_epoch(&mut rec, 73.0);
        rec.instant(146.25, "score.signal", Some(7), 3.0);
        sink.drain(&mut rec).unwrap();
        rec.instant(146.25, "score.first_signal", Some(7), 0.0);
        record_epoch(&mut rec, 146.5);
        sink.finish(&mut rec).unwrap();
        let streamed = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(streamed, reference);
        // The drained recorder finishes to an event-less trace, but the
        // metric set survives for in-process consumers.
        let t = rec.finish();
        assert!(t.events.is_empty());
        assert_eq!(t.metrics.counter("sim.corruptions"), 6);
    }

    #[test]
    fn aborted_stream_is_a_complete_line_prefix() {
        let mut buffered = Recorder::new(TraceLevel::Record);
        record_epoch(&mut buffered, 0.0);
        record_epoch(&mut buffered, 73.0);
        let full = buffered.finish().to_jsonl();

        let mut rec = Recorder::new(TraceLevel::Record);
        let mut sink = JsonlStreamSink::new(Vec::new());
        record_epoch(&mut rec, 0.0);
        sink.drain(&mut rec).unwrap();
        // Abort: the second epoch is never drained, finish never runs.
        let partial = String::from_utf8(sink.into_inner()).unwrap();
        assert!(partial.ends_with('\n'));
        assert!(full.starts_with(&partial));
        assert!(partial
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn disabled_recorder_streams_nothing() {
        let mut rec = Recorder::disabled();
        let mut sink = JsonlStreamSink::new(Vec::new());
        record_epoch(&mut rec, 0.0);
        sink.drain(&mut rec).unwrap();
        sink.finish(&mut rec).unwrap();
        assert!(sink.into_inner().is_empty());
    }
}

//! The evaluation snapshot rules run against.
//!
//! A [`WatchInput`] is the same whether it was built live from a
//! `Recorder`'s metric set plus the driver's `EpochSeries`
//! ([`WatchInput::from_run`]) or reconstructed offline from an exported
//! JSONL trace ([`WatchInput::from_jsonl`]) — which is what makes the
//! in-loop and replay paths report identical alerts for the same run.
//!
//! The replay path leans on one driver convention: at every epoch
//! boundary the closed-loop driver emits its capacity / active-core
//! gauges first and an `epoch.corrupt_ops` gauge **last**, so seeing
//! `epoch.corrupt_ops` is the signal to snapshot the latest gauge values
//! into one [`EpochRow`].

use std::collections::BTreeMap;

use mercurial_metrics::{percentiles_of, EpochSeries};
use mercurial_trace::export::{read_jsonl, JsonlLine, JsonlMetric};
use mercurial_trace::{EventKind, MetricSet};

use crate::rule::Source;

/// One epoch's snapshot of the closed-loop telemetry columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Fleet hour at the **end** of the epoch (the hour the driver's
    /// boundary gauges carry).
    pub hour: f64,
    /// Schedulable fraction of nominal capacity.
    pub capacity: f64,
    /// Capacity including safe-task recovery.
    pub capacity_with_safetask: f64,
    /// Corruption events drawn during the epoch.
    pub corrupt_ops: f64,
    /// Ground-truth mercurial cores still in service.
    pub active_mercurial: f64,
}

/// The summary an exported histogram line carries — everything a rule can
/// watch about a histogram, identical between live and replayed inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistoSummary {
    /// Total samples observed.
    pub count: u64,
    /// Sum of finite samples.
    pub sum: f64,
    /// Median estimate, if any samples.
    pub p50: Option<f64>,
    /// 95th percentile estimate.
    pub p95: Option<f64>,
    /// 99th percentile estimate.
    pub p99: Option<f64>,
}

impl HistoSummary {
    /// The exported quantile for `q` ∈ {0.5, 0.95, 0.99}; `None` for other
    /// quantiles or when no samples were observed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if q == 0.5 {
            self.p50
        } else if q == 0.95 {
            self.p95
        } else if q == 0.99 {
            self.p99
        } else {
            None
        }
    }
}

/// Everything the evaluator sees about one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WatchInput {
    /// End-of-run counter values.
    pub counters: BTreeMap<String, f64>,
    /// Last-written gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistoSummary>,
    /// Per-epoch rows in epoch order.
    pub epochs: Vec<EpochRow>,
    /// Per-workload-class corrupt-ops per epoch (aligned with `epochs`),
    /// keyed by class name. Empty unless the run attributed per class —
    /// class-scoped rules report no data then.
    pub class_epochs: BTreeMap<String, Vec<f64>>,
}

impl WatchInput {
    /// Snapshot a live metric set (no epoch rows — callers that have a
    /// series use [`WatchInput::from_run`]).
    pub fn from_metrics(metrics: &MetricSet) -> WatchInput {
        let mut input = WatchInput::default();
        for (name, v) in metrics.counters() {
            input.counters.insert(name.to_string(), v as f64);
        }
        for (name, v) in metrics.gauges() {
            input.gauges.insert(name.to_string(), v);
        }
        for (name, h) in metrics.histograms() {
            let p = percentiles_of(h);
            input.histograms.insert(
                name.to_string(),
                HistoSummary {
                    count: h.count(),
                    sum: h.sum(),
                    p50: p.map(|p| p.p50),
                    p95: p.map(|p| p.p95),
                    p99: p.map(|p| p.p99),
                },
            );
        }
        input
    }

    /// The live-run snapshot: the recorder's metric set plus the driver's
    /// per-epoch series. Row hours are epoch-**end** hours, matching the
    /// boundary gauges an exported trace carries.
    pub fn from_run(metrics: &MetricSet, series: &EpochSeries) -> WatchInput {
        let mut input = WatchInput::from_metrics(metrics);
        input.epochs = series
            .points()
            .iter()
            .map(|p| EpochRow {
                hour: p.hour + series.epoch_hours(),
                capacity: p.capacity,
                capacity_with_safetask: p.capacity_with_safetask,
                corrupt_ops: p.corrupt_ops as f64,
                active_mercurial: p.active_mercurial as f64,
            })
            .collect();
        for (ix, name) in series.class_names().iter().enumerate() {
            input.class_epochs.insert(
                name.clone(),
                series
                    .class_points()
                    .iter()
                    .map(|row| row.get(ix).map_or(0.0, |c| c.corrupt_ops as f64))
                    .collect(),
            );
        }
        input
    }

    /// Reconstruct the snapshot from an exported JSONL trace (buffered or
    /// streamed — they are byte-identical): a fold over
    /// [`read_jsonl`]'s lines.
    ///
    /// # Errors
    ///
    /// Reports the first malformed line (with its 1-based line number).
    pub fn from_jsonl(text: &str) -> Result<WatchInput, String> {
        let mut input = WatchInput::default();
        // Latest gauge values seen in the event stream, snapshotted into a
        // row whenever the epoch-boundary marker gauge goes by.
        let mut live_gauges: BTreeMap<String, f64> = BTreeMap::new();
        for line in read_jsonl(text) {
            match line? {
                JsonlLine::Metric(name, JsonlMetric::Counter(v)) => {
                    input.counters.insert(name, v as f64);
                }
                JsonlLine::Metric(name, JsonlMetric::Gauge(v)) => {
                    input.gauges.insert(name, v);
                }
                JsonlLine::Metric(name, JsonlMetric::Histogram(h)) => {
                    let summary = HistoSummary {
                        count: h.count,
                        sum: h.sum,
                        p50: h.p50,
                        p95: h.p95,
                        p99: h.p99,
                    };
                    input.histograms.insert(name, summary);
                }
                // Of the events, only gauges matter for the replayed series.
                JsonlLine::Event(e) if e.kind == EventKind::Gauge => {
                    if e.name == "epoch.corrupt_ops" {
                        input.close_epoch(&live_gauges, e.hour, e.value);
                    }
                    live_gauges.insert(e.name, e.value);
                }
                JsonlLine::Event(_) => {}
            }
        }
        Ok(input)
    }

    /// Appends the epoch row the boundary marker `epoch.corrupt_ops`
    /// (`hour`, `corrupt_ops`) closes. The driver emits that gauge last at
    /// each epoch boundary, so the other columns are the latest values in
    /// `gauges`. Open-loop runs never sample the capacity gauges (capacity
    /// is flat at nominal), hence the 1.0 defaults.
    ///
    /// Per-class attribution gauges precede the boundary marker, so the
    /// latest `class.<name>.corrupt_ops` values belong to this row;
    /// classes first seen mid-run are backfilled with zeros to stay
    /// aligned.
    fn close_epoch(&mut self, gauges: &BTreeMap<String, f64>, hour: f64, corrupt_ops: f64) {
        let row_ix = self.epochs.len();
        for (k, v) in gauges {
            if let Some(class) = k
                .strip_prefix("class.")
                .and_then(|rest| rest.strip_suffix(".corrupt_ops"))
            {
                let series = self.class_epochs.entry(class.to_string()).or_default();
                series.resize(row_ix, 0.0);
                series.push(*v);
            }
        }
        let gauge = |name: &str, default: f64| gauges.get(name).copied().unwrap_or(default);
        self.epochs.push(EpochRow {
            hour,
            capacity: gauge("capacity.availability", 1.0),
            capacity_with_safetask: gauge("capacity.with_safetask", 1.0),
            corrupt_ops,
            active_mercurial: gauge("fleet.active_mercurial", 0.0),
        });
    }

    /// Resolve a rule source to its scalar value, `None` when the metric
    /// or column has no data.
    pub fn source_value(&self, source: &Source) -> Option<f64> {
        match source {
            Source::Counter(n) => self.counters.get(n).copied(),
            Source::Gauge(n) => self.gauges.get(n).copied(),
            Source::Quantile { histogram, q } => {
                self.histograms.get(histogram).and_then(|h| h.quantile(*q))
            }
            Source::EpochMax(f) => fold_rows(&self.epochs, *f, f64::max),
            Source::EpochMin(f) => fold_rows(&self.epochs, *f, f64::min),
            Source::EpochSum(f) => {
                if self.epochs.is_empty() {
                    None
                } else {
                    Some(self.epochs.iter().map(|r| f.of(r)).sum())
                }
            }
        }
    }

    /// The run's last epoch-boundary hour (0 when no epochs were seen) —
    /// the hour end-of-run alerts are stamped with.
    pub fn end_hour(&self) -> f64 {
        self.epochs.last().map_or(0.0, |r| r.hour)
    }
}

fn fold_rows(
    rows: &[EpochRow],
    field: crate::rule::EpochField,
    pick: fn(f64, f64) -> f64,
) -> Option<f64> {
    rows.iter().map(|r| field.of(r)).reduce(pick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::EpochField;
    use mercurial_trace::{Recorder, TraceLevel};

    fn sample_run() -> (MetricSet, EpochSeries) {
        let mut rec = Recorder::new(TraceLevel::Record);
        let mut series = EpochSeries::new(73.0);
        for epoch in 0..3u64 {
            let h1 = (epoch + 1) as f64 * 73.0;
            rec.counter_add("sim.corruptions", 5 + epoch);
            rec.observe("detect.latency_hours", 100.0 * (epoch + 1) as f64);
            rec.gauge(h1, "capacity.availability", 1.0 - 0.01 * epoch as f64);
            rec.gauge(h1, "capacity.with_safetask", 1.0 - 0.005 * epoch as f64);
            rec.gauge(h1, "fleet.active_mercurial", 4.0);
            rec.gauge(h1, "epoch.corrupt_ops", (5 + epoch) as f64);
            series.push(
                1.0 - 0.01 * epoch as f64,
                1.0 - 0.005 * epoch as f64,
                5 + epoch,
                4,
            );
        }
        (rec.finish().metrics, series)
    }

    #[test]
    fn from_run_and_from_jsonl_agree() {
        let mut rec = Recorder::new(TraceLevel::Record);
        let mut series = EpochSeries::new(73.0);
        for epoch in 0..3u64 {
            let h1 = (epoch + 1) as f64 * 73.0;
            rec.counter_add("sim.corruptions", 5 + epoch);
            rec.observe("detect.latency_hours", 100.0 * (epoch + 1) as f64);
            rec.gauge(h1, "capacity.availability", 1.0 - 0.01 * epoch as f64);
            rec.gauge(h1, "capacity.with_safetask", 1.0 - 0.005 * epoch as f64);
            rec.gauge(h1, "fleet.active_mercurial", 4.0);
            rec.gauge(h1, "epoch.corrupt_ops", (5 + epoch) as f64);
            series.push(
                1.0 - 0.01 * epoch as f64,
                1.0 - 0.005 * epoch as f64,
                5 + epoch,
                4,
            );
        }
        let trace = rec.finish();
        let live = WatchInput::from_run(&trace.metrics, &series);
        let replayed = WatchInput::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(live, replayed);
        assert_eq!(live.epochs.len(), 3);
        assert_eq!(live.epochs[2].hour, 219.0);
        assert_eq!(live.epochs[2].corrupt_ops, 7.0);
    }

    #[test]
    fn source_values_resolve() {
        let (metrics, series) = sample_run();
        let input = WatchInput::from_run(&metrics, &series);
        assert_eq!(
            input.source_value(&Source::Counter("sim.corruptions".into())),
            Some(18.0)
        );
        assert_eq!(
            input.source_value(&Source::Gauge("capacity.availability".into())),
            Some(0.98)
        );
        assert_eq!(
            input.source_value(&Source::EpochMax(EpochField::CorruptOps)),
            Some(7.0)
        );
        assert_eq!(
            input.source_value(&Source::EpochMin(EpochField::Capacity)),
            Some(0.98)
        );
        assert_eq!(
            input.source_value(&Source::EpochSum(EpochField::CorruptOps)),
            Some(18.0)
        );
        let p95 = input
            .source_value(&Source::Quantile {
                histogram: "detect.latency_hours".into(),
                q: 0.95,
            })
            .unwrap();
        assert!(p95 > 0.0);
        // Missing metrics and unexported quantiles resolve to no data.
        assert_eq!(input.source_value(&Source::Counter("nope".into())), None);
        assert_eq!(
            input.source_value(&Source::Quantile {
                histogram: "detect.latency_hours".into(),
                q: 0.9
            }),
            None
        );
        assert_eq!(input.end_hour(), 219.0);
    }

    #[test]
    fn empty_input_has_no_data_anywhere() {
        let input = WatchInput::default();
        assert_eq!(
            input.source_value(&Source::EpochMax(EpochField::CorruptOps)),
            None
        );
        assert_eq!(
            input.source_value(&Source::EpochSum(EpochField::CorruptOps)),
            None
        );
        assert_eq!(input.end_hour(), 0.0);
    }

    #[test]
    fn class_gauges_replay_into_class_epochs() {
        use mercurial_metrics::ClassPoint;
        let mut rec = Recorder::new(TraceLevel::Record);
        let mut series = EpochSeries::new(73.0);
        series.set_class_names(vec!["db".into(), "web".into()]);
        for epoch in 0..3u64 {
            let h1 = (epoch + 1) as f64 * 73.0;
            rec.gauge(h1, "fleet.active_mercurial", 4.0);
            rec.gauge(h1, "class.db.corrupt_ops", (10 * epoch) as f64);
            rec.gauge(h1, "class.web.corrupt_ops", (epoch + 1) as f64);
            rec.gauge(h1, "epoch.corrupt_ops", (11 * epoch) as f64);
            series.push(1.0, 1.0, 11 * epoch, 4);
            series.push_classes(vec![
                ClassPoint {
                    corrupt_ops: 10 * epoch,
                    ..ClassPoint::default()
                },
                ClassPoint {
                    corrupt_ops: epoch + 1,
                    ..ClassPoint::default()
                },
            ]);
        }
        let trace = rec.finish();
        let live = WatchInput::from_run(&trace.metrics, &series);
        let replayed = WatchInput::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(live, replayed);
        assert_eq!(live.class_epochs["db"], vec![0.0, 10.0, 20.0]);
        assert_eq!(live.class_epochs["web"], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn malformed_jsonl_reports_line() {
        let err = WatchInput::from_jsonl("{\"h\":1}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = WatchInput::from_jsonl("not json").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // Blank lines count toward the line number.
        let err = WatchInput::from_jsonl("\n\nnot json").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }
}

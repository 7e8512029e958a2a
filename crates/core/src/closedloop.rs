//! The closed-loop epoch driver: detect → quarantine → reschedule, every
//! epoch.
//!
//! The batch pipeline ([`PipelineRun`]) is *open loop*: the whole
//! observation window is simulated first, then screening, triage, and
//! quarantine are applied to the finished signal log — so a core the
//! screeners caught in month 2 keeps corrupting results until month 36.
//! That is not how §6 describes operations: "the first line of defense is
//! necessarily a robust infrastructure for detecting mercurial cores *as
//! quickly as possible*", and detections "become grounds for quarantining
//! those cores".
//!
//! [`ClosedLoopDriver`] interleaves everything at epoch granularity: each
//! epoch it (1) restores exonerated cores whose repair latency has
//! elapsed, (2) processes the deep-check verdict queue under a per-epoch
//! budget, (3) runs the due burn-in / offline / online screens, (4) steps
//! the workload simulation one epoch with quarantined cores masked out,
//! (5) ingests the epoch's signals into the suspicion scoreboard, and
//! (6) quarantines new threshold crossings. Confirmed cores leave the
//! workload mix mid-simulation (their corruption and signals stop) and
//! unit-aware safe-task placement ([`SafeTaskPolicy`]) recovers part of
//! the stranded capacity; exonerated cores return to service.
//!
//! Both loop shapes take one step: a full-range [`FleetShard`] steps the
//! whole fleet one epoch, under one run harness (recorder, ground-truth
//! onsets, alert engine, streaming sink, profiler) and one epoch boundary
//! (the histograms, gauges, series row and alert rules of the
//! aggregator's phase 7). They differ in how they finish the window:
//!
//! * **Feedback on**: the shard runs the due screens and a
//!   [`FleetAggregator`] closes the loop every epoch.
//! * **Feedback off** (`scenario.closed_loop.feedback == false`): the
//!   shard schedules no screens and nothing is ever masked, so the steps
//!   are [`mercurial_fleet::FleetSim::run`] bit for bit under the §4.1
//!   determinism contract, and the batch back half
//!   ([`PipelineRun::complete_from_signals`]) screens the finished log.
//!   The batch screeners are phase-major (each campaign scans the whole
//!   window before the next starts), which a time-major interleaving
//!   cannot reproduce — so the open loop equals the batch pipeline by
//!   construction, not by re-derivation.

use crate::experiment::FleetExperiment;
use crate::pipeline::{PipelineOutcome, PipelineRun};
use crate::scenario::Scenario;
use crate::shardloop::{
    record_ground_truth_onsets, watch_engine, EpochPoint, EpochTelemetry, FleetAggregator,
    FleetShard,
};
use mercurial_fleet::sim::SimSummary;
use mercurial_fleet::SignalLog;
use mercurial_metrics::EpochSeries;
use mercurial_prof::Prof;
use mercurial_trace::{Recorder, TraceSink};
use mercurial_watch::{Baseline, RuleSet, WatchReport};

/// Everything a closed-loop run produced: the familiar end-of-window
/// aggregates plus the per-epoch time series.
pub struct ClosedLoopOutcome {
    /// End-of-window aggregates, same shape as the open-loop pipeline's.
    pub pipeline: PipelineOutcome,
    /// Per-epoch capacity / residual-corruption / active-core telemetry.
    pub series: EpochSeries,
    /// Epochs simulated.
    pub epochs: u32,
    /// Epoch length in hours.
    pub epoch_hours: f64,
    /// Structured trace of the run (empty unless `scenario.trace.enabled`;
    /// when a streaming sink drained the run, events live in the sink's
    /// output and only the metric set remains here).
    pub trace: mercurial_trace::Trace,
    /// Alert readout (`None` unless rules were supplied via
    /// [`RunOptions::rules`] or `scenario.watch.enabled`).
    pub watch: Option<WatchReport>,
}

/// Optional attachments for a closed-loop run: alert rules, a cross-run
/// baseline for regression rules, and a streaming trace sink.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Alert rules to evaluate in-loop. `None` falls back to the
    /// scenario's `watch` block (or no evaluation when that is off).
    pub rules: Option<RuleSet>,
    /// Baseline for regression rules (without one they report
    /// "no baseline" and never fire).
    pub baseline: Option<&'a Baseline>,
    /// Streaming sink drained at every epoch boundary. With a sink
    /// attached the outcome's `trace.events` is empty — events live in
    /// the sink's output, byte-identical to the buffered export.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Wall-clock phase profiler. Readings are write-only observability
    /// — they never feed sim-visible state — so attaching a profiler
    /// leaves every output bit-for-bit identical (pinned by
    /// `tests/prof_parity.rs`). `None` profiles nothing at the cost of
    /// one branch per phase.
    pub prof: Option<&'a Prof>,
}

/// The closed-loop driver.
pub struct ClosedLoopDriver;

impl ClosedLoopDriver {
    /// Executes the closed-loop pipeline for a scenario.
    pub fn execute(scenario: &Scenario) -> ClosedLoopOutcome {
        let experiment = FleetExperiment::build(scenario);
        ClosedLoopDriver::execute_on(scenario, &experiment)
    }

    /// Executes on a prebuilt experiment.
    pub fn execute_on(scenario: &Scenario, experiment: &FleetExperiment) -> ClosedLoopOutcome {
        ClosedLoopDriver::execute_with(scenario, experiment, RunOptions::default())
    }

    /// Executes on a prebuilt experiment with run attachments: alert
    /// rules (evaluated at every epoch boundary), a regression baseline,
    /// and/or a streaming trace sink.
    ///
    /// Either way the fleet steps as one full-range [`FleetShard`]. With
    /// feedback on, the shard runs in lockstep with a [`FleetAggregator`]
    /// sharing a single recorder. This is exactly the service
    /// decomposition `mercurial-serve` runs across processes; here the
    /// "wire" is a function call, which pins the in-process loop and the
    /// zero-impairment served run to the same code path.
    pub fn execute_with(
        scenario: &Scenario,
        experiment: &FleetExperiment,
        mut opts: RunOptions<'_>,
    ) -> ClosedLoopOutcome {
        let disabled_prof = Prof::disabled();
        let prof = opts.prof.unwrap_or(&disabled_prof);
        let mut rec = scenario.recorder();
        record_ground_truth_onsets(experiment, &mut rec);
        let engine = watch_engine(scenario, &opts.rules);
        let machines = experiment.topology().config().machines;
        let mut shard = FleetShard::new(scenario, experiment, 0, machines);
        let finished = if scenario.closed_loop.feedback {
            let mut agg = FleetAggregator::new(scenario, experiment, engine);
            while !agg.is_done() {
                let cmds = agg.begin_epoch(&mut rec, prof);
                shard.apply_commands(&cmds);
                let report = shard.step_epoch(&mut rec, prof);
                agg.ingest_reports(vec![report], &mut rec, prof);
                drain(&mut opts.sink, &mut rec, prof);
            }
            agg.finish(&mut rec, &[], opts.baseline, prof)
        } else {
            // Nothing leaves service mid-window: capacity stays flat at
            // 1.0 and every defect stays active.
            let epoch_hours = scenario.sim.epoch_hours;
            let mut telemetry = EpochTelemetry::new(scenario, experiment.sim(), engine);
            let mut log = SignalLog::new();
            let mut summary = SimSummary::default();
            while !shard.is_done() {
                let report = shard.step_epoch(&mut rec, prof);
                telemetry.record(
                    EpochPoint {
                        hour: f64::from(report.epoch) * epoch_hours + epoch_hours,
                        capacity: 1.0,
                        capacity_with_safetask: 1.0,
                        corrupt_ops: report.corruptions_delta,
                        raw_signals: report.raw_signals_delta,
                        active_mercurial: report.active_deployed_mercurial,
                        classes: &report.class_deltas,
                    },
                    &mut rec,
                    prof,
                );
                summary = report.summary;
                log.append(report.evidence);
                drain(&mut opts.sink, &mut rec, prof);
            }
            log.sort_by_time();
            // The batch back half runs untraced unless the recorder
            // audits — the plain traced open loop stays bit-for-bit with
            // its pre-audit exports.
            let batch_span = prof.span("pipeline.batch");
            let mut untraced = Recorder::disabled();
            let batch_rec = if rec.audits() {
                &mut rec
            } else {
                &mut untraced
            };
            let pipeline = PipelineRun::complete_from_signals_traced(
                scenario, experiment, log, summary, batch_rec,
            );
            drop(batch_span);
            for latency in &pipeline.detection_latency_hours {
                rec.observe("detect.latency_hours", *latency);
            }
            telemetry.finish(pipeline, &mut rec, &[], opts.baseline, prof)
        };
        if let Some(s) = opts.sink.as_mut() {
            s.finish(&mut rec).expect("stream sink finish");
        }
        ClosedLoopOutcome {
            pipeline: finished.pipeline,
            series: finished.series,
            epochs: experiment.sim().epochs(),
            epoch_hours: scenario.sim.epoch_hours,
            trace: rec.finish(),
            watch: finished.watch,
        }
    }
}

/// Drains the epoch's trace events into the streaming sink, if any.
fn drain(sink: &mut Option<&mut dyn TraceSink>, rec: &mut Recorder, prof: &Prof) {
    if let Some(s) = sink.as_mut() {
        let _p = prof.span("trace.drain");
        s.drain(rec).expect("stream sink drain");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurial_fleet::SignalKind;
    use mercurial_isolation::CoreState;

    fn feedback_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::demo(seed);
        s.closed_loop.feedback = true;
        s
    }

    #[test]
    fn open_loop_stepped_series_covers_the_window() {
        let scenario = Scenario::small(41);
        let out = ClosedLoopDriver::execute(&scenario);
        assert_eq!(out.series.len() as u32, out.epochs);
        assert!((out.series.min_capacity() - 1.0).abs() < 1e-12);
        assert_eq!(
            out.series.total_corrupt_ops(),
            out.pipeline.sim_summary.corruptions
        );
    }

    #[test]
    fn feedback_quarantines_and_recovers_capacity() {
        let scenario = feedback_scenario(42);
        let out = ClosedLoopDriver::execute(&scenario);
        assert!(
            !out.pipeline.detections.is_empty(),
            "demo fleet must yield detections"
        );
        // Capacity steps down at confirmations...
        assert!(out.series.min_capacity() < 1.0);
        // ...and safe-task placement claws part of it back.
        let last = out.series.points().last().expect("non-empty series");
        assert!(last.capacity_with_safetask > last.capacity);
        assert!(last.capacity_with_safetask <= 1.0 + 1e-12);
        // Confirmed cores match the ledger's loss.
        assert_eq!(
            out.pipeline.capacity.lost_cores as usize,
            out.pipeline.registry.in_state(CoreState::Confirmed).len()
                + out.pipeline.registry.in_state(CoreState::Quarantined).len()
                + out.pipeline.registry.in_state(CoreState::Exonerated).len()
        );
    }

    #[test]
    fn no_signal_attributed_after_confirmation() {
        let scenario = feedback_scenario(43);
        let out = ClosedLoopDriver::execute(&scenario);
        let registry = &out.pipeline.registry;
        let confirmed = registry.in_state(CoreState::Confirmed);
        assert!(!confirmed.is_empty(), "demo fleet must confirm cores");
        for core in confirmed {
            let confirm = registry
                .history(core)
                .iter()
                .find(|t| t.to == CoreState::Confirmed)
                .expect("confirm transition recorded")
                .hour;
            for s in out.pipeline.signals.all().iter().filter(|s| s.core == core) {
                assert!(
                    s.hour <= confirm,
                    "signal at {} after confirmation at {confirm}",
                    s.hour
                );
            }
        }
    }

    #[test]
    fn closed_loop_reduces_residual_corruption() {
        let scenario = Scenario::demo(44);
        let open = ClosedLoopDriver::execute(&scenario);
        let mut with_feedback = scenario.clone();
        with_feedback.closed_loop.feedback = true;
        let closed = ClosedLoopDriver::execute(&with_feedback);
        assert!(
            closed.pipeline.sim_summary.corruptions < open.pipeline.sim_summary.corruptions,
            "closed {} must corrupt less than open {}",
            closed.pipeline.sim_summary.corruptions,
            open.pipeline.sim_summary.corruptions
        );
    }

    #[test]
    fn user_report_signal_kinds_survive_the_loop() {
        // The pruning must not eat the noise haystack wholesale.
        let out = ClosedLoopDriver::execute(&feedback_scenario(45));
        assert!(out
            .pipeline
            .signals
            .all()
            .iter()
            .any(|s| s.kind == SignalKind::UserReport && !s.caused_by_cee));
        assert_eq!(
            out.pipeline.sim_summary.signals_emitted as usize,
            out.pipeline
                .signals
                .all()
                .iter()
                .filter(|s| s.kind != SignalKind::ScreenerFailure)
                .count()
        );
    }
}

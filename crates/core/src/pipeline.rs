//! The full §6 pipeline: signals → screening → suspects → quarantine →
//! triage → capacity.
//!
//! This is the loop the paper describes operationally: automated screeners
//! and production signals both feed suspicion; suspicious cores are
//! quarantined and deeply checked; confessions confirm and retire cores;
//! non-reproducing suspects are exonerated and restored; and the
//! scheduler's capacity ledger tracks what the fleet lost along the way.

use crate::experiment::FleetExperiment;
use crate::scenario::Scenario;
use mercurial_fault::{CoreUid, FastSet};
use mercurial_fleet::sim::SimSummary;
use mercurial_fleet::{FleetTopology, Population, SignalLog};
use mercurial_isolation::{CapacityLedger, PoolCapacity, QuarantineRegistry};
use mercurial_screening::{
    BurnIn, DetectionRecord, HumanTriage, OfflineScreener, OnlineScreener, Scoreboard,
    ScreeningStats, TriageStats,
};
use mercurial_trace::Recorder;
use std::collections::HashSet;

/// Everything the pipeline produced.
pub struct PipelineOutcome {
    /// All confirmed detections, any method, sorted by hour.
    pub detections: Vec<DetectionRecord>,
    /// Burn-in cost/coverage.
    pub burnin_stats: ScreeningStats,
    /// Offline campaign cost/coverage.
    pub offline_stats: ScreeningStats,
    /// Online campaign cost/coverage.
    pub online_stats: ScreeningStats,
    /// Human-triage statistics (the ≈50% confirmation claim lives here).
    pub triage_stats: TriageStats,
    /// Final quarantine state of every touched core.
    pub registry: QuarantineRegistry,
    /// Final pool capacity.
    pub capacity: PoolCapacity,
    /// The complete signal log (workload signals + screener failures).
    pub signals: SignalLog,
    /// Workload-simulation summary.
    pub sim_summary: SimSummary,
    /// Ground truth: mercurial cores in the fleet.
    pub ground_truth: usize,
    /// Detected cores that are genuinely mercurial.
    pub detected_true: usize,
    /// Innocent cores that were quarantined (and later exonerated).
    pub exonerated_innocents: usize,
    /// Detection latency per true detection: hours from the defect being
    /// *active in service* (deploy or onset, whichever is later) to
    /// detection.
    pub detection_latency_hours: Vec<f64>,
}

impl PipelineOutcome {
    /// Recall: fraction of ground-truth mercurial cores detected.
    pub fn recall(&self) -> f64 {
        if self.ground_truth == 0 {
            return 1.0;
        }
        self.detected_true as f64 / self.ground_truth as f64
    }

    /// Median detection latency in hours, if any detections. Even-length
    /// samples average the two middle values.
    pub fn median_latency_hours(&self) -> Option<f64> {
        median(&self.detection_latency_hours)
    }
}

/// The sample median: middle element for odd lengths, mean of the two
/// middle elements for even lengths, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        Some(v[mid])
    } else {
        Some((v[mid - 1] + v[mid]) / 2.0)
    }
}

/// The pipeline driver.
pub struct PipelineRun;

impl PipelineRun {
    /// Executes the whole pipeline for a scenario.
    pub fn execute(scenario: &Scenario) -> PipelineOutcome {
        let experiment = FleetExperiment::build(scenario);
        PipelineRun::execute_on(scenario, &experiment)
    }

    /// Executes on a prebuilt experiment (case studies use explicit
    /// populations).
    pub fn execute_on(scenario: &Scenario, experiment: &FleetExperiment) -> PipelineOutcome {
        // 1. Production signals from the workload simulation.
        let (signals, sim_summary) = experiment.run_signals();
        PipelineRun::complete_from_signals(scenario, experiment, signals, sim_summary)
    }

    /// Runs the post-simulation stages (screening → scoreboard → triage →
    /// quarantine → capacity → scoring) over an already-produced signal
    /// log. This is the batch pipeline's phase-major back half; the
    /// closed-loop driver reuses it when feedback is disabled so both
    /// entry points share one implementation.
    pub fn complete_from_signals(
        scenario: &Scenario,
        experiment: &FleetExperiment,
        signals: SignalLog,
        sim_summary: SimSummary,
    ) -> PipelineOutcome {
        // A disabled recorder turns every provenance emission below into a
        // no-op, and the registry's untraced ops are themselves defined as
        // the traced ops over a disabled recorder — so this is the same
        // computation, bit for bit.
        Self::complete_from_signals_traced(
            scenario,
            experiment,
            signals,
            sim_summary,
            &mut Recorder::disabled(),
        )
    }

    /// [`PipelineRun::complete_from_signals`] into `rec`: every suspect
    /// flag, quarantine, triage verdict, exoneration, and restore lands in
    /// the trace exactly as the closed-loop driver would record it, and an
    /// auditing recorder also gets the signal ingests and `audit.*`
    /// counters the audit ledger needs.
    pub fn complete_from_signals_traced(
        scenario: &Scenario,
        experiment: &FleetExperiment,
        mut signals: SignalLog,
        sim_summary: SimSummary,
        rec: &mut Recorder,
    ) -> PipelineOutcome {
        let topo = experiment.topology();
        let pop = experiment.population();
        let tuning = &scenario.tuning;

        // 2. Automated screening: burn-in, then offline + online campaigns
        //    sharing one detected set (a core caught once is quarantined
        //    and not rescreened).
        let mut detected: FastSet<CoreUid> = FastSet::default();
        // The scenario's fuzz_corpus knob decides whether this is the
        // hand-written default history or the fuzz-augmented schedule.
        let schedule = experiment.screening_schedule();
        let burnin = BurnIn {
            schedule: schedule.clone(),
            ops_multiplier: tuning.burnin_ops_multiplier,
        };
        let (mut detections, burnin_stats) = burnin.run(topo, pop, &mut detected, &mut signals);
        let offline = OfflineScreener {
            schedule: schedule.clone(),
            interval_hours: scenario.offline_interval_hours,
            fraction_per_sweep: scenario.offline_fraction,
            drain_hours_per_machine: tuning.offline_drain_hours_per_machine,
        };
        let (offline_detections, offline_stats) =
            offline.run(topo, pop, scenario.sim.months, &mut detected, &mut signals);
        detections.extend(offline_detections);
        let online = OnlineScreener {
            schedule: schedule.clone(),
            interval_hours: scenario.online_interval_hours,
            ops_fraction: tuning.online_ops_fraction,
        };
        let (online_detections, online_stats) =
            online.run(topo, pop, scenario.sim.months, &mut detected, &mut signals);
        detections.extend(online_detections);
        if !detections.is_empty() {
            rec.audit_add("audit.screen_detections", detections.len() as u64);
        }

        // 3. Production-signal suspicion: the scoreboard accumulates every
        //    signal; cores crossing the threshold (and not already caught
        //    by a screener) go to human triage. The scoreboard is dropped
        //    as soon as the suspects are out, before the rest of the back
        //    half allocates.
        let mut scoreboard = Scoreboard::new();
        scoreboard.ingest_all(signals.all().iter(), rec);
        let suspects: Vec<(CoreUid, f64)> = scoreboard
            .suspects_excluding(scenario.suspicion_threshold, |core| {
                detected.contains(&core)
            })
            .into_iter()
            .map(|s| (s.core, s.last_hour))
            .collect();
        drop(scoreboard);

        // 4. Human triage extracts confessions.
        let triage = HumanTriage::default();
        let (triage_detections, triage_stats) = triage.investigate_all(topo, pop, &suspects);

        // 5. Quarantine bookkeeping. Screener detections are proof (a
        //    controlled test failed): suspect → quarantine → confirm.
        let mut registry = QuarantineRegistry::new();
        for d in &detections {
            registry
                .mark_suspect(d.core, d.hour, "screener failure", rec)
                .and_then(|()| registry.quarantine(d.core, d.hour, "controlled test failed", rec))
                .and_then(|()| registry.confirm(d.core, d.hour, "screen reproduced defect", rec))
                .expect("fresh core walks the legal path");
        }
        //    Triage suspects were quarantined on suspicion, then either
        //    confirmed or exonerated.
        let mut exonerated_innocents = 0usize;
        let confirmed_by_triage: HashSet<CoreUid> =
            triage_detections.iter().map(|d| d.core).collect();
        for &(core, hour) in &suspects {
            registry
                .mark_suspect(core, hour, "signal concentration", rec)
                .and_then(|()| registry.quarantine(core, hour, "suspicion threshold", rec))
                .expect("fresh core walks the legal path");
            if confirmed_by_triage.contains(&core) {
                let confirm_hour = hour + tuning.triage_latency_hours;
                registry
                    .confirm(core, confirm_hour, "triage confession", rec)
                    .expect("quarantined core can confirm");
                rec.instant(confirm_hour, "detect.triage", Some(core.as_u64()), 0.0);
            } else {
                registry
                    .exonerate(
                        core,
                        hour + tuning.triage_latency_hours,
                        "nothing reproduced",
                        rec,
                    )
                    .expect("quarantined core can exonerate");
                registry
                    .restore(
                        core,
                        hour + tuning.restore_latency_hours,
                        "returned to pool",
                        rec,
                    )
                    .expect("exonerated core can restore");
                if !pop.is_mercurial(core) {
                    exonerated_innocents += 1;
                }
            }
        }
        detections.extend(triage_detections);
        detections.sort_by(|a, b| a.hour.partial_cmp(&b.hour).expect("hours are finite"));

        // 6. Capacity accounting: confirmed cores leave the pool.
        let mut ledger = CapacityLedger::new(topo.total_cores());
        //    The batch trace stops at the registry: capacity moves untraced.
        for core in registry.in_state(mercurial_isolation::CoreState::Confirmed) {
            let hour = registry.history(core).last().map_or(0.0, |t| t.hour);
            let nominal = topo.cores_on(core.machine);
            ledger.remove_core(core, nominal, hour, &mut Recorder::disabled());
        }

        // 7. Scoring against ground truth.
        let (detected_true, detection_latency_hours) = score_detections(&detections, topo, pop);

        PipelineOutcome {
            detections,
            burnin_stats,
            offline_stats,
            online_stats,
            triage_stats,
            capacity: ledger.pool(),
            registry,
            signals,
            sim_summary,
            ground_truth: pop.count(),
            detected_true,
            exonerated_innocents,
            detection_latency_hours,
        }
    }
}

/// Scores `detections` against ground truth: the number of distinct
/// detected cores that really are mercurial, and, in detection order,
/// each mercurial detection's latency in hours.
pub(crate) fn score_detections(
    detections: &[DetectionRecord],
    topo: &FleetTopology,
    pop: &Population,
) -> (usize, Vec<f64>) {
    let detected_cores: HashSet<CoreUid> = detections.iter().map(|d| d.core).collect();
    let detected_true = detected_cores
        .iter()
        .filter(|c| pop.is_mercurial(**c))
        .count();
    let latency_hours = detections
        .iter()
        .filter_map(|d| {
            let profile = pop.profile_of(d.core)?;
            let deploy = topo.deploy_hour(d.core.machine);
            // The defect only threatens production once the machine is
            // deployed AND the (possibly latent) defect has onset.
            let active_from = deploy + profile.earliest_onset_hours().max(0.0);
            Some((d.hour - active_from).max(0.0))
        })
        .collect();
    (detected_true, latency_hours)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurial_fleet::SignalKind;

    #[test]
    fn median_averages_the_two_middle_values() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        // Even length: the old implementation returned the upper middle
        // element (3.0 here); the median of [1, 2, 3, 4] is 2.5.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[10.0, 20.0]), Some(15.0));
    }

    #[test]
    fn pipeline_detects_most_of_the_population() {
        let scenario = Scenario::small(11);
        let outcome = PipelineRun::execute(&scenario);
        assert!(outcome.ground_truth > 0, "seeded fleet should have defects");
        // The combined pipeline should find a solid majority of active
        // defects in 18 months (latent ones past the window excepted).
        assert!(
            outcome.recall() >= 0.4,
            "recall {} with {} ground truth",
            outcome.recall(),
            outcome.ground_truth
        );
        // No innocent core is ever *confirmed* (screens are exact).
        assert_eq!(
            outcome.detected_true,
            outcome
                .detections
                .iter()
                .map(|d| d.core)
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn pipeline_capacity_loss_is_tiny() {
        let scenario = Scenario::small(12);
        let outcome = PipelineRun::execute(&scenario);
        // Quarantining a few cores out of ~100k is negligible capacity.
        assert!(outcome.capacity.availability() > 0.999);
        assert_eq!(outcome.capacity.lost_cores as usize, {
            outcome
                .registry
                .in_state(mercurial_isolation::CoreState::Confirmed)
                .len()
        });
    }

    #[test]
    fn pipeline_is_deterministic() {
        let scenario = Scenario::small(13);
        let a = PipelineRun::execute(&scenario);
        let b = PipelineRun::execute(&scenario);
        assert_eq!(a.detections.len(), b.detections.len());
        assert_eq!(a.detected_true, b.detected_true);
        assert_eq!(a.triage_stats, b.triage_stats);
    }

    #[test]
    fn detections_are_time_sorted() {
        let scenario = Scenario::small(14);
        let outcome = PipelineRun::execute(&scenario);
        for w in outcome.detections.windows(2) {
            assert!(w[0].hour <= w[1].hour);
        }
    }

    #[test]
    fn signals_include_screener_failures_after_pipeline() {
        let scenario = Scenario::small(15);
        let outcome = PipelineRun::execute(&scenario);
        if !outcome.detections.is_empty() {
            assert!(outcome
                .signals
                .all()
                .iter()
                .any(|s| s.kind == SignalKind::ScreenerFailure));
        }
    }
}

//! The §6 detection stack as one integrated flow: raw fleet signals →
//! report service → concentration test → scoreboard → triage →
//! quarantine. This is the paper's operational loop assembled from its
//! parts, with ground truth checked at each stage.

use mercurial::prelude::*;
use mercurial::trace::Recorder;
use mercurial_fleet::SignalKind;
use mercurial_screening::{ConcentrationConfig, ReportService, Scoreboard, SuspectVerdict};

/// Builds a demo fleet, feeds its signal stream through the report
/// service, and checks that concentration-flagged suspects are
/// overwhelmingly genuine while the flood of background noise flags
/// (almost) nobody.
#[test]
fn report_service_concentrates_on_real_defects() {
    let scenario = Scenario::demo(301);
    let experiment = FleetExperiment::build(&scenario);
    if experiment.population().count() == 0 {
        return;
    }
    let (log, _) = experiment.run_signals();
    let total_cores = experiment.topology().total_cores();

    let mut svc = ReportService::new(
        total_cores,
        24.0 * 30.0, // one-month window
        ConcentrationConfig::default(),
    );
    // Applications report every observable corruption signal they see.
    for s in log.all() {
        if matches!(
            s.kind,
            SignalKind::AppChecksumMismatch
                | SignalKind::ReplicaDivergence
                | SignalKind::UserReport
        ) {
            svc.report(s.hour, s.core);
        }
    }
    let horizon = scenario.window_hours();
    let suspects = svc.suspects(horizon);
    // Everyone the concentration test flags at the end of the window
    // should be genuinely mercurial: noise does not concentrate.
    for s in &suspects {
        assert!(
            experiment.population().is_mercurial(s.core),
            "concentration flagged innocent core {}",
            s.core
        );
        assert_eq!(svc.verdict(s.core, horizon), SuspectVerdict::Suspect);
    }
}

/// The scoreboard's top suspect across a busy fleet is a real mercurial
/// core, and screener evidence outweighs crash noise.
#[test]
fn scoreboard_ranks_real_defects_first() {
    let scenario = Scenario::demo(302);
    let experiment = FleetExperiment::build(&scenario);
    if experiment.population().count() == 0 {
        return;
    }
    let (log, _) = experiment.run_signals();
    let mut board = Scoreboard::new();
    board.ingest_all(log.all().iter(), &mut Recorder::disabled());
    let suspects = board.suspects(0.8);
    if suspects.is_empty() {
        return; // quiet seed: nothing crossed the threshold
    }
    // The strongest suspect must be genuinely defective.
    assert!(
        experiment.population().is_mercurial(suspects[0].core),
        "top suspect {} is innocent",
        suspects[0].core
    );
}

/// Quarantining every pipeline detection leaves the registry and the
/// capacity ledger mutually consistent.
#[test]
fn pipeline_quarantine_bookkeeping_is_consistent() {
    let scenario = Scenario::demo(303);
    let outcome = mercurial::pipeline::PipelineRun::execute(&scenario);
    let confirmed = outcome.registry.in_state(CoreState::Confirmed);
    assert_eq!(confirmed.len() as u64, outcome.capacity.lost_cores);
    for core in confirmed {
        assert!(!outcome.registry.is_schedulable(core));
        // Every confirmed core has an audit trail ending in Confirmed.
        let history = outcome.registry.history(core);
        assert!(!history.is_empty());
        assert_eq!(history.last().unwrap().to, CoreState::Confirmed);
    }
    // Exonerated-and-restored cores are schedulable again.
    for core in outcome.registry.in_state(CoreState::Healthy) {
        assert!(outcome.registry.is_schedulable(core));
    }
}

/// Detection latency is finite and bounded by the observation window for
/// every detection the pipeline reports.
#[test]
fn detection_latencies_are_sane() {
    let scenario = Scenario::demo(304);
    let outcome = mercurial::pipeline::PipelineRun::execute(&scenario);
    for &latency in &outcome.detection_latency_hours {
        assert!(latency.is_finite());
        assert!(latency >= 0.0);
        assert!(latency <= scenario.window_hours());
    }
    if let Some(median) = outcome.median_latency_hours() {
        assert!(median <= scenario.window_hours());
    }
}

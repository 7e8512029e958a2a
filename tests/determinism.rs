//! Reproducibility: every layer of the laboratory is a pure function of
//! its seed, so experiments can be replayed bit-for-bit. (This is also
//! what makes the *paper's* world so hard: production has no seeds.)

use mercurial::fig1::run_fig1;
use mercurial::pipeline::PipelineRun;
use mercurial::prelude::*;

#[test]
fn pipelines_replay_identically() {
    let scenario = Scenario::demo(1234);
    let a = PipelineRun::execute(&scenario);
    let b = PipelineRun::execute(&scenario);
    assert_eq!(a.detections, b.detections);
    assert_eq!(a.triage_stats, b.triage_stats);
    assert_eq!(a.sim_summary, b.sim_summary);
    assert_eq!(a.signals.len(), b.signals.len());
    assert_eq!(a.capacity, b.capacity);
}

#[test]
fn fig1_csv_replays_identically() {
    let scenario = Scenario::demo(777);
    let a = run_fig1(&scenario).to_csv();
    let b = run_fig1(&scenario).to_csv();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = PipelineRun::execute(&Scenario::demo(1));
    let b = PipelineRun::execute(&Scenario::demo(2));
    // Populations differ, so at minimum the signal volume differs.
    assert_ne!(
        (a.ground_truth, a.signals.len()),
        (b.ground_truth, b.signals.len()),
        "distinct seeds should produce observably different fleets"
    );
}

/// Scenario-level fan-out returns outcomes in input order, identical to
/// serial execution.
#[test]
fn execute_many_matches_serial_execution() {
    let scenarios: Vec<Scenario> = [21u64, 22, 23]
        .iter()
        .map(|&s| Scenario::small(s))
        .collect();
    let fanned = PipelineRun::execute_many(&scenarios, 4);
    assert_eq!(fanned.len(), scenarios.len());
    for (scenario, outcome) in scenarios.iter().zip(&fanned) {
        let serial = PipelineRun::execute(scenario);
        assert_eq!(outcome.detections, serial.detections);
        assert_eq!(outcome.sim_summary, serial.sim_summary);
        assert_eq!(outcome.detected_true, serial.detected_true);
    }
}

#[test]
fn scenario_json_preserves_behavior() {
    let scenario = Scenario::demo(55);
    let roundtripped = Scenario::from_json(&scenario.to_json()).unwrap();
    let a = PipelineRun::execute(&scenario);
    let b = PipelineRun::execute(&roundtripped);
    assert_eq!(a.detections, b.detections);
}

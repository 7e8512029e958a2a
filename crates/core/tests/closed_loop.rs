//! Integration contracts of the closed-loop epoch driver.
//!
//! Two properties anchor the refactor:
//!
//! 1. **Open-loop equivalence** — with feedback disabled the driver must
//!    reproduce the batch pipeline's `PipelineOutcome` bit for bit; the
//!    stepped simulation and the batch back half are the same computation.
//! 2. **Feedback semantics** — confirmed cores fall silent after their
//!    confirmation hour, capacity steps down when cores leave the mix and
//!    is partially recovered by safe-task placement, and the residual
//!    corruption is strictly below the open loop's.

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::pipeline::PipelineRun;
use mercurial::Scenario;
use mercurial_isolation::CoreState;

/// Field-by-field equality of two pipeline outcomes (`PipelineOutcome`
/// holds a `QuarantineRegistry`, which has no `PartialEq`; compare its
/// observable state instead).
fn assert_outcomes_identical(
    a: &mercurial::PipelineOutcome,
    b: &mercurial::PipelineOutcome,
    context: &str,
) {
    assert_eq!(a.detections, b.detections, "{context}: detections");
    assert_eq!(a.burnin_stats, b.burnin_stats, "{context}: burnin stats");
    assert_eq!(a.offline_stats, b.offline_stats, "{context}: offline stats");
    assert_eq!(a.online_stats, b.online_stats, "{context}: online stats");
    assert_eq!(a.triage_stats, b.triage_stats, "{context}: triage stats");
    assert_eq!(a.capacity, b.capacity, "{context}: capacity");
    assert_eq!(a.signals.all(), b.signals.all(), "{context}: signals");
    assert_eq!(
        a.sim_summary.corruptions, b.sim_summary.corruptions,
        "{context}: corruptions"
    );
    assert_eq!(
        a.sim_summary.signals_emitted, b.sim_summary.signals_emitted,
        "{context}: signals emitted"
    );
    assert_eq!(a.ground_truth, b.ground_truth, "{context}: ground truth");
    assert_eq!(a.detected_true, b.detected_true, "{context}: detected true");
    assert_eq!(
        a.exonerated_innocents, b.exonerated_innocents,
        "{context}: exonerated innocents"
    );
    assert_eq!(
        a.detection_latency_hours, b.detection_latency_hours,
        "{context}: latencies"
    );
    for state in [
        CoreState::Suspect,
        CoreState::Quarantined,
        CoreState::Confirmed,
        CoreState::Exonerated,
        CoreState::Healthy,
        CoreState::Retired,
    ] {
        assert_eq!(
            a.registry.in_state(state),
            b.registry.in_state(state),
            "{context}: registry {state:?}"
        );
    }
}

#[test]
fn feedback_off_reproduces_the_batch_pipeline_bit_for_bit() {
    for seed in [3, 17] {
        let scenario = Scenario::small(seed);
        assert!(!scenario.closed_loop.feedback, "default must be open loop");
        let batch = PipelineRun::execute(&scenario);
        let stepped = ClosedLoopDriver::execute(&scenario);
        assert_outcomes_identical(&batch, &stepped.pipeline, &format!("seed {seed}"));
    }
}

#[test]
fn confirmed_cores_fall_silent_and_leave_the_workload_mix() {
    let mut scenario = Scenario::demo(29);
    scenario.closed_loop.feedback = true;
    let out = ClosedLoopDriver::execute(&scenario);
    let confirmed = out.pipeline.registry.in_state(CoreState::Confirmed);
    assert!(!confirmed.is_empty(), "demo fleet must confirm cores");
    for core in confirmed {
        let confirm_hour = out
            .pipeline
            .registry
            .history(core)
            .iter()
            .find(|t| t.to == CoreState::Confirmed)
            .expect("confirm transition recorded")
            .hour;
        let late = out
            .pipeline
            .signals
            .all()
            .iter()
            .filter(|s| s.core == core && s.hour > confirm_hour)
            .count();
        assert_eq!(
            late, 0,
            "core {core:?} has {late} signals after confirmation at {confirm_hour}"
        );
    }
    // Fewer live defects at window end than the open loop leaves (the
    // fleet keeps rolling out new defective cores, so compare against the
    // no-feedback run rather than this run's own peak).
    let open = ClosedLoopDriver::execute(&Scenario::demo(29));
    let last = out.series.points().last().expect("non-empty series");
    let open_last = open.series.points().last().expect("non-empty series");
    assert!(
        last.active_mercurial < open_last.active_mercurial,
        "feedback must retire defects: closed end {} vs open end {}",
        last.active_mercurial,
        open_last.active_mercurial
    );
}

#[test]
fn capacity_steps_down_at_confirmations_and_safetask_recovers_some() {
    let mut scenario = Scenario::demo(31);
    scenario.closed_loop.feedback = true;
    let out = ClosedLoopDriver::execute(&scenario);
    let points = out.series.points();
    // Monotone non-increasing except at explicit restorations; the series
    // must actually step below 1.0 once something is confirmed.
    assert!(out.series.min_capacity() < 1.0, "capacity must step down");
    for p in points {
        assert!(
            p.capacity_with_safetask >= p.capacity - 1e-12,
            "epoch {}: safe-task capacity below base",
            p.epoch
        );
        assert!(p.capacity <= 1.0 + 1e-12 && p.capacity_with_safetask <= 1.0 + 1e-12);
    }
    // Safe-task placement recovered a strictly positive share by the end.
    let last = points.last().expect("non-empty series");
    assert!(
        last.capacity_with_safetask > last.capacity,
        "safe-task recovery must be visible at window end"
    );
}

#[test]
fn feedback_strictly_reduces_residual_corruption() {
    for seed in [37, 41] {
        let scenario = Scenario::demo(seed);
        let open = ClosedLoopDriver::execute(&scenario);
        let mut fb = scenario.clone();
        fb.closed_loop.feedback = true;
        let closed = ClosedLoopDriver::execute(&fb);
        assert!(
            closed.pipeline.sim_summary.corruptions < open.pipeline.sim_summary.corruptions,
            "seed {seed}: closed {} !< open {}",
            closed.pipeline.sim_summary.corruptions,
            open.pipeline.sim_summary.corruptions
        );
    }
}

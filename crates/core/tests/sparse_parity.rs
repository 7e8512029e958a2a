//! Dense/sparse engine parity at the closed-loop driver level.
//!
//! The fleet crate pins `SimEngine::Sparse` against `SimEngine::Dense`
//! bit-for-bit at the simulation layer. These tests pin the whole driver:
//! with the event-driven clock underneath, the closed loop's detections,
//! signal log, watch report, and exported trace must not move by a byte —
//! traced or untraced (the untraced screeners take closed-form fast paths
//! that skip all-healthy machines).

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::SimEngine;
use mercurial::Scenario;

fn scenario(seed: u64, engine: SimEngine, traced: bool) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = traced;
    s.watch.enabled = traced;
    s.sim.engine = engine;
    s
}

#[test]
fn traced_closed_loop_is_bit_identical_across_engines() {
    let reference = ClosedLoopDriver::execute(&scenario(7, SimEngine::Dense, true));
    let ref_report = reference.watch.as_ref().expect("watch enabled").render();
    let ref_trace = reference.trace.to_jsonl();
    assert!(
        !reference.pipeline.detections.is_empty(),
        "demo fleet must yield detections"
    );
    let out = ClosedLoopDriver::execute(&scenario(7, SimEngine::Sparse, true));
    assert_eq!(
        out.watch.as_ref().expect("watch enabled").render(),
        ref_report,
        "watch report diverges"
    );
    assert_eq!(out.trace.to_jsonl(), ref_trace, "trace diverges");
    assert_eq!(
        out.pipeline.detections, reference.pipeline.detections,
        "detections diverge"
    );
    assert_eq!(
        out.pipeline.signals.all(),
        reference.pipeline.signals.all(),
        "signals diverge"
    );
    assert_eq!(
        out.pipeline.sim_summary, reference.pipeline.sim_summary,
        "summary diverges"
    );
}

#[test]
fn untraced_closed_loop_matches_dense_through_the_screener_fast_paths() {
    let reference = ClosedLoopDriver::execute(&scenario(11, SimEngine::Dense, false));
    assert!(!reference.pipeline.detections.is_empty());
    let out = ClosedLoopDriver::execute(&scenario(11, SimEngine::Sparse, false));
    assert_eq!(out.pipeline.detections, reference.pipeline.detections);
    assert_eq!(out.pipeline.signals.all(), reference.pipeline.signals.all());
    assert_eq!(out.pipeline.sim_summary, reference.pipeline.sim_summary);
    assert_eq!(
        out.pipeline.burnin_stats, reference.pipeline.burnin_stats,
        "burn-in stats diverge"
    );
    assert_eq!(out.pipeline.offline_stats, reference.pipeline.offline_stats);
    assert_eq!(out.pipeline.online_stats, reference.pipeline.online_stats);
    assert_eq!(
        out.series.total_corrupt_ops(),
        reference.series.total_corrupt_ops()
    );
    assert_eq!(out.series.min_capacity(), reference.series.min_capacity());
}

#[test]
fn open_loop_stepping_is_engine_invariant() {
    let mut dense = Scenario::demo(13);
    dense.sim.engine = SimEngine::Dense;
    let mut sparse = dense.clone();
    sparse.sim.engine = SimEngine::Sparse;
    let a = ClosedLoopDriver::execute(&dense);
    let b = ClosedLoopDriver::execute(&sparse);
    assert_eq!(a.pipeline.sim_summary, b.pipeline.sim_summary);
    assert_eq!(a.pipeline.signals.all(), b.pipeline.signals.all());
    assert_eq!(a.pipeline.detections, b.pipeline.detections);
    assert_eq!(a.series.total_corrupt_ops(), b.series.total_corrupt_ops());
}

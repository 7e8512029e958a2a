//! E20 workload layer: time-varying per-class traffic, per-class
//! mitigation policies, and per-class attribution — determinism,
//! conservation, the escalation ladder, and the corruption-vs-overhead
//! frontier the bench sweeps.

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::SimEngine;
use mercurial::mitigation::MitigationPolicy;
use mercurial::report::closed_loop_table;
use mercurial::scenario::ClassPolicy;
use mercurial::trace::EventKind;
use mercurial::Scenario;

/// A demo scenario with the workload layer on: diurnal traffic, one
/// starting policy, adaptation armed.
fn workloads_scenario(seed: u64, feedback: bool, engine: SimEngine) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = feedback;
    s.sim.engine = engine;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s.workloads.enabled = true;
    s.workloads.policies = vec![ClassPolicy {
        class: "database".to_string(),
        policy: MitigationPolicy::E2eChecksum,
    }];
    s.workloads.adapt = feedback;
    s
}

#[test]
fn enabled_runs_are_engine_invariant() {
    // The workload layer must obey the same §4.1 determinism contract as
    // everything else: identical series (including every per-class
    // column), trace, and summary, dense or sparse.
    let ref_out = ClosedLoopDriver::execute(&workloads_scenario(7, true, SimEngine::Sparse));
    assert!(
        !ref_out.series.class_names().is_empty(),
        "enabled workloads must register classes"
    );
    let out = ClosedLoopDriver::execute(&workloads_scenario(7, true, SimEngine::Dense));
    assert_eq!(
        out.pipeline.sim_summary, ref_out.pipeline.sim_summary,
        "summary diverges between engines"
    );
    assert_eq!(
        out.series, ref_out.series,
        "series (incl. class columns) diverges between engines"
    );
    assert_eq!(
        out.trace.to_jsonl(),
        ref_out.trace.to_jsonl(),
        "trace diverges between engines"
    );
}

#[test]
fn class_attribution_conserves_fleet_corruption() {
    // Every corruption is drawn on a core running exactly one class, so
    // the per-class columns must sum to the fleet column — per epoch,
    // not just in aggregate.
    let s = workloads_scenario(11, false, SimEngine::Sparse);
    let out = ClosedLoopDriver::execute(&s);
    let names = out.series.class_names();
    assert_eq!(names.len(), 4, "default mix has four classes");
    for (point, classes) in out.series.points().iter().zip(out.series.class_points()) {
        let class_sum: u64 = classes.iter().map(|c| c.corrupt_ops).sum();
        assert_eq!(
            class_sum, point.corrupt_ops,
            "class attribution must conserve the epoch's corrupt-ops"
        );
    }
    let total: u64 = (0..names.len())
        .map(|c| out.series.class_total_corrupt_ops(c))
        .sum();
    assert_eq!(total, out.pipeline.sim_summary.corruptions);
}

#[test]
fn adaptation_escalates_policies_in_the_closed_loop() {
    // With a threshold the demo fleet's hottest class blows through
    // every epoch, the closed loop must escalate — visible both as
    // `mitigation.escalated` trace instants and as mitigation catches
    // (and overhead) appearing in the per-class columns.
    let mut s = workloads_scenario(7, true, SimEngine::Sparse);
    s.workloads.escalate_threshold = 1_000;
    let out = ClosedLoopDriver::execute(&s);
    let escalations = out
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "mitigation.escalated")
        .count();
    assert!(
        escalations > 0,
        "a low threshold must trigger at least one escalation"
    );
    let names = out.series.class_names();
    let overhead: u64 = (0..names.len())
        .map(|c| out.series.class_total_overhead_ops(c))
        .sum();
    assert!(overhead > 0, "active policies must meter overhead");
    let caught: u64 = out
        .series
        .class_points()
        .iter()
        .flat_map(|row| row.iter())
        .map(|c| c.caught)
        .sum();
    assert!(caught > 0, "active policies must catch corruptions");
}

#[test]
fn policy_ladder_trades_overhead_for_residual_corruption() {
    // The frontier acceptance: walking one class up the policy ladder
    // (everything else fixed) must strictly cut its residual corruption
    // while strictly raising its overhead. Static policies, open loop —
    // the draws are identical across rungs by the determinism contract,
    // so only the mitigation layer moves.
    let ladder = [
        MitigationPolicy::None,
        MitigationPolicy::E2eChecksum,
        MitigationPolicy::InstructionCheck,
        MitigationPolicy::Dmr,
        MitigationPolicy::Tmr,
    ];
    let mut residuals = Vec::new();
    let mut overheads = Vec::new();
    for policy in ladder {
        let mut s = Scenario::demo(7);
        s.sim.engine = SimEngine::Sparse;
        s.workloads.enabled = true;
        s.workloads.adapt = false;
        s.workloads.policies = vec![ClassPolicy {
            class: "database".to_string(),
            policy,
        }];
        let out = ClosedLoopDriver::execute(&s);
        let db = out
            .series
            .class_names()
            .iter()
            .position(|n| n == "database")
            .expect("database class exists");
        let corrupt = out.series.class_total_corrupt_ops(db);
        let caught: u64 = out
            .series
            .class_points()
            .iter()
            .filter_map(|row| row.get(db))
            .map(|c| c.caught)
            .sum();
        residuals.push(corrupt - caught);
        overheads.push(out.series.class_total_overhead_ops(db));
    }
    for i in 1..ladder.len() {
        assert!(
            residuals[i] < residuals[i - 1],
            "rung {i} must strictly cut residual corruption ({:?} vs {:?})",
            residuals[i],
            residuals[i - 1]
        );
        assert!(
            overheads[i] > overheads[i - 1],
            "rung {i} must strictly raise overhead ({:?} vs {:?})",
            overheads[i],
            overheads[i - 1]
        );
    }
    assert_eq!(overheads[0], 0, "policy `none` meters nothing");
}

#[test]
fn per_class_columns_surface_in_csv_and_report() {
    let s = workloads_scenario(7, true, SimEngine::Sparse);
    let out = ClosedLoopDriver::execute(&s);
    let csv = out.series.to_csv();
    let header = csv.lines().next().expect("csv has a header");
    for name in out.series.class_names() {
        assert!(
            header.contains(&format!("{name}.corrupt_ops")),
            "csv header missing {name} columns"
        );
    }
    let table = closed_loop_table(&out);
    assert!(table.contains("Per-class attribution"));
    assert!(table.contains("database"));
    // Disabled runs keep the legacy surfaces byte-identical shapes.
    let mut legacy = Scenario::demo(7);
    legacy.closed_loop.feedback = true;
    legacy.sim.engine = SimEngine::Sparse;
    let legacy_out = ClosedLoopDriver::execute(&legacy);
    assert!(!legacy_out.series.to_csv().contains(".corrupt_ops"));
    assert!(!closed_loop_table(&legacy_out).contains("Per-class attribution"));
}

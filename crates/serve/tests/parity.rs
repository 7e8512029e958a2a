//! Served-topology parity: with clean links, splitting the closed loop
//! across worker processes and a socket protocol must not move the
//! outcome by a byte — at any worker count, across seeds, traced or not.
//!
//! The in-process [`ClosedLoopDriver`] run is the reference. Everything
//! the scoreboard produces is compared: detections, the ingested signal
//! log, the simulation summary, the per-epoch series, the watch report,
//! and the Prometheus rendering of the final metric set (which pins the
//! `Bye`-frame counter absorption). Divergence under impairment is then
//! attributable to the link model alone — the last test spot-checks that
//! a fully lossy link actually loses evidence.

use mercurial::audit::DecisionLedger;
use mercurial::closedloop::ClosedLoopDriver;
use mercurial::scenario::ImpairConfig;
use mercurial::Scenario;
use mercurial_fleet::SignalKind;
use mercurial_serve::{run_served, ServeOptions};
use mercurial_trace::export::to_prometheus;

fn scenario(seed: u64, workers: u32, traced: bool) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = traced;
    s.watch.enabled = traced;
    s.serve.workers = workers;
    s
}

#[test]
fn served_zero_impairment_is_bit_identical_to_in_process() {
    for seed in [7u64, 23] {
        let reference = ClosedLoopDriver::execute(&scenario(seed, 1, true));
        assert!(
            !reference.pipeline.detections.is_empty(),
            "demo fleet must yield detections (seed {seed})"
        );
        let ref_watch = reference.watch.as_ref().expect("watch enabled").render();
        let ref_prom = to_prometheus(&reference.trace);
        for workers in [1u32, 2, 4] {
            let s = scenario(seed, workers, true);
            let served = run_served(&s, &ServeOptions::default()).expect("served run");
            assert_eq!(served.link.dropped, 0, "clean link must not drop");
            assert!(served.link.frames > 0, "evidence must ride the link");
            let out = &served.outcome;
            assert_eq!(
                out.pipeline.detections, reference.pipeline.detections,
                "detections diverge (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                out.pipeline.signals.all(),
                reference.pipeline.signals.all(),
                "signal log diverges (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                out.pipeline.sim_summary, reference.pipeline.sim_summary,
                "sim summary diverges (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                out.series, reference.series,
                "epoch series diverges (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                out.watch.as_ref().expect("watch enabled").render(),
                ref_watch,
                "watch report diverges (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                to_prometheus(&out.trace),
                ref_prom,
                "metric set diverges (seed {seed}, {workers} workers)"
            );
            assert_eq!(out.epochs, reference.epochs);
            assert_eq!(out.epoch_hours, reference.epoch_hours);
            // Every evidence frame is a 4-byte length, a 13-byte header
            // and 18 bytes a signal. On a clean link each frame's signals
            // reach the log, which holds them plus the screener-failure
            // signals that ride the reports.
            let evidence_signals = out
                .pipeline
                .signals
                .all()
                .iter()
                .filter(|s| s.kind != SignalKind::ScreenerFailure)
                .count() as u64;
            assert_eq!(
                served.wire.evidence_bytes_in,
                served.link.frames * (4 + 13) + 18 * evidence_signals,
                "evidence wire bytes (seed {seed}, {workers} workers)"
            );
            assert_eq!(
                served.link.frames,
                u64::from(workers * out.epochs),
                "one evidence frame per worker and epoch"
            );
        }
    }
}

#[test]
fn served_untraced_run_matches_in_process() {
    let reference = ClosedLoopDriver::execute(&scenario(11, 1, false));
    for workers in [1u32, 2, 4] {
        let s = scenario(11, workers, false);
        let served = run_served(&s, &ServeOptions::default()).expect("served run");
        let out = &served.outcome;
        assert_eq!(out.pipeline.detections, reference.pipeline.detections);
        assert_eq!(out.pipeline.signals.all(), reference.pipeline.signals.all());
        assert_eq!(out.pipeline.sim_summary, reference.pipeline.sim_summary);
        assert_eq!(out.series, reference.series);
        assert!(out.watch.is_none(), "watch off means no report");
        assert!(
            served.worker_traces.iter().all(String::is_empty),
            "tracing off means empty trace channel"
        );
    }
}

#[test]
fn served_workload_layer_is_bit_identical_to_in_process() {
    // E20: per-class deltas ride the Report frames and policy switches
    // ride the Cmd frames — neither may move the outcome on a clean link.
    // The per-class series columns and the Prometheus rendering (which
    // carries the class counters the aggregator sums from those deltas)
    // are the sensitive surfaces.
    let workloads = |workers: u32| {
        let mut s = scenario(7, workers, true);
        s.workloads.enabled = true;
        s.workloads.adapt = true;
        s.workloads.escalate_threshold = 1_000;
        s
    };
    let reference = ClosedLoopDriver::execute(&workloads(1));
    assert!(
        !reference.series.class_names().is_empty(),
        "workload layer must be live"
    );
    let ref_watch = reference.watch.as_ref().expect("watch enabled").render();
    let ref_prom = to_prometheus(&reference.trace);
    for workers in [1u32, 2, 4] {
        let served = run_served(&workloads(workers), &ServeOptions::default()).expect("served run");
        let out = &served.outcome;
        assert_eq!(
            out.series, reference.series,
            "per-class series diverges ({workers} workers)"
        );
        assert_eq!(
            out.pipeline.sim_summary, reference.pipeline.sim_summary,
            "sim summary diverges ({workers} workers)"
        );
        assert_eq!(
            out.watch.as_ref().expect("watch enabled").render(),
            ref_watch,
            "watch report diverges ({workers} workers)"
        );
        assert_eq!(
            to_prometheus(&out.trace),
            ref_prom,
            "metric set (incl. class counters) diverges ({workers} workers)"
        );
    }
}

#[test]
fn served_audit_run_is_bit_identical_to_in_process() {
    // E21: the decision ledger is derived from the trace, and every
    // ledger-relevant emission (signal provenance, core transitions,
    // triage verdicts, alerts, escalations, ground truth) happens on the
    // aggregator side — so the ledger a served run yields must be byte
    // identical to the in-process one at any worker count. Worker-side
    // audit counters ride the Bye frames and are pinned via Prometheus.
    let audited = |workers: u32| {
        let mut s = scenario(7, workers, true);
        s.audit.enabled = true;
        s
    };
    let reference = ClosedLoopDriver::execute(&audited(1));
    let ref_ledger = DecisionLedger::from_trace(&reference.trace);
    assert!(!ref_ledger.is_empty(), "audited run must record decisions");
    let ref_prom = to_prometheus(&reference.trace);
    for workers in [1u32, 2, 4] {
        let served = run_served(&audited(workers), &ServeOptions::default()).expect("served run");
        let out = &served.outcome;
        let ledger = DecisionLedger::from_trace(&out.trace);
        assert_eq!(
            ledger.to_jsonl(),
            ref_ledger.to_jsonl(),
            "decision ledger diverges ({workers} workers)"
        );
        assert_eq!(
            out.series, reference.series,
            "epoch series diverges under audit ({workers} workers)"
        );
        assert_eq!(
            to_prometheus(&out.trace),
            ref_prom,
            "metric set (incl. audit counters) diverges ({workers} workers)"
        );
    }
}

#[test]
fn served_runs_are_deterministic_including_streamed_traces() {
    let s = scenario(7, 2, true);
    let a = run_served(&s, &ServeOptions::default()).expect("first run");
    let b = run_served(&s, &ServeOptions::default()).expect("second run");
    assert_eq!(a.link, b.link);
    assert_eq!(a.wire, b.wire, "wire counts repeat exactly");
    assert_eq!(a.worker_traces, b.worker_traces);
    assert!(
        a.worker_traces.iter().all(|t| !t.is_empty()),
        "traced workers must stream events"
    );
    assert_eq!(
        a.outcome.pipeline.sim_summary,
        b.outcome.pipeline.sim_summary
    );
}

#[test]
fn fully_lossy_link_starves_the_scoreboard_of_evidence() {
    let s = scenario(7, 2, false);
    let reference = run_served(&s, &ServeOptions::default()).expect("clean run");
    let mut lossy = s.clone();
    lossy.serve.impair = ImpairConfig {
        loss: 1.0,
        ..ImpairConfig::default()
    };
    let lossy = run_served(&lossy, &ServeOptions::default()).expect("lossy run");
    assert_eq!(
        lossy.link.dropped, lossy.link.frames,
        "loss=1.0 must drop every evidence frame"
    );
    // The scoreboard sees fewer signals (the loop is closed, so the
    // simulation drifts too — undetected cores keep corrupting)…
    assert!(
        lossy.outcome.pipeline.signals.all().len() < reference.outcome.pipeline.signals.all().len(),
        "dropped evidence must shrink the ingested signal log"
    );
    // …and a starved scoreboard cannot detect more.
    assert!(
        lossy.outcome.pipeline.detections.len() <= reference.outcome.pipeline.detections.len(),
        "a starved scoreboard cannot detect more"
    );
}

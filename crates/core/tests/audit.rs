//! E21 acceptance: the decision-audit layer.
//!
//! * Replay parity — the ledger rebuilt offline from the exported trace
//!   JSONL is byte-for-byte the in-loop ledger.
//! * Conservation — every ground-truth mercurial core is exactly one of
//!   TP or FN, and every FP is a quarantined healthy core.
//! * The audit block forces tracing on, and works over both drivers
//!   (closed loop and the open-loop batch back half).
//! * The `audit.*` decision counters count the registry's transitions.

use mercurial::audit::{AuditReport, CaseBook, CaseLabel, DecisionLedger, GroundTruth};
use mercurial::closedloop::ClosedLoopDriver;
use mercurial::trace::EventKind;
use mercurial::Scenario;

fn audited(seed: u64, feedback: bool) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = feedback;
    s.watch.enabled = true;
    s.audit.enabled = true;
    s
}

fn rule_names(s: &Scenario) -> Vec<String> {
    s.watch
        .rule_set()
        .rules
        .iter()
        .map(|r| r.name.clone())
        .collect()
}

#[test]
fn replayed_ledger_is_byte_identical_to_the_in_loop_ledger() {
    let out = ClosedLoopDriver::execute(&audited(7, true));
    let in_loop = DecisionLedger::from_trace(&out.trace);
    let reference = in_loop.to_jsonl();
    assert!(!reference.is_empty(), "audited run must ledger decisions");
    // The offline replay path: parse the exported JSONL back.
    let replayed =
        DecisionLedger::from_trace_jsonl(&out.trace.to_jsonl()).expect("exported trace replays");
    assert_eq!(replayed, in_loop, "replay diverges from the in-loop ledger");
    assert_eq!(
        replayed.to_jsonl(),
        reference,
        "replayed ledger bytes diverge"
    );
}

#[test]
fn audit_counters_equal_the_registry_transitions_in_the_trace() {
    // Feedback on steps the aggregator; feedback off, the batch back half.
    // Both seeds walk every one of the four transitions at least once.
    for (seed, feedback) in [(22, true), (9, false)] {
        let out = ClosedLoopDriver::execute(&audited(seed, feedback));
        for (counter, instant) in [
            ("audit.quarantines", "core.quarantine"),
            ("audit.confirms", "core.confirm"),
            ("audit.exonerations", "core.exonerate"),
            ("audit.restores", "core.restore"),
        ] {
            let instants = out
                .trace
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Instant && e.name == instant)
                .count() as u64;
            assert!(instants > 0, "{instant}, feedback {feedback}");
            assert_eq!(
                out.trace.metrics.counter(counter),
                instants,
                "{counter}, feedback {feedback}"
            );
        }
    }
}

#[test]
fn attribution_conserves_ground_truth() {
    let s = audited(7, true);
    let out = ClosedLoopDriver::execute(&s);
    let ledger = DecisionLedger::from_trace(&out.trace);
    let truth = GroundTruth::from_ledger(&ledger);
    let report = AuditReport::build(&ledger, &truth, &rule_names(&s));
    assert!(truth.count() > 0, "demo fleet must seed mercurial cores");
    assert!(
        report.conserves(&ledger),
        "TP={} FN={} must sum to ground truth {} (gt counter {})",
        report.true_positives,
        report.false_negatives,
        truth.count(),
        ledger.gt_count
    );
    // Every FP verdict is a quarantined healthy core, by definition.
    for v in &report.verdicts {
        if v.label == CaseLabel::FalsePositive {
            assert!(!truth.is_mercurial(v.core));
            assert!(v.quarantine_hour.is_some());
        }
    }
    // The case book agrees with the report's verdict counts.
    let book = CaseBook::build(&ledger, &truth, usize::MAX);
    assert_eq!(book.cases.len(), report.verdicts.len());
}

#[test]
fn open_loop_audit_matches_conservation_too() {
    let s = audited(9, false);
    let out = ClosedLoopDriver::execute(&s);
    let ledger = DecisionLedger::from_trace(&out.trace);
    let truth = GroundTruth::from_ledger(&ledger);
    assert!(!ledger.is_empty(), "open-loop audit must ledger decisions");
    let report = AuditReport::build(&ledger, &truth, &rule_names(&s));
    assert!(report.conserves(&ledger));
    // Replay parity holds for the batch back half as well.
    let replayed = DecisionLedger::from_trace_jsonl(&out.trace.to_jsonl()).unwrap();
    assert_eq!(replayed.to_jsonl(), ledger.to_jsonl());
}

/// FNV-1a over a byte string: stable, dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn audit_exports_are_pinned() {
    // The audited demo run's ledger JSONL, case-book JSONL (profile
    // annotations included) and postmortem text, as `mercurial-lab
    // audit` derives them. Captured before the exporters shared the trace
    // crate's JSON writer; any byte that moves fails here.
    let s = audited(7, true);
    let exp = mercurial::FleetExperiment::build(&s);
    let out = ClosedLoopDriver::execute_on(&s, &exp);
    let ledger = DecisionLedger::from_trace(&out.trace);
    let mut truth = GroundTruth::from_ledger(&ledger);
    for core in exp.population().mercurial_cores() {
        truth.annotate(core.uid.as_u64(), core.profile.name.clone());
    }
    let report = AuditReport::build(&ledger, &truth, &rule_names(&s));
    let book = CaseBook::build(&ledger, &truth, s.audit.max_cases);
    let book_jsonl = book.to_jsonl();
    assert!(book_jsonl.contains("\"profile\":"), "cases carry profiles");
    let got = [
        fnv1a(ledger.to_jsonl().as_bytes()),
        fnv1a(book_jsonl.as_bytes()),
        fnv1a(report.render().as_bytes()),
    ];
    let want = [
        0x8637_f5c1_b78a_c949,
        0xe90e_1d22_c5cf_7ae9,
        0xa31e_3ded_843d_c80f,
    ];
    assert_eq!(got, want, "audit exports moved: {got:#018x?}");
}

#[test]
fn audit_block_forces_tracing_on() {
    let mut s = audited(7, true);
    s.trace.enabled = false;
    let rec = s.recorder();
    assert!(
        rec.enabled() && rec.audits(),
        "audit.enabled must imply tracing"
    );
    let out = ClosedLoopDriver::execute(&s);
    assert!(
        !out.trace.events.is_empty(),
        "audit-on run must buffer trace events even with trace.enabled=false"
    );
    assert!(!DecisionLedger::from_trace(&out.trace).is_empty());
}

#[test]
fn audit_off_leaves_no_provenance_in_the_trace() {
    let mut s = audited(7, true);
    s.audit.enabled = false;
    let out = ClosedLoopDriver::execute(&s);
    // Tracing is still on (the scenario asks for it), but the per-signal
    // provenance instants and audit counters only exist under audit.
    assert!(out.trace.events.iter().all(|e| e.name != "score.signal"));
    assert_eq!(out.trace.metrics.counter("audit.quarantines"), 0);
    assert_eq!(out.trace.metrics.counter("audit.alerts"), 0);
}

//! Per-kind signal quality: table kinds count accused cores through a
//! per-core kind mask, out-of-table kinds (`kind-<n>`) through a core set
//! of their own, and both must agree with counting distinct cores.

use mercurial_audit::{AuditReport, Decision, DecisionLedger, GroundTruth, LedgerEntry};

fn entry(hour: f64, decision: Decision, core: u64, value: f64) -> LedgerEntry {
    LedgerEntry {
        hour,
        decision,
        core: Some(core),
        value,
    }
}

#[test]
fn kinds_count_distinct_and_mercurial_cores() {
    // Cores 7 and 11 are mercurial; 3 is healthy.
    let entries = vec![
        entry(10.0, Decision::Onset, 7, 0.0),
        entry(14.0, Decision::Onset, 11, 0.0),
        entry(50.0, Decision::Signal, 7, 3.0),
        entry(55.0, Decision::Signal, 3, 1.0),
        entry(60.0, Decision::Signal, 7, 3.0),
        entry(61.0, Decision::Signal, 11, 3.0),
        entry(62.0, Decision::Signal, 7, 42.0),
        entry(63.0, Decision::Signal, 3, 42.0),
        entry(64.0, Decision::Signal, 3, 42.0),
    ];
    let ledger = DecisionLedger {
        entries,
        gt_count: 2,
        ..DecisionLedger::default()
    };
    let truth = GroundTruth::from_ledger(&ledger);
    let report = AuditReport::build(&ledger, &truth, &[]);
    let stats = |name: &str| {
        let k = report.kinds.iter().find(|k| k.kind == name).unwrap();
        (
            k.signals,
            k.mercurial_signals,
            k.cores_accused,
            k.mercurial_cores_hit,
        )
    };
    assert_eq!(stats("machine-check"), (3, 3, 2, 2));
    assert_eq!(stats("process-crash"), (1, 0, 1, 0));
    assert_eq!(stats("kind-42"), (3, 1, 2, 1));
}

//! E21 — decision provenance: how good were the loop's decisions, really?
//!
//! §5 of the paper admits "we have no way of knowing the extent of the
//! problem": production quarantines and exonerations are never reconciled
//! against ground truth. The laboratory has ground truth, so the audit
//! layer joins every operational decision to the lesion record and scores
//! the loop itself: TP/FP/FN attribution, time-to-root-cause, and the
//! exoneration-error (test-escape) audit.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e21_audit [-- --smoke]
//! ```
//!
//! Full mode audits the E20 policy-ladder arms and the E19 impairment
//! arms, measures the in-loop overhead of auditing against an audit-off
//! run (<2% acceptance bar), and writes `BENCH_audit.json`. `--smoke`
//! checks the contracts instead (`make audit-smoke`): audit off moves no
//! pre-audit bit (the E20 pin digests), the offline replay reproduces the
//! in-loop ledger byte-for-byte, and attribution
//! conserves ground truth (TP + FN == mercurial cores; every FP is a
//! quarantined healthy core).

use std::time::Instant;

use mercurial::audit::{AuditReport, CaseLabel, DecisionLedger, GroundTruth};
use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::SimEngine;
use mercurial::scenario::{ClassPolicy, ImpairConfig};
use mercurial::Scenario;
use mercurial_mitigation::MitigationPolicy;
use mercurial_serve::{run_served_impaired, ServeOptions};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}

/// The audited scenario: demo fleet, sparse engine, closed loop, watch
/// rules live, decision audit on.
fn audited_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.sim.engine = SimEngine::Sparse;
    s.trace.enabled = true;
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

fn report_of(s: &Scenario, trace: &mercurial_trace::Trace) -> (DecisionLedger, AuditReport) {
    let ledger = DecisionLedger::from_trace(trace);
    let truth = GroundTruth::from_ledger(&ledger);
    let report = AuditReport::build(&ledger, &truth, &rule_names(s));
    (ledger, report)
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

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E21 — decision-audit contracts (smoke)");

    // 1. Audit off is bit-for-bit the pre-audit tree: the E20 pin digests
    //    (closed sparse, seed 7) must keep reproducing with the audit
    //    block at its default.
    {
        let mut s = audited_scenario(7);
        s.audit.enabled = false;
        let out = ClosedLoopDriver::execute(&s);
        assert_eq!(out.pipeline.sim_summary.corruptions, 68_632_069);
        assert_eq!(out.pipeline.detections.len(), 17);
        assert_eq!(
            fnv1a(out.series.to_csv().as_bytes()),
            0x9d12_71ac_ddd0_635f,
            "audit-off series CSV moved"
        );
        assert_eq!(
            fnv1a(out.trace.to_jsonl().as_bytes()),
            0xd7f3_ef09_599a_6f15,
            "audit-off trace JSONL moved"
        );
        assert_eq!(
            fnv1a(out.watch.as_ref().expect("watch on").render().as_bytes()),
            0x8c7d_8a27_4984_3066,
            "audit-off watch render moved"
        );
        println!("gating: audit off reproduces the E20 pin digests bit-for-bit");
    }

    // 2. The offline replay (exported JSONL → ledger) is byte-for-byte the
    //    in-loop ledger.
    {
        let out = ClosedLoopDriver::execute(&audited_scenario(7));
        let in_loop = DecisionLedger::from_trace(&out.trace);
        let replayed = DecisionLedger::from_trace_jsonl(&out.trace.to_jsonl())
            .expect("exported trace replays");
        assert_eq!(replayed, in_loop, "replay diverges from the in-loop ledger");
        assert_eq!(replayed.to_jsonl(), in_loop.to_jsonl());
        assert!(
            !in_loop.to_jsonl().is_empty(),
            "audited run must ledger decisions"
        );
        println!("replay: exported-JSONL ledger is byte-identical to the in-loop ledger");
    }

    // 3. Attribution conserves ground truth.
    {
        let s = audited_scenario(7);
        let out = ClosedLoopDriver::execute(&s);
        let (ledger, report) = report_of(&s, &out.trace);
        assert!(report.ground_truth > 0, "demo fleet must seed defects");
        assert!(
            report.conserves(&ledger),
            "TP {} + FN {} must equal ground truth {} (gt counter {})",
            report.true_positives,
            report.false_negatives,
            report.ground_truth,
            ledger.gt_count
        );
        let truth = GroundTruth::from_ledger(&ledger);
        for v in &report.verdicts {
            if v.label == CaseLabel::FalsePositive {
                assert!(
                    !truth.is_mercurial(v.core) && v.quarantine_hour.is_some(),
                    "every FP is a quarantined healthy core"
                );
            }
        }
        println!(
            "conservation: TP={} FP={} FN={} over {} ground-truth cores",
            report.true_positives,
            report.false_positives,
            report.false_negatives,
            report.ground_truth
        );
    }

    println!("\nE21 smoke: all decision-audit contracts hold");
}

// -------------------------------------------------------------- full mode

/// The E20 policy ladder, weakest to strongest.
const LADDER: [MitigationPolicy; 5] = [
    MitigationPolicy::None,
    MitigationPolicy::E2eChecksum,
    MitigationPolicy::InstructionCheck,
    MitigationPolicy::Dmr,
    MitigationPolicy::Tmr,
];

fn run_full() {
    mercurial_bench::header("E21 — attribution quality and audit overhead");
    let seed = 7u64;
    let base = audited_scenario(seed);
    println!(
        "scenario {}: {} machines, {} months, seed {seed}",
        base.name, base.fleet.machines, base.sim.months
    );
    let prof = mercurial_prof::Prof::enabled();
    let mut arms: Vec<String> = Vec::new();

    // E20 policy-ladder arms: stronger mitigation catches corruptions
    // in-line, which changes the evidence mix the loop decides on — the
    // audit shows what that does to attribution quality.
    for policy in LADDER {
        let mut s = audited_scenario(seed);
        s.workloads.enabled = true;
        s.workloads.adapt = false;
        s.workloads.policies = [
            "data-pipeline",
            "storage-server",
            "database",
            "crypto-frontend",
        ]
        .iter()
        .map(|c| ClassPolicy {
            class: c.to_string(),
            policy,
        })
        .collect();
        let t0 = Instant::now();
        let out = prof.scope("audit.ladder", || ClosedLoopDriver::execute(&s));
        let secs = t0.elapsed().as_secs_f64();
        let (ledger, report) = report_of(&s, &out.trace);
        assert!(
            report.conserves(&ledger),
            "{}: must conserve",
            policy.label()
        );
        let label = format!("ladder/{}", policy.label());
        print_arm(&label, &report, secs);
        arms.push(arm_json(&label, &report, secs));
    }

    // E19 impairment arms: evidence frames dropped on the wire starve the
    // scoreboard — the audit prices the observability gap in recall and
    // time-to-root-cause.
    for loss in [0.0, 0.2, 0.5, 0.9] {
        let mut s = audited_scenario(seed);
        s.serve.workers = 2;
        let impair = ImpairConfig {
            loss,
            ..ImpairConfig::default()
        };
        let t0 = Instant::now();
        let served = prof
            .scope("audit.impair", || {
                run_served_impaired(&s, impair, &ServeOptions::default())
            })
            .expect("served run");
        let secs = t0.elapsed().as_secs_f64();
        let (ledger, report) = report_of(&s, &served.outcome.trace);
        assert!(report.conserves(&ledger), "loss {loss}: must conserve");
        let label = format!("impair/loss-{loss}");
        print_arm(&label, &report, secs);
        arms.push(arm_json(&label, &report, secs));
    }

    // Overhead: the audited loop against the identical loop with the
    // audit block off (tracing stays on in both — the audit's own cost is
    // the provenance instants and counters, not the trace machinery).
    let scale = mercurial_bench::scenario_from_env(seed);
    let mut on = audited_scenario(seed);
    on.fleet = scale.fleet.clone();
    on.sim.months = scale.sim.months;
    let mut off = on.clone();
    off.audit.enabled = false;
    let reps = 3;
    let once = |s: &Scenario| -> f64 {
        let t = Instant::now();
        std::hint::black_box(ClosedLoopDriver::execute(s));
        t.elapsed().as_secs_f64()
    };
    // Warm both paths once (page cache, allocator), then interleave the
    // timed reps so drift hits both arms alike; best-of is the estimator.
    once(&off);
    once(&on);
    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        off_secs = off_secs.min(prof.scope("audit.overhead_off", || once(&off)));
        on_secs = on_secs.min(prof.scope("audit.overhead_on", || once(&on)));
    }
    let overhead_pct = 100.0 * (on_secs / off_secs - 1.0);
    println!(
        "\noverhead ({} machines, {} months, best of {reps}):",
        on.fleet.machines, on.sim.months
    );
    println!("  audit off: {off_secs:>8.3} s");
    println!("  audit on:  {on_secs:>8.3} s   ({overhead_pct:+.2}%)");
    assert!(
        overhead_pct < 2.0,
        "acceptance: audit overhead {overhead_pct:.2}% must stay under 2%"
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"seed\": {seed},\n  \"overhead_machines\": {},\n  \"overhead_off_secs\": {off_secs:.4},\n  \"overhead_on_secs\": {on_secs:.4},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"arms\": [\n{}\n  ]",
        base.name,
        base.fleet.machines,
        base.sim.months,
        on.fleet.machines,
        arms.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    mercurial_bench::write_bench_json(path, "e21_audit", reps as u64, &prof.finish(), &body);
    println!("\naudit frontier written to BENCH_audit.json");
}

fn print_arm(label: &str, report: &AuditReport, secs: f64) {
    println!(
        "{label:>22}: TP={:<3} FP={:<3} FN={:<3} precision={:.3} recall={:.3} \
         ttrc_p50={:.0}h ttrc_p95={:.0}h escapes={} ({secs:.2}s)",
        report.true_positives,
        report.false_positives,
        report.false_negatives,
        report.precision(),
        report.recall(),
        report.ttrc_p50().unwrap_or(0.0),
        report.ttrc_p95().unwrap_or(0.0),
        report.test_escapes,
    );
}

fn arm_json(label: &str, report: &AuditReport, secs: f64) -> String {
    format!(
        "    {{\"arm\": \"{label}\", \"decisions\": {}, \"ground_truth\": {}, \
         \"tp\": {}, \"fp\": {}, \"fn\": {}, \"precision\": {:.4}, \"recall\": {:.4}, \
         \"ttrc_p50_hours\": {:.2}, \"ttrc_p95_hours\": {:.2}, \
         \"false_exonerations\": {}, \"test_escapes\": {}, \"secs\": {secs:.3}}}",
        report.decisions,
        report.ground_truth,
        report.true_positives,
        report.false_positives,
        report.false_negatives,
        report.precision(),
        report.recall(),
        report.ttrc_p50().unwrap_or(0.0),
        report.ttrc_p95().unwrap_or(0.0),
        report.false_exonerations,
        report.test_escapes,
    )
}

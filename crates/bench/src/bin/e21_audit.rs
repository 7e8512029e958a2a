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
//! cargo run --release -p mercurial-bench --bin e21_audit
//! ```
//!
//! Audits the E20 policy-ladder arms and the E19 impairment arms, times
//! the audit path's exports on the 20k-machine paper scenario (medians of
//! in-process repeats after a warm-up), and writes `BENCH_audit.json`.
//! The audit's in-loop cost is a row of `e16_observe`'s layer table.

use mercurial::audit::{AuditReport, DecisionLedger, GroundTruth};
use mercurial::closedloop::ClosedLoopDriver;
use mercurial::scenario::{ClassPolicy, ImpairConfig};
use mercurial::Scenario;
use mercurial_bench::{interleave, timed};
use mercurial_mitigation::MitigationPolicy;
use mercurial_serve::{run_served, ServeOptions};

/// The audited scenario: demo fleet, closed loop, watch rules live,
/// decision audit on.
fn audited_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
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

/// Timed repeats of each audit export, after one untimed warm-up.
const EXPORT_REPEATS: usize = 11;

/// The audit path after an audited 20k-machine paper run, each step run
/// once to warm up (a first run also pays the page faults of a fresh
/// output buffer) and then timed as the median of [`EXPORT_REPEATS`]
/// interleaved repeats, printed as ns per line: a writer's lines are the
/// lines it writes, the fold's the trace events it reads, the report's
/// the ledger entries it scores. Returns the steps as `BENCH_audit.json`
/// rows.
fn export_costs(prof: &mercurial_prof::Prof) -> Vec<String> {
    let mut s = mercurial_bench::paper_scenario(0x0e21);
    s.closed_loop.feedback = true;
    s.audit.enabled = true;
    let out = ClosedLoopDriver::execute(&s);
    let jsonl = out.trace.to_jsonl();
    let ledger = DecisionLedger::from_trace(&out.trace);
    let (truth, rules) = (GroundTruth::from_ledger(&ledger), rule_names(&s));
    AuditReport::build(&ledger, &truth, &rules);
    let ledger_jsonl = ledger.to_jsonl();
    let rounds = interleave(
        prof,
        EXPORT_REPEATS,
        &mut [
            ("audit.trace_jsonl", &mut || drop(out.trace.to_jsonl())),
            ("audit.fold", &mut || {
                drop(DecisionLedger::from_trace(&out.trace))
            }),
            ("audit.report", &mut || {
                drop(AuditReport::build(&ledger, &truth, &rules))
            }),
            ("audit.ledger_jsonl", &mut || drop(ledger.to_jsonl())),
        ],
    );
    println!(
        "audit exports on the 20k paper scenario (median of {EXPORT_REPEATS} in-process \
         repeats after one warm-up):"
    );
    [
        ("trace.to_jsonl", jsonl.lines().count()),
        ("ledger.from_trace", out.trace.events.len()),
        ("report.build", ledger.len()),
        ("ledger.to_jsonl", ledger_jsonl.lines().count()),
    ]
    .into_iter()
    .enumerate()
    .map(|(arm, (step, lines))| {
        let ns = rounds.spread(arm).median * 1e9 / lines.max(1) as f64;
        println!("  {step:>18}: {lines:>6} lines  {ns:>7.1} ns/line");
        format!("    {{\"step\": \"{step}\", \"lines\": {lines}, \"ns_per_line\": {ns:.1}}}")
    })
    .collect()
}

fn main() {
    mercurial_bench::header("E21 — attribution quality");
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
    for policy in MitigationPolicy::ALL {
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
        let (out, secs) = timed(&prof, "audit.ladder", || ClosedLoopDriver::execute(&s));
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
        s.serve.impair = ImpairConfig {
            loss,
            ..ImpairConfig::default()
        };
        let (served, secs) = timed(&prof, "audit.impair", || {
            run_served(&s, &ServeOptions::default())
        });
        let served = served.expect("served run");
        let (ledger, report) = report_of(&s, &served.outcome.trace);
        assert!(report.conserves(&ledger), "loss {loss}: must conserve");
        let label = format!("impair/loss-{loss}");
        print_arm(&label, &report, secs);
        arms.push(arm_json(&label, &report, secs));
    }

    let exports = export_costs(&prof);
    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"seed\": {seed},\n  \"exports\": [\n{}\n  ],\n  \"arms\": [\n{}\n  ]",
        base.name,
        base.fleet.machines,
        base.sim.months,
        exports.join(",\n"),
        arms.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    mercurial_bench::write_bench_json(path, "e21_audit", 1, &prof.finish(), &body);
    println!("\naudit frontier written to BENCH_audit.json");
}

/// One arm's printout line; the run time in milliseconds, since a
/// demo-scale ladder run takes about 1.5 ms.
fn print_arm(label: &str, report: &AuditReport, secs: f64) {
    let ms = secs * 1e3;
    println!(
        "{label:>22}: TP={:<3} FP={:<3} FN={:<3} precision={:.3} recall={:.3} \
         ttrc_p50={:.0}h ttrc_p95={:.0}h escapes={} ({ms:.3} ms)",
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
    let ms = secs * 1e3;
    format!(
        "    {{\"arm\": \"{label}\", \"decisions\": {}, \"ground_truth\": {}, \
         \"tp\": {}, \"fp\": {}, \"fn\": {}, \"precision\": {:.4}, \"recall\": {:.4}, \
         \"ttrc_p50_hours\": {:.2}, \"ttrc_p95_hours\": {:.2}, \
         \"false_exonerations\": {}, \"test_escapes\": {}, \"ms\": {ms:.3}}}",
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

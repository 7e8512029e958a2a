//! E20 — the corruption-vs-overhead frontier of per-class mitigation.
//!
//! §7 of the paper prices the defenses: end-to-end checksums are cheap
//! but partial, dual/triple modular redundancy is near-complete but
//! costs one or two extra executions per op. With workload classes as a
//! first-class layer, that trade becomes measurable per class: walk the
//! policy ladder (none → e2e-checksum → instr-check → DMR → TMR) and
//! chart each class's residual corruption against the overhead the
//! [`CostMeter`] bills it — plus an adaptive arm where the closed loop
//! escalates hot classes on its own.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e20_frontier [-- --smoke]
//! ```
//!
//! Full mode sweeps the ladder and writes `BENCH_frontier.json`.
//! `--smoke` checks the contracts instead: a zeroed workload layer moves
//! no simulation bit, per-class attribution conserves fleet totals, and
//! the ladder is strictly monotone — lower residual
//! corruption at higher overhead, every rung (`make frontier-smoke`).
//!
//! [`CostMeter`]: mercurial_mitigation::redundancy::CostMeter

use std::time::Instant;

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::SimEngine;
use mercurial::scenario::ClassPolicy;
use mercurial::Scenario;
use mercurial_mitigation::MitigationPolicy;
use mercurial_trace::EventKind;

/// The policy ladder, weakest to strongest.
const LADDER: [MitigationPolicy; 5] = [
    MitigationPolicy::None,
    MitigationPolicy::E2eChecksum,
    MitigationPolicy::InstructionCheck,
    MitigationPolicy::Dmr,
    MitigationPolicy::Tmr,
];

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}

/// The frontier scenario: demo fleet, sparse engine, workload layer on.
/// `uniform` pins every class to one rung (adaptation off); `None` leaves
/// the block's own policy/adaptation settings in place.
fn frontier_scenario(seed: u64, feedback: bool, uniform: Option<MitigationPolicy>) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = feedback;
    s.sim.engine = SimEngine::Sparse;
    s.workloads.enabled = true;
    if let Some(policy) = uniform {
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
    }
    s
}

/// One class's whole-window totals pulled out of the epoch series.
struct ClassTotals {
    name: String,
    corrupt_ops: u64,
    caught: u64,
    user_reports: u64,
    overhead_ops: u64,
}

impl ClassTotals {
    fn residual(&self) -> u64 {
        self.corrupt_ops - self.caught
    }
}

fn class_totals(out: &mercurial::ClosedLoopOutcome) -> Vec<ClassTotals> {
    out.series
        .class_names()
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let (mut caught, mut reports) = (0u64, 0u64);
            for row in out.series.class_points() {
                if let Some(cp) = row.get(c) {
                    caught += cp.caught;
                    reports += cp.user_reports;
                }
            }
            ClassTotals {
                name: name.clone(),
                corrupt_ops: out.series.class_total_corrupt_ops(c),
                caught,
                user_reports: reports,
                overhead_ops: out.series.class_total_overhead_ops(c),
            }
        })
        .collect()
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E20 — workload-frontier contracts (smoke)");

    // 1. A zeroed workload layer (flat traffic, all policies `none`,
    //    adaptation off) adds attribution columns but moves no simulation
    //    bit: summary, detections, and the fleet columns are unchanged
    //    against the same scenario with the block disabled.
    {
        let mut zeroed = frontier_scenario(7, true, Some(MitigationPolicy::None));
        zeroed.workloads.traffic_amplitude = 0.0;
        let mut off = zeroed.clone();
        off.workloads.enabled = false;
        let a = ClosedLoopDriver::execute(&zeroed);
        let b = ClosedLoopDriver::execute(&off);
        assert_eq!(a.pipeline.sim_summary, b.pipeline.sim_summary);
        assert_eq!(a.pipeline.detections, b.pipeline.detections);
        assert_eq!(a.series.points(), b.series.points());
        assert!(!a.series.class_names().is_empty());
        assert!(b.series.class_names().is_empty());
        println!("gating: zeroed workload layer moves no simulation bit");
    }

    // 2. Attribution conserves fleet totals, epoch by epoch.
    {
        let mut s = frontier_scenario(7, true, None);
        s.workloads.adapt = true;
        let out = ClosedLoopDriver::execute(&s);
        for (point, classes) in out.series.points().iter().zip(out.series.class_points()) {
            let sum: u64 = classes.iter().map(|c| c.corrupt_ops).sum();
            assert_eq!(sum, point.corrupt_ops, "attribution must conserve");
        }
        println!("attribution: per-class columns conserve fleet totals");
    }

    // 3. The frontier is strictly monotone per rung: less residual
    //    corruption, more overhead — for the fleet and for every class.
    {
        let mut last: Option<(u64, u64)> = None;
        for policy in LADDER {
            let out = ClosedLoopDriver::execute(&frontier_scenario(7, false, Some(policy)));
            let totals = class_totals(&out);
            let residual: u64 = totals.iter().map(ClassTotals::residual).sum();
            let overhead: u64 = totals.iter().map(|t| t.overhead_ops).sum();
            if let Some((r, o)) = last {
                assert!(
                    residual < r,
                    "{}: residual must strictly fall ({residual} vs {r})",
                    policy.label()
                );
                assert!(
                    overhead > o,
                    "{}: overhead must strictly rise ({overhead} vs {o})",
                    policy.label()
                );
            }
            last = Some((residual, overhead));
        }
        println!("frontier: residual strictly falls and overhead strictly rises up the ladder");
    }

    println!("\nE20 smoke: all workload-frontier contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    mercurial_bench::header("E20 — the corruption-vs-overhead frontier");
    let seed = 7u64;
    let base = frontier_scenario(seed, true, None);
    println!(
        "scenario {}: {} machines, {} months, seed {seed}, diurnal amplitude {}",
        base.name, base.fleet.machines, base.sim.months, base.workloads.traffic_amplitude
    );

    let mut arms: Vec<String> = Vec::new();

    // Uniform rungs: every class pinned to one policy, closed loop.
    let prof = mercurial_prof::Prof::enabled();
    for policy in LADDER {
        let t0 = Instant::now();
        let out = prof.scope("frontier.ladder", || {
            ClosedLoopDriver::execute(&frontier_scenario(seed, true, Some(policy)))
        });
        let secs = t0.elapsed().as_secs_f64();
        arms.push(arm_json(policy.label(), &out, 0, secs));
        print_arm(policy.label(), &out, 0, secs);
    }

    // Adaptive arms: classes start at `none`; the closed loop escalates
    // any class whose per-epoch corruption crosses the threshold. The
    // default threshold only reacts to the big bursts — one epoch too
    // late, since a switch broadcast at epoch N takes effect at N+1 and
    // the demo's defects corrupt in single-epoch bursts. The sensitive
    // threshold arms policies off the small precursor trickles, so the
    // later bursts land on an already-escalated class.
    for (label, threshold) in [
        ("adaptive", base.workloads.escalate_threshold),
        ("adaptive-sensitive", 100),
    ] {
        let mut s = frontier_scenario(seed, true, None);
        s.workloads.adapt = true;
        s.workloads.escalate_threshold = threshold;
        s.trace.enabled = true;
        let t0 = Instant::now();
        let out = prof.scope("frontier.adaptive", || ClosedLoopDriver::execute(&s));
        let secs = t0.elapsed().as_secs_f64();
        let escalations = out
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == "mitigation.escalated")
            .count();
        arms.push(arm_json(label, &out, escalations, secs));
        print_arm(label, &out, escalations, secs);
    }

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"seed\": {seed},\n  \"traffic_amplitude\": {},\n  \"escalate_threshold\": {},\n  \"arms\": [\n{}\n  ]",
        base.name,
        base.fleet.machines,
        base.sim.months,
        base.workloads.traffic_amplitude,
        base.workloads.escalate_threshold,
        arms.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontier.json");
    mercurial_bench::write_bench_json(path, "e20_frontier", 1, &prof.finish(), &body);
    println!("\nfrontier written to BENCH_frontier.json");
}

fn print_arm(label: &str, out: &mercurial::ClosedLoopOutcome, escalations: usize, secs: f64) {
    let totals = class_totals(out);
    let residual: u64 = totals.iter().map(ClassTotals::residual).sum();
    let overhead: u64 = totals.iter().map(|t| t.overhead_ops).sum();
    println!(
        "\n{label:>12}: residual {residual:>12}, overhead {overhead:>14}, \
         {escalations} escalations, {secs:.2}s"
    );
    for t in &totals {
        println!(
            "{:>16}: corrupt {:>12}  caught {:>12}  residual {:>12}  overhead {:>14}",
            t.name,
            t.corrupt_ops,
            t.caught,
            t.residual(),
            t.overhead_ops
        );
    }
}

fn arm_json(
    label: &str,
    out: &mercurial::ClosedLoopOutcome,
    escalations: usize,
    secs: f64,
) -> String {
    let totals = class_totals(out);
    let classes: Vec<String> = totals
        .iter()
        .map(|t| {
            format!(
                "        {{\"class\": \"{}\", \"corrupt_ops\": {}, \"caught\": {}, \
                 \"residual\": {}, \"user_reports\": {}, \"overhead_ops\": {}}}",
                t.name,
                t.corrupt_ops,
                t.caught,
                t.residual(),
                t.user_reports,
                t.overhead_ops
            )
        })
        .collect();
    let residual: u64 = totals.iter().map(ClassTotals::residual).sum();
    let overhead: u64 = totals.iter().map(|t| t.overhead_ops).sum();
    format!
        (
        "    {{\"arm\": \"{label}\", \"residual\": {residual}, \"overhead_ops\": {overhead}, \
         \"detections\": {}, \"escalations\": {escalations}, \"secs\": {secs:.3}, \"classes\": [\n{}\n      ]}}",
        out.pipeline.detections.len(),
        classes.join(",\n"),
    )
}

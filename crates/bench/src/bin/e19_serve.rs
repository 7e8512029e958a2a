//! E19 — fleet-as-a-service: what an impaired telemetry link costs.
//!
//! `mercurial-serve` splits the closed loop into shard workers streaming
//! evidence to one scoreboard/watch server over a framed socket protocol,
//! with a deterministic link-impairment layer (loss, delay, duplication,
//! reorder) between them. The paper's detection machinery implicitly
//! assumes the signals *arrive*; this experiment prices that assumption:
//! detection-latency p95 and alert fidelity (missed / late / spurious
//! against the clean run) as functions of the impairment level.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e19_serve [-- --smoke]
//! ```
//!
//! Full mode sweeps loss levels (with a delay+duplication+reorder arm on
//! top of the worst loss) and writes `BENCH_serve.json`. `--smoke` checks
//! the contracts instead: frame round-trip, zero-impairment parity with
//! the in-process driver, and loss monotonicity — the shared-uniform
//! coupling guarantees a higher loss level drops a superset of frames
//! (`make serve-smoke`).

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::scenario::ImpairConfig;
use mercurial::Scenario;
use mercurial_metrics::nearest_rank;
use mercurial_serve::{alert_fidelity, run_served, run_served_impaired, ServeOptions};
use mercurial_trace::export::to_prometheus;
use mercurial_watch::{Cmp, EpochField, Rule, RuleKind, RuleSet, Source};

/// Loss sweep; each level reruns the full served loop.
const LOSS_LEVELS: [f64; 5] = [0.0, 0.05, 0.1, 0.3, 0.6];

fn main() {
    mercurial_bench::smoke_or_full(run_smoke, run_full);
}

/// The served scenario: demo fleet, feedback on, tracing and watch on
/// (the watch report is the fidelity measurand).
fn serve_scenario(seed: u64, workers: u32) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s.serve.workers = workers;
    s
}

/// The scenario's default rules plus hair-trigger ones, so the clean run
/// fires enough alerts for missed/late classification to have support.
fn fidelity_rules(scenario: &Scenario) -> RuleSet {
    let mut rules = scenario.watch.rule_set();
    rules.rules.push(Rule {
        scope: Default::default(),
        name: "ops-hair-trigger".into(),
        kind: RuleKind::Threshold {
            source: Source::EpochMax(EpochField::CorruptOps),
            op: Cmp::Gt,
            limit: 10.0,
        },
    });
    rules.rules.push(Rule {
        scope: Default::default(),
        name: "ops-windowed".into(),
        kind: RuleKind::Windowed {
            field: EpochField::CorruptOps,
            op: Cmp::Gt,
            limit: 1.0,
            window: 3,
        },
    });
    rules.rules.push(Rule {
        scope: Default::default(),
        name: "latency-hair-trigger".into(),
        kind: RuleKind::Percentile {
            histogram: "detect.latency_hours".into(),
            q: 0.95,
            op: Cmp::Ge,
            limit: 1.0,
        },
    });
    rules
}

fn opts(scenario: &Scenario) -> ServeOptions<'static> {
    ServeOptions {
        rules: Some(fidelity_rules(scenario)),
        ..ServeOptions::default()
    }
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E19 — served-topology contracts (smoke)");

    // 1. Frame codec round-trip: back-to-back frames, clean EOF.
    {
        use mercurial_serve::frame::{read_frame, write_frame};
        let mut buf = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![0xAB; 4096]];
        for p in &payloads {
            write_frame(&mut buf, p).expect("write frame");
        }
        let mut r = &buf[..];
        for p in &payloads {
            assert_eq!(read_frame(&mut r).expect("read frame"), Some(p.clone()));
        }
        assert_eq!(read_frame(&mut r).expect("clean EOF"), None);
        println!("frames: round-trip and boundary EOF ok");
    }

    // 2. Zero-impairment parity: the served topology reproduces the
    //    in-process driver bit-for-bit at 1/2/4 workers.
    let reference = ClosedLoopDriver::execute(&serve_scenario(7, 1));
    let ref_watch = reference.watch.as_ref().expect("watch enabled").render();
    let ref_prom = to_prometheus(&reference.trace);
    assert!(!reference.pipeline.detections.is_empty());
    for workers in [1u32, 2, 4] {
        let s = serve_scenario(7, workers);
        let served = run_served(&s, &ServeOptions::default()).expect("served run");
        assert_eq!(served.link.dropped, 0);
        let out = &served.outcome;
        assert_eq!(out.pipeline.detections, reference.pipeline.detections);
        assert_eq!(out.pipeline.signals.all(), reference.pipeline.signals.all());
        assert_eq!(out.pipeline.sim_summary, reference.pipeline.sim_summary);
        assert_eq!(out.series, reference.series);
        assert_eq!(
            out.watch.as_ref().expect("watch enabled").render(),
            ref_watch
        );
        assert_eq!(to_prometheus(&out.trace), ref_prom);
    }
    println!("parity: served == in-process bit-for-bit at 1/2/4 workers");

    // 3. Loss monotonicity: drop decisions are a pure function of
    //    (seed, worker, epoch) under shared-uniform coupling, so a higher
    //    loss level drops a superset of frames — and therefore a
    //    monotonically non-decreasing count at equal frame offers.
    let mut last_dropped = 0u64;
    let mut frames = None;
    for loss in [0.0, 0.2, 0.5, 0.9] {
        let s = serve_scenario(7, 2);
        let impair = ImpairConfig {
            loss,
            ..ImpairConfig::default()
        };
        let served = run_served_impaired(&s, impair, &ServeOptions::default()).expect("served");
        let f = *frames.get_or_insert(served.link.frames);
        assert_eq!(
            served.link.frames, f,
            "frame offers must not vary with loss"
        );
        assert!(
            served.link.dropped >= last_dropped,
            "dropped frames must be monotone in loss"
        );
        last_dropped = served.link.dropped;
    }
    assert!(last_dropped > 0, "loss 0.9 must actually drop frames");
    println!("impairment: dropped frames monotone across loss 0/0.2/0.5/0.9");

    println!("\nE19 smoke: all served-topology contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let workers = 2u32;
    let seed = 7u64;
    let base = serve_scenario(seed, workers);
    mercurial_bench::header(&format!(
        "E19 — fleet-as-a-service   [{}: {} machines, {} months, {workers} workers]",
        base.name, base.fleet.machines, base.sim.months
    ));
    let opts = opts(&base);

    // The clean served run is ground truth for fidelity and latency.
    let prof = mercurial_prof::Prof::enabled();
    let (clean, clean_secs) =
        mercurial_bench::timed(&prof, "serve.clean", || run_served(&base, &opts));
    let clean = clean.expect("clean served run");
    let clean_watch = clean.outcome.watch.clone().expect("watch enabled");
    let clean_fired = clean_watch.alerts().len();
    let clean_p95 =
        nearest_rank(0.95, &clean.outcome.pipeline.detection_latency_hours).unwrap_or(0.0);
    println!(
        "clean: {clean_secs:.2} s, {} detections, p95 latency {clean_p95:.0} h, {clean_fired} alerts fired",
        clean.outcome.pipeline.detections.len()
    );
    println!(
        "clean wire: {} bytes in over {} frames, {} of them in {} evidence frames",
        clean.wire.bytes_in, clean.wire.frames_in, clean.wire.evidence_bytes_in, clean.link.frames
    );
    assert!(
        clean_fired > 0,
        "fidelity needs the clean run to fire alerts"
    );

    let mut rows = Vec::new();
    for loss in LOSS_LEVELS {
        let impair = ImpairConfig {
            loss,
            ..ImpairConfig::default()
        };
        let served = prof
            .scope("serve.loss_sweep", || {
                run_served_impaired(&base, impair, &opts)
            })
            .expect("impaired run");
        rows.push(measure("loss", loss, &served, &clean_watch, clean_p95));
    }
    // One arm with everything on, stacked on a mid loss level: the
    // realistic degraded network rather than a single failure mode.
    let chaos = ImpairConfig {
        loss: 0.3,
        max_delay_epochs: 4,
        duplicate: 0.2,
        reorder: 0.2,
        ..ImpairConfig::default()
    };
    let served = prof
        .scope("serve.chaos", || run_served_impaired(&base, chaos, &opts))
        .expect("chaos run");
    rows.push(measure("chaos", 0.3, &served, &clean_watch, clean_p95));

    // Acceptance: dropped frames strictly track the loss level, and the
    // fidelity degradation score is monotone (non-decreasing) in loss.
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.arm == "loss" && b.arm == "loss" {
            assert!(
                b.dropped >= a.dropped,
                "dropped frames must be monotone in loss"
            );
            assert!(
                b.degradation >= a.degradation,
                "alert-fidelity degradation must be monotone in loss \
                 ({} at {}, {} at {})",
                a.degradation,
                a.level,
                b.degradation,
                b.level
            );
        }
    }

    let json_rows: Vec<String> = rows.iter().map(Row::to_json).collect();
    // Wire bytes repeat exactly run to run (the workers here do not
    // profile, so their `Bye` frames carry no wall-clock readings).
    let wire = clean.wire;
    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"workers\": {workers},\n  \"seed\": {seed},\n  \"rules\": {},\n  \"clean_secs\": {clean_secs:.4},\n  \"clean_wire_bytes_in\": {},\n  \"clean_evidence_bytes_in\": {},\n  \"clean_alerts_fired\": {clean_fired},\n  \"clean_detect_latency_p95_hours\": {clean_p95:.1},\n  \"sweep\": [\n{}\n  ]",
        base.name,
        base.fleet.machines,
        base.sim.months,
        opts.rules.as_ref().map_or(0, |r| r.rules.len()),
        wire.bytes_in,
        wire.evidence_bytes_in,
        json_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    mercurial_bench::write_bench_json(path, "e19_serve", 1, &prof.finish(), &body);
    println!("\ndegradation curves written to BENCH_serve.json");
}

struct Row {
    arm: &'static str,
    level: f64,
    frames: u64,
    dropped: u64,
    delayed: u64,
    duplicated: u64,
    reordered: u64,
    detections: usize,
    detect_p95: f64,
    matched: u32,
    missed: u32,
    late: u32,
    spurious: u32,
    lateness_hours: f64,
    degradation: f64,
}

fn measure(
    arm: &'static str,
    level: f64,
    served: &mercurial_serve::ServedOutcome,
    clean_watch: &mercurial_watch::WatchReport,
    clean_p95: f64,
) -> Row {
    let watch = served.outcome.watch.as_ref().expect("watch enabled");
    let f = alert_fidelity(clean_watch, watch);
    let detect_p95 =
        nearest_rank(0.95, &served.outcome.pipeline.detection_latency_hours).unwrap_or(f64::NAN);
    let l = &served.link;
    println!(
        "{arm} {level:>4.2}: dropped {}/{} frames, {} detections, p95 {detect_p95:>6.0} h \
         (clean {clean_p95:.0}), fidelity matched/missed/late/spurious {}/{}/{}/{} \
         (degradation {:.1})",
        l.dropped,
        l.frames,
        served.outcome.pipeline.detections.len(),
        f.matched,
        f.missed,
        f.late,
        f.spurious,
        f.degradation()
    );
    Row {
        arm,
        level,
        frames: l.frames,
        dropped: l.dropped,
        delayed: l.delayed,
        duplicated: l.duplicated,
        reordered: l.reordered,
        detections: served.outcome.pipeline.detections.len(),
        detect_p95,
        matched: f.matched,
        missed: f.missed,
        late: f.late,
        spurious: f.spurious,
        lateness_hours: f.lateness_hours,
        degradation: f.degradation(),
    }
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "    {{\"arm\": \"{}\", \"level\": {}, \"frames\": {}, \"dropped\": {}, \
             \"delayed\": {}, \"duplicated\": {}, \"reordered\": {}, \"detections\": {}, \
             \"detect_latency_p95_hours\": {:.1}, \"matched\": {}, \"missed\": {}, \
             \"late\": {}, \"spurious\": {}, \"lateness_hours\": {:.1}, \"degradation\": {:.1}}}",
            self.arm,
            self.level,
            self.frames,
            self.dropped,
            self.delayed,
            self.duplicated,
            self.reordered,
            self.detections,
            if self.detect_p95.is_nan() {
                -1.0
            } else {
                self.detect_p95
            },
            self.matched,
            self.missed,
            self.late,
            self.spurious,
            self.lateness_hours,
            self.degradation,
        )
    }
}

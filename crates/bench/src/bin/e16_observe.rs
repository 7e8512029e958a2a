//! E16 — observability overhead: what each layer costs the loop it watches.
//!
//! Tracing, watch rules, the decision audit and the phase profiler all
//! ride the closed loop, and each is bound by the same deal: it is
//! write-only (it never moves a simulated bit) and it stays in the loop's
//! cost class. This experiment prices every layer on one footing: the
//! paper scenario is built once, and each layer's arm is timed against
//! its base arm on that one experiment by the shared sampler
//! ([`mercurial_bench::interleave`]), read as the median of the per-pair
//! ratios. No layer flag enters the build, so every arm reuses it. Every
//! timed run must reproduce the all-off run's `sim_summary` and
//! detections.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e16_observe [-- --smoke]
//! ```
//!
//! Full mode times the [`LAYERS`] table over [`PAIRS`] pairs a layer,
//! takes each arm's work counters from one untimed run, prints the
//! table, writes `BENCH_observe.json` (its envelope carries the profiled
//! paper loop's phase tree), and then fails once, naming every bar that
//! failed. `--smoke` runs the two timing gates of `make ci`
//! (`make observe-smoke`): tracing on the paper loop, and the profiler
//! on the demo fleet widened to 20,000 machines.

use mercurial::audit::DecisionLedger;
use mercurial::closedloop::{ClosedLoopDriver, ClosedLoopOutcome, RunOptions};
use mercurial::{FleetExperiment, Scenario};
use mercurial_bench::interleave;
use mercurial_prof::{Prof, SelfProfile};

/// Base/on pairs per layer in full mode and in the profiler gate. Two
/// 101-pair runs of one build can differ by a full point of overhead, so
/// a 2% bar needs about twice that.
const PAIRS: usize = 201;

/// Pairs of the smoke trace gate, whose 1.5× bar sits far from the
/// reading.
const TRACE_SMOKE_PAIRS: usize = 21;

/// Which observability layers an arm turns on. Feedback is always on.
#[derive(Clone, Copy)]
struct Arm {
    name: &'static str,
    trace: bool,
    watch: bool,
    audit: bool,
    prof: bool,
}

const OFF: Arm = Arm {
    name: "off",
    trace: false,
    watch: false,
    audit: false,
    prof: false,
};
const TRACE: Arm = Arm {
    name: "trace",
    trace: true,
    ..OFF
};
const WATCH: Arm = Arm {
    name: "trace+watch",
    watch: true,
    ..TRACE
};
const AUDIT: Arm = Arm {
    name: "trace+watch+audit",
    audit: true,
    ..WATCH
};
const PROF: Arm = Arm {
    name: "trace+watch+prof",
    prof: true,
    ..WATCH
};
const ALL: Arm = Arm {
    name: "all-on",
    audit: true,
    ..PROF
};

impl Arm {
    fn scenario(self, base: &Scenario) -> Scenario {
        let mut s = base.clone();
        s.closed_loop.feedback = true;
        s.trace.enabled = self.trace;
        s.watch.enabled = self.watch;
        s.audit.enabled = self.audit;
        s
    }
}

/// An acceptance bar on a layer's on/base ratio.
#[derive(Clone, Copy)]
enum Bar {
    None,
    RatioAtMost(f64),
    PctUnder(f64),
}

impl Bar {
    fn holds(self, ratio: f64) -> bool {
        match self {
            Bar::None => true,
            Bar::RatioAtMost(max) => ratio <= max,
            Bar::PctUnder(max) => 100.0 * (ratio - 1.0) < max,
        }
    }

    fn label(self) -> String {
        match self {
            Bar::None => "none".into(),
            Bar::RatioAtMost(max) => format!("<= {max}x"),
            Bar::PctUnder(max) => format!("< {max}%"),
        }
    }
}

/// One layer: its on arm timed against the base arm the layer sits on.
struct Layer {
    name: &'static str,
    base: Arm,
    on: Arm,
    bar: Bar,
}

/// The layer table. Each base is the arm the layer's own bench used to
/// compare against, so every bar keeps its meaning.
static LAYERS: [Layer; 5] = [
    Layer {
        name: "trace",
        base: OFF,
        on: TRACE,
        bar: Bar::RatioAtMost(1.5),
    },
    Layer {
        name: "watch",
        base: TRACE,
        on: WATCH,
        bar: Bar::PctUnder(2.0),
    },
    Layer {
        name: "audit",
        base: WATCH,
        on: AUDIT,
        bar: Bar::PctUnder(2.0),
    },
    Layer {
        name: "prof",
        base: WATCH,
        on: PROF,
        bar: Bar::PctUnder(2.0),
    },
    Layer {
        name: "all-on",
        base: OFF,
        on: ALL,
        bar: Bar::None,
    },
];

fn main() {
    mercurial_bench::smoke_or_full(run_smoke, run_full);
}

/// One closed loop of `arm` on `experiment`, profiled when the arm says so.
fn run(arm: Arm, s: &Scenario, experiment: &FleetExperiment) -> (ClosedLoopOutcome, Prof) {
    let prof = if arm.prof {
        Prof::enabled()
    } else {
        Prof::disabled()
    };
    let opts = RunOptions {
        prof: Some(&prof),
        ..RunOptions::default()
    };
    let out = ClosedLoopDriver::execute_with(s, experiment, opts);
    (out, prof)
}

/// A layer's timing: the median on/base pair ratio and each arm's median.
struct Timing {
    ratio: f64,
    base_secs: f64,
    on_secs: f64,
}

/// Times `layer` over `pairs` pairs on `experiment`. Every run must
/// reproduce the all-off run `twin`: the layers are write-only.
fn time_layer(
    layer: &Layer,
    base: &Scenario,
    experiment: &FleetExperiment,
    twin: &ClosedLoopOutcome,
    pairs: usize,
) -> Timing {
    let arms = [layer.base, layer.on].map(|arm| (arm, arm.scenario(base)));
    let checked = |(arm, s): &(Arm, Scenario)| {
        let (out, _) = run(*arm, s, experiment);
        assert_eq!(
            out.pipeline.sim_summary, twin.pipeline.sim_summary,
            "{}: observability must be write-only",
            arm.name
        );
        assert_eq!(out.pipeline.detections, twin.pipeline.detections);
    };
    let rounds = interleave(
        &Prof::disabled(),
        pairs,
        &mut [
            ("base", &mut || checked(&arms[0])),
            ("on", &mut || checked(&arms[1])),
        ],
    );
    Timing {
        ratio: rounds.ratio(1, 0),
        base_secs: rounds.spread(0).median,
        on_secs: rounds.spread(1).median,
    }
}

/// Fails once, naming every layer whose reading misses its bar.
fn check_bars(readings: &[(&Layer, f64)]) {
    let failed: Vec<String> = readings
        .iter()
        .filter(|(layer, ratio)| !layer.bar.holds(*ratio))
        .map(|(layer, ratio)| format!("{} {ratio:.4} (bar {})", layer.name, layer.bar.label()))
        .collect();
    assert!(failed.is_empty(), "bars failed: {}", failed.join(", "));
    println!("\nall bars hold");
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E16 — observability gates (smoke)");

    // The paper loop as committed: `scenarios/paper.json` turns its watch
    // block on, so the gate times tracing over the watched loop.
    let paper = mercurial_bench::paper_scenario(0x0e16);
    let watched = Arm {
        name: "watch",
        watch: true,
        ..OFF
    };
    let trace = Layer {
        name: "trace",
        base: watched,
        on: WATCH,
        ..LAYERS[0]
    };
    // The profiler's cost is fixed per span, so on the 1,500-machine demo
    // fleet it alone nears the budget; at 20,000 machines it is a small
    // share.
    let mut wide = Scenario::demo(7);
    wide.fleet.machines = 20_000;
    let prof = &LAYERS[3];

    let mut readings = Vec::new();
    for (layer, base, pairs) in [(&trace, &paper, TRACE_SMOKE_PAIRS), (prof, &wide, PAIRS)] {
        let experiment = FleetExperiment::build(base);
        let (twin, _) = run(OFF, &OFF.scenario(base), &experiment);
        let t = time_layer(layer, base, &experiment, &twin, pairs);
        println!(
            "{:>6} on {} ({} machines): median {}/{} ratio {:.4} over {pairs} pairs",
            layer.name, base.name, base.fleet.machines, layer.on.name, layer.base.name, t.ratio
        );
        readings.push((layer, t.ratio));
    }
    check_bars(&readings);
}

// -------------------------------------------------------------- full mode

/// The work an arm's run does, counted on one untimed run.
struct Work {
    trace_events: usize,
    jsonl_bytes: usize,
    rules: usize,
    epochs: u32,
    ledger_entries: usize,
    prof_spans: u64,
}

fn count_work(arm: Arm, base: &Scenario, experiment: &FleetExperiment) -> (Work, SelfProfile) {
    let (out, prof) = run(arm, &arm.scenario(base), experiment);
    let profile = prof.finish();
    let work = Work {
        trace_events: out.trace.events.len(),
        jsonl_bytes: out.trace.to_jsonl().len(),
        rules: out.watch.as_ref().map_or(0, |w| w.outcomes.len()),
        epochs: out.epochs,
        ledger_entries: if arm.audit {
            DecisionLedger::from_trace(&out.trace).len()
        } else {
            0
        },
        prof_spans: profile.phases.iter().map(|p| p.calls).sum(),
    };
    (work, profile)
}

fn run_full() {
    let scenario = mercurial_bench::paper_scenario(0x0e16);
    mercurial_bench::header(&format!(
        "E16 — observability overhead   [{}: {} machines, {} months, {PAIRS} pairs a layer]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));
    let experiment = FleetExperiment::build(&scenario);
    let (twin, _) = run(OFF, &OFF.scenario(&scenario), &experiment);
    let (_, profile) = count_work(PROF, &scenario, &experiment);

    println!("  layer             on arm    ratio    base s      on s  events  jsonl B rules  ledger  spans");
    let mut rows = Vec::new();
    let mut readings = Vec::new();
    for layer in &LAYERS {
        let t = time_layer(layer, &scenario, &experiment, &twin, PAIRS);
        let (w, _) = count_work(layer.on, &scenario, &experiment);
        println!(
            "{:>7} {:>18} {:>8.4} {:>9.5} {:>9.5}  {:>6} {:>8} {:>5} {:>7} {:>6}",
            layer.name,
            layer.on.name,
            t.ratio,
            t.base_secs,
            t.on_secs,
            w.trace_events,
            w.jsonl_bytes,
            w.rules,
            w.ledger_entries,
            w.prof_spans
        );
        rows.push(format!(
            "    {{\"layer\": \"{}\", \"base\": \"{}\", \"on\": \"{}\", \"bar\": \"{}\", \"ratio\": {:.4}, \"base_secs\": {:.5}, \"on_secs\": {:.5}, \"trace_events\": {}, \"jsonl_bytes\": {}, \"rules\": {}, \"epochs\": {}, \"ledger_entries\": {}, \"prof_spans\": {}}}",
            layer.name,
            layer.base.name,
            layer.on.name,
            layer.bar.label(),
            t.ratio,
            t.base_secs,
            t.on_secs,
            w.trace_events,
            w.jsonl_bytes,
            w.rules,
            w.epochs,
            w.ledger_entries,
            w.prof_spans
        ));
        readings.push((layer, t.ratio));
    }
    println!(
        "\nprofiled paper loop ({} arm):\n{}",
        PROF.name,
        profile.render_table()
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"pairs\": {PAIRS},\n  \"layers\": [\n{}\n  ]",
        scenario.name,
        scenario.fleet.machines,
        scenario.sim.months,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_observe.json");
    mercurial_bench::write_bench_json(path, "e16_observe", PAIRS as u64, &profile, &body);
    println!("baseline written to BENCH_observe.json");
    check_bars(&readings);
}

//! Integration contracts of the alert-rule engine over live runs.
//!
//! Four properties anchor the watch layer:
//!
//! 1. **Alert provenance** — the demo fleet trips the default rules, and
//!    every fired rule leaves an `alert.fired` instant in the trace at
//!    its firing hour.
//! 2. **Streaming parity** — a run drained through [`JsonlStreamSink`]
//!    produces byte-identical JSONL to the buffered export, while the
//!    in-memory trace keeps only the metric set.
//! 3. **Replay equivalence** — evaluating the rules over the exported
//!    JSONL reproduces the in-loop report exactly.
//! 4. **Quiet fleets stay quiet** — with no mercurial cores, even
//!    hair-trigger rules never fire, and regression rules without a
//!    baseline report "no baseline" instead of firing.

use mercurial::closedloop::{ClosedLoopDriver, RunOptions};
use mercurial::trace::{EventKind, JsonlStreamSink};
use mercurial::watch::{Cmp, EpochField, Rule, RuleKind, RuleSet, RuleStatus, Source, WatchInput};
use mercurial::{FleetExperiment, Scenario};

fn watched_demo(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s
}

/// Rules tight enough that any defective demo fleet trips them.
fn hair_trigger_rules() -> RuleSet {
    RuleSet {
        rules: vec![
            Rule {
                scope: Default::default(),
                name: "ops".into(),
                kind: RuleKind::Threshold {
                    source: Source::EpochMax(EpochField::CorruptOps),
                    op: Cmp::Gt,
                    limit: 10.0,
                },
            },
            Rule {
                scope: Default::default(),
                name: "latency".into(),
                kind: RuleKind::Percentile {
                    histogram: "detect.latency_hours".into(),
                    q: 0.95,
                    op: Cmp::Ge,
                    limit: 1.0,
                },
            },
            Rule {
                scope: Default::default(),
                name: "regress".into(),
                kind: RuleKind::Regression {
                    source: Source::EpochSum(EpochField::CorruptOps),
                    tolerance_frac: 0.25,
                },
            },
        ],
    }
}

#[test]
fn demo_fleet_trips_the_default_rules() {
    let out = ClosedLoopDriver::execute(&watched_demo(7));
    let report = out.watch.expect("watch block is enabled").render();
    assert!(
        report.contains("FIRED"),
        "demo fleet must trip the default rules:\n{report}"
    );
}

#[test]
fn alert_instants_carry_rule_indices_and_hours() {
    let out = ClosedLoopDriver::execute(&watched_demo(7));
    let report = out.watch.expect("watch block is enabled");
    let instants: Vec<(f64, f64)> = out
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "alert.fired")
        .map(|e| (e.hour, e.value))
        .collect();
    let fired: Vec<(usize, f64)> = report
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match &o.status {
            RuleStatus::Fired(a) => Some((i, a.hour)),
            _ => None,
        })
        .collect();
    assert!(!fired.is_empty(), "demo fleet must fire at least one rule");
    assert_eq!(
        instants.len(),
        fired.len(),
        "one alert.fired instant per fired rule"
    );
    for (idx, hour) in fired {
        assert!(
            instants.contains(&(hour, idx as f64)),
            "rule {idx} fired at h{hour} but no matching instant in {instants:?}"
        );
    }
}

#[test]
fn streamed_run_is_byte_identical_to_buffered_export() {
    let base = watched_demo(7);
    let buffered = ClosedLoopDriver::execute(&base).trace.to_jsonl();

    let experiment = FleetExperiment::build(&base);
    let mut sink = JsonlStreamSink::new(Vec::new());
    let out = ClosedLoopDriver::execute_with(
        &base,
        &experiment,
        RunOptions {
            sink: Some(&mut sink),
            ..RunOptions::default()
        },
    );
    let streamed = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    assert_eq!(streamed, buffered, "streaming must not change a byte");
    // The sink drained the events; only the metric set stays in memory.
    assert!(out.trace.events.is_empty(), "events live in the sink");
    assert!(out.trace.metrics.histograms().count() > 0);
}

#[test]
fn replaying_the_exported_trace_reproduces_the_report() {
    let scenario = watched_demo(7);
    let out = ClosedLoopDriver::execute(&scenario);
    let live = out.watch.expect("watch block is enabled");
    let input = WatchInput::from_jsonl(&out.trace.to_jsonl()).expect("exported trace replays");
    let offline = scenario.watch.rule_set().evaluate(&input, None);
    assert_eq!(
        live.render(),
        offline.render(),
        "offline replay must agree with the in-loop engine"
    );
}

#[test]
fn healthy_fleet_fires_nothing_even_on_hair_trigger_rules() {
    let mut scenario = watched_demo(7);
    for p in &mut scenario.fleet.products {
        p.mercurial_rate_per_core = 0.0;
    }
    let experiment = FleetExperiment::build(&scenario);
    assert_eq!(experiment.population().count(), 0, "fleet must be healthy");
    let out = ClosedLoopDriver::execute_with(
        &scenario,
        &experiment,
        RunOptions {
            rules: Some(hair_trigger_rules()),
            ..RunOptions::default()
        },
    );
    let report = out.watch.expect("rules were supplied");
    assert!(
        !report.any_fired(),
        "healthy fleet tripped a rule:\n{}",
        report.render()
    );
    // Nothing was ever detected, so the latency histogram is empty...
    assert!(matches!(report.outcomes[1].status, RuleStatus::NoData));
    // ...and without a recorded baseline the regression rule cannot fire.
    assert!(matches!(report.outcomes[2].status, RuleStatus::NoBaseline));
}

#[test]
fn prometheus_rules_export_matches_the_golden_file() {
    // The CLI surface (`watch --dump-rules --format prom`) renders the
    // scenario's default rule set at the scenario's epoch length; the
    // golden file pins every formatting decision (names, durations,
    // lookbacks, the commented-out regression rules).
    let scenario = Scenario::demo(0);
    let rendered = scenario
        .watch
        .rule_set()
        .to_prometheus_rules("mercurial-watch", scenario.sim.epoch_hours);
    assert_eq!(
        rendered,
        include_str!("golden/watch_rules.prom.yaml"),
        "regenerate with `mercurial-lab watch --dump-rules --format prom`"
    );
}

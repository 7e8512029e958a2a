//! E17 — alerting overhead: in-loop rule evaluation must be noise.
//!
//! The watch layer (`mercurial-watch`) evaluates alert rules at every
//! epoch boundary of the closed-loop driver and stamps firings into the
//! trace as `alert.fired` instants. The deal that makes always-on
//! alerting acceptable is that rule evaluation is a handful of float
//! comparisons per epoch — invisible next to the screeners and the
//! workload simulation. This experiment prices that deal at paper scale:
//! the closed loop with the watch block off vs on (default rule set),
//! timed in [`PAIRS`] pairs by the shared sampler
//! ([`mercurial_bench::interleave`]) and gated on the median of the
//! per-pair ratios, and writes the baseline to `BENCH_watch.json`.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e17_watch_overhead [-- --smoke]
//! ```
//!
//! `--smoke` skips the timing (meaningless on shared CI machines) and
//! instead checks the alerting correctness contracts at demo scale:
//! the demo fleet tripping the default rules, one `alert.fired` instant
//! per fired rule, a streaming sink
//! that reproduces the buffered export byte for byte, offline replay
//! agreeing with the in-loop engine, and a healthy fleet staying silent
//! on hair-trigger rules (`make watch-smoke`).

use mercurial::closedloop::{ClosedLoopDriver, RunOptions};
use mercurial::trace::{EventKind, JsonlStreamSink};
use mercurial::watch::{Cmp, EpochField, Rule, RuleKind, RuleSet, Source, WatchInput};
use mercurial::{FleetExperiment, Scenario};

/// Watch-off/watch-on closed-loop pairs.
const PAIRS: usize = 101;

fn main() {
    mercurial_bench::smoke_or_full(run_smoke, run_full);
}

// ------------------------------------------------------------- smoke mode

fn watched_demo(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s
}

fn run_smoke() {
    mercurial_bench::header("E17 — alerting contracts (smoke)");
    // Seed 7 is a demo fleet whose worst epoch clears the default
    // corrupt-ops threshold, so the FIRED path is exercised end to end.
    let base = watched_demo(7);

    // 1. The demo fleet trips the default rules, and every fired rule
    //    leaves exactly one alert.fired instant.
    let out = ClosedLoopDriver::execute(&base);
    let report = out.watch.as_ref().expect("watch enabled").render();
    assert!(
        report.contains("FIRED"),
        "demo fleet must trip the default rules:\n{report}"
    );
    let fired = report.matches("FIRED").count();
    let instants = out
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "alert.fired")
        .count();
    assert_eq!(instants, fired, "one alert.fired instant per fired rule");
    println!("instants: {instants} alert.fired instants for {fired} fired rules");

    // 2. Streaming drains reproduce the buffered export byte for byte.
    let experiment = FleetExperiment::build(&base);
    let mut sink = JsonlStreamSink::new(Vec::new());
    let streamed_out = ClosedLoopDriver::execute_with(
        &base,
        &experiment,
        RunOptions {
            sink: Some(&mut sink),
            ..RunOptions::default()
        },
    );
    let streamed = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    let buffered = out.trace.to_jsonl();
    assert_eq!(streamed, buffered, "streamed bytes must match buffered");
    assert!(streamed_out.trace.events.is_empty(), "sink drained events");
    println!(
        "stream: {} bytes, byte-identical to buffered export",
        streamed.len()
    );

    // 3. Offline replay of the export agrees with the in-loop engine.
    let live = report;
    let input = WatchInput::from_jsonl(&buffered).expect("export replays");
    let offline = base.watch.rule_set().evaluate(&input, None).render();
    assert_eq!(live, offline, "replay must reproduce the in-loop report");
    println!("replay: offline evaluation matches the in-loop report");

    // 4. A fleet with no mercurial cores never fires, even on rules set
    //    to trip at the first corrupt op.
    let mut healthy = base.clone();
    for p in &mut healthy.fleet.products {
        p.mercurial_rate_per_core = 0.0;
    }
    let exp = FleetExperiment::build(&healthy);
    let hair_trigger = RuleSet {
        rules: vec![
            Rule {
                scope: Default::default(),
                name: "any-corruption".into(),
                kind: RuleKind::Threshold {
                    source: Source::EpochMax(EpochField::CorruptOps),
                    op: Cmp::Gt,
                    limit: 0.0,
                },
            },
            Rule {
                scope: Default::default(),
                name: "any-latency".into(),
                kind: RuleKind::Percentile {
                    histogram: "detect.latency_hours".into(),
                    q: 0.95,
                    op: Cmp::Ge,
                    limit: 1.0,
                },
            },
        ],
    };
    let quiet = ClosedLoopDriver::execute_with(
        &healthy,
        &exp,
        RunOptions {
            rules: Some(hair_trigger),
            ..RunOptions::default()
        },
    );
    let report = quiet.watch.expect("rules supplied");
    assert!(
        !report.any_fired(),
        "healthy fleet tripped a rule:\n{}",
        report.render()
    );
    println!("quiet: healthy fleet fires nothing on hair-trigger rules");
    println!("\nE17 smoke: all alerting contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let scenario = mercurial_bench::paper_scenario(0x0e17);
    mercurial_bench::header(&format!(
        "E17 — alerting overhead   [{}: {} machines, {} months]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));

    // The closed loop end to end: watch off vs watch on (default rule
    // set, tracing on in both arms so the comparison isolates the rule
    // engine, not the recorder).
    let mut off_s = scenario.clone();
    off_s.closed_loop.feedback = true;
    off_s.trace.enabled = true;
    off_s.watch.enabled = false;
    let mut on_s = off_s.clone();
    on_s.watch.enabled = true;
    // Each arm's experiment is built once, outside the timed arms, so the
    // ratio is the loop's alone.
    let (off_exp, on_exp) = (
        FleetExperiment::build(&off_s),
        FleetExperiment::build(&on_s),
    );

    let mut report = None;
    let mut epochs = 0u32;
    let prof = mercurial_prof::Prof::enabled();
    let pairs = mercurial_bench::interleave(
        &prof,
        PAIRS,
        &mut [
            ("loop.watch_off", &mut || {
                let off = ClosedLoopDriver::execute_on(&off_s, &off_exp);
                assert!(off.watch.is_none());
            }),
            ("loop.watch_on", &mut || {
                let on = ClosedLoopDriver::execute_on(&on_s, &on_exp);
                epochs = on.epochs;
                report = on.watch;
            }),
        ],
    );
    let report = report.expect("watch enabled");
    let rules = on_s.watch.rule_set().rules.len();
    let fired = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.status, mercurial::watch::RuleStatus::Fired(_)))
        .count();

    let (watch_off, watch_on) = (pairs.spread(0).median, pairs.spread(1).median);
    let pct = 100.0 * (pairs.ratio(1, 0) - 1.0);
    println!("closed loop, watch off:   {watch_off:>8.3} s   (median of {PAIRS})");
    println!(
        "closed loop, watch on:    {watch_on:>8.3} s   ({pct:+.2}%, {rules} rules, {fired} fired)"
    );
    print!("{}", report.render());

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"pairs\": {PAIRS},\n  \"rules\": {rules},\n  \"fired\": {fired},\n  \"watch_off_secs\": {watch_off:.4},\n  \"watch_on_secs\": {watch_on:.4},\n  \"watch_overhead_pct\": {pct:.3},\n  \"epochs\": {epochs}",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_watch.json");
    mercurial_bench::write_bench_json(
        path,
        "e17_watch_overhead",
        PAIRS as u64,
        &prof.finish(),
        &body,
    );
    println!("\nbaseline written to BENCH_watch.json");

    // Acceptance: in-loop rule evaluation costs < 2% of the run.
    assert!(
        pct < 2.0,
        "acceptance: watch overhead {pct:.2}% must stay under 2%"
    );
}

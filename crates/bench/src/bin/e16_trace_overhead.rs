//! E16 — tracing overhead: disabled recording must be free.
//!
//! The observability layer (`mercurial-trace`) threads a `Recorder`
//! through the fleet simulator, the screeners, and the closed-loop
//! driver. The deal that makes this acceptable in the hot path is that a
//! *disabled* recorder costs one branch per call site — no allocation, no
//! formatting. This experiment prices that deal at paper scale: the
//! whole-window simulation untraced, with a disabled recorder, and with
//! recording on, plus the closed loop off vs on, and writes the baseline
//! to `BENCH_trace.json`. The arms of each comparison are timed by the
//! shared sampler ([`mercurial_bench::interleave`]), and each overhead is
//! the median of the per-round ratios.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e16_trace_overhead [-- --smoke]
//! ```
//!
//! `--smoke` checks the tracing correctness contracts at demo scale: a
//! non-empty JSONL trace, a Chrome export that parses as JSON with
//! balanced B/E span pairs, and an incident timeline showing a full
//! onset → signal → quarantine → confirm story. It then gates the cost of
//! recording on the paper-scale closed loop as a ratio within one process
//! (the median of the per-pair traced/untraced ratios must stay within
//! [`MAX_TRACED_RATIO`]), which host load moves far less than absolute
//! wall clock (`make trace-smoke`).

use mercurial::closedloop::{ClosedLoopDriver, ClosedLoopOutcome};
use mercurial::fault::CoreUid;
use mercurial::trace::{incident_timeline, Recorder, TraceFlags};
use mercurial::{FleetExperiment, Scenario};
use mercurial_bench::{interleave, Rounds};
use mercurial_fleet::{SignalLog, SimSummary};
use mercurial_prof::Prof;

/// Untraced/traced closed-loop pairs per measurement.
const PAIRS: usize = 21;

/// Rounds of the three whole-window sim arms.
const SIM_ROUNDS: usize = 101;

/// The smoke gate on the median traced/untraced closed-loop wall-clock
/// ratio. Recording buffers events and counters but must not change what
/// the loop computes, so the two runs do the same work.
const MAX_TRACED_RATIO: f64 = 1.5;

fn main() {
    mercurial_bench::smoke_or_full(run_smoke, run_full);
}

// ------------------------------------------------------------- smoke mode

fn traced_demo(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s
}

fn run_smoke() {
    mercurial_bench::header("E16 — tracing contracts (smoke)");
    let base = traced_demo(0x0e16);

    // 1. The trace records, and the Chrome export is valid trace-event
    //    JSON with paired spans.
    let out = ClosedLoopDriver::execute(&base);
    let jsonl = out.trace.to_jsonl();
    assert!(!jsonl.is_empty(), "trace must record something");
    println!("trace: {} bytes of JSONL", jsonl.len());
    let chrome = out.trace.to_chrome_trace();
    let doc: serde::Value = serde_json::from_str(&chrome).expect("chrome export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    let count_ph = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some(ph))
            .count()
    };
    let (b, e) = (count_ph("B"), count_ph("E"));
    assert!(b > 0 && b == e, "chrome spans unbalanced: {b} B vs {e} E");
    println!(
        "chrome: valid JSON, {} events, {b} balanced span pairs",
        events.len()
    );

    // 3. The timeline reconstructs a full incident for some injected core.
    let timeline = incident_timeline(&out.trace, &|id| CoreUid::from_u64(id).to_string());
    let full_story = timeline.lines().any(|l| {
        l.contains("onset@")
            && l.contains("signal@")
            && l.contains("quarantine@")
            && l.contains("confirm@")
    });
    assert!(
        full_story,
        "no full onset→signal→quarantine→confirm story:\n{timeline}"
    );
    println!("timeline: full onset → signal → quarantine → confirm story present");

    // 4. Recording does not change the closed loop's cost class.
    let paper = mercurial_bench::paper_scenario(0x0e16);
    let (pairs, _) = closed_loop_pairs(&paper, &Prof::disabled());
    let ratio = pairs.ratio(1, 0);
    println!("paper closed loop: median traced/untraced ratio {ratio:.3} over {PAIRS} pairs");
    assert!(
        ratio <= MAX_TRACED_RATIO,
        "traced closed loop costs {ratio:.3}x the untraced one (gate {MAX_TRACED_RATIO}x)"
    );
    println!("\nE16 smoke: all tracing contracts hold");
}

/// The closed loop on `scenario` with feedback on, untraced (arm 0) and
/// traced (arm 1), sampled over [`PAIRS`] rounds; plus the last traced
/// outcome. Each arm's experiment is built once, outside the timed arms,
/// so the ratio is the loop's alone.
fn closed_loop_pairs(scenario: &Scenario, prof: &Prof) -> (Rounds, ClosedLoopOutcome) {
    let mut off = scenario.clone();
    off.closed_loop.feedback = true;
    off.trace.enabled = false;
    let mut on = off.clone();
    on.trace.enabled = true;
    let (off_exp, on_exp) = (FleetExperiment::build(&off), FleetExperiment::build(&on));
    let mut traced = None;
    let pairs = interleave(
        prof,
        PAIRS,
        &mut [
            ("loop.untraced", &mut || {
                let out = ClosedLoopDriver::execute_on(&off, &off_exp);
                assert!(out.trace.is_empty());
            }),
            ("loop.traced", &mut || {
                traced = Some(ClosedLoopDriver::execute_on(&on, &on_exp));
            }),
        ],
    );
    (pairs, traced.expect("PAIRS > 0"))
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let scenario = mercurial_bench::paper_scenario(0x0e16);
    mercurial_bench::header(&format!(
        "E16 — tracing overhead   [{}: {} machines, {} months]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));
    // The bench's own phase breakdown, embedded in the BenchMeta
    // envelope: wall clock per measured section, write-only as always.
    let prof = Prof::enabled();

    // Whole-window simulation, three ways. `FleetSim::run` is the
    // untraced baseline (the same loop over a disabled recorder).
    let exp = FleetExperiment::build(&scenario);
    let sim = exp.sim();
    let step_all = |rec: &mut Recorder| {
        let mut state = sim.begin();
        let mut log = SignalLog::new();
        let mut summary = SimSummary::default();
        sim.step_epochs(&mut state, u32::MAX, &mut log, &mut summary, rec);
        log.sort_by_time();
        assert!(!log.is_empty());
    };
    let mut trace_events = 0usize;
    let sims = interleave(
        &prof,
        SIM_ROUNDS,
        &mut [
            ("sim.untraced", &mut || assert!(!sim.run().0.is_empty())),
            ("sim.disabled", &mut || step_all(&mut Recorder::disabled())),
            ("sim.enabled", &mut || {
                let mut rec = Recorder::with_flags(TraceFlags::enabled());
                step_all(&mut rec);
                trace_events = rec.event_count();
            }),
        ],
    );
    let [untraced, disabled, enabled] = [0, 1, 2].map(|arm| sims.spread(arm).median);
    let disabled_pct = 100.0 * (sims.ratio(1, 0) - 1.0);
    let enabled_pct = 100.0 * (sims.ratio(2, 0) - 1.0);
    println!("sim, untraced baseline:   {untraced:>8.3} s   (median of {SIM_ROUNDS})");
    println!("sim, recorder disabled:   {disabled:>8.3} s   ({disabled_pct:+.2}%)");
    println!(
        "sim, recorder enabled:    {enabled:>8.3} s   ({enabled_pct:+.2}%, {trace_events} events)"
    );

    // The closed loop end to end, tracing off vs on.
    let (pairs, on) = closed_loop_pairs(&scenario, &prof);
    let (loop_off, loop_on) = (pairs.spread(0).median, pairs.spread(1).median);
    let loop_pct = 100.0 * (pairs.ratio(1, 0) - 1.0);
    let jsonl = on.trace.to_jsonl();
    println!("closed loop, tracing off: {loop_off:>8.3} s   (median of {PAIRS})");
    println!(
        "closed loop, tracing on:  {loop_on:>8.3} s   ({loop_pct:+.2}%, {} events, {} B JSONL)",
        on.trace.events.len(),
        jsonl.len()
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"sim_rounds\": {SIM_ROUNDS},\n  \"closed_loop_pairs\": {PAIRS},\n  \"sim_untraced_secs\": {untraced:.4},\n  \"sim_disabled_secs\": {disabled:.4},\n  \"sim_enabled_secs\": {enabled:.4},\n  \"sim_disabled_overhead_pct\": {disabled_pct:.3},\n  \"sim_enabled_overhead_pct\": {enabled_pct:.3},\n  \"closed_loop_off_secs\": {loop_off:.4},\n  \"closed_loop_on_secs\": {loop_on:.4},\n  \"closed_loop_on_overhead_pct\": {loop_pct:.3},\n  \"sim_trace_events\": {trace_events},\n  \"closed_loop_trace_events\": {},\n  \"closed_loop_jsonl_bytes\": {}",
        scenario.name,
        scenario.fleet.machines,
        scenario.sim.months,
        on.trace.events.len(),
        jsonl.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    mercurial_bench::write_bench_json(
        path,
        "e16_trace_overhead",
        SIM_ROUNDS as u64,
        &prof.finish(),
        &body,
    );
    println!("\nbaseline written to BENCH_trace.json");

    // Acceptance: a disabled recorder costs < 2% of the untraced sim.
    assert!(
        disabled_pct < 2.0,
        "acceptance: disabled tracing overhead {disabled_pct:.2}% must stay under 2%"
    );
}

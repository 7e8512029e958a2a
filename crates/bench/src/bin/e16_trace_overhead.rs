//! E16 — tracing overhead: disabled recording must be free.
//!
//! The observability layer (`mercurial-trace`) threads a `Recorder`
//! through the fleet simulator, the screeners, and the closed-loop
//! driver. The deal that makes this acceptable in the hot path is that a
//! *disabled* recorder costs one branch per call site — no allocation, no
//! formatting. This experiment prices that deal at paper scale: the
//! whole-window simulation untraced, with a disabled recorder, and with
//! recording on, plus the closed loop off vs on, and writes the baseline
//! to `BENCH_trace.json`.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e16_trace_overhead [-- --smoke]
//! ```
//!
//! `--smoke` skips the timing (meaningless on shared CI machines) and
//! instead checks the tracing correctness contracts at demo scale:
//! a non-empty JSONL trace, a Chrome export that parses as JSON with
//! balanced B/E span pairs, and an incident timeline showing
//! a full onset → signal → quarantine → confirm story (`make trace-smoke`).

use std::time::Instant;

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fault::CoreUid;
use mercurial::trace::{incident_timeline, Recorder, TraceFlags};
use mercurial::{FleetExperiment, Scenario};
use mercurial_fleet::{SignalLog, SimSummary};
use mercurial_prof::Prof;

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
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
    println!("\nE16 smoke: all tracing contracts hold");
}

// -------------------------------------------------------------- full mode

/// Best-of-`reps` wall-clock seconds for `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn run_full() {
    let scenario = load_paper_scenario();
    mercurial_bench::header(&format!(
        "E16 — tracing overhead   [{}: {} machines, {} months]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));
    let reps = 3;
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
        (log, summary)
    };
    let untraced = prof.scope("sim.untraced", || {
        best_of(reps, || {
            let (log, _) = sim.run();
            assert!(!log.is_empty());
        })
    });
    let disabled = prof.scope("sim.disabled", || {
        best_of(reps, || {
            let (log, _) = step_all(&mut Recorder::disabled());
            assert!(!log.is_empty());
        })
    });
    let mut trace_events = 0usize;
    let enabled = prof.scope("sim.enabled", || {
        best_of(reps, || {
            let mut rec = Recorder::with_flags(TraceFlags::enabled());
            let (log, _) = step_all(&mut rec);
            assert!(!log.is_empty());
            trace_events = rec.event_count();
        })
    });
    let disabled_pct = 100.0 * (disabled / untraced - 1.0);
    let enabled_pct = 100.0 * (enabled / untraced - 1.0);
    println!("sim, untraced baseline:   {untraced:>8.3} s   (best of {reps})");
    println!("sim, recorder disabled:   {disabled:>8.3} s   ({disabled_pct:+.2}%)");
    println!(
        "sim, recorder enabled:    {enabled:>8.3} s   ({enabled_pct:+.2}%, {trace_events} events)"
    );

    // The closed loop end to end, tracing off vs on (1 rep — the screeners
    // dominate and the comparison is already conservative).
    let mut s = scenario.clone();
    s.closed_loop.feedback = true;
    s.trace.enabled = false;
    let t = Instant::now();
    let off = prof.scope("loop.untraced", || ClosedLoopDriver::execute(&s));
    let loop_off = t.elapsed().as_secs_f64();
    assert!(off.trace.is_empty());
    s.trace.enabled = true;
    let t = Instant::now();
    let on = prof.scope("loop.traced", || ClosedLoopDriver::execute(&s));
    let loop_on = t.elapsed().as_secs_f64();
    let jsonl = on.trace.to_jsonl();
    let loop_pct = 100.0 * (loop_on / loop_off - 1.0);
    println!("closed loop, tracing off: {loop_off:>8.3} s");
    println!(
        "closed loop, tracing on:  {loop_on:>8.3} s   ({loop_pct:+.2}%, {} events, {} B JSONL)",
        on.trace.events.len(),
        jsonl.len()
    );

    // Acceptance: a disabled recorder costs < 2% of the untraced sim.
    assert!(
        disabled_pct < 2.0,
        "acceptance: disabled tracing overhead {disabled_pct:.2}% must stay under 2%"
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"sim_untraced_secs\": {untraced:.4},\n  \"sim_disabled_secs\": {disabled:.4},\n  \"sim_enabled_secs\": {enabled:.4},\n  \"sim_disabled_overhead_pct\": {disabled_pct:.3},\n  \"sim_enabled_overhead_pct\": {enabled_pct:.3},\n  \"closed_loop_off_secs\": {loop_off:.4},\n  \"closed_loop_on_secs\": {loop_on:.4},\n  \"closed_loop_on_overhead_pct\": {loop_pct:.3},\n  \"sim_trace_events\": {trace_events},\n  \"closed_loop_trace_events\": {},\n  \"closed_loop_jsonl_bytes\": {}",
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
        reps as u64,
        &prof.finish(),
        &body,
    );
    println!("\nbaseline written to BENCH_trace.json");
}

/// The committed paper scenario if present (runs from the repo), else the
/// environment-selected scale.
fn load_paper_scenario() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/paper.json");
    match std::fs::read_to_string(path) {
        Ok(json) => Scenario::from_json(&json).expect("scenarios/paper.json parses"),
        Err(_) => mercurial_bench::scenario_from_env(0x0e16),
    }
}

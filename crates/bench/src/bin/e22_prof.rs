//! E22 — self-observability: the profiler must be free and honest.
//!
//! `mercurial-prof` rides along the closed loop, the screening
//! campaigns, and the serve protocol, reading wall clocks. The deal that
//! makes that acceptable in a bit-deterministic simulator is the
//! write-only contract: readings never feed sim-visible state, so a
//! profiled run is byte-identical to an unprofiled one — and the
//! profiler itself must cost under 2% when enabled and one branch when
//! disabled. This experiment prices both halves at paper scale, prints
//! the measured phase breakdown and a flamegraph-ready folded-stack
//! sample, and writes `BENCH_prof.json` under the shared [`BenchMeta`]
//! envelope every other bench now embeds.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e22_prof [-- --smoke]
//! ```
//!
//! `--smoke` checks the same contracts at demo scale (`make prof-smoke`):
//! prof-on parity against the E20 legacy pin, the <2% enabled-overhead
//! budget (on the demo scenario widened to 20,000 machines), and a
//! `BenchMeta` envelope round-trip through its validator.
//!
//! [`BenchMeta`]: mercurial_prof::BenchMeta

use std::time::Instant;

use mercurial::closedloop::{ClosedLoopDriver, ClosedLoopOutcome, RunOptions};
use mercurial::{FleetExperiment, Scenario};
use mercurial_prof::{BenchMeta, Prof, SelfProfile};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}

/// The fully instrumented closed loop: tracing and watch on, feedback on.
fn traced_scenario(base: &Scenario) -> Scenario {
    let mut s = base.clone();
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s
}

/// One run with a profiler attached; returns the outcome, the wall
/// seconds, and the collected profile.
fn profiled_run(s: &Scenario, prof: &Prof) -> (ClosedLoopOutcome, f64) {
    let experiment = FleetExperiment::build(s);
    let opts = RunOptions {
        prof: Some(prof),
        ..RunOptions::default()
    };
    let t = Instant::now();
    let out = ClosedLoopDriver::execute_with(s, &experiment, opts);
    (out, t.elapsed().as_secs_f64())
}

/// Interleaved best-of-`reps` for the unprofiled and profiled arms (off,
/// on, off, on, …) so scheduler drift hits both alike; every profiled rep
/// must reproduce its unprofiled twin's outcome. Returns `(off_secs,
/// on_secs, last profiled outcome, last profile)`.
fn measure_overhead(s: &Scenario, reps: usize) -> (f64, f64, ClosedLoopOutcome, SelfProfile) {
    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..reps {
        let disabled = Prof::disabled();
        let (off_out, t) = profiled_run(s, &disabled);
        off_secs = off_secs.min(t);

        let prof = Prof::enabled();
        let (on_out, t) = profiled_run(s, &prof);
        on_secs = on_secs.min(t);
        assert_eq!(
            on_out.pipeline.sim_summary, off_out.pipeline.sim_summary,
            "the profiler is write-only: prof on must match prof off"
        );
        assert_eq!(on_out.pipeline.detections, off_out.pipeline.detections);
        last = Some((on_out, prof.finish()));
    }
    let (out, profile) = last.expect("reps >= 1");
    (off_secs, on_secs, out, profile)
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E22 — self-observability contracts (smoke)");

    // 1. Parity against pre-prof history: the E20 legacy pin (closed
    //    loop, seed 7, demo scale) was captured long before the
    //    profiler existed; a profiled run must still land on it exactly.
    let s = traced_scenario(&Scenario::demo(7));
    let prof = Prof::enabled();
    let (out, _) = profiled_run(&s, &prof);
    assert_eq!(
        out.pipeline.sim_summary.corruptions, 68_632_069,
        "prof-on corruptions diverge from the E20 legacy pin"
    );
    assert_eq!(
        out.pipeline.detections.len(),
        17,
        "prof-on detections diverge from the E20 legacy pin"
    );
    let profile = prof.finish();
    assert!(
        profile.calls("shard.epoch") > 0,
        "profiler must have measured the loop it rode"
    );
    println!(
        "parity: profiled run matches the E20 legacy pin (68 632 069 corruptions, 17 detections)"
    );

    // 2. Enabled overhead under the 2% budget, interleaved best-of-5, on
    //    the demo scenario widened to the paper's 20,000 machines. The
    //    profiler's cost is fixed per span (about 1,400 spans a run), so
    //    on the 1,500-machine demo fleet, a ~10 ms run, it alone nears
    //    the budget; at 20,000 machines it is a small share.
    let mut wide = s.clone();
    wide.fleet.machines = 20_000;
    let (off_secs, on_secs, _, _) = measure_overhead(&wide, 5);
    let pct = 100.0 * (on_secs / off_secs - 1.0);
    println!("overhead: prof off {off_secs:.4} s, prof on {on_secs:.4} s ({pct:+.2}%)");
    assert!(
        pct < 2.0,
        "acceptance: enabled profiler overhead {pct:.2}% must stay under 2%"
    );

    // 3. The envelope round-trips through its own validator.
    let meta = BenchMeta::capture("e22_prof", 5, &profile);
    let json = meta.envelope("\"machines\": 500");
    let parsed = BenchMeta::from_bench_json(&json).expect("envelope validates");
    assert_eq!(parsed, meta);
    assert!(
        parsed.phases.iter().any(|p| p.stack == "shard.epoch"),
        "envelope carries the phase breakdown"
    );
    println!(
        "envelope: BenchMeta round-trips ({} phases, commit {})",
        parsed.phases.len(),
        &parsed.git_commit[..parsed.git_commit.len().min(12)]
    );

    println!("\nE22 smoke: all self-observability contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let scenario = traced_scenario(&mercurial_bench::paper_scenario(0x0e22));
    mercurial_bench::header(&format!(
        "E22 — self-observability   [{}: {} machines, {} months]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));
    let reps = 3;

    let (off_secs, on_secs, out, profile) = measure_overhead(&scenario, reps);
    let pct = 100.0 * (on_secs / off_secs - 1.0);
    println!("closed loop, prof off:    {off_secs:>8.3} s   (best of {reps})");
    println!("closed loop, prof on:     {on_secs:>8.3} s   ({pct:+.2}%)");
    println!(
        "run: {} detections, {} trace events",
        out.pipeline.detections.len(),
        out.trace.events.len()
    );

    // The measured breakdown, in both human and flamegraph form.
    println!("\n{}", profile.render_table());
    let folded = profile.folded_stacks();
    println!(
        "folded stacks (flamegraph.pl input, {} lines):",
        folded.len()
    );
    for line in folded.iter().take(8) {
        println!("  {line}");
    }

    // Acceptance: the enabled profiler stays under the 2% budget.
    assert!(
        pct < 2.0,
        "acceptance: enabled profiler overhead {pct:.2}% must stay under 2%"
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"prof_off_secs\": {off_secs:.4},\n  \"prof_on_secs\": {on_secs:.4},\n  \"prof_overhead_pct\": {pct:.3},\n  \"total_wall_ms\": {:.3},\n  \"peak_rss_bytes\": {},\n  \"phase_count\": {},\n  \"detections\": {}",
        scenario.name,
        scenario.fleet.machines,
        scenario.sim.months,
        profile.total_wall_ns as f64 / 1e6,
        profile.peak_rss_bytes.unwrap_or(0),
        folded.len(),
        out.pipeline.detections.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prof.json");
    mercurial_bench::write_bench_json(path, "e22_prof", reps as u64, &profile, &body);
    println!("\nbaseline written to BENCH_prof.json");
}

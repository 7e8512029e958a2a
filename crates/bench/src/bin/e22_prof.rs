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
//! Both modes time the prof-off and prof-on arms over [`PAIRS`] pairs
//! with the shared sampler ([`mercurial_bench::interleave`]) on one built
//! experiment, and gate the median of the per-pair ratios.
//!
//! `--smoke` checks the same contracts at demo scale (`make prof-smoke`):
//! prof-on parity against the E20 legacy pin, the <2% enabled-overhead
//! budget (on the demo scenario widened to 20,000 machines), and a
//! `BenchMeta` envelope round-trip through its validator.
//!
//! [`BenchMeta`]: mercurial_prof::BenchMeta

use mercurial::closedloop::{ClosedLoopDriver, ClosedLoopOutcome, RunOptions};
use mercurial::{FleetExperiment, Scenario};
use mercurial_bench::{interleave, Rounds};
use mercurial_prof::{BenchMeta, Prof, SelfProfile};

/// Prof-off/prof-on pairs per overhead measurement. Two 101-pair runs of
/// one build can differ by a full point of overhead, so the 2% budget
/// needs about twice that; at ~8 ms a run that is 3–4 s.
const PAIRS: usize = 201;

fn main() {
    mercurial_bench::smoke_or_full(run_smoke, run_full);
}

/// The fully instrumented closed loop: tracing and watch on, feedback on.
fn traced_scenario(base: &Scenario) -> Scenario {
    let mut s = base.clone();
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s
}

/// The closed loop on `experiment` with `prof` attached.
fn run(s: &Scenario, experiment: &FleetExperiment, prof: &Prof) -> ClosedLoopOutcome {
    let opts = RunOptions {
        prof: Some(prof),
        ..RunOptions::default()
    };
    ClosedLoopDriver::execute_with(s, experiment, opts)
}

/// The closed loop on `s`, built once, sampled over [`PAIRS`] pairs of
/// arm 0 (prof off) and arm 1 (prof on). Every profiled run must
/// reproduce the unprofiled outcome, and each arm drops its outcome, so
/// the arms differ only by the profiler. Returns the pairs, the
/// unprofiled outcome and the last run's profile.
fn overhead_pairs(s: &Scenario) -> (Rounds, ClosedLoopOutcome, SelfProfile) {
    let experiment = FleetExperiment::build(s);
    let twin = run(s, &experiment, &Prof::disabled());
    let mut last = None;
    let pairs = interleave(
        &Prof::disabled(),
        PAIRS,
        &mut [
            ("prof.off", &mut || {
                drop(run(s, &experiment, &Prof::disabled()))
            }),
            ("prof.on", &mut || {
                let prof = Prof::enabled();
                let out = run(s, &experiment, &prof);
                assert_eq!(
                    out.pipeline.sim_summary, twin.pipeline.sim_summary,
                    "the profiler is write-only: prof on must match prof off"
                );
                assert_eq!(out.pipeline.detections, twin.pipeline.detections);
                last = Some(prof);
            }),
        ],
    );
    (pairs, twin, last.expect("PAIRS > 0").finish())
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E22 — self-observability contracts (smoke)");

    // 1. Parity against pre-prof history: the E20 legacy pin (closed
    //    loop, seed 7, demo scale) was captured long before the
    //    profiler existed; a profiled run must still land on it exactly.
    let s = traced_scenario(&Scenario::demo(7));
    let prof = Prof::enabled();
    let out = run(&s, &FleetExperiment::build(&s), &prof);
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

    // 2. Enabled overhead under the 2% budget, on the demo scenario
    //    widened to the paper's 20,000 machines. The profiler's cost is
    //    fixed per span, so on the 1,500-machine demo fleet it alone nears
    //    the budget; at 20,000 machines it is a small share.
    let mut wide = s.clone();
    wide.fleet.machines = 20_000;
    let (pairs, _, _) = overhead_pairs(&wide);
    let (off_secs, on_secs) = (pairs.spread(0).median, pairs.spread(1).median);
    let pct = 100.0 * (pairs.ratio(1, 0) - 1.0);
    println!(
        "overhead: prof off {off_secs:.4} s, prof on {on_secs:.4} s \
         ({pct:+.2}%, median of {PAIRS} pair ratios)"
    );
    assert!(
        pct < 2.0,
        "acceptance: enabled profiler overhead {pct:.2}% must stay under 2%"
    );

    // 3. The envelope round-trips through its own validator.
    let meta = BenchMeta::capture("e22_prof", PAIRS as u64, &profile);
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
    let (pairs, out, profile) = overhead_pairs(&scenario);
    let (off_secs, on_secs) = (pairs.spread(0).median, pairs.spread(1).median);
    let pct = 100.0 * (pairs.ratio(1, 0) - 1.0);
    println!("closed loop, prof off:    {off_secs:>8.3} s   (median of {PAIRS})");
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

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"pairs\": {PAIRS},\n  \"prof_off_secs\": {off_secs:.4},\n  \"prof_on_secs\": {on_secs:.4},\n  \"prof_overhead_pct\": {pct:.3},\n  \"total_wall_ms\": {:.3},\n  \"peak_rss_bytes\": {},\n  \"phase_count\": {},\n  \"detections\": {}",
        scenario.name,
        scenario.fleet.machines,
        scenario.sim.months,
        profile.total_wall_ns as f64 / 1e6,
        profile.peak_rss_bytes.unwrap_or(0),
        folded.len(),
        out.pipeline.detections.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prof.json");
    mercurial_bench::write_bench_json(path, "e22_prof", PAIRS as u64, &profile, &body);
    println!("\nbaseline written to BENCH_prof.json");

    // Acceptance: the enabled profiler stays under the 2% budget.
    assert!(
        pct < 2.0,
        "acceptance: enabled profiler overhead {pct:.2}% must stay under 2%"
    );
}

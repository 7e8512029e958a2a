//! E18 — the fleet simulator at fleet-study scale.
//!
//! Fleet studies only see mercurial cores at hundreds of thousands to
//! millions of machines (Dixit et al.; Hochschild et al. §3's "a few
//! mercurial cores per several thousand machines"), which makes healthy
//! machines the asymptote: almost every core in the fleet does nothing.
//! The simulator's epoch loop walks only the mercurial cores, the
//! screeners fold all-healthy machines into closed-form accounting, and
//! the driver's scans are O(1) (`CapacityLedger` totals, the armed
//! scoreboard watchlist, `EventQueue` timers), so per-epoch work scales
//! with *defective* state. What fleet-sized work is left runs in memory
//! order with no per-machine search: burn-in walks the topology's deploy
//! arrays once per run, and an offline sweep walks its rotation segments
//! beside the sorted hot list; the capacity ledger keeps no per-machine
//! table at all. This experiment prices the claim: 1M machines
//! × 36 months against the acceptance budget — the time the 20k-machine
//! paper scenario took before any of this (the E17 watch baseline of
//! commit 0b64ce4). It also
//! splits the one-time build into its two draws: the topology (one
//! stream per machine) and the population (one coin per core). Full
//! mode ends with one 10M × 36-month closed loop, reported (build,
//! loop, peak RSS) but not gated.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e18_study [-- --smoke]
//! ```
//!
//! `--smoke` skips absolute timings and checks the contracts instead:
//! stepping-granularity invariance at the sim layer, and the 1M-machine
//! closed loop within a self-calibrated wall-clock budget
//! (`make study-smoke`).

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::{FleetSim, FleetTopology, Population, SignalLog};
use mercurial::trace::Recorder;
use mercurial::{FleetExperiment, Scenario};
use mercurial_bench::{interleave, timed};
use mercurial_prof::Prof;

/// The 20k-machine closed-loop time before the fleet-study refactor
/// (`watch_off_secs` of `BENCH_watch.json` as committed in 0b64ce4, same
/// machine class): the acceptance budget for the 1M-machine run.
const BEFORE_20K_SECS: f64 = 7.8201;

/// Samples of the paper-scale closed loop.
const ROUNDS_20K: usize = 21;

fn main() {
    mercurial_bench::smoke_or_full(run_smoke, run_full);
}

/// Feedback on, tracing and watch off: the configuration the ~8 s
/// budget was measured under.
fn closed_loop_scenario(base: &Scenario) -> Scenario {
    let mut s = base.clone();
    s.closed_loop.feedback = true;
    s.trace.enabled = false;
    s.watch.enabled = false;
    s
}

/// A fleet-study scenario: the paper config at `machines` machines,
/// named `fleet-study-{label}`.
fn fleet_study_scenario(base: &Scenario, machines: u32, label: &str) -> Scenario {
    let mut s = closed_loop_scenario(base);
    s.name = format!("fleet-study-{label}");
    s.fleet.machines = machines;
    s
}

/// The epoch loop's core visits over an uninterrupted run: every
/// mercurial core, every epoch its machine is deployed. A deterministic
/// work counter for the sim, next to its wall clock.
fn core_visits(sim: &FleetSim) -> u64 {
    let epoch_hours = sim.config().epoch_hours;
    sim.population()
        .mercurial_cores()
        .map(|c| {
            (0..sim.epochs())
                .filter(|&e| {
                    sim.topology()
                        .is_deployed(c.uid.machine, e as f64 * epoch_hours)
                })
                .count() as u64
        })
        .sum()
}

/// Steps a fresh run to the end in batches of `granularity` epochs.
fn step_through(sim: &FleetSim, granularity: u32) -> (SignalLog, mercurial::fleet::SimSummary) {
    let mut state = sim.begin();
    let mut log = SignalLog::new();
    let mut summary = Default::default();
    let mut rec = Recorder::disabled();
    while !state.is_done() {
        sim.step_epochs(&mut state, granularity, &mut log, &mut summary, &mut rec);
    }
    (log, summary)
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    mercurial_bench::header("E18 — fleet-study contracts (smoke)");

    // 1. Stepping-granularity invariance at the sim layer.
    let demo = FleetExperiment::build(&Scenario::demo(21));
    let sim = demo.sim();
    let (ref_log, ref_sum) = sim.run();
    assert!(ref_sum.corruptions > 0, "demo defects must fire");
    for granularity in [1u32, 5, u32::MAX] {
        let (mut log, summary) = step_through(sim, granularity);
        log.sort_by_time();
        assert_eq!(log.all(), ref_log.all(), "log diverges at {granularity}");
        assert_eq!(summary, ref_sum, "summary diverges at {granularity}");
    }
    println!("invariance: stepping granularities 1/5/MAX give one log and summary");

    // 2. The fleet-study smoke: 1M machines × 36 months. The closed loop
    //    must finish within the budget — the larger of the recorded
    //    pre-refactor 20k time and 4× the in-process 20k time (so a slow
    //    CI machine scales the budget with itself).
    let paper = mercurial_bench::paper_scenario(0x0e18);
    let prof = Prof::disabled();
    let (out_20k, secs_20k) = timed(&prof, "loop.closed_20k", || {
        ClosedLoopDriver::execute(&closed_loop_scenario(&paper))
    });
    assert!(!out_20k.pipeline.detections.is_empty());
    println!(
        "calibrate: 20k closed loop {secs_20k:.2} s ({} detections)",
        out_20k.pipeline.detections.len()
    );

    let study = fleet_study_scenario(&paper, 1_000_000, "1m");
    let (experiment, build_secs) =
        timed(&prof, "study.build_1m", || FleetExperiment::build(&study));
    let (out_1m, secs_1m) = timed(&prof, "study.closed_loop_1m", || {
        ClosedLoopDriver::execute_on(&study, &experiment)
    });
    let budget = BEFORE_20K_SECS.max(4.0 * secs_20k);
    println!(
        "budget: 1M closed loop {secs_1m:.2} s (build {build_secs:.2} s, {} mercurial cores, \
         {} detections) vs budget {budget:.2} s",
        experiment.population().count(),
        out_1m.pipeline.detections.len()
    );
    assert!(
        secs_1m <= budget,
        "acceptance: 1M x 36mo took {secs_1m:.2} s, budget {budget:.2} s"
    );
    assert!(!out_1m.pipeline.detections.is_empty());
    println!("\nE18 smoke: all fleet-study contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let paper = mercurial_bench::paper_scenario(0x0e18);
    mercurial_bench::header(&format!(
        "E18 — fleet study   [{}: {} machines, {} months]",
        paper.name, paper.fleet.machines, paper.sim.months
    ));

    // The paper-scale closed loop, median of `ROUNDS_20K`.
    let prof = Prof::enabled();
    let scenario_20k = closed_loop_scenario(&paper);
    let mut detections_20k = 0;
    let rounds = interleave(
        &prof,
        ROUNDS_20K,
        &mut [("loop.closed_20k", &mut || {
            detections_20k = ClosedLoopDriver::execute(&scenario_20k)
                .pipeline
                .detections
                .len();
        })],
    );
    let secs_20k = rounds.spread(0).median;
    println!(
        "closed loop 20k: {secs_20k:>8.3} s   ({detections_20k} detections, median of \
         {ROUNDS_20K}; was {BEFORE_20K_SECS:.2} s pre-refactor)"
    );

    // The fleet-study arm: 1M machines × 36 months, once. The build is
    // timed in its parts: the topology, the population's coin per core
    // over it, then the simulator around both (the workload draw).
    let study = fleet_study_scenario(&paper, 1_000_000, "1m");
    let build_span = prof.span("study.build_1m");
    let (topo, topology_1m) = timed(&prof, "build.topology", || {
        FleetTopology::build(study.fleet.clone())
    });
    let (pop, population_1m) = timed(&prof, "build.population", || Population::seed_from(&topo));
    let cores_drawn = topo.total_cores();
    let topology_bytes_per_machine = topo.column_bytes() as f64 / f64::from(topo.machine_count());
    let ns_per_core_draw = population_1m * 1e9 / cores_drawn as f64;
    let coin_kernel = mercurial_fault::coin_kernel();
    let (experiment, simulator_1m) = timed(&prof, "build.simulator", || {
        FleetExperiment::from_parts(&study, topo, pop)
    });
    let build_1m = topology_1m + population_1m + simulator_1m;
    drop(build_span);
    let mercurial_cores = experiment.population().count() as u64;

    let sim = experiment.sim();
    let (_, sim_1m) = timed(&prof, "study.sim_1m", || step_through(sim, u32::MAX));
    let visits = core_visits(sim);
    let epochs = sim.epochs();

    let (out_1m, closed_1m) = timed(&prof, "study.closed_loop_1m", || {
        ClosedLoopDriver::execute_on(&study, &experiment)
    });
    println!("fleet study 1M x {} months:", study.sim.months);
    println!("  build:       {build_1m:>8.3} s   ({mercurial_cores} mercurial cores)");
    println!(
        "    topology:  {topology_1m:>8.3} s   ({} machines, {topology_bytes_per_machine} \
         column bytes a machine)",
        study.fleet.machines
    );
    println!(
        "    population:{population_1m:>8.3} s   ({cores_drawn} cores drawn, \
         {ns_per_core_draw:.2} ns per draw, {coin_kernel} lanes)"
    );
    println!("  sim only:    {sim_1m:>8.3} s   ({visits} core visits over {epochs} epochs)");
    println!(
        "  closed loop: {closed_1m:>8.3} s   ({} detections)",
        out_1m.pipeline.detections.len()
    );

    // Acceptance: 1M × 36 months within the pre-refactor 20k time.
    assert!(
        closed_1m <= BEFORE_20K_SECS,
        "acceptance: 1M x 36mo took {closed_1m:.2} s, budget {BEFORE_20K_SECS:.2} s"
    );
    drop((out_1m, experiment));

    // The 10M stretch, last, so the process's high-water mark is its
    // own: the fleet scale of "Silent Data Corruptions at Scale"
    // (Dixit et al.). A reading, not a gate.
    let study_10m = fleet_study_scenario(&paper, 10_000_000, "10m");
    let (experiment_10m, build_10m) = timed(&prof, "study.build_10m", || {
        FleetExperiment::build(&study_10m)
    });
    let (out_10m, closed_10m) = timed(&prof, "study.closed_loop_10m", || {
        ClosedLoopDriver::execute_on(&study_10m, &experiment_10m)
    });
    let peak_rss_10m_mib = mercurial_prof::peak_rss_bytes().map_or("null".to_string(), |b| {
        format!("{:.1}", b as f64 / (1024.0 * 1024.0))
    });
    println!("fleet study 10M x {} months:", study_10m.sim.months);
    println!("  build:       {build_10m:>8.3} s");
    println!(
        "  closed loop: {closed_10m:>8.3} s   ({} detections, peak RSS {peak_rss_10m_mib} MiB)",
        out_10m.pipeline.detections.len()
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"before_20k_secs\": {BEFORE_20K_SECS},\n  \"rounds_20k\": {ROUNDS_20K},\n  \"closed_loop_20k_secs\": {secs_20k:.4},\n  \"study_machines\": {},\n  \"build_1m_secs\": {build_1m:.4},\n  \"build_topology_1m_secs\": {topology_1m:.4},\n  \"build_population_1m_secs\": {population_1m:.4},\n  \"topology_bytes_per_machine\": {topology_bytes_per_machine:.2},\n  \"cores_drawn_1m\": {cores_drawn},\n  \"ns_per_core_draw\": {ns_per_core_draw:.2},\n  \"coin_kernel\": \"{coin_kernel}\",\n  \"sim_1m_secs\": {sim_1m:.4},\n  \"closed_loop_1m_secs\": {closed_1m:.4},\n  \"mercurial_cores_1m\": {mercurial_cores},\n  \"core_visits_1m\": {visits},\n  \"epochs\": {epochs},\n  \"build_10m_secs\": {build_10m:.4},\n  \"closed_loop_10m_secs\": {closed_10m:.4},\n  \"peak_rss_10m_mib\": {peak_rss_10m_mib}",
        paper.name, paper.fleet.machines, paper.sim.months, study.fleet.machines,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
    mercurial_bench::write_bench_json(path, "e18_study", ROUNDS_20K as u64, &prof.finish(), &body);
    println!("\nbaseline written to BENCH_study.json");
}

//! `mercurial-lab` — the command-line front end of the laboratory.
//!
//! ```text
//! mercurial-lab scenario                      # print a default scenario JSON
//! mercurial-lab pipeline [--seed N] [--paper] [--scenario FILE]
//! mercurial-lab fig1     [--seed N] [--paper] [--csv FILE]
//! mercurial-lab screen   <archetype> [--age HOURS]
//! mercurial-lab trace    [--seed N] [--paper] [--format FMT] [--out FILE]
//! mercurial-lab watch    [--rules FILE] [--scenario FILE | --trace FILE]
//! mercurial-lab audit    [--scenario FILE | --trace FILE] [--format FMT] [--out FILE]
//! mercurial-lab serve    [--workers N] [--impair FILE] [--procs] [--status ADDR]
//! mercurial-lab prof     [--seed N] [--paper] [--scenario FILE] [--format FMT]
//! mercurial-lab archetypes                    # list the §2 defect archetypes
//! ```

use mercurial::closedloop::{ClosedLoopDriver, RunOptions};
use mercurial::fault::{library, CoreUid, Injector};
use mercurial::pipeline::PipelineRun;
use mercurial::screening::chipscreen::ChipScreen;
use mercurial::screening::{Divergence, DivergenceFinder};
use mercurial::simcpu::{CoreConfig, SimCore};
use mercurial::trace::incident_timeline;
use mercurial::{report, run_fig1, Scenario};

fn usage() -> ! {
    eprintln!(
        "usage: mercurial-lab <command>\n\
         \n\
         commands:\n\
         scenario                         print the default scenario as JSON\n\
         pipeline [--seed N] [--paper] [--scenario FILE]\n\
         .                                run the full detect/quarantine/triage pipeline\n\
         fig1     [--seed N] [--paper] [--csv FILE]\n\
         .                                regenerate Figure 1 (normalized report rates)\n\
         screen <archetype> [--age H]     screen one defective core with the corpus\n\
         trace    [--seed N] [--paper] [--scenario FILE]\n\
         .        [--format jsonl|prom|chrome|timeline|summary] [--out FILE]\n\
         .                                run the closed loop with tracing on and export telemetry\n\
         watch    [--rules FILE] [--seed N] [--paper] [--scenario FILE | --trace FILE]\n\
         .        [--baseline FILE] [--record-baseline] [--stream FILE]\n\
         .        [--dump-rules [--format json|prom]]\n\
         .                                evaluate alert rules over a run (or replay a JSONL\n\
         .                                trace); exits 1 if any rule fires\n\
         audit    [--seed N] [--paper] [--scenario FILE | --trace FILE]\n\
         .        [--format report|cases|jsonl] [--out FILE]\n\
         .                                score the loop's decisions against ground truth:\n\
         .                                fleet postmortem, per-core case files, or the raw\n\
         .                                decision ledger (replayable from an exported trace)\n\
         serve    [--seed N] [--paper] [--scenario FILE] [--workers N]\n\
         .        [--impair FILE] [--status ADDR] [--procs]\n\
         .                                run the closed loop as a service: N fleet-shard\n\
         .                                workers streaming to one scoreboard/watch server\n\
         .                                (--procs forks real worker processes)\n\
         serve-worker --connect HOST:PORT\n\
         .                                connect to a serve server and run the assigned shard\n\
         prof     [--seed N] [--paper] [--scenario FILE]\n\
         .        [--format table|folded] [--out FILE]\n\
         .                                run the closed loop with the wall-clock phase\n\
         .                                profiler attached and print the phase tree, or\n\
         .                                folded stacks for flamegraph.pl\n\
         archetypes                       list the available defect archetypes"
    );
    std::process::exit(2)
}

struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(raw[i].clone());
            }
            i += 1;
        }
        Args { flags, positional }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

fn scenario_from_args(args: &Args) -> Scenario {
    if let Some(path) = args.value("scenario") {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read scenario file {path}: {e}");
            std::process::exit(1);
        });
        return Scenario::from_json(&json).unwrap_or_else(|e| {
            eprintln!("invalid scenario JSON: {e}");
            std::process::exit(1);
        });
    }
    let seed: u64 = args
        .value("seed")
        .map(|s| s.parse().expect("--seed takes an integer"))
        .unwrap_or(0xacce55);
    if args.flag("paper") {
        let mut s = Scenario::default_paper();
        s.fleet.seed = seed;
        s
    } else {
        Scenario::demo(seed)
    }
}

fn cmd_pipeline(args: &Args) {
    let scenario = scenario_from_args(args);
    eprintln!(
        "running pipeline: {} machines, {} months …",
        scenario.fleet.machines, scenario.sim.months
    );
    let outcome = PipelineRun::execute(&scenario);
    println!("{}", report::detection_table(&outcome));
    println!("{}", report::symptom_table(&outcome));
}

fn cmd_fig1(args: &Args) {
    let scenario = scenario_from_args(args);
    eprintln!(
        "running Figure 1 pipeline: {} machines, {} months …",
        scenario.fleet.machines, scenario.sim.months
    );
    let result = run_fig1(&scenario);
    println!("{}", result.render());
    println!("auto trend slope: {:+.4}/month", result.auto_trend_slope());
    if let Some(path) = args.value("csv") {
        std::fs::write(path, result.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("normalized series written to {path}");
    }
}

fn cmd_trace(args: &Args) {
    let mut scenario = scenario_from_args(args);
    scenario.trace.enabled = true;
    scenario.closed_loop.feedback = true;
    let format = args.value("format").unwrap_or("summary");
    eprintln!(
        "tracing closed loop: {} machines, {} months …",
        scenario.fleet.machines, scenario.sim.months
    );
    let out = ClosedLoopDriver::execute(&scenario);
    let label = |id: u64| CoreUid::from_u64(id).to_string();
    let rendered = match format {
        "jsonl" => out.trace.to_jsonl(),
        "prom" => out.trace.to_prometheus(),
        "chrome" => out.trace.to_chrome_trace(),
        "timeline" => incident_timeline(&out.trace, &label),
        "summary" => {
            let m = &out.trace.metrics;
            let mut s = format!(
                "trace: {} events, {} counters, {} gauges, {} histograms\n",
                out.trace.events.len(),
                m.counters().count(),
                m.gauges().count(),
                m.histograms().count()
            );
            for (name, v) in m.counters() {
                s.push_str(&format!("  counter {name:<24} {v}\n"));
            }
            for (name, h) in m.histograms() {
                s.push_str(&format!(
                    "  histo   {name:<24} n={} p50={:.1} p95={:.1} p99={:.1}\n",
                    h.count(),
                    h.p50().unwrap_or(0.0),
                    h.p95().unwrap_or(0.0),
                    h.p99().unwrap_or(0.0)
                ));
            }
            s.push('\n');
            s.push_str(&incident_timeline(&out.trace, &label));
            s
        }
        other => {
            eprintln!("unknown --format `{other}` (jsonl|prom|chrome|timeline|summary)");
            std::process::exit(2);
        }
    };
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("trace ({format}) written to {path}");
        }
        None => print!("{rendered}"),
    }
}

fn cmd_watch(args: &Args) {
    use mercurial::trace::JsonlStreamSink;
    use mercurial::watch::{Baseline, RuleSet, WatchInput};

    if args.value("scenario").is_some() && args.value("trace").is_some() {
        eprintln!("watch: --scenario and --trace are mutually exclusive");
        std::process::exit(2);
    }

    // Rules: an explicit file wins; otherwise the scenario's `watch`
    // block (including its defaults) supplies them.
    let explicit_rules = args.value("rules").map(|path| {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read rules file {path}: {e}");
            std::process::exit(1);
        });
        RuleSet::from_json(&json).unwrap_or_else(|e| {
            eprintln!("invalid rules file {path}: {e}");
            std::process::exit(1);
        })
    });

    let baseline_path = args.value("baseline").unwrap_or("BASELINE_watch.json");
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(json) => Some(Baseline::from_json(&json).unwrap_or_else(|e| {
            eprintln!("invalid baseline file {baseline_path}: {e}");
            std::process::exit(1);
        })),
        Err(_) => None,
    };

    // Replay mode: evaluate the rules over an exported JSONL trace.
    if let Some(path) = args.value("trace") {
        let jsonl = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read trace file {path}: {e}");
            std::process::exit(1);
        });
        let input = WatchInput::from_jsonl(&jsonl).unwrap_or_else(|e| {
            eprintln!("cannot replay trace {path}: {e}");
            std::process::exit(1);
        });
        let rules = explicit_rules.unwrap_or_else(|| Scenario::default_paper().watch.rule_set());
        let report = rules.evaluate(&input, baseline.as_ref());
        print!("{}", report.render());
        std::process::exit(if report.any_fired() { 1 } else { 0 });
    }

    // Scenario mode: run the closed loop with tracing forced on so the
    // in-loop engine sees the full metric surface.
    let mut scenario = scenario_from_args(args);
    scenario.trace.enabled = true;
    scenario.closed_loop.feedback = true;
    let rules = explicit_rules.unwrap_or_else(|| scenario.watch.rule_set());
    if args.flag("dump-rules") {
        match args.value("format").unwrap_or("json") {
            "json" => println!("{}", rules.to_json()),
            // The in-loop epoch is one simulation step; Prometheus
            // durations and lookbacks are derived from its length.
            "prom" => print!(
                "{}",
                rules.to_prometheus_rules("mercurial-watch", scenario.sim.epoch_hours)
            ),
            other => {
                eprintln!("unknown --format `{other}` for --dump-rules (json|prom)");
                std::process::exit(2);
            }
        }
        return;
    }
    eprintln!(
        "watching closed loop: {} machines, {} months, {} rules …",
        scenario.fleet.machines,
        scenario.sim.months,
        rules.rules.len()
    );

    let experiment = mercurial::FleetExperiment::build(&scenario);
    let mut stream = args.value("stream").map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create stream file {path}: {e}");
            std::process::exit(1);
        });
        JsonlStreamSink::new(std::io::BufWriter::new(file))
    });
    let opts = RunOptions {
        rules: Some(rules.clone()),
        baseline: baseline.as_ref(),
        sink: stream
            .as_mut()
            .map(|s| s as &mut dyn mercurial::trace::TraceSink),
        prof: None,
    };
    let out = ClosedLoopDriver::execute_with(&scenario, &experiment, opts);

    if args.flag("record-baseline") {
        let input = WatchInput::from_run(&out.trace.metrics, &out.series);
        let snap = Baseline::record(
            &rules,
            &input,
            args.value("scenario").unwrap_or("(builtin)"),
            scenario.fleet.seed,
        );
        std::fs::write(baseline_path, snap.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        eprintln!("baseline recorded to {baseline_path}");
        return;
    }

    let report = out.watch.expect("rules were supplied");
    print!("{}", report.render());
    std::process::exit(if report.any_fired() { 1 } else { 0 });
}

fn cmd_audit(args: &Args) {
    use mercurial::audit::{AuditReport, CaseBook, DecisionLedger, GroundTruth};

    if args.value("scenario").is_some() && args.value("trace").is_some() {
        eprintln!("audit: --scenario and --trace are mutually exclusive");
        std::process::exit(2);
    }
    let format = args.value("format").unwrap_or("report");
    let rule_names = |s: &Scenario| -> Vec<String> {
        s.watch
            .rule_set()
            .rules
            .iter()
            .map(|r| r.name.clone())
            .collect()
    };

    // Replay mode: rebuild the ledger from an exported JSONL trace. Rule
    // names fall back to the paper scenario's rule set (same fallback the
    // watch replay uses); out-of-range indices render as `rule-<n>`.
    let (ledger, truth, rules, max_cases) = if let Some(path) = args.value("trace") {
        let jsonl = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read trace file {path}: {e}");
            std::process::exit(1);
        });
        let ledger = DecisionLedger::from_trace_jsonl(&jsonl).unwrap_or_else(|e| {
            eprintln!("cannot replay trace {path}: {e}");
            std::process::exit(1);
        });
        let truth = GroundTruth::from_ledger(&ledger);
        let paper = Scenario::default_paper();
        let max_cases = paper.audit.max_cases;
        (ledger, truth, rule_names(&paper), max_cases)
    } else {
        // In-run mode: the audit block is forced on (which forces tracing
        // on), and ground truth is annotated with fault-profile names —
        // an enrichment the replay path cannot reconstruct.
        let mut scenario = scenario_from_args(args);
        scenario.audit.enabled = true;
        scenario.closed_loop.feedback = true;
        eprintln!(
            "auditing closed loop: {} machines, {} months …",
            scenario.fleet.machines, scenario.sim.months
        );
        let experiment = mercurial::FleetExperiment::build(&scenario);
        let out = ClosedLoopDriver::execute_on(&scenario, &experiment);
        let ledger = DecisionLedger::from_trace(&out.trace);
        let mut truth = GroundTruth::from_ledger(&ledger);
        for core in experiment.population().mercurial_cores() {
            truth.annotate(core.uid.as_u64(), core.profile.name.clone());
        }
        let max_cases = scenario.audit.max_cases;
        (ledger, truth, rule_names(&scenario), max_cases)
    };

    let rendered = match format {
        "report" => AuditReport::build(&ledger, &truth, &rules).render(),
        "cases" => CaseBook::build(&ledger, &truth, max_cases)
            .render(&|id| CoreUid::from_u64(id).to_string()),
        "jsonl" => ledger.to_jsonl(),
        other => {
            eprintln!("unknown --format `{other}` (report|cases|jsonl)");
            std::process::exit(2);
        }
    };
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("audit ({format}) written to {path}");
        }
        None => print!("{rendered}"),
    }
}

fn cmd_serve(args: &Args) {
    use mercurial_serve::{run_served, run_server, ServeOptions};
    use std::net::TcpListener;

    let mut scenario = scenario_from_args(args);
    scenario.closed_loop.feedback = true;
    if let Some(w) = args.value("workers") {
        scenario.serve.workers = w.parse().expect("--workers takes an integer");
    }
    if let Some(path) = args.value("impair") {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read impairment file {path}: {e}");
            std::process::exit(1);
        });
        scenario.serve.impair = serde_json::from_str(&json).unwrap_or_else(|e| {
            eprintln!("invalid impairment JSON {path}: {e}");
            std::process::exit(1);
        });
    }
    let workers = scenario.serve.workers.max(1);
    let opts = ServeOptions {
        status_addr: args.value("status").map(str::to_string),
        ..ServeOptions::default()
    };
    eprintln!(
        "serving closed loop: {} machines, {} months, {} worker{} ({}) …",
        scenario.fleet.machines,
        scenario.sim.months,
        workers,
        if workers == 1 { "" } else { "s" },
        if args.flag("procs") {
            "processes"
        } else {
            "threads"
        }
    );

    // Demo mode with --procs: real child processes speaking the protocol
    // over loopback TCP; otherwise worker threads over the same sockets.
    let served = if args.flag("procs") {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let exe = std::env::current_exe().expect("current exe");
        let mut children: Vec<std::process::Child> = (0..workers)
            .map(|_| {
                std::process::Command::new(&exe)
                    .args(["serve-worker", "--connect", &addr])
                    .spawn()
                    .unwrap_or_else(|e| {
                        eprintln!("cannot spawn worker process: {e}");
                        std::process::exit(1);
                    })
            })
            .collect();
        let out = run_server(&listener, &scenario, &opts);
        for child in &mut children {
            let status = child.wait().expect("wait for worker");
            if !status.success() {
                eprintln!("worker process exited with {status}");
            }
        }
        out
    } else {
        run_served(&scenario, &opts)
    }
    .unwrap_or_else(|e| {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    });

    println!("{}", report::detection_table(&served.outcome.pipeline));
    let l = &served.link;
    println!(
        "link: {} evidence frames, {} dropped, {} delayed, {} duplicated, {} reordered",
        l.frames, l.dropped, l.delayed, l.duplicated, l.reordered
    );
    if let Some(watch) = &served.outcome.watch {
        print!("{}", watch.render());
        std::process::exit(if watch.any_fired() { 1 } else { 0 });
    }
}

fn cmd_prof(args: &Args) {
    use mercurial::audit::DecisionLedger;
    use mercurial_prof::Prof;

    // Every observability surface on: tracing, watch, audit. The profile
    // should show what a fully instrumented production loop costs, and the
    // profiler itself is write-only — `prof_parity` pins that attaching it
    // moves no output bit.
    let mut scenario = scenario_from_args(args);
    scenario.trace.enabled = true;
    scenario.watch.enabled = true;
    scenario.audit.enabled = true;
    scenario.closed_loop.feedback = true;
    let format = args.value("format").unwrap_or("table");
    eprintln!(
        "profiling closed loop: {} machines, {} months …",
        scenario.fleet.machines, scenario.sim.months
    );

    let experiment = mercurial::FleetExperiment::build(&scenario);
    let prof = Prof::enabled();
    let opts = RunOptions {
        prof: Some(&prof),
        ..RunOptions::default()
    };
    let out = ClosedLoopDriver::execute_with(&scenario, &experiment, opts);

    // The post-run export work an operator pays for, attributed too:
    // trace serialization and the decision-ledger fold.
    let trace_bytes = {
        let _p = prof.span("trace.export");
        out.trace.to_jsonl().len()
    };
    let decisions = {
        let _p = prof.span("audit.fold");
        DecisionLedger::from_trace(&out.trace).len()
    };
    eprintln!(
        "run complete: {} detections, {} trace bytes exported, {} audited decisions",
        out.pipeline.detections.len(),
        trace_bytes,
        decisions
    );

    let profile = prof.finish();
    let rendered = match format {
        "table" => profile.render_table(),
        "folded" => {
            let mut s = profile.folded_stacks().join("\n");
            s.push('\n');
            s
        }
        other => {
            eprintln!("unknown --format `{other}` (table|folded)");
            std::process::exit(2);
        }
    };
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("profile ({format}) written to {path}");
        }
        None => print!("{rendered}"),
    }
}

fn cmd_serve_worker(args: &Args) {
    let Some(addr) = args.value("connect") else {
        eprintln!("serve-worker: --connect HOST:PORT is required");
        std::process::exit(2);
    };
    if let Err(e) = mercurial_serve::connect_and_serve(addr) {
        eprintln!("serve-worker: {e}");
        std::process::exit(1);
    }
}

fn archetype_by_name(name: &str) -> Option<mercurial::fault::CoreFaultProfile> {
    Some(match name {
        "self-inverting-aes" => library::self_inverting_aes(),
        "string-bitflip" => library::string_bitflip(11, 0.3),
        "lock-violator" => library::lock_violator(0.3),
        "vector-copy-coupled" => library::vector_copy_coupled(0.3),
        "freq-sensitive-fma" => library::freq_sensitive_fma(0.9),
        "low-freq-worse-alu" => library::low_freq_worse_alu(0.9),
        "late-onset-muldiv" => library::late_onset_muldiv(5000.0, 0.1),
        "data-pattern-vector" => library::data_pattern_vector(0.5),
        "addressgen-crasher" => library::addressgen_crasher(0.5),
        "loadstore-corruptor" => library::loadstore_corruptor(0.3),
        _ => return None,
    })
}

fn cmd_screen(args: &Args) {
    let Some(name) = args.positional.get(1) else {
        eprintln!("screen: which archetype? (try `mercurial-lab archetypes`)");
        std::process::exit(2);
    };
    let Some(profile) = archetype_by_name(name) else {
        eprintln!("unknown archetype `{name}` (try `mercurial-lab archetypes`)");
        std::process::exit(2);
    };
    let age: f64 = args
        .value("age")
        .map(|s| s.parse().expect("--age takes hours"))
        .unwrap_or(0.0);
    let mut core = SimCore::new(
        CoreConfig::default(),
        Some(Injector::new(1, profile.clone())),
    );
    core.set_age_hours(age);
    let screen = ChipScreen::new(3);
    let report = screen.screen(&mut core);
    println!("archetype: {name} (age {age} h)");
    println!("corpus screen: {}", report.summary());
    for (kernel, outcome) in &report.outcomes {
        println!("  {kernel:<16} {outcome:?}");
    }
    // If indicted, localize with the divergence finder on the first
    // failing kernel's program.
    if report.failed() {
        let corpus = mercurial::corpus::sim_corpus();
        if let Some(kernel) = corpus
            .iter()
            .find(|k| report.failing_kernels().contains(&k.name))
        {
            let finder = DivergenceFinder::default();
            let mut suspect = SimCore::new(CoreConfig::default(), Some(Injector::new(1, profile)));
            suspect.set_age_hours(age);
            let mut reference = SimCore::new(CoreConfig::default(), None);
            match finder.compare(&mut suspect, &mut reference, &kernel.program, &kernel.init_mem)
            {
                Divergence::At { pc, step, unit, inst } => println!(
                    "forensics: first divergence in `{}` at pc {pc} (step {step}): {inst} on {unit}",
                    kernel.name
                ),
                Divergence::SuspectTrapped { trap, step } => println!(
                    "forensics: suspect trapped in `{}` at step {step}: {trap}",
                    kernel.name
                ),
                other => println!("forensics: {other:?}"),
            }
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    match args.positional.first().map(String::as_str) {
        Some("scenario") => println!("{}", Scenario::default_paper().to_json()),
        Some("pipeline") => cmd_pipeline(&args),
        Some("fig1") => cmd_fig1(&args),
        Some("screen") => cmd_screen(&args),
        Some("trace") => cmd_trace(&args),
        Some("watch") => cmd_watch(&args),
        Some("audit") => cmd_audit(&args),
        Some("serve") => cmd_serve(&args),
        Some("serve-worker") => cmd_serve_worker(&args),
        Some("prof") => cmd_prof(&args),
        Some("archetypes") => {
            for a in library::ARCHETYPES {
                println!("{a}");
            }
        }
        _ => usage(),
    }
}

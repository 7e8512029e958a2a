//! `mercurial-lab` — the command-line front end of the laboratory. Run
//! it without arguments for the commands and their flags ([`USAGE`]).
//!
//! Every command returns its failure as a [`CliError`]; `main` alone
//! prints it and picks the exit code: 0 ok; 1 a run, file or
//! invalid-input failure, or a watch/serve rule fired; 2 a usage error.

use mercurial::closedloop::{ClosedLoopDriver, RunOptions};
use mercurial::fault::{library, CoreUid, Injector};
use mercurial::pipeline::PipelineRun;
use mercurial::screening::chipscreen::ChipScreen;
use mercurial::screening::{Divergence, DivergenceFinder};
use mercurial::simcpu::{CoreConfig, SimCore};
use mercurial::trace::incident_timeline;
use mercurial::{report, run_fig1, Scenario};
use mercurial_serve::{ServeOptions, ServedOutcome};
use std::fmt::Display;
use std::io::Write;
use std::num::NonZeroU32;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: mercurial-lab <command>\n\
     \n\
     commands:\n\
     scenario                         print the default scenario as JSON\n\
     pipeline [--seed N] [--paper] [--scenario FILE]\n\
     .                                run the full detect/quarantine/triage pipeline\n\
     fig1     [--seed N] [--paper] [--scenario FILE] [--csv FILE]\n\
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
     archetypes                       list the available defect archetypes\n\
     \n\
     exit codes:\n\
     0  ok\n\
     1  run, file or invalid-input failure, or a watch/serve rule fired\n\
     2  usage error";

/// Why a command did not finish with exit 0; `main` maps each to a code.
enum CliError {
    /// A bad invocation, found before anything runs (exit 2).
    Usage(String),
    /// A run, file or invalid-input failure (exit 1).
    Failed(String),
    /// A watch or serve rule fired; the report is on stdout (exit 1).
    Fired,
}

type CmdResult = Result<(), CliError>;

/// Stdout for command output, written with `write!`/`writeln!`. A failed
/// write (such as a closed pipe) is a [`CliError::Failed`] the command
/// returns, not a panic.
struct Out(std::io::Stdout);

impl Out {
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> CmdResult {
        self.0
            .write_fmt(args)
            .map_err(failed("cannot write to stdout"))
    }

    fn flush(&mut self) -> CmdResult {
        self.0.flush().map_err(failed("cannot write to stdout"))
    }
}

/// `map_err` adapter: the error `e` becomes `Failed("{context}: {e}")`.
fn failed<C: Display, E: Display>(context: C) -> impl FnOnce(E) -> CliError {
    move |e| CliError::Failed(format!("{context}: {e}"))
}

/// Reads the `what` file at `path` and parses it with `parse`.
fn load<T, E: Display>(
    path: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(failed(format!("cannot read {what} file {path}")))?;
    parse(&text).map_err(failed(format!("invalid {what} file {path}")))
}

/// Writes `text` to `path`, announcing `what` on stderr, or to stdout
/// when there is no path.
fn write_output(stdout: &mut Out, path: Option<&str>, text: &str, what: &str) -> CmdResult {
    match path {
        Some(path) => {
            std::fs::write(path, text).map_err(failed(format!("cannot write {path}")))?;
            eprintln!("{what} written to {path}");
        }
        None => write!(stdout, "{text}")?,
    }
    Ok(())
}

/// Announces on stderr the run about to start.
fn announce(what: &str, s: &Scenario) {
    eprintln!(
        "{what}: {} machines, {} months …",
        s.fleet.machines, s.sim.months
    );
}

/// A finished watch or serve run exits 1 when any rule fired.
fn verdict(fired: bool) -> CmdResult {
    if fired {
        Err(CliError::Fired)
    } else {
        Ok(())
    }
}

struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits the arguments after the command name by `command`'s spec:
    /// a switch takes no value, any other flag it accepts takes the next
    /// token unless that is a flag, and at most as many tokens stand alone
    /// as it takes positionals. Any other token is a usage error naming it.
    fn parse(command: &Command, raw: Vec<String>) -> Result<Args, CliError> {
        let &(name, positionals, spec, _) = command;
        let usage = |what: String| CliError::Usage(format!("{name}: {what}"));
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut raw = raw.into_iter().peekable();
        while let Some(arg) = raw.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                if positional.len() == positionals {
                    return Err(usage(format!("unexpected argument `{arg}`")));
                }
                positional.push(arg);
                continue;
            };
            let named = |w: &&str| w.trim_end_matches('=') == flag;
            let Some(word) = spec.split_whitespace().find(named) else {
                return Err(usage(format!("unknown flag --{flag}")));
            };
            let value = word
                .ends_with('=')
                .then(|| raw.next_if(|v| !v.starts_with("--")));
            flags.push((flag.to_string(), value.flatten()));
        }
        Ok(Args { flags, positional })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name`, `None` when the flag is absent. The flag
    /// without a value is a usage error.
    fn value(&self, name: &str) -> Result<Option<&str>, CliError> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((_, None)) => Err(CliError::Usage(format!("--{name} needs a value"))),
        }
    }

    /// The value of `--name` parsed as a `T`; a malformed value is a
    /// usage error naming the flag.
    fn parsed<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, CliError> {
        let Some(v) = self.value(name)? else {
            return Ok(None);
        };
        let usage = |e| CliError::Usage(format!("--{name}: invalid value `{v}`: {e}"));
        v.parse().map(Some).map_err(usage)
    }

    /// The value of `--name` if it is one of `choices`; the first choice
    /// is the default when the flag is absent.
    fn choice(&self, name: &str, choices: &[&'static str]) -> Result<&'static str, CliError> {
        let v = self.value(name)?.unwrap_or(choices[0]);
        choices.iter().copied().find(|&c| c == v).ok_or_else(|| {
            CliError::Usage(format!("unknown --{name} `{v}` ({})", choices.join("|")))
        })
    }

    /// The `--trace FILE` that `watch` and `audit` replay instead of
    /// running a scenario, so it excludes `--scenario`.
    fn replay_trace(&self, command: &str) -> Result<Option<&str>, CliError> {
        match (self.value("trace")?, self.value("scenario")?) {
            (Some(_), Some(_)) => Err(CliError::Usage(format!(
                "{command}: --scenario and --trace are mutually exclusive"
            ))),
            (trace, _) => Ok(trace),
        }
    }
}

fn scenario_from_args(args: &Args) -> Result<Scenario, CliError> {
    if let Some(path) = args.value("scenario")? {
        return load(path, "scenario", Scenario::from_json);
    }
    let seed = args.parsed("seed")?.unwrap_or(0xacce55);
    Ok(if args.flag("paper") {
        let mut s = Scenario::default_paper();
        s.fleet.seed = seed;
        s
    } else {
        Scenario::demo(seed)
    })
}

fn cmd_pipeline(args: &Args, stdout: &mut Out) -> CmdResult {
    let scenario = scenario_from_args(args)?;
    announce("running pipeline", &scenario);
    let outcome = PipelineRun::execute(&scenario);
    writeln!(stdout, "{}", report::detection_table(&outcome))?;
    writeln!(stdout, "{}", report::symptom_table(&outcome))?;
    Ok(())
}

fn cmd_fig1(args: &Args, stdout: &mut Out) -> CmdResult {
    let csv_path = args.value("csv")?;
    let scenario = scenario_from_args(args)?;
    announce("running Figure 1 pipeline", &scenario);
    let result = run_fig1(&scenario);
    writeln!(stdout, "{}", result.render())?;
    writeln!(
        stdout,
        "auto trend slope: {:+.4}/month",
        result.auto_trend_slope()
    )?;
    match csv_path {
        Some(_) => write_output(stdout, csv_path, &result.to_csv(), "normalized series"),
        None => Ok(()),
    }
}

fn cmd_trace(args: &Args, stdout: &mut Out) -> CmdResult {
    let format = args.choice(
        "format",
        &["summary", "jsonl", "prom", "chrome", "timeline"],
    )?;
    let out_path = args.value("out")?;
    let mut scenario = scenario_from_args(args)?;
    scenario.trace.enabled = true;
    scenario.closed_loop.feedback = true;
    announce("tracing closed loop", &scenario);
    let out = ClosedLoopDriver::execute(&scenario);
    let label = |id: u64| CoreUid::from_u64(id).to_string();
    let rendered = match format {
        "jsonl" => out.trace.to_jsonl(),
        "prom" => out.trace.to_prometheus(),
        "chrome" => out.trace.to_chrome_trace(),
        "timeline" => incident_timeline(&out.trace, &label),
        _ => {
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
            s + "\n" + &incident_timeline(&out.trace, &label)
        }
    };
    write_output(stdout, out_path, &rendered, &format!("trace ({format})"))
}

fn cmd_watch(args: &Args, stdout: &mut Out) -> CmdResult {
    use mercurial::trace::JsonlStreamSink;
    use mercurial::watch::{Baseline, RuleSet, WatchInput};

    let replay = args.replay_trace("watch")?;

    // Rules: an explicit file wins; otherwise the scenario's `watch`
    // block (including its defaults) supplies them.
    let explicit_rules = args.value("rules")?;
    let explicit_rules = explicit_rules
        .map(|path| load(path, "rules", RuleSet::from_json))
        .transpose()?;

    let baseline_path = args.value("baseline")?.unwrap_or("BASELINE_watch.json");
    // A baseline file that cannot be read is no baseline.
    let baseline = std::fs::read_to_string(baseline_path).ok();
    let baseline = baseline.map(|json| Baseline::from_json(&json)).transpose();
    let baseline = baseline.map_err(failed(format!("invalid baseline file {baseline_path}")))?;

    // Replay mode: evaluate the rules over an exported JSONL trace.
    if let Some(path) = replay {
        let input = load(path, "trace", WatchInput::from_jsonl)?;
        let rules = explicit_rules.unwrap_or_else(|| Scenario::default_paper().watch.rule_set());
        let report = rules.evaluate(&input, baseline.as_ref());
        write!(stdout, "{}", report.render())?;
        return verdict(report.any_fired());
    }

    // Scenario mode: run the closed loop with tracing forced on so the
    // in-loop engine sees the full metric surface.
    let dump_format = args
        .flag("dump-rules")
        .then(|| args.choice("format", &["json", "prom"]))
        .transpose()?;
    let stream_path = args.value("stream")?;
    let mut scenario = scenario_from_args(args)?;
    scenario.trace.enabled = true;
    scenario.closed_loop.feedback = true;
    let rules = explicit_rules.unwrap_or_else(|| scenario.watch.rule_set());
    if let Some(format) = dump_format {
        match format {
            // The in-loop epoch is one simulation step; Prometheus
            // durations and lookbacks are derived from its length.
            "prom" => write!(
                stdout,
                "{}",
                rules.to_prometheus_rules("mercurial-watch", scenario.sim.epoch_hours)
            )?,
            _ => writeln!(stdout, "{}", rules.to_json())?,
        }
        return Ok(());
    }
    eprintln!(
        "watching closed loop: {} machines, {} months, {} rules …",
        scenario.fleet.machines,
        scenario.sim.months,
        rules.rules.len()
    );

    let create = |path| {
        std::fs::File::create(path).map_err(failed(format!("cannot create stream file {path}")))
    };
    let stream = stream_path.map(create).transpose()?;
    let mut stream = stream.map(|file| JsonlStreamSink::new(std::io::BufWriter::new(file)));
    let experiment = mercurial::FleetExperiment::build(&scenario);
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
            args.value("scenario")?.unwrap_or("(builtin)"),
            scenario.fleet.seed,
        );
        return write_output(stdout, Some(baseline_path), &snap.to_json(), "baseline");
    }

    let report = out
        .watch
        .ok_or_else(|| CliError::Failed("watch: the run returned no report".to_string()))?;
    write!(stdout, "{}", report.render())?;
    verdict(report.any_fired())
}

fn cmd_audit(args: &Args, stdout: &mut Out) -> CmdResult {
    use mercurial::audit::{AuditReport, CaseBook, DecisionLedger, GroundTruth};

    let replay = args.replay_trace("audit")?;
    let format = args.choice("format", &["report", "cases", "jsonl"])?;
    let out_path = args.value("out")?;
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
    let (ledger, truth, rules, max_cases) = if let Some(path) = replay {
        let ledger = load(path, "trace", DecisionLedger::from_trace_jsonl)?;
        let truth = GroundTruth::from_ledger(&ledger);
        let paper = Scenario::default_paper();
        let max_cases = paper.audit.max_cases;
        (ledger, truth, rule_names(&paper), max_cases)
    } else {
        // In-run mode: the audit block is forced on (which forces tracing
        // on), and ground truth is annotated with fault-profile names —
        // an enrichment the replay path cannot reconstruct.
        let mut scenario = scenario_from_args(args)?;
        scenario.audit.enabled = true;
        scenario.closed_loop.feedback = true;
        announce("auditing closed loop", &scenario);
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
        "cases" => CaseBook::build(&ledger, &truth, max_cases)
            .render(&|id| CoreUid::from_u64(id).to_string()),
        "jsonl" => ledger.to_jsonl(),
        _ => AuditReport::build(&ledger, &truth, &rules).render(),
    };
    write_output(stdout, out_path, &rendered, &format!("audit ({format})"))
}

fn cmd_serve(args: &Args, stdout: &mut Out) -> CmdResult {
    let workers = args.parsed::<NonZeroU32>("workers")?;
    let impair_path = args.value("impair")?;
    let opts = ServeOptions {
        status_addr: args.value("status")?.map(str::to_string),
        ..ServeOptions::default()
    };
    let mut scenario = scenario_from_args(args)?;
    scenario.closed_loop.feedback = true;
    scenario.serve.workers = workers.map_or(scenario.serve.workers, NonZeroU32::get);
    if let Some(path) = impair_path {
        scenario.serve.impair = load(path, "impairment", serde_json::from_str)?;
    }
    let workers = scenario.serve.workers;
    let mode = if args.flag("procs") {
        "processes"
    } else {
        "threads"
    };
    eprintln!(
        "serving closed loop: {} machines, {} months, {} worker{} ({mode}) …",
        scenario.fleet.machines,
        scenario.sim.months,
        workers,
        if workers == 1 { "" } else { "s" },
    );

    // Demo mode with --procs: real child processes speaking the protocol
    // over loopback TCP; otherwise worker threads over the same sockets.
    let served = if args.flag("procs") {
        serve_procs(&scenario, &opts)?
    } else {
        mercurial_serve::run_served(&scenario, &opts).map_err(failed("serve failed"))?
    };

    writeln!(
        stdout,
        "{}",
        report::detection_table(&served.outcome.pipeline)
    )?;
    let l = &served.link;
    writeln!(
        stdout,
        "link: {} evidence frames, {} dropped, {} delayed, {} duplicated, {} reordered",
        l.frames, l.dropped, l.delayed, l.duplicated, l.reordered
    )?;
    match &served.outcome.watch {
        Some(watch) => {
            write!(stdout, "{}", watch.render())?;
            verdict(watch.any_fired())
        }
        None => Ok(()),
    }
}

/// Serves `scenario` with every worker a `serve-worker` child process of
/// this executable, connected over loopback TCP. A failed worker fails
/// the run even when the server finished.
fn serve_procs(scenario: &Scenario, opts: &ServeOptions) -> Result<ServedOutcome, CliError> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(failed("cannot bind loopback"))?;
    let addr = listener
        .local_addr()
        .map_err(failed("cannot read the loopback address"))?
        .to_string();
    let exe = std::env::current_exe().map_err(failed("cannot locate this executable"))?;
    let mut children = (0..scenario.serve.workers)
        .map(|_| {
            std::process::Command::new(&exe)
                .args(["serve-worker", "--connect", &addr])
                .spawn()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(failed("cannot spawn worker process"))?;
    let served = mercurial_serve::run_server(&listener, scenario, opts);
    let mut failed_worker = None;
    for child in &mut children {
        let status = child.wait().map_err(failed("worker process"))?;
        if !status.success() {
            failed_worker.get_or_insert(status);
        }
    }
    let served = served.map_err(failed("serve failed"))?;
    match failed_worker {
        Some(status) => Err(CliError::Failed(format!(
            "serve failed: a worker process exited with {status}"
        ))),
        None => Ok(served),
    }
}

fn cmd_prof(args: &Args, stdout: &mut Out) -> CmdResult {
    use mercurial::audit::DecisionLedger;
    use mercurial_prof::Prof;

    let format = args.choice("format", &["table", "folded"])?;
    let out_path = args.value("out")?;
    // Every observability surface on: tracing, watch, audit. The profile
    // should show what a fully instrumented production loop costs, and the
    // profiler itself is write-only — `prof_parity` pins that attaching it
    // moves no output bit.
    let mut scenario = scenario_from_args(args)?;
    scenario.trace.enabled = true;
    scenario.watch.enabled = true;
    scenario.audit.enabled = true;
    scenario.closed_loop.feedback = true;
    announce("profiling closed loop", &scenario);

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
        "folded" => profile.folded_stacks().join("\n") + "\n",
        _ => profile.render_table(),
    };
    write_output(stdout, out_path, &rendered, &format!("profile ({format})"))
}

fn cmd_serve_worker(args: &Args, _: &mut Out) -> CmdResult {
    let addr = args.value("connect")?.ok_or_else(|| {
        CliError::Usage("serve-worker: --connect HOST:PORT is required".to_string())
    })?;
    mercurial_serve::connect_and_serve(addr).map_err(failed("serve-worker"))
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

fn cmd_screen(args: &Args, stdout: &mut Out) -> CmdResult {
    let name = args.positional.first().ok_or_else(|| {
        CliError::Usage("screen: which archetype? (try `mercurial-lab archetypes`)".to_string())
    })?;
    let profile = archetype_by_name(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown archetype `{name}` (try `mercurial-lab archetypes`)"
        ))
    })?;
    let age: f64 = args.parsed("age")?.unwrap_or(0.0);
    if !(age.is_finite() && age >= 0.0) {
        return Err(CliError::Usage(format!(
            "--age: invalid value `{age}`: hours must be finite and non-negative"
        )));
    }
    let mut core = SimCore::new(
        CoreConfig::default(),
        Some(Injector::new(1, profile.clone())),
    );
    core.set_age_hours(age);
    let screen = ChipScreen::new(3);
    let report = screen.screen(&mut core);
    writeln!(stdout, "archetype: {name} (age {age} h)")?;
    writeln!(stdout, "corpus screen: {}", report.summary())?;
    for (kernel, outcome) in &report.outcomes {
        writeln!(stdout, "  {kernel:<16} {outcome:?}")?;
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
                Divergence::At { pc, step, unit, inst } => writeln!(
                    stdout,
                    "forensics: first divergence in `{}` at pc {pc} (step {step}): {inst} on {unit}",
                    kernel.name
                )?,
                Divergence::SuspectTrapped { trap, step } => writeln!(
                    stdout,
                    "forensics: suspect trapped in `{}` at step {step}: {trap}",
                    kernel.name
                )?,
                other => writeln!(stdout, "forensics: {other:?}")?,
            }
        }
    }
    Ok(())
}

fn cmd_scenario(_: &Args, stdout: &mut Out) -> CmdResult {
    writeln!(stdout, "{}", Scenario::default_paper().to_json())
}

fn cmd_archetypes(_: &Args, stdout: &mut Out) -> CmdResult {
    writeln!(stdout, "{}", library::ARCHETYPES.join("\n"))
}

/// A command's name, how many positionals it takes, its flags and its
/// body. The flags are space-separated names: one ending in `=` takes a
/// value, the others are switches.
type Command = (
    &'static str,
    usize,
    &'static str,
    fn(&Args, &mut Out) -> CmdResult,
);

/// Every command. A token its command does not take is a usage error.
const COMMANDS: [Command; 11] = [
    ("scenario", 0, "", cmd_scenario),
    ("pipeline", 0, "seed= paper scenario=", cmd_pipeline),
    ("fig1", 0, "seed= paper scenario= csv=", cmd_fig1),
    ("screen", 1, "age=", cmd_screen),
    ("trace", 0, "seed= paper scenario= format= out=", cmd_trace),
    (
        "watch",
        0,
        "rules= seed= paper scenario= trace= baseline= record-baseline stream= dump-rules format=",
        cmd_watch,
    ),
    (
        "audit",
        0,
        "seed= paper scenario= trace= format= out=",
        cmd_audit,
    ),
    (
        "serve",
        0,
        "seed= paper scenario= workers= impair= status= procs",
        cmd_serve,
    ),
    ("serve-worker", 0, "connect=", cmd_serve_worker),
    ("prof", 0, "seed= paper scenario= format= out=", cmd_prof),
    ("archetypes", 0, "", cmd_archetypes),
];

fn run() -> CmdResult {
    let mut raw = std::env::args_os()
        .skip(1)
        .map(|a| {
            a.into_string()
                .map_err(|a| CliError::Usage(format!("argument {a:?} is not valid UTF-8")))
        })
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let name = raw.next().unwrap_or_default();
    let command = COMMANDS
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
    let args = Args::parse(command, raw.collect())?;
    let mut stdout = Out(std::io::stdout());
    let result = command.3(&args, &mut stdout);
    result.and(stdout.flush())
}

/// The one place the CLI turns an error into a message and an exit code.
fn main() -> ExitCode {
    let (code, message) = match run() {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => (2, message),
        Err(CliError::Failed(message)) => (1, message),
        Err(CliError::Fired) => return ExitCode::from(1),
    };
    eprintln!("{message}");
    ExitCode::from(code)
}

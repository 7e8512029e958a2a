//! The four workloads, each as an untraced rep (end-to-end metrics) and a
//! traced rep (per-layer metrics). Both drive the lab only through its
//! public crate APIs, and both produce the same outcome digest.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mercurial::audit::{AuditReport, DecisionLedger, GroundTruth};
use mercurial::shardloop::{record_ground_truth_onsets, watch_engine};
use mercurial::trace::Trace;
use mercurial::{
    fig1_from_outcome, ClosedLoopDriver, ClosedLoopOutcome, Fig1Result, FleetAggregator,
    FleetExperiment, FleetShard, PipelineOutcome, PipelineRun, RunOptions, Scenario,
};
use mercurial_prof::{Prof, SelfProfile};
use mercurial_serve::{run_served, ServeOptions};

use crate::spans::Spans;
use crate::{median, Digest, Elapsed, Watch};

/// `scenarios/paper.json`'s own fleet seed: the default `--seed`.
pub const DEFAULT_SEED: u64 = 24301;

/// The committed paper scenario every workload starts from.
const PAPER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios/paper.json");

/// Consecutive seeds one `fig1-sweep` rep regenerates Figure 1 for.
const FIG1_SEEDS: u64 = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper scenario at 1,000,000 machines, closed loop, untraced.
    Study1m,
    /// The paper scenario at 20k machines, closed loop with the audit
    /// layer on, plus the audit exports.
    PaperAudit,
    /// Figure 1 regenerated over consecutive seeds on the batch path.
    Fig1Sweep,
    /// The paper scenario at 200k machines, served by two workers.
    Served200k,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Study1m,
        Workload::PaperAudit,
        Workload::Fig1Sweep,
        Workload::Served200k,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study1m => "study-1m",
            Workload::PaperAudit => "paper-audit",
            Workload::Fig1Sweep => "fig1-sweep",
            Workload::Served200k => "served-200k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size, or a demo size for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Demo,
}

/// The scenarios one rep of `w` runs, every fleet seed derived from
/// `seed`: one scenario, or `fig1-sweep`'s consecutive seeds.
///
/// # Errors
///
/// The paper scenario file is missing or does not parse.
pub fn scenarios(w: Workload, seed: u64, scale: Scale) -> Result<Vec<Scenario>, String> {
    let json = std::fs::read_to_string(PAPER_JSON)
        .map_err(|e| format!("cannot read {PAPER_JSON}: {e}"))?;
    let mut base = Scenario::from_json(&json)?;
    base.fleet.seed = seed;
    base.trace.enabled = false;
    base.audit.enabled = false;
    let machines = match (w, scale) {
        (_, Scale::Demo) => 2_000,
        (Workload::Study1m, Scale::Full) => 1_000_000,
        (Workload::Served200k, Scale::Full) => 200_000,
        (_, Scale::Full) => base.fleet.machines,
    };
    base.fleet.machines = machines;
    if scale == Scale::Demo {
        // Demo fleets are small, so boost incidence to keep every layer busy.
        base.sim.months = 12;
        base.fleet.rollout_months = 12;
        for p in &mut base.fleet.products {
            p.mercurial_rate_per_core *= 8.0;
        }
    }
    match w {
        Workload::Study1m => base.closed_loop.feedback = true,
        Workload::PaperAudit => {
            base.closed_loop.feedback = true;
            base.audit.enabled = true;
        }
        Workload::Served200k => {
            base.closed_loop.feedback = true;
            base.serve.workers = 2;
            base.serve.impair = Default::default();
        }
        Workload::Fig1Sweep => {
            let n = if scale == Scale::Demo { 2 } else { FIG1_SEEDS };
            return Ok((0..n)
                .map(|i| {
                    let mut s = base.clone();
                    s.fleet.seed = seed.wrapping_add(i);
                    s
                })
                .collect());
        }
    }
    Ok(vec![base])
}

/// One untraced rep: host times, the outcome digest, the output check and
/// the simulated counts that must repeat exactly.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Scenario to final outcome, exports included.
    pub total: Elapsed,
    /// Set-up, in process CPU seconds.
    pub setup_s: f64,
    pub machine_months: f64,
    pub digest: String,
    pub check: Result<(), String>,
    pub counts: Vec<(&'static str, u64)>,
}

/// One traced rep: per-layer metrics, the digest, the output check, and
/// the spans it recorded.
pub struct TracedRep {
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall seconds of the traced run's root span.
    pub wall_s: f64,
    pub digest: String,
    pub check: Result<(), String>,
    pub spans: Spans,
}

/// Set-up repeats until it has taken this long in total...
const SETUP_BUDGET_S: f64 = 0.3;
/// ...or has run this many times.
const SETUP_MAX: usize = 5;

/// Runs the set-up `f` one or more times and returns the last result
/// with the median CPU time, so a cheap set-up is measured several times.
fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        let w = Watch::start();
        let out = f();
        times.push(w.elapsed().cpu_s);
        if times.len() >= SETUP_MAX || times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            return (out, median(&times));
        }
    }
}

fn machine_months(scenarios: &[Scenario]) -> f64 {
    scenarios
        .iter()
        .map(|s| f64::from(s.fleet.machines) * f64::from(s.sim.months))
        .sum()
}

/// Runs one untraced rep of `w`.
///
/// # Errors
///
/// The served topology failed on its sockets or protocol.
pub fn run_untraced(w: Workload, scenarios: &[Scenario]) -> Result<Rep, String> {
    let mut rep = match w {
        Workload::Study1m | Workload::PaperAudit => closed_loop_rep(&scenarios[0]),
        Workload::Fig1Sweep => fig1_rep(scenarios),
        Workload::Served200k => served_rep(&scenarios[0])?,
    };
    rep.machine_months = machine_months(scenarios);
    Ok(rep)
}

/// Runs one traced rep of `w` with span run id `run`.
///
/// # Errors
///
/// The served topology failed on its sockets or protocol.
pub fn run_traced(w: Workload, scenarios: &[Scenario], run: u64) -> Result<TracedRep, String> {
    let mut traced = match w {
        Workload::Study1m | Workload::PaperAudit => closed_loop_traced(&scenarios[0], run),
        Workload::Fig1Sweep => fig1_traced(scenarios, run),
        Workload::Served200k => served_traced(&scenarios[0], run)?,
    };
    if let Err(e) = traced.spans.check_balanced() {
        traced.check = Err(e);
    }
    Ok(traced)
}

// ------------------------------------------------------------ digests

fn pipeline_digest(d: &mut Digest, p: &PipelineOutcome) {
    d.field(&format!("{:?}", p.detections));
    d.field(&format!("{:?}", p.sim_summary));
}

fn loop_digest(out: &ClosedLoopOutcome, series_csv: &str, audit: Option<&AuditExports>) -> Digest {
    let mut d = Digest::default();
    pipeline_digest(&mut d, &out.pipeline);
    d.field(series_csv);
    if let Some(a) = audit {
        d.field(&a.trace_jsonl);
        d.field(&a.ledger_jsonl);
        d.field(&a.report_text);
    }
    d
}

fn loop_counts(out: &ClosedLoopOutcome) -> Vec<(&'static str, u64)> {
    let p = &out.pipeline;
    vec![
        ("epochs", u64::from(out.epochs)),
        ("ground_truth", p.ground_truth as u64),
        ("detections", p.detections.len() as u64),
        ("detected_true", p.detected_true as u64),
        ("corruptions", p.sim_summary.corruptions),
        ("signals_emitted", p.sim_summary.signals_emitted),
        ("noise_signals", p.sim_summary.noise_signals),
    ]
}

/// The loop's basic shape: one series point per simulated epoch.
fn check_loop(out: &ClosedLoopOutcome) -> Result<(), String> {
    if out.series.len() as u32 != out.epochs {
        return Err(format!(
            "series has {} points for {} epochs",
            out.series.len(),
            out.epochs
        ));
    }
    Ok(())
}

// -------------------------------------------------------- closed loop

/// What `mercurial-lab audit` derives from an audited run.
struct AuditExports {
    trace_jsonl: String,
    ledger_jsonl: String,
    report_text: String,
    report: AuditReport,
    ledger_len: usize,
    gt_conserved: bool,
}

fn rule_names(scenario: &Scenario) -> Vec<String> {
    scenario
        .watch
        .rule_set()
        .rules
        .iter()
        .map(|r| r.name.clone())
        .collect()
}

fn audit_fold(exp: &FleetExperiment, trace: &Trace) -> (DecisionLedger, GroundTruth) {
    let ledger = DecisionLedger::from_trace(trace);
    let mut truth = GroundTruth::from_ledger(&ledger);
    for core in exp.population().mercurial_cores() {
        truth.annotate(core.uid.as_u64(), core.profile.name.clone());
    }
    (ledger, truth)
}

impl AuditExports {
    /// The audit report over a folded ledger, and its exports.
    fn report(
        scenario: &Scenario,
        exp: &FleetExperiment,
        trace_jsonl: String,
        ledger: &DecisionLedger,
        truth: &GroundTruth,
    ) -> AuditExports {
        let report = AuditReport::build(ledger, truth, &rule_names(scenario));
        let gt_conserved = report.conserves(ledger)
            && report.true_positives + report.false_negatives == exp.population().count();
        AuditExports {
            trace_jsonl,
            ledger_jsonl: ledger.to_jsonl(),
            report_text: report.render(),
            report,
            ledger_len: ledger.len(),
            gt_conserved,
        }
    }
}

fn audit_exports(scenario: &Scenario, exp: &FleetExperiment, trace: &Trace) -> AuditExports {
    let trace_jsonl = trace.to_jsonl();
    let (ledger, truth) = audit_fold(exp, trace);
    AuditExports::report(scenario, exp, trace_jsonl, &ledger, &truth)
}

fn finish_loop_rep(
    out: &ClosedLoopOutcome,
    series_csv: &str,
    audit: Option<&AuditExports>,
) -> (String, Result<(), String>, Vec<(&'static str, u64)>) {
    let digest = loop_digest(out, series_csv, audit).hex();
    let mut check = check_loop(out);
    let mut counts = loop_counts(out);
    if let Some(a) = audit {
        if !a.gt_conserved {
            check = Err(format!(
                "audit TP {} + FN {} != seeded mercurial cores {}",
                a.report.true_positives, a.report.false_negatives, out.pipeline.ground_truth
            ));
        }
        counts.push(("trace_events", out.trace.events.len() as u64));
        counts.push(("ledger_entries", a.ledger_len as u64));
        counts.push(("audit_tp", a.report.true_positives as u64));
        counts.push(("audit_fn", a.report.false_negatives as u64));
    }
    (digest, check, counts)
}

/// `study-1m` and `paper-audit`: scenario → closed loop → exports. The
/// loop's own set-up (`FleetAggregator::new`, `FleetShard::new`) runs
/// inside `ClosedLoopDriver`, so it is timed by a probe of the same calls
/// beside the run.
fn closed_loop_rep(scenario: &Scenario) -> Rep {
    let ((exp, build), setup_s) = repeat_setup(|| {
        let w = Watch::start();
        let exp = FleetExperiment::build(scenario);
        let build = w.elapsed();
        let agg = FleetAggregator::new(scenario, &exp, watch_engine(scenario, &None));
        let shard = FleetShard::new(scenario, &exp, 0, scenario.fleet.machines);
        black_box((&agg, &shard));
        drop((agg, shard));
        (exp, build)
    });

    let w = Watch::start();
    let out = ClosedLoopDriver::execute_with(scenario, &exp, RunOptions::default());
    let csv = out.series.to_csv();
    let audit = scenario
        .audit
        .enabled
        .then(|| audit_exports(scenario, &exp, &out.trace));
    let run = w.elapsed();

    let (digest, check, counts) = finish_loop_rep(&out, &csv, audit.as_ref());
    Rep {
        total: build + run,
        setup_s,
        machine_months: 0.0,
        digest,
        check,
        counts,
    }
}

/// The hand-driven closed loop: the same calls in the same order as
/// `ClosedLoopDriver`, each wrapped in a span, with an enabled `Prof`
/// splitting the lab's own phases.
fn closed_loop_traced(scenario: &Scenario, run: u64) -> TracedRep {
    let mut sp = Spans::new(run);
    let prof = Prof::enabled();
    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut quarantines, mut restores) = (0usize, 0usize);
    let (mut raw, mut evidence, mut corruptions) = (0u64, 0u64, 0u64);
    let mut stats = [mercurial::screening::ScreeningStats::default(); 3];

    let root = sp.enter("run");
    let exp = sp.time("experiment.build", || FleetExperiment::build(scenario));
    let mut rec = scenario.recorder();
    sp.time("trace.onsets", || {
        record_ground_truth_onsets(&exp, &mut rec)
    });
    let mut agg = sp.time("agg.new", || {
        FleetAggregator::new(scenario, &exp, watch_engine(scenario, &None))
    });
    let machines = exp.topology().config().machines;
    let mut shard = sp.time("shard.new", || FleetShard::new(scenario, &exp, 0, machines));
    let epochs = agg.total_epochs();
    let epoch_hours = agg.epoch_hours();
    while !agg.is_done() {
        let epoch = sp.enter("loop.epoch");
        let cmds = sp.time("agg.begin", || agg.begin_epoch(&mut rec, &prof));
        quarantines += cmds.quarantines.len();
        restores += cmds.restores.len();
        sp.time("shard.apply", || shard.apply_commands(&cmds));
        let report = sp.time("shard.step", || shard.step_epoch(&mut rec, &prof));
        raw += report.raw_signals_delta;
        evidence += report.evidence.len() as u64;
        corruptions += report.corruptions_delta;
        stats = report.stats;
        sp.time("agg.ingest", || {
            agg.ingest_reports(vec![report], &mut rec, &prof)
        });
        sp.exit(epoch);
    }
    let finished = sp.time("agg.finish", || agg.finish(&mut rec, &[], None, &prof));
    let trace = sp.time("trace.finish", || rec.finish());
    let out = ClosedLoopOutcome {
        pipeline: finished.pipeline,
        series: finished.series,
        epochs,
        epoch_hours,
        trace,
        watch: finished.watch,
    };
    let csv = sp.time("series.export", || out.series.to_csv());
    let audit = if scenario.audit.enabled {
        let trace_jsonl = sp.time("trace.export", || out.trace.to_jsonl());
        let (ledger, truth) = sp.time("audit.fold", || audit_fold(&exp, &out.trace));
        Some(sp.time("audit.report", || {
            AuditExports::report(scenario, &exp, trace_jsonl, &ledger, &truth)
        }))
    } else {
        None
    };
    sp.exit(root);

    let (digest, check, _) = finish_loop_rep(&out, &csv, audit.as_ref());
    let p = prof.finish();
    let prof_s = |path: &str| p.wall_ns(path) as f64 / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    l.insert("experiment.build_s", sp.total_s("experiment.build"));
    l.insert(
        "experiment.mercurial_cores",
        exp.population().count() as f64,
    );
    l.insert("shard.new_s", sp.total_s("shard.new"));
    l.insert("shard.step_s", sp.total_s("shard.step"));
    let epoch_ms: Vec<f64> = sp
        .named("shard.step")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    l.insert("shard.epoch_p50_ms", median(&epoch_ms));
    l.insert("shard.epoch_p95_ms", nearest_rank(&epoch_ms, 0.95));
    let fleet_step = prof_s("shard.epoch;fleet.step");
    let screen: Vec<f64> = ["screen.online", "screen.offline", "screen.burnin"]
        .iter()
        .map(|c| prof_s(&format!("shard.epoch;{c}")))
        .collect();
    l.insert("fleet.step_s", fleet_step);
    l.insert("screen.online_s", screen[0]);
    l.insert("screen.offline_s", screen[1]);
    l.insert("screen.burnin_s", screen[2]);
    let core_screens: u64 = stats.iter().map(|s| s.core_screens).sum();
    let detections: u64 = stats.iter().map(|s| s.detections).sum();
    l.insert("fleet.raw_signals", raw as f64);
    l.insert("fleet.evidence_signals", evidence as f64);
    l.insert("fleet.corruptions", corruptions as f64);
    l.insert("screen.core_screens", core_screens as f64);
    l.insert(
        "screen.test_ops",
        stats.iter().map(|s| s.test_ops).sum::<u64>() as f64,
    );
    l.insert("screen.detections", detections as f64);
    l.insert(
        "fleet.ns_per_raw_signal",
        ratio(fleet_step * 1e9, raw as f64),
    );
    l.insert(
        "screen.ns_per_core_screen",
        ratio(screen.iter().sum::<f64>() * 1e9, core_screens as f64),
    );
    l.insert(
        "screen.detections_per_mscreen",
        ratio(detections as f64 * 1e6, core_screens as f64),
    );
    l.insert("agg.new_s", sp.total_s("agg.new"));
    l.insert("agg.begin_s", sp.total_s("agg.begin"));
    l.insert("agg.ingest_s", sp.total_s("agg.ingest"));
    l.insert("agg.finish_s", sp.total_s("agg.finish"));
    l.insert("agg.quarantines", quarantines as f64);
    l.insert("agg.restores", restores as f64);
    let triage = &out.pipeline.triage_stats;
    l.insert(
        "agg.confirm_frac",
        ratio(triage.confirmed as f64, triage.investigated as f64),
    );
    l.insert(
        "score.ns_per_signal",
        ratio(prof_s("loop.ingest;score.ingest") * 1e9, evidence as f64),
    );
    l.insert(
        "watch.eval_s",
        prof_s("loop.ingest;watch.eval") + prof_s("loop.finish;watch.eval"),
    );
    l.insert("trace.events", out.trace.events.len() as f64);
    if let Some(a) = &audit {
        l.insert("trace.jsonl_bytes", a.trace_jsonl.len() as f64);
        l.insert("trace.export_s", sp.total_s("trace.export"));
        l.insert("audit.fold_s", sp.total_s("audit.fold"));
        l.insert("audit.decisions", a.ledger_len as f64);
        l.insert("audit.report_s", sp.total_s("audit.report"));
        l.insert("trace.on_off_ratio", on_off_ratio(scenario, &exp));
    }
    finish_traced(l, sp, root, &["loop.epoch"], digest, check)
}

/// Closed-loop time with the audit layer on (which forces tracing on)
/// over the same run untraced, alternating in one process so host noise
/// cancels.
fn on_off_ratio(scenario: &Scenario, exp: &FleetExperiment) -> f64 {
    let mut off = scenario.clone();
    off.audit.enabled = false;
    off.trace.enabled = false;
    let time = |s: &Scenario| {
        let t = Instant::now();
        black_box(ClosedLoopDriver::execute_with(
            s,
            exp,
            RunOptions::default(),
        ));
        t.elapsed().as_secs_f64()
    };
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on_s.push(time(scenario));
        off_s.push(time(&off));
    }
    median(&on_s) / median(&off_s)
}

/// The `p`-quantile of `xs` by nearest rank; 0 when empty.
fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn finish_traced(
    mut layers: BTreeMap<&'static str, f64>,
    spans: Spans,
    root: usize,
    containers: &[&str],
    digest: String,
    check: Result<(), String>,
) -> TracedRep {
    let wall_s = spans.spans()[root].dur_ns() as f64 / 1e9;
    layers.insert("traced.total_s", wall_s);
    layers.insert("traced.named_frac", spans.named_frac(root, containers));
    TracedRep {
        layers,
        wall_s,
        digest,
        check,
        spans,
    }
}

// --------------------------------------------------------- fig1 sweep

/// Figure 1 covers every simulated month, in both series and the CSV.
fn check_fig1(scenario: &Scenario, fig: &Fig1Result, csv: &str) -> Result<(), String> {
    let want = scenario.sim.months as usize;
    let months = [
        fig.user.counts().len(),
        fig.auto.counts().len(),
        csv.lines().count() - 1,
    ];
    if months.iter().any(|&m| m != want) {
        return Err(format!(
            "seed {}: months per series {months:?}, want {want}",
            scenario.fleet.seed
        ));
    }
    Ok(())
}

fn fig1_rep(scenarios: &[Scenario]) -> Rep {
    let (mut total, mut setup_s) = (Elapsed::default(), 0.0);
    let mut d = Digest::default();
    let mut check = Ok(());
    let (mut detections, mut signals, mut corruptions) = (0u64, 0u64, 0u64);
    for scenario in scenarios {
        let w = Watch::start();
        let exp = FleetExperiment::build(scenario);
        setup_s += w.elapsed().cpu_s;
        let outcome = PipelineRun::execute_on(scenario, &exp);
        detections += outcome.detections.len() as u64;
        signals += outcome.signals.len() as u64;
        corruptions += outcome.sim_summary.corruptions;
        pipeline_digest(&mut d, &outcome);
        let fig = fig1_from_outcome(scenario, outcome);
        let csv = fig.to_csv();
        total = total + w.elapsed();
        d.field(&csv);
        check = check.and(check_fig1(scenario, &fig, &csv));
    }
    Rep {
        total,
        setup_s,
        machine_months: 0.0,
        digest: d.hex(),
        check,
        counts: vec![
            ("seeds", scenarios.len() as u64),
            ("detections", detections),
            ("signals", signals),
            ("corruptions", corruptions),
        ],
    }
}

fn fig1_traced(scenarios: &[Scenario], run: u64) -> TracedRep {
    let mut sp = Spans::new(run);
    let mut d = Digest::default();
    let mut check = Ok(());
    let (mut cores, mut signals, mut detections) = (0usize, 0usize, 0usize);
    let root = sp.enter("run");
    for scenario in scenarios {
        let seed = sp.enter("fig1.seed");
        let exp = sp.time("experiment.build", || FleetExperiment::build(scenario));
        cores += exp.population().count();
        let (log, summary) = sp.time("fleet.run", || exp.run_signals());
        signals += log.len();
        let outcome = sp.time("pipeline.complete", || {
            PipelineRun::complete_from_signals(scenario, &exp, log, summary)
        });
        detections += outcome.detections.len();
        pipeline_digest(&mut d, &outcome);
        let (fig, csv) = sp.time("fig1.derive", || {
            let fig = fig1_from_outcome(scenario, outcome);
            let csv = fig.to_csv();
            (fig, csv)
        });
        sp.exit(seed);
        d.field(&csv);
        check = check.and(check_fig1(scenario, &fig, &csv));
    }
    sp.exit(root);

    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
    l.insert("experiment.build_s", sp.total_s("experiment.build"));
    l.insert("experiment.mercurial_cores", cores as f64);
    l.insert("fleet.run_s", sp.total_s("fleet.run"));
    l.insert("fleet.signals", signals as f64);
    l.insert("pipeline.complete_s", sp.total_s("pipeline.complete"));
    l.insert("pipeline.detections", detections as f64);
    if signals > 0 {
        l.insert(
            "pipeline.ns_per_signal",
            sp.total_s("pipeline.complete") * 1e9 / signals as f64,
        );
    }
    l.insert("fig1.derive_s", sp.total_s("fig1.derive"));
    finish_traced(l, sp, root, &["fig1.seed"], d.hex(), check)
}

// -------------------------------------------------------------- served

/// The server's set-up calls (`FleetExperiment::build`,
/// `FleetAggregator::new`), timed beside the served run: `run_served`
/// does them inside, where they cannot be split out.
fn served_setup(scenario: &Scenario, sp: &mut Spans) -> usize {
    let exp = sp.time("experiment.build", || FleetExperiment::build(scenario));
    sp.time("agg.new", || {
        black_box(FleetAggregator::new(
            scenario,
            &exp,
            watch_engine(scenario, &None),
        ));
    });
    exp.population().count()
}

fn served_rep(scenario: &Scenario) -> Result<Rep, String> {
    let (_, setup_s) = repeat_setup(|| served_setup(scenario, &mut Spans::new(0)));
    let w = Watch::start();
    let served = run_served(scenario, &ServeOptions::default())
        .map_err(|e| format!("served run failed: {e}"))?;
    let csv = served.outcome.series.to_csv();
    let total = w.elapsed();
    let mut check = check_loop(&served.outcome);
    if served.link.dropped + served.link.delayed + served.link.duplicated > 0 {
        check = Err(format!("clean links impaired frames: {:?}", served.link));
    }
    let mut counts = loop_counts(&served.outcome);
    counts.push(("evidence_frames", served.link.frames));
    Ok(Rep {
        total,
        setup_s,
        machine_months: 0.0,
        digest: loop_digest(&served.outcome, &csv, None).hex(),
        check,
        counts,
    })
}

/// Sum of server-side walls for phases whose last frame is in `leaves`,
/// leaving out the worker profiles absorbed under `serve.workers`.
fn server_phase_s(p: &SelfProfile, leaves: &[&str]) -> f64 {
    p.entries()
        .iter()
        .filter(|e| !e.stack.starts_with("serve.workers"))
        .filter(|e| leaves.iter().any(|l| e.stack.rsplit(';').next() == Some(l)))
        .map(|e| e.wall_ns as f64 / 1e9)
        .sum()
}

fn served_traced(scenario: &Scenario, run: u64) -> Result<TracedRep, String> {
    let mut sp = Spans::new(run);
    let setup = sp.enter("setup");
    let cores = served_setup(scenario, &mut sp);
    sp.exit(setup);

    let prof = Prof::enabled();
    let root = sp.enter("run");
    let opts = ServeOptions {
        prof: Some(&prof),
        ..ServeOptions::default()
    };
    let served = sp
        .time("serve.run", || run_served(scenario, &opts))
        .map_err(|e| format!("served run failed: {e}"))?;
    let csv = sp.time("series.export", || served.outcome.series.to_csv());
    sp.exit(root);

    let p = prof.finish();
    // Worker threads profile only when MERCURIAL_PROF is set; their
    // phases arrive in the `Bye` frame under `serve.workers`.
    let workers_s: f64 = p
        .entries()
        .iter()
        .filter(|e| e.stack.starts_with("serve.workers;") && e.stack.matches(';').count() == 1)
        .map(|e| e.wall_ns as f64 / 1e9)
        .sum();
    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
    l.insert("experiment.build_s", sp.total_s("experiment.build"));
    l.insert("experiment.mercurial_cores", cores as f64);
    l.insert("agg.new_s", sp.total_s("agg.new"));
    l.insert("serve.io_s", server_phase_s(&p, &["serve.io"]));
    l.insert(
        "serve.codec_s",
        server_phase_s(&p, &["serve.encode", "serve.decode"]),
    );
    l.insert("serve.workers_s", workers_s);
    l.insert("serve.evidence_frames", served.link.frames as f64);
    l.insert(
        "serve.ms_per_epoch",
        sp.total_s("serve.run") * 1e3 / f64::from(served.outcome.epochs.max(1)),
    );
    let digest = loop_digest(&served.outcome, &csv, None).hex();
    let check = check_loop(&served.outcome);
    Ok(finish_traced(l, sp, root, &[], digest, check))
}

/// The outcome digest of the closed loop driven by
/// `ClosedLoopDriver::execute_with`, untimed: what every served rep must
/// match, and what the hand-driven traced loop is pinned to.
pub fn driver_digest(scenario: &Scenario) -> String {
    let exp = FleetExperiment::build(scenario);
    let out = ClosedLoopDriver::execute_with(scenario, &exp, RunOptions::default());
    let csv = out.series.to_csv();
    let audit = scenario
        .audit
        .enabled
        .then(|| audit_exports(scenario, &exp, &out.trace));
    loop_digest(&out, &csv, audit.as_ref()).hex()
}

//! `labbench`: run one workload for a fixed time and print its metrics.
//!
//! ```text
//! labbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale full|demo]
//! ```
//!
//! Every rep runs in a fresh child process of this binary, so each
//! rep's peak resident memory is its own. With `--trace 0` the children
//! are untraced reps and the result carries the end-to-end metrics; with
//! `--trace 1` untraced and traced children alternate and the result
//! carries the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use labbench::workloads::{self, Scale, Workload, DEFAULT_SEED};
use labbench::{
    median, metrics_json, quartiles, result_line, END_TO_END, LAYER_EXTRA, PER_LAYER,
};
use mercurial_prof::{peak_rss_bytes, BenchMeta, Prof};

/// Untraced reps an end-to-end run makes at least, whatever `--seconds`.
const MIN_REPS: usize = 3;

/// No new child starts after this many seconds, so a run ends well
/// within three minutes.
const HARD_STOP_S: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Set in child processes: `untraced`, `traced` or `reference`.
    child: Option<String>,
    run: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Study1m,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        child: None,
        run: 0,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("duration"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("switch")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "demo" => Scale::Demo,
                    _ => return Err(bad("scale")),
                }
            }
            "--child" => args.child = Some(value),
            "--run" => args.run = value.parse().map_err(|_| bad("run id"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("labbench: {e}");
        std::process::exit(2);
    });
    let scenarios =
        workloads::scenarios(args.workload, args.seed, args.scale).unwrap_or_else(|e| {
            eprintln!("labbench: {e}");
            std::process::exit(1);
        });
    match args.child.as_deref() {
        Some(mode) => child_main(&args, mode, &scenarios),
        None => parent_main(&args),
    }
}

// -------------------------------------------------------------- child

/// Runs one rep and prints it as `key=value` lines for the parent.
fn child_main(args: &Args, mode: &str, scenarios: &[mercurial::Scenario]) {
    let w = args.workload;
    let fail = |e: String| -> ! {
        eprintln!("labbench child: {e}");
        std::process::exit(1);
    };
    match mode {
        "untraced" => {
            let rep = workloads::run_untraced(w, scenarios).unwrap_or_else(|e| fail(e));
            println!("total_s={}", rep.total.cpu_s);
            println!("wall_s={}", rep.total.wall_s);
            println!("setup_s={}", rep.setup_s);
            println!("machine_months={}", rep.machine_months);
            print_outputs(&rep.digest, &rep.check);
            for (name, v) in &rep.counts {
                println!("count.{name}={v}");
            }
        }
        "traced" => {
            let rep = workloads::run_traced(w, scenarios, args.run).unwrap_or_else(|e| fail(e));
            for (name, v) in &rep.layers {
                println!("layer.{name}={v}");
            }
            println!("wall_s={}", rep.wall_s);
            print_outputs(&rep.digest, &rep.check);
            let path = out_dir().join(format!(
                "{}-seed{}-run{}.spans.jsonl",
                w.name(),
                args.seed,
                args.run
            ));
            if let Err(e) = std::fs::write(&path, rep.spans.to_jsonl()) {
                fail(format!("cannot write {}: {e}", path.display()));
            }
        }
        "reference" => print_outputs(&workloads::driver_digest(&scenarios[0]), &Ok(())),
        other => fail(format!("unknown child mode `{other}`")),
    }
    let rss = peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    println!("rss_mib={rss}");
}

fn print_outputs(digest: &str, check: &Result<(), String>) {
    println!("digest={digest}");
    match check {
        Ok(()) => println!("check=ok"),
        Err(e) => println!("check={}", e.replace('\n', " ")),
    }
}

// ------------------------------------------------------------- parent

/// Where result files and span dumps go: the build's target directory.
fn out_dir() -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string());
    let dir = std::path::Path::new(&target).join("labbench-results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// One finished child: its `key=value` lines, or why it failed.
type ChildOut = Result<BTreeMap<String, String>, String>;

fn run_child(args: &Args, mode: &str, run: u64) -> ChildOut {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", mode])
        .args(["--run", &run.to_string()])
        .args([
            "--scale",
            if args.scale == Scale::Demo {
                "demo"
            } else {
                "full"
            },
        ]);
    if mode == "traced" {
        // Served worker threads read their profiler switch from here.
        cmd.env("MERCURIAL_PROF", "1");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let kv = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect::<BTreeMap<_, _>>();
    match kv.get("check").map(String::as_str) {
        Some("ok") => Ok(kv),
        Some(why) => Err(format!("{mode} child output check failed: {why}")),
        None => Err(format!("{mode} child printed no check")),
    }
}

fn num(kv: &BTreeMap<String, String>, key: &str) -> f64 {
    kv.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// The digest most successful reps agree on (ties: the first seen).
fn majority(digests: &[&str]) -> Option<String> {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for d in digests {
        match counts.iter_mut().find(|(x, _)| x == d) {
            Some((_, n)) => *n += 1,
            None => counts.push((d, 1)),
        }
    }
    let best = counts.iter().map(|&(_, n)| n).max()?;
    counts
        .into_iter()
        .find(|&(_, n)| n == best)
        .map(|(d, _)| d.to_string())
}

fn parent_main(args: &Args) {
    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();
    let mut failures: Vec<String> = Vec::new();
    let mut untraced: Vec<BTreeMap<String, String>> = Vec::new();
    let mut traced: Vec<BTreeMap<String, String>> = Vec::new();
    let mut attempted = 0usize;

    // The served topology must reproduce the in-process closed loop.
    let mut expected = None;
    if args.workload == Workload::Served200k {
        attempted += 1;
        match run_child(args, "reference", 0) {
            Ok(kv) => expected = kv.get("digest").cloned(),
            Err(e) => failures.push(e),
        }
    }

    // Wall seconds of the last child in each mode, to predict the next.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    loop {
        let traced_turn = args.trace && traced.len() < untraced.len();
        let mode = if traced_turn { "traced" } else { "untraced" };
        attempted += 1;
        let child_start = Instant::now();
        let out = run_child(args, mode, attempted as u64);
        let child_s = child_start.elapsed().as_secs_f64();
        if traced_turn {
            traced_s = child_s;
        } else {
            untraced_s = child_s;
        }
        match out {
            Ok(kv) if traced_turn => traced.push(kv),
            Ok(kv) => untraced.push(kv),
            Err(e) => failures.push(e),
        }
        let enough = if args.trace {
            !traced.is_empty() && traced.len() >= untraced.len()
        } else {
            untraced.len() >= MIN_REPS
        };
        // With enough reps, start none that would end past `--seconds`, so
        // a run lasts about `--seconds` whatever one rep costs.
        let next_s = if args.trace {
            untraced_s + traced_s
        } else {
            untraced_s
        };
        let done = if enough {
            elapsed() + next_s > args.seconds
        } else {
            elapsed() >= args.seconds && attempted >= 2 * MIN_REPS
        };
        if done || elapsed() >= HARD_STOP_S {
            break;
        }
    }

    // Every rep of one invocation must produce the same outcome.
    let all: Vec<&str> = untraced
        .iter()
        .chain(&traced)
        .filter_map(|kv| kv.get("digest").map(String::as_str))
        .collect();
    let expected = expected.or_else(|| majority(&all));
    let agrees = |kv: &BTreeMap<String, String>| kv.get("digest") == expected.as_ref();
    for (label, reps) in [("untraced", &mut untraced), ("traced", &mut traced)] {
        let before = reps.len();
        reps.retain(|kv| agrees(kv));
        for _ in reps.len()..before {
            failures.push(format!("{label} rep digest differs from {expected:?}"));
        }
    }
    let failed = failures.len();
    for f in &failures {
        eprintln!("labbench: FAILED: {f}");
    }

    let total: Vec<f64> = untraced.iter().map(|kv| num(kv, "total_s")).collect();
    let setup: Vec<f64> = untraced.iter().map(|kv| num(kv, "setup_s")).collect();
    let mm_per_s: Vec<f64> = untraced
        .iter()
        .map(|kv| num(kv, "machine_months") / (num(kv, "total_s") - num(kv, "setup_s")))
        .collect();
    let rss: Vec<f64> = untraced.iter().map(|kv| num(kv, "rss_mib")).collect();
    let wall: Vec<f64> = untraced.iter().map(|kv| num(kv, "wall_s")).collect();
    let e2e: BTreeMap<&str, Vec<f64>> = [
        ("total_s", total),
        ("setup_s", setup),
        ("machine_months_per_s", mm_per_s),
        ("peak_rss_mib", rss),
    ]
    .into_iter()
    .collect();

    let meta = BenchMeta::capture(
        &format!("labbench/{}", args.workload.name()),
        attempted as u64,
        &Prof::disabled().finish(),
    );
    println!(
        "labbench {} seed={} trace={} reps={}+{} traced | host={} nproc={} commit={} at={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        untraced.len(),
        traced.len(),
        meta.host.hostname,
        meta.host.cpus,
        meta.git_commit,
        meta.timestamp
    );

    let mut reported: Vec<(&str, f64, &str)> = Vec::new();
    let mut extra: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for &(name, _) in PER_LAYER.iter().chain(&LAYER_EXTRA) {
            let xs: Vec<f64> = traced
                .iter()
                .map(|kv| num(kv, &format!("layer.{name}")))
                .collect();
            layer.insert(name, median(&xs));
        }
        let untraced_wall = median(&wall);
        if untraced_wall > 0.0 {
            layer.insert(
                "traced.overhead_ratio",
                layer["traced.total_s"] / untraced_wall,
            );
        }
        for (name, unit) in PER_LAYER {
            reported.push((name, layer[name], unit));
        }
        for (name, unit) in LAYER_EXTRA {
            extra.push((name, layer[name], unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let xs = &e2e[name];
            let (q1, q3) = quartiles(xs);
            println!(
                "{name} = {} {unit}  (median of {}; q1 {q1}, q3 {q3})",
                median(xs),
                xs.len()
            );
            reported.push((name, median(xs), unit));
        }
        let (q1, q3) = quartiles(&wall);
        println!(
            "wall_s = {} s  (wall clock of total_s, steal included; q1 {q1}, q3 {q3})",
            median(&wall)
        );
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("failed_frac = {failed_frac} ratio  ({failed} of {attempted} runs)");
    if args.trace {
        for (name, v, unit) in reported.iter().chain(&extra) {
            println!("{name} = {v} {unit}");
        }
    }
    // Simulated counts repeat exactly when digests agree, so one rep's
    // stand for all.
    let counts: Vec<(&str, &str)> = untraced
        .first()
        .into_iter()
        .flatten()
        .filter_map(|(k, v)| Some((k.strip_prefix("count.")?, v.as_str())))
        .collect();
    let digest = expected.as_deref().unwrap_or("none");
    let human: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("digest = {digest}  counts: {}", human.join(" "));

    let correct = failed == 0 && (!untraced.is_empty()) && (!args.trace || !traced.is_empty());
    let result = result_line(correct, attempted, failed, &reported);
    let counts_json: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let body = format!(
        "\"workload\": \"{}\",\n  \"seed\": {},\n  \"digest\": \"{digest}\",\n  \"counts\": {{{}}},\n  \"layers\": {},\n  \"result\": {result}",
        args.workload.name(),
        args.seed,
        counts_json.join(", "),
        metrics_json(&extra)
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, meta.envelope(&body)) {
        eprintln!("labbench: cannot write {}: {e}", path.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
